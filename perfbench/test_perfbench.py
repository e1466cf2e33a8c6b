"""Tests of the benchmark itself.  Run from the checkout root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == workloads.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert spec["end_to_end"] == layers.END_TO_END
    assert spec["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in layers.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    expected = layers.PER_LAYER if trace else layers.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fclt-n1e5", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_install_wraps_every_binding_a_caller_uses():
    import giantflux.cli  # noqa: F401
    from giantflux import harness, theory, weights

    saved = [(c, k, v) for c, k, v in spans._bindings(spans.package_modules())]
    targets = {
        fn for mod in spans.package_modules() if mod.__name__ != spans.PACKAGE
        for fn in spans.public_functions(mod)
    }
    assert weights.mixed_moment in targets and spans.unwrapped_bindings(targets)
    try:
        tracer = spans.Tracer()
        assert spans.install(tracer) > 0
        assert spans.unwrapped_bindings(targets) == []
        # phi and phi_prime look up weights.mixed_moment; theory binds its own name
        assert theory.mixed_moment is weights.mixed_moment
        assert inspect.unwrap(weights.mixed_moment) is not weights.mixed_moment
        assert all(inspect.unwrap(f) is not f for f in harness._RUNNERS.values())
        model = weights.WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])
        theory.theta(model, 1.5)
        summary = tracer.summary()
        assert summary["functions"]["theory.theta"]["calls"] == 1
        assert summary["functions"]["weights.mixed_moment"]["calls"] > 0
        assert summary["counters"]["weights.moment_terms"] == (
            2 * summary["functions"]["weights.mixed_moment"]["calls"]
        )
    finally:
        for container, key, value in saved:
            container[key] = value


def _fclt_output(tmp_path) -> tuple[workloads.Workload, Path, int]:
    wl = workloads.get("fclt-grid20", smoke=True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(wl.make_config(3, setup=False)))
    out = tmp_path / "out" / "report.csv"
    out.parent.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "giantflux.cli", "fclt", "--config", str(cfg), "--out", str(out),
         "--threads", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
    )
    return wl, out, proc.returncode


def test_checks_accept_a_real_output_and_reject_a_one_ulp_target_change(tmp_path):
    wl, out, rc = _fclt_output(tmp_path)
    problems, _ = checks.full_check(wl, out, wl.size, rc)
    assert problems == []
    lines = out.read_text().split("\n")
    fields = lines[3].split(",")
    fields[3] = repr(math.nextafter(float(fields[3]), math.inf))
    lines[3] = ",".join(fields)
    out.write_text("\n".join(lines))
    problems, _ = checks.full_check(wl, out, wl.size, rc)
    assert any("target" in p for p in problems)


def test_checks_reject_bad_shapes_values_and_exit_codes():
    wl = workloads.get("limit-grid100", smoke=True)
    header = workloads.CSV_HEADERS["limit"]
    good = [f"{k},1.5,0.1,0.2" for k in range(wl.expected_rows(1))]
    assert checks.parse_csv(wl, "\n".join([header, *good]) + "\n", 1)[1] == []
    assert checks.parse_csv(wl, "\n".join(["draw,lambda,x1,x0", *good]) + "\n", 1)[1]
    assert checks.parse_csv(wl, "\n".join([header, *good[1:]]) + "\n", 1)[1]
    assert checks.parse_csv(wl, "\n".join([header, "0,1.5,nan,0.2", *good[1:]]) + "\n", 1)[1]
    assert checks.process_problems(2, "")
    assert checks.process_problems(1, "Traceback (most recent call last):\n")
    assert checks.process_problems(1, "") == []
    assert checks.exit_code_problems(0, 1) and checks.exit_code_problems(1, 0)
    assert checks.exit_code_problems(1, 2) == []
