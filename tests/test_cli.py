"""Command-line interface: exit codes, file schemas, byte-level determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import giantflux
from giantflux import cli, harness
from giantflux.cli import dispatch
from giantflux.harness import MAX_GRID, MAX_N
from giantflux.theory import lambda_crit, supercritical_curves, x_cov
from giantflux.weights import WeightModel


def _write_config(tmp_path, name="config.json", **overrides):
    config = {
        "model": {"type": "constant", "c": 1.0},
        "lambda_grid": [1.5, 2.0],
        "n": 50,
        "replicates": 50,
        "seed": 7,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def _run(*argv):
    return dispatch(list(argv))


class TestTheoryCommand:
    def test_csv_schema_and_values(self, tmp_path):
        cfg = _write_config(tmp_path, lambda_grid={"min": 1.1, "max": 3.0, "points": 4})
        out = tmp_path / "curves.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,theta,rho,beta,var_L,var_V,cov_LV"
        assert len(lines) == 5
        grid = np.linspace(1.1, 3.0, 4)
        curves = supercritical_curves(WeightModel.constant(1.0), grid)
        cov = x_cov(curves)
        row = [float(x) for x in lines[1].split(",")]
        assert row[1] == curves.theta[0]  # 17 significant digits round-trip
        assert row[4] == cov.var_count[0]

    @pytest.mark.parametrize("grid", [[1.5, 2.0], {"min": 1.5, "max": 3.0, "points": 20}],
                             ids=["m2", "m20"])
    def test_constant_weight_factors_without_jitter(self, tmp_path, capsys, grid):
        """For constant weight 1 the two kernel coordinates coincide, and the
        factor of rank m that x_cov keeps needs no jitter."""
        cfg = _write_config(tmp_path, lambda_grid=grid)
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 0
        assert "(factorization jitter 0)" in capsys.readouterr().err

    def test_subcritical_grid_names_offender(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, lambda_grid=[0.8, 2.0])
        out = tmp_path / "x.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "0.8" in err and "lambda_crit" in err

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{nope")
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, typo_field=1)
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_unknown_subcommand(self, tmp_path, capsys):
        for name in ("frobnicate", "endpoints"):
            assert _run(name, "--config", "x", "--out", "y") == 2
            assert f"invalid choice: '{name}'" in capsys.readouterr().err


class TestSimulatorCommands:
    def test_walk_csv_schema(self, tmp_path):
        cfg = _write_config(tmp_path, replicates=5)
        out = tmp_path / "walk.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(out), "--threads", "1") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,lambda,g,d,volume,count,flucL,flucV"
        assert len(lines) == 1 + 5 * 2

    def test_graph_csv_schema(self, tmp_path):
        cfg = _write_config(tmp_path, replicates=5)
        out = tmp_path / "graph.csv"
        assert _run("graph", "--config", str(cfg), "--out", str(out), "--threads", "1") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,lambda,L,V"
        assert len(lines) == 1 + 5 * 2

    def test_limit_csv_schema(self, tmp_path):
        cfg = _write_config(tmp_path, draws=7)
        out = tmp_path / "limit.csv"
        assert _run("limit", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "draw,lambda,x0,x1"
        assert len(lines) == 1 + 7 * 2

    def test_no_stdout_pollution(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, replicates=3)
        out = tmp_path / "walk.csv"
        _run("walk", "--config", str(cfg), "--out", str(out), "--threads", "1")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""


class TestHarnessCommands:
    def test_compare_pass_exit_zero(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            model={"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]},
            lambda_grid=[2.0],
            n=40,
            replicates=300,
            seed=11,
        )
        out = tmp_path / "cmp.csv"
        code = _run("compare", "--config", str(cfg), "--out", str(out), "--threads", "1")
        assert code == 0
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["all_passed"] is True

    def test_failed_check_exit_one(self, tmp_path):
        # an absurdly tight tolerance multiplier forces z-score failures
        cfg = _write_config(
            tmp_path,
            model={"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]},
            lambda_grid=[2.0],
            n=40,
            replicates=200,
            tolerance_multiplier=1e-4,
        )
        out = tmp_path / "cmp.csv"
        code = _run("compare", "--config", str(cfg), "--out", str(out), "--threads", "1")
        assert code == 1
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["all_passed"] is False

    def test_converge_always_exit_zero(self, tmp_path):
        cfg = _write_config(tmp_path, n=None, n_list=[200, 400], replicates=10)
        out = tmp_path / "conv.csv"
        assert _run("converge", "--config", str(cfg), "--out", str(out), "--threads", "1") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2

    def test_missing_n_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, n=None)
        assert _run("fclt", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "requires config field 'n'" in capsys.readouterr().err

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, kind="fclt")
        assert _run("compare", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "kind" in capsys.readouterr().err

    def test_infinite_z_keeps_sign_and_json_stays_strict(self, tmp_path):
        """One vertex: every replicate's statistics are equal, so se = 0 and a
        nonzero difference has an infinite z.  Its sign is the difference's,
        and the report writes it as null, which strict JSON parsers accept."""
        cfg = _write_config(tmp_path, lambda_grid=[1.5, 3.0], n=1, replicates=5, seed=1)
        out = tmp_path / "one.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            assert _run("fclt", "--config", str(cfg), "--out", str(out), "--threads", "1") == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        below = [row for row in rows if float(row[2]) < float(row[3]) and float(row[4]) == 0]
        assert below and all(row[5] == "-inf" for row in below)

        def reject(token):
            raise ValueError(token)

        report = json.loads((tmp_path / "one.json").read_text(), parse_constant=reject)
        assert len(report["records"]) == len(rows)
        for row, record in zip(rows, report["records"]):
            assert record["z"] == (float(row[5]) if np.isfinite(float(row[5])) else None)


class TestErrorContract:
    """Failures exit 2 with one ``[giantflux] error:`` line; exit 1 is only a failed check."""

    @staticmethod
    def _assert_one_error_line(capsys):
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1, err
        return lines[0]

    def test_bisection_failure_at_zero_margin(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, lambda_grid=[1.0000000000001], margin=0)
        out = tmp_path / "x.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys)

    def test_nan_in_lambda_grid(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, lambda_grid=[1.5, float("nan")])
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["theory", "graph"])
    def test_negative_seed_in_config(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path, seed=-1)
        assert _run(command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and "seed" in lines[0], err

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("graph", dict(margin=-5), "margin"),
            ("theory", dict(n=-5, n_list=[0, -3]), "n"),
            ("theory", dict(n=None, n_list=[0, -3]), "n_list"),
            ("walk", dict(n_list=[0]), "n_list"),
        ],
    )
    def test_field_the_subcommand_ignores_is_checked(
        self, tmp_path, capsys, command, overrides, field
    ):
        """margin, n and n_list are range-checked whichever subcommand runs."""
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and f"error: {field} " in lines[0], err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("walk", dict(n=1e30), "n"),
            ("converge", dict(n=None, n_list=[200, MAX_N + 1]), "n_list"),
        ],
    )
    def test_n_above_bound(self, tmp_path, capsys, command, overrides, field):
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and field in lines[0] and f"{MAX_N}" in lines[0], err
        assert not out.exists()

    def test_clock_overflow_from_a_tiny_weight(self, tmp_path, capsys):
        """xi/w overflows for a subnormal weight: exit 2 with one error line
        naming the overflow, and no RuntimeWarning on stderr."""
        model = {"type": "empirical", "weights": [5e-324, 1.0, 2.0, 1.0]}
        cfg = _write_config(tmp_path, model=model, n=4, replicates=3)
        out = tmp_path / "x.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(out), "--threads", "1") == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and "xi/w overflows" in lines[0], err
        assert "Warning" not in err and not out.exists()

    @pytest.mark.parametrize(
        "command, weights",
        [
            ("walk", [1e308] * 3),
            ("graph", [1e308] * 3),
            ("graph", [1e200, 1e200, 1.0]),
            ("theory", [1e308] * 3),
            ("fclt", [1e308] * 3),
        ],
    )
    def test_weight_whose_square_overflows(self, tmp_path, capsys, command, weights):
        """A weight above about 1.34e154 is refused where the model is built:
        exit 2 with one line naming it, and nothing else on stderr."""
        model = {"type": "empirical", "weights": weights}
        cfg = _write_config(tmp_path, model=model, n=3, lambda_grid=[1.5, 3.0], replicates=4)
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out), "--threads", "1") == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"[giantflux] error: field 'model': weight {max(weights)!r} is too large: "
            "its square overflows a float"
        ], err
        assert not out.exists()

    def test_output_directory_missing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys)

    def test_array_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        """Petabyte arrays: ``limit`` refuses their byte count before it
        draws, and where the machine's memory cannot be read every allocator
        refuses them before touching memory."""
        cfg = _write_config(tmp_path, draws=10**15)
        out = tmp_path / "x.csv"
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert _run("limit", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "[giantflux] error: limit with draws=1000000000000000 on 2 lambdas needs "
            f"64000000000000128 bytes, more than the {memory} bytes of physical memory"
        ]
        def unreadable(name):
            raise ValueError(f"unrecognized configuration name {name!r}")
        monkeypatch.setattr(os, "sysconf", unreadable)
        assert _run("limit", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and "Unable to allocate" in lines[0], err
        assert not out.exists()

    def test_grid_longer_than_max_grid(self, tmp_path, capsys):
        """Either grid form is refused above MAX_GRID before any array is built."""
        out = tmp_path / "x.csv"
        for grid, message in (
            ({"min": 1.5, "max": 3.0, "points": 10**15},
             f"lambda_grid points must be <= MAX_GRID = {MAX_GRID}, got {10**15}"),
            (np.linspace(1.5, 3.0, MAX_GRID + 1).tolist(),
             f"lambda_grid has {MAX_GRID + 1} points, more than MAX_GRID = {MAX_GRID}"),
        ):
            cfg = _write_config(tmp_path, lambda_grid=grid)
            assert _run("theory", "--config", str(cfg), "--out", str(out)) == 2
            assert capsys.readouterr().err.splitlines() == [f"[giantflux] error: {message}"]
            assert not out.exists()


    @pytest.mark.parametrize(
        "model",
        [
            {"type": "discrete", "atoms": [[float("nan"), 0.5], [2.0, 0.5]]},
            {"type": "constant", "c": float("inf")},
            # JSON integers beyond the float range
            {"type": "constant", "c": 10**400},
            {"type": "discrete", "atoms": [[10**400, 0.5], [2.0, 0.5]]},
            {"type": "empirical", "weights": [1.0, 10**400]},
        ],
    )
    def test_non_finite_model(self, tmp_path, capsys, model):
        cfg = _write_config(tmp_path, model=model)
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "[giantflux] error: field 'model':" in err and "finite" in err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True),
            ("replicates", 2.9),
            ("n_list", [100, 200.5]),
            ("draws", False),
            ("seed", 1.5),
            ("replicates", None),
            ("draws", "2"),
            ("lambda_grid", {"min": 1.5, "max": 2.0, "points": 2.5}),
        ],
    )
    def test_integer_fields_are_strict(self, tmp_path, capsys, field, value):
        cfg = _write_config(tmp_path, **{field: value})
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert f"[giantflux] error: field '{field}" in err and "integer" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("margin", True),
            ("margin", "0.01"),
            ("tolerance_multiplier", float("nan")),
            ("tolerance_multiplier", True),
            ("margin", float("inf")),
            ("lambda_grid", ["2.0"]),
            ("lambda_grid", [1.5, True]),
            ("lambda_grid", {"min": "1.5", "max": 2.0, "points": 2}),
            ("lambda_grid", {"min": 1.5, "max": True, "points": 2}),
            pytest.param("margin", 10**400, id="margin-beyond-float-range"),
        ],
    )
    def test_float_fields_are_strict(self, tmp_path, capsys, field, value):
        cfg = _write_config(tmp_path, **{field: value})
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert f"[giantflux] error: field '{field}" in err and "finite number" in err

    @pytest.mark.parametrize(
        "field, value", [("graph_cap", 2000), ("gn_threshold", 0.5), ("cross_pairs", [[0, 1]])]
    )
    def test_removed_fields_are_unknown(self, tmp_path, capsys, field, value):
        cfg = _write_config(tmp_path, **{field: value})
        out = tmp_path / "x.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"[giantflux] error: unknown config field(s): {field}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "config file not found: {0}"),
            ("[]", "config must be a JSON object"),
            (json.dumps({"model": {"type": "constant", "c": 1.0},
                         "lambda_grid": {"min": 1.5, "max": 2.0, "points": 0}}),
             "lambda_grid points must be >= 1"),
        ],
        ids=["missing", "list", "no-grid-points"],
    )
    def test_unusable_config_file(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert self._assert_one_error_line(capsys) == "[giantflux] error: " + message.format(cfg)

    def test_graph_candidate_bound(self, tmp_path, capsys, monkeypatch):
        """A heavy-tailed vector at n = 1e5 and 4 lambda_crit expects about
        6.9e8 graph candidates per replicate: one error line, before any
        replicate runs and without an output file."""
        weights = _pareto_weights(10**5)
        lam = 4.0 * lambda_crit(WeightModel.empirical(np.array(weights)))
        cfg = _write_config(
            tmp_path, model={"type": "empirical", "weights": weights},
            lambda_grid=[lam], n=10**5, replicates=2,
        )
        # a replicate would call None and escape dispatch with a TypeError
        monkeypatch.setattr(harness, "replicate_stats", None)
        out = tmp_path / "x.csv"
        assert _run("compare", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[giantflux] error: n=100000 and lambda_grid" in err
        assert "expect 6.93e+08 graph candidates" in err
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("command", ["fclt", "walk", "converge"])
    def test_vector_subcritical_by_its_own_law(self, tmp_path, capsys, monkeypatch, command):
        """Half-half at n = 3 gives the vector (1, 1, 2), whose own law has
        lambda_crit 0.5 against the model's 0.4: lambda = 0.45 exits 2 with one
        line naming n and the vector's lambda_crit, and no replicate runs."""
        model = {"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]}
        cfg = _write_config(tmp_path, model=model, lambda_grid=[0.45], n=3, n_list=[3],
                            replicates=5)
        ran = []
        monkeypatch.setattr(harness, "_map_indexed", lambda fn, count, threads: ran.append(count))
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        line = err.removesuffix("\n")
        assert "\n" not in line, f"stderr holds more than the error line: {err!r}"
        assert line.startswith("[giantflux] error: n=3: by the weight vector's own law")
        assert line.endswith("(lambda_crit = 0.5)")
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("command", ["fclt", "walk", "graph", "compare", "converge"])
    def test_one_weight_draw_per_size(self, tmp_path, capsys, monkeypatch, command):
        """A run draws each size's weight vector once and hands it to every
        replicate of both simulators; each replicate_stats call writes one
        start line."""
        sizes, draw = [], harness.weight_vector
        monkeypatch.setattr(harness, "weight_vector",
                            lambda model, n, seed: sizes.append(n) or draw(model, n, seed))
        cfg = _write_config(tmp_path, n=50, n_list=[40, 60], replicates=5)
        assert _run(command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")) in (0, 1)
        assert sizes == ([40, 60] if command == "converge" else [50])
        starts = [line for line in capsys.readouterr().err.splitlines() if " replicates at n=" in line]
        assert len(starts) == {"compare": 2, "converge": 2}.get(command, 1), starts

    def test_repeated_n_list_entry(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, lambda_grid=[2.0], n=None, n_list=[50, 50], replicates=5)
        out = tmp_path / "x.csv"
        assert _run("converge", "--config", str(cfg), "--out", str(out)) == 2
        line = self._assert_one_error_line(capsys)
        assert line == "[giantflux] error: n_list entries must be distinct, got 50 more than once"
        assert not out.exists()

    @pytest.mark.parametrize("multiplier", [-1, 0])
    def test_nonpositive_multiplier_is_config_error(self, tmp_path, capsys, multiplier):
        cfg = _write_config(tmp_path, tolerance_multiplier=multiplier, replicates=5, n=40)
        out = tmp_path / "x.csv"
        assert _run("fclt", "--config", str(cfg), "--out", str(out), "--threads", "1") == 2
        self._assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "model",
        [
            {"type": "discrete", "atoms": [[1.0]]},
            {"type": "discrete", "atoms": 5},
            {"type": "discrete", "atoms": [[1.0, True]]},
            {"type": "constant", "c": True},
            {"type": "constant", "c": "1.0"},
            {"type": "empirical", "weights": [1.0, True]},
            {"type": "empirical", "weights": {"w": 1.0}},
        ],
    )
    def test_malformed_model(self, tmp_path, capsys, model):
        cfg = _write_config(tmp_path, model=model)
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "[giantflux] error: field 'model':" in err and "number" in err

    @pytest.mark.parametrize(
        "threads, message",
        [("0", "threads must be >= 1, got 0"), ("-5", "threads must be >= 1, got -5"),
         ("257", "threads must be <= 256, got 257")],
        ids=["0", "-5", "257"],
    )
    def test_threads_out_of_range_rejected(self, tmp_path, monkeypatch, capsys, threads, message):
        """Refused before any worker starts: exit 2, not a failed thread start."""

        def no_workers(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(harness, "_map_indexed", no_workers)
        cfg = _write_config(tmp_path, replicates=3)
        out = str(tmp_path / "x.csv")
        assert _run("walk", "--config", str(cfg), "--out", out, "--threads", threads) == 2
        assert self._assert_one_error_line(capsys) == "[giantflux] error: " + message

    @pytest.mark.parametrize(
        "command, config_name, out_name, message",
        [
            # the JSON report would replace the config
            ("fclt", "run.json", "run.csv", "config {0}/run.json, CSV {0}/run.csv and JSON "
             "report {0}/run.json (--out with suffix .json) must be 3 distinct files"),
            # the JSON report would replace the CSV
            ("compare", "cfg.json", "rep.json", "config {0}/cfg.json, CSV {0}/rep.json and JSON "
             "report {0}/rep.json (--out with suffix .json) must be 3 distinct files"),
            # the CSV would replace the config
            ("theory", "t.json", "t.json",
             "config {0}/t.json and CSV {0}/t.json must be 2 distinct files"),
        ],
        ids=["fclt-run.json-run.csv", "compare-cfg.json-rep.json", "theory-t.json-t.json"],
    )
    def test_output_that_overwrites_the_config_or_the_csv(
        self, tmp_path, monkeypatch, capsys, command, config_name, out_name, message
    ):
        """Refused before any replicate runs: exit 2 with one error line naming
        each file's role, the config untouched and no file written."""
        cfg = _write_config(tmp_path, name=config_name, replicates=4)
        before = cfg.read_bytes()

        def no_replicates(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(harness, "_map_indexed", no_replicates)
        assert _run(command, "--config", str(cfg), "--out", str(tmp_path / out_name)) == 2
        line = self._assert_one_error_line(capsys)
        assert line == "[giantflux] error: " + message.format(tmp_path)
        assert cfg.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [config_name]

    def test_integral_float_accepted(self, tmp_path):
        cfg = _write_config(tmp_path, n=40.0, replicates=3.0)
        out = tmp_path / "walk.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(out), "--threads", "1") == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2


_HALF_HALF = {"type": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]}
# valid configs at tiny sizes; the fuzz test mutates them
_FUZZ_BASE = {
    "theory": {"model": _HALF_HALF, "lambda_grid": {"min": 1.5, "max": 2.5, "points": 3}},
    "walk": {"model": _HALF_HALF, "lambda_grid": [1.5, 2.0], "n": 20, "replicates": 2},
    "graph": {"model": {"type": "constant", "c": 1.0}, "lambda_grid": [0.5, 2.0], "n": 20,
              "replicates": 2},
    "limit": {"model": _HALF_HALF, "lambda_grid": {"min": 1.5, "max": 2.5, "points": 3},
              "draws": 2},
}
_FIELDS = [
    "model", "n", "n_list", "lambda_grid", "replicates", "seed", "margin",
    "tolerance_multiplier", "draws", "graph_cap", "gn_threshold", "cross_pairs", "kind", "bogus",
]
_PATHS = (
    [(f,) for f in _FIELDS]
    + [("model", k) for k in ("type", "c", "atoms", "weights")]
    + [("lambda_grid", k) for k in ("min", "max", "points")]
)
_DELETE = "<delete>"
# every integer and float drawn is small, so a mutation never makes a large run
_SCALARS = st.one_of(
    st.sampled_from([
        True, False, None, float("nan"), float("inf"), -float("inf"), "1", "", {},
        "walk", "oracle-compare", "discrete", "constant", "empirical",
        {"type": "constant", "c": 1.0}, {"type": "empirical", "weights": [1.0, 2.0]},
        {"min": 1.5, "max": 2.0, "points": 2},
    ]),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
)
_VALUES = st.one_of(
    st.just(_DELETE),
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=2),
)


class TestConfigFuzz:
    """Mutated configs never end in a traceback: exit 0, or exit 2 with one error line."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(sorted(_FUZZ_BASE)),
        mutations=st.lists(st.tuples(st.sampled_from(_PATHS), _VALUES), min_size=1, max_size=3),
    )
    @example(command="theory", mutations=[(("model", "atoms"), [[1.0]])])
    @example(command="theory", mutations=[(("lambda_grid", "points"), 2**63)])
    @example(command="theory", mutations=[(("lambda_grid", "points"), 10**8)])
    @example(command="theory", mutations=[(("lambda_grid",), {"min": -1e308, "max": 1.7e308,
                                                              "points": 3})])
    @example(command="graph", mutations=[(("lambda_grid",), [-1.7e308, 1.7e308])])
    @example(command="theory", mutations=[(("model",), {"type": "constant", "c": 1e-200})])
    def test_mutated_config_exits_cleanly(self, command, mutations):
        config = json.loads(json.dumps(_FUZZ_BASE[command]))
        for path, value in mutations:
            target = config
            for key in path[:-1]:
                target = target.get(key) if isinstance(target, dict) else None
            if not isinstance(target, dict):
                continue
            if value == _DELETE:
                target.pop(path[-1], None)
            else:
                target[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = dispatch(
                    [command, "--config", str(cfg), "--out", str(Path(tmp) / "out.csv"),
                     "--threads", "1"]
                )
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("[giantflux] error:")]
        assert code in (0, 2), (config, err.getvalue())
        assert len(errors) == (1 if code == 2 else 0), (config, err.getvalue())


class TestStreamedOutput:
    def test_limit_table_is_not_held_whole(self, tmp_path):
        """10^5 rows of ``limit`` (6 MB of CSV) stream out in blocks: the
        traced peak stays far below what the whole file as text would take."""
        cfg = _write_config(
            tmp_path, model=_HALF_HALF, lambda_grid={"min": 1.0, "max": 4.0, "points": 100},
            draws=1000,
        )
        out = tmp_path / "limit.csv"
        tracemalloc.start()
        try:
            assert _run("limit", "--config", str(cfg), "--out", str(out)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with out.open() as fh:
            assert sum(1 for _ in fh) == 1 + 1000 * 100
        assert peak < 10 * 10**6, peak

    def test_walk_table_grows_by_the_runner_array_alone(self, tmp_path):
        """``walk`` streams its rows from the runner's (R, m, 4) array and
        centres one replicate at a time: from R = 100 to R = 1000 the traced
        peak grows by at most twice that array's 32 bytes per (replicate,
        lambda).  Each replicate's 20 rows are written as they are formatted,
        so the text of one replicate, the same at either R, is all that is held."""
        grid = {"min": 1.5, "max": 3.0, "points": 20}

        def traced_peak(replicates):
            cfg = _write_config(tmp_path, model=_HALF_HALF, lambda_grid=grid, n=200,
                                replicates=replicates)
            tracemalloc.start()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "walk.csv"),
                                "--threads", "1") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(2)  # warm-up
        per_entry = (traced_peak(1000) - traced_peak(100)) / (900 * 20)
        assert per_entry <= 2 * 8 * 4, per_entry


_INTEGRAL = st.one_of(
    st.sampled_from([-0.0, 0.0, 3.0, -7.0, 1e300, -1e300, 2.0**53 + 2]),
    st.integers(-(10**6), 10**6).map(float),
)
_REAL = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LABELS = st.one_of(
    st.sampled_from([1e-05, 1e16, 1.0000000000000002, 0.0, 1.5, 2.0, 1e-300]),
    st.floats(0.0, 1e20),
)


@st.composite
def _tables(draw):
    """(lambdas, value template, table): R in 1..3, m in 1..4, k in 1..3 columns,
    each %d (integral floats) or %.17g (any finite float)."""
    lambdas = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
    specs = draw(st.lists(st.sampled_from(["%d", "%.17g"]), min_size=1, max_size=3))
    rows = st.tuples(*(_INTEGRAL if f == "%d" else _REAL for f in specs))
    table = draw(st.lists(st.lists(rows, min_size=len(lambdas), max_size=len(lambdas)),
                          min_size=1, max_size=3))
    return lambdas, ",".join(specs), np.array(table, dtype=np.float64)


# a parent of a few MB that spawns ``python *argv`` and prints the child's
# exit code and peak RSS in KiB, as os.wait4 reports them: spawned from the
# pytest process itself, a child's peak would count the pages it inherits
_PEAK_RSS = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _peak_rss_kb(*argv) -> tuple[int, int]:
    """(exit code, peak RSS in KiB) of a ``python *argv`` child, read with
    ``os.wait4`` by a ``python -S`` parent that imports nothing else."""
    env = dict(os.environ, PYTHONPATH=str(Path(giantflux.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, peak = map(int, out.stdout.split())
    return code, peak


class TestPeakMemory:
    def test_fclt_bytes_per_vertex(self, tmp_path):
        """A one-thread ``fclt`` child on the half-half law grows by at most
        50 bytes of peak RSS per vertex from n = 2e3 to n = 2e5: one worker's
        30 (``walk._buffer_bytes``) and the weight vector's 9, with the
        setup's transient arrays on top.  With 8-byte classes and limb sums
        it grew by about 80, and with a stored float prefix and a third
        scratch row (46 bytes a worker) by about 61."""
        peaks = []
        for n in (2000, 200_000):
            cfg = _write_config(tmp_path, f"config{n}.json", model=_HALF_HALF, lambda_grid=[1.5],
                                n=n, replicates=2)
            out = tmp_path / f"{n}.csv"
            code, peak = _peak_rss_kb("-m", "giantflux.cli", "fclt", "--config", str(cfg),
                                      "--out", str(out), "--threads", "1")
            assert code in (0, 1) and out.exists()
            peaks.append(peak)
        per_vertex = (peaks[1] - peaks[0]) * 1024 / (200_000 - 2000)
        assert per_vertex <= 50, (peaks, per_vertex)

    @pytest.mark.parametrize("command", ["walk", "fclt", "compare", "converge"])
    def test_run_past_physical_memory_exits_2(self, tmp_path, capsys, monkeypatch, command):
        """A walk run whose arrays exceed physical memory exits 2 with one
        line, before the start line and without writing its output."""
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}  # 400 KiB
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        n = {"n_list": [200, 20_000]} if command == "converge" else {"n": 20_000}
        cfg = _write_config(tmp_path, model=_HALF_HALF, replicates=5, **n)
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out), "--threads", "2") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"[giantflux] error: n=20000 with 2 walk workers needs {_walk_bytes(command)} "
            "bytes, more than the 409600 bytes of physical memory"
        ]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _walk_bytes(command):
    """The bytes ``test_run_past_physical_memory_exits_2`` needs: two workers
    of 30 bytes per vertex and a block of 2**14 floats, 9 per vertex and 40 of
    tables per weight vector, and the runner's array of 5 replicates and 2
    lambdas."""
    vectors = 9 * 20_000 + 40 + (9 * 200 + 40 if command == "converge" else 0)
    columns = 4 if command in ("walk", "compare") else 2
    return 2 * (30 * 20_000 + 5 + 8 * 2**14) + vectors + 5 * 2 * 8 * columns


class TestTableLines:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_tables())
    @example(([1e-05, 1e16], "%.17g,%d", np.array([[[-0.0, 1e300], [5e-324, -0.0]],
                                                   [[1e-300, 2.0], [-1e300, 7.0]]])))
    @example(([1.0000000000000002], "%d", np.array([[[1e300]], [[-3.0]], [[0.0]]])))
    def test_blocks_match_the_per_row_reference(self, case):
        """One ``%`` per replicate writes the bytes of ``template % (i,
        label, *row)`` row by row: every index and label in its own row."""
        lambdas, template, table = case
        reference = [
            ("%d,%s," + template) % (i, "%.17g" % lam, *row)
            for i, rows in enumerate(table.tolist()) for lam, row in zip(lambdas, rows)
        ]
        got = "\n".join(cli._table_lines("head", template, lambdas, table))
        assert got == "\n".join(["head", *reference])


def test_import_leaves_thread_pool_out():
    """A run at one worker never needs ``concurrent.futures``, so importing the
    CLI does not pay for it; ``_map_indexed`` imports it when workers start."""
    env = dict(os.environ, PYTHONPATH=str(Path(giantflux.__file__).parents[1]))
    probe = "import sys, giantflux.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, replicates=30, n=40)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert _run("fclt", "--config", str(cfg), "--out", str(out_a), "--threads", "2") == 0
        assert _run("fclt", "--config", str(cfg), "--out", str(out_b), "--threads", "1") == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("name", ["walk", "graph", "compare", "converge"])
    def test_byte_identical_across_workers(self, tmp_path, name):
        """Every simulator, through every subcommand that runs one: CSV and JSON bytes."""
        assert _golden_run(tmp_path, name, threads=2) == _golden_run(tmp_path, name, threads=1)

    def test_seed_override_changes_output(self, tmp_path):
        cfg_a = _write_config(tmp_path, "a.json", replicates=10, n=40)
        cfg_b = _write_config(tmp_path, "b.json", replicates=10, n=40, seed=999)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        _run("walk", "--config", str(cfg_a), "--out", str(out_a), "--threads", "1")
        _run("walk", "--config", str(cfg_b), "--out", str(out_b), "--threads", "1")
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_threads_default_to_the_cpu_count(self, tmp_path, monkeypatch):
        """Without ``--threads`` the config keeps its own default, the cpu count
        capped at ``MAX_THREADS`` (1 when unknown), and writes the 1-worker bytes."""
        cfg = _write_config(tmp_path, replicates=10, n=40)
        ref = tmp_path / "ref.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(ref), "--threads", "1") == 0
        built, load = [], cli._load_config

        def recording_load(args):
            built.append(load(args))
            return built[-1]

        monkeypatch.setattr(cli, "_load_config", recording_load)
        for cpus, threads in ((3, 3), (1000, 256), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert _run("walk", "--config", str(cfg), "--out", str(out)) == 0
            assert built.pop().threads == threads
            assert out.read_bytes() == ref.read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """``limit`` factors a 200 x 200 covariance here, and OpenBLAS threads
        change a factor's bits from 128 rows up.  Importing giantflux pins BLAS
        to one thread unless the caller set a count, so a fresh process with no
        thread variable writes the bytes of one with ``OPENBLAS_NUM_THREADS=1``.
        On a 1-core machine OpenBLAS runs one thread anyway, so the byte check
        cannot fail there even without the pin."""
        cfg = _write_config(tmp_path, model=_HALF_HALF, draws=2,
                            lambda_grid={"min": 1.0, "max": 4.0, "points": 100})
        env = dict(os.environ, PYTHONPATH=str(Path(giantflux.__file__).parents[1]))
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)

        def fresh(*argv, **extra):
            return subprocess.run([sys.executable, *argv], env={**env, **extra},
                                  capture_output=True, text=True, check=True).stdout

        outputs = []
        for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"{name}.csv"
            fresh("-m", "giantflux.cli", "limit", "--config", str(cfg), "--out", str(out), **extra)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        probe = "import os, giantflux; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert fresh("-c", probe, OPENBLAS_NUM_THREADS="3").strip() == "3"


def _pareto_weights(n):
    """Quantile weights of a Pareto law with tail exponent 3.5: K = n distinct atoms."""
    return ((1.0 - (np.arange(n) + 0.5) / n) ** (-1.0 / 2.5)).tolist()


# one small fixed config per subcommand, plus a K = n empirical fclt
_GOLDEN = {
    "theory": ("theory", {"lambda_grid": {"min": 1.5, "max": 3.0, "points": 5}}),
    "walk": ("walk", {"lambda_grid": [1.5, 2.0, 3.0], "n": 300, "replicates": 20}),
    "graph": ("graph", {"lambda_grid": [0.5, 1.5, 3.0], "n": 300, "replicates": 20}),
    "limit": ("limit", {"lambda_grid": {"min": 1.0, "max": 4.0, "points": 6}, "draws": 30}),
    "fclt": ("fclt", {"lambda_grid": [1.5, 2.0, 3.0], "n": 500, "replicates": 40}),
    "fclt-pareto": ("fclt", {"model": {"type": "empirical", "weights": _pareto_weights(400)},
                             "lambda_grid": [1.0, 2.0], "n": 400, "replicates": 40}),
    "compare": ("compare", {"lambda_grid": [1.5, 2.0, 3.0], "n": 200, "replicates": 40}),
    "converge": ("converge", {"lambda_grid": [2.0, 3.0], "n_list": [200, 500],
                              "replicates": 40}),
}


def _golden_run(tmp_path, name, threads=1):
    """Exit code and the sha256 of the CSV and (for experiments) the JSON of one run."""
    import hashlib

    command, fields = _GOLDEN[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"model": _HALF_HALF, "seed": 7, **fields}))
    out = tmp_path / f"{name}-threads{threads}.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = dispatch([command, "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)])
    report = out.with_suffix(".json")
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
               for p in (out, report)]
    return code, *digests


# (exit code, sha256 of the CSV, sha256 of the report JSON) of each config above
_DIGESTS = {
    "theory": (0, "f20992d6d5199ec566a863e950b395bfb10fd7fb47e773eb790bf61ea274233f", None),
    "walk": (0, "25c8982feefa1d40ad04b362a1fea8c7f39119bba1b96c9a425e0033049af48b", None),
    "graph": (0, "8aef27a83697a759b357af00d0eacec0f5e54a34c1748dcfdbe26a2e0349867f", None),
    "limit": (0, "ee63f492f947f986130c69cf248ed9eec017cdf44efd5271bb782d9682784263", None),
    "fclt": (1, "0933baf911cf3515edf8f7a3305df47c2eb714b15a2f432ca71f109e08cab935",
             "5d2cfbb14b179c10a7232701fb440defc20b58214dc783cb4f53d0980eb78046"),
    "fclt-pareto": (1, "6f596f5e9851cd1056036064dae5941d4fad91bd52cc91a269276df4d8913be3",
                    "eba820d52c97faacc8f7b969d04887342c36acc1dd09106fe181f6aa1eab79b0"),
    "compare": (0, "39981788128764078a6ea9ec4a8931bd06eaa726bd81f8dbbceb7c3f0a2c95f5",
                "f998081cc6d690abbf73b720d7c3045afb22e8f3e50095fbe07ea52543399581"),
    "converge": (0, "5923b27bb52bd1661d0c03a96c4011957fad9b87f9bb96cd596a39b8294c4aea",
                 "740023b0d5bebad01aca79f67c5e14f420a6dcca3e809bfff9894369b4e8ed65"),
}


class TestGolden:
    """CLI output bytes on the fixed configs above, at seed 7 and one worker.

    The exit code is part of the record: at 40 replicates the variance checks
    of the two ``fclt`` runs fail on chance alone, and they exit 1.
    """

    @pytest.mark.parametrize("name", list(_DIGESTS))
    def test_digest(self, tmp_path, name):
        assert _golden_run(tmp_path, name) == _DIGESTS[name]

    def test_empirical_model_is_sorted_once(self, tmp_path, monkeypatch):
        """An empirical model keeps the vector it was built from, so at its own
        length the run reuses that vector's classes: ``fclt-pareto`` sorts its
        400 weights with one ``np.unique`` call, and its bytes do not move.  The
        only other call is ``x_cov``'s merge of equal kernel-pair rows."""
        calls, unique = [], np.unique  # the numpy that giantflux sorts and merges with
        monkeypatch.setattr(np, "unique",
                            lambda *a, **kw: calls.append(kw.get("axis")) or unique(*a, **kw))
        assert _golden_run(tmp_path, "fclt-pareto") == _DIGESTS["fclt-pareto"]
        assert calls == [None, 0]


def test_readme_documents_every_config_field():
    """The bullets and the table of README's "Config format" name exactly the
    fields a config file may set."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format\n", 1)[1].split("\n### ", 1)[0]
    bullets = re.findall(r"`(\w+)` —", section)
    rows = re.findall(r"^ *\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(bullets + rows) == len(set(bullets + rows))
    assert set(bullets + rows) == cli._KNOWN_FIELDS


def test_readme_names_exactly_the_parser_flags(capsys):
    """README's command-line section names exactly the flags of every
    subcommand's help, and no environment variable of its own."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n### ", 1)[0]
    flag = r"(?<![\w-])--[a-z][a-z-]*"
    flags = set()
    for name in cli._SUBCOMMANDS:
        assert dispatch([name, "--help"]) == 0
        flags |= set(re.findall(flag, capsys.readouterr().out))
    assert set(re.findall(flag, section)) == flags - {"--help"}
    assert "GIANTFLUX_" not in section


def test_readme_lists_every_subcommand():
    """README's subcommand table names exactly the parser's subcommands, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` *\|", section, flags=re.MULTILINE)
    assert rows == list(cli._SUBCOMMANDS)
