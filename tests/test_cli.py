"""Command-line interface: exit codes, file schemas, byte-level determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giantflux.cli import dispatch
from giantflux.harness import MAX_N
from giantflux.theory import supercritical_curves, x_cov
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
        assert _run("frobnicate", "--config", "x", "--out", "y") == 2


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


class TestErrorContract:
    """Failures exit 2 with one ``[giantflux] error:`` line; exit 1 is only a failed check."""

    @staticmethod
    def _assert_one_error_line(capsys):
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1, err

    def test_bisection_failure_at_zero_margin(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, lambda_grid=[1.0000000000001])
        out = tmp_path / "x.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out), "--margin", "0") == 2
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

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert _run("graph", "--config", str(cfg), "--out", str(out), "--seed", "-3") == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and "seed" in lines[0], err
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

    def test_output_directory_missing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert _run("theory", "--config", str(cfg), "--out", str(out)) == 2
        self._assert_one_error_line(capsys)


    @pytest.mark.parametrize(
        "model",
        [
            {"type": "discrete", "atoms": [[float("nan"), 0.5], [2.0, 0.5]]},
            {"type": "constant", "c": float("inf")},
        ],
    )
    def test_non_finite_model(self, tmp_path, capsys, model):
        cfg = _write_config(tmp_path, model=model)
        assert _run("theory", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert "[giantflux] error: field 'model':" in err and "finite" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True),
            ("replicates", 2.9),
            ("n_list", [100, 200.5]),
            ("draws", False),
            ("seed", 1.5),
            ("graph_cap", "2000"),
            ("cross_pairs", [[0, 1.5]]),
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
            ("gn_threshold", True),
            ("gn_threshold", float("inf")),
            ("lambda_grid", ["2.0"]),
            ("lambda_grid", [1.5, True]),
            ("lambda_grid", {"min": "1.5", "max": 2.0, "points": 2}),
            ("lambda_grid", {"min": 1.5, "max": True, "points": 2}),
        ],
    )
    def test_float_fields_are_strict(self, tmp_path, capsys, field, value):
        cfg = _write_config(tmp_path, **{field: value})
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        err = capsys.readouterr().err
        assert f"[giantflux] error: field '{field}" in err and "finite number" in err

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
        "argv, env", [(["--threads", "0"], None), (["--threads", "-5"], None), ([], "0")]
    )
    def test_nonpositive_threads_rejected(self, tmp_path, monkeypatch, capsys, argv, env):
        if env is not None:
            monkeypatch.setenv("GIANTFLUX_THREADS", env)
        cfg = _write_config(tmp_path, replicates=3)
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *argv) == 2
        err = capsys.readouterr().err
        assert "[giantflux] error: threads must be >= 1" in err

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


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, replicates=30, n=40)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert _run("fclt", "--config", str(cfg), "--out", str(out_a), "--threads", "2") == 0
        assert _run("fclt", "--config", str(cfg), "--out", str(out_b), "--threads", "1") == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write_config(tmp_path, replicates=10, n=40)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        _run("walk", "--config", str(cfg), "--out", str(out_a), "--threads", "1")
        _run(
            "walk", "--config", str(cfg), "--out", str(out_b),
            "--seed", "999", "--threads", "1",
        )
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIANTFLUX_THREADS", "2")
        cfg = _write_config(tmp_path, replicates=10, n=40)
        out = tmp_path / "env.csv"
        assert _run("walk", "--config", str(cfg), "--out", str(out)) == 0
        ref = tmp_path / "ref.csv"
        _run("walk", "--config", str(cfg), "--out", str(ref), "--threads", "1")
        assert out.read_bytes() == ref.read_bytes()

    def test_bad_threads_env_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GIANTFLUX_THREADS", "many")
        cfg = _write_config(tmp_path)
        assert _run("walk", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 2
        assert "GIANTFLUX_THREADS" in capsys.readouterr().err
