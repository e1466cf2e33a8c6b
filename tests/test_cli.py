"""Command-line interface: exit codes, file schemas, byte-level determinism."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giantflux import cli, harness
from giantflux.cli import dispatch
from giantflux.harness import MAX_N
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

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("theory", dict(lambda_grid={"min": 1.5, "max": 3.0, "points": 10**15})),
            ("limit", dict(draws=10**15)),
        ],
    )
    def test_array_too_large_to_allocate(self, tmp_path, capsys, command, overrides):
        """Petabyte arrays: every allocator refuses them before touching memory."""
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        assert _run(command, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("[giantflux] error:")]
        assert len(lines) == 1 and "Unable to allocate" in lines[0], err
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

    @pytest.mark.parametrize("name", ["walk", "graph", "compare", "endpoints", "converge"])
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
    "endpoints": ("endpoints", {"lambda_grid": [2.0, 3.0], "n": 500, "replicates": 40}),
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
    "fclt": (1, "385c87f5615bf4d4012b67f4866204c783091508d8e58ddff5030068996c55ea",
             "9daaf92e8d049d011d97562ff129d23284b466d5f2986d4c1f71aff44f3ff461"),
    "fclt-pareto": (1, "10eba3dad7d54e41c945b855fa71cf238bbd4167a0ab779ae718629259b8f8a0",
                    "1dc5cdb6f7d70f0ed134571b3c02b318493f018141f22aa66178982a8b4c73ed"),
    "compare": (0, "39981788128764078a6ea9ec4a8931bd06eaa726bd81f8dbbceb7c3f0a2c95f5",
                "ba2f28c075a31e22dd3ad9dd26f7baa7f4d30ae8ff3dde15dadfd4f64865eaa3"),
    "endpoints": (0, "4a7b958044d805b566b1c3e3f1f1d7081e8efeab5ecd1c541c573b149680fac4",
                  "11c245b0b20a7302fadab6c2b6cac96f12664ae392b4c6aec246f9f6a559ac05"),
    "converge": (0, "5923b27bb52bd1661d0c03a96c4011957fad9b87f9bb96cd596a39b8294c4aea",
                 "d9a7cb62f846cf34fb7426ba69efa4bc57473a5cfca3e8347979b59c42cbc2aa"),
}


class TestGolden:
    """CLI output bytes on the fixed configs above, at seed 7 and one worker.

    The exit code is part of the record: at 40 replicates the variance checks
    of the two ``fclt`` runs fail on chance alone, and they exit 1.
    """

    @pytest.mark.parametrize("name", list(_DIGESTS))
    def test_digest(self, tmp_path, name):
        assert _golden_run(tmp_path, name) == _DIGESTS[name]


def test_readme_documents_every_config_field():
    """The bullets and the table of README's "Config format" name exactly the
    fields a config file may set."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format\n", 1)[1].split("\n### ", 1)[0]
    bullets = re.findall(r"`(\w+)` —", section)
    rows = re.findall(r"^ *\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(bullets + rows) == len(set(bullets + rows))
    assert set(bullets + rows) == cli._KNOWN_FIELDS
