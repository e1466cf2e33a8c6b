"""Experiment harness: determinism, targets from theory, report plumbing."""

import json
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from giantflux import harness
from giantflux.graph_oracle import candidate_probability
from giantflux.harness import (
    ExperimentConfig,
    _child_seed,
    replicate_stats,
    run_convergence_study,
    run_endpoint_check,
    run_experiment,
    run_fclt,
    run_oracle_compare,
    write_report_csv,
    write_report_json,
)
from giantflux.theory import supercritical_curves, x_cov
from giantflux.weights import WeightModel, weight_vector

ER = WeightModel.constant(1.0)
HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])


def _config(**kw):
    base = dict(
        model=ER, lambdas=(2.0,), replicates=40, seed=123, kind="fclt", n=2000, threads=1
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_rejects_single_replicate(self):
        with pytest.raises(ValueError):
            _config(replicates=1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            _config(kind="bootstrap")

    def test_rejects_subcritical_grid(self):
        with pytest.raises(ValueError, match="lambda_crit"):
            run_fclt(_config(lambdas=(0.9,)))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(kind="walk", n=None), "subcommand 'walk' requires config field 'n'"),
            (dict(kind="graph", n=None), "subcommand 'graph' requires config field 'n'"),
            (
                dict(kind="graph", n=10**8, lambdas=(3.0,)),
                "n=100000000 and lambda_grid up to 3 expect 1.5e+08 graph candidates per "
                "replicate, more than MAX_N = 100000000",
            ),
            (dict(kind="limit", n=None, draws=0), "draws must be >= 1, got 0"),
            (
                dict(kind="convergence-study", n=None),
                "subcommand 'converge' requires config field 'n_list'",
            ),
            (dict(kind="graph", lambdas=(-0.5, 1.0)), "lambda grid entries must be >= 0"),
            (
                dict(kind="oracle-compare", n=10**8, lambdas=(2.0, 3.0)),
                "n=100000000 and lambda_grid up to 3 expect 1.5e+08 graph candidates per "
                "replicate, more than MAX_N = 100000000",
            ),
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(n=10**8 + 1), "n must be <= MAX_N = 100000000, got 100000001"),
            (
                dict(kind="convergence-study", n=None, n_list=(100, 10**9)),
                "n_list entries must be <= MAX_N = 100000000, got 1000000000",
            ),
        ],
    )
    def test_rejects_what_the_cli_rejects(self, overrides, message):
        """Every check runs when the config is built, with the message the CLI prints."""
        with pytest.raises(ValueError) as info:
            _config(**overrides)
        assert str(info.value) == message


class TestFclt:
    def test_record_layout(self):
        report = run_fclt(_config(lambdas=(1.5, 2.0)))
        stats = {(r.lam, r.stat) for r in report.records}
        for lam in (1.5, 2.0):
            for name in (
                "mean_fluc_count",
                "mean_fluc_volume",
                "var_fluc_count",
                "var_fluc_volume",
                "cov_fluc_count_volume",
            ):
                assert (lam, name) in stats
        assert (1.5, "crosscov_count@lambda=2") in stats
        assert (1.5, "crosscov_volume@lambda=2") in stats

    def test_deterministic_reports(self):
        a = run_fclt(_config())
        b = run_fclt(_config())
        assert a == b

    def test_threading_does_not_change_results(self):
        a = run_fclt(_config(threads=1))
        b = run_fclt(_config(threads=4))
        assert a.records == b.records

    def test_er_count_and_volume_coordinates_coincide(self):
        """Unit weights make count = volume pathwise, and the two centerings
        agree up to the root residual, so the fluctuation coordinates differ
        only at the sqrt(n)-scaled residual level."""
        report = run_fclt(_config(replicates=30, n=5000))
        by_stat = {r.stat: r for r in report.records}
        assert by_stat["mean_fluc_count"].empirical == pytest.approx(
            by_stat["mean_fluc_volume"].empirical, abs=1e-8
        )
        assert by_stat["var_fluc_count"].empirical == pytest.approx(
            by_stat["var_fluc_volume"].empirical, abs=1e-8
        )

    def test_targets_come_from_theory(self):
        report = run_fclt(_config(model=HALF_HALF, lambdas=(1.5,)))
        cov = x_cov(supercritical_curves(HALF_HALF, [1.5]))
        by_stat = {r.stat: r for r in report.records}
        assert by_stat["var_fluc_count"].target == cov.matrix[0, 0]
        assert by_stat["var_fluc_volume"].target == cov.matrix[1, 1]
        assert by_stat["cov_fluc_count_volume"].target == cov.matrix[0, 1]

    def test_quantile_counterpart_targets_agree(self):
        """The model and its quantile empirical counterpart at matched n give
        the same targets to 1e-6."""
        n = 10**4
        v = weight_vector(HALF_HALF, n, 0)
        emp = WeightModel.empirical(v.weights)
        a = run_fclt(_config(model=HALF_HALF, lambdas=(1.5,), n=n, replicates=5))
        b = run_fclt(_config(model=emp, lambdas=(1.5,), n=n, replicates=5))
        for ra, rb in zip(a.records, b.records):
            assert ra.stat == rb.stat
            assert ra.target == pytest.approx(rb.target, abs=1e-6)


class TestOracleCompare:
    def test_single_vertex_degenerate(self):
        report = run_oracle_compare(
            _config(kind="oracle-compare", n=1, lambdas=(2.0,), replicates=10)
        )
        assert report.all_passed
        by_stat = {r.stat: r for r in report.records}
        assert by_stat["mean_count"].empirical == 1.0
        assert by_stat["mean_count"].target == 1.0
        assert by_stat["var_count"].z == 0.0

    def test_constant_weights_volume_equals_count(self):
        report = run_oracle_compare(
            _config(kind="oracle-compare", n=60, lambdas=(2.0,), replicates=150)
        )
        by_stat = {r.stat: r for r in report.records}
        assert by_stat["mean_count"].empirical == by_stat["mean_volume"].empirical
        assert by_stat["mean_count"].target == by_stat["mean_volume"].target

    def test_walk_matches_graph_at_scale(self):
        """The sparse direct graph runs where the FCLT is tested: n = 10^4."""
        start = time.perf_counter()
        report = run_oracle_compare(
            _config(
                model=HALF_HALF, kind="oracle-compare", n=10_000, lambdas=(1.5, 2.0, 3.0),
                replicates=200, seed=20250809, multiplier=3.0,
            )
        )
        elapsed = time.perf_counter() - start
        assert len(report.records) == 12
        for record in report.records:
            assert abs(record.z) <= 3.0, f"{record.stat} at lambda={record.lam}: z={record.z}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"

    def test_rejects_oversized_n(self):
        """The graph's bound is its expected candidate count q n (n - 1) / 2,
        with q from the largest weight and lambda, not a cap on n."""
        _config(model=HALF_HALF, kind="graph", n=10**5, lambdas=(0.5, 3.0))
        q = candidate_probability(10**5, 3.0, 2.0)
        assert q * (10**5 * (10**5 - 1) / 2) == pytest.approx(6.0e5, rel=1e-3)
        with pytest.raises(ValueError, match="graph candidates per replicate"):
            _config(model=HALF_HALF, kind="oracle-compare", n=10**5, lambdas=(1.5, 700.0))

    def test_compare_accepts_empirical_model(self):
        """Both simulators get the vector of weight_vector, so an empirical
        model compares like any other, iid resampled vectors included."""
        tail = 4.5
        weights = (1.0 - (np.arange(400) + 0.5) / 400) ** (-1.0 / (tail - 1.0))
        config = _config(
            model=WeightModel.empirical(weights), kind="oracle-compare", n=400,
            lambdas=(1.0, 2.0), replicates=400, seed=20250809,
        )
        report = run_oracle_compare(config)
        assert len(report.records) == 8 and report.all_passed
        for n in (400, 300):
            w_walk, _ = replicate_stats(replace(config, replicates=2), n, "walk")
            w_graph, _ = replicate_stats(replace(config, replicates=2), n, "graph")
            np.testing.assert_array_equal(w_walk.weights, w_graph.weights)


class TestEndpointCheck:
    def test_runs_and_reports(self):
        report = run_endpoint_check(
            _config(kind="endpoint-check", n=4000, replicates=60)
        )
        stats = [r.stat for r in report.records]
        assert stats == ["var_sqrtn_d", "mean_sqrtn_d", "gn_p95"]
        gn = next(r for r in report.records if r.stat == "gn_p95")
        assert gn.target == 0.5

    def test_excursion_inside_total_mass(self):
        """d always lies in (g, g + total mass] for every replicate."""
        config = _config(model=HALF_HALF, kind="endpoint-check", n=500, lambdas=(1.5, 3.0))
        v, stats = replicate_stats(config, 500, "walk")
        total_mass = float(np.sum(v.weights)) / 500
        g, d = stats[..., 2], stats[..., 3]
        assert stats.shape == (40, 2, 4)
        assert np.all((g < d) & (d <= g + total_mass + 1e-12))


class TestConvergenceStudy:
    def test_one_row_per_n_and_lambda(self):
        config = _config(
            kind="convergence-study", n=None, n_list=(500, 1000), lambdas=(1.5, 2.0),
            replicates=20,
        )
        report = run_convergence_study(config)
        assert len(report.records) == 2 * 2 * 2  # n values x lambdas x (count, volume)
        assert all(r.passed is None for r in report.records)
        assert report.all_passed  # report-only rows do not fail

    def test_seeds_disjoint_across_n(self):
        assert _child_seed(1, 1, 0, 0) != _child_seed(1, 1, 1, 0)

    def test_requires_n_list(self):
        with pytest.raises(ValueError, match="n_list"):
            run_convergence_study(
                _config(kind="convergence-study", n=None, n_list=None)
            )


class TestReplicateStats:
    def test_worker_count_does_not_change_the_array(self):
        """Each worker draws into its own reused buffers; the (R, m, 4) walk
        array is bitwise the same at 1, 2 and 4 threads, with a short switch
        interval so that the workers interleave."""
        config = _config(model=HALF_HALF, lambdas=(1.5, 2.0, 3.0), n=2000, replicates=48)
        _, one = replicate_stats(config, config.n, "walk")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 4):
                _, many = replicate_stats(replace(config, threads=threads), config.n, "walk")
                assert many.shape == (48, 3, 4)
                assert many.tobytes() == one.tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestReportEmission:
    def test_csv_and_json_round_trip(self, tmp_path):
        report = run_fclt(_config(replicates=10))
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        write_report_csv(report, csv_path)
        write_report_json(report, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda,stat,empirical,target,se,z,pass"
        assert len(lines) == 1 + len(report.records)
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "fclt"
        assert payload["all_passed"] == report.all_passed
        assert len(payload["records"]) == len(report.records)

    @pytest.mark.parametrize("writer", [write_report_csv, write_report_json])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        """A write that fails part-way leaves the old bytes and no temporary file."""
        report = run_fclt(_config(replicates=10))
        path = tmp_path / "report.out"
        path.write_text("old contents\n")

        class HalfWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "open", lambda *a, **kw: HalfWrite(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="No space"):
            writer(report, path)
        monkeypatch.undo()
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.out"]
        writer(report, path)
        assert path.read_text() != "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.out"]

    def test_dispatcher_routes_by_kind(self):
        report = run_experiment(_config(replicates=10))
        assert report.kind == "fclt"
        with pytest.raises(ValueError, match="not an experiment"):
            run_experiment(_config(kind="theory"))
