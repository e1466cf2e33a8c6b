"""Experiment harness: determinism, targets from theory, report plumbing."""

import json
import time

import numpy as np
import pytest

from giantflux import harness
from giantflux.harness import (
    ExperimentConfig,
    _child_seed,
    run_convergence_study,
    run_endpoint_check,
    run_experiment,
    run_fclt,
    run_oracle_compare,
    write_report_csv,
    write_report_json,
)
from giantflux.theory import supercritical_curves, x_cov
from giantflux.weights import WeightModel, sample_weight_vector

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
            (dict(kind="graph", n=2001), "n=2001 exceeds the graph simulation cap 2000"),
            (dict(kind="limit", n=None, draws=0), "draws must be >= 1, got 0"),
            (
                dict(kind="convergence-study", n=None),
                "subcommand 'converge' requires config field 'n_list'",
            ),
            (dict(kind="graph", lambdas=(-0.5, 1.0)), "lambda grid entries must be >= 0"),
            (
                dict(lambdas=(1.5, 2.0), cross_pairs=((0, 2),)),
                "cross_pairs entry (0, 2) out of grid range",
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
        v = sample_weight_vector(HALF_HALF, n, "quantile", 0)
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
                replicates=200, seed=20250809, multiplier=3.0, graph_cap=10_000,
            )
        )
        elapsed = time.perf_counter() - start
        assert len(report.records) == 12
        for record in report.records:
            assert abs(record.z) <= 3.0, f"{record.stat} at lambda={record.lam}: z={record.z}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"

    def test_rejects_oversized_n(self):
        with pytest.raises(ValueError, match="cap"):
            run_oracle_compare(_config(kind="oracle-compare", n=5000, replicates=10))

    def test_rejects_empirical_model(self):
        emp = WeightModel.empirical(np.ones(30))
        with pytest.raises(ValueError, match="quantile"):
            run_oracle_compare(_config(model=emp, kind="oracle-compare", n=30, replicates=10))


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
        from giantflux.harness import walk_replicates

        v = sample_weight_vector(HALF_HALF, 500, "quantile", 0)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [1.5, 3.0])
        for path in walk_replicates(v, curves, 40, 99, threads=1):
            total_mass = float(np.sum(v.weights)) / 500
            for res in path.results:
                assert res.g < res.d <= res.g + total_mass + 1e-12


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
