"""Experiment harness: determinism, targets from theory, report plumbing."""

import json
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from giantflux import harness
from giantflux.graph_oracle import candidate_probability, giant_path, simulate_dynamic_graph
from giantflux.harness import (
    ExperimentConfig,
    _child_seed,
    replicate_stats,
    run_convergence_study,
    run_experiment,
    run_fclt,
    run_oracle_compare,
    write_report_csv,
    write_report_json,
)
from giantflux.theory import supercritical_curves, x_cov
from giantflux.walk import giant_results, sample_clocks
from giantflux.weights import WeightModel, WeightVector, weight_vector

ER = WeightModel.constant(1.0)
HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])

# one half-half walk worker's buffers at n = 10**8 (walk._buffer_bytes):
# 30 bytes per vertex, 5 more and a block of 2**14 floats
_WORKER = 30 * 10**8 + 5 + 8 * 2**14


def _config(**kw):
    base = dict(
        model=ER, lambdas=(2.0,), replicates=40, seed=123, kind="fclt", n=2000, threads=1
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _write_three_blocks(report, path):
    harness.write_lines_atomic(path, map(str, range(3 * 4096)))


class TestEquality:
    """Classes holding arrays compare by identity, so ``==`` and ``hash``
    never reach numpy's ambiguous array truth value."""

    def test_model_and_config_compare_and_hash(self):
        a, b = (WeightModel.discrete([(1, 0.5), (2, 0.5)]) for _ in range(2))
        assert a == a and a != b and hash(a) == hash(a)
        config = ExperimentConfig(model=a, lambdas=(1.5,), kind="theory")
        assert config == replace(config) and hash(config) == hash(replace(config))
        assert config != replace(config, model=b)

    def test_every_array_holder_compares_by_identity(self):
        v = weight_vector(HALF_HALF, 20, 0)
        curves = supercritical_curves(HALF_HALF, (1.5, 2.0))
        for make in (lambda: weight_vector(HALF_HALF, 20, 0), lambda: WeightVector(v.weights).law,
                     lambda: supercritical_curves(HALF_HALF, (1.5, 2.0)), lambda: x_cov(curves),
                     lambda: sample_clocks(v, 1), lambda: simulate_dynamic_graph(v, 1, 2.0)):
            x = make()
            assert x == x and x != make() and hash(x) == hash(x)


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
            (
                dict(kind="convergence-study", n=None, n_list=(50, 80, 50)),
                "n_list entries must be distinct, got 50 more than once",
            ),
        ],
    )
    def test_rejects_what_the_cli_rejects(self, overrides, message):
        """Every check runs when the config is built, with the message the CLI prints."""
        with pytest.raises(ValueError) as info:
            _config(**overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind, threads, needed",
        [
            # two workers of 30 bytes per vertex and a block, the vector's 9 per
            # vertex and 40 bytes of tables, and the runner's (R, m, 2) array of R = 2
            ("fclt", 2, 2 * _WORKER + 9 * 10**8 + 40 + 2 * 16),
            ("fclt", 1, _WORKER + 9 * 10**8 + 40 + 2 * 16),
            ("walk", 2, 2 * _WORKER + 9 * 10**8 + 40 + 2 * 32),
            ("oracle-compare", 2, 2 * _WORKER + 9 * 10**8 + 40 + 2 * 32),
        ],
    )
    def test_refuses_a_walk_run_past_physical_memory(self, monkeypatch, kind, threads, needed):
        """At n = MAX_N the bytes a walk run holds are compared with the
        machine's memory (monkeypatched here) without allocating any of them;
        a run that fits exactly is accepted."""
        available = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": needed - 1}
        monkeypatch.setattr(harness.os, "sysconf", available.__getitem__)
        # lambda = 0.45 expects 9e7 graph candidates, within the candidate bound
        fields = dict(model=HALF_HALF, lambdas=(0.45,), kind=kind, n=10**8, replicates=2,
                      threads=threads)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                ExperimentConfig(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert str(info.value) == (f"n=100000000 with {threads} walk workers needs {needed} "
                                   f"bytes, more than the {needed - 1} bytes of physical memory")
        available["SC_PHYS_PAGES"] = needed
        ExperimentConfig(**fields)

    def test_two_workers_at_max_n_fit_in_8_gb(self, monkeypatch):
        """Half-half ``fclt`` at n = MAX_N on two workers needs about 6.9e9
        bytes, within an 8 GB machine's 8419655680."""
        available = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2_055_580}
        monkeypatch.setattr(harness.os, "sysconf", available.__getitem__)
        ExperimentConfig(model=HALF_HALF, lambdas=(1.5,), kind="fclt", n=10**8, replicates=2,
                         threads=2)
        assert 2 * _WORKER + 9 * 10**8 + 40 + 2 * 16 == 6_900_262_226

    @pytest.mark.parametrize("draws, m", [(10**7, 100), (2, 5000)])
    def test_refuses_a_limit_run_past_physical_memory(self, monkeypatch, draws, m):
        """``limit`` holds at most 4 m (draws + m) floats at once: the draws,
        the factor and the table; one more byte than memory is refused
        before anything is drawn."""
        needed = 32 * m * (draws + m)
        available = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": needed - 1}
        monkeypatch.setattr(harness.os, "sysconf", available.__getitem__)
        fields = dict(model=HALF_HALF, lambdas=tuple(np.linspace(1.0, 4.0, m).tolist()),
                      kind="limit", draws=draws)
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**fields)
        assert str(info.value) == (f"limit with draws={draws} on {m} lambdas needs {needed} "
                                   f"bytes, more than the {needed - 1} bytes of physical memory")
        available["SC_PHYS_PAGES"] = needed
        ExperimentConfig(**fields)

    def test_refuses_converge_by_its_largest_size(self, monkeypatch):
        """``converge`` holds every size's vector, and its workers the buffers
        of the largest size, whose n the refusal names."""
        needed = 30 * 10**6 + 5 + 8 * 2**14 + 9 * (10**6 + 10**3) + 2 * 40 + 2 * 16
        available = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": needed - 1}
        monkeypatch.setattr(harness.os, "sysconf", available.__getitem__)
        with pytest.raises(ValueError, match=f"^n=1000000 with 1 walk workers needs {needed} "):
            _config(model=HALF_HALF, lambdas=(1.5,), kind="convergence-study", n=None,
                    n_list=(10**6, 10**3), replicates=2)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(n=10**8 + 1), "n must be <= MAX_N = 100000000, got 100000001"),
            (
                dict(kind="oracle-compare", n=10**8, lambdas=(2.0, 3.0)),
                "n=100000000 and lambda_grid up to 3 expect 1.5e+08 graph candidates per "
                "replicate, more than MAX_N = 100000000",
            ),
        ],
    )
    def test_size_bounds_come_before_the_memory_bound(self, monkeypatch, overrides, message):
        monkeypatch.setattr(harness.os, "sysconf", lambda name: 1)
        with pytest.raises(ValueError) as info:
            _config(**overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "lambdas, message",
        [
            ((), "lambda_grid must be non-empty"),
            ((2.0, float("inf")), "lambda_grid entries must be finite"),
            ((float("nan"),), "lambda_grid entries must be finite"),
            ((2.0, 1.5), "lambda_grid must be strictly ascending"),
            ((2.0, 2.0), "lambda_grid must be strictly ascending"),
        ],
    )
    def test_rejects_a_bad_grid(self, lambdas, message):
        """The CLI's parser refuses the first three before a config is built."""
        with pytest.raises(ValueError) as info:
            _config(lambdas=lambdas)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "runner, kind",
        [(run_fclt, "fclt"), (run_oracle_compare, "oracle-compare"),
         (run_convergence_study, "convergence-study")],
    )
    def test_runner_rejects_another_kind(self, runner, kind):
        with pytest.raises(ValueError) as info:
            runner(_config(kind="walk"))
        assert str(info.value) == f"{runner.__name__} needs kind={kind!r}, got 'walk'"


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
        """Every row, in report order, is one estimator on columns a, b of the
        fluctuation matrix against x_cov's matrix[a, b] (the mean, target 0,
        when b is None); the columns are (count_1, volume_1, count_2, ...)."""
        grid = (1.5, 2.0, 3.0)
        config = _config(model=HALF_HALF, lambdas=grid)
        report = run_fclt(config)
        matrix = x_cov(supercritical_curves(HALF_HALF, grid)).matrix
        ((w, centre),) = harness._centres(config, [config.n])
        y = harness._fluctuations(replicate_stats(config, w, "walk", columns=2), centre, w.n)
        assert y.shape == (config.replicates, 2 * len(grid))
        expected = []
        for i, lam in enumerate(grid):
            expected += [(lam, "mean_fluc_count", 2 * i, None),
                         (lam, "mean_fluc_volume", 2 * i + 1, None),
                         (lam, "var_fluc_count", 2 * i, 2 * i),
                         (lam, "var_fluc_volume", 2 * i + 1, 2 * i + 1),
                         (lam, "cov_fluc_count_volume", 2 * i, 2 * i + 1)]
        for i, (lam, nxt) in enumerate(zip(grid, grid[1:])):
            expected += [(lam, f"crosscov_count@lambda={nxt:g}", 2 * i, 2 * i + 2),
                         (lam, f"crosscov_volume@lambda={nxt:g}", 2 * i + 1, 2 * i + 3)]
        assert len(report.records) == 5 * len(grid) + 2 * (len(grid) - 1) == len(expected)
        for record, (lam, stat, a, b) in zip(report.records, expected):
            assert (record.lam, record.stat) == (lam, stat)
            if b is None:
                target, (value, se) = 0.0, harness._mean_se(y[:, a])
            else:
                target, (value, se) = matrix[a, b], harness._cov_se(y[:, a], y[:, b])
            assert (record.target, record.empirical, record.se) == (target, value, se), stat

    def test_constant_sample_has_zero_se(self):
        """n = 1: every replicate's giant is the one vertex, so each
        fluctuation is constant across replicates.  Every standard error and
        every (co)variance is then exactly 0, and a nonzero mean has z = inf."""
        report = run_fclt(_config(lambdas=(1.5, 3.0), n=1, replicates=5, seed=1))
        assert len(report.records) == 12
        for record in report.records:
            assert record.se == 0.0, record
            if record.stat.startswith("mean_"):
                assert record.z == np.inf, record
            else:
                assert record.empirical == 0.0 and record.z == -np.inf, record

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

    def test_compare_accepts_empirical_model(self, monkeypatch):
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
        seen, runner = [], harness.replicate_stats
        monkeypatch.setattr(harness, "replicate_stats", lambda cfg, w, *args, **kw:
                            seen.append(w) or runner(cfg, w, *args, **kw))
        for n in (400, 300):
            seen.clear()
            run_oracle_compare(replace(config, n=n, replicates=2))
            w_walk, w_graph = seen
            assert w_walk is w_graph
            drawn = weight_vector(config.model, n, _child_seed(config.seed, harness._TAG_WEIGHTS, n))
            np.testing.assert_array_equal(w_walk.weights, drawn.weights)


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

    def test_refuses_a_subcritical_vector_before_any_n_runs(self, monkeypatch):
        """Half-half has lambda_crit 0.4, but its vector at n = 3 is (1, 1, 2),
        whose own law has lambda_crit 0.5: lambda = 0.45 is refused, naming
        n = 3 and 0.5, before any replicate runs, those at n = 50 included."""
        ran = []
        monkeypatch.setattr(harness, "_map_indexed", lambda fn, count, threads: ran.append(count))
        config = _config(model=HALF_HALF, lambdas=(0.45,), replicates=5,
                         kind="convergence-study", n=None, n_list=(50, 3))
        with pytest.raises(ValueError) as info:
            run_convergence_study(config)
        message = str(info.value)
        assert message.startswith("n=3: by the weight vector's own law, lambda = 0.45")
        assert message.endswith("(lambda_crit = 0.5)")
        assert ran == []

    def test_requires_n_list(self):
        with pytest.raises(ValueError, match="n_list"):
            run_convergence_study(
                _config(kind="convergence-study", n=None, n_list=None)
            )


class TestReplicateStats:
    def test_worker_count_does_not_change_the_array(self):
        """Workers write their replicates' rows into one shared array, and each
        walk worker draws into its own reused buffers; for both simulators the
        (R, m, k) array is bitwise the same at 1, 2 and 4 threads, with a short
        switch interval so that the workers interleave.  Near lambda_crit = 0.4
        the walk's giant at 0.45 is scanned; at 1.5..3 it is tracked from 0.42's."""
        lambdas = (0.42, 0.45, 1.5, 2.0, 3.0)
        config = _config(model=HALF_HALF, lambdas=lambdas, n=2000, replicates=48)
        interval = sys.getswitchinterval()
        for simulator, k in (("walk", 4), ("graph", 2)):
            w = harness._weights(config, config.n)
            one = replicate_stats(config, w, simulator)
            sys.setswitchinterval(1e-6)
            try:
                for threads in (2, 4):
                    many = replicate_stats(replace(config, threads=threads), w, simulator)
                    assert many.shape == (48, 5, k)
                    assert many.tobytes() == one.tobytes()
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("simulator, k", [("walk", 4), ("graph", 2)])
    def test_memory_grows_by_the_array_alone(self, simulator, k):
        """Replicates write into the one (R, m, k) float64 array, and hold no
        Python objects per result: from R = 100 to R = 1000 the traced peak
        grows by at most twice the array's 8k bytes per (replicate, lambda)."""
        lambdas = tuple(np.linspace(1.5, 3.0, 20).tolist())
        config = _config(model=HALF_HALF, lambdas=lambdas, n=200)
        w = harness._weights(config, config.n)

        def traced_peak(replicates):
            tracemalloc.start()
            try:
                replicate_stats(replace(config, replicates=replicates), w, simulator)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        replicate_stats(replace(config, replicates=2), w, simulator)  # warm-up
        per_entry = (traced_peak(1000) - traced_peak(100)) / (900 * len(lambdas))
        assert per_entry <= 2 * 8 * k, per_entry

    def test_fclt_memory_grows_by_the_columns_it_reads(self):
        """``run_fclt`` asks the runner for (count, volume) alone and centres
        them in place: from R = 100 to R = 1000 its traced peak grows by at
        most twice those 2 columns' 16 bytes per (replicate, lambda)."""
        lambdas = tuple(np.linspace(1.5, 3.0, 20).tolist())
        config = _config(model=HALF_HALF, lambdas=lambdas, n=200)

        def traced_peak(replicates):
            tracemalloc.start()
            try:
                run_fclt(replace(config, replicates=replicates))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_fclt(replace(config, replicates=2))  # warm-up
        per_entry = (traced_peak(1000) - traced_peak(100)) / (900 * len(lambdas))
        assert per_entry <= 2 * 8 * 2, per_entry

    @pytest.mark.parametrize("simulator, width", [("walk", 4), ("graph", 2)])
    def test_keeps_the_leading_columns(self, simulator, width):
        """``columns`` keeps the leading columns of every row, bit for bit."""
        config = _config(model=HALF_HALF, lambdas=(1.5, 3.0), n=200, replicates=5)
        w = harness._weights(config, config.n)
        full = replicate_stats(config, w, simulator)
        for k in range(1, width + 1):
            kept = replicate_stats(config, w, simulator, columns=k)
            assert kept.shape == (5, 2, k)
            assert kept.tobytes() == np.ascontiguousarray(full[..., :k]).tobytes()

    @pytest.mark.parametrize("simulator", ["walk", "graph"])
    @pytest.mark.parametrize("seed_path", [(), (1,)])
    def test_rows_are_the_simulators_own(self, simulator, seed_path):
        """Row rep is, byte for byte, what the simulator returns for replicate
        rep's seed: ``giant_results`` of its clocks, or ``giant_path`` of its graph."""
        config = _config(model=HALF_HALF, lambdas=(1.5, 2.0, 3.0), n=300, replicates=6, threads=2)
        w = harness._weights(config, config.n)
        stats = replicate_stats(config, w, simulator, seed_path)
        grid = config.grid()
        for rep in range(config.replicates):
            if simulator == "walk":
                seed = _child_seed(config.seed, harness._TAG_CLOCKS, *seed_path, rep)
                rows = giant_results(sample_clocks(w, seed), grid)
            else:
                seed = _child_seed(config.seed, harness._TAG_GRAPH, *seed_path, rep)
                rows = giant_path(simulate_dynamic_graph(w, seed, float(grid[-1])), grid)
            assert stats[rep].tobytes() == rows.tobytes()

    def test_rejects_an_unknown_simulator(self):
        with pytest.raises(ValueError) as info:
            replicate_stats(_config(), harness._weights(_config(), 50), "tree")
        assert str(info.value) == "unknown simulator 'tree'; expected 'walk' or 'graph'"

    def test_excursion_inside_total_mass(self):
        """d always lies in (g, g + total mass] for every replicate."""
        config = _config(model=HALF_HALF, kind="walk", n=500, lambdas=(1.5, 3.0))
        v = harness._weights(config, 500)
        stats = replicate_stats(config, v, "walk")
        total_mass = float(np.sum(v.weights)) / 500
        g, d = stats[..., 2], stats[..., 3]
        assert stats.shape == (40, 2, 4)
        assert np.all((g < d) & (d <= g + total_mass + 1e-12))


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

    @pytest.mark.parametrize(
        "writer, failing_call",
        [
            pytest.param(write_report_csv, 1, id="write_report_csv"),
            pytest.param(write_report_json, 1, id="write_report_json"),
            pytest.param(_write_three_blocks, 2, id="three_blocks_fail_in_the_second"),
        ],
    )
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, writer, failing_call):
        """A write that fails part-way, in the first block or a later one,
        leaves the old bytes and no temporary file."""
        report = run_fclt(_config(replicates=10))
        path = tmp_path / "report.out"
        path.write_text("old contents\n")
        calls = []

        class FailingWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                calls.append(len(text))
                if len(calls) < failing_call:
                    return self.fh.write(text)
                self.fh.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "open", lambda *a, **kw: FailingWrite(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="No space"):
            writer(report, path)
        monkeypatch.undo()
        assert len(calls) == failing_call
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.out"]
        writer(report, path)
        assert path.read_text() != "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.out"]

    def test_failing_line_source_keeps_old_file(self, tmp_path):
        """Lines that raise after a whole block was written leave the old bytes."""
        path = tmp_path / "table.csv"
        path.write_text("old contents\n")

        def lines():
            yield from map(str, range(4096 + 1))
            raise ValueError("bad row")

        with pytest.raises(ValueError, match="bad row"):
            harness.write_lines_atomic(path, lines())
        assert path.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_multi_block_output_is_complete(self, tmp_path):
        path = tmp_path / "table.csv"
        harness.write_lines_atomic(path, map(str, range(2 * 4096 + 1)))
        assert path.read_text() == "".join(f"{i}\n" for i in range(2 * 4096 + 1))

    def test_dispatcher_routes_by_kind(self):
        report = run_experiment(_config(replicates=10))
        assert report.kind == "fclt"
        with pytest.raises(ValueError, match="not an experiment"):
            run_experiment(_config(kind="theory"))
