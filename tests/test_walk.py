"""Breadth-first-walk encoding: excursion scan, coupling, determinism."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _brute_force_longest

from giantflux.theory import supercritical_curves
from giantflux.walk import (
    WalkRealization,
    all_excursions,
    giant_results,
    longest_excursion,
    sample_clocks,
    sweep,
    walk_value,
)
from giantflux.weights import WeightModel, WeightVector, sample_weight_vector


def _random_realization(rng, n, w_low=0.5, w_high=3.0):
    w = rng.uniform(w_low, w_high, size=n)
    xi = rng.standard_exponential(n) / w
    return WalkRealization.from_clocks(w, xi)


class TestHandComputedPaths:
    def test_single_vertex(self):
        # jump of size 1 at t = 0.3/2; descent needs exactly 1 unit of time
        r = WalkRealization.from_clocks([1.0], [0.3])
        res = longest_excursion(r, 2.0)
        assert res.g == pytest.approx(0.15, abs=1e-15)
        assert res.d == pytest.approx(1.15, abs=1e-15)
        assert res.total_volume == 1.0
        assert res.vertex_count == 1

    def test_two_jumps_merge(self):
        # second jump arrives before the first excursion closes
        r = WalkRealization.from_clocks([1.0, 1.0], [0.2, 0.5])
        res = longest_excursion(r, 1.0)
        assert res.g == pytest.approx(0.2, abs=1e-15)
        assert res.d == pytest.approx(1.2, abs=1e-15)
        assert res.total_volume == 2.0
        assert res.vertex_count == 2

    def test_tie_break_takes_first(self):
        # two disjoint excursions of length exactly 1/2 each
        r = WalkRealization.from_clocks([1.0, 1.0], [0.2, 1.9])
        excs = all_excursions(r, 1.0)
        assert len(excs) == 2
        assert excs[0].g == pytest.approx(0.2) and excs[0].d == pytest.approx(0.7)
        assert excs[1].g == pytest.approx(1.9) and excs[1].d == pytest.approx(2.4)
        res = longest_excursion(r, 1.0)
        assert res.g == pytest.approx(0.2, abs=1e-15)


class TestSampleClocks:
    def test_standard_exponential_mean(self):
        v = WeightVector(n=10**6, weights=np.ones(10**6), provenance="explicit")
        r = sample_clocks(v, 17)
        se = 1.0 / math.sqrt(10**6)
        assert abs(np.mean(r.clocks) - 1.0) <= 3 * se

    def test_rate_two_mean(self):
        # mean of an Exp(2) clock is 1/2; check both as a vector and as
        # repeated single-vertex realizations
        v = WeightVector(n=10**6, weights=np.full(10**6, 2.0), provenance="explicit")
        r = sample_clocks(v, 18)
        se = 0.5 / math.sqrt(10**6)
        assert abs(np.mean(r.clocks) - 0.5) <= 3 * se
        single = WeightVector(n=1, weights=np.array([2.0]), provenance="explicit")
        draws = np.array([sample_clocks(single, 1000 + k).clocks[0] for k in range(1000)])
        assert abs(np.mean(draws) - 0.5) <= 3 * 0.5 / math.sqrt(1000)

    def test_deterministic(self):
        v = WeightVector(n=50, weights=np.linspace(0.5, 2.0, 50), provenance="explicit")
        a = sample_clocks(v, 42)
        b = sample_clocks(v, 42)
        np.testing.assert_array_equal(a.clocks, b.clocks)
        np.testing.assert_array_equal(a.mass_prefix, b.mass_prefix)


class TestExcursionStructure:
    def test_length_sum_equals_total_mass(self):
        """Excursion lengths exhaust the jump mass: slope is -1 elsewhere."""
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 400):
            r = _random_realization(rng, n)
            for lam in (0.2, 1.0, 3.0):
                total = math.fsum(e.d - e.g for e in all_excursions(r, lam))
                assert total == pytest.approx(r.total_mass, rel=1e-9)

    def test_longest_dominates(self):
        rng = np.random.default_rng(12)
        r = _random_realization(rng, 300)
        for lam in (0.3, 0.8, 2.0):
            excs = all_excursions(r, lam)
            best = longest_excursion(r, lam)
            assert all(best.d - best.g >= e.d - e.g - 1e-12 for e in excs)

    def test_end_value_hits_running_infimum(self):
        """H(d) equals the infimum of H over [0, g], the defining property.

        The infimum of the drift-down/jump-up path over [0, g] is attained at
        left limits of jump times, probed here just below each jump.
        """
        rng = np.random.default_rng(13)
        r = _random_realization(rng, 200)
        lam = 1.3
        jump_t = r.sorted_clocks / lam
        eps = 1e-10
        for e in all_excursions(r, lam):
            value_at_d = walk_value(r, lam, e.d)
            pre_jump = [
                walk_value(r, lam, max(t - eps, 0.0))
                for t in jump_t[jump_t <= e.g + eps]
            ]
            inf_before = min(pre_jump)
            assert value_at_d == pytest.approx(inf_before, abs=1e-8)

    def test_count_matches_clock_window(self):
        """The vertex count is the clock count in the closed window, which is
        the step increment of the count process plus the opening jump."""
        rng = np.random.default_rng(14)
        r = _random_realization(rng, 150)
        n = r.n
        for lam in (0.5, 1.5):
            e = longest_excursion(r, lam)
            t = r.sorted_clocks / lam
            in_window = np.count_nonzero((t >= e.g) & (t <= e.d))
            assert e.vertex_count == in_window
            before_d = np.count_nonzero(t <= e.d) / n
            before_g = np.count_nonzero(t <= e.g) / n
            assert e.vertex_count == round(n * (before_d - before_g) + 1)

    def test_volume_consistency(self):
        rng = np.random.default_rng(15)
        r = _random_realization(rng, 1000)
        e = longest_excursion(r, 2.0)
        assert e.total_volume == pytest.approx(r.n * (e.d - e.g), rel=1e-9)
        assert e.volume == pytest.approx(e.d - e.g, abs=0)
        assert e.count_fraction == e.vertex_count / r.n


class TestWalkValue:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(16)
        r = _random_realization(rng, 30)
        assert walk_value(r, 1.0, 0.0) == 0.0

    def test_after_last_jump(self):
        rng = np.random.default_rng(17)
        r = _random_realization(rng, 30)
        lam = 1.7
        t = float(r.sorted_clocks[-1] / lam) * 1.001
        assert walk_value(r, lam, t) == pytest.approx(r.total_mass - t, abs=1e-15)

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(18)
        r = _random_realization(rng, 500)
        lam = 0.9
        for t in rng.uniform(0.0, 4.0, size=1000):
            naive = np.sum(r.weights[r.clocks <= lam * t]) / r.n - t
            assert walk_value(r, lam, t) == pytest.approx(naive, abs=1e-12)


class TestSweep:
    def test_single_point_matches_longest_excursion(self):
        v = sample_weight_vector(WeightModel.constant(1.0), 500, "quantile", 0)
        r = sample_clocks(v, 5)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [2.0])
        path = sweep(r, [2.0], curves)
        direct = longest_excursion(r, 2.0)
        assert path.results[0] == direct

    def test_grid_mismatch_rejected(self):
        v = sample_weight_vector(WeightModel.constant(1.0), 100, "quantile", 0)
        r = sample_clocks(v, 5)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [2.0])
        with pytest.raises(ValueError):
            sweep(r, [2.5], curves)

    def test_er_law_of_large_numbers(self):
        """Scaled giant volume concentrates near the limiting fraction."""
        n = 10**5
        v = sample_weight_vector(WeightModel.constant(1.0), n, "quantile", 0)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [2.0])
        rho_target = 0.79681213002002005
        hits = 0
        for k in range(100):
            r = sample_clocks(v, 9000 + k)
            res = sweep(r, [2.0], curves).results[0]
            if abs(res.total_volume / n - rho_target) < 0.02:
                hits += 1
        assert hits >= 95

    def test_constant_weights_volume_equals_count(self):
        """With unit weights a component's volume is its cardinality."""
        v = sample_weight_vector(WeightModel.constant(1.0), 2000, "quantile", 0)
        r = sample_clocks(v, 21)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [1.5, 2.0, 3.0])
        path = sweep(r, [1.5, 2.0, 3.0], curves)
        for res in path.results:
            assert res.total_volume == res.vertex_count

    def test_bit_identical_rerun(self):
        v = sample_weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 500, "quantile", 0)
        curves = supercritical_curves(WeightModel.empirical(v.weights), [2.0, 3.0])
        a = sweep(sample_clocks(v, 77), [2.0, 3.0], curves)
        b = sweep(sample_clocks(v, 77), [2.0, 3.0], curves)
        np.testing.assert_array_equal(a.fluc_count, b.fluc_count)
        np.testing.assert_array_equal(a.fluc_volume, b.fluc_volume)
        assert a.results == b.results


@st.composite
def _sizes(draw):
    """(n, K): n vertices, K distinct weights, K = 1 and K = n included."""
    n = draw(st.integers(1, 3000))
    return n, draw(st.sampled_from([1, n]) | st.integers(1, n))


class TestClassVolume:
    """``total_volume`` from class counts equals ``fsum`` over the clock window."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        sizes=_sizes(),
        log10_low=st.floats(-6.0, 6.0),
        log10_span=st.floats(0.0, 12.0),
        lam=st.floats(0.05, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fsum_of_window_weights(self, sizes, log10_low, log10_span, lam, seed):
        """Bit for bit, for K = 1..n distinct weights with repeats, magnitudes 1e-6..1e6."""
        n, k = sizes
        rng = np.random.default_rng(seed)
        log10_high = min(log10_low + log10_span, 6.0)
        atoms = 10.0 ** rng.uniform(log10_low, log10_high, size=k)
        w = atoms[rng.integers(0, k, size=n)]
        xi = rng.standard_exponential(n) / w
        r = WalkRealization.from_clocks(w, xi)
        order = np.argsort(xi)
        t = xi[order] / lam
        for e in all_excursions(r, lam) + [longest_excursion(r, lam)]:
            lo = int(np.searchsorted(t, e.g))
            window = w[order[lo : lo + e.vertex_count]]
            assert e.total_volume == math.fsum(window.tolist())


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda r, lam: giant_results(r, [2.0, lam, 1.0]),
            longest_excursion,
            all_excursions,
            lambda r, lam: walk_value(r, lam, 0.5),
        ],
        ids=["giant_results", "longest_excursion", "all_excursions", "walk_value"],
    )
    def test_rejects_non_finite_or_non_positive(self, call, lam):
        r = WalkRealization.from_clocks([1.0, 2.0], [0.3, 0.1])
        with pytest.raises(ValueError, match="lambda"):
            call(r, lam)


@st.composite
def _grids(draw):
    """1-25 lambdas, unsorted, with duplicates and ``nextafter`` neighbours."""
    pool = []
    for lam in draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=8)):
        pool.append(lam)
        for _ in range(draw(st.integers(0, 3))):
            pool.append(float(np.nextafter(pool[-1], draw(st.sampled_from([0.0, np.inf])))))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=25))


def _assert_grid_matches_single_scans(r, grid):
    multi = giant_results(r, grid)
    singles = [giant_results(r, [lam])[0] for lam in grid]
    assert [astuple(res) for res in multi] == [astuple(res) for res in singles]


class TestNestedGrid:
    """A grid scanned over nested candidates equals one full scan per lambda."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        sizes=_sizes(),
        log10_low=st.floats(-6.0, 6.0),
        log10_span=st.floats(0.0, 12.0),
        grid=_grids(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_lambda_scans(self, sizes, log10_low, log10_span, grid, seed):
        """Bit for bit, for K = 1..n distinct weights with magnitudes 1e-6..1e6."""
        n, k = sizes
        rng = np.random.default_rng(seed)
        log10_high = min(log10_low + log10_span, 6.0)
        atoms = 10.0 ** rng.uniform(log10_low, log10_high, size=k)
        w = atoms[rng.integers(0, k, size=n)]
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n) / w)
        _assert_grid_matches_single_scans(r, grid)

    def test_pareto_all_distinct_weights(self):
        """K = n: quantile weights of a Pareto law with tail exponent 3.5, n = 2e4."""
        n = 20_000
        w = (1.0 - (np.arange(n) + 0.5) / n) ** (-1.0 / 2.5)
        rng = np.random.default_rng(35)
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n) / w)
        grid = list(rng.permutation(np.linspace(0.4, 3.0, 20)))
        grid += [grid[3], float(np.nextafter(grid[5], 0.0)), float(np.nextafter(grid[5], 9.0))]
        _assert_grid_matches_single_scans(r, grid)

    def test_near_tie_decided_by_tolerance(self):
        """The second clock lands 1e-12 before the first excursion ends.

        Real arithmetic merges the two jumps into one excursion at lambda = 1;
        only the near-tie tolerance opens a second one, and it does so at
        every lambda in the grid.  A smaller lambda's candidates must keep
        that position although it is not an exact opening there.
        """
        r = WalkRealization.from_clocks([1.0, 1.0], [0.2, 0.7 - 1e-12])
        below, above = np.nextafter(1.0, 0.0) - 1e-13, np.nextafter(1.0, 2.0)
        assert r.mass_before[1] - r.sorted_clocks[1] / below > -r.sorted_clocks[0] / below
        for lam in (below, 1.0, above):
            assert len(all_excursions(r, lam)) == 2
        assert longest_excursion(r, 1.0).vertex_count == 1
        _assert_grid_matches_single_scans(r, [above, 1.0, below, 1.0])


class TestBruteForce:
    """``longest_excursion`` and a multi-lambda ``giant_results`` against the
    dense brute force of acceptance criterion 3."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 12),
        grid=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, n, grid, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.3, 3.0, size=n)
        clocks = rng.standard_exponential(n) / weights
        r = WalkRealization.from_clocks(weights, clocks)
        for lam, res in zip(grid, giant_results(r, grid)):
            g, d, volume, count = _brute_force_longest(weights.tolist(), clocks.tolist(), lam)
            for e in (res, longest_excursion(r, lam)):
                assert e.vertex_count == count
                assert e.total_volume == volume
                assert abs(e.g - g) <= 1e-10
                assert abs(e.d - d) <= 1e-10
