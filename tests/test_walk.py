"""Breadth-first-walk encoding: excursion scan, coupling, determinism."""

import hashlib
import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _brute_force_longest

from giantflux import walk
from giantflux.walk import (
    _LEVEL_TOL,
    WalkRealization,
    _allocate,
    _buffer_bytes,
    _clock_order,
    _scan,
    _window_volumes,
    all_excursions,
    giant_results,
    sample_clocks,
    walk_value,
)
from giantflux.weights import WeightModel, WeightVector, _index_dtype, weight_vector

# columns of a giant_results / all_excursions row
COUNT, VOLUME, G, D = range(4)


def _random_realization(rng, n, w_low=0.5, w_high=3.0):
    w = rng.uniform(w_low, w_high, size=n)
    xi = rng.standard_exponential(n) / w
    return WalkRealization.from_clocks(w, xi)


class TestHandComputedPaths:
    def test_single_vertex(self):
        # jump of size 1 at t = 0.3/2; descent needs exactly 1 unit of time
        r = WalkRealization.from_clocks([1.0], [0.3])
        count, volume, g, d = giant_results(r, [2.0])[0]
        assert g == pytest.approx(0.15, abs=1e-15)
        assert d == pytest.approx(1.15, abs=1e-15)
        assert volume == 1.0
        assert count == 1

    def test_two_jumps_merge(self):
        # second jump arrives before the first excursion closes
        r = WalkRealization.from_clocks([1.0, 1.0], [0.2, 0.5])
        count, volume, g, d = giant_results(r, [1.0])[0]
        assert g == pytest.approx(0.2, abs=1e-15)
        assert d == pytest.approx(1.2, abs=1e-15)
        assert volume == 2.0
        assert count == 2

    def test_tie_break_takes_first(self):
        # two disjoint excursions of length exactly 1/2 each
        r = WalkRealization.from_clocks([1.0, 1.0], [0.2, 1.9])
        excs = all_excursions(r, 1.0)
        assert len(excs) == 2
        assert excs[0, G] == pytest.approx(0.2) and excs[0, D] == pytest.approx(0.7)
        assert excs[1, G] == pytest.approx(1.9) and excs[1, D] == pytest.approx(2.4)
        res = giant_results(r, [1.0])[0]
        assert res[G] == pytest.approx(0.2, abs=1e-15)


class TestSampleClocks:
    def test_standard_exponential_mean(self):
        v = WeightVector(np.ones(10**6))
        r = sample_clocks(v, 17)
        se = 1.0 / math.sqrt(10**6)
        assert abs(np.mean(r.sorted_clocks) - 1.0) <= 3 * se

    def test_rate_two_mean(self):
        # mean of an Exp(2) clock is 1/2; check both as a vector and as
        # repeated single-vertex realizations
        v = WeightVector(np.full(10**6, 2.0))
        r = sample_clocks(v, 18)
        se = 0.5 / math.sqrt(10**6)
        assert abs(np.mean(r.sorted_clocks) - 0.5) <= 3 * se
        single = WeightVector(np.array([2.0]))
        draws = np.array([sample_clocks(single, 1000 + k).sorted_clocks[0] for k in range(1000)])
        assert abs(np.mean(draws) - 0.5) <= 3 * 0.5 / math.sqrt(1000)

    def test_deterministic(self):
        """The rerun pairs every clock with the same weight: clocks and their order agree."""
        v = WeightVector(np.linspace(0.5, 2.0, 50))
        a = sample_clocks(v, 42)
        b = sample_clocks(v, 42)
        np.testing.assert_array_equal(a.sorted_clocks, b.sorted_clocks)
        np.testing.assert_array_equal(a.atoms[a.sorted_class], b.atoms[b.sorted_class])
        np.testing.assert_array_equal(a.mass_prefix, b.mass_prefix)


_GOLDEN_VECTORS = [
    (lambda: weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 20_000, 0), (1.5, 3.0)),
    (lambda: _pareto_vector(5000), (0.4, 3.0)),      # K = n: the argsort path of _clock_order
    (lambda: _lognormal_vector(5000), (0.1, 3.0)),   # K = n and three limbs
]


class TestReusedBuffers:
    """``sample_clocks(w, seed, out=r)`` draws into r's buffers and returns r;
    every draw equals a fresh one, whatever r held before."""

    @pytest.mark.parametrize(
        "vector, grid", _GOLDEN_VECTORS, ids=["half-half-n2e4", "pareto-k-eq-n", "lognormal-sigma3"]
    )
    def test_reused_draws_match_fresh_ones(self, vector, grid):
        v = vector()
        grid = np.linspace(*grid, 20)
        r = sample_clocks(v, 4000)
        for seed in range(4001, 4005):
            before = (r.sorted_clocks, r.sorted_class, r.mass_prefix, r.mass_before)
            reused = sample_clocks(v, seed, out=r)
            assert reused is r
            for old, new in zip(before, (r.sorted_clocks, r.sorted_class, r.mass_prefix,
                                         r.mass_before)):
                assert np.shares_memory(old, new)
            got = giant_results(r, grid)
            fresh = sample_clocks(v, seed)
            assert not np.shares_memory(fresh.sorted_clocks, r.sorted_clocks)
            assert got.tobytes() == giant_results(fresh, grid).tobytes()
            for a, b in ((r.sorted_clocks, fresh.sorted_clocks),
                         (r.sorted_class, fresh.sorted_class), (r.mass_prefix, fresh.mass_prefix)):
                assert a.tobytes() == b.tobytes()

    def test_results_held_together_stay_distinct(self):
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 500, 0)
        a = sample_clocks(v, 1)
        kept = a.sorted_clocks.copy(), a.sorted_class.copy(), a.mass_prefix.copy()
        b = sample_clocks(v, 2)
        c = WalkRealization.from_clocks(v.weights, np.arange(1.0, 501.0))
        for x, y in ((a, b), (a, c), (b, c)):
            for name in ("sorted_clocks", "sorted_class", "mass_prefix"):
                assert not np.shares_memory(getattr(x, name), getattr(y, name))
        for old, now in zip(kept, (a.sorted_clocks, a.sorted_class, a.mass_prefix)):
            np.testing.assert_array_equal(old, now)

    def test_out_of_another_vector_is_left_alone(self):
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 500, 0)
        other = WeightVector(v.weights.copy())
        r = sample_clocks(v, 1)
        kept = r.sorted_clocks.copy()
        s = sample_clocks(other, 2, out=r)
        assert s is not r and not np.shares_memory(s.sorted_clocks, r.sorted_clocks)
        np.testing.assert_array_equal(r.sorted_clocks, kept)

    def test_arrays_stay_read_only(self):
        r = sample_clocks(weight_vector(WeightModel.constant(1.0), 50, 0), 3)
        for arr in (r.sorted_clocks, r.sorted_class, r.mass_prefix, r.mass_before):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, -1.0])
    def test_rejects_clocks_not_strictly_positive(self, bad):
        with pytest.raises(ValueError, match="clocks must be strictly positive"):
            WalkRealization.from_clocks([1.0, 2.0, 1.0], [0.3, bad, 0.1])

    def test_rejects_clocks_of_another_length(self):
        with pytest.raises(ValueError, match="weights and clocks must be equal-length"):
            WalkRealization.from_clocks([1.0, 2.0, 1.0], [0.3, 0.1])

    def test_rejects_overflowed_clocks(self):
        """xi/w overflows for a subnormal weight: one ValueError, no warning
        (RuntimeWarnings are errors under this suite's filter)."""
        msg = "clocks must be finite: xi/w overflows"
        tiny = WeightVector(np.array([5e-324, 1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match=msg):
            sample_clocks(tiny, 7)
        r = sample_clocks(WeightVector(np.array([3.0, 1.0, 2.0, 1.0])), 7)
        with pytest.raises(ValueError, match=msg):
            sample_clocks(WeightVector(tiny.weights), 7, out=r)
        with pytest.raises(ValueError, match=msg):
            WalkRealization.from_clocks([1.0, 2.0, 1.0], [0.3, np.inf, 0.1])


def _tied_clocks(rng, n, k, ties=0, inf=False):
    """Clocks of n vertices over k classes (each used), ``ties`` of them
    copied onto other vertices, and optionally one +inf clock."""
    index = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)]))
    atoms = np.linspace(0.5, 3.0, k)
    xi = rng.standard_exponential(n) / atoms[index]
    xi[rng.integers(0, n, size=ties)] = xi[rng.integers(0, n, size=ties)]
    if inf:
        xi[rng.integers(0, n)] = np.inf
    return xi, index


class TestClockOrder:
    """``_clock_order`` against an argsort reference: the clocks bit for bit,
    the classes up to the order of equal clocks."""

    @pytest.mark.parametrize(
        "n, k, inf, packed",
        [
            (500, 1, False, True),
            (500, 1, True, True),
            (500, 2, True, True),
            (500, 3, False, True),
            (500, 3, True, False),    # +inf clock: the span needs 63 bits, b = 2
            (500, 64, False, True),
            (500, 64, True, False),
            (500, 500, False, False),  # K = n: 9 class bits leave too few for the span
        ],
    )
    def test_matches_argsort(self, monkeypatch, n, k, inf, packed):
        rng = np.random.default_rng(70 + k)
        xi, index = _tied_clocks(rng, n, k, ties=40, inf=inf)
        assert np.count_nonzero(np.diff(np.sort(xi)) == 0.0) > 0
        argsorts = []
        real_argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a: argsorts.append(a) or real_argsort(a))
        clocks, classes = _clock_order(xi, index, k, xi.min(), xi.max())
        monkeypatch.undo()
        assert len(argsorts) == (0 if packed else 1)
        ref = real_argsort(xi, kind="stable")
        np.testing.assert_array_equal(clocks.view(np.uint64), xi[ref].view(np.uint64))
        assert classes.dtype == index.dtype
        by_class = np.lexsort((index, xi))
        np.testing.assert_array_equal(classes[np.lexsort((classes, clocks))], index[by_class])
        if packed:
            np.testing.assert_array_equal(classes, index[by_class])

    @pytest.mark.parametrize("k, inf", [(1, False), (2, False), (3, True), (64, False), (500, False)])
    def test_narrow_index_sorts_as_intp(self, k, inf):
        """The narrow index of ``WeightVector.classes`` is read in place and
        gives the intp index's result bit for bit, packed or by argsort."""
        rng = np.random.default_rng(72 + k)
        xi, index = _tied_clocks(rng, 500, k, ties=40, inf=inf)
        narrow = index.astype(_index_dtype(k))
        wide = _clock_order(xi, index, k, xi.min(), xi.max())
        clocks, classes = _clock_order(xi, narrow, k, xi.min(), xi.max())
        assert classes.dtype == narrow.dtype == (np.uint16 if k == 500 else np.uint8)
        np.testing.assert_array_equal(clocks.view(np.uint64), wide[0].view(np.uint64))
        np.testing.assert_array_equal(classes, wide[1])

    @pytest.mark.parametrize("base, limbs", [(1.0, 1), (2.0**70, 3)])
    @pytest.mark.parametrize("k", [1, 2, 300])
    def test_buffer_bytes_are_the_allocated_ones(self, k, base, limbs):
        """``_buffer_bytes`` counts every buffer ``_allocate`` makes, for K in
        {1, 2, n} and L in {1, 3}; the half-half law takes 46 bytes per vertex."""
        n = 300
        v = WeightVector(base * (1.0 + np.arange(n) % k))
        table = v.limbs[1]
        assert (v.classes[0].size, table.shape[0]) == (k, limbs)
        held = sum(buffer.nbytes for buffer in _allocate(v)._buffers)
        assert _buffer_bytes(n, k, limbs, table.dtype) == held
        if (k, limbs) == (2, 1):
            assert held == 46 * n + 13

    def test_ties_across_classes_match_brute_force(self):
        """Equal clocks in different classes: the giants do not depend on their order."""
        rng = np.random.default_rng(71)
        grid = [0.5, 1.0, 2.0, 3.0]
        cross_ties = 0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            xi, index = _tied_clocks(rng, n, min(n, 3), ties=n // 2)
            weights = np.linspace(0.5, 3.0, min(n, 3))[index]
            r = WalkRealization.from_clocks(weights, xi)
            np.testing.assert_array_equal(r.sorted_clocks, np.sort(xi))
            cross_ties += np.count_nonzero(
                (np.diff(r.sorted_clocks) == 0.0) & (np.diff(r.sorted_class) != 0)
            )
            for lam, res in zip(grid, giant_results(r, grid)):
                g, d, volume, count = _brute_force_longest(weights.tolist(), xi.tolist(), lam)
                assert res[COUNT] == count
                assert res[VOLUME] == volume
                assert abs(res[G] - g) <= 1e-10
                assert abs(res[D] - d) <= 1e-10
        assert cross_ties > 100


class TestExcursionStructure:
    def test_length_sum_equals_total_mass(self):
        """Excursion lengths exhaust the jump mass: slope is -1 elsewhere."""
        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 400):
            r = _random_realization(rng, n)
            for lam in (0.2, 1.0, 3.0):
                total = math.fsum(e[D] - e[G] for e in all_excursions(r, lam))
                assert total == pytest.approx(r.total_mass, rel=1e-9)

    def test_longest_dominates(self):
        rng = np.random.default_rng(12)
        r = _random_realization(rng, 300)
        for lam in (0.3, 0.8, 2.0):
            excs = all_excursions(r, lam)
            best = giant_results(r, [lam])[0]
            assert all(best[D] - best[G] >= e[D] - e[G] - 1e-12 for e in excs)

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
            value_at_d = walk_value(r, lam, e[D])
            pre_jump = [
                walk_value(r, lam, max(t - eps, 0.0))
                for t in jump_t[jump_t <= e[G] + eps]
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
            e = giant_results(r, [lam])[0]
            t = r.sorted_clocks / lam
            in_window = np.count_nonzero((t >= e[G]) & (t <= e[D]))
            assert e[COUNT] == in_window
            before_d = np.count_nonzero(t <= e[D]) / n
            before_g = np.count_nonzero(t <= e[G]) / n
            assert e[COUNT] == round(n * (before_d - before_g) + 1)

    def test_volume_consistency(self):
        rng = np.random.default_rng(15)
        r = _random_realization(rng, 1000)
        e = giant_results(r, [2.0])[0]
        assert e[VOLUME] == pytest.approx(r.n * (e[D] - e[G]), rel=1e-9)


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
        w = r.atoms[r.sorted_class]
        for t in rng.uniform(0.0, 4.0, size=1000):
            naive = np.sum(w[r.sorted_clocks <= lam * t]) / r.n - t
            assert walk_value(r, lam, t) == pytest.approx(naive, abs=1e-12)


class TestSweep:
    """The giants of a whole lambda grid from one realization (``giant_results``)."""

    def test_single_point_matches_longest_excursion(self):
        v = weight_vector(WeightModel.constant(1.0), 500, 0)
        r = sample_clocks(v, 5)
        grid = giant_results(r, [1.5, 2.0, 3.0])
        assert grid[1].tobytes() == giant_results(r, [2.0])[0].tobytes()

    def test_er_law_of_large_numbers(self):
        """Scaled giant volume concentrates near the limiting fraction."""
        n = 10**5
        v = weight_vector(WeightModel.constant(1.0), n, 0)
        rho_target = 0.79681213002002005
        hits = 0
        for k in range(100):
            r = sample_clocks(v, 9000 + k)
            res = giant_results(r, [2.0])[0]
            if abs(res[VOLUME] / n - rho_target) < 0.02:
                hits += 1
        assert hits >= 95

    def test_constant_weights_volume_equals_count(self):
        """With unit weights a component's volume is its cardinality."""
        v = weight_vector(WeightModel.constant(1.0), 2000, 0)
        r = sample_clocks(v, 21)
        for res in giant_results(r, [1.5, 2.0, 3.0]):
            assert res[VOLUME] == res[COUNT]

    def test_bit_identical_rerun(self):
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 500, 0)
        a = giant_results(sample_clocks(v, 77), [2.0, 3.0])
        b = giant_results(sample_clocks(v, 77), [2.0, 3.0])
        assert a.tobytes() == b.tobytes()


@st.composite
def _sizes(draw):
    """(n, K): n vertices, K distinct weights, K = 1 and K = n included."""
    n = draw(st.integers(1, 3000))
    return n, draw(st.sampled_from([1, n]) | st.integers(1, n))


class TestClassVolume:
    """The volume column from class counts equals ``fsum`` over the clock window."""

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
        for e in np.vstack((all_excursions(r, lam), giant_results(r, [lam]))):
            lo = int(np.searchsorted(t, e[G]))
            window = w[order[lo : lo + int(e[COUNT])]]
            assert e[VOLUME] == math.fsum(window.tolist())


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda r, lam: giant_results(r, [2.0, lam, 1.0]),
            all_excursions,
            lambda r, lam: walk_value(r, lam, 0.5),
        ],
        ids=["giant_results", "all_excursions", "walk_value"],
    )
    def test_rejects_non_finite_or_non_positive(self, call, lam):
        r = WalkRealization.from_clocks([1.0, 2.0], [0.3, 0.1])
        with pytest.raises(ValueError, match="lambda"):
            call(r, lam)

    @pytest.mark.parametrize(
        "call",
        [
            lambda r, lam: giant_results(r, [2.0, lam, 1.0]),
            all_excursions,
            lambda r, lam: walk_value(r, lam, 0.5),
        ],
        ids=["giant_results", "all_excursions", "walk_value"],
    )
    def test_rejects_lambda_overflowing_clocks(self, call):
        """A finite lambda of 1e-310 makes xi/lambda overflow to inf."""
        r = WalkRealization.from_clocks([1.0, 2.0], [0.3, 0.1])
        with pytest.raises(ValueError, match="lambda 1e-310 too small: xi/lambda overflows"):
            call(r, 1e-310)

    def test_walk_value_rejects_nan_time(self):
        r = WalkRealization.from_clocks([1.0, 2.0], [0.3, 0.1])
        with pytest.raises(ValueError, match="t must be >= 0, got nan"):
            walk_value(r, 1.0, math.nan)


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
    singles = np.vstack([giant_results(r, [lam])[0] for lam in grid])
    assert multi.tobytes() == singles.tobytes()


@pytest.fixture
def scan_count(monkeypatch):
    """Counts ``_scan`` calls; returns a callable giving and resetting the count."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _scan(*args, **kwargs)

    monkeypatch.setattr(walk, "_scan", counted)

    def take():
        count = len(calls)
        calls.clear()
        return count

    return take


class TestNestedGrid:
    """A grid (one scan, the tracked pass, then a full scan for each row it
    leaves open) equals one full scan per lambda."""

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
        assert giant_results(r, [1.0])[0, COUNT] == 1
        _assert_grid_matches_single_scans(r, [above, 1.0, below, 1.0])

    def test_supercritical_grid_scans_once(self, scan_count):
        """Half-half, n = 2e4, 20 lambdas in 1.5..3: every larger lambda's giant
        is certified from the tracked pass, so each draw takes one scan."""
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 20_000, 0)
        grid = list(np.linspace(1.5, 3.0, 20))
        for seed in range(3):
            r = sample_clocks(v, seed)
            giant_results(r, grid)
            assert scan_count() == 1
            _assert_grid_matches_single_scans(r, grid)
            scan_count()

    def test_near_critical_grid_falls_back(self, scan_count):
        """lambda_crit = 0.4: near it the tracked excursion holds under half the
        mass, and those rows are scanned; the supercritical rows are not."""
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 20_000, 0)
        grid = list(np.linspace(0.41, 0.6, 20)) + [1.5, 3.0]
        r = sample_clocks(v, 5)
        giant_results(r, grid)
        assert 1 < scan_count() < len(grid) - 2
        _assert_grid_matches_single_scans(r, grid)

    def test_tracked_giant_runs_to_the_last_clock(self, scan_count):
        """At lambda = 1 the last clock lands 1e-13 before the giant ends and
        opens an excursion of its own by the near-tie rule; at lambda = 2 it
        is inside the giant, which has no later opening and runs to the end."""
        n = 7
        clocks = [0.1, 1.0, 1.05, 1.1, 1.15, 1.2, 1.0 + 5 / n - 1e-13]
        r = WalkRealization.from_clocks(np.ones(n), clocks)
        assert len(all_excursions(r, 1.0)) == 3 and len(all_excursions(r, 2.0)) == 2
        scan_count()
        results = giant_results(r, [1.0, 2.0])
        assert scan_count() == 1
        assert [e[COUNT] for e in results] == [5, 6]
        _assert_grid_matches_single_scans(r, [1.0, 2.0])

    def test_rows_in_several_blocks(self, scan_count):
        """Rows times candidates above n: the tracked pass takes several blocks."""
        v = weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 500, 0)
        rng = np.random.default_rng(9)
        grid = list(rng.permutation(np.linspace(1.5, 3.0, 60))) + [1.5, 3.0]
        r = sample_clocks(v, 11)
        candidates = _scan(r, 1.5, candidates=True)[4]
        scan_count()
        assert (len(grid) - 1) * (candidates.size + 1) > 3 * r.n
        giant_results(r, grid)
        assert scan_count() == 1
        _assert_grid_matches_single_scans(r, grid)

    @pytest.mark.parametrize("factor, scans", [(1.01, 1), (0.99, 2)], ids=["inside", "outside"])
    def test_half_mass_margin(self, scan_count, factor, scans):
        """Two lone vertices: the first, of weight 1, is the giant at every
        lambda, and 2 (d - g) - S = (1 - w) / 2 for the second one's weight w.
        Just inside the certificate's margin 2 tol (1 + S + T) the row is
        settled by the tracked pass; just outside it is scanned, with the
        same result."""
        lam, clocks = 2.0, [0.1, 10.0]
        total, last = 1.0, clocks[1] / lam  # S = (1 + w) / 2, within 1e-11 of 1
        w = 1.0 - factor * 2.0 * (2.0 * _LEVEL_TOL) * (1.0 + total + last)
        r = WalkRealization.from_clocks([1.0, w], clocks)
        results = giant_results(r, [1.0, lam])
        assert scan_count() == scans
        assert [e[COUNT] for e in results] == [1, 1] and results[1, G] == 0.05
        _assert_grid_matches_single_scans(r, [1.0, lam])


class TestBruteForce:
    """One-point and multi-lambda ``giant_results`` against the
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
            for e in (res, giant_results(r, [lam])[0]):
                assert e[COUNT] == count
                assert e[VOLUME] == volume
                assert abs(e[G] - g) <= 1e-10
                assert abs(e[D] - d) <= 1e-10


def _fsum_windows(r, lo, hi):
    w = r.atoms[r.sorted_class]
    return [math.fsum(w[a:b].tolist()) for a, b in zip(lo, hi)]


def _random_windows(rng, n, count):
    lo = rng.integers(0, n, size=count)
    return lo, lo + 1 + rng.integers(0, n - lo)


class TestLimbVolume:
    """``_window_volumes`` from integer limb prefix sums equals ``fsum`` bit for bit."""

    def test_atoms_spanning_the_float_range(self):
        rng = np.random.default_rng(50)
        n = 3000
        w = 10.0 ** rng.uniform(-300.0, 300.0, size=n)
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n))
        assert r.limbs[1].shape == (66, n)
        lo, hi = _random_windows(rng, n, 300)
        assert _window_volumes(r, lo, hi) == _fsum_windows(r, lo, hi)

    def test_subnormal_atoms(self):
        rng = np.random.default_rng(51)
        n = 2000
        atoms = np.array([5e-324, 1.5e-323, 3.3e-318, 1e-310, 2.2250738585072014e-308, 1.0])
        w = atoms[rng.integers(0, atoms.size, size=n)]
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n))
        assert r.limbs[0] == -1074
        lo, hi = _random_windows(rng, n, 300)
        assert _window_volumes(r, lo, hi) == _fsum_windows(r, lo, hi)
        only_tiny = WalkRealization.from_clocks(np.full(5, 5e-324), np.arange(1.0, 6.0))
        lo, hi = np.array([0, 1]), np.array([5, 4])
        assert _window_volumes(only_tiny, lo, hi) == [2.5e-323, 1.5e-323]

    def test_atoms_sharing_a_power_of_two_above_one(self):
        rng = np.random.default_rng(54)
        n = 1000
        atoms = np.array([2.0**60, 3 * 2.0**70, 2.0**1000])
        w = atoms[rng.integers(0, atoms.size, size=n)]
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n))
        lo, hi = _random_windows(rng, n, 100)
        assert _window_volumes(r, lo, hi) == _fsum_windows(r, lo, hi)

    def test_window_of_one_vertex(self):
        rng = np.random.default_rng(52)
        n = 500
        w = 10.0 ** rng.uniform(-20.0, 20.0, size=n)
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n))
        lo = np.arange(n)
        assert _window_volumes(r, lo, lo + 1) == r.atoms[r.sorted_class].tolist()
        single = WalkRealization.from_clocks([0.1], [0.3])
        assert giant_results(single, [2.0])[0, VOLUME] == 0.1

    def test_overlapping_windows_of_a_grid(self):
        """The giants of a 20-lambda grid share one call; each equals its own fsum."""
        rng = np.random.default_rng(53)
        n = 5000
        w = rng.lognormal(0.0, 3.0, size=n)
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n) / w)
        grid = rng.permutation(np.linspace(0.2, 3.0, 20))
        results = giant_results(r, grid)
        t = r.sorted_clocks
        lo = np.array([np.searchsorted(t / lam, e[G]) for lam, e in zip(grid, results)])
        hi = lo + [int(e[COUNT]) for e in results]
        assert len(set(zip(lo.tolist(), hi.tolist()))) > 1
        assert [e[VOLUME] for e in results] == _fsum_windows(r, lo, hi)

    def test_sum_past_the_float_range_overflows(self):
        r = WalkRealization.from_clocks([1e308, 1.5e308, 1.0], [0.1, 0.2, 0.3])
        lo, hi = np.array([0, 2]), np.array([2, 3])
        with pytest.raises(OverflowError):
            math.fsum(r.atoms[r.sorted_class][:2].tolist())
        with pytest.raises(OverflowError):
            _window_volumes(r, lo, hi)


def _exact_mass_prefix(r):
    """S_1..S_n as exact rationals: the weights in clock order, summed, over n."""
    weights = map(Fraction, r.atoms[r.sorted_class].tolist())
    return [total / r.n for total in accumulate(weights)]


class TestMassPrefix:
    """``mass_prefix`` from exact limb prefix sums: one rounding for one limb,
    and within (L + 2) u S_k + L 2**-1074 of the exact sum for L limbs."""

    @pytest.mark.parametrize(
        "weights",
        [
            lambda rng, n: np.ones(n),
            lambda rng, n: rng.choice([1.0, 2.0], size=n),
            lambda rng, n: rng.choice([0.5, 1.25, 3.0, 7.75], size=n),
            lambda rng, n: rng.integers(1, 2**31, size=n).astype(np.float64),
            lambda rng, n: rng.integers(1, 2**31, size=n) * 2.0**-40,
        ],
        ids=["constant", "half-half", "four-dyadic", "31-bit-integers", "31-bit-dyadic"],
    )
    def test_one_limb_is_correctly_rounded(self, weights):
        rng = np.random.default_rng(80)
        for n in (1, 2, 3, 7, 1000, 3000):
            w = weights(rng, n)
            r = WalkRealization.from_clocks(w, rng.standard_exponential(n) / w)
            assert r.limbs[1].shape[0] == 1
            assert r.mass_before[0] == 0.0
            assert r.mass_prefix.tolist() == [float(s) for s in _exact_mass_prefix(r)]

    @pytest.mark.parametrize(
        "weights, limbs",
        [
            (lambda rng, n: (1.0 - (np.arange(n) + 0.5) / n) ** (-1.0 / 2.5), 2),
            (lambda rng, n: rng.lognormal(0.0, 3.0, size=n), 3),
            (lambda rng, n: 10.0 ** rng.uniform(-300.0, 300.0, size=n), 66),
            (
                lambda rng, n: rng.choice(
                    [5e-324, 1.5e-323, 3.3e-318, 1e-310, 2.2250738585072014e-308, 1.0], size=n
                ),
                35,
            ),
            (lambda rng, n: np.full(n, 5e-324), 1),
        ],
        ids=["pareto-k-eq-n", "lognormal-sigma3", "float-range", "subnormal", "only-tiny"],
    )
    def test_limbs_within_the_bound(self, weights, limbs):
        rng = np.random.default_rng(81)
        n = 3000
        w = weights(rng, n)
        r = WalkRealization.from_clocks(w, rng.standard_exponential(n))
        assert r.limbs[1].shape[0] == limbs
        assert np.all(np.isfinite(r.mass_prefix)) and np.all(np.diff(r.mass_prefix) >= 0.0)
        u, tiny = Fraction(1, 2**53), Fraction(1, 2**1074)
        for got, exact in zip(r.mass_prefix.tolist(), _exact_mass_prefix(r)):
            assert abs(Fraction(got) - exact) <= (limbs + 2) * u * exact + limbs * tiny

    def test_largest_weights_stay_finite(self):
        """Each limb is divided by n before it is scaled: S_k is finite where
        the window sums past the float range."""
        w = np.array([1.7e308, 1.5e308, 1.6e308])
        r = WalkRealization.from_clocks(w, [0.1, 0.2, 0.3])
        exact = _exact_mass_prefix(r)
        assert r.mass_prefix.tolist() == pytest.approx([float(s) for s in exact], rel=1e-15)
        assert np.all(np.isfinite(r.mass_prefix))


def _giant_digest(v, seed, grid):
    results = giant_results(sample_clocks(v, seed), grid)
    rows = tuple((g, d, int(count), volume) for count, volume, g, d in results.tolist())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _pareto_vector(n):
    return WeightVector((1.0 - (np.arange(n) + 0.5) / n) ** (-1.0 / 2.5))


def _lognormal_vector(n):
    return WeightVector(np.random.default_rng(3).lognormal(0.0, 3.0, size=n))


class TestGolden:
    """``giant_results`` bytes on fixed vectors: g, d, count and volume, digested;
    and on the same vectors, each excursion's length against its volume."""

    @pytest.mark.parametrize(
        "vector, grid", _GOLDEN_VECTORS, ids=["half-half-n2e4", "pareto-k-eq-n", "lognormal-sigma3"]
    )
    def test_right_edge_is_the_volume(self, vector, grid):
        """sqrt(n) (d - g) = V / sqrt(n): the right edge fluctuates as the volume does."""
        v = vector()
        root = math.sqrt(v.n)
        for e in giant_results(sample_clocks(v, 2024), np.linspace(*grid, 20)):
            assert root * (e[D] - e[G]) == pytest.approx(e[VOLUME] / root, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "vector, seed, grid, digest",
        [
            (
                lambda: weight_vector(WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)]), 20_000, 0),
                2024,
                (1.5, 3.0),
                "ee357a04b99dde5f68704edc119f49d16b002784f3cce91fa2d952f07592290d",
            ),
            (
                lambda: _pareto_vector(5000),
                2025,
                (0.4, 3.0),
                "18b3703558395c38d3c863f2cef2ef7da4923303eba2ead650245b6a67da3790",
            ),
            (
                lambda: _lognormal_vector(5000),
                2026,
                (0.1, 3.0),
                "e23d718210716545f97816e1afe11d4acd006e57cff1de14a000cb1eb2604be3",
            ),
        ],
        ids=["half-half-n2e4", "pareto-k-eq-n", "lognormal-sigma3"],
    )
    def test_digest(self, vector, seed, grid, digest):
        assert _giant_digest(vector(), seed, np.linspace(*grid, 20)) == digest
