"""Direct dynamic-graph simulation and its component labels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giantflux.graph_oracle import (
    DynamicGraphRealization,
    _bernoulli_indices,
    _label_volumes,
    _merge,
    _prefix_ends,
    giant_path,
    simulate_dynamic_graph,
)
from giantflux.weights import WeightVector, _limb_floats


def _vector(weights):
    return WeightVector(np.asarray(weights, dtype=np.float64))


def _components_at(r, lam):
    """(count, volume) of every component at one lambda, labelled from scratch."""
    (stop,) = _prefix_ends(r, np.array([lam], dtype=np.float64))
    labels = _merge(np.arange(r.n), r.edge_i[:stop], r.edge_j[:stop])
    e0, limbs = r.w.limbs
    sums = _label_volumes(labels, limbs[:, r.w.classes[1]])
    roots, counts = np.unique(labels, return_counts=True)
    return list(zip(counts.tolist(), _limb_floats(e0, sums[:, roots])))


class TestSimulate:
    def test_single_vertex_no_edges(self):
        r = simulate_dynamic_graph(_vector([1.5]), 0, 3.0)
        assert r.arrivals.size == 0
        snap = giant_path(r, [3.0])[0]
        assert snap.count == 1 and snap.volume == 1.5

    def test_zero_horizon_no_edges(self):
        r = simulate_dynamic_graph(_vector([1.0, 2.0, 3.0]), 0, 0.0)
        assert r.arrivals.size == r.edge_i.size == r.edge_j.size == 0
        snap = giant_path(r, [0.0])[0]
        assert snap.count == 1 and snap.volume == 3.0

    def test_arrivals_sorted(self):
        r = simulate_dynamic_graph(_vector(np.linspace(0.5, 2.0, 30)), 3, 40.0)
        assert 0 < r.arrivals.size < 30 * 29 // 2
        assert np.all(np.diff(r.arrivals) >= 0)
        assert np.all(r.arrivals > 0.0) and np.all(r.arrivals <= 40.0 / 30)
        assert np.all(r.edge_i < r.edge_j) and r.edge_i.min() >= 0 and r.edge_j.max() < 30

    def test_huge_horizon_gives_every_pair(self):
        # q = 1 - exp(-t w_max^2) rounds to 1, and so does every p_ij
        r = simulate_dynamic_graph(_vector(np.linspace(0.5, 2.0, 30)), 3, 1e6)
        pairs = sorted(zip(r.edge_i.tolist(), r.edge_j.tolist()))
        assert pairs == [(i, j) for i in range(30) for j in range(i + 1, 30)]
        assert np.all(np.diff(r.arrivals) >= 0) and np.all(r.arrivals > 0.0)

    def test_geometric_skipping_spans_batches(self):
        """Gaps of 1 need many batches and must select every index; gaps
        beyond int64 must select none instead of wrapping the running sum."""

        class Gaps:
            def __init__(self, gap):
                self.gap = gap

            def geometric(self, q, size):
                return np.full(size, self.gap, dtype=np.int64)

        np.testing.assert_array_equal(_bernoulli_indices(Gaps(1), 1000, 0.01), np.arange(1000))
        huge = np.iinfo(np.int64).max
        assert _bernoulli_indices(Gaps(huge), 10**9, 1e-12).size == 0

    def test_deterministic(self):
        v = _vector(np.linspace(0.5, 2.0, 20))
        a = simulate_dynamic_graph(v, 9, 10.0)
        b = simulate_dynamic_graph(v, 9, 10.0)
        assert a.arrivals.size > 0 and a.lam_max == b.lam_max == 10.0
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_array_equal(a.edge_i, b.edge_i)
        np.testing.assert_array_equal(a.edge_j, b.edge_j)

    @pytest.mark.parametrize("lam_max", [-1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, lam_max):
        with pytest.raises(ValueError, match="lam_max"):
            simulate_dynamic_graph(_vector(np.ones(3)), 0, lam_max)

    def test_edge_probability(self):
        """n=2: the edge is present at lambda iff its Exp(w1 w2) arrival is
        below lambda/n; frequency must match 1 - exp(-lambda w1 w2 / n)."""
        lam = 1.0
        v = _vector([1.0, 1.0])
        trials = 10**5
        present = 0
        for seed in range(trials):
            r = simulate_dynamic_graph(v, seed, lam)
            present += r.arrivals.size == 1 and r.arrivals[0] <= lam / 2
        p = 1 - math.exp(-lam / 2)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(present / trials - p) <= 3 * se

    def test_exact_law_three_vertices(self):
        """Each pair is present independently with probability
        1 - exp(-t w_i w_j), t = lam_max / n, and its arrival given presence
        is Exp(w_i w_j) truncated to (0, t]."""
        w = (0.5, 1.0, 2.0)
        lam_max, trials = 3.0, 20_000
        t = lam_max / 3
        v = _vector(w)
        pairs = [(0, 1), (0, 2), (1, 2)]
        present = np.zeros((trials, 3), dtype=bool)
        arrival = np.zeros((trials, 3))
        for seed in range(trials):
            r = simulate_dynamic_graph(v, seed, lam_max)
            for i, j, a in zip(r.edge_i.tolist(), r.edge_j.tolist(), r.arrivals.tolist()):
                k = pairs.index((i, j))
                present[seed, k] = True
                arrival[seed, k] = a

        def within_3se(freq, p):
            return abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / trials)

        prob = [-math.expm1(-t * w[i] * w[j]) for i, j in pairs]
        for k, (i, j) in enumerate(pairs):
            assert within_3se(present[:, k].mean(), prob[k]), (i, j)
            rate = w[i] * w[j]
            mean = 1 / rate - t * math.exp(-rate * t) / prob[k]
            a = arrival[present[:, k], k]
            assert abs(a.mean() - mean) <= 3 * a.std(ddof=1) / math.sqrt(a.size), (i, j)
        for k, l in ((0, 1), (0, 2), (1, 2)):
            both = (present[:, k] & present[:, l]).mean()
            assert within_3se(both, prob[k] * prob[l]), (k, l)


class TestInjectedArrivals:
    def test_hand_path(self):
        r = DynamicGraphRealization.from_arrivals(
            [1.0, 1.0, 1.0], [(0, 1, 0.1), (0, 2, 0.5), (1, 2, 0.9)]
        )
        # lambda/n in (0.1, 0.5): only the first edge is present
        snap = giant_path(r, [0.3 * 3])[0]
        assert (snap.count, snap.volume) == (2, 2.0)
        # lambda/n > 0.5: the second edge connects everything
        snap = giant_path(r, [0.6 * 3])[0]
        assert (snap.count, snap.volume) == (3, 3.0)

    def test_rejects_incomplete_edge_list(self):
        with pytest.raises(ValueError, match="expected 3 edges"):
            DynamicGraphRealization.from_arrivals([1.0, 1.0, 1.0], [(0, 1, 0.1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            DynamicGraphRealization.from_arrivals(
                [1.0, 1.0], [(0, 1, 0.1), (1, 0, 0.2)]
            )

    @pytest.mark.parametrize("edge", [(0, 2, 0.1), (1, 1, 0.1), (-1, 0, 0.1), (0, 1, 0.0),
                                      (0, 1, math.nan)])
    def test_rejects_bad_edge(self, edge):
        with pytest.raises(ValueError, match="must join two of the n=2 vertices"):
            DynamicGraphRealization.from_arrivals([1.0, 1.0], [edge])

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_weight_when_built(self, weight):
        """A weight that is not finite and > 0 fails in ``from_arrivals``,
        not later inside ``giant_path``."""
        with pytest.raises(ValueError, match="must all be finite and > 0"):
            DynamicGraphRealization.from_arrivals([weight, 1.0], [(0, 1, 0.5)])

    @pytest.mark.parametrize("order", [1, -1])
    def test_exact_tie_of_non_dyadic_weights(self, order):
        """0.2 is exactly 2 * 0.1 as a double, so {0.1, 0.1, 0.1} and {0.1, 0.2}
        have the same exact volume, which is not that of 0.3: the component
        holding vertex 0 wins, whichever of the two it is."""
        w = [0.1, 0.1, 0.1, 0.1, 0.2][::order]
        joined = [(0, 1), (1, 2), (3, 4)] if order == 1 else [(0, 1), (2, 3), (3, 4)]
        edges = [(i, j, 0.1 if (i, j) in joined else 9.0) for i in range(5) for j in range(i + 1, 5)]
        snap = giant_path(DynamicGraphRealization.from_arrivals(w, edges), [5 * 0.5])[0]
        assert snap.count == (3 if order == 1 else 2)
        assert snap.volume == math.fsum([0.1, 0.2]) == math.fsum([0.1] * 3) != 0.3

    def test_exact_volumes_break_rounded_ties(self):
        """{1, 2**-60} outweighs {1} although both volumes round to 1.0."""
        w = [1.0, 1.0, 2.0**-60]
        edges = [(1, 2, 0.1), (0, 1, 9.0), (0, 2, 9.0)]
        snap = giant_path(DynamicGraphRealization.from_arrivals(w, edges), [3 * 0.5])[0]
        assert (snap.count, snap.volume) == (2, 1.0)

    def test_reversed_long_path(self):
        """The path 0-1-...-(n-1) with its edges arriving last to first hooks
        every vertex onto its left neighbour: the deepest chain of labels."""
        n = 2000
        w = np.ones(n)
        w[::3] = 0.1
        i, j = np.triu_indices(n, k=1)
        arrival = np.where(j == i + 1, (n - i) / n, 2.0)
        r = DynamicGraphRealization.from_arrivals(w, np.column_stack([i, j, arrival]))
        # at lam the edges (i, i + 1) with i >= n - lam are present
        grid = [1.5, 2.0, 700.0, 1999.0, 2000.0]
        snaps = giant_path(r, grid)
        for lam, snap in zip(grid, snaps):
            first = n - math.floor(lam)
            assert snap.count == n - first
            assert snap.volume == math.fsum(w[first:].tolist())
        assert giant_path(r, [2000.0]) == snaps[-1:]
        comps = _components_at(r, 2000.0)
        assert comps == [(n, math.fsum(w.tolist()))]

    def test_volume_tie_goes_to_smallest_vertex(self):
        # two components of equal volume; the one containing vertex 0 wins
        r = DynamicGraphRealization.from_arrivals(
            [1.0, 1.0, 1.0, 1.0],
            [(0, 1, 0.1), (2, 3, 0.2)]
            + [(0, 2, 9.0), (0, 3, 9.0), (1, 2, 9.0), (1, 3, 9.0)],
        )
        snaps = giant_path(r, [4 * 0.5])
        assert snaps[0].count == 2
        # identity check via component membership: vertex 0's component
        comps = _components_at(r, 4 * 0.5)
        assert sorted(c for c, _ in comps) == [2, 2]


class TestGiantPath:
    def test_lambda_zero_heaviest_vertex(self):
        r = simulate_dynamic_graph(_vector([1.0, 4.0, 2.0]), 5, 3.0)
        snap = giant_path(r, [0.0])[0]
        assert snap.count == 1 and snap.volume == 4.0

    def test_large_lambda_connects_everything(self):
        w = np.linspace(0.5, 2.5, 40)
        r = simulate_dynamic_graph(_vector(w), 6, 1000.0)
        snap = giant_path(r, [1000.0])[0]
        assert snap.count == 40
        assert snap.volume == pytest.approx(w.sum(), rel=1e-12)

    def test_volume_monotone_along_grid(self):
        rng = np.random.default_rng(30)
        w = rng.uniform(0.5, 3.0, size=80)
        r = simulate_dynamic_graph(_vector(w), 7, 5.0)
        grid = np.linspace(0.0, 5.0, 21)
        snaps = giant_path(r, grid)
        volumes = [s.volume for s in snaps]
        assert all(b >= a for a, b in zip(volumes, volumes[1:]))

    def test_count_monotone_for_constant_weights(self):
        r = simulate_dynamic_graph(_vector(np.ones(60)), 8, 4.0)
        snaps = giant_path(r, np.linspace(0.0, 4.0, 17))
        counts = [s.count for s in snaps]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_conservation(self):
        """Component counts and volumes always partition the whole graph."""
        rng = np.random.default_rng(31)
        w = rng.uniform(0.5, 3.0, size=70)
        r = simulate_dynamic_graph(_vector(w), 9, 10.0)
        for lam in (0.0, 0.5, 1.0, 2.0, 10.0):
            comps = _components_at(r, lam)
            assert sum(c for c, _ in comps) == 70
            assert math.fsum(v for _, v in comps) == pytest.approx(w.sum(), rel=1e-9)

    def test_alternating_weight_vectors(self):
        """Each realization's volumes come from its own weights, whichever
        vector the previous call labelled."""
        a = simulate_dynamic_graph(_vector([0.1, 0.2, 0.3, 0.4]), 11, 1e6)
        b = simulate_dynamic_graph(_vector([1e6, 2.0, 1e-6]), 11, 1e6)
        first = [giant_path(r, [1e6]) for r in (a, b)]
        assert [giant_path(r, [1e6]) for r in (a, b)] == first
        # every pair arrives by lambda = 1e6
        assert [(s.count, s.volume) for (s,) in first] == [(4, 1.0), (3, 1000002.000001)]

    def test_rejects_descending_grid(self):
        r = simulate_dynamic_graph(_vector(np.ones(5)), 10, 2.0)
        with pytest.raises(ValueError):
            giant_path(r, [2.0, 1.0])

    def test_rejects_lambda_above_horizon(self):
        r = simulate_dynamic_graph(_vector(np.ones(5)), 10, 2.0)
        giant_path(r, [1.0, 2.0])
        with pytest.raises(ValueError, match="horizon"):
            giant_path(r, [1.0, 2.5])
        with pytest.raises(ValueError, match="horizon"):
            _components_at(r, 2.5)
        with pytest.raises(ValueError, match="horizon"):
            giant_path(r, [1.0, math.nan])


def _brute_force(r, lam):
    """(count, volume, smallest vertex, exact volume) of every component at
    lam, by label propagation over the edges arriving at or below lam / n;
    the volume is the ``math.fsum`` of the weights, the exact volume their
    ``Fraction`` sum."""
    label = list(range(r.n))
    edges = [
        (i, j)
        for i, j, a in zip(r.edge_i.tolist(), r.edge_j.tolist(), r.arrivals.tolist())
        if a <= lam / r.n
    ]
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    comps = {}
    for v, root in enumerate(label):
        comps.setdefault(root, []).append(float(r.w.weights[v]))
    return [(len(ws), math.fsum(ws), root, sum(map(Fraction, ws))) for root, ws in comps.items()]


# dyadic weights sum exactly in any order, so volume ties are real ties
_DYADIC = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
# sums of these need 3 or 4 31-bit limbs and depend on the order of float
# additions; 0.2 == 2 * 0.1 exactly, so some exact ties remain
_NON_DYADIC = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 1e-6, 3e-6, 1e6, 2.5e5 + 0.1])


@st.composite
def _sampled_realizations(draw, weight=_DYADIC):
    weights = draw(st.lists(weight, min_size=1, max_size=12))
    lam_max = draw(st.floats(0.0, 30.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return simulate_dynamic_graph(_vector(weights), seed, lam_max)


@st.composite
def _injected_realizations(draw, weight=st.sampled_from([1.0, 2.0])):
    weights = draw(st.lists(weight, min_size=1, max_size=8))
    n = len(weights)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arrivals = draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0]),
                             min_size=len(pairs), max_size=len(pairs)))
    edges = [(i, j, a) for (i, j), a in zip(pairs, arrivals)]
    return DynamicGraphRealization.from_arrivals(weights, edges)


class TestIncrementalGiant:
    """The giant of the warm-started labels equals the brute-force component
    of maximal exact volume, ties to the one holding the smallest vertex, and
    its volume is the ``math.fsum`` of its weights."""

    @staticmethod
    def _check(r, fractions):
        horizon = r.lam_max if math.isfinite(r.lam_max) else 1.2 * r.n
        grid = sorted(horizon * f for f in fractions)
        for lam, snap in zip(grid, giant_path(r, grid)):
            comps = _brute_force(r, lam)
            count, volume, _, _ = min(comps, key=lambda c: (-c[3], c[2]))
            assert (snap.count, snap.volume) == (count, volume)
            labelled = _components_at(r, lam)
            assert sorted(labelled) == sorted((c, v) for c, v, _, _ in comps)
            assert sum(c for c, _ in labelled) == r.n
            if all(Fraction(v) == exact for _, v, _, exact in comps):  # no volume rounded
                assert math.fsum(v for _, v in labelled) == math.fsum(r.w.weights.tolist())

    @settings(database=None, derandomize=True, max_examples=150, deadline=None)
    @given(_sampled_realizations(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_sampled(self, r, fractions):
        self._check(r, fractions)

    @settings(database=None, derandomize=True, max_examples=150, deadline=None)
    @given(_injected_realizations(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_injected_with_ties(self, r, fractions):
        self._check(r, fractions)

    @settings(database=None, derandomize=True, max_examples=150, deadline=None)
    @given(_sampled_realizations(_NON_DYADIC),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_sampled_non_dyadic(self, r, fractions):
        self._check(r, fractions)

    @settings(database=None, derandomize=True, max_examples=150, deadline=None)
    @given(_injected_realizations(_NON_DYADIC),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_injected_non_dyadic(self, r, fractions):
        self._check(r, fractions)


class TestExtremeWeights:
    """Graph volumes over many limbs, with carries between them, are the
    ``fsum`` of the giant's weights, and overflow past the float range as
    ``fsum`` and the walk's volumes do."""

    @pytest.mark.parametrize(
        "weights, limbs",
        [
            # every atom three or four times, so that the limb sums carry
            (
                lambda rng, n: rng.permutation(np.geomspace(1e-300, 1e300, 12)[np.arange(n) % 12]),
                66,
            ),
            (
                lambda rng, n: rng.choice(
                    [5e-324, 1.5e-323, 3.3e-318, 1e-310, 2.2250738585072014e-308, 1.0], size=n
                ),
                35,
            ),
        ],
        ids=["float-range", "subnormal"],
    )
    def test_volumes_equal_fsum(self, weights, limbs):
        rng = np.random.default_rng(60)
        n = 40
        i, j = np.triu_indices(n, k=1)
        edges = np.column_stack([i, j, rng.standard_exponential(i.size)])
        r = DynamicGraphRealization.from_arrivals(weights(rng, n), edges)
        assert r.w.limbs[1].shape[0] == limbs
        TestIncrementalGiant._check(r, [0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.2, 1.0])

    def test_volume_past_the_float_range_overflows(self):
        r = DynamicGraphRealization.from_arrivals(
            [1e308, 1.5e308, 1.0], [(0, 1, 0.1), (0, 2, 0.5), (1, 2, 0.9)]
        )
        assert giant_path(r, [0.0])[0].volume == 1.5e308
        with pytest.raises(OverflowError):
            _brute_force(r, 3 * 0.3)
        with pytest.raises(OverflowError):
            giant_path(r, [3 * 0.3])
