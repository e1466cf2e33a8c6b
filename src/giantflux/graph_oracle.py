"""Direct dynamic-graph simulation, the ground-truth oracle for the walk.

Each pair {i, j} has an arrival E_ij ~ Exp(w_i * w_j), independent over
pairs; the edge is present at intensity lambda iff E_ij <= lambda / n.  A
realization is sampled up to a horizon lam_max and keeps only the arrivals at
or below t = lam_max / n, which is the whole law of the graph process on
[0, lam_max].  The sampler draws Bernoulli(q) candidates with
q = 1 - exp(-t w_max^2) over the pairs by geometric skipping, thins each to
its own p_ij = 1 - exp(-t w_i w_j) and draws the kept arrival from Exp(w_i w_j)
truncated to (0, t], so it costs O(n + edges) time and memory, with
E[edges] <= lam_max w_max^2 (n - 1) / 2.  Every vertex is labelled with the
smallest vertex of its component; numpy hook-and-shortcut passes merge the
edges arriving between consecutive lambdas of an ascending grid, so one
realization yields the giant pathwise-coupled across the grid.  Volumes are
exact limb sums, compared exactly and rounded once as ``fsum`` (``_limb_floats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, inf, isfinite, sqrt

import numpy as np

from .weights import WeightVector, _limb_floats

__all__ = [
    "DynamicGraphRealization",
    "GiantSnapshot",
    "candidate_probability",
    "simulate_dynamic_graph",
    "giant_path",
]

@dataclass(frozen=True)
class DynamicGraphRealization:
    """The edge arrivals at or below ``lam_max / n`` of one realization.

    ``w`` is the weight vector it was sampled from.  ``edge_i[k] < edge_j[k]``
    are the endpoints of the edge arriving at ``arrivals[k]``, sorted
    ascending.  ``lam_max`` is the horizon: at any lambda above it the
    realization lacks edges, so it answers no query there.
    """

    w: WeightVector
    edge_i: np.ndarray
    edge_j: np.ndarray
    arrivals: np.ndarray
    lam_max: float

    @property
    def n(self) -> int:
        return self.w.n

    @classmethod
    def from_arrivals(cls, weights, edges) -> "DynamicGraphRealization":
        """Build from explicit (i, j, arrival) rows; deterministic tests only.

        The rows must hold every unordered pair exactly once, so the
        realization holds every arrival and its horizon is infinite.  The
        weights must be finite and > 0, as for any ``WeightVector``.
        """
        w = WeightVector(weights)
        n = w.n
        rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        ei, ej = np.sort(rows[:, :2], axis=1).astype(np.int64).T
        bad = np.flatnonzero((ei < 0) | (ej >= n) | (ei == ej) | ~(rows[:, 2] > 0.0))
        if bad.size:
            raise ValueError(f"edge ({ei[bad[0]]}, {ej[bad[0]]}) must join two of the "
                             f"n={n} vertices and arrive at a time > 0")
        pairs = np.count_nonzero(np.diff(np.sort(ei * n + ej), prepend=-1))  # distinct
        if pairs != ei.size or pairs != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} edges for n={n}, one per pair; got "
                             f"{ei.size}, {ei.size - pairs} of them duplicate")
        return cls._sorted(w, ei, ej, rows[:, 2], inf)

    @classmethod
    def _sorted(cls, w, ei, ej, arrivals, lam_max) -> "DynamicGraphRealization":
        order = arrivals.argsort()
        ei, ej, arrivals = ei[order], ej[order], arrivals[order]
        for arr in (ei, ej, arrivals):
            arr.setflags(write=False)
        return cls(w=w, edge_i=ei, edge_j=ej, arrivals=arrivals, lam_max=lam_max)


@dataclass(frozen=True)
class GiantSnapshot:
    """Count and volume of the most voluminous component at one lambda."""

    count: int
    volume: float


def _bernoulli_indices(rng: np.random.Generator, size: int, q: float) -> np.ndarray:
    """Ascending indices of the successes of ``size`` iid Bernoulli(q) trials.

    Geometric skipping: the gaps between successes are iid Geometric(q).
    Gaps are clamped to ``size + 1``, which ends the scan just the same and
    keeps the running sum far from int64 overflow.
    """
    mean = size * q
    batch = int(mean + 4.0 * sqrt(mean)) + 16
    chunks = []
    last = -1
    while True:
        idx = np.minimum(rng.geometric(q, size=batch), size + 1).cumsum() + last
        inside = idx.searchsorted(size)  # idx ascends
        chunks.append(idx[:inside])
        if inside < batch:
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        last = int(idx[-1])


def candidate_probability(n: int, lam_max: float, w_max: float) -> float:
    """q = 1 - exp(-(lam_max / n) w_max^2): the chance that a pair whose
    weights are at most w_max arrives by lam_max / n, so q n (n - 1) / 2 is
    the sampler's expected candidate count."""
    return -expm1(-(lam_max / n) * w_max**2)


def simulate_dynamic_graph(w: WeightVector, seed: int, lam_max: float) -> DynamicGraphRealization:
    """Sample every edge arrival at or below ``lam_max / n``.

    On [0, lam_max] the result has exactly the law of the full graph process.
    """
    n = w.n
    if not (isfinite(lam_max) and lam_max >= 0.0):
        raise ValueError(f"lam_max must be finite and >= 0, got {lam_max}")
    weights = w.weights
    t = lam_max / n
    q = candidate_probability(n, lam_max, float(weights.max()))
    rng = np.random.default_rng(seed)
    # Geometric(0) is undefined; with q = 0 no pair can arrive by t
    k = _bernoulli_indices(rng, n * (n - 1) // 2, q) if q > 0.0 else np.empty(0, dtype=np.int64)
    if not k.size:
        return DynamicGraphRealization._sorted(w, k, k, np.empty(0), lam_max)
    # pair {i < j} has linear index row_start[i] + (j - i - 1)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - 1 - rows) // 2
    ei = row_start[1:].searchsorted(k, side="right")
    ej = k - row_start[ei] + ei + 1
    rate = weights[ei] * weights[ej]
    p = -np.expm1(-t * rate)
    kept = (rng.random(k.size) < p / q).nonzero()[0]
    ei, ej, rate, p = ei[kept], ej[kept], rate[kept], p[kept]
    # inverse CDF of Exp(rate) truncated to (0, t], with -V = U - 1 in [-1, 0)
    arrivals = np.minimum(-np.log1p((rng.random(kept.size) - 1.0) * p) / rate, t)
    return DynamicGraphRealization._sorted(w, ei, ej, arrivals, lam_max)


def _merge(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The labels after adding the edges (u[k], v[k]); ``labels`` may be overwritten.

    A label is the smallest vertex of its component.  Min-label
    hook-and-shortcut: each edge whose ends carry different labels hooks the
    larger label onto the smaller, and pointer jumping flattens the trees
    back to stars, until every edge joins equal labels.  No label exceeds its
    vertex, so the trees stay acyclic.
    """
    while True:
        lu, lv = labels[u], labels[v]
        apart = lu != lv
        if not np.count_nonzero(apart):
            return labels
        u, v = u[apart], v[apart]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        jumped = labels[labels]
        while np.count_nonzero(jumped != labels):
            labels, jumped = jumped, jumped[jumped]


def _label_volumes(labels: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each label's exact volume sum_l sums[l, label] << 31 l in units of
    2**e0, from ``table``, the (L, n) ``WeightVector.limbs`` of the vertices.
    The int64 sums are exact up to 2**32 vertices; each carry is moved up a
    limb, so rows l < L - 1 lie in [0, 2**31) and labels compare limb by limb."""
    sums = np.zeros(table.shape, dtype=np.int64)
    for total, limb in zip(sums, table):
        np.add.at(total, labels, limb)
    for low, high in zip(sums[:-1], sums[1:]):
        high += low >> 31
        low &= (1 << 31) - 1
    return sums


def _prefix_ends(r: DynamicGraphRealization, lambdas: np.ndarray) -> list[int]:
    """Number of arrivals at or below ``lam / n`` for each lambda."""
    outside = lambdas[~(lambdas <= r.lam_max)]  # NaN is outside too
    if outside.size:
        raise ValueError(
            f"lambda {outside[0]} is not within the realization's horizon lam_max={r.lam_max}"
        )
    return np.searchsorted(r.arrivals, lambdas / r.n, side="right").tolist()


def giant_path(r: DynamicGraphRealization, lambdas) -> list[GiantSnapshot]:
    """Giant snapshots over an ascending lambda grid, labels warm-started."""
    grid = np.asarray(lambdas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a non-empty 1-d sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("lambda grid must be ascending")
    ends = _prefix_ends(r, grid)
    e0, limbs = r.w.limbs
    table = limbs[:, r.w.classes[1]]
    labels = np.arange(r.n)
    snapshots = []
    for start, stop in zip([0] + ends, ends):
        labels = _merge(labels, r.edge_i[start:stop], r.edge_j[start:stop])
        sums = _label_volumes(labels, table)
        # the max exact volume, ties to the smallest label
        tied = (sums[-1] == sums[-1].max()).nonzero()[0]
        for limb in sums[-2::-1]:
            tied = tied[limb[tied] == limb[tied].max()]
        best = int(tied[0])
        count = int(np.count_nonzero(labels == best))
        (volume,) = _limb_floats(e0, sums[:, [best]])
        snapshots.append(GiantSnapshot(count=count, volume=volume))
    return snapshots

