"""Direct dynamic-graph simulation, the ground-truth oracle for the walk.

Each pair {i, j} has an arrival E_ij ~ Exp(w_i * w_j), independent over
pairs; the edge is present at intensity lambda iff E_ij <= lambda / n.  A
realization is sampled up to a horizon lam_max and keeps only the arrivals at
or below t = lam_max / n, which is the whole law of the graph process on
[0, lam_max].  The sampler draws Bernoulli(q) candidates with
q = 1 - exp(-t w_max^2) over the pairs by geometric skipping, thins each to
its own p_ij = 1 - exp(-t w_i w_j) and draws the kept arrival from Exp(w_i w_j)
truncated to (0, t], so it costs O(n + edges) time and memory, with
E[edges] <= lam_max w_max^2 (n - 1) / 2.  One Kruskal-style union-find pass
over the sorted arrivals tracks component counts, volumes and the giant, so
one realization yields the giant pathwise-coupled across a whole ascending
lambda grid up to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, inf, isfinite, sqrt

import numpy as np

from .weights import WeightVector

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

    ``edge_i[k] < edge_j[k]`` are the endpoints of the edge arriving at
    ``arrivals[k]``, sorted ascending.  ``lam_max`` is the horizon: at any
    lambda above it the realization lacks edges, so it answers no query there.
    """

    weights: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    arrivals: np.ndarray
    lam_max: float

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def from_arrivals(cls, weights, edges) -> "DynamicGraphRealization":
        """Build from an explicit (i, j, arrival) list; deterministic tests only.

        The list must contain every unordered pair exactly once, so the
        realization holds every arrival and its horizon is infinite.
        """
        w = np.asarray(weights, dtype=np.float64).copy()
        n = w.size
        seen = set()
        ii, jj, aa = [], [], []
        for i, j, arrival in edges:
            i, j = (int(i), int(j)) if i < j else (int(j), int(i))
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if arrival <= 0.0:
                raise ValueError(f"arrival for edge ({i}, {j}) must be > 0")
            seen.add((i, j))
            ii.append(i)
            jj.append(j)
            aa.append(float(arrival))
        if len(seen) != n * (n - 1) // 2:
            raise ValueError(
                f"expected {n * (n - 1) // 2} edges for n={n}, got {len(seen)}"
            )
        return cls._sorted(w, np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64),
                           np.array(aa, dtype=np.float64), inf)

    @classmethod
    def _sorted(cls, w, ei, ej, arrivals, lam_max) -> "DynamicGraphRealization":
        order = np.argsort(arrivals)
        ei, ej, arrivals = ei[order], ej[order], arrivals[order]
        for arr in (w, ei, ej, arrivals):
            arr.setflags(write=False)
        return cls(weights=w, edge_i=ei, edge_j=ej, arrivals=arrivals, lam_max=lam_max)


@dataclass(frozen=True)
class GiantSnapshot:
    """Count and volume of the most voluminous component at one lambda."""

    lam: float
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
        idx = last + np.cumsum(np.minimum(rng.geometric(q, size=batch), size + 1))
        inside = idx[idx < size]
        chunks.append(inside)
        if inside.size < idx.size:
            return np.concatenate(chunks)
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
    if q == 0.0:  # Geometric(0) is undefined; no pair can arrive by t
        empty = np.empty(0, dtype=np.int64)
        return DynamicGraphRealization._sorted(weights, empty, empty, np.empty(0), lam_max)
    # pair {i < j} has linear index row_start[i] + (j - i - 1)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    k = _bernoulli_indices(rng, n * (n - 1) // 2, q)
    ei = np.searchsorted(row_start, k, side="right") - 1
    ej = k - row_start[ei] + ei + 1
    rate = weights[ei] * weights[ej]
    p = -np.expm1(-t * rate)
    keep = rng.random(k.size) < p / q
    ei, ej, rate, p = ei[keep], ej[keep], rate[keep], p[keep]
    # inverse CDF of Exp(rate) truncated to (0, t], with V = 1 - U in (0, 1]
    v = 1.0 - rng.random(ei.size)
    arrivals = np.minimum(-np.log1p(-v * p) / rate, t)
    return DynamicGraphRealization._sorted(weights, ei, ej, arrivals, lam_max)


class _UnionFind:
    """Union by size with path halving over Python lists.

    Roots carry their component's count, volume and smallest vertex (``low``).
    ``best`` is the root of the max-volume component, ties going to the one
    holding the smallest vertex, and is kept up to date by every union.
    """

    def __init__(self, weights: np.ndarray):
        n = weights.size
        self.parent = list(range(n))
        self.count = [1] * n
        self.volume = weights.tolist()
        self.low = list(range(n))
        self.best = int(np.argmax(weights))

    def union_all(self, ei: list, ej: list) -> None:
        """Union the edges ``(ei[k], ej[k])`` in order."""
        parent, count, volume, low = self.parent, self.count, self.volume, self.low
        best = self.best
        for a, b in zip(ei, ej):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if count[a] < count[b]:
                a, b = b, a
            parent[b] = a
            count[a] += count[b]
            volume[a] += volume[b]
            if low[b] < low[a]:
                low[a] = low[b]
            # a merge with the best component is the new best: its volume
            # cannot fall and its smallest vertex cannot rise
            if b == best or volume[a] > volume[best] or (
                volume[a] == volume[best] and low[a] < low[best]
            ):
                best = a
        self.best = best


def _prefix_ends(r: DynamicGraphRealization, lambdas: np.ndarray) -> list[int]:
    """Number of arrivals at or below ``lam / n`` for each lambda."""
    outside = lambdas[~(lambdas <= r.lam_max)]  # NaN is outside too
    if outside.size:
        raise ValueError(
            f"lambda {outside[0]} is not within the realization's horizon lam_max={r.lam_max}"
        )
    return np.searchsorted(r.arrivals, lambdas / r.n, side="right").tolist()


def giant_path(r: DynamicGraphRealization, lambdas) -> list[GiantSnapshot]:
    """Giant snapshots over an ascending lambda grid, one Kruskal pass."""
    grid = np.asarray(lambdas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a non-empty 1-d sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("lambda grid must be ascending")
    ends = _prefix_ends(r, grid)
    ei = r.edge_i[: ends[-1]].tolist()
    ej = r.edge_j[: ends[-1]].tolist()
    uf = _UnionFind(r.weights)
    snapshots = []
    start = 0
    for lam, stop in zip(grid.tolist(), ends):
        uf.union_all(ei[start:stop], ej[start:stop])
        start = stop
        snapshots.append(GiantSnapshot(lam=lam, count=uf.count[uf.best], volume=uf.volume[uf.best]))
    return snapshots


def _components_at(r: DynamicGraphRealization, lam: float) -> list[tuple[int, float]]:
    """(count, volume) for every component at one lambda; test helper."""
    (stop,) = _prefix_ends(r, np.array([lam], dtype=np.float64))
    uf = _UnionFind(r.weights)
    uf.union_all(r.edge_i[:stop].tolist(), r.edge_j[:stop].tolist())
    return [(uf.count[v], uf.volume[v]) for v in range(r.n) if uf.parent[v] == v]
