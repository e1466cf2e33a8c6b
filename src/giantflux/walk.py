"""Simultaneous breadth-first walk encoding of the dynamic graph.

One draw of exponential clocks xi_j (rate w_j) encodes the giant component
for every edge intensity lambda at once: the path

    H(t) = (1/n) * sum_j w_j * 1[xi_j <= lambda t] - t

jumps by w_j/n at time xi_j/lambda and drifts down at slope -1 in between.
Its excursions above the running infimum correspond to connected components;
the longest excursion (first one on ties) is the giant.  The excursion
interval (g, d) gives the scaled volume d - g, and the vertices of the giant
are exactly the clocks landing in the closed window [lambda g, lambda d].

Because rescaling time by 1/lambda does not change the clock order, one sort
per realization serves every lambda; the per-lambda scan is a handful of
vectorized passes with all crossing times computed in closed form (the slope
is exactly -1), so there is no time discretization anywhere.

The excursion openings nest in lambda: a clock that opens an excursion at
lambda' also opens one at every lambda < lambda'.  A grid is therefore
scanned in ascending order, the smallest lambda over all n clocks and each
later one only over the openings of the one before (under a slightly looser
test that covers rounding), so a grid costs O(n) once plus O(earlier
openings) per further lambda, with every result bit for bit that of a full
scan.

The giant's exact volume comes from its weight classes: a realization keeps
each vertex's index into the distinct weights (``atoms``) in clock order, so
counting the clock window gives the count of every atom present, and the
exact real value of sum(count * atom) is rounded once.  That is bit for bit
the correctly rounded sum of the window's weights, with one exact term per
class present (at most min(window, K) for K distinct weights) rather than
one Python float per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from ._numeric import pairwise_cumsum
from .theory import SupercriticalCurves
from .weights import WeightVector

__all__ = [
    "WalkRealization",
    "ExcursionResult",
    "GiantPath",
    "sample_clocks",
    "longest_excursion",
    "all_excursions",
    "giant_results",
    "sweep",
    "walk_value",
]

# near-tie rule for "descent re-hits the running infimum"; exact ties have
# probability zero but floating point needs a deterministic decision
_LEVEL_TOL = 1e-12


@dataclass(frozen=True)
class WalkRealization:
    """One draw of clocks plus everything precomputed for per-lambda scans.

    In clock order a vertex is kept only through its weight class:
    ``atoms[sorted_class[k]]`` is the weight of the k-th clock.  A giant's
    ``total_volume`` is summed exactly from the class counts of its clock
    window (``_window_volumes``).  The prefix sums of 1/n in clock order are
    k/n and stay implicit.
    """

    weights: np.ndarray       # original vertex order
    clocks: np.ndarray        # xi_j, original vertex order
    atoms: np.ndarray         # distinct weights, ascending
    sorted_clocks: np.ndarray
    sorted_class: np.ndarray  # index into atoms of each vertex, clock order
    mass_prefix: np.ndarray   # S_k: pairwise prefix sums of w/n in clock order
    mass_before: np.ndarray   # S_{k-1}, with S_0 = 0

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        """(1/n) * sum_j w_j, the total jump mass of the walk."""
        return float(self.mass_prefix[-1])

    @classmethod
    def from_clocks(cls, weights, clocks) -> "WalkRealization":
        """Build from explicit clocks (used by tests to inject hand values)."""
        w = np.asarray(weights, dtype=np.float64)
        v = WeightVector(n=w.size, weights=w, provenance="explicit")
        return _realize(v, np.array(clocks, dtype=np.float64))


def _realize(v: WeightVector, xi: np.ndarray) -> WalkRealization:
    """The realization of ``v`` with clocks ``xi`` (vertex order); freezes ``xi`` in place."""
    if xi.shape != v.weights.shape:
        raise ValueError("weights and clocks must be equal-length non-empty 1-d arrays")
    if not np.all(xi > 0.0):
        raise ValueError("clocks must be strictly positive")
    atoms, index = v.classes
    order = np.argsort(xi)
    sorted_clocks = xi[order]
    sorted_class = index[order]
    prefix = np.empty(v.n + 1)
    prefix[0] = 0.0
    prefix[1:] = pairwise_cumsum(atoms[sorted_class] / v.n)
    for arr in (xi, sorted_clocks, sorted_class, prefix):
        arr.setflags(write=False)
    return WalkRealization(
        weights=v.weights,
        clocks=xi,
        atoms=atoms,
        sorted_clocks=sorted_clocks,
        sorted_class=sorted_class,
        mass_prefix=prefix[1:],
        mass_before=prefix[:-1],
    )


@dataclass(frozen=True)
class ExcursionResult:
    """The excursion picked as the giant at one lambda.

    ``volume`` is the scaled volume d - g (the giant volume over n);
    ``total_volume`` is the correctly rounded weight sum over the clock
    window and agrees with n * (d - g) up to accumulated rounding.
    """

    g: float
    d: float
    volume: float
    count_fraction: float
    vertex_count: int
    total_volume: float


@dataclass(frozen=True)
class GiantPath:
    """Per-lambda giant statistics for one realization, coupled by one draw.

    Fluctuations are centered with the curves of the realization's own weight
    vector: fluc_count = (L - rho_n * n)/sqrt(n), fluc_volume =
    (V - theta_n * n)/sqrt(n).
    """

    lambdas: np.ndarray
    results: tuple[ExcursionResult, ...]
    fluc_count: np.ndarray
    fluc_volume: np.ndarray


def sample_clocks(w: WeightVector, seed: int) -> WalkRealization:
    """Draw the exponential clocks xi_j ~ Exp(w_j) for a weight vector."""
    rng = np.random.default_rng(seed)
    return _realize(w, rng.standard_exponential(w.n) / w.weights)


# Margin of the candidate test that carries a grid's openings to the next,
# larger lambda: position k stays a candidate when
#     value_before[k] <= run_min + _NEST_TOL * (1 + t[k]).
# Claim: a position failing it at lam fails the opening test of _scan at
# every lam' >= lam.  Write u = 2**-53, tol = _LEVEL_TOL, m for the running
# minimum before k at lam, attained at i < k, primes for values at lam', and
# B_j = S_{j-1} - xi_(j)/lam for the exact value that value_before rounds.
# (1) B_k - B_i = (S_{k-1} - S_{i-1}) - (xi_(k) - xi_(i))/lam does not
#     decrease in lam, since xi_(k) >= xi_(i).
# (2) Rounding is monotone and S >= 0, so value_before'[j] >= -t'[j] >= -t[k]
#     for j < k, and value_before'[0] <= 0: -t[k] <= m' <= 0.  If k opens at
#     lam', then value_before'[k] <= m' + 1.01 tol (1 + t[k]), and m' is at
#     most value_before'[i].
# (3) value_before = fl(S - fl(xi/lam)) is within u xi/lam + u |S - fl(xi/lam)|
#     of B.  Here S_{i-1} <= t[i] (as m <= 0) and S_{k-1} <= t[k] + 1.02 tol
#     (1 + t[k]) (by (2), as m' <= 0), so each of the four values (i and k,
#     at lam and lam') is off by less than 4u (1 + t[k]); the "1 +" also
#     absorbs the absolute error, below 2**-1074, of a subnormal quotient.
# (4) Chaining (3), (1), (2), (3): value_before[k] - m < (1.01 tol + 16u)
#     (1 + t[k]) < 1.02 tol (1 + t[k]), while the float bound
#     m + fl(2 tol fl(1 + t[k])) is at least m + 1.99 tol (1 + t[k]).
# So k passes the test at lam, against the assumption.
_NEST_TOL = 2 * _LEVEL_TOL


def _scan(r: WalkRealization, lam: float, positions=None, candidates=False):
    """Decompose the walk at intensity lam into its excursions.

    Returns (g, d, start_idx, end_idx, candidates): four arrays over all
    excursions, in time order, then the candidates described below.  The
    path value just before jump k is B_k = S_{k-1} - t_k with S the jump-mass prefix and
    t_k = xi_(k)/lam; a jump opens a new excursion exactly when the preceding
    descent reached the running infimum, i.e. when B_k <= min(B_1..B_{k-1})
    up to the near-tie tolerance.  Each excursion ends where the slope -1
    descent from its last jump re-hits its base level, in closed form.

    ``positions`` (ascending clock positions, starting at 0) limits the test
    to a superset of the openings, such as the candidates of a smaller
    lambda.  A position outside it does not open, so it never lowered the
    running minimum, and every result is bit for bit that of the full scan.
    With ``candidates`` set, the last item holds the positions passing the
    looser ``_NEST_TOL`` test, which contain the openings at every larger
    lambda; otherwise it is None.
    """
    if positions is None:
        t = r.sorted_clocks / lam
        value_before = r.mass_before - t
    else:
        t = r.sorted_clocks[positions] / lam
        value_before = r.mass_before[positions] - t
    prev_min = np.minimum.accumulate(value_before)[:-1]
    opens = np.empty(t.size, dtype=bool)
    opens[0] = True
    opens[1:] = value_before[1:] <= prev_min + _LEVEL_TOL * (1.0 + np.abs(prev_min))
    local = np.flatnonzero(opens)
    starts = local if positions is None else positions[local]
    near = None
    if candidates:
        opens[1:] = value_before[1:] <= prev_min + _NEST_TOL * (1.0 + t[1:])
        near = np.flatnonzero(opens)
        if positions is not None:
            near = positions[near]
    ends = np.concatenate((starts[1:] - 1, [r.n - 1]))
    g = t[local]
    t_end = r.sorted_clocks[ends] / lam
    d = t_end + ((r.mass_prefix[ends] - t_end) - value_before[local])
    return g, d, starts, ends, near


# Veltkamp's splitter for binary64: x * (2**27 + 1) splits x exactly into a
# high and a low part of at most 26 significant bits each
_SPLITTER = 134217729.0


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


def _two_product(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: x * y == p + e exactly, p = fl(x * y)."""
    p = x * y
    x_hi, x_lo = _split(x)
    y_hi, y_lo = _split(y)
    return p, x_lo * y_lo - (((p - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)


# counting by ``bincount`` is cheaper than sorting while the bins (windows
# times classes) are within a few times the clock positions counted; past
# that, sorting keeps the cost near-linear in the positions whatever K is
_BINS_PER_POSITION = 8


def _window_volumes(r: WalkRealization, bounds: np.ndarray) -> list[float]:
    """Exact weight sum of each clock window [bounds[i], bounds[i+1]).

    Each window is reduced to the count of every weight class present in
    it, so it contributes one term per class present, at most min(window, K).
    A class seen once contributes its atom; for a repeated class the
    two-product writes count * atom exactly as p + e (e omitted when zero).
    ``fsum`` rounds the exact total of a window's terms once, so each result
    is bit for bit the ``fsum`` of the window's weights.  The products are
    error-free while no atom lies outside about [1e-290, 1e290] (counts are
    integers below 2**53).
    """
    k = r.atoms.size
    lengths = bounds[1:] - bounds[:-1]
    m = lengths.size
    keys = r.sorted_class[bounds[0] : bounds[-1]]
    if m > 1:
        # window i counts its classes in bins i*k .. i*k + k - 1
        keys = keys + np.repeat(np.arange(m) * k, lengths)
    if m * k <= _BINS_PER_POSITION * keys.size:
        counts = np.bincount(keys, minlength=m * k)
        keys = np.flatnonzero(counts > 0)
        counts = counts[keys]
    else:
        keys = np.sort(keys)
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = np.diff(np.append(first, keys.size))
        keys = keys[first]
    # the distinct keys ascend, so window i's classes are keys[edges[i]:edges[i+1]]
    edges = np.searchsorted(keys, np.arange(m + 1) * k)
    terms = r.atoms[keys - np.repeat(np.arange(m) * k, edges[1:] - edges[:-1])]
    multi = np.flatnonzero(counts > 1)
    p, e = _two_product(counts[multi].astype(np.float64), terms[multi])
    terms[multi] = p
    inexact = e != 0.0
    e_edges = np.searchsorted(multi[inexact], edges).tolist()
    edges, terms, errors = edges.tolist(), terms.tolist(), e[inexact].tolist()
    return [
        fsum(terms[edges[i] : edges[i + 1]] + errors[e_edges[i] : e_edges[i + 1]])
        for i in range(m)
    ]


def _result(g: float, d: float, lo: int, hi: int, n: int, total_volume: float) -> ExcursionResult:
    count = hi - lo + 1
    return ExcursionResult(
        g=g,
        d=d,
        volume=d - g,
        count_fraction=count / n,
        vertex_count=count,
        total_volume=total_volume,
    )


def _check_lambdas(lambdas) -> np.ndarray:
    grid = np.asarray(lambdas, dtype=np.float64)
    bad = grid[~(np.isfinite(grid) & (grid > 0.0))]
    if bad.size:
        raise ValueError(f"lambda must be finite and > 0, got {bad[0]}")
    return grid


def _first_longest(r: WalkRealization, g, d, starts, ends) -> ExcursionResult:
    """The earliest of the excursions whose length ties the maximum.

    Lengths within the near-tie tolerance of the maximum count as tied, so
    float noise cannot flip a real-arithmetic tie.
    """
    lengths = d - g
    top = float(lengths.max())
    idx = int(np.flatnonzero(lengths >= top - _LEVEL_TOL * (1.0 + top))[0])
    lo, hi = int(starts[idx]), int(ends[idx])
    (total_volume,) = _window_volumes(r, np.array([lo, hi + 1]))
    return _result(float(g[idx]), float(d[idx]), lo, hi, r.n, total_volume)


def longest_excursion(r: WalkRealization, lam: float) -> ExcursionResult:
    """First-longest excursion of the walk at intensity lam (the giant)."""
    return giant_results(r, [lam])[0]


def all_excursions(r: WalkRealization, lam: float) -> list[ExcursionResult]:
    """Every excursion at intensity lam, in time order."""
    _check_lambdas(lam)
    g, d, starts, ends, _ = _scan(r, lam)
    volumes = _window_volumes(r, np.append(starts, r.n))
    return [
        _result(gi, di, lo, hi, r.n, v)
        for gi, di, lo, hi, v in zip(g.tolist(), d.tolist(), starts.tolist(), ends.tolist(), volumes)
    ]


def giant_results(r: WalkRealization, lambdas) -> tuple[ExcursionResult, ...]:
    """The giant (first-longest excursion) at each lambda, from the one draw.

    Results are in the order of ``lambdas``, duplicates included.  The grid
    is scanned in ascending order: the smallest lambda over every clock, each
    later one over the candidates its predecessor left (see ``_scan``).
    """
    grid = _check_lambdas(lambdas)
    order = np.argsort(grid, kind="stable").tolist()
    results: list[ExcursionResult | None] = [None] * len(order)
    positions = None
    for step, i in enumerate(order):
        g, d, starts, ends, positions = _scan(
            r, grid[i], positions, candidates=step < len(order) - 1
        )
        results[i] = _first_longest(r, g, d, starts, ends)
    return tuple(results)


def sweep(r: WalkRealization, lambdas, curves_n: SupercriticalCurves) -> GiantPath:
    """Giant statistics across a lambda grid from the one realization.

    ``curves_n`` must be the curves of this realization's weight vector on
    exactly the requested grid; they provide the finite-n centering.
    """
    grid = np.asarray(lambdas, dtype=np.float64)
    if not np.array_equal(grid, curves_n.lambdas):
        raise ValueError("lambda grid does not match the grid of curves_n")
    results = giant_results(r, grid)
    n = r.n
    sqrt_n = np.sqrt(n)
    count = np.array([res.vertex_count for res in results], dtype=np.float64)
    volume = np.array([res.total_volume for res in results])
    fluc_count = (count - curves_n.rho * n) / sqrt_n
    fluc_volume = (volume - curves_n.theta * n) / sqrt_n
    fluc_count.setflags(write=False)
    fluc_volume.setflags(write=False)
    return GiantPath(
        lambdas=curves_n.lambdas,
        results=results,
        fluc_count=fluc_count,
        fluc_volume=fluc_volume,
    )


def walk_value(r: WalkRealization, lam: float, t: float) -> float:
    """Exact step-function evaluation of H(t) at intensity lam."""
    _check_lambdas(lam)
    t = float(t)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    pos = int(np.searchsorted(r.sorted_clocks, lam * t, side="right"))
    x1 = float(r.mass_prefix[pos - 1]) if pos > 0 else 0.0
    return x1 - t
