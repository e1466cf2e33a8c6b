"""Simultaneous breadth-first walk encoding of the dynamic graph.

One draw of exponential clocks xi_j (rate w_j) encodes the giant component
for every edge intensity lambda at once: the path

    H(t) = (1/n) * sum_j w_j * 1[xi_j <= lambda t] - t

jumps by w_j/n at time xi_j/lambda and drifts down at slope -1 in between.
Its excursions above the running infimum correspond to connected components;
the longest excursion (first one on ties) is the giant.  The excursion
interval (g, d) gives the scaled volume d - g, and the vertices of the giant
are exactly the clocks landing in the closed window [lambda g, lambda d].

Rescaling time by 1/lambda keeps the clock order, so one sort of packed
integer keys (clock bits above weight class) serves every lambda; the scan
at a lambda is a handful of vectorized passes with all crossing times in
closed form (the slope is exactly -1): no time discretization anywhere.
A realization's n-length arrays are buffers of its own; a draw with ``out``
writes into them, so each harness worker reuses one set for every replicate.

The excursion openings nest in lambda: a clock that opens an excursion at
lambda' opens one at every lambda < lambda'.  So a grid is scanned in
ascending order, the smallest lambda over all n clocks and each later one
over the openings of the one before (under a looser test that covers
rounding): O(n) once plus O(earlier openings) per further lambda, each
result bit for bit that of a full scan.

Every distinct weight is an exact integer multiple of one power of two
2**e0, held as 31-bit int64 limbs, whose prefix sums in clock order are
exact.  They give the jump-mass prefix, with one rounding per limb, and the
giant's volume: a window's weight sum is an exact Python int, rounded once,
bit for bit the correctly rounded sum of its weights (``fsum``) for every
finite positive weight law, subnormals included, while that sum is
representable.  All windows of a grid cost one pass over the span they cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weights import WeightVector

__all__ = [
    "WalkRealization",
    "ExcursionResult",
    "sample_clocks",
    "all_excursions",
    "giant_results",
    "walk_value",
]

# near-tie rule for "descent re-hits the running infimum"; exact ties have
# probability zero but floating point needs a deterministic decision
_LEVEL_TOL = 1e-12


@dataclass(frozen=True)
class WalkRealization:
    """One draw of clocks plus everything precomputed for per-lambda scans.

    In clock order a vertex is kept only through its weight class:
    ``atoms[sorted_class[k]]`` is the weight of the k-th clock.  ``limbs``
    (``WeightVector.limbs``) holds the atoms as exact integer limbs, from
    which ``mass_prefix`` and each giant's ``total_volume`` are summed.

    The four arrays are read-only views of the realization's own buffers,
    which ``sample_clocks(w, seed, out=r)`` overwrites with the next draw.
    Every scan overwrites r's scratch rows: scan r from one thread at a time.
    """

    atoms: np.ndarray         # distinct weights, ascending
    sorted_clocks: np.ndarray
    sorted_class: np.ndarray  # index into atoms of each vertex, clock order
    mass_prefix: np.ndarray   # S_k: sum of w/n over the first k clocks (_mass_prefix)
    mass_before: np.ndarray   # S_{k-1}, with S_0 = 0
    limbs: tuple[int, np.ndarray]  # (e0, L x K limb table) of the atoms
    # writable: packed keys (sorted into the clocks), classes, S_0..S_n, three
    # float64 scratch rows (clock draw and limb terms, then scan values), scan mask
    _buffers: tuple = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.sorted_clocks.size

    @property
    def total_mass(self) -> float:
        """(1/n) * sum_j w_j, the total jump mass of the walk."""
        return float(self.mass_prefix[-1])

    @classmethod
    def from_clocks(cls, weights, clocks) -> "WalkRealization":
        """Build from explicit clocks (used by tests to inject hand values)."""
        v = WeightVector(n=np.size(weights), weights=weights)
        return _realize(_allocate(v), v, np.array(clocks, dtype=np.float64))


def _allocate(v: WeightVector) -> WalkRealization:
    """A realization of ``v`` with fresh buffers, before any draw."""
    limbs = v.limbs  # first, so that np.unique's temporaries never stack on the buffers
    keys, classes, prefix = np.empty(v.n, np.uint64), np.empty(v.n, np.intp), np.empty(v.n + 1)
    views = [keys.view(np.float64), classes.view(), prefix.view()]
    for view in views:
        view.setflags(write=False)
    clocks, sorted_class, mass = views
    buffers = (keys, classes, prefix, np.empty((3, v.n)), np.empty(v.n, bool))
    return WalkRealization(v.classes[0], clocks, sorted_class, mass[1:], mass[:-1], limbs, buffers)


def _clock_order(xi, index, k: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The clocks ``xi`` sorted, and the class ``index`` of each, of k classes.

    Positive doubles order like their bit patterns, so sorting the keys
    (bits(xi) - bits(min xi)) << b | index, b = (k - 1).bit_length(), sorts
    the clocks, equal clocks by class; both unpack bit for bit.  A clock
    span wider than 64 - b bits (many classes) takes an argsort instead.
    ``out`` is the (uint64 keys, classes) pair written, fresh by default.
    """
    key, sorted_class = out or (np.empty(xi.size, dtype=np.uint64), np.empty_like(index))
    bits = xi.view(np.uint64)
    low = bits.min()
    b = (k - 1).bit_length()
    if int(bits.max() - low) >> (64 - b):
        order = np.argsort(xi)
        return xi.take(order, out=key.view(np.float64)), index.take(order, out=sorted_class)
    np.subtract(bits, low, out=key)
    key <<= np.uint64(b)
    key |= index.view(np.uint64)
    key.sort()
    np.bitwise_and(key, np.uint64((1 << b) - 1), out=sorted_class.view(np.uint64))
    key >>= np.uint64(b)
    key += low
    return key.view(np.float64), sorted_class


def _mass_prefix(limbs: tuple[int, np.ndarray], sorted_class, n: int, out=None) -> np.ndarray:
    """S_0 = 0, then S_k: the first k weights in clock order, summed, over n.

    Per limb l, the prefix sums C_l of the limb values are exact in int64,
    and the term fl(fl(C_l) / n) * 2**(e0 + 31 l) is added, lowest limb
    first.  Dividing before scaling keeps each term finite where S_k is.
    S_k is within (L + 2) u S_k + L 2**-1074 of the exact sum (u = 2**-53),
    and correctly rounded when L = 1, C_k < 2**53 and S_k is normal.
    ``out`` is the (n + 1 prefix, int64 part, term) written, fresh by default.
    """
    e0, table = limbs
    prefix, part, term = out or (np.empty(n + 1), np.empty(n, dtype=np.int64), np.empty(n))
    prefix.fill(0.0)
    for l, limb in enumerate(table):
        limb.take(sorted_class, out=part, mode="clip")  # in range; "raise" would buffer
        np.cumsum(part, out=part)
        np.divide(part, n, out=term)
        prefix[1:] += np.ldexp(term, e0 + 31 * l, out=term)
    return prefix


def _realize(r: WalkRealization, v: WeightVector, xi: np.ndarray) -> WalkRealization:
    """Write the realization of ``v`` with clocks ``xi`` (vertex order) into r."""
    if xi.shape != v.weights.shape:
        raise ValueError("weights and clocks must be equal-length non-empty 1-d arrays")
    if not xi.min() > 0.0:
        raise ValueError("clocks must be strictly positive")
    keys, classes, prefix, scratch, _ = r._buffers
    _clock_order(xi, v.classes[1], r.atoms.size, (keys, classes))
    _mass_prefix(v.limbs, classes, v.n, (prefix, scratch[1].view(np.int64), scratch[2]))
    return r


@dataclass(frozen=True)
class ExcursionResult:
    """The excursion picked as the giant at one lambda.

    d - g is the scaled volume (the giant volume over n); ``total_volume``
    is the correctly rounded weight sum over the clock window and agrees
    with n * (d - g) up to accumulated rounding.
    """

    g: float
    d: float
    vertex_count: int
    total_volume: float


def sample_clocks(w: WeightVector, seed: int, out=None) -> WalkRealization:
    """Draw the exponential clocks xi_j ~ Exp(w_j) for a weight vector, into a
    new realization, or into and returning ``out`` when it is one of ``w``."""
    r = out if out is not None and out.limbs is w.limbs else _allocate(w)
    xi = np.random.default_rng(seed).standard_exponential(out=r._buffers[3][0])
    return _realize(r, w, np.divide(xi, w.weights, out=xi))


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
    excursions in time order, then the candidates below.  With t_k =
    xi_(k)/lam, the path just before jump k is B_k = S_{k-1} - t_k (S the
    jump-mass prefix); jump k opens an excursion when B_k <= min(B_1..B_{k-1})
    up to the near-tie tolerance, and the excursion ends where the slope -1
    descent from its last jump re-hits its base level, in closed form.

    ``positions`` (ascending clock positions from 0) limits the test to a
    superset of the openings, such as a smaller lambda's candidates: a
    position outside it does not open and never lowered the running minimum,
    so every result is bit for bit that of the full scan.  With
    ``candidates`` set, the last item holds the positions passing the looser
    ``_NEST_TOL`` test, a superset of the openings at every larger lambda;
    otherwise it is None.  The per-position values are r's scratch rows.
    """
    clocks, before = r.sorted_clocks, r.mass_before
    if positions is not None:
        clocks, before = clocks[positions], before[positions]
    *_, scratch, mask = r._buffers
    value_before, prev_min, bound = scratch[:, : clocks.size]
    opens = mask[: clocks.size]
    np.subtract(before, np.divide(clocks, lam, out=bound), out=value_before)
    np.minimum.accumulate(value_before, out=prev_min)
    # position 0 is always scanned, with value_before[0] = -t_0: prev_min <= 0,
    # so 1 - prev_min is the 1 + |prev_min| of the tolerance
    prev_min, bound = prev_min[:-1], bound[1:]
    opens[0] = True
    np.multiply(np.subtract(1.0, prev_min, out=bound), _LEVEL_TOL, out=bound)
    np.less_equal(value_before[1:], np.add(prev_min, bound, out=bound), out=opens[1:])
    local = opens.nonzero()[0]
    starts = local if positions is None else positions[local]
    near = None
    if candidates:
        np.add(np.divide(clocks[1:], lam, out=bound), 1.0, out=bound)
        np.multiply(bound, _NEST_TOL, out=bound)
        np.less_equal(value_before[1:], np.add(prev_min, bound, out=bound), out=opens[1:])
        near = opens.nonzero()[0] if positions is None else positions[opens]
    ends = np.concatenate((starts[1:] - 1, [r.n - 1]))
    g = clocks[local] / lam
    t_end = r.sorted_clocks[ends] / lam
    d = t_end + ((r.mass_prefix[ends] - t_end) - value_before[local])
    return g, d, starts, ends, near


def _window_volumes(r: WalkRealization, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Correctly rounded weight sum of each clock window [lo[i], hi[i]).

    Every window is cut at the sorted, distinct window bounds.  Per limb, the
    limb values of the clocks between two consecutive bounds are summed, and
    the segment sums' prefix C_l is exact in int64 (n < 2**32).  A window's
    exact sum is the Python int sum_l (C_l[hi] - C_l[lo]) << 31 l in units
    of 2**e0, and one correctly rounded int division makes it a float, bit
    for bit the ``fsum`` of the window's weights (``OverflowError`` past
    the float range, as ``fsum``).
    """
    e0, table = r.limbs
    first = int(lo.min())
    lo, hi = lo - first, hi - first
    cut = np.zeros(int(hi.max()) + 1, dtype=bool)
    cut[lo] = cut[hi] = True
    bounds = np.flatnonzero(cut)
    classes = r.sorted_class[first : first + bounds[-1]]
    prefix = np.zeros((table.shape[0], bounds.size), dtype=np.int64)
    for limb, values in zip(prefix, table):
        np.cumsum(np.add.reduceat(values[classes], bounds[:-1]), out=limb[1:])
    c_hi, c_lo = (prefix[:, np.searchsorted(bounds, ends)] for ends in (hi, lo))
    rows = (c_hi - c_lo).tolist()
    sums = rows.pop()
    for row in reversed(rows):
        sums = [(s << 31) + x for s, x in zip(sums, row)]
    unit = 1 << -e0
    return [s / unit for s in sums]


def _check_lambdas(r: WalkRealization, lambdas) -> np.ndarray:
    grid = np.asarray(lambdas, dtype=np.float64)
    bad = grid[~(np.isfinite(grid) & (grid > 0.0))]
    if bad.size:
        raise ValueError(f"lambda must be finite and > 0, got {bad[0]}")
    with np.errstate(over="ignore"):
        if grid.size and not np.isfinite(r.sorted_clocks[-1] / grid.min()):
            raise ValueError(f"lambda {grid.min()} too small: xi/lambda overflows")
    return grid


def all_excursions(r: WalkRealization, lam: float) -> list[ExcursionResult]:
    """Every excursion at intensity lam, in time order."""
    _check_lambdas(r, lam)
    g, d, starts, ends, _ = _scan(r, lam)
    volumes = _window_volumes(r, starts, ends + 1)
    counts = (ends - starts + 1).tolist()
    return [ExcursionResult(*row) for row in zip(g.tolist(), d.tolist(), counts, volumes)]


def giant_results(r: WalkRealization, lambdas) -> tuple[ExcursionResult, ...]:
    """The giant (first-longest excursion) at each lambda, from the one draw.

    Results are in the order of ``lambdas``, duplicates included.  The grid
    is scanned in ascending order: the smallest lambda over every clock, each
    later one over the candidates its predecessor left (see ``_scan``).  The
    volumes of all the giants' windows then come from one call.
    """
    grid = _check_lambdas(r, lambdas)
    order = np.argsort(grid, kind="stable").tolist()
    picks: list = [None] * len(order)
    positions = None
    for step, i in enumerate(order):
        g, d, starts, ends, positions = _scan(
            r, grid[i], positions, candidates=step < len(order) - 1
        )
        # the first excursion within the near-tie tolerance of the longest: noise cannot flip a tie
        lengths = d - g
        top = float(lengths.max())
        k = int((lengths >= top - _LEVEL_TOL * (1.0 + top)).argmax())
        picks[i] = (float(g[k]), float(d[k]), int(starts[k]), int(ends[k]))
    if not picks:
        return ()
    lo, hi = np.array([pick[2:] for pick in picks]).T
    volumes = _window_volumes(r, lo, hi + 1)
    return tuple(
        ExcursionResult(g, d, hi - lo + 1, v) for (g, d, lo, hi), v in zip(picks, volumes)
    )


def walk_value(r: WalkRealization, lam: float, t: float) -> float:
    """Exact step-function evaluation of H(t) at intensity lam."""
    _check_lambdas(r, lam)
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    pos = int(np.searchsorted(r.sorted_clocks, lam * t, side="right"))
    x1 = float(r.mass_prefix[pos - 1]) if pos > 0 else 0.0
    return x1 - t
