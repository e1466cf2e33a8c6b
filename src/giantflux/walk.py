"""Simultaneous breadth-first walk encoding of the dynamic graph.

One draw of exponential clocks xi_j (rate w_j) encodes the giant component
for every edge intensity lambda at once: the path

    H(t) = (1/n) * sum_j w_j * 1[xi_j <= lambda t] - t

jumps by w_j/n at time xi_j/lambda and drifts down at slope -1 in between.
Its excursions above the running infimum correspond to connected components;
the longest excursion (first one on ties) is the giant.  The excursion
interval (g, d) gives the scaled volume d - g, and the vertices of the giant
are exactly the clocks landing in the closed window [lambda g, lambda d].
A grid's giants are one float64 array, a row (count, volume, g, d) each.

Rescaling time by 1/lambda keeps the clock order, so one sort of packed
integer keys (clock bits above weight class) serves every lambda; the scan
at a lambda is a handful of vectorized passes with all crossing times in
closed form (the slope is exactly -1): no time discretization anywhere.
A realization's n-length arrays are buffers of its own; a draw with ``out``
writes into them, so each harness worker reuses one set for every replicate.

The excursion openings nest in lambda: a clock that opens an excursion at
lambda' opens one at every lambda < lambda'.  So the smallest lambda of a
grid is scanned over all n clocks, and its candidates (its openings under a
looser test that covers rounding) hold the openings at every larger lambda.
Its giant is tracked through all larger lambdas at once, in one 2-D pass of
lambdas by candidates: the excursion holding the giant's first clock ends at
the first later candidate back at its base level.  Where that excursion
holds more than half the total jump mass, by a margin that covers rounding,
it is the giant.  The lambdas this half-mass certificate leaves open get a
full scan each.  The pass goes in blocks of lambdas that fit the
realization's own buffers, and every result is bit for bit that of a full
scan.

Every distinct weight is an exact integer multiple of one power of two
2**e0, held as 31-bit limbs.  A draw keeps their exact prefix sums in clock
order, one (L, n + 1) row per limb: int32 while n times the largest limb
value stays below 2**31, else int64 (``WeightVector.limbs``).  The sorted
classes keep the width of ``WeightVector.classes``, uint8 up to 256
distinct weights.  A realization holds the packed keys (which become the
sorted clocks), the sorted classes, the limb prefix, two float64 scratch
rows, one block of ``_GATHER`` floats and an n + 1 mask: for the half-half
law 30 bytes per vertex plus 128 KiB (``_buffer_bytes``).  The limb prefix
gives the jump-mass prefix, with one rounding per limb, computed where a
scan reads it, and each window's weight sum as two lookups per limb: an
exact int, rounded once as in the graph oracle (``weights._limb_floats``),
bit for bit the ``fsum`` of its weights for every finite positive weight
law, subnormals included, while that sum is representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .weights import WeightVector, _index_dtype, _limb_floats

__all__ = [
    "WalkRealization",
    "sample_clocks",
    "all_excursions",
    "giant_results",
    "walk_value",
]

# near-tie rule for "descent re-hits the running infimum"; exact ties have
# probability zero but floating point needs a deterministic decision
_LEVEL_TOL = 1e-12

# classes per block of _limb_prefix's gather, and floats per block of _scan's
# tolerance bounds: the intp index stays 128 KiB, and so does the float block
_GATHER = 1 << 14


@dataclass(frozen=True, eq=False)
class WalkRealization:
    """One draw of clocks plus everything precomputed for per-lambda scans.

    In clock order a vertex is kept only through its weight class:
    ``atoms[sorted_class[k]]`` is the weight of the k-th clock.  ``limbs``
    (``WeightVector.limbs``) holds the atoms as exact integer limbs, whose
    prefix sums in clock order the realization keeps: ``mass_prefix`` and
    each giant's volume are summed from them.

    ``sorted_clocks`` and ``sorted_class`` are read-only views of the
    realization's own buffers, which ``sample_clocks(w, seed, out=r)``
    overwrites with the next draw (a draw that raises leaves them
    undefined); ``mass_prefix`` and ``mass_before`` are computed from the
    limb prefix on each read.  Every scan overwrites r's scratch rows: scan
    r from one thread at a time.
    """

    atoms: np.ndarray         # distinct weights, ascending
    sorted_clocks: np.ndarray
    sorted_class: np.ndarray  # index into atoms of each vertex, clock order
    limbs: tuple[int, np.ndarray]  # (e0, L x K limb table) of the atoms
    # writable: packed keys (drawn into, sorted into the clocks), classes, (L, n + 1)
    # limb prefix, 2 float64 scratch rows, min(n, _GATHER) float block, n + 1 scan mask
    _buffers: tuple = field(repr=False)

    @property
    def n(self) -> int:
        return self.sorted_clocks.size

    def _mass(self, at, out=None, term=None) -> np.ndarray:
        """S at the prefix positions ``at`` (``_mass_prefix``)."""
        return _mass_prefix(self.limbs[0], self._buffers[2], at, out, term)

    @property
    def mass_prefix(self) -> np.ndarray:
        """S_1..S_n, read-only: S_k is the sum of w/n over the first k clocks."""
        return _read_only(self._mass(slice(1, None)))

    @property
    def mass_before(self) -> np.ndarray:
        """S_0..S_{n-1}, read-only, with S_0 = 0."""
        return _read_only(self._mass(slice(None, -1)))

    @property
    def total_mass(self) -> float:
        """(1/n) * sum_j w_j, the total jump mass of the walk."""
        return float(self._mass([self.n])[0])

    @classmethod
    def from_clocks(cls, weights, clocks) -> "WalkRealization":
        """Build from explicit clocks (used by tests to inject hand values)."""
        v = WeightVector(weights)
        return _realize(_allocate(v), v, np.array(clocks, dtype=np.float64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _allocate(v: WeightVector) -> WalkRealization:
    """A realization of ``v`` with fresh buffers, before any draw."""
    limbs = v.limbs  # first, so that a setup's temporaries never stack on the buffers
    atoms, index = v.classes
    keys, classes = np.empty(v.n, np.uint64), np.empty_like(index)
    clocks, sorted_class = _read_only(keys.view(np.float64)), _read_only(classes.view())
    counts = np.empty((limbs[1].shape[0], v.n + 1), limbs[1].dtype)
    buffers = (keys, classes, counts, np.empty((2, v.n)), np.empty(min(v.n, _GATHER)),
               np.empty(v.n + 1, bool))
    return WalkRealization(atoms, clocks, sorted_class, limbs, buffers)


def _buffer_bytes(n: int, k: int, limbs: int, limb_dtype) -> int:
    """The bytes of ``_allocate``'s buffers for n weights of k distinct
    values whose limb table has ``limbs`` rows of ``limb_dtype``: n keys,
    classes and 2 scratch rows; min(n, ``_GATHER``) block floats; n + 1
    limb sums and mask bytes."""
    per_vertex = 8 + _index_dtype(k).itemsize + 2 * 8
    per_sum = limbs * np.dtype(limb_dtype).itemsize + 1
    return n * per_vertex + 8 * min(n, _GATHER) + (n + 1) * per_sum


def _clock_order(xi, index, k: int, low, high, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The clocks ``xi`` sorted, and the class ``index`` of each, of k classes.

    ``low`` and ``high`` are min xi and max xi, positive float64 scalars.
    Positive doubles order like their bit patterns, so sorting the keys
    (bits(xi) - bits(low)) << b | index, b = (k - 1).bit_length(), sorts
    the clocks, equal clocks by class; both unpack bit for bit.  A clock
    span wider than 64 - b bits (many classes) takes an argsort for the
    classes and sorts the clocks themselves: equal clocks have equal bits.
    ``index`` may have any integer dtype, and is read in place, without a
    uint64 copy.  ``out`` is the (uint64 keys, classes of ``index``'s
    dtype) pair written, fresh by default; keys whose float64 view is
    ``xi`` itself are sorted in place.
    """
    key, sorted_class = out or (np.empty(xi.size, dtype=np.uint64), np.empty_like(index))
    low = np.float64(low).view(np.uint64)
    b = (k - 1).bit_length()
    if int(np.float64(high).view(np.uint64) - low) >> (64 - b):
        index.take(np.argsort(xi), out=sorted_class)
        clocks = key.view(np.float64)
        np.copyto(clocks, xi)  # nothing to copy when the keys hold xi
        clocks.sort()
        return clocks, sorted_class
    np.subtract(xi.view(np.uint64), low, out=key)
    key <<= np.uint64(b)
    np.bitwise_or(key, index, out=key, dtype=np.uint64, casting="unsafe")  # index >= 0
    key.sort()
    np.bitwise_and(key, np.uint64((1 << b) - 1), out=sorted_class, casting="unsafe")
    key >>= np.uint64(b)
    key += low
    return key.view(np.float64), sorted_class


def _limb_prefix(table: np.ndarray, sorted_class, out=None) -> np.ndarray:
    """The (L, n + 1) prefix sums C_l of the limb values of ``table`` (L x K)
    in the order of ``sorted_class``, with C_l[0] = 0.

    Exact in the table's dtype: ``WeightVector.limbs`` widens it where n of
    them could overflow.  The limb values are gathered in blocks of
    ``_GATHER`` classes, so a narrow ``sorted_class`` is never widened to an
    n-length intp index.  ``out`` is the array written, fresh by default.
    """
    n = sorted_class.size
    counts = np.empty((table.shape[0], n + 1), table.dtype) if out is None else out
    counts[:, 0] = 0
    for limb, part in zip(table, counts[:, 1:]):
        for lo in range(0, n, _GATHER):  # in range, so "clip" (as "raise" would buffer)
            limb.take(sorted_class[lo : lo + _GATHER], out=part[lo : lo + _GATHER], mode="clip")
        np.cumsum(part, out=part)
    return counts


def _mass_prefix(e0: int, counts: np.ndarray, at=slice(None), out=None, term=None) -> np.ndarray:
    """S_k at the prefix positions k of ``at``: the first k weights in clock
    order, summed, over n, from their (L, n + 1) limb prefix ``counts``
    (``_limb_prefix``) in units of 2**e0; S_0 = 0.

    Per limb l the term fl(fl(C_l[k]) / n) * 2**(e0 + 31 l) is added,
    lowest limb first.  Dividing before scaling keeps each term finite where
    S_k is.  S_k is within (L + 2) u S_k + L 2**-1074 of the exact sum (u =
    2**-53), and correctly rounded when L = 1, C_k < 2**53 and S_k is
    normal.  ``out`` receives S and ``term`` each higher limb's term,
    fresh by default; a slice ``at`` reads ``counts`` in place.
    """
    n = max(counts.shape[1] - 1, 1)  # S_0 = 0 also for n = 0
    # the lowest limb's term is the first partial sum: written, not added to zeros
    out = np.divide(counts[0][at], n, out=out)
    if e0:
        np.ldexp(out, e0, out=out)
    for l in range(1, counts.shape[0]):
        term = np.divide(counts[l][at], n, out=term)
        np.ldexp(term, e0 + 31 * l, out=term)
        out += term
    return out


def _realize(r: WalkRealization, v: WeightVector, xi: np.ndarray) -> WalkRealization:
    """Write the realization of ``v`` with clocks ``xi`` (vertex order) into r."""
    if xi.shape != v.weights.shape:
        raise ValueError("weights and clocks must be equal-length non-empty 1-d arrays")
    low, high = xi.min(), xi.max()
    if not low > 0.0:
        raise ValueError("clocks must be strictly positive")
    if not high < np.inf:
        raise ValueError("clocks must be finite: xi/w overflows (a weight too small)")
    keys, classes, counts, *_ = r._buffers
    _clock_order(xi, v.classes[1], r.atoms.size, low, high, (keys, classes))
    _limb_prefix(v.limbs[1], classes, counts)
    return r


def sample_clocks(w: WeightVector, seed: int, out=None) -> WalkRealization:
    """Draw the exponential clocks xi_j ~ Exp(w_j) for a weight vector, into a
    new realization, or into and returning ``out`` when it is one of ``w``.
    The clocks are drawn into the keys they are sorted as."""
    r = out if out is not None and out.limbs is w.limbs else _allocate(w)
    xi = np.random.default_rng(seed).standard_exponential(out=r._buffers[0].view(np.float64))
    with np.errstate(over="ignore"):  # _realize names an overflowed clock
        np.divide(xi, w.weights, out=xi)
    return _realize(r, w, xi)


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

# Margin of the half-mass certificate of giant_results.  Claim: with
# S = total_mass and T = fl(xi_(n-1)/lam) the last jump time, an excursion
# of _scan at lam (g and d bit for bit, as _track forms them) with
# fl(d - g) > 0.5 fl(S + fl(_HALF_MASS_TOL fl(fl(1 + S) + T))) is its
# first-longest pick.  Write u = 2**-53, tol = _LEVEL_TOL, Q = 1 + S + T.
# (1) An excursion from opening s to end e has d = t_e + ((S_e - t_e) - V_s)
#     with V_s = S_{s-1} - t_s and g = t_s, so in exact arithmetic on these
#     floats d - g = S_e - S_{s-1} =: l, the clock terms (and the rounding
#     of the divisions) cancelling.  The windows [s, e] partition the
#     clocks, so the l of all excursions are >= 0 and sum to S exactly.
# (2) The prefix is nondecreasing, so every S_k lies in [0, S], and every
#     t_k in [0, T]; each of the five roundings behind fl(d - g) acts on a
#     value below Q (1 + 4u), so fl(d - g) is within 5.01 u Q of l (sums
#     with a subnormal result are exact).
# (3) So a certified excursion, of exact length l*, has 2 l* - S >
#     2 tol Q (1 - 4u) - 10.02 u Q - u S > 1.99 tol Q.
# (4) Every other excursion has l <= S - l*, so its computed length is at
#     most S - l* + 5.01 u Q, below the certified one's l* - 5.01 u Q by
#     (3): the certified length is the top.  The pick's threshold
#     fl(top - fl(tol fl(1 + top))) is at least l* - 6.02 u Q - 1.01 tol Q,
#     above every other computed length by 2 l* - S - 11.03 u Q - 1.01 tol Q
#     > 0.97 tol Q by (3).
# So no other excursion comes within the tie tolerance of the certified one.
_HALF_MASS_TOL = 2 * _LEVEL_TOL


def _scan(r: WalkRealization, lam: float, candidates=False):
    """Decompose the walk at intensity lam into its excursions.

    Returns (g, d, start_idx, end_idx, candidates): four arrays over all
    excursions in time order, then the candidates below.  With t_k =
    xi_(k)/lam, the path just before jump k is B_k = S_{k-1} - t_k (S the
    jump-mass prefix); jump k opens an excursion when B_k <= min(B_1..B_{k-1})
    up to the near-tie tolerance, and the excursion ends where the slope -1
    descent from its last jump re-hits its base level, in closed form.

    With ``candidates`` set, the last item holds the clock positions passing
    the looser ``_NEST_TOL`` test, a superset of the openings at every larger
    lambda; otherwise it is None.  ``giant_results`` tracks its first giant
    over them (``_track``).  The per-position values are r's scratch rows,
    the value row written with S_0..S_{n-1} first; each test's margin is
    formed in r's block of ``_GATHER`` floats.
    """
    clocks, n = r.sorted_clocks, r.n
    *_, (value_before, prev_min), block, mask = r._buffers
    opens = mask[:n]
    r._mass(slice(0, n), out=value_before, term=prev_min)
    np.subtract(value_before, np.divide(clocks, lam, out=prev_min), out=value_before)
    np.minimum.accumulate(value_before, out=prev_min)
    opens[0] = True
    found = []  # position k >= 1 passes when value_before[k] <= prev_min[k - 1] + margin
    for nest in (False, True)[: 1 + candidates]:
        for lo in range(1, n, _GATHER):
            hi = min(lo + _GATHER, n)
            k, low, margin = slice(lo, hi), prev_min[lo - 1 : hi - 1], block[: hi - lo]
            if nest:  # (1 + t_k) _NEST_TOL
                np.add(np.divide(clocks[k], lam, out=margin), 1.0, out=margin)
                np.multiply(margin, _NEST_TOL, out=margin)
            else:  # value_before[0] = -t_0: low <= 0, so 1 - low is the 1 + |low| of the tol
                np.multiply(np.subtract(1.0, low, out=margin), _LEVEL_TOL, out=margin)
            np.less_equal(value_before[k], np.add(low, margin, out=margin), out=opens[k])
        found.append(opens.nonzero()[0])
    starts, near = found[0], found[1] if candidates else None
    ends = np.concatenate((starts[1:], [n]))
    d = r._mass(ends)  # S just after each excursion's last jump
    ends -= 1
    g = clocks[starts] / lam
    t_end = clocks[ends] / lam
    # d = t_end + ((S - t_end) - value_before), in place
    d -= t_end
    d -= value_before[starts]
    d += t_end
    return g, d, starts, ends, near


def _window_volumes(r: WalkRealization, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Correctly rounded weight sum of each clock window [lo[i], hi[i]).

    A window's exact sum is C_l[hi] - C_l[lo] per limb, from the draw's kept
    limb prefix (``_limb_prefix``), rounded once by ``_limb_floats``: bit
    for bit the ``fsum`` of the window's weights (``OverflowError`` past
    the float range, as ``fsum``).
    """
    counts = r._buffers[2]
    return _limb_floats(r.limbs[0], counts[:, hi] - counts[:, lo])


def _check_lambdas(r: WalkRealization, lambdas) -> np.ndarray:
    grid = np.asarray(lambdas, dtype=np.float64)
    bad = grid[~(np.isfinite(grid) & (grid > 0.0))]
    if bad.size:
        raise ValueError(f"lambda must be finite and > 0, got {bad[0]}")
    with np.errstate(over="ignore"):
        if grid.size and not np.isfinite(r.sorted_clocks[-1] / grid.min()):
            raise ValueError(f"lambda {grid.min()} too small: xi/lambda overflows")
    return grid


def all_excursions(r: WalkRealization, lam: float) -> np.ndarray:
    """Every excursion at intensity lam, in time order, as (E, 4) rows like ``giant_results``."""
    _check_lambdas(r, lam)
    g, d, starts, ends, _ = _scan(r, lam)
    return np.column_stack((ends - starts + 1, _window_volumes(r, starts, ends + 1), g, d))


def _pick(g, d, starts, ends) -> tuple[float, float, int, int]:
    """(g, d, start, end) of the first excursion within the near-tie
    tolerance of the longest: noise cannot flip a tie."""
    lengths = d - g
    top = float(lengths.max())
    k = int((lengths >= top - _LEVEL_TOL * (1.0 + top)).argmax())
    return float(g[k]), float(d[k]), int(starts[k]), int(ends[k])


def _track(r: WalkRealization, lams: np.ndarray, positions: np.ndarray, a: int) -> list:
    """The excursion holding clock position ``a`` at each of ``lams``, as
    (g, d, start, end) where the half-mass certificate makes it the giant,
    else None.

    ``positions`` (ascending, from 0, holding ``a``) must be a superset of
    the openings at every lambda in ``lams``.  Rows are the lambdas, columns
    the positions, with the values V of ``_scan``.  Inside an excursion the
    running minimum cannot move (a position that would lower it opens), so
    with M the minimum of V up to ``a``, the excursion's opening is the last
    column up to ``a`` with V <= M + (1 - M) _LEVEL_TOL and its end is just
    before the first later one: one compare and two argmax per row, every
    value bit for bit that of ``_scan``.  A True sentinel column stands for
    "no later opening": the excursion then runs to the last clock.  Rows go
    in blocks of max(1, n // (|positions| + 1)), which fit r's first scratch
    row and its n + 1 mask.
    """
    bounds = np.append(positions, r.n)
    clocks, mass = r.sorted_clocks[positions], r._mass(bounds)  # S at each bound
    before = mass[:-1]
    k, head = positions.size, int(np.searchsorted(positions, a)) + 1
    *_, scratch, _, mask = r._buffers
    block = max(1, r.n // (k + 1))
    first, last = np.empty((2, lams.size), dtype=np.intp)
    for lo in range(0, lams.size, block):
        lam = lams[lo : lo + block, None]
        value = scratch[0, : lam.size * k].reshape(-1, k)
        hit = mask[: lam.size * (k + 1)].reshape(-1, k + 1)
        np.subtract(before, np.divide(clocks, lam, out=value), out=value)
        level = value[:, :head].min(axis=1, keepdims=True)
        np.less_equal(value, level + (1.0 - level) * _LEVEL_TOL, out=hit[:, :k])
        hit[:, k] = True
        hit[:, head - 1 :: -1].argmax(axis=1, out=first[lo : lo + block])
        hit[:, head:].argmax(axis=1, out=last[lo : lo + block])
    opening, closing = head - 1 - first, head + last  # indices into bounds
    starts, ends = positions[opening], bounds[closing] - 1
    # g and the opening's value are _scan's fl(xi/lam) and fl(S - fl(xi/lam))
    g = r.sorted_clocks[starts] / lams
    t_end = r.sorted_clocks[ends] / lams
    d = t_end + ((mass[closing] - t_end) - (mass[opening] - g))
    total = float(mass[-1])
    margin = _HALF_MASS_TOL * ((1.0 + total) + r.sorted_clocks[-1] / lams)
    sure = d - g > 0.5 * (total + margin)
    rows = zip(g.tolist(), d.tolist(), starts.tolist(), ends.tolist())
    return [row if ok else None for ok, row in zip(sure.tolist(), rows)]


def giant_results(r: WalkRealization, lambdas) -> np.ndarray:
    """The giant (first-longest excursion) at each lambda, from the one draw.

    Returns an (m, 4) float64 array, one row (count, volume, g, d) per lambda
    in the order of ``lambdas``, duplicates included; volume is the window's
    correctly rounded weight sum, n (d - g) up to rounding.  The
    smallest lambda is scanned over every clock (``_scan``); its giant, which
    starts at clock position a, is then tracked through every larger lambda
    at once over that scan's candidates (``_track``).  A tracked excursion
    longer than half the total mass, by the margin ``_HALF_MASS_TOL``, is
    that lambda's giant.  The rows this certificate leaves open get a full
    scan each.  The volumes of all the giants' windows then come from one
    call.  Every result is bit for bit that of a full scan at its lambda.
    """
    grid = _check_lambdas(r, lambdas)
    order = np.argsort(grid, kind="stable")
    if not order.size:
        return np.empty((0, 4))
    g, d, starts, ends, positions = _scan(r, grid[order[0]], candidates=order.size > 1)
    picks: list = [None] * order.size
    picks[order[0]] = _pick(g, d, starts, ends)
    later = order[1:].tolist()
    if later:
        for i, pick in zip(later, _track(r, grid[later], positions, picks[order[0]][2])):
            picks[i] = pick or _pick(*_scan(r, grid[i])[:4])
    g, d, lo, hi = zip(*picks)
    lo, hi = np.array(lo), np.array(hi)
    return np.column_stack((hi - lo + 1, _window_volumes(r, lo, hi + 1), g, d))


def walk_value(r: WalkRealization, lam: float, t: float) -> float:
    """Exact step-function evaluation of H(t) at intensity lam."""
    _check_lambdas(r, lam)
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    pos = int(np.searchsorted(r.sorted_clocks, lam * t, side="right"))
    return float(r._mass([pos])[0]) - t
