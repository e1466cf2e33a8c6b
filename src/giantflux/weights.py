"""Vertex-weight distributions and their moment functionals.

A weight model describes the law of a vertex weight W: constant, finite
discrete, or the empirical distribution of an explicit weight vector.  All
three are finitely supported, so every expectation used by the rest of the
package is an exact finite sum.  ``weight_vector`` is the one policy that
turns a law into the n weights the simulators use: the quantile vector of a
constant or discrete law, an empirical law's own vector at its length, and
n iid draws from that vector at any other n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Sequence

import numpy as np

__all__ = [
    "WeightModel",
    "WeightVector",
    "mixed_moment",
    "phi",
    "weight_vector",
]

_PROB_SUM_TOL = 1e-12


def _is_number(x) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _frozen(values: Sequence[float], name: str = "weights") -> np.ndarray:
    """A read-only float64 copy; an integer beyond the float range is not finite."""
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the float range") from None
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class WeightModel:
    """Distribution of a strictly positive, finite vertex weight W.

    ``kind`` is one of ``constant``, ``discrete``, ``empirical``.  Every kind
    is stored alike: ``values`` holds the K distinct atoms in ascending order
    and ``probs`` their probabilities.  An ``empirical`` model is the law of
    the ``WeightVector`` it keeps in ``vector``, for the config round trip and
    for ``weight_vector``.  Build instances through the classmethods; they
    validate probability normalization, and every construction checks that
    the atoms are > 0 and the largest one's square is a finite float (w_max
    below about 1.34e154), which keeps E[W^2], n w_max and w_max^2 finite.
    Nothing bounds the atoms below, but ``theory.lambda_crit`` refuses a law
    whose 1 / E[W^2] overflows (a constant weight below about 7.5e-155).
    """

    kind: str
    values: np.ndarray
    probs: np.ndarray
    vector: WeightVector | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        low, high = float(self.values[0]), float(self.values[-1])  # NaN sorts last
        if not (low > 0.0 and isfinite(high)):
            raise ValueError(f"weights must be finite and > 0, got {high if low > 0.0 else low}")
        if not isfinite(high * high):
            raise ValueError(f"weight {high!r} is too large: its square overflows a float")

    @classmethod
    def constant(cls, c: float) -> "WeightModel":
        c = float(_frozen(c, "constant weight"))
        return cls("constant", _frozen([c]), _frozen([1.0]))

    @classmethod
    def discrete(cls, atoms: Sequence[tuple[float, float]]) -> "WeightModel":
        """Finite discrete law from (weight, probability) pairs; equal weights merge."""
        if len(atoms) == 0:
            raise ValueError("discrete model needs at least one atom")
        w = _frozen([a[0] for a in atoms], "atom weights")
        p = _frozen([a[1] for a in atoms], "atom probabilities")
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ValueError(f"atom probabilities must lie in (0, 1], got {p.tolist()}")
        total = float(np.sum(p))
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1 within {_PROB_SUM_TOL}")
        support, index = np.unique(w, return_inverse=True)
        return cls("discrete", _frozen(support), _frozen(np.bincount(index, weights=p)))

    @classmethod
    def empirical(cls, weights: Sequence[float]) -> "WeightModel":
        """The law of the explicit weight vector, atom counts over n, keeping the vector."""
        return WeightVector(_frozen(weights, "empirical weights")).law

    @classmethod
    def from_config(cls, config: dict) -> "WeightModel":
        """Parse the JSON wire form of experiment configs; a bool or a string is no number."""
        if not isinstance(config, dict) or "type" not in config:
            raise ValueError("weight model config must be an object with a 'type' field")
        kind = config["type"]
        if kind == "constant":
            if "c" not in config:
                raise ValueError("constant weight model config needs field 'c'")
            if not _is_number(config["c"]):
                raise ValueError("constant weight 'c' must be a number")
            return cls.constant(config["c"])
        if kind == "discrete":
            if "atoms" not in config:
                raise ValueError("discrete weight model config needs field 'atoms'")
            atoms = config["atoms"]
            if not isinstance(atoms, list) or not all(
                isinstance(a, list) and len(a) == 2 and all(map(_is_number, a)) for a in atoms
            ):
                raise ValueError("discrete model 'atoms' must be a list of [w, p] number pairs")
            return cls.discrete(atoms)
        if kind == "empirical":
            if "weights" not in config:
                raise ValueError("empirical weight model config needs field 'weights'")
            weights = config["weights"]
            if not isinstance(weights, list) or not all(map(_is_number, weights)):
                raise ValueError("empirical model 'weights' must be a list of numbers")
            return cls.empirical(weights)
        raise ValueError(f"unknown weight model type {kind!r}")

    def to_config(self) -> dict:
        if self.kind == "constant":
            return {"type": "constant", "c": float(self.values[0])}
        if self.kind == "discrete":
            return {
                "type": "discrete",
                "atoms": [[float(w), float(p)] for w, p in zip(self.values, self.probs)],
            }
        return {"type": "empirical", "weights": self.vector.weights.tolist()}


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A concrete length-n weight vector.

    ``weights`` is always a read-only float64 array (a writable input is
    copied once), so everything derived from it, ``law`` too, can be cached.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype == np.float64 and not w.flags.writeable):
            w = _frozen(w)
            object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"weight vector must be non-empty and 1-d, got shape {w.shape}")
        ok = (w > 0.0) & np.isfinite(w)
        if not ok.all():
            raise ValueError(f"weight vector entries must all be finite and > 0, got {w[~ok][0]}")

    @property
    def n(self) -> int:
        return self.weights.size

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct weights (``atoms``, ascending) and each vertex's index into them.

        ``atoms[index]`` reproduces ``weights`` exactly.  ``index`` has the
        narrowest unsigned dtype that holds K - 1 (``_index_dtype``): uint8
        for up to 256 atoms.  Both are read-only and computed once per
        vector: every walk realization of the vector shares them.
        """
        atoms, index = np.unique(self.weights, return_inverse=True)
        index = index.astype(_index_dtype(atoms.size))
        atoms.setflags(write=False)
        index.setflags(write=False)
        return atoms, index

    @cached_property
    def law(self) -> WeightModel:
        """The vector's own empirical law, from ``classes``; its ``vector`` is this one."""
        atoms, index = self.classes
        return WeightModel("empirical", atoms, _frozen(np.bincount(index) / self.n), self)

    @cached_property
    def limbs(self) -> tuple[int, np.ndarray]:
        """Every atom as an exact integer in 31-bit limbs: ``(e0, table)``.

        ``atoms[k] == sum_l int(table[l, k]) << (31 * l)`` times ``2**e0``
        exactly, with ``e0 <= 0`` the smallest exponent of a lowest set bit
        among the atoms.  ``table`` is (L, K) with L = ceil(bits / 31) limbs
        for the atoms' bits in units of ``2**e0``, of ``_limb_dtype``: int32
        when the sum of n limb values fits in it, else int64, which holds
        the sum of up to 2**32 of them.  Computed once per vector.
        """
        atoms, _ = self.classes
        frac, exp = np.frexp(atoms)
        mant = (frac * 2.0**53).astype(np.uint64)  # 53-bit integers, exactly
        low = np.frexp((mant & (~mant + np.uint64(1))).astype(np.float64))[1] - 1
        mant >>= low.astype(np.uint64)
        exp = exp.astype(np.int64) - 53 + low
        e0 = min(int(exp.min()), 0)
        shift = exp - e0
        bits = int((shift + np.frexp(mant.astype(np.float64))[1]).max())
        # bit 0 of limb l is bit (31 l - shift) of the mantissa
        offset = 31 * np.arange(-(-bits // 31))[:, None] - shift
        right = np.clip(offset, 0, 63).astype(np.uint64)
        left = np.clip(-offset, 0, 63).astype(np.uint64)
        table = ((mant >> right) << left) & np.uint64(2**31 - 1)
        table = table.astype(_limb_dtype(self.n, int(table.max())))
        table.setflags(write=False)
        return e0, table


def _index_dtype(k: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes k classes: holds k - 1."""
    return np.min_scalar_type(k - 1)


def _limb_dtype(n: int, top: int) -> type:
    """int32 when n limb values of at most ``top`` sum below 2**31, else int64."""
    return np.int32 if n * top < 2**31 else np.int64


def _limb_floats(e0: int, sums: np.ndarray) -> list[float]:
    """Each column of the (L, m) ints ``sums``, the exact sum_l sums[l] << 31 l
    in units of 2**e0 (as ``WeightVector.limbs``), rounded once: bit for bit
    the ``math.fsum`` of the weights it sums, with ``OverflowError`` past the
    float range as ``fsum``."""
    *low, exact = sums.tolist()
    for row in reversed(low):
        exact = [(s << 31) + x for s, x in zip(exact, row)]
    unit = 1 << -e0
    return [s / unit for s in exact]


def mixed_moment(model: WeightModel, k: int, t):
    """E[W^k exp(-W t)], exact for the finitely supported models.

    ``t`` is a time or an array of times; the result has its shape.  Each
    entry sums its K terms p w^k exp(-w t) on its own, so it does not depend
    on the other times evaluated with it.  Only k in {0, 1, 2} is supported:
    nothing downstream needs higher moments, and refusing k > 2 keeps the
    moment assumptions honest.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"moment order k must be in {{0, 1, 2}}, got {k}")
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0.0):
        raise ValueError(f"t must be >= 0, got {ts[ts < 0.0].flat[0]}")
    w = model.values
    with np.errstate(over="ignore"):  # -t w overflows to -inf only where exp gives 0
        terms = np.multiply.outer(-ts, w)
    np.exp(terms, out=terms)
    terms *= model.probs * w**k
    out = np.add.reduce(terms, axis=-1)
    return float(out) if ts.ndim == 0 else out


def phi(model: WeightModel, p: int, t):
    """E[W^p (1 - exp(-W t))] for p in {0, 1}; ``t`` as in ``mixed_moment``.

    Non-decreasing in t, zero at t=0, bounded above by E[W^p].
    """
    if p not in (0, 1):
        raise ValueError(f"p must be 0 or 1, got {p}")
    return mixed_moment(model, p, 0.0) - mixed_moment(model, p, t)


def weight_vector(model: WeightModel, n: int, seed: int) -> WeightVector:
    """The length-n weight vector the simulators use for ``model``.

    A constant or discrete law gives its quantile vector w_j =
    F^{-1}((j - 1/2)/n), which reproduces the law's moments without sampling
    noise; midpoint levels avoid evaluating F^{-1} at 0 or 1.  An empirical
    law's own ``vector`` is returned itself when its length is n, and
    otherwise resampled by n iid draws from ``default_rng(seed)``.
    """
    if model.kind == "empirical":
        if n == model.vector.n:
            return model.vector
        rng = np.random.default_rng(seed)
        return WeightVector(model.vector.weights[rng.integers(0, model.vector.n, size=n)])
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0  # guard against the probability sum rounding below 1
    levels = (np.arange(1, n + 1) - 0.5) / n
    return WeightVector(model.values[np.searchsorted(cum, levels, side="left")])
