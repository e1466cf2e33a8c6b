"""Numerical primitives shared across modules."""

import math

import numpy as np
import pytest

from giantflux._numeric import chol_with_jitter
from giantflux.walk import _mass_prefix
from giantflux.weights import WeightVector


def _prefix(x):
    """S_1..S_n of ``x`` in its own order, through ``_mass_prefix``: exact
    int64 prefix sums of each limb, a negative x entering with negated limbs."""
    v = WeightVector(np.abs(x))
    atoms, index = v.classes
    e0, table = v.limbs
    sign = np.ones(atoms.size, dtype=np.int64)
    sign[index] = np.where(x < 0.0, -1, 1)
    return _mass_prefix((e0, table * sign), index, x.size)[1:]


class TestPairwiseCumsum:
    """Prefix sums over n of the walk's jump masses (``walk._mass_prefix``).

    The class keeps the name of the doubling cumsum these properties were
    first checked on, which the exact limb prefix replaced.
    """

    def test_matches_exact_prefix_sums(self):
        # positive inputs, the only case the walk uses
        rng = np.random.default_rng(40)
        for n in (1, 2, 3, 17, 1000):
            x = rng.uniform(0.1, 2.0, size=n)
            got = _prefix(x)
            exact = np.array([math.fsum(x[: k + 1]) / n for k in range(n)])
            np.testing.assert_allclose(got, exact, rtol=1e-14)

    def test_mixed_sign_error_scales_with_magnitude(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-1.0, 1.0, size=1000)
        got = _prefix(x)
        exact = np.array([math.fsum(x[: k + 1]) / 1000 for k in range(1000)])
        bound = np.sum(np.abs(x)) / 1000 * np.log2(1000) * np.finfo(np.float64).eps
        assert np.max(np.abs(got - exact)) <= bound

    def test_integer_values_exact(self):
        # the limb sums are the exact integers k, divided by n once
        got = _prefix(np.ones(1000))
        np.testing.assert_array_equal(got, np.arange(1, 1001, dtype=np.float64) / 1000)

    def test_empty(self):
        # no jumps: the prefix is S_0 = 0 alone
        empty = (0, np.zeros((1, 0), dtype=np.int64))
        assert _mass_prefix(empty, np.empty(0, dtype=np.intp), 0).tolist() == [0.0]


class TestCholWithJitter:
    def test_zero_matrix(self):
        lower, eps = chol_with_jitter(np.zeros((3, 3)))
        np.testing.assert_array_equal(lower, np.zeros((3, 3)))
        assert eps == 0.0

    def test_empty_matrix(self):
        lower, eps = chol_with_jitter(np.zeros((0, 0)))
        assert lower.shape == (0, 0) and eps == 0.0

    def test_positive_definite_first_try(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        lower, eps = chol_with_jitter(mat)
        assert eps == 0.0
        np.testing.assert_allclose(lower @ lower.T, mat, atol=1e-11)

    def test_singular_psd_needs_small_jitter(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        lower, eps = chol_with_jitter(mat)
        assert eps <= 1e-8
        np.testing.assert_allclose(lower @ lower.T, mat, atol=1e-7)

    def test_indefinite_rejected(self):
        mat = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            chol_with_jitter(mat)

    def test_zero_diag_nonzero_offdiag_rejected(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            chol_with_jitter(mat)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            chol_with_jitter(np.zeros((2, 3)))
