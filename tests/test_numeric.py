"""Numerical primitives shared across modules."""

import math

import numpy as np
import pytest

from giantflux._numeric import chol_with_jitter, pairwise_cumsum


class TestPairwiseCumsum:
    def test_matches_exact_prefix_sums(self):
        # positive inputs, the only case the package uses: error stays within
        # a few ulps of the accumulated magnitude
        rng = np.random.default_rng(40)
        for n in (1, 2, 3, 17, 1000):
            x = rng.uniform(0.1, 2.0, size=n)
            got = pairwise_cumsum(x)
            exact = np.array([math.fsum(x[: k + 1]) for k in range(n)])
            np.testing.assert_allclose(got, exact, rtol=1e-14)

    def test_mixed_sign_error_scales_with_magnitude(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-1.0, 1.0, size=1000)
        got = pairwise_cumsum(x)
        exact = np.array([math.fsum(x[: k + 1]) for k in range(1000)])
        bound = np.sum(np.abs(x)) * np.log2(1000) * np.finfo(np.float64).eps
        assert np.max(np.abs(got - exact)) <= bound

    def test_integer_values_exact(self):
        got = pairwise_cumsum(np.ones(1000))
        np.testing.assert_array_equal(got, np.arange(1, 1001, dtype=np.float64))

    def test_empty(self):
        assert pairwise_cumsum(np.empty(0)).size == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
    def test_matches_in_place_doubling(self, n):
        """The two-buffer passes do the arithmetic of one doubling loop in place."""
        x = np.random.default_rng(n).uniform(-1.0, 3.0, size=n)
        ref = x.copy()
        shift = 1
        while shift < n:
            ref[shift:] = ref[shift:] + ref[:-shift]
            shift *= 2
        np.testing.assert_array_equal(pairwise_cumsum(x), ref)


class TestCholWithJitter:
    def test_zero_matrix(self):
        lower, eps = chol_with_jitter(np.zeros((3, 3)))
        np.testing.assert_array_equal(lower, np.zeros((3, 3)))
        assert eps == 0.0

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
