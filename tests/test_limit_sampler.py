"""Limit process samplers: kernel pair, fluctuation pair; the Brownian identity."""

import math

import numpy as np
import pytest

from giantflux import _numeric, limit_sampler
from giantflux.limit_sampler import sample_psi_pair, sample_x_path
from giantflux.theory import er_closed_forms, psi_cov_matrix, supercritical_curves, x_cov
from giantflux.weights import WeightModel

ER = WeightModel.constant(1.0)
HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])


def _cov_se(x, y):
    # plug-in standard error of an empirical covariance entry
    r = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    c = float(np.dot(dx, dy) / (r - 1))
    m22 = float(np.mean(dx * dx * dy * dy))
    return c, math.sqrt(max(m22 - c * c, 0.0) / r)


class TestPsiPair:
    def test_zero_time_degenerates(self):
        draws = sample_psi_pair(ER, [0.0], 50, seed=1)
        assert np.all(draws == 0.0)

    def test_constant_weight_coordinates_coincide(self):
        """For constant weight 1 both kernel coordinates share one law and
        one draw: correlation is exactly 1, not jitter-close."""
        draws = sample_psi_pair(ER, [0.7], 5000, seed=2)
        assert np.max(np.abs(draws[:, 0, 0] - draws[:, 1, 0])) <= 1e-8

    def test_empirical_covariance_matches_kernel(self):
        times = [0.5, 1.0]
        count = 10**5
        draws = sample_psi_pair(HALF_HALF, times, count, seed=3).reshape(count, 4)
        target = psi_cov_matrix(HALF_HALF, times)
        for a in range(4):
            for b in range(4):
                c, se = _cov_se(draws[:, a], draws[:, b])
                assert abs(c - target[a, b]) <= 3 * max(se, 1e-12)

    def test_mean_zero(self):
        count = 10**5
        draws = sample_psi_pair(HALF_HALF, [0.5, 1.0], count, seed=4)
        for col in draws.reshape(count, 4).T:
            assert abs(col.mean()) <= 3 * col.std(ddof=1) / math.sqrt(count)

    def test_reproducible(self):
        a = sample_psi_pair(HALF_HALF, [0.5, 1.0], 100, seed=5)
        b = sample_psi_pair(HALF_HALF, [0.5, 1.0], 100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            sample_psi_pair(HALF_HALF, [0.5, 0.5], 10, seed=6)

    @pytest.mark.parametrize("times", [[], [[0.5, 1.0]]])
    def test_rejects_empty_or_2d_times(self, times):
        with pytest.raises(ValueError, match="^times must be a non-empty 1-d sequence$"):
            psi_cov_matrix(HALF_HALF, times)

    @pytest.mark.parametrize(
        "sample",
        [lambda count: sample_psi_pair(HALF_HALF, [0.5, 1.0], count, seed=6),
         lambda count: sample_x_path(supercritical_curves(HALF_HALF, [1.0, 2.0]), count, seed=6)],
        ids=["psi_pair", "x_path"],
    )
    def test_rejects_no_draws(self, sample):
        with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
            sample(0)

    def test_repeated_time_shares_one_draw(self):
        """A repeated time gives bitwise-equal covariance rows, hence one shared
        factor row: the factor keeps the rank of the four distinct coordinates."""
        cov = psi_cov_matrix(HALF_HALF, [0.5, 1.0, 0.5])
        np.testing.assert_array_equal(cov[0], cov[2])
        np.testing.assert_array_equal(cov[3], cov[5])
        factor, jitter = _numeric._psd_factor(cov)
        np.testing.assert_array_equal(factor[0], factor[2])
        np.testing.assert_array_equal(factor[3], factor[5])
        assert factor.shape == (6, 4) and np.linalg.matrix_rank(factor) == 4
        assert jitter == 0.0

    def test_kernel_matrix_symmetric_psd(self):
        k = psi_cov_matrix(HALF_HALF, [0.3, 0.9, 2.0])
        np.testing.assert_allclose(k, k.T, atol=0)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() >= -1e-12


class TestXPath:
    def test_single_point_variance(self):
        curves = supercritical_curves(HALF_HALF, [1.5])
        cov = x_cov(curves)
        count = 10**5
        x0, x1 = sample_x_path(curves, count, seed=7)
        assert x0.shape == x1.shape == (count, 1)
        for series, target in ((x0[:, 0], cov.var_count[0]), (x1[:, 0], cov.var_volume[0])):
            v, se = _cov_se(series, series)
            assert abs(v - target) <= 3 * se

    def test_er_variance_matches_sigma_sq(self):
        for lam in (2.0, 5.0):
            curves = supercritical_curves(ER, [lam])
            count = 10**5
            x0, _ = sample_x_path(curves, count, seed=8)
            v, se = _cov_se(x0[:, 0], x0[:, 0])
            assert abs(v - er_closed_forms(lam).sigma_sq) <= 3 * se

    def test_one_factorization_through_x_cov(self, monkeypatch):
        """The draws go through x_cov's factor: one x_cov call, one Cholesky."""
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((limit_sampler, "x_cov"), (_numeric, "chol_with_jitter")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        sample_x_path(supercritical_curves(HALF_HALF, [1.0, 2.0, 3.0]), 5, seed=9)
        assert calls == ["x_cov", "chol_with_jitter"]

    def test_reproducible(self):
        curves = supercritical_curves(HALF_HALF, [1.0, 2.0])
        a = sample_x_path(curves, 50, seed=9)
        b = sample_x_path(curves, 50, seed=9)
        for xa, xb in zip(a, b):
            assert xa.shape == (50, 2)
            np.testing.assert_array_equal(xa, xb)


class TestBrownianRepresentation:
    """For constant weight 1 the count fluctuation is B(v(lambda)) / u(lambda).

    No sampler draws it; the closed forms (u, v) carry the identity.
    """

    def test_cross_representation_identity(self):
        """The Brownian two-point covariance equals the kernel-based
        cross-lambda covariance of the count coordinate, analytically."""
        f1, f2 = er_closed_forms(1.5), er_closed_forms(2.0)
        brownian = min(f1.v, f2.v) / (f1.u * f2.u)
        kernel = x_cov(supercritical_curves(ER, [1.5, 2.0])).matrix[0, 2]
        assert abs(brownian - kernel) <= 1e-10

    def test_rejects_lambda_at_or_below_one(self):
        """The time change (u, v) exists only in the supercritical regime."""
        for lam in (1.0, 0.5):
            with pytest.raises(ValueError, match="lambda > 1"):
                er_closed_forms(lam)
