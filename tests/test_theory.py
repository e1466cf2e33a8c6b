"""Supercritical curves, the covariance kernel, and the analytic anchors.

Golden constants were frozen from 40-digit arithmetic (mpmath root finding
on the defining fixed-point equations).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giantflux import theory, weights
from giantflux.theory import (
    LimitCovariance,
    er_closed_forms,
    lambda_crit,
    psi_kernel,
    require_supercritical,
    supercritical_curves,
    theta,
    x_cov,
)
from giantflux.weights import WeightModel, mixed_moment, phi, weight_vector

ER = WeightModel.constant(1.0)
HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])
SKEWED = WeightModel.discrete([(0.5, 0.8), (3.0, 0.2)])

# frozen 40-digit goldens
RHO_ER_2 = 0.79681213002002005
SIGMA_SQ_2 = 0.45944172300703756
DISCRETE_THETA_1 = 1.2851963780417547
DISCRETE_RHO_1 = 0.82344912380433157


def _curves(model, lambdas, margin=theory.DEFAULT_MARGIN):
    return supercritical_curves(model, np.atleast_1d(lambdas), margin)


def _psi(model, p, q, s, t):
    """The kernel entry psi(p, q; s, t), off the diagonal of a 2 x 2 kernel."""
    return float(psi_kernel(model, p + q, [s, t])[0, 1])


class TestLambdaCrit:
    def test_er(self):
        assert lambda_crit(ER) == 1.0

    def test_discrete(self):
        assert lambda_crit(HALF_HALF) == pytest.approx(0.4, abs=1e-15)

    def test_constant_two(self):
        assert lambda_crit(WeightModel.constant(2.0)) == pytest.approx(0.25, abs=1e-15)


class TestTheta:
    def test_er_golden(self):
        assert theta(ER, 2.0) == pytest.approx(RHO_ER_2, abs=1e-10)

    def test_subcritical_zero(self):
        for model in (ER, HALF_HALF, SKEWED):
            assert theta(model, lambda_crit(model) / 2) == 0.0

    def test_critical_zero(self):
        assert theta(ER, 1.0) == 0.0

    def test_root_residual(self):
        """The returned root satisfies phi_1(lambda t) = t to 1e-10."""
        for model in (ER, HALF_HALF, SKEWED):
            crit = lambda_crit(model)
            for lam in np.linspace(crit * 1.001, 4.0, 50):
                t = theta(model, lam)
                assert abs(phi(model, 1, lam * t) - t) <= 1e-10

    def test_monotone_in_lambda(self):
        grid = np.linspace(0.5, 4.0, 40)
        for model in (ER, HALF_HALF, SKEWED):
            values = [theta(model, lam) for lam in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_below_mean_weight(self):
        for model in (ER, HALF_HALF, SKEWED):
            mean_w = mixed_moment(model, 1, 0.0)
            assert 0.0 < theta(model, 3.0) < mean_w

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            theta(ER, 0.0)


class TestRho:
    def test_er_equals_theta(self):
        """For constant weight 1 the fixed point makes rho coincide with theta."""
        curves = _curves(ER, [1.5, 2.0, 3.0])
        np.testing.assert_allclose(curves.rho, curves.theta, rtol=0, atol=1e-10)

    def test_subcritical_zero(self):
        """Below lambda_crit theta is 0, so is rho = phi_0(lambda theta), and
        the grid refuses the point."""
        assert phi(HALF_HALF, 0, 0.3 * theta(HALF_HALF, 0.3)) == 0.0
        with pytest.raises(ValueError, match="below the supercritical threshold"):
            _curves(HALF_HALF, 0.3)

    def test_discrete_golden(self):
        assert _curves(HALF_HALF, 1.0).rho[0] == pytest.approx(DISCRETE_RHO_1, abs=1e-10)
        assert theta(HALF_HALF, 1.0) == pytest.approx(DISCRETE_THETA_1, abs=1e-10)

    def test_in_unit_interval(self):
        rh = _curves(HALF_HALF, [0.5, 1.0, 2.0, 5.0]).rho
        assert np.all((0.0 < rh) & (rh < 1.0))


class TestBeta:
    def test_er_identity(self):
        """beta + lambda (1 - rho) = 1 for constant weight 1."""
        curves = _curves(ER, [1.5, 2.0, 3.0])
        identity = curves.beta + curves.lambdas * (1 - curves.rho) - 1.0
        assert np.all(np.abs(identity) <= 1e-12)

    def test_in_unit_interval(self):
        for model in (ER, HALF_HALF, SKEWED):
            be = _curves(model, np.linspace(lambda_crit(model) * 1.01, 5.0, 20)).beta
            assert np.all((0.0 < be) & (be < 1.0))

    def test_vanishes_toward_criticality(self):
        assert _curves(ER, 1.0 + 1e-4, margin=0.0).beta[0] < 1e-3

    def test_rejects_subcritical(self):
        with pytest.raises(ValueError):
            _curves(ER, 1.0)
        with pytest.raises(ValueError):
            _curves(HALF_HALF, 0.3)


class TestPsiCov:
    def test_zero_time(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = float(rng.uniform(0, 4))
            for p in (0, 1):
                for q in (0, 1):
                    assert _psi(HALF_HALF, p, q, 0.0, t) == 0.0
                    assert _psi(HALF_HALF, p, q, t, 0.0) == 0.0

    def test_er_diagonal_is_bernoulli_variance(self):
        for t in (0.3, 1.0, 2.5):
            expected = np.exp(-t) * (1 - np.exp(-t))
            assert _psi(ER, 0, 0, t, t) == pytest.approx(expected, abs=1e-15)

    def test_discrete_finite_sum_value(self):
        # 0.5*(e^-2 - e^-3) + 0.5*4*(e^-4 - e^-6), frozen via 40-digit arithmetic
        assert _psi(HALF_HALF, 1, 1, 1.0, 2.0) == pytest.approx(
            0.074447880858510018, abs=1e-15
        )

    def test_symmetry_and_nonnegative_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            s, t = rng.uniform(0, 4, size=2)
            p, q = rng.integers(0, 2, size=2)
            assert _psi(HALF_HALF, int(p), int(q), s, t) == _psi(
                HALF_HALF, int(q), int(p), t, s
            )
            assert _psi(HALF_HALF, int(p), int(p), t, t) >= 0.0


class TestSupercriticalCurves:
    def test_rejects_grid_below_margin(self):
        with pytest.raises(ValueError, match="lambda_crit"):
            supercritical_curves(ER, [1.0005, 2.0], margin=1e-3)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            supercritical_curves(ER, [2.0, 1.5])

    @pytest.mark.parametrize("grid", [[], [[1.5, 2.0]]])
    def test_rejects_empty_or_2d_grid(self, grid):
        with pytest.raises(ValueError, match="^lambda grid must be a non-empty 1-d sequence$"):
            supercritical_curves(ER, grid)

    def test_monotone_curves(self):
        curves = supercritical_curves(HALF_HALF, np.linspace(0.5, 3.0, 25))
        assert np.all(np.diff(curves.theta) >= 0)
        assert np.all(np.diff(curves.rho) >= 0)
        assert np.all(curves.beta > 0) and np.all(curves.beta < 1)
        assert np.all(curves.theta < mixed_moment(HALF_HALF, 1, 0.0))
        assert np.all(curves.rho < 1)

    def test_empirical_quantile_matches_discrete(self):
        """A quantile vector at n = 10^4 reproduces the model curves to 1e-6."""
        n = 10**4
        grid = np.linspace(0.6, 3.0, 7)
        v = weight_vector(HALF_HALF, n, 0)
        emp = supercritical_curves(WeightModel.empirical(v.weights), grid)
        ref = supercritical_curves(HALF_HALF, grid)
        np.testing.assert_allclose(emp.theta, ref.theta, atol=1e-6)
        np.testing.assert_allclose(emp.rho, ref.rho, atol=1e-6)
        np.testing.assert_allclose(emp.beta, ref.beta, atol=1e-6)


class TestScaleInvariance:
    """Weights times c and lambda times c**-2 leave the law's rank-one
    graph unchanged: theta scales by c, rho and beta do not."""

    @pytest.mark.parametrize("k", [-40, -7, 5, 33])
    def test_power_of_two_scaling_is_bit_for_bit(self, k):
        c = 2.0**k
        scaled = WeightModel.discrete([(c, 0.5), (2.0 * c, 0.5)])
        factors = np.array([1.025, 1.5, 3.0])
        base = supercritical_curves(HALF_HALF, lambda_crit(HALF_HALF) * factors)
        curves = supercritical_curves(scaled, lambda_crit(scaled) * factors)
        np.testing.assert_array_equal(curves.lambdas, base.lambdas / c**2)
        np.testing.assert_array_equal(curves.theta / c, base.theta)
        np.testing.assert_array_equal(curves.rho, base.rho)
        np.testing.assert_array_equal(curves.beta, base.beta)
        a, b = x_cov(base).matrix, x_cov(curves).matrix
        np.testing.assert_array_equal(b[0::2, 0::2], a[0::2, 0::2])
        np.testing.assert_array_equal(b[0::2, 1::2] / c, a[0::2, 1::2])
        np.testing.assert_array_equal(b[1::2, 1::2] / c**2, a[1::2, 1::2])

    @pytest.mark.parametrize("c", [1e-8, 1e4])
    def test_constant_weight_at_any_scale(self, c):
        base = supercritical_curves(ER, [1.5, 3.0])
        curves = supercritical_curves(WeightModel.constant(c), np.array([1.5, 3.0]) / c**2)
        np.testing.assert_allclose(curves.theta / c, base.theta, rtol=1e-14)
        np.testing.assert_allclose(curves.rho, base.rho, rtol=1e-14)
        np.testing.assert_allclose(x_cov(curves).var_count, x_cov(base).var_count, rtol=1e-14)

    def test_far_above_criticality(self):
        """c = 1e14 puts lambda = 1.5 at 1.5e28 lambda_crit, where the first
        bisection stage needs a point far below 1e-12 c."""
        curves = supercritical_curves(WeightModel.constant(1e14), [1.5, 3.0])
        np.testing.assert_array_equal(curves.rho, [1.0, 1.0])


class TestXCov:
    def test_er_variance_anchor(self):
        """Var of the count coordinate equals the closed-form variance."""
        for lam in (1.5, 2.0, 3.0):
            cov = x_cov(supercritical_curves(ER, [lam]))
            assert cov.var_count[0] == pytest.approx(er_closed_forms(lam).sigma_sq, abs=1e-10)

    def test_volume_variance_is_kernel_over_beta_sq(self):
        curves = supercritical_curves(HALF_HALF, [1.5])
        cov = x_cov(curves)
        time = 1.5 * curves.theta[0]
        expected = _psi(HALF_HALF, 1, 1, time, time) / curves.beta[0] ** 2
        assert cov.var_volume[0] == pytest.approx(expected, rel=1e-14)

    def test_cross_lambda_psd_small_jitter(self):
        cov = x_cov(supercritical_curves(ER, [1.5, 2.0]))
        assert isinstance(cov, LimitCovariance)
        assert cov.jitter <= 1e-10

    def test_multi_point_grids_factor_with_tiny_jitter(self):
        for model in (ER, HALF_HALF, SKEWED):
            crit = 1.0 if model is ER else None
            grid = np.linspace(
                (crit or (1.0 / mixed_moment(model, 2, 0.0))) * 1.01, 3.5, 6
            )
            cov = x_cov(supercritical_curves(model, grid))
            assert cov.jitter <= 1e-8

    def test_matrix_symmetric(self):
        cov = x_cov(supercritical_curves(HALF_HALF, [0.8, 1.2, 2.0]))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)


class TestErClosedForms:
    def test_golden_at_two(self):
        f = er_closed_forms(2.0)
        assert f.rho_er == pytest.approx(RHO_ER_2, abs=1e-10)
        assert f.sigma_sq == pytest.approx(SIGMA_SQ_2, abs=1e-10)

    def test_brownian_consistency_identity(self):
        """v / u^2 equals the closed-form variance."""
        for lam in (1.1, 1.5, 2.0, 3.0, 5.0):
            f = er_closed_forms(lam)
            assert abs(f.v / f.u**2 - f.sigma_sq) <= 1e-12

    def test_rejects_subcritical(self):
        with pytest.raises(ValueError):
            er_closed_forms(1.0)

    def test_dense_limit(self):
        assert er_closed_forms(50.0).rho_er > 0.999


class TestRequireSupercritical:
    def test_returns_lambda_crit(self):
        assert require_supercritical(HALF_HALF, [0.5, 1.0]) == lambda_crit(HALF_HALF)

    def test_names_first_offender_including_nan(self):
        with pytest.raises(ValueError, match="lambda = 0.29999999999999999 is below"):
            require_supercritical(HALF_HALF, [0.3, 0.35, 1.0])
        with pytest.raises(ValueError, match="lambda = nan is below"):
            require_supercritical(HALF_HALF, [1.0, np.nan])

    def test_rejects_negative_or_nan_margin(self):
        """A negative margin would let subcritical lambdas reach the bisection."""
        for margin in (-0.5, np.nan):
            with pytest.raises(ValueError, match="margin must be >= 0"):
                supercritical_curves(HALF_HALF, [0.3, 1.0], margin=margin)


class TestPsiKernel:
    def test_matches_direct_moments(self):
        times = np.array([0.0, 0.4, 1.3, 0.4])
        for k in (0, 1, 2):
            kernel = psi_kernel(SKEWED, k, times)
            for i, s in enumerate(times):
                for j, t in enumerate(times):
                    direct = mixed_moment(SKEWED, k, max(s, t)) - mixed_moment(SKEWED, k, s + t)
                    assert kernel[i, j] == direct
            assert np.all(kernel[0] == 0.0)

    def test_blocks_when_support_is_large(self, monkeypatch):
        """A K-atom model is evaluated in blocks of at most max(m, block / K) pairs."""
        monkeypatch.setattr(theory, "_KERNEL_BLOCK", 64)
        model = WeightModel.empirical(np.linspace(0.5, 3.0, 40))
        times = np.linspace(0.1, 2.0, 9)
        sizes = []
        original = theory.mixed_moment

        def counting(m, k, t):
            sizes.append(np.size(t))
            return original(m, k, t)

        monkeypatch.setattr(theory, "mixed_moment", counting)
        kernel = psi_kernel(model, 1, times)
        assert sizes[0] == 9 and max(sizes[1:]) == 9 and sum(sizes[1:]) == 9 * 10 // 2
        monkeypatch.undo()
        np.testing.assert_array_equal(kernel, psi_kernel(model, 1, times))


def _shuffled_vector(atoms, counts, rng):
    vector = np.repeat(atoms, counts)
    rng.shuffle(vector)
    return vector


@st.composite
def _laws(draw):
    """Atoms (distinct, positive), integer counts and a shuffle seed."""
    k = draw(st.integers(1, 6))
    atoms = draw(
        st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k, unique=True)
    )
    counts = draw(st.lists(st.integers(1, 30), min_size=k, max_size=k))
    return np.array(atoms), np.array(counts), draw(st.integers(0, 2**32 - 1))


@st.composite
def _grid_factors(draw, max_points=8):
    """Sorted distinct multiples of lambda_crit, all above the default margin."""
    factors = draw(
        st.lists(st.floats(1.01, 6.0), min_size=1, max_size=max_points, unique=True)
    )
    return np.array(sorted(factors))


def _assert_same_curves(a, b):
    for name in ("lambdas", "theta", "rho", "beta"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), strict=True)


class TestFiniteSupportProperties:
    """Curves and covariance depend only on the law, computed once per lambda."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(law=_laws(), factors=_grid_factors())
    def test_law_not_order_or_kind(self, law, factors):
        """Reordered empirical weights and the same law as a discrete model: same bits."""
        atoms, counts, seed = law
        rng = np.random.default_rng(seed)
        first = WeightModel.empirical(_shuffled_vector(atoms, counts, rng))
        second = WeightModel.empirical(_shuffled_vector(atoms, counts, rng))
        order = rng.permutation(atoms.size)
        probs = counts / counts.sum()
        discrete = WeightModel.discrete(list(zip(atoms[order], probs[order])))
        grid = lambda_crit(first) * factors
        reference = supercritical_curves(first, grid)
        for other in (second, discrete):
            curves = supercritical_curves(other, grid)
            _assert_same_curves(curves, reference)
            np.testing.assert_array_equal(x_cov(curves).matrix, x_cov(reference).matrix)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(law=_laws(), factors=_grid_factors(max_points=12))
    def test_grid_entry_equals_scalar(self, law, factors):
        """theta, rho, beta at a lambda do not depend on the grid around it:
        each entry is that of the one-point grid, and theta the scalar's."""
        atoms, counts, _ = law
        model = WeightModel.discrete(list(zip(atoms, counts / counts.sum())))
        curves = supercritical_curves(model, lambda_crit(model) * factors)
        for i, lam in enumerate(curves.lambdas):
            single = _curves(model, lam)
            assert theta(model, lam) == curves.theta[i] == single.theta[0]
            assert single.rho[0] == curves.rho[i]
            assert single.beta[0] == curves.beta[i]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(law=_laws(), factors=_grid_factors(max_points=6))
    def test_x_cov_is_bilinear_in_scalar_psi_cov(self, law, factors):
        atoms, counts, _ = law
        model = WeightModel.discrete(list(zip(atoms, counts / counts.sum())))
        curves = supercritical_curves(model, lambda_crit(model) * factors)
        cov = x_cov(curves)
        times = curves.lambdas * curves.theta
        c, b = theory._pair_coefficients(curves)
        for i in range(times.size):
            for j in range(i, times.size):
                k0, k1, k2 = (
                    _psi(model, p, q, times[i], times[j]) for p, q in ((0, 0), (0, 1), (1, 1))
                )
                expected = [
                    [k0 + (c[i] + c[j]) * k1 + c[i] * c[j] * k2, (k1 + c[i] * k2) * b[j]],
                    [(k1 + c[j] * k2) * b[i], k2 * b[i] * b[j]],
                ]
                block = cov.matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                np.testing.assert_array_equal(block, expected, strict=False)
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)


class TestWorkCount:
    def test_two_atom_vector_costs_two_atoms_and_one_bisection(self, monkeypatch):
        """Curves of a two-atom n = 1e5 vector sum 2 terms per moment and bisect each lambda once."""
        v = weight_vector(HALF_HALF, 10**5, 0)
        model = WeightModel.empirical(v.weights)
        grid = np.linspace(1.5, 3.0, 20)
        supports = []
        bisected = []
        moment, bisect = weights.mixed_moment, theory._theta_grid

        def counting_moment(m, k, t):
            supports.append(m.values.size)
            return moment(m, k, t)

        def counting_bisect(m, lams):
            bisected.append(lams.size)
            return bisect(m, lams)

        monkeypatch.setattr(weights, "mixed_moment", counting_moment)
        monkeypatch.setattr(theory, "mixed_moment", counting_moment)
        monkeypatch.setattr(theory, "_theta_grid", counting_bisect)
        curves = supercritical_curves(model, grid)
        assert set(supports) == {2}
        assert bisected == [grid.size]
        monkeypatch.undo()
        _assert_same_curves(curves, supercritical_curves(HALF_HALF, grid))
