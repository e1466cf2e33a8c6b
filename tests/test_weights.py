"""Weight models: exact moments, validation, and the weight-vector policy."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giantflux.weights import (
    WeightModel,
    WeightVector,
    mixed_moment,
    phi,
    weight_vector,
)

HALF_HALF = WeightModel.discrete([(1.0, 0.5), (2.0, 0.5)])


def _random_models(rng, count):
    models = []
    for _ in range(count):
        pick = rng.integers(0, 3)
        if pick == 0:
            models.append(WeightModel.constant(rng.uniform(0.2, 4.0)))
        elif pick == 1:
            k = int(rng.integers(2, 5))
            w = np.sort(rng.uniform(0.2, 4.0, size=k))
            p = rng.dirichlet(np.ones(k))
            p = p / p.sum()
            models.append(WeightModel.discrete(list(zip(w.tolist(), p.tolist()))))
        else:
            models.append(WeightModel.empirical(rng.uniform(0.2, 4.0, size=int(rng.integers(1, 40)))))
    return models


class TestMixedMoment:
    def test_constant_second_moment_at_zero(self):
        assert mixed_moment(WeightModel.constant(1.0), 2, 0.0) == 1.0

    def test_discrete_second_moment_at_zero(self):
        assert mixed_moment(HALF_HALF, 2, 0.0) == pytest.approx(2.5, abs=0)

    def test_constant_exponential_decay(self):
        assert mixed_moment(WeightModel.constant(1.0), 0, math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            mixed_moment(HALF_HALF, 3, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            mixed_moment(HALF_HALF, 1, -0.1)

    def test_matches_direct_finite_sum(self):
        """Exact finite sums: compare against fsum over atoms."""
        rng = np.random.default_rng(1)
        for model in _random_models(rng, 20):
            t = float(rng.uniform(0.0, 3.0))
            for k in (0, 1, 2):
                if model.probs is None:
                    expected = math.fsum(
                        w**k * math.exp(-w * t) for w in model.values
                    ) / model.values.size
                else:
                    expected = math.fsum(
                        p * w**k * math.exp(-w * t)
                        for w, p in zip(model.values, model.probs)
                    )
                assert mixed_moment(model, k, t) == pytest.approx(expected, rel=1e-14)


    def test_array_of_times_has_its_shape(self):
        times = np.array([[0.0, 0.5], [1.0, 2.0], [3.0, 4.0]])
        out = mixed_moment(HALF_HALF, 1, times)
        assert out.shape == times.shape
        assert out[0, 0] == 1.5

    def test_overflowing_exponent_is_zero_without_warning(self):
        """-t w overflows to -inf for t w beyond the float range; exp gives the exact 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mixed_moment(WeightModel.empirical([1.34e154] * 3), 2, 1e160) == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        k_atoms=st.sampled_from([1, 2, 3, 9, 200]) | st.integers(1, 40),
        shape=st.sampled_from([(1,), (7,), (3, 5), (64,)]),
        k=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entry_does_not_depend_on_the_batch(self, k_atoms, shape, k, seed):
        """Each entry of an array evaluation equals the scalar call bit for bit."""
        rng = np.random.default_rng(seed)
        model = WeightModel.empirical(rng.uniform(0.1, 5.0, size=k_atoms)[rng.integers(0, k_atoms, 300)])
        times = rng.uniform(0.0, 6.0, size=shape)
        out = mixed_moment(model, k, times)
        for index in np.ndindex(shape):
            assert out[index] == mixed_moment(model, k, float(times[index]))


class TestPhi:
    def test_er_closed_form(self):
        for t in (0.0, 0.3, 1.0, 4.0):
            assert phi(WeightModel.constant(1.0), 1, t) == pytest.approx(1 - math.exp(-t), abs=1e-15)

    def test_zero_at_zero(self):
        rng = np.random.default_rng(2)
        for model in _random_models(rng, 10):
            assert phi(model, 0, 0.0) == 0.0
            assert phi(model, 1, 0.0) == 0.0

    def test_discrete_finite_sum_value(self):
        # 0.5*1*(1 - e^-1) + 0.5*2*(1 - e^-2), frozen via 40-digit arithmetic
        assert phi(HALF_HALF, 1, 1.0) == pytest.approx(1.1807249961776661, abs=1e-14)

    def test_monotone_bounded_on_grid(self):
        """phi is non-decreasing from 0 and bounded by the p-th moment."""
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 6.0, 100)
        for model in _random_models(rng, 8):
            for p in (0, 1):
                values = np.array([phi(model, p, t) for t in grid])
                cap = mixed_moment(model, p, 0.0)
                assert values[0] == 0.0
                assert np.all(np.diff(values) >= 0.0)
                assert np.all(values <= cap + 1e-14)

    def test_complement_identity(self):
        """phi + mixed_moment reconstructs the p-th moment exactly."""
        rng = np.random.default_rng(4)
        for model in _random_models(rng, 15):
            t = float(rng.uniform(0.0, 5.0))
            for p in (0, 1):
                total = phi(model, p, t) + mixed_moment(model, p, t)
                assert total == pytest.approx(mixed_moment(model, p, 0.0), abs=1e-14)


class TestPhiPrime:
    """The t-derivative of phi(model, p, t) is mixed_moment(model, p + 1, t)."""

    def test_constant_values(self):
        assert mixed_moment(WeightModel.constant(1.0), 1, 0.0) == 1.0
        assert mixed_moment(WeightModel.constant(1.0), 2, math.log(2)) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_central_difference(self):
        """mixed_moment(p + 1) agrees with a finite difference of phi(p) to 1e-6 relative."""
        rng = np.random.default_rng(5)
        h = 1e-5
        checked = 0
        while checked < 20:
            model = _random_models(rng, 1)[0]
            t = float(rng.uniform(h, 3.0))
            for p in (0, 1):
                numeric = (phi(model, p, t + h) - phi(model, p, t - h)) / (2 * h)
                exact = mixed_moment(model, p + 1, t)
                assert numeric == pytest.approx(exact, rel=1e-6)
            checked += 1


class TestSampleWeightVector:
    """``weight_vector``: the one policy that builds a simulator's weight vector."""

    def test_constant_quantile(self):
        v = weight_vector(WeightModel.constant(1.0), 5, 0)
        np.testing.assert_array_equal(v.weights, np.ones(5))

    def test_discrete_quantile_midpoints(self):
        """Levels (j - 1/2)/n: 1/8 and 3/8 fall on the first atom, 5/8 and 7/8 on the second."""
        np.testing.assert_array_equal(weight_vector(HALF_HALF, 4, 0).weights, [1.0, 1.0, 2.0, 2.0])

    def test_quantile_ignores_the_seed(self):
        for seed in (0, 1, 2**63):
            np.testing.assert_array_equal(weight_vector(HALF_HALF, 7, seed).weights,
                                          weight_vector(HALF_HALF, 7, 0).weights)

    def test_empirical_source_used_as_is_at_its_length(self):
        source = [3.0, 1.0, 1.0, 2.0]
        for seed in (0, 5):
            v = weight_vector(WeightModel.empirical(source), 4, seed)
            np.testing.assert_array_equal(v.weights, source)

    def test_iid_second_moment(self):
        """The second moment of a large iid resample of the source lands within 3 SE."""
        n = 10**6
        source = weight_vector(HALF_HALF, 1000, 0).weights
        v = weight_vector(WeightModel.empirical(source), n, 99)
        second = np.mean(v.weights**2)
        # Var(W^2) = E[W^4] - E[W^2]^2 = 8.5 - 6.25 under the source's half-half law
        se = math.sqrt((8.5 - 6.25) / n)
        assert abs(second - 2.5) <= 3 * se

    def test_iid_deterministic_per_seed(self):
        """A resample is a function of its seed, and draws only source values."""
        source = [3.0, 1.0, 1.5, 2.0, 1.0]
        model = WeightModel.empirical(source)
        a = weight_vector(model, 100, 7)
        np.testing.assert_array_equal(a.weights, weight_vector(model, 100, 7).weights)
        assert not np.array_equal(a.weights, weight_vector(model, 100, 8).weights)
        assert set(a.weights.tolist()) <= set(source)

    def test_quantile_matches_law_when_n_divides(self):
        """Quantile vectors reproduce phi exactly when n is a multiple of the
        probability denominators."""
        model = WeightModel.discrete([(0.5, 0.8), (3.0, 0.2)])
        v = weight_vector(model, 20, 0)
        emp = WeightModel.empirical(v.weights)
        for t in (0.0, 0.4, 1.3, 2.8):
            for p in (0, 1):
                assert phi(emp, p, t) == pytest.approx(phi(model, p, t), abs=1e-14)


class TestValidation:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightModel.constant(0.0)
        with pytest.raises(ValueError):
            WeightModel.empirical([1.0, -2.0])
        with pytest.raises(ValueError):
            WeightModel.discrete([(0.0, 1.0)])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            WeightModel.discrete([(1.0, 0.6), (2.0, 0.6)])
        with pytest.raises(ValueError):
            WeightModel.discrete([(1.0, 0.5), (2.0, 0.5 - 1e-9)])

    def test_rejects_empty_empirical(self):
        with pytest.raises(ValueError):
            WeightModel.empirical([])

    def test_rejects_non_finite_inputs(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                WeightModel.constant(bad)
            with pytest.raises(ValueError, match="finite"):
                WeightModel.discrete([(bad, 0.5), (2.0, 0.5)])
            with pytest.raises(ValueError, match="finite"):
                WeightModel.empirical([1.0, bad])
            with pytest.raises(ValueError, match="probabilities"):
                WeightModel.discrete([(1.0, bad), (2.0, 0.5)])

    def test_rejects_weight_whose_square_overflows(self):
        """The largest weight's square must be a finite float: the bound is
        checked once, for every kind, without a RuntimeWarning."""
        top = math.sqrt(np.finfo(np.float64).max)
        assert math.isfinite(float(WeightModel.constant(top).values[-1]) ** 2)
        for big in (math.nextafter(top, math.inf), 1e200, 1e308):
            for build in (
                lambda: WeightModel.constant(big),
                lambda: WeightModel.discrete([(1.0, 0.5), (big, 0.5)]),
                lambda: WeightModel.empirical([big, 1.0, big]),
            ):
                with pytest.raises(ValueError, match=re.escape(f"weight {big!r} is too large")):
                    build()

    def test_config_round_trip(self):
        for model in (WeightModel.constant(2.0), HALF_HALF, WeightModel.empirical([1.0, 3.0])):
            clone = WeightModel.from_config(model.to_config())
            assert clone.kind == model.kind
            np.testing.assert_array_equal(clone.values, model.values)

    def test_config_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            WeightModel.from_config({"type": "pareto", "alpha": 2.0})


class TestFiniteSupport:
    def test_empirical_is_stored_as_atom_frequencies(self):
        model = WeightModel.empirical([2.0, 1.0, 2.0, 2.0])
        np.testing.assert_array_equal(model.values, [1.0, 2.0])
        np.testing.assert_array_equal(model.probs, [0.25, 0.75])
        np.testing.assert_array_equal(model.source, [2.0, 1.0, 2.0, 2.0])
        assert model.to_config() == {"type": "empirical", "weights": [2.0, 1.0, 2.0, 2.0]}

    def test_discrete_atoms_sorted_and_merged(self):
        model = WeightModel.discrete([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        np.testing.assert_array_equal(model.values, [1.0, 2.0])
        np.testing.assert_array_equal(model.probs, [0.5, 0.5])
        assert model.source is None

    def test_iid_resamples_the_source_vector(self):
        source = np.array([3.0, 1.0, 1.0, 2.0, 1.0])
        v = weight_vector(WeightModel.empirical(source), 50, 11)
        expected = source[np.random.default_rng(11).integers(0, source.size, size=50)]
        np.testing.assert_array_equal(v.weights, expected)


class TestWeightVector:
    def test_rejects_non_finite_weights(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                WeightVector(np.array([1.0, bad]))

    def test_owns_a_read_only_copy(self):
        w = np.array([2.0, 1.0, 2.0])
        v = WeightVector(w)
        w[0] = 5.0
        assert not v.weights.flags.writeable
        np.testing.assert_array_equal(v.weights, [2.0, 1.0, 2.0])

    def test_classes_reproduce_weights(self):
        v = weight_vector(HALF_HALF, 101, 0)
        atoms, index = v.classes
        np.testing.assert_array_equal(atoms, [1.0, 2.0])
        np.testing.assert_array_equal(atoms[index], v.weights)
        assert v.classes is v.classes

    @pytest.mark.parametrize(
        "weights, e0, n_limbs",
        [
            ([1.0, 2.0, 1.0], 0, 1),
            ([0.5, 3.0, 1e-6, 1e6], -72, 3),
            ([5e-324, 1.0], -1074, 35),
            ([1e-300, 1e300, 3.7], -1049, 66),
            ([2.0**100, 3 * 2.0**101], 0, 4),
        ],
    )
    def test_limbs_reproduce_atoms_exactly(self, weights, e0, n_limbs):
        """Each atom is sum_l table[l, k] << 31 l in units of 2**e0, limbs below 2**31."""
        v = WeightVector(np.array(weights))
        got_e0, table = v.limbs
        assert (got_e0, table.shape[0]) == (e0, n_limbs)
        assert table.dtype == np.int64 and table.min() >= 0 and table.max() < 2**31
        for k, atom in enumerate(v.classes[0].tolist()):
            exact = sum(int(limb) << (31 * l) for l, limb in enumerate(table[:, k]))
            assert Fraction(exact) * Fraction(2) ** e0 == Fraction(atom)
        assert v.limbs is v.limbs
