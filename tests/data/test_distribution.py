"""Tests for repro.data.distribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distribution import CategoricalDistribution
from repro.exceptions import DataError


def empirical_distribution(samples, n_categories: int) -> CategoricalDistribution:
    """Convenience alias for :meth:`CategoricalDistribution.from_samples`."""
    return CategoricalDistribution.from_samples(np.asarray(list(samples)), n_categories)


class TestConstruction:
    def test_basic_construction(self):
        dist = CategoricalDistribution(np.array([0.2, 0.3, 0.5]))
        assert dist.n_categories == 3
        assert dist.categories == ("c1", "c2", "c3")

    def test_custom_categories(self):
        dist = CategoricalDistribution(np.array([0.5, 0.5]), ("yes", "no"))
        assert dist.categories == ("yes", "no")

    def test_rejects_wrong_label_count(self):
        with pytest.raises(DataError, match="labels"):
            CategoricalDistribution(np.array([0.5, 0.5]), ("only-one",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError, match="unique"):
            CategoricalDistribution(np.array([0.5, 0.5]), ("a", "a"))

    def test_rejects_unnormalised(self):
        with pytest.raises(DataError):
            CategoricalDistribution(np.array([0.5, 0.6]))

    def test_from_weights(self):
        dist = CategoricalDistribution.from_weights([2, 6, 2])
        np.testing.assert_allclose(dist.probabilities, [0.2, 0.6, 0.2])

    def test_from_counts_mapping(self):
        dist = CategoricalDistribution.from_counts({"a": 30, "b": 70})
        assert dist.as_dict() == {"a": pytest.approx(0.3), "b": pytest.approx(0.7)}

    def test_from_samples(self):
        dist = CategoricalDistribution.from_samples([0, 0, 1, 2], 3)
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.25, 0.25])

    def test_from_samples_rejects_out_of_range(self):
        with pytest.raises(DataError):
            CategoricalDistribution.from_samples([0, 5], 3)

    def test_uniform(self):
        dist = CategoricalDistribution.uniform(4)
        np.testing.assert_allclose(dist.probabilities, 0.25)

    def test_uniform_rejects_zero(self):
        with pytest.raises(DataError):
            CategoricalDistribution.uniform(0)


class TestProtocol:
    def test_len_iter_getitem(self, small_prior):
        assert len(small_prior) == 4
        assert list(small_prior) == pytest.approx([0.4, 0.3, 0.2, 0.1])
        assert small_prior[0] == pytest.approx(0.4)

    def test_as_array_returns_copy(self, small_prior):
        array = small_prior.as_array()
        array[0] = 99.0
        assert small_prior[0] == pytest.approx(0.4)


class TestStatistics:
    def test_max_probability_and_mode(self, small_prior):
        assert small_prior.max_probability == pytest.approx(0.4)
        assert small_prior.mode == 0

    def test_entropy_of_uniform_is_log_n(self):
        dist = CategoricalDistribution.uniform(8)
        assert dist.entropy() == pytest.approx(np.log(8))

    def test_entropy_of_point_mass_is_zero(self):
        dist = CategoricalDistribution(np.array([1.0, 0.0]))
        assert dist.entropy() == pytest.approx(0.0)

    def test_total_variation(self):
        a = CategoricalDistribution(np.array([1.0, 0.0]))
        b = CategoricalDistribution(np.array([0.0, 1.0]))
        assert a.total_variation(b) == pytest.approx(1.0)

    def test_total_variation_requires_same_domain(self, small_prior):
        other = CategoricalDistribution.uniform(3)
        with pytest.raises(DataError):
            small_prior.total_variation(other)

    def test_mse_zero_for_identical(self, small_prior):
        assert small_prior.mean_squared_error(small_prior) == pytest.approx(0.0)

    def test_kl_divergence_zero_for_identical(self, small_prior):
        assert small_prior.kl_divergence(small_prior) == pytest.approx(0.0)

    def test_kl_divergence_infinite_when_support_mismatch(self):
        a = CategoricalDistribution(np.array([0.5, 0.5]))
        b = CategoricalDistribution(np.array([1.0, 0.0]))
        assert a.kl_divergence(b) == np.inf


class TestSampling:
    def test_sample_shape_and_range(self, small_prior, rng):
        samples = small_prior.sample(500, seed=rng)
        assert samples.shape == (500,)
        assert samples.min() >= 0 and samples.max() < 4

    def test_sample_reproducible_with_seed(self, small_prior):
        first = small_prior.sample(100, seed=3)
        second = small_prior.sample(100, seed=3)
        np.testing.assert_array_equal(first, second)

    def test_sample_converges_to_prior(self, small_prior):
        samples = small_prior.sample(200_000, seed=0)
        empirical = empirical_distribution(samples, 4)
        assert small_prior.total_variation(empirical) < 0.01

    def test_sample_rejects_non_positive(self, small_prior):
        with pytest.raises(DataError):
            small_prior.sample(0)
