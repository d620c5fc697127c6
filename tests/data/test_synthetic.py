"""Tests for repro.data.synthetic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import (
    DISTRIBUTION_FACTORIES,
    gamma_distribution,
    geometric_distribution,
    make_distribution,
    normal_distribution,
    sample_dataset,
    uniform_distribution,
    zipf_distribution,
)
from repro.exceptions import DataError


class TestNormalDistribution:
    def test_is_probability_vector(self):
        dist = normal_distribution(10)
        assert dist.n_categories == 10
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_is_symmetric_and_unimodal(self):
        probs = normal_distribution(10).probabilities
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)
        # Mass increases towards the centre.
        assert probs[4] > probs[1] > probs[0]

    def test_rejects_bad_std(self):
        with pytest.raises(DataError):
            normal_distribution(10, std=0.0)


class TestGammaDistribution:
    def test_is_probability_vector(self):
        dist = gamma_distribution(10, alpha=1.0, beta=2.0)
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_exponential_case_is_decreasing(self):
        # alpha = 1 is the exponential distribution: monotone decreasing bins.
        probs = gamma_distribution(10, alpha=1.0, beta=2.0).probabilities
        assert np.all(np.diff(probs) < 0)

    def test_shape_2_is_unimodal_with_interior_mode(self):
        probs = gamma_distribution(12, alpha=3.0, beta=1.0).probabilities
        mode = int(np.argmax(probs))
        assert 0 < mode < 11

    def test_rejects_bad_parameters(self):
        with pytest.raises(DataError):
            gamma_distribution(10, alpha=-1.0)
        with pytest.raises(DataError):
            gamma_distribution(10, beta=0.0)


class TestOtherDistributions:
    def test_uniform(self):
        np.testing.assert_allclose(uniform_distribution(5).probabilities, 0.2)

    def test_zipf_is_decreasing(self):
        probs = zipf_distribution(8, exponent=1.2).probabilities
        assert np.all(np.diff(probs) < 0)

    def test_geometric_is_decreasing(self):
        probs = geometric_distribution(8, success_probability=0.5).probabilities
        assert np.all(np.diff(probs) < 0)

    def test_registry_contains_paper_distributions(self):
        assert {"normal", "gamma", "uniform"} <= set(DISTRIBUTION_FACTORIES)

    def test_make_distribution_lookup(self):
        dist = make_distribution("zipf", 6)
        assert dist.n_categories == 6

    def test_make_distribution_unknown(self):
        with pytest.raises(DataError, match="unknown distribution"):
            make_distribution("cauchy", 6)


class TestSampleDataset:
    def test_shape_and_domain(self, rng):
        dist = normal_distribution(10)
        dataset = sample_dataset(dist, 1000, name="attr", seed=rng)
        assert dataset.n_records == 1000
        assert dataset.attribute("attr").n_categories == 10

    def test_empirical_distribution_close_to_prior(self):
        dist = gamma_distribution(10)
        dataset = sample_dataset(dist, 100_000, seed=1)
        empirical = dataset.distribution("attribute")
        assert dist.total_variation(empirical) < 0.01

    def test_rejects_non_positive_records(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            sample_dataset(uniform_distribution(3), 0)
