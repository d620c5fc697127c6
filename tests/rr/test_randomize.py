"""Tests for repro.rr.randomize."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset
from repro.data.synthetic import sample_dataset, uniform_distribution
from repro.exceptions import DataError, RRMatrixError
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse
from repro.rr.schemes import warner_matrix
from tests.oracles.randomize import randomize_dataset


class TestRandomizeCodes:
    def test_identity_matrix_is_noop(self, rng):
        mechanism = RandomizedResponse(RRMatrix.identity(5))
        codes = rng.integers(0, 5, size=200)
        np.testing.assert_array_equal(mechanism.randomize_codes(codes, seed=rng), codes)

    def test_output_stays_in_domain(self, rng):
        mechanism = RandomizedResponse(warner_matrix(6, 0.4))
        codes = rng.integers(0, 6, size=1000)
        disguised = mechanism.randomize_codes(codes, seed=rng)
        assert disguised.min() >= 0 and disguised.max() < 6

    def test_reproducible_with_seed(self):
        mechanism = RandomizedResponse(warner_matrix(4, 0.5))
        codes = np.arange(4).repeat(25)
        first = mechanism.randomize_codes(codes, seed=9)
        second = mechanism.randomize_codes(codes, seed=9)
        np.testing.assert_array_equal(first, second)

    def test_empirical_retention_matches_p(self):
        p = 0.7
        mechanism = RandomizedResponse(warner_matrix(5, p))
        codes = np.zeros(100_000, dtype=np.int64)
        disguised = mechanism.randomize_codes(codes, seed=0)
        retention = np.mean(disguised == 0)
        assert retention == pytest.approx(p, abs=0.01)

    def test_disguised_distribution_matches_mp(self):
        prior = uniform_distribution(4)
        matrix = warner_matrix(4, 0.6)
        mechanism = RandomizedResponse(matrix)
        codes = prior.sample(200_000, seed=1)
        disguised = mechanism.randomize_codes(codes, seed=2)
        empirical = np.bincount(disguised, minlength=4) / disguised.size
        expected = mechanism.expected_disguised_distribution(prior.probabilities)
        np.testing.assert_allclose(empirical, expected, atol=0.01)

    def test_rejects_out_of_domain_codes(self):
        mechanism = RandomizedResponse(RRMatrix.identity(3))
        with pytest.raises(DataError):
            mechanism.randomize_codes(np.array([0, 5]))

    def test_rejects_empty_codes(self):
        mechanism = RandomizedResponse(RRMatrix.identity(3))
        with pytest.raises(DataError):
            mechanism.randomize_codes(np.array([], dtype=np.int64))

    def test_rejects_2d_codes(self):
        mechanism = RandomizedResponse(RRMatrix.identity(3))
        with pytest.raises(DataError):
            mechanism.randomize_codes(np.zeros((2, 2), dtype=np.int64))


class TestRandomizeAttribute:
    def test_returns_new_dataset(self):
        dataset = sample_dataset(uniform_distribution(5), 100, name="attr", seed=0)
        mechanism = RandomizedResponse(warner_matrix(5, 0.5))
        disguised = mechanism.randomize_attribute(dataset, "attr", seed=1)
        assert disguised is not dataset
        assert disguised.n_records == dataset.n_records

    def test_domain_mismatch_raises(self):
        dataset = sample_dataset(uniform_distribution(5), 50, name="attr", seed=0)
        mechanism = RandomizedResponse(warner_matrix(3, 0.5))
        with pytest.raises(RRMatrixError, match="categories"):
            mechanism.randomize_attribute(dataset, "attr")


class TestRandomizeDataset:
    def test_multiple_attributes(self):
        dataset = CategoricalDataset.from_columns(
            {"a": [0, 1, 2, 0, 1], "b": [1, 0, 1, 0, 1]},
            {"a": ("x", "y", "z"), "b": ("u", "v")},
        )
        matrices = {"a": warner_matrix(3, 0.6), "b": warner_matrix(2, 0.8)}
        disguised = randomize_dataset(dataset, matrices, seed=3)
        assert disguised.n_records == 5
        assert disguised.attribute_names == ("a", "b")

    def test_untouched_attributes_are_preserved(self):
        dataset = CategoricalDataset.from_columns(
            {"a": [0, 1, 2], "b": [1, 0, 1]},
            {"a": ("x", "y", "z"), "b": ("u", "v")},
        )
        disguised = randomize_dataset(dataset, {"a": warner_matrix(3, 0.5)}, seed=0)
        np.testing.assert_array_equal(disguised.column("b"), dataset.column("b"))
