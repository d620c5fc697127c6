"""Tests for repro.data.adult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.adult import (
    adult_attribute_distribution,
    adult_attribute_names,
    load_adult_like,
)
from repro.exceptions import DataError


class TestMarginals:
    def test_attribute_names_present(self):
        names = adult_attribute_names()
        assert "age" in names
        assert "workclass" in names
        assert "income" in names

    def test_every_marginal_is_a_distribution(self):
        for name in adult_attribute_names():
            dist = adult_attribute_distribution(name)
            assert dist.probabilities.sum() == pytest.approx(1.0)
            assert dist.n_categories >= 2

    def test_age_attribute_is_skewed_like_census(self):
        age = adult_attribute_distribution("age")
        # The working-age bands dominate and the oldest band is rare.
        assert age.probabilities[1] > age.probabilities[-1]
        assert age.max_probability < 0.5

    def test_unknown_attribute_raises(self):
        with pytest.raises(DataError, match="unknown Adult attribute"):
            adult_attribute_distribution("shoe_size")

class TestLoadAdultLike:
    def test_default_shape(self):
        dataset = load_adult_like(500, seed=0)
        assert dataset.n_records == 500
        assert set(dataset.attribute_names) == set(adult_attribute_names())

    def test_subset_of_attributes(self):
        dataset = load_adult_like(200, attributes=("age", "sex"), seed=0)
        assert dataset.attribute_names == ("age", "sex")

    def test_reproducible_with_seed(self):
        first = load_adult_like(300, attributes=("age",), seed=11)
        second = load_adult_like(300, attributes=("age",), seed=11)
        np.testing.assert_array_equal(first.records, second.records)

    def test_empirical_marginal_matches_specification(self):
        dataset = load_adult_like(60_000, attributes=("workclass",), seed=2)
        empirical = dataset.distribution("workclass")
        specified = adult_attribute_distribution("workclass")
        assert specified.total_variation(empirical) < 0.02

    def test_rejects_empty_attribute_tuple(self):
        with pytest.raises(DataError):
            load_adult_like(10, attributes=())
