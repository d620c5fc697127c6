"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.data.distribution import CategoricalDistribution
from repro.data.synthetic import gamma_distribution, normal_distribution, uniform_distribution
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_prior() -> CategoricalDistribution:
    """A skewed 4-category prior used by most metric tests."""
    return CategoricalDistribution(np.array([0.4, 0.3, 0.2, 0.1]))


@pytest.fixture
def normal_prior() -> CategoricalDistribution:
    """The paper's 10-category discretised normal prior."""
    return normal_distribution(10)


@pytest.fixture
def gamma_prior() -> CategoricalDistribution:
    """The paper's gamma(1.0, 2.0) prior."""
    return gamma_distribution(10, alpha=1.0, beta=2.0)


@pytest.fixture
def uniform_prior() -> CategoricalDistribution:
    """Discrete uniform prior over 10 categories."""
    return uniform_distribution(10)


@pytest.fixture
def warner_half() -> RRMatrix:
    """Warner matrix with p = 0.5 on a 4-category domain."""
    return warner_matrix(4, 0.5)


@pytest.fixture
def evaluator(small_prior: CategoricalDistribution) -> MatrixEvaluator:
    """Evaluator over the small prior with 10 000 records, no bound."""
    return MatrixEvaluator(small_prior, 10_000, delta=None)


@pytest.fixture
def fast_config() -> OptRRConfig:
    """A small-but-meaningful optimizer configuration for tests."""
    return OptRRConfig(
        population_size=16,
        archive_size=16,
        optimal_set_size=200,
        n_generations=25,
        delta=0.8,
        seed=7,
    )
