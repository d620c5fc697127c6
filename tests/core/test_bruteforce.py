"""Tests for the brute-force oracle (tests/oracles/bruteforce.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.search_space import rr_matrix_combinations
from repro.data.distribution import CategoricalDistribution
from repro.exceptions import OptimizationError
from tests.oracles.bruteforce import brute_force_front


@pytest.fixture
def binary_prior() -> CategoricalDistribution:
    return CategoricalDistribution(np.array([0.65, 0.35]))


class TestBruteForce:
    def test_enumerates_the_whole_grid(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=6)
        assert report.n_enumerated == rr_matrix_combinations(2, 6)
        assert report.n_feasible <= report.n_enumerated
        assert len(report.result) > 0

    def test_front_is_mutually_nondominated(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=8)
        points = list(report.result)
        for a in points:
            for b in points:
                if a is b:
                    continue
                assert not (
                    a.privacy >= b.privacy
                    and a.utility <= b.utility
                    and (a.privacy > b.privacy or a.utility < b.utility)
                )

    def test_respects_delta_bound(self, binary_prior):
        report = brute_force_front(binary_prior, 1000, d=6, delta=0.8)
        for point in report.result:
            assert point.max_posterior <= 0.8 + 1e-9

    def test_budget_guard(self, binary_prior):
        with pytest.raises(OptimizationError, match="budget"):
            brute_force_front(binary_prior, 1000, d=200, budget=100)

    def test_optimizer_front_is_close_to_exhaustive_front(self, binary_prior):
        """Validation of the evolutionary search: on a tiny domain its front
        should come close to the exhaustive grid-search front."""
        n_records = 1000
        exhaustive = brute_force_front(binary_prior, n_records, d=10)
        config = OptRRConfig(
            population_size=20, archive_size=20, n_generations=60, seed=2
        )
        optimized = OptRROptimizer(binary_prior, n_records, config).run()
        # For a set of probe privacy levels, the optimizer's best utility
        # should be within a small factor of the exhaustive optimum.
        exhaustive_privacies = exhaustive.result.privacy_values()
        probes = np.linspace(exhaustive_privacies.min(), exhaustive_privacies.max() * 0.95, 5)
        for privacy in probes:
            best_exhaustive = min(
                point.utility for point in exhaustive.result if point.privacy >= privacy
            )
            candidates = [
                point.utility for point in optimized if point.privacy >= privacy
            ]
            assert candidates, f"optimizer found no matrix with privacy >= {privacy}"
            assert min(candidates) <= best_exhaustive * 1.5 + 1e-9
