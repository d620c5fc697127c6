"""End-to-end integration tests across the library's subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CategoricalDistribution,
    InversionEstimator,
    MatrixEvaluator,
    OptRRConfig,
    OptRROptimizer,
    ParetoFront,
    RandomizedResponse,
    compare_fronts,
    gamma_distribution,
    normal_distribution,
    sample_dataset,
    warner_matrix,
)
from repro.rr.family import WarnerFamily


class TestPublicApiSurface:
    def test_top_level_exports_exist(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"missing top-level export {name}"

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestEndToEndDisguiseAndRecover:
    """The full RR workflow: optimize a matrix, disguise a dataset with it,
    recover the distribution, and verify privacy/utility guarantees."""

    def test_full_workflow(self):
        prior = gamma_distribution(8, alpha=1.0, beta=2.0)
        n_records = 20_000
        delta = 0.8

        # 1. Optimize RR matrices for this workload.
        config = OptRRConfig(
            population_size=24, archive_size=24, n_generations=60, delta=delta, seed=5
        )
        result = OptRROptimizer(prior, n_records, config).run()
        assert len(result) > 3

        # 2. Pick the most useful matrix achieving privacy >= 0.5.
        point = result.best_matrix_for_privacy(0.5)
        assert point.privacy >= 0.5
        assert point.max_posterior <= delta + 1e-6

        # 3. Disguise a sampled dataset with it.
        dataset = sample_dataset(prior, n_records, name="value", seed=1)
        mechanism = RandomizedResponse(point.matrix)
        disguised = mechanism.randomize_attribute(dataset, "value", seed=2)
        # The disguised column must differ substantially from the original.
        changed = np.mean(disguised.column("value") != dataset.column("value"))
        assert changed > 0.2

        # 4. Recover the original distribution from the disguised data.
        estimate = InversionEstimator().estimate_from_codes(
            disguised.column("value"), point.matrix
        )
        truth = dataset.distribution("value").probabilities
        observed_mse = float(np.mean((estimate.probabilities - truth) ** 2))
        # The observed error should be within an order of magnitude of the
        # closed-form prediction (Theorem 6) used as the utility objective.
        assert observed_mse < max(point.utility * 10, 1e-4)

    def test_optimized_matrix_beats_warner_at_same_privacy_level(self):
        prior = normal_distribution(10)
        n_records = 10_000
        delta = 0.75
        config = OptRRConfig(
            population_size=32, archive_size=32, n_generations=150, delta=delta, seed=11
        )
        result = OptRROptimizer(prior, n_records, config).run()
        warner = ParetoFront.from_family(WarnerFamily(10), prior, n_records, delta=delta)
        comparison = compare_fronts(result.front, warner)
        # OptRR must not be dominated: it wins or ties almost everywhere and
        # reaches at least as low a privacy value.
        probes = comparison.candidate_wins + comparison.baseline_wins + comparison.ties
        assert probes > 0
        assert comparison.candidate_wins + comparison.ties >= 0.7 * probes
        assert comparison.extra_privacy_range > -0.02


class TestEvaluatorConsistencyAcrossSubsystems:
    def test_front_point_metrics_match_fresh_evaluation(self, normal_prior):
        delta = 0.8
        config = OptRRConfig(
            population_size=16, archive_size=16, n_generations=30, delta=delta, seed=2
        )
        result = OptRROptimizer(normal_prior, 10_000, config).run()
        evaluator = MatrixEvaluator(normal_prior, 10_000, delta)
        for point in list(result)[::5]:
            evaluation = evaluator.evaluate(point.matrix)
            assert evaluation.privacy == pytest.approx(point.privacy, abs=1e-12)
            assert evaluation.utility == pytest.approx(point.utility, rel=1e-9)
            assert evaluation.feasible


class TestWarnerEndpointsSanity:
    def test_identity_and_uniform_are_the_extreme_points(self):
        """The paper's M1/M2 example: the identity matrix has zero privacy and
        the best possible utility, the uniform matrix has maximal privacy and
        the worst (undefined/infinite) utility."""
        prior = CategoricalDistribution(np.array([0.35, 0.3, 0.2, 0.15]))
        evaluator = MatrixEvaluator(prior, 1_000)
        identity = evaluator.evaluate(warner_matrix(4, 1.0))
        assert identity.privacy == pytest.approx(0.0)
        near_uniform = evaluator.evaluate(warner_matrix(4, 0.26))
        assert near_uniform.privacy > 0.6
        assert near_uniform.utility > identity.utility
