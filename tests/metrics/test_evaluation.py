"""Tests for repro.metrics.evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distribution import CategoricalDistribution
from repro.exceptions import ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import evaluate_many, max_posterior, privacy_score, utility_score


class TestMatrixEvaluator:
    def test_consistent_with_individual_metrics(self, small_prior, evaluator):
        matrix = warner_matrix(4, 0.65)
        evaluation = evaluator.evaluate(matrix)
        assert evaluation.privacy == pytest.approx(
            privacy_score(matrix, small_prior.probabilities)
        )
        assert evaluation.utility == pytest.approx(
            utility_score(matrix, small_prior.probabilities, 10_000)
        )
        assert evaluation.max_posterior == pytest.approx(
            max_posterior(matrix, small_prior.probabilities)
        )
        assert evaluation.feasible and evaluation.invertible

    def test_accepts_raw_probability_vector_as_prior(self):
        evaluator = MatrixEvaluator(np.array([0.5, 0.5]), 100)
        evaluation = evaluator.evaluate(warner_matrix(2, 0.8))
        assert 0.0 <= evaluation.privacy <= 0.5

    def test_singular_matrix_is_infeasible_with_infinite_utility(self, evaluator):
        evaluation = evaluator.evaluate(RRMatrix.uniform(4))
        assert not evaluation.invertible
        assert not evaluation.feasible
        assert evaluation.utility == np.inf

    def test_bound_violation_is_infeasible(self, small_prior):
        evaluator = MatrixEvaluator(small_prior, 1000, delta=0.6)
        evaluation = evaluator.evaluate(RRMatrix.identity(4))
        assert not evaluation.feasible
        assert evaluation.invertible

    def test_bound_satisfied_is_feasible(self, small_prior):
        evaluator = MatrixEvaluator(small_prior, 1000, delta=0.6)
        evaluation = evaluator.evaluate(warner_matrix(4, 0.4))
        assert evaluation.feasible

    def test_infeasible_delta_rejected_at_construction(self, small_prior):
        # Theorem 5: delta below the largest prior probability is impossible.
        with pytest.raises(ValidationError, match="Theorem 5"):
            MatrixEvaluator(small_prior, 1000, delta=0.2)

    def test_domain_mismatch_raises(self, evaluator):
        with pytest.raises(ValidationError):
            evaluator.evaluate(warner_matrix(3, 0.5))

    def test_objectives_are_minimisation_form(self, evaluator):
        evaluation = evaluator.evaluate(warner_matrix(4, 0.7))
        objectives = evaluation.objectives
        assert objectives[0] == pytest.approx(-evaluation.privacy)
        assert objectives[1] == pytest.approx(evaluation.utility)

    def test_evaluate_many(self, evaluator):
        matrices = [warner_matrix(4, p) for p in (0.3, 0.5, 0.7)]
        evaluations = evaluate_many(evaluator, matrices)
        assert len(evaluations) == 3
        privacies = [evaluation.privacy for evaluation in evaluations]
        assert privacies == sorted(privacies, reverse=True)


class TestPrivacyUtilityTradeoff:
    def test_warner_sweep_shows_conflict(self):
        """Across the Warner family, higher privacy must come with higher MSE
        (the conflicting-objectives premise of the paper)."""
        prior = CategoricalDistribution(np.array([0.4, 0.3, 0.2, 0.1]))
        evaluator = MatrixEvaluator(prior, 5_000)
        ps = np.linspace(0.3, 0.95, 12)
        evaluations = [evaluator.evaluate(warner_matrix(4, float(p))) for p in ps]
        privacies = np.array([evaluation.privacy for evaluation in evaluations])
        utilities = np.array([evaluation.utility for evaluation in evaluations])
        # As p grows, privacy decreases and MSE decreases.
        assert np.all(np.diff(privacies) < 1e-12)
        assert np.all(np.diff(utilities) < 1e-12)
