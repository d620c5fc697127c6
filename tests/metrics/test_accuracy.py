"""Tests for the Bayes-estimation oracle (tests/oracles/accuracy.py,
Theorems 3 and 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataError, ValidationError
from repro.metrics.evaluation import evaluate_stack
from repro.rr.matrix import RRMatrix, random_rr_matrix, stack_matrices
from repro.rr.schemes import warner_matrix
from tests.oracles.accuracy import (
    OrdinalAccuracy,
    ZeroOneAccuracy,
    bayes_estimate,
    expected_accuracy,
)


class TestZeroOneAccuracy:
    def test_score_matrix_is_identity(self):
        np.testing.assert_allclose(ZeroOneAccuracy().score_matrix(4), np.eye(4))

    def test_score_pairs(self):
        accuracy = ZeroOneAccuracy()
        assert accuracy.score(2, 2, 4) == 1.0
        assert accuracy.score(2, 3, 4) == 0.0


class TestOrdinalAccuracy:
    def test_width_one_reduces_to_zero_one(self):
        np.testing.assert_allclose(
            OrdinalAccuracy(width=1.0).score_matrix(5), np.eye(5)
        )

    def test_partial_credit_decays_with_distance(self):
        scores = OrdinalAccuracy(width=3.0).score_matrix(5)
        assert scores[0, 0] == 1.0
        assert scores[0, 1] == pytest.approx(2.0 / 3.0)
        assert scores[0, 4] == 0.0

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValidationError):
            OrdinalAccuracy(width=0.0)


class TestBayesEstimate:
    def test_map_for_zero_one_accuracy(self):
        posterior = np.array([0.1, 0.6, 0.3])
        estimate, value = bayes_estimate(posterior)
        assert estimate == 1
        assert value == pytest.approx(0.6)

    def test_ordinal_accuracy_maximises_expected_score(self):
        posterior = np.array([0.15, 0.2, 0.05, 0.25, 0.35])
        accuracy = OrdinalAccuracy(width=3.0)
        choice, value = bayes_estimate(posterior, accuracy)
        expected = accuracy.score_matrix(5) @ posterior
        assert choice == int(np.argmax(expected))
        assert value == pytest.approx(expected.max())

    def test_ordinal_and_zero_one_can_disagree(self):
        # Mass concentrated around the middle but the single mode at an
        # extreme: partial credit pulls the Bayes estimate towards the centre.
        posterior = np.array([0.4, 0.0, 0.3, 0.3, 0.0])
        zero_one_choice, _ = bayes_estimate(posterior)
        ordinal_choice, _ = bayes_estimate(posterior, OrdinalAccuracy(width=2.0))
        assert zero_one_choice == 0
        assert ordinal_choice != zero_one_choice

    def test_rejects_invalid_posterior(self):
        with pytest.raises(DataError):
            bayes_estimate(np.array([0.7, 0.7]))


class TestExpectedAccuracy:
    def test_identity_matrix_gives_accuracy_one(self, small_prior):
        accuracy = expected_accuracy(small_prior.probabilities, np.eye(4))
        assert accuracy == pytest.approx(1.0)

    def test_uniform_matrix_gives_prior_mode(self, small_prior):
        matrix = np.full((4, 4), 0.25)
        accuracy = expected_accuracy(small_prior.probabilities, matrix)
        assert accuracy == pytest.approx(small_prior.max_probability)

    def test_matches_joint_max_formula(self, small_prior):
        matrix = warner_matrix(4, 0.6).probabilities
        accuracy = expected_accuracy(small_prior.probabilities, matrix)
        joint = matrix * small_prior.probabilities[None, :]
        assert accuracy == pytest.approx(joint.max(axis=1).sum())

    def test_shape_mismatch_raises(self, small_prior):
        with pytest.raises(ValidationError):
            expected_accuracy(small_prior.probabilities, np.eye(3))


PRIOR_FIXTURES = ["small_prior", "normal_prior", "gamma_prior", "uniform_prior"]


def _test_matrices(n_categories: int) -> list[RRMatrix]:
    """Identity, total randomization, a Warner matrix, random matrices, and
    one matrix that never reports category 0 (a zero-probability report)."""
    rng = np.random.default_rng(n_categories)
    never_zero = np.full((n_categories, n_categories), 1.0 / (n_categories - 1))
    never_zero[0] = 0.0
    return [
        RRMatrix.identity(n_categories),
        RRMatrix.uniform(n_categories),
        warner_matrix(n_categories, 0.6),
        random_rr_matrix(n_categories, rng),
        random_rr_matrix(n_categories, rng, diagonal_bias=2.0),
        RRMatrix(never_zero),
    ]


class TestProductionPrivacyKernel:
    """Report-by-report Bayes estimation as a second opinion on the
    joint-tensor reductions of the production kernel (Eq. 8, Eq. 9)."""

    @pytest.mark.parametrize("prior_fixture", PRIOR_FIXTURES)
    def test_privacy_is_one_minus_expected_accuracy(self, request, prior_fixture):
        prior = request.getfixturevalue(prior_fixture).probabilities
        matrices = _test_matrices(prior.size)
        privacy, _, _, _ = evaluate_stack(stack_matrices(matrices), prior, 1000)
        expected = [1.0 - expected_accuracy(prior, m.probabilities) for m in matrices]
        np.testing.assert_allclose(privacy, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("prior_fixture", PRIOR_FIXTURES)
    def test_worst_posterior_is_best_bayes_score(self, request, prior_fixture):
        prior = request.getfixturevalue(prior_fixture).probabilities
        matrices = _test_matrices(prior.size)
        _, _, worst, _ = evaluate_stack(stack_matrices(matrices), prior, 1000)
        for matrix, kernel_worst in zip(matrices, worst):
            joint = matrix.probabilities * prior[None, :]
            scores = [
                bayes_estimate(row / row.sum())[1] for row in joint if row.sum() > 0
            ]
            assert kernel_worst == pytest.approx(max(scores), abs=1e-12)
