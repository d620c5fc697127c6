"""Tests for repro.metrics.privacy (Eq. 8, Eq. 9, Theorem 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InfeasibleBoundError
from repro.metrics.privacy import check_bound_feasible
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import (
    adversary_accuracy,
    map_estimates,
    max_posterior,
    posterior_matrix,
    privacy_report,
    privacy_score,
    satisfies_bound,
)


class TestPosteriorMatrix:
    def test_rows_sum_to_one(self, small_prior, warner_half):
        posterior = posterior_matrix(warner_half, small_prior.probabilities)
        np.testing.assert_allclose(posterior.sum(axis=1), 1.0)

    def test_identity_matrix_posterior_is_identity(self, small_prior):
        posterior = posterior_matrix(RRMatrix.identity(4), small_prior.probabilities)
        np.testing.assert_allclose(posterior, np.eye(4))

    def test_uniform_matrix_posterior_equals_prior(self, small_prior):
        posterior = posterior_matrix(RRMatrix.uniform(4), small_prior.probabilities)
        for row in posterior:
            np.testing.assert_allclose(row, small_prior.probabilities)

    def test_impossible_reports_get_zero_rows(self):
        # Category 2 can never be reported: its row must be all zeros.
        matrix = RRMatrix(np.array([
            [0.5, 0.5, 0.5],
            [0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0],
        ]))
        prior = np.array([0.3, 0.3, 0.4])
        posterior = posterior_matrix(matrix, prior)
        np.testing.assert_allclose(posterior[2], 0.0)

    def test_hand_computed_example(self):
        matrix = warner_matrix(2, 0.8)
        prior = np.array([0.6, 0.4])
        posterior = posterior_matrix(matrix, prior)
        # P(X=0 | Y=0) = 0.8*0.6 / (0.8*0.6 + 0.2*0.4) = 0.48 / 0.56
        assert posterior[0, 0] == pytest.approx(0.48 / 0.56)
        assert posterior[1, 1] == pytest.approx(0.32 / 0.44)


class TestMapAndAccuracy:
    def test_map_estimates_for_identity(self, small_prior):
        estimates = map_estimates(RRMatrix.identity(4), small_prior.probabilities)
        np.testing.assert_array_equal(estimates, np.arange(4))

    def test_map_estimates_for_uniform_is_prior_mode(self, small_prior):
        estimates = map_estimates(RRMatrix.uniform(4), small_prior.probabilities)
        np.testing.assert_array_equal(estimates, np.zeros(4))

    def test_accuracy_of_identity_is_one(self, small_prior):
        assert adversary_accuracy(RRMatrix.identity(4), small_prior.probabilities) == pytest.approx(1.0)

    def test_accuracy_of_uniform_is_max_prior(self, small_prior):
        accuracy = adversary_accuracy(RRMatrix.uniform(4), small_prior.probabilities)
        assert accuracy == pytest.approx(small_prior.max_probability)


class TestPrivacyScore:
    def test_identity_has_zero_privacy(self, small_prior):
        assert privacy_score(RRMatrix.identity(4), small_prior.probabilities) == pytest.approx(0.0)

    def test_uniform_has_maximum_privacy(self, small_prior):
        privacy = privacy_score(RRMatrix.uniform(4), small_prior.probabilities)
        assert privacy == pytest.approx(1.0 - small_prior.max_probability)

    def test_privacy_decreases_with_retention(self, small_prior):
        low = privacy_score(warner_matrix(4, 0.9), small_prior.probabilities)
        high = privacy_score(warner_matrix(4, 0.4), small_prior.probabilities)
        assert high > low

    def test_privacy_bounded_by_one_minus_max_prior(self, small_prior, rng):
        from repro.rr.matrix import random_rr_matrix

        for _ in range(20):
            matrix = random_rr_matrix(4, seed=rng)
            privacy = privacy_score(matrix, small_prior.probabilities)
            assert 0.0 <= privacy <= 1.0 - small_prior.max_probability + 1e-12


class TestBound:
    def test_max_posterior_of_identity_is_one(self, small_prior):
        assert max_posterior(RRMatrix.identity(4), small_prior.probabilities) == pytest.approx(1.0)

    def test_satisfies_bound(self, small_prior):
        assert satisfies_bound(RRMatrix.uniform(4), small_prior.probabilities, 0.5)
        assert not satisfies_bound(RRMatrix.identity(4), small_prior.probabilities, 0.9)

    def test_theorem5_lower_bound(self, small_prior, rng):
        """Theorem 5: max posterior >= max prior for any RR matrix."""
        from repro.rr.matrix import random_rr_matrix

        for _ in range(30):
            matrix = random_rr_matrix(4, seed=rng)
            assert (
                max_posterior(matrix, small_prior.probabilities)
                >= small_prior.max_probability - 1e-9
            )

    def test_check_bound_feasible(self, small_prior):
        check_bound_feasible(small_prior.probabilities, 0.5)
        with pytest.raises(InfeasibleBoundError):
            check_bound_feasible(small_prior.probabilities, 0.3)


class TestPrivacyReport:
    def test_report_fields_consistent(self, small_prior, warner_half):
        report = privacy_report(warner_half, small_prior.probabilities)
        assert report.privacy == pytest.approx(
            privacy_score(warner_half, small_prior.probabilities)
        )
        assert report.adversary_accuracy == pytest.approx(1.0 - report.privacy)
        assert report.max_posterior == pytest.approx(
            max_posterior(warner_half, small_prior.probabilities)
        )
        assert report.posterior.shape == (4, 4)
        assert report.map_estimates.shape == (4,)

    def test_report_satisfies(self, small_prior, warner_half):
        report = privacy_report(warner_half, small_prior.probabilities)
        assert report.satisfies(report.max_posterior + 0.01)
        assert not report.satisfies(report.max_posterior - 0.01)
