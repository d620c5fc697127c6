"""Tests for repro.metrics.utility (Theorem 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.rr.estimation import InversionEstimator
from repro.rr.matrix import RRMatrix
from repro.rr.randomize import RandomizedResponse
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import (
    empirical_mse,
    theoretical_mse,
    theoretical_mse_from_covariance,
    utility_report,
    utility_score,
    variance_covariance,
)


class TestVarianceCovariance:
    def test_diagonal_is_multinomial_variance(self):
        p_star = np.array([0.5, 0.3, 0.2])
        cov = variance_covariance(p_star, 100)
        np.testing.assert_allclose(np.diag(cov), p_star * (1 - p_star) / 100)

    def test_off_diagonal_is_negative_product(self):
        p_star = np.array([0.5, 0.3, 0.2])
        cov = variance_covariance(p_star, 100)
        assert cov[0, 1] == pytest.approx(-0.5 * 0.3 / 100)

    def test_rows_sum_to_zero(self):
        p_star = np.array([0.4, 0.4, 0.2])
        cov = variance_covariance(p_star, 50)
        np.testing.assert_allclose(cov.sum(axis=0), 0.0, atol=1e-15)


class TestTheoreticalMSE:
    def test_identity_matrix_gives_multinomial_variance(self, small_prior):
        mse = theoretical_mse(RRMatrix.identity(4), small_prior.probabilities, 1000)
        expected = small_prior.probabilities * (1 - small_prior.probabilities) / 1000
        np.testing.assert_allclose(mse, expected)

    def test_fast_form_matches_quadratic_form(self, small_prior):
        matrix = warner_matrix(4, 0.55)
        fast = theoretical_mse(matrix, small_prior.probabilities, 5000)
        slow = theoretical_mse_from_covariance(matrix, small_prior.probabilities, 5000)
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_mse_scales_inversely_with_n(self, small_prior):
        matrix = warner_matrix(4, 0.6)
        mse_small = utility_score(matrix, small_prior.probabilities, 1_000)
        mse_large = utility_score(matrix, small_prior.probabilities, 10_000)
        assert mse_small == pytest.approx(10 * mse_large)

    def test_more_randomization_means_higher_mse(self, small_prior):
        strong = utility_score(warner_matrix(4, 0.4), small_prior.probabilities, 1000)
        weak = utility_score(warner_matrix(4, 0.9), small_prior.probabilities, 1000)
        assert strong > weak

    def test_mse_is_nonnegative(self, small_prior, rng):
        from repro.rr.matrix import random_rr_matrix

        for _ in range(20):
            matrix = random_rr_matrix(4, seed=rng)
            if not matrix.is_invertible:
                continue
            mse = theoretical_mse(matrix, small_prior.probabilities, 500)
            assert np.all(mse >= -1e-12)

    def test_domain_mismatch_raises(self, small_prior):
        with pytest.raises(ValidationError):
            theoretical_mse(RRMatrix.identity(3), small_prior.probabilities, 100)


class TestTheoreticalMatchesSimulation:
    def test_monte_carlo_agreement(self, small_prior):
        """The closed-form MSE (Theorem 6) must match a Monte-Carlo estimate."""
        matrix = warner_matrix(4, 0.6)
        n_records = 2_000
        theoretical = theoretical_mse(matrix, small_prior.probabilities, n_records)
        estimator = InversionEstimator(clip_negative=False)
        mechanism = RandomizedResponse(matrix)
        rng = np.random.default_rng(0)
        squared_errors = np.zeros(4)
        n_trials = 400
        for _ in range(n_trials):
            original = small_prior.sample(n_records, seed=rng)
            disguised = mechanism.randomize_codes(original, seed=rng)
            estimate = estimator.estimate_from_codes(disguised, matrix)
            squared_errors += (estimate.raw_probabilities - small_prior.probabilities) ** 2
        empirical = squared_errors / n_trials
        # The Monte-Carlo estimate includes sampling noise of the original
        # data itself, which the closed form (conditional on the prior) does
        # not; agreement within ~25% per component is the expected regime.
        np.testing.assert_allclose(empirical, theoretical, rtol=0.35)


class TestEmpiricalMSE:
    def test_zero_for_exact_estimates(self, small_prior):
        assert empirical_mse([small_prior.probabilities], small_prior.probabilities) == 0.0

    def test_averages_over_estimates(self, small_prior):
        shifted = small_prior.probabilities.copy()
        shifted[0] -= 0.1
        shifted[1] += 0.1
        value = empirical_mse([small_prior.probabilities, shifted], small_prior.probabilities)
        assert value == pytest.approx(np.mean((shifted - small_prior.probabilities) ** 2) / 2)

    def test_requires_at_least_one_estimate(self, small_prior):
        with pytest.raises(ValidationError):
            empirical_mse([], small_prior.probabilities)

    def test_shape_mismatch_raises(self, small_prior):
        with pytest.raises(ValidationError):
            empirical_mse([np.array([0.5, 0.5])], small_prior.probabilities)


class TestUtilityReport:
    def test_report_consistency(self, small_prior):
        matrix = warner_matrix(4, 0.7)
        report = utility_report(matrix, small_prior.probabilities, 2000)
        assert report.utility == pytest.approx(np.mean(report.per_category_mse))
        assert report.n_records == 2000
