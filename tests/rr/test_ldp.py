"""Tests for the LDP bridge oracle (tests/oracles/ldp.py)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InfeasibleBoundError, ValidationError
from repro.metrics.evaluation import evaluate_stack
from repro.metrics.privacy import check_bound_feasible
from repro.rr.matrix import RRMatrix, random_rr_matrix, stack_matrices
from repro.rr.schemes import warner_matrix
from tests.oracles.ldp import (
    epsilon_for_delta_bound,
    epsilon_of_k_rr,
    k_rr_matrix,
    ldp_epsilon,
    max_posterior_under_ldp,
    satisfies_ldp,
)
from tests.oracles.scalar import max_posterior


class TestLdpEpsilon:
    def test_uniform_matrix_has_zero_epsilon(self):
        assert ldp_epsilon(RRMatrix.uniform(5)) == pytest.approx(0.0)

    def test_identity_matrix_has_infinite_epsilon(self):
        assert ldp_epsilon(RRMatrix.identity(5)) == np.inf

    def test_warner_matrix_epsilon_formula(self):
        n, p = 6, 0.7
        matrix = warner_matrix(n, p)
        expected = math.log(p / ((1 - p) / (n - 1)))
        assert ldp_epsilon(matrix) == pytest.approx(expected)

    def test_satisfies_ldp(self):
        matrix = warner_matrix(4, 0.6)
        epsilon = ldp_epsilon(matrix)
        assert satisfies_ldp(matrix, epsilon + 0.01)
        assert not satisfies_ldp(matrix, epsilon - 0.01)

    def test_satisfies_ldp_rejects_negative_epsilon(self):
        with pytest.raises(ValidationError):
            satisfies_ldp(RRMatrix.uniform(3), -0.5)


class TestKRR:
    def test_k_rr_is_a_warner_matrix(self):
        n, epsilon = 5, 1.2
        matrix = k_rr_matrix(n, epsilon)
        retention = math.exp(epsilon) / (math.exp(epsilon) + n - 1)
        assert matrix.isclose(warner_matrix(n, retention))

    def test_k_rr_achieves_exactly_epsilon(self):
        matrix = k_rr_matrix(7, 0.8)
        assert ldp_epsilon(matrix) == pytest.approx(0.8)

    def test_epsilon_zero_is_total_randomization(self):
        assert k_rr_matrix(4, 0.0).isclose(RRMatrix.uniform(4))

    def test_epsilon_of_k_rr_round_trip(self):
        n, epsilon = 6, 1.5
        retention = math.exp(epsilon) / (math.exp(epsilon) + n - 1)
        assert epsilon_of_k_rr(n, retention) == pytest.approx(epsilon)

    def test_epsilon_of_identity_is_infinite(self):
        assert epsilon_of_k_rr(4, 1.0) == np.inf

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            k_rr_matrix(4, -1.0)
        with pytest.raises(ValidationError):
            k_rr_matrix(4, float("inf"))


class TestDeltaEpsilonTranslation:
    def test_posterior_bound_formula(self, small_prior):
        epsilon = 1.0
        bound = max_posterior_under_ldp(small_prior.probabilities, epsilon)
        p_max = small_prior.max_probability
        expected = math.exp(epsilon) * p_max / (math.exp(epsilon) * p_max + 1 - p_max)
        assert bound == pytest.approx(expected)

    def test_epsilon_zero_gives_prior_mode(self, small_prior):
        assert max_posterior_under_ldp(small_prior.probabilities, 0.0) == pytest.approx(
            small_prior.max_probability
        )

    def test_round_trip_delta_epsilon(self, small_prior):
        delta = 0.7
        epsilon = epsilon_for_delta_bound(small_prior.probabilities, delta)
        assert max_posterior_under_ldp(small_prior.probabilities, epsilon) == pytest.approx(delta)

    def test_k_rr_at_translated_epsilon_satisfies_delta(self, small_prior):
        """The epsilon/delta translation must be sound: the k-RR mechanism at
        the translated epsilon satisfies the paper's worst-case bound."""
        delta = 0.65
        epsilon = epsilon_for_delta_bound(small_prior.probabilities, delta)
        matrix = k_rr_matrix(small_prior.n_categories, epsilon)
        assert max_posterior(matrix, small_prior.probabilities) <= delta + 1e-9

    def test_infeasible_delta_rejected(self, small_prior):
        with pytest.raises(ValidationError, match="Theorem 5"):
            epsilon_for_delta_bound(small_prior.probabilities, 0.3)


class TestLdpEpsilonEdgeCases:
    def test_all_zero_report_row_is_ignored(self):
        # A report that no input can produce contributes no likelihood ratio:
        # the remaining rows determine epsilon.
        matrix = RRMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert ldp_epsilon(matrix) == pytest.approx(0.0)

    def test_partially_zero_row_is_unbounded(self):
        matrix = RRMatrix(np.array([[1.0, 0.5], [0.0, 0.5]]))
        assert ldp_epsilon(matrix) == np.inf

    def test_satisfies_ldp_honours_atol(self):
        matrix = warner_matrix(4, 0.6)
        epsilon = ldp_epsilon(matrix)
        assert satisfies_ldp(matrix, epsilon - 1e-12)
        assert not satisfies_ldp(matrix, epsilon - 1e-3, atol=1e-9)
        assert satisfies_ldp(matrix, epsilon - 1e-3, atol=1e-2)

    def test_identity_never_satisfies_finite_epsilon(self):
        assert not satisfies_ldp(RRMatrix.identity(3), 100.0)


class TestEpsilonOfKRRBranches:
    def test_anti_diagonal_retention_below_uniform(self):
        # retention below 1/n: the off-diagonal dominates, and epsilon
        # measures the inverse ratio.
        n, retention = 4, 0.1
        off_diagonal = (1.0 - retention) / (n - 1)
        expected = math.log(off_diagonal / retention)
        assert epsilon_of_k_rr(n, retention) == pytest.approx(expected)

    def test_uniform_retention_is_epsilon_zero(self):
        assert epsilon_of_k_rr(5, 1.0 / 5.0) == pytest.approx(0.0)

    def test_rejects_retention_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            epsilon_of_k_rr(4, 1.5)

    def test_k_rr_rejects_bad_domain_size(self):
        with pytest.raises(ValidationError):
            k_rr_matrix(0, 1.0)


class TestTranslationValidation:
    def test_max_posterior_rejects_negative_epsilon(self, small_prior):
        with pytest.raises(ValidationError):
            max_posterior_under_ldp(small_prior.probabilities, -0.1)

    def test_max_posterior_rejects_non_probability_prior(self):
        with pytest.raises(ValidationError):
            max_posterior_under_ldp(np.array([0.5, 0.9]), 1.0)

    def test_epsilon_for_delta_rejects_degenerate_delta(self, small_prior):
        for delta in (0.0, 1.0):
            with pytest.raises(ValidationError):
                epsilon_for_delta_bound(small_prior.probabilities, delta)

    def test_delta_at_prior_mode_needs_epsilon_zero(self, small_prior):
        """delta == max P(X) is exactly what epsilon = 0 (total
        randomization) guarantees — Theorem 5's boundary case."""
        epsilon = epsilon_for_delta_bound(
            small_prior.probabilities, small_prior.max_probability
        )
        assert epsilon == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_delta(self, small_prior):
        """A looser posterior bound affords a larger epsilon."""
        deltas = np.linspace(small_prior.max_probability + 0.01, 0.95, 8)
        epsilons = [
            epsilon_for_delta_bound(small_prior.probabilities, float(d)) for d in deltas
        ]
        assert all(b > a for a, b in zip(epsilons, epsilons[1:]))


PRIOR_FIXTURES = ["small_prior", "normal_prior", "gamma_prior", "uniform_prior"]


class TestProductionPrivacyKernel:
    """The LDP closed forms as a second opinion on the production kernels."""

    @pytest.mark.parametrize("prior_fixture", PRIOR_FIXTURES)
    def test_worst_posterior_within_ldp_bound(self, request, prior_fixture):
        prior = request.getfixturevalue(prior_fixture).probabilities
        rng = np.random.default_rng(prior.size)
        matrices = [
            random_rr_matrix(prior.size, rng, diagonal_bias=bias) for bias in (0.0, 0.5, 2.0, 8.0)
        ]
        _, _, worst, _ = evaluate_stack(stack_matrices(matrices), prior, 1000)
        bounds = np.array([max_posterior_under_ldp(prior, ldp_epsilon(m)) for m in matrices])
        assert np.all(worst <= bounds + 1e-12)

    @pytest.mark.parametrize("prior_fixture", PRIOR_FIXTURES)
    def test_k_rr_at_translated_epsilon_meets_delta(self, request, prior_fixture):
        prior = request.getfixturevalue(prior_fixture).probabilities
        p_max = float(prior.max())
        deltas = p_max + (1.0 - p_max) * np.array([0.1, 0.5, 0.9])
        stack = stack_matrices(
            [k_rr_matrix(prior.size, epsilon_for_delta_bound(prior, float(d))) for d in deltas]
        )
        _, _, worst, _ = evaluate_stack(stack, prior, 1000)
        assert np.all(worst <= deltas + 1e-9)

    def test_ldp_bound_is_tight_for_k_rr_on_a_uniform_prior(self, uniform_prior):
        prior = uniform_prior.probabilities
        epsilons = [0.0, 0.5, 1.0, 3.0]
        stack = stack_matrices([k_rr_matrix(prior.size, e) for e in epsilons])
        _, _, worst, _ = evaluate_stack(stack, prior, 1000)
        np.testing.assert_allclose(
            worst, [max_posterior_under_ldp(prior, e) for e in epsilons], rtol=1e-12
        )

    @pytest.mark.parametrize("prior_fixture", PRIOR_FIXTURES)
    def test_feasibility_agrees_with_theorem_5(self, request, prior_fixture):
        prior = request.getfixturevalue(prior_fixture).probabilities
        p_max = float(prior.max())
        for delta in (0.5 * p_max, p_max - 1e-6, p_max + 1e-6, 0.5 * (1.0 + p_max)):
            if delta < p_max:
                with pytest.raises(ValidationError):
                    epsilon_for_delta_bound(prior, delta)
                with pytest.raises(InfeasibleBoundError):
                    check_bound_feasible(prior, delta)
            else:
                assert epsilon_for_delta_bound(prior, delta) >= 0.0
                check_bound_feasible(prior, delta)
