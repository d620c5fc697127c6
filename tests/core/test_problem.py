"""Tests for the RR-matrix EMOO problem (repro.core.problem)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import RRMatrixProblem
from repro.exceptions import ValidationError
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix
from tests.oracles.scalar import max_posterior


def evaluate(problem: RRMatrixProblem, matrix: RRMatrix):
    """One evaluated matrix as a one-row population."""
    return problem.evaluate_population(matrix.probabilities[None, :, :])


class TestEvaluation:
    def test_objectives_are_minimisation_form(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        row = evaluate(problem, warner_matrix(4, 0.6))
        assert row.objectives[0, 0] == pytest.approx(-row.metadata["privacy"][0])
        assert row.objectives[0, 1] == pytest.approx(row.metadata["utility"][0])
        assert row.feasible[0]

    def test_singular_matrix_gets_finite_penalty_objective(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        row = evaluate(problem, RRMatrix.uniform(4))
        assert np.isfinite(row.objectives).all()
        assert not row.feasible[0]
        assert row.metadata["utility"][0] == np.inf

    def test_bound_violations_marked_infeasible(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.6)
        row = evaluate(problem, RRMatrix.identity(4))
        assert not row.feasible[0]

    def test_evaluation_counter(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        stack = np.stack([warner_matrix(4, p).probabilities for p in (0.4, 0.6, 0.8)])
        problem.evaluate_population(stack)
        assert problem.n_evaluations == 3

    def test_accepts_raw_probability_vector(self):
        problem = RRMatrixProblem(np.array([0.5, 0.5]), n_records=100)
        assert problem.n_categories == 2


class TestGenomeGeneration:
    def test_random_genomes_are_valid_and_respect_bound(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.7)
        for genome in problem.initial_population_soa(10, rng).genomes:
            np.testing.assert_allclose(genome.sum(axis=0), 1.0, atol=1e-9)
            assert max_posterior(RRMatrix(genome), small_prior.probabilities) <= 0.7 + 1e-6

    def test_initial_population_spans_privacy(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        privacies = problem.initial_population_soa(30, rng).metadata["privacy"]
        assert privacies.max() - privacies.min() > 0.1


class TestVariation:
    def test_crossover_produces_valid_children(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        parents = problem.initial_population_soa(2, rng).genomes
        children = problem.crossover_stack(parents[:1], parents[1:], rng)
        for child in children:
            np.testing.assert_allclose(child.sum(axis=1), 1.0, atol=1e-9)

    def test_mutation_produces_valid_genome(self, small_prior, rng):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        mutated = problem.mutate_stack(problem.initial_population_soa(1, rng).genomes, rng)
        np.testing.assert_allclose(mutated.sum(axis=1), 1.0, atol=1e-9)

    def test_repair_without_delta_is_identity(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        stack = warner_matrix(4, 0.9).probabilities[None, :, :]
        assert problem.repair_stack(stack) is stack

    def test_repair_with_delta_enforces_bound(self, small_prior):
        problem = RRMatrixProblem(small_prior, n_records=1000, delta=0.65)
        repaired = problem.repair_stack(np.eye(4)[None, :, :])
        assert max_posterior(RRMatrix(repaired[0]), small_prior.probabilities) <= 0.65 + 1e-6


class TestCounters:
    @pytest.mark.parametrize(
        "counters",
        [
            {"n_evaluations": -500},
            {"counter": -3},
            {"n_evaluations": True},
            {"counter": 2.0},
            {"n_evaluations": "7"},
        ],
    )
    def test_tampered_counters_are_rejected_untouched(self, small_prior, counters):
        problem = RRMatrixProblem(small_prior, n_records=1000)
        document = {"n_evaluations": 10, "counter": 3}
        problem.restore_counters(document)
        with pytest.raises(ValidationError, match="checkpointed"):
            problem.restore_counters({**document, **counters})
        assert problem.counters_document() == document
