"""Fixtures for the EMOO tests: a tiny analytic two-objective problem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.population import Population


class SphereTradeoffProblem:
    """A simple bi-objective problem with a known Pareto front.

    Genomes are scalars ``x``, stacked as ``(P, 1)`` arrays; the objectives
    are ``f1(x) = x^2`` and ``f2(x) = (x - 1)^2``.  The Pareto front is the
    whole interval ``x in [0, 1]`` with ``sqrt(f1) + sqrt(f2) = 1``.  It
    defines the genome-stack hooks of
    :class:`repro.core.problem.RRMatrixProblem`.
    """

    def initial_population_soa(self, size, rng) -> Population:
        stack = rng.uniform(-0.5, 1.5, size=(size, 1))
        return self.evaluate_population(self.repair_stack(stack))

    def evaluate_population(self, stack) -> Population:
        x = np.asarray(stack, dtype=np.float64)[:, 0]
        return Population(
            genomes=np.asarray(stack, dtype=np.float64),
            objectives=np.stack([x**2, (x - 1.0) ** 2], axis=1),
            feasible=np.ones(x.size, dtype=bool),
            metadata={"x": x.copy()},
        )

    def crossover_stack(self, first, second, rng):
        alpha = rng.uniform(0.0, 1.0, size=(first.shape[0], 1))
        return alpha * first + (1 - alpha) * second, (1 - alpha) * first + alpha * second

    def mutate_stack(self, stack, rng):
        return stack + rng.normal(0.0, 0.1, size=stack.shape)

    def repair_stack(self, stack):
        return np.clip(stack, -2.0, 3.0)

    def fingerprint_document(self):
        return {"problem": type(self).__name__}


@pytest.fixture
def sphere_problem() -> SphereTradeoffProblem:
    return SphereTradeoffProblem()


@pytest.fixture
def square_objectives() -> np.ndarray:
    """Four points forming a square plus one dominated interior point."""
    return np.array(
        [
            [0.0, 1.0],
            [1.0, 0.0],
            [0.0, 0.0],  # dominates everything
            [1.0, 1.0],  # dominated by everything except itself
            [0.6, 0.6],  # dominated by (0, 0)
        ]
    )
