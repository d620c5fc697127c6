"""Weighted-sum single-objective GA baseline.

Section V of the paper argues that collapsing privacy and utility into one
scalar fitness is problematic: a single weighting cannot produce a spread of
trade-offs, and weighted sums cannot reach concave regions of the Pareto
front.  This module implements that naive approach — a plain generational GA
optimising ``w * f1 + (1 - w) * f2`` for a sweep of weights — so the ablation
benchmark can show how much narrower its front is than OptRR's.

The GA runs on the same stack hooks as the other engines: each generation's
elite rows are carried over as they are, the children are bred one at a time
(tournaments, crossover and mutation as batches of one, so the RNG stream
follows the per-child order), and one ``repair_stack`` call repairs the
child rows together before the whole stack is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.emoo.dominance import non_dominated_indices
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_in_unit_interval, check_positive_int


@dataclass(frozen=True)
class WeightedSumSettings:
    """Hyper-parameters of the weighted-sum GA baseline."""

    population_size: int = 50
    n_generations: int = 50
    n_weights: int = 11
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    elite_fraction: float = 0.1

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.n_generations, "n_generations")
        check_positive_int(self.n_weights, "n_weights")
        check_in_unit_interval(self.crossover_rate, "crossover_rate")
        check_in_unit_interval(self.mutation_rate, "mutation_rate")
        check_in_unit_interval(self.elite_fraction, "elite_fraction")


@dataclass
class WeightedSumResult:
    """Outcome of the weighted-sum sweep: the best row found per weight (one
    row per weight, in sweep order), plus the non-dominated subset of those
    rows."""

    best_per_weight: Population
    front: Population
    n_evaluations: int


def _scalar_fitness(population: Population, weight: float, scales: np.ndarray) -> np.ndarray:
    """Weighted sum of normalised objectives per row (infeasible rows are
    pushed behind every feasible one)."""
    normalised = population.objectives / scales
    values = weight * normalised[:, 0] + (1.0 - weight) * normalised[:, 1]
    return np.where(population.feasible, values, values + 1e6)


@dataclass
class WeightedSumGA:
    """Single-objective GA run once per weight in a uniform weight sweep.

    ``problem`` supplies the genome-stack hooks
    :class:`~repro.core.problem.RRMatrixProblem` defines, with two
    objectives.
    """

    problem: Any
    settings: WeightedSumSettings = field(default_factory=WeightedSumSettings)
    seed: SeedLike = None

    def run(self) -> WeightedSumResult:
        """Run the weight sweep and return the per-weight winners."""
        problem = self.problem
        rng = as_rng(self.seed)
        settings = self.settings
        weights = np.linspace(0.0, 1.0, settings.n_weights)
        n_elite = max(1, int(settings.elite_fraction * settings.population_size))
        winners: list[Population] = []
        # A common objective scale, estimated from a random sample, keeps the
        # two objectives comparable inside the scalarisation.
        sample = problem.initial_population_soa(settings.population_size, rng)
        if sample.objectives.shape[1] != 2:
            raise OptimizationError("the weighted-sum baseline only supports two objectives")
        n_evaluations = sample.size
        scales = np.maximum(np.abs(sample.objectives).max(axis=0), 1e-12)
        for weight in weights:
            population = sample
            for _ in range(settings.n_generations):
                # A stable argsort keeps equal-fitness rows in their order.
                fitness = _scalar_fitness(population, weight, scales)
                order = np.argsort(fitness, kind="stable")
                population, fitness = population.take(order), fitness[order]
                children = np.empty(
                    (settings.population_size - n_elite, *population.genomes.shape[1:])
                )
                for index in range(children.shape[0]):
                    parent_a = self._tournament(population, fitness, rng)
                    parent_b = self._tournament(population, fitness, rng)
                    if rng.random() < settings.crossover_rate:
                        child, _ = problem.crossover_stack(parent_a, parent_b, rng)
                    else:
                        child = parent_a
                    if rng.random() < settings.mutation_rate:
                        child = problem.mutate_stack(child, rng)
                    children[index] = child[0]
                stack = np.concatenate(
                    [population.genomes[:n_elite], problem.repair_stack(children)]
                )
                population = problem.evaluate_population(stack)
                n_evaluations += population.size
            best = np.argsort(_scalar_fitness(population, weight, scales), kind="stable")[0]
            winners.append(population.take([best]))
        best_per_weight = Population.concat(*winners)
        front = best_per_weight.take(
            non_dominated_indices(best_per_weight.objectives, best_per_weight.feasible)
        )
        return WeightedSumResult(
            best_per_weight=best_per_weight, front=front, n_evaluations=n_evaluations
        )

    @staticmethod
    def _tournament(
        population: Population, fitness: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Binary tournament on the scalar fitness; the winner's genome as a
        batch of one (ties go to the first contestant)."""
        first, second = rng.integers(0, population.size, size=2)
        winner = first if fitness[first] <= fitness[second] else second
        return population.genomes[winner : winner + 1]
