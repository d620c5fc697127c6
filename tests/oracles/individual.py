"""Frozen per-candidate ``Individual`` object (the pre-columnar reference).

``repro`` keeps every candidate as a row of a structure-of-arrays
:class:`~repro.emoo.population.Population` and every OptRR result as
columnar :class:`~repro.analysis.front.ParetoFront` rows.  The frozen
list-based references —
the OptRR loop in :mod:`tests.oracles.optrr_loop`, the ``Individual``-per-slot
Ω in :mod:`tests.oracles.omega` and the list wrappers in
:mod:`tests.oracles.scalar` — still run on one object per candidate; this
module holds the minimal object they use plus the row/result bridges they
need.  Nothing in ``src/`` imports it.

Do not "optimise" this module; its value is that it stays put.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.analysis.front import FrontRow, ParetoFront
from repro.core.result import OptimizationResult
from repro.emoo.dominance import dominance_matrix_from_arrays
from repro.emoo.population import Population
from repro.rr.matrix import RRMatrix


@dataclass
class Individual:
    """One candidate: an opaque genome, its objective vector (minimised), a
    feasibility flag, free-form metadata and the SPEA2 bookkeeping fields the
    list wrappers write."""

    genome: Any
    objectives: np.ndarray
    feasible: bool = True
    metadata: dict = field(default_factory=dict)
    fitness: float = field(default=float("nan"), compare=False)
    strength: int = field(default=0, compare=False)
    density: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        self.objectives = np.asarray(self.objectives, dtype=np.float64)

    def copy(self) -> "Individual":
        """Return a shallow copy with fresh bookkeeping fields."""
        return Individual(
            genome=self.genome,
            objectives=self.objectives.copy(),
            feasible=self.feasible,
            metadata=dict(self.metadata),
        )


def objectives_array(population: list[Individual]) -> np.ndarray:
    """Stack the objective vectors of ``population`` into a 2-D array."""
    if not population:
        return np.empty((0, 0))
    return np.vstack([individual.objectives for individual in population])


def non_dominated(population: list[Individual]) -> list[Individual]:
    """The non-dominated subset of ``population`` (constrained dominance)."""
    if not population:
        return []
    matrix = dominance_matrix_from_arrays(
        objectives_array(population),
        np.array([individual.feasible for individual in population], dtype=bool),
    )
    dominated = matrix.any(axis=0)
    return [individual for individual, flag in zip(population, dominated) if not flag]


def metadata_scalar(value: Any) -> Any:
    """A numpy scalar metadata entry as the plain Python value the list-based
    engine stored (floats stay floats, bools stay bools)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def row_individual(population: Population, index: int) -> Individual:
    """One row of an RR-matrix population as an ``Individual`` (stamped
    fitness included)."""
    individual = Individual(
        genome=RRMatrix.from_validated(population.genomes[index]),
        objectives=population.objectives[index].copy(),
        feasible=bool(population.feasible[index]),
        metadata={
            key: metadata_scalar(column[index]) for key, column in population.metadata.items()
        },
    )
    if not np.isnan(population.fitness[index]):
        individual.fitness = float(population.fitness[index])
    return individual


def row_individuals(population: Population) -> list[Individual]:
    """Every row of an RR-matrix population as an ``Individual``."""
    return [row_individual(population, index) for index in range(population.size)]


def result_from_members(
    front: Sequence[Individual],
    optimal_set: Sequence[Individual] = (),
    *,
    n_generations: int = 0,
    n_evaluations: int = 0,
) -> OptimizationResult:
    """An OptRR result built from the front's and Ω's member individuals."""

    def point(individual: Individual) -> FrontRow:
        metadata = individual.metadata
        return FrontRow(
            privacy=float(metadata["privacy"]),
            utility=float(metadata["utility"]),
            max_posterior=float(metadata.get("max_posterior", float("nan"))),
            matrix=individual.genome,
        )

    return result_from_rows(
        [point(individual) for individual in front],
        [point(individual) for individual in optimal_set],
        n_generations=n_generations,
        n_evaluations=n_evaluations,
    )


def front_from_rows(name: str, rows: Sequence[FrontRow]) -> ParetoFront:
    """A columnar front holding ``rows`` in the given order: a
    ``max_posterior`` column and a matrix stack when the rows carry them."""
    rows = list(rows)
    posteriors = [row.max_posterior for row in rows]
    matrices = [row.matrix.probabilities for row in rows if row.matrix is not None]
    return ParetoFront(
        name,
        np.array([row.privacy for row in rows], dtype=np.float64),
        np.array([row.utility for row in rows], dtype=np.float64),
        None if None in posteriors else np.array(posteriors, dtype=np.float64),
        stack=np.stack(matrices) if matrices else None,
    )


def result_from_rows(
    front: Sequence[FrontRow],
    spectrum: Sequence[FrontRow] = (),
    *,
    n_generations: int = 0,
    n_evaluations: int = 0,
) -> OptimizationResult:
    """An OptRR result whose front and spectrum hold these rows (each row
    carries a ``max_posterior`` and a matrix)."""
    return OptimizationResult(
        front=front_from_rows("optrr", front),
        spectrum=front_from_rows("optrr", spectrum),
        n_generations=n_generations,
        n_evaluations=n_evaluations,
    )
