"""Structure-of-arrays population state for the EMOO generation loop.

The generation loop of every algorithm in this package is dominated by
population-level math: dominance matrices, pairwise distances, fitness
reductions, index-based selection.  Shuttling per-candidate ``Individual``
objects through Python lists puts object construction and attribute access on
that hot path.  :class:`Population` removes it: one object holds the whole
population as parallel arrays — a stacked genome array, an ``(P, m)``
objective matrix, a feasibility mask, columnar metadata and a fitness
vector — and every algorithm step works on index arrays over those columns.

Genomes are stacked once, at the boundary where candidates enter the engine
(:meth:`repro.core.problem.RRMatrixProblem.evaluate_population` produces the
``(P, n, n)`` stack directly from the batch evaluator), and only sliced by
index thereafter; no per-generation re-packing, validation or unpacking
happens inside the loop.  ``Individual`` remains as a thin *view* for the
result boundary: :meth:`Population.individual` materialises one
per-candidate object only when a caller asks for it.

Fitness freshness is tracked with a generation stamp
(:attr:`Population.fitness_generation`): environmental selection stamps the
archive it returns, and mating selection asserts the stamp instead of
recomputing fitness — the redundant per-generation SPEA2 fitness
re-assignment the list-based loop performed cannot silently reappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.emoo.individual import Individual
from repro.exceptions import OptimizationError

#: Builds a genome object from one row of the stacked genome array (used by
#: the ``Individual`` views).
GenomeBuilder = Callable[[np.ndarray], Any]


def _metadata_scalar(value: Any) -> Any:
    """Convert a numpy scalar metadata entry to the plain Python value the
    list-based engine stored (floats stay floats, bools stay bools)."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


@dataclass
class Population:
    """One population as a structure of arrays.

    Parameters
    ----------
    genomes:
        Stacked ``(P, ...)`` genome array (``(P, n, n)`` matrices on the RR
        path).
    objectives:
        ``(P, m)`` objective matrix (minimisation convention).
    feasible:
        ``(P,)`` boolean feasibility mask.
    metadata:
        Columnar metadata: each key maps to a ``(P,)`` array (e.g. the RR
        problem's ``privacy`` / ``utility`` / ``max_posterior`` columns).
    fitness:
        ``(P,)`` SPEA2 fitness; ``NaN`` until :meth:`set_fitness` stamps it.
    fitness_generation:
        Generation stamp of the last :meth:`set_fitness` call (``-1`` when
        fitness has never been assigned).  Mating selection checks this stamp
        instead of re-running fitness assignment.
    """

    genomes: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray
    metadata: dict[str, np.ndarray] = field(default_factory=dict)
    fitness: np.ndarray = field(default=None)  # type: ignore[assignment]
    fitness_generation: int = -1

    def __post_init__(self) -> None:
        self.objectives = np.asarray(self.objectives, dtype=np.float64)
        if self.objectives.ndim != 2:
            raise OptimizationError(
                f"objectives must be 2-D, got shape {self.objectives.shape}"
            )
        size = self.objectives.shape[0]
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.feasible.shape != (size,):
            raise OptimizationError(
                f"feasible mask must have shape ({size},), got {self.feasible.shape}"
            )
        if len(self.genomes) != size:
            raise OptimizationError(
                f"genome stack has {len(self.genomes)} rows for {size} objectives"
            )
        for key, column in self.metadata.items():
            if len(column) != size:
                raise OptimizationError(
                    f"metadata column {key!r} has {len(column)} rows for {size} objectives"
                )
        if self.fitness is None:
            self.fitness = np.full(size, np.nan)
        else:
            self.fitness = np.asarray(self.fitness, dtype=np.float64)
            if self.fitness.shape != (size,):
                raise OptimizationError(
                    f"fitness must have shape ({size},), got {self.fitness.shape}"
                )

    # -- construction ---------------------------------------------------------
    @classmethod
    def concat(cls, first: "Population", second: "Population") -> "Population":
        """Concatenate two populations (the per-generation union ``Q_t + V_t``).

        Fitness is *not* carried over: the union is about to go through a
        fresh fitness assignment, and a stale stamp must not survive the
        concatenation.
        """
        if set(first.metadata) != set(second.metadata):
            raise OptimizationError(
                "cannot concatenate populations with different metadata columns "
                f"({sorted(first.metadata)} != {sorted(second.metadata)})"
            )
        return cls(
            genomes=np.concatenate([first.genomes, second.genomes]),
            objectives=np.concatenate([first.objectives, second.objectives]),
            feasible=np.concatenate([first.feasible, second.feasible]),
            metadata={
                key: np.concatenate([first.metadata[key], second.metadata[key]])
                for key in first.metadata
            },
        )

    # -- shape ---------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of candidates."""
        return int(self.objectives.shape[0])

    def __len__(self) -> int:
        return self.size

    # -- indexing -------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Population":
        """New population holding the rows at ``indices`` (fancy-index copy).

        Fitness values and the generation stamp are carried along, so an
        archive selected out of a freshly-stamped union keeps its stamp.
        """
        indices = np.asarray(indices, dtype=np.intp)
        return Population(
            genomes=self.genomes[indices],
            objectives=self.objectives[indices],
            feasible=self.feasible[indices],
            metadata={key: column[indices] for key, column in self.metadata.items()},
            fitness=self.fitness[indices],
            fitness_generation=self.fitness_generation,
        )

    # -- fitness --------------------------------------------------------------
    def set_fitness(self, fitness: np.ndarray, generation: int) -> None:
        """Store the fitness column and stamp the generation it belongs to."""
        fitness = np.asarray(fitness, dtype=np.float64)
        if fitness.shape != (self.size,):
            raise OptimizationError(
                f"fitness must have shape ({self.size},), got {fitness.shape}"
            )
        self.fitness = fitness
        self.fitness_generation = generation

    def require_fresh_fitness(self, generation: int) -> np.ndarray:
        """Return the fitness column, asserting it was stamped at ``generation``.

        This is the staleness guard behind the removal of the redundant
        per-generation fitness re-assignment: if a caller ever reaches mating
        selection without the environmental-selection fitness of the same
        generation, it fails loudly instead of silently recomputing.
        """
        if self.fitness_generation != generation:
            raise OptimizationError(
                f"stale fitness: stamped at generation {self.fitness_generation}, "
                f"mating selection runs at generation {generation}"
            )
        return self.fitness

    # -- views ----------------------------------------------------------------
    def individual(self, index: int, genome_builder: GenomeBuilder | None = None) -> Individual:
        """Materialise one row as an :class:`Individual` view."""
        genome = self.genomes[index]
        if genome_builder is not None:
            genome = genome_builder(genome)
        individual = Individual(
            genome=genome,
            objectives=self.objectives[index].copy(),
            feasible=bool(self.feasible[index]),
            metadata={
                key: _metadata_scalar(column[index])
                for key, column in self.metadata.items()
            },
        )
        if not np.isnan(self.fitness[index]):
            individual.fitness = float(self.fitness[index])
        return individual
