"""Structure-of-arrays population state for every EMOO engine.

The generation loop of every algorithm in this package is dominated by
population-level math: dominance matrices, pairwise distances, fitness
reductions, index-based selection.  :class:`Population` holds a whole
population as parallel arrays — a stacked genome array, an ``(P, m)``
objective matrix, a feasibility mask, columnar metadata and a fitness
vector — and every algorithm step works on index arrays over those columns.
A candidate is only ever a row of these columns: the engines return their
survivors and fronts as populations, and OptRR gathers its result rows
straight into a :class:`~repro.core.result.ParetoFront`.

Genomes are stacked once, at the boundary where candidates enter the engine
(:meth:`repro.core.problem.RRMatrixProblem.evaluate_population` produces the
``(P, n, n)`` stack directly from the batch evaluator), and only sliced by
index thereafter; no per-generation re-packing, validation or unpacking
happens inside the loop.

Fitness freshness is tracked with a generation stamp
(:attr:`Population.fitness_generation`): environmental selection stamps the
archive it returns, and mating selection asserts the stamp instead of
recomputing fitness — the redundant per-generation SPEA2 fitness
re-assignment the list-based loop performed cannot silently reappear.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import OptimizationError


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
    def concat(cls, first: "Population", *rest: "Population") -> "Population":
        """Concatenate populations row-wise (e.g. the per-generation union
        ``Q_t + V_t``).

        Fitness is *not* carried over: the union is about to go through a
        fresh fitness assignment, and a stale stamp must not survive the
        concatenation.
        """
        parts = (first, *rest)
        for part in rest:
            if set(part.metadata) != set(first.metadata):
                raise OptimizationError(
                    "cannot concatenate populations with different metadata columns "
                    f"({sorted(first.metadata)} != {sorted(part.metadata)})"
                )
        return cls(
            genomes=np.concatenate([part.genomes for part in parts]),
            objectives=np.concatenate([part.objectives for part in parts]),
            feasible=np.concatenate([part.feasible for part in parts]),
            metadata={
                key: np.concatenate([part.metadata[key] for part in parts])
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
