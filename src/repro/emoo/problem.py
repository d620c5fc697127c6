"""The problem interface consumed by the EMOO algorithms.

A problem works on genome *stacks*: one ``(P, ...)`` float array holding a
genome per row.  It creates and evaluates whole stacks into a
structure-of-arrays :class:`~repro.emoo.population.Population` (objectives
minimised, infeasible rows flagged), and crosses, mutates and repairs stacks
batch-wise.  OptRR, NSGA-II and the weighted-sum GA all drive these same
hooks; :class:`repro.core.problem.RRMatrixProblem` is the RR-matrix instance,
with ``(P, n, n)`` stacks.  Candidates never leave the columns: the engines
return populations, and only OptRR turns rows into result points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.emoo.population import Population


class Problem(ABC):
    """A multi-objective optimization problem over genome stacks."""

    #: Number of objectives (all minimised).
    n_objectives: int = 2

    @abstractmethod
    def initial_population_soa(
        self,
        size: int,
        rng: np.random.Generator,
        *,
        fidelity: float | np.ndarray | None = None,
    ) -> Population:
        """Create, repair and evaluate ``size`` random genomes."""

    @abstractmethod
    def evaluate_population(
        self, stack: np.ndarray, *, fidelity: float | np.ndarray | None = None
    ) -> Population:
        """Evaluate a genome stack into a population.

        ``fidelity`` (a scalar or per-row column in ``(0, 1]``) requests
        reduced-fidelity evaluation; problems without a cheap approximation
        raise :class:`~repro.exceptions.OptimizationError` for it.
        """

    @abstractmethod
    def crossover_stack(
        self, first: np.ndarray, second: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cross row ``b`` of ``first`` with row ``b`` of ``second``; returns
        both child stacks."""

    @abstractmethod
    def mutate_stack(self, stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a mutated copy of every row of ``stack``."""

    def repair_stack(self, stack: np.ndarray) -> np.ndarray:
        """Repair a stack after variation (default: no repair)."""
        return stack

    def fingerprint_document(self) -> dict[str, Any]:
        """JSON-compatible identity of this problem, hashed into checkpoint
        workload fingerprints so a checkpoint can never silently resume into
        a different problem.

        The default only identifies the class — problems with workload
        parameters (priors, record counts, bounds) should override this and
        include them, as :class:`repro.core.problem.RRMatrixProblem` does.
        """
        return {"problem": type(self).__name__}
