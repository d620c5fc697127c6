"""The RR-matrix optimization problem OptRR searches.

Genomes are ``(B, n, n)`` stacks of column-stochastic RR matrices; the two
minimised objectives are ``(-privacy, utility)``; the variation operators are
the paper's column crossover and proportional column mutation; and the repair
step enforces the worst-case privacy bound ``delta`` when one is configured.
:class:`RRMatrixProblem` defines every stack hook the optimizer calls
(``initial_population_soa``, ``evaluate_population``, ``crossover_stack``,
``mutate_stack``, ``repair_stack``, ``fingerprint_document``); the ablation
baselines in ``benchmarks/baselines`` drive the same hooks.

Evaluation and repair run through the batch engine:
:meth:`~repro.metrics.evaluation.MatrixEvaluator.evaluate_batch` and
:func:`~repro.core.operators.enforce_privacy_bound_batch`.  A candidate is a
row of a :class:`~repro.emoo.population.Population`; a run's result rows
leave the engine as one :class:`~repro.core.result.ParetoFront`, built
by :meth:`RRMatrixProblem.population_individual`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.operators import (
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
    random_initial_matrix,
)
from repro.core.result import ParetoFront
from repro.data.distribution import CategoricalDistribution
from repro.emoo.population import Population
from repro.exceptions import ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.utils.validation import check_counter, check_in_unit_interval, check_positive_int

#: Finite utility penalty substituted for the infinite MSE of non-invertible
#: matrices so objective arrays stay finite for the front-quality indicators.
SINGULAR_UTILITY_PENALTY = 1e6


@dataclass
class RRMatrixProblem:
    """Multi-objective problem: find RR matrices trading privacy vs utility.

    Parameters
    ----------
    prior:
        The original data distribution ``P(X)``.
    n_records:
        Number of records ``N`` used by the closed-form utility (Theorem 6).
    delta:
        Optional worst-case privacy bound (Eq. 9).
    mutation_scale:
        Magnitude bound of the mutation operator.
    diagonal_bias:
        Diagonal bias used for half of the random genomes (see
        :func:`repro.core.operators.random_initial_matrices`).
    """

    prior: CategoricalDistribution
    n_records: int
    delta: float | None = None
    mutation_scale: float = 0.3
    diagonal_bias: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.prior, CategoricalDistribution):
            self.prior = CategoricalDistribution(np.asarray(self.prior, dtype=np.float64))
        check_positive_int(self.n_records, "n_records")
        if self.delta is not None:
            check_in_unit_interval(self.delta, "delta", inclusive_low=False)
        check_in_unit_interval(self.mutation_scale, "mutation_scale", inclusive_low=False)
        self._evaluator = MatrixEvaluator(self.prior, self.n_records, self.delta)
        self._n_evaluations = 0
        self._counter = 0

    # -- bookkeeping -----------------------------------------------------------
    @property
    def n_categories(self) -> int:
        """Domain size of the optimised matrices."""
        return self.prior.n_categories

    @property
    def n_evaluations(self) -> int:
        """Number of matrix evaluations performed so far."""
        return self._n_evaluations

    @property
    def evaluator(self) -> MatrixEvaluator:
        """The underlying privacy/utility evaluator."""
        return self._evaluator

    def counters_document(self) -> dict[str, int]:
        """The problem's bookkeeping counters for a ``checkpoint`` document.

        ``counter`` drives the random-genome kind cycling of
        :meth:`initial_population_soa`, so restoring it keeps any post-resume
        genome creation on the same cycle; the
        evaluation count makes resumed results report the true cumulative
        cost."""
        return {
            "n_evaluations": self._n_evaluations,
            "counter": self._counter,
        }

    def restore_counters(self, document: dict[str, int]) -> None:
        """Restore the counters captured by :meth:`counters_document`; each
        must be present and a non-negative int
        (:class:`~repro.exceptions.ValidationError` otherwise, before any
        counter is written)."""
        if not isinstance(document, dict):
            raise ValidationError(f"checkpointed counters must be an object, got {document!r:.40}")
        n_evaluations = check_counter(document["n_evaluations"], "checkpointed n_evaluations")
        counter = check_counter(document["counter"], "checkpointed counter")
        self._n_evaluations = n_evaluations
        self._counter = counter

    # -- stack hooks -------------------------------------------------------------
    def fingerprint_document(self) -> dict:
        """Checkpoint workload identity: the prior, record count, bound and
        operator parameters — everything that changes what an evaluation
        means."""
        from repro.utils.arrays import encode_array

        return {
            "problem": type(self).__name__,
            "prior": encode_array(self.prior.probabilities),
            "n_records": self.n_records,
            "delta": self.delta,
            "mutation_scale": self.mutation_scale,
            "diagonal_bias": self.diagonal_bias,
        }

    def evaluate_population(self, stack: np.ndarray) -> Population:
        """Evaluate a ``(B, n, n)`` stack into a structure-of-arrays population.

        This is the optimizer hot path: one call computes privacy, utility,
        worst posterior and feasibility for the whole stack with batched
        linear algebra, and the stack itself becomes the population's genome
        array — no per-matrix ``RRMatrix`` construction or re-validation
        happens inside the generation loop.  Result rows are gathered only
        at the result boundary, by :meth:`population_individual`.
        """
        evaluation = self._evaluator.evaluate_batch(stack)
        self._n_evaluations += len(evaluation)
        metadata = {
            "privacy": np.asarray(evaluation.privacy, dtype=np.float64),
            "utility": np.asarray(evaluation.utility, dtype=np.float64),
            "max_posterior": np.asarray(evaluation.max_posterior, dtype=np.float64),
            "invertible": np.asarray(evaluation.invertible, dtype=bool),
        }
        finite_utility = np.where(
            np.isfinite(evaluation.utility), evaluation.utility, SINGULAR_UTILITY_PENALTY
        )
        objectives = np.stack([-evaluation.privacy, finite_utility], axis=1)
        return Population(
            genomes=np.asarray(stack, dtype=np.float64),
            objectives=objectives,
            feasible=np.asarray(evaluation.feasible, dtype=bool),
            metadata=metadata,
        )

    def population_individual(self, population: Population, rows: np.ndarray) -> ParetoFront:
        """The result front of ``population``'s ``rows`` (the array-to-result
        boundary): privacy, utility and worst posterior gathered from the
        metadata columns, and the matrices as those rows of the population's
        own genome stack, neither copied nor re-validated (the engine's
        operators produced them)."""
        metadata = population.metadata
        return ParetoFront(
            "optrr",
            metadata["privacy"][rows],
            metadata["utility"][rows],
            metadata["max_posterior"][rows],
            stack=population.genomes,
            stack_rows=rows,
        )

    def initial_population_soa(self, size: int, rng: np.random.Generator) -> Population:
        """Create, batch-repair and batch-evaluate ``size`` random genomes
        into a structure-of-arrays population.

        The random draws happen sequentially, one matrix at a time, cycling
        through plain random, diagonally-biased and near-uniform kinds so the
        initial front spans the whole privacy/utility trade-off; the matrices
        are stacked once and never unpacked.
        """
        check_positive_int(size, "size")
        raw = np.empty((size, self.n_categories, self.n_categories))
        for index in range(size):
            self._counter += 1
            raw[index] = random_initial_matrix(
                self.n_categories,
                rng,
                kind=self._counter,
                diagonal_bias=self.diagonal_bias,
            ).probabilities
        return self.evaluate_population(self.repair_stack(raw))

    # -- stacked variation -----------------------------------------------------
    def crossover_stack(
        self, first: np.ndarray, second: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """The paper's column-boundary crossover (Section V-E) over paired
        parent stacks."""
        return column_crossover_batch(first, second, rng)

    def mutate_stack(self, stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The paper's proportional column mutation (Section V-F), one
        mutation per matrix."""
        return proportional_column_mutation_batch(stack, rng, scale=self.mutation_scale)

    def repair_stack(self, stack: np.ndarray) -> np.ndarray:
        """Enforce the privacy bound (Section V-G); identity when no
        ``delta`` is configured."""
        if self.delta is None:
            return stack
        return enforce_privacy_bound_batch(stack, self.prior, self.delta)
