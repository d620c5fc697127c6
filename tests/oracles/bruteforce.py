"""Brute-force / grid-search oracle for tiny domains.

The paper's Fact 1 shows exhaustive search is hopeless for realistic domain
sizes, but for ``n = 2`` or ``n = 3`` with a coarse grid it is perfectly
feasible — and extremely useful for validating the evolutionary optimizer:
the OptRR front should be close to the exhaustive front on such instances
(``tests/core/test_bruteforce.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from repro.core.result import OptimizationResult, ParetoFront
from repro.core.search_space import log10_rr_matrix_combinations, rr_matrix_combinations
from repro.data.distribution import CategoricalDistribution
from repro.emoo.dominance import non_dominated_indices
from repro.exceptions import OptimizationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.matrix import RRMatrix
from repro.utils.validation import check_positive_int


def brute_force_is_feasible(
    n_categories: int, d: int, *, budget: int = 10_000_000
) -> bool:
    """Whether exhaustively enumerating the discretised matrices fits within
    ``budget`` evaluations (used to guard the brute-force baseline)."""
    check_positive_int(budget, "budget")
    # Compare in log space to avoid astronomically large integers.
    return log10_rr_matrix_combinations(n_categories, d) <= math.log10(budget)


def _grid_columns(n_categories: int, d: int) -> list[np.ndarray]:
    """All probability columns whose entries are multiples of ``1/d``."""
    columns: list[np.ndarray] = []
    for combo in _compositions(d, n_categories):
        columns.append(np.asarray(combo, dtype=np.float64) / d)
    return columns


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways of writing ``total`` as an ordered sum of ``parts``
    non-negative integers."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class BruteForceReport:
    """Outcome of a brute-force sweep.

    Attributes
    ----------
    result:
        The Pareto front found by exhaustive enumeration, packaged like an
        optimizer result.
    n_enumerated:
        Number of matrices enumerated.
    n_feasible:
        Number of matrices that satisfied the bound and were invertible.
    """

    result: OptimizationResult
    n_enumerated: int
    n_feasible: int


def brute_force_front(
    prior: CategoricalDistribution | np.ndarray,
    n_records: int,
    *,
    d: int = 10,
    delta: float | None = None,
    budget: int = 2_000_000,
) -> BruteForceReport:
    """Exhaustively enumerate discretised RR matrices and return the exact
    Pareto front.

    Parameters
    ----------
    prior:
        Original data distribution.
    n_records:
        Record count for the closed-form utility.
    d:
        Grid resolution: entries are multiples of ``1/d``.
    delta:
        Optional worst-case privacy bound.
    budget:
        Safety limit on the number of matrices enumerated; exceeding it raises
        :class:`OptimizationError` (use the evolutionary optimizer instead).
    """
    if not isinstance(prior, CategoricalDistribution):
        prior = CategoricalDistribution(np.asarray(prior, dtype=np.float64))
    check_positive_int(d, "d")
    n = prior.n_categories
    if not brute_force_is_feasible(n, d, budget=budget):
        raise OptimizationError(
            f"brute force over n={n}, d={d} needs "
            f"{rr_matrix_combinations(n, d):.3e} evaluations, which exceeds the "
            f"budget of {budget}"
        )
    evaluator = MatrixEvaluator(prior, n_records, delta)
    columns = _grid_columns(n, d)
    matrices: list[RRMatrix] = []
    values: list[tuple[float, float, float]] = []
    n_enumerated = 0
    for selection in product(range(len(columns)), repeat=n):
        n_enumerated += 1
        matrix_array = np.column_stack([columns[index] for index in selection])
        matrix = RRMatrix(matrix_array)
        evaluation = evaluator.evaluate(matrix)
        if evaluation.feasible:
            matrices.append(matrix)
            values.append((evaluation.privacy, evaluation.utility, evaluation.max_posterior))
    # Feasible rows as (privacy, utility, max_posterior) columns; the front is
    # picked by dominance over (-privacy, utility).
    feasible = np.array(values, dtype=np.float64).reshape(-1, 3)
    rows = ParetoFront(
        "brute-force",
        feasible[:, 0],
        feasible[:, 1],
        feasible[:, 2],
        stack=np.array([matrix.probabilities for matrix in matrices]).reshape(-1, n, n),
    )
    front = rows.take(
        non_dominated_indices(np.column_stack([-feasible[:, 0], feasible[:, 1]]))
    )
    result = OptimizationResult(
        front=front, spectrum=front.take(np.arange(0)), n_generations=0, n_evaluations=n_enumerated
    )
    return BruteForceReport(result=result, n_enumerated=n_enumerated, n_feasible=len(matrices))
