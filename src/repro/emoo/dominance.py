"""Pareto dominance relations (Definition 5.1 in the paper).

All objectives are minimised.  Constrained dominance is used: a feasible
candidate dominates any infeasible one; two infeasible candidates are
compared on their objectives like feasible ones (so the population can still
be driven towards feasibility).

Everything here works on plain ``(size, n_objectives)`` objective arrays
(plus a feasibility mask) via whole-matrix operations: the dominance matrix
and non-dominated filtering (:func:`non_dominated_indices`, which picks every
engine's front out of its population rows).  Non-dominated sorting serves
only the NSGA-II baseline and lives with it in ``benchmarks/baselines``.
"""

from __future__ import annotations

import numpy as np


def dominance_matrix_from_arrays(
    objectives: np.ndarray, feasible: np.ndarray | None = None
) -> np.ndarray:
    """Boolean matrix ``D`` with ``D[i, j] = True`` iff row ``i`` of
    ``objectives`` dominates row ``j``, under constrained dominance when a
    ``feasible`` mask is given.  Built one objective column at a time, with
    no ``(size, size, n_objectives)`` temporary."""
    objectives = np.asarray(objectives, dtype=np.float64)
    size = objectives.shape[0]
    less_equal = np.ones((size, size), dtype=bool)
    strictly_less = np.zeros((size, size), dtype=bool)
    for column in objectives.T:
        less_equal &= column[:, None] <= column
        strictly_less |= column[:, None] < column
    matrix = less_equal & strictly_less
    if feasible is not None:
        feasible = np.asarray(feasible, dtype=bool)
        feasibility_dominance = feasible[:, None] & ~feasible[None, :]
        same_feasibility = feasible[:, None] == feasible[None, :]
        matrix = feasibility_dominance | (same_feasibility & matrix)
    np.fill_diagonal(matrix, False)
    return matrix


def non_dominated_indices(
    objectives: np.ndarray, feasible: np.ndarray | None = None
) -> np.ndarray:
    """Ascending indices of the rows no other row dominates (under
    constrained dominance when a ``feasible`` mask is given)."""
    return np.flatnonzero(~dominance_matrix_from_arrays(objectives, feasible).any(axis=0))
    matrix = dominance_matrix_from_arrays(objectives, feasible)
    alive = np.ones(size, dtype=bool)
    front_index = 0
    while alive.any():
        dominated_by_alive = matrix[alive].any(axis=0)
        front = alive & ~dominated_by_alive
        # A strict partial order always has minimal elements, so the peel
        # terminates; guard anyway so a broken dominance matrix cannot hang.
        assert front.any(), "non-dominated sorting failed to peel a front"
        ranks[front] = front_index
        alive &= ~front
        front_index += 1
    return ranks
