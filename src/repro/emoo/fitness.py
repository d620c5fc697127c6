"""SPEA2 fitness assignment (Section V-B of the paper).

Fitness is assigned to the union of the archive and the population:

1. every individual ``i`` gets a *strength* ``S(i)`` — the number of
   individuals it dominates;
2. the *raw fitness* ``F'(i)`` is the sum of the strengths of all individuals
   that dominate ``i`` (0 for non-dominated individuals);
3. the *density* ``d(i) = 1 / (sigma_i^k + 2)`` breaks ties;
4. the final fitness is ``F(i) = F'(i) + d(i)``.

Lower fitness is better; non-dominated individuals are exactly those with
``F(i) < 1``.  The computation is array-level
(:func:`spea2_fitness_from_arrays`).
"""

from __future__ import annotations

import numpy as np

from repro.emoo.density import spea2_density
from repro.emoo.dominance import dominance_matrix_from_arrays


def spea2_fitness_from_arrays(
    objectives: np.ndarray,
    feasible: np.ndarray | None = None,
    k: int = 1,
    *,
    distances: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SPEA2 strength, density and fitness over raw objective arrays.

    Returns ``(strengths, densities, fitness)``; every step (dominance
    matrix, strength sums, raw fitness, kth-nearest density) is a matrix
    reduction with no per-individual Python work.  ``distances`` optionally
    supplies a precomputed pairwise objective-distance matrix so the
    generation loop computes it once and shares it with archive truncation.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    matrix = dominance_matrix_from_arrays(objectives, feasible)
    strengths = matrix.sum(axis=1)
    # Integer matmul: an exact reduction, whatever the summation order.
    raw_fitness = (strengths @ matrix).astype(np.float64)
    densities = spea2_density(objectives, k, distances=distances)
    return strengths, densities, raw_fitness + densities
