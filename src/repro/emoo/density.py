"""Density estimation used by SPEA2 fitness assignment and truncation.

SPEA2 breaks fitness ties between equally-dominated individuals with a
density estimate: the distance to the ``k``-th nearest neighbour in objective
space, mapped through ``d = 1 / (sigma_k + 2)`` so it is always below one and
cannot override a dominance difference (the paper's Section V-B).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptimizationError


def pairwise_distances(objectives: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between objective vectors.

    Uses :func:`scipy.spatial.distance.pdist` (condensed upper triangle, half
    the work and memory of the naive broadcast).  SciPy is imported here, not
    at module level, so commands that never rank a front do not pay for it.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2:
        raise OptimizationError(f"objectives must be 2-D, got shape {points.shape}")
    count, dimensions = points.shape
    if count < 2 or dimensions == 0:
        return np.zeros((count, count))
    from scipy.spatial.distance import pdist, squareform

    return squareform(pdist(points, metric="euclidean"))


def kth_nearest_distances(
    objectives: np.ndarray, k: int = 1, *, distances: np.ndarray | None = None
) -> np.ndarray:
    """Distance of every point to its ``k``-th nearest *other* point.

    ``k`` is clamped to the number of other points, so tiny populations do not
    raise.  With a single point the distance is defined as infinity.  A
    precomputed pairwise ``distances`` matrix can be passed so the generation
    loop computes it once and shares it between density estimation and archive
    truncation (the matrix is not modified).
    """
    if k < 1:
        raise OptimizationError(f"k must be at least 1, got {k}")
    if distances is None:
        distances = pairwise_distances(objectives)
    else:
        distances = np.array(distances, dtype=np.float64)
    size = distances.shape[0]
    if size == 0:
        return np.empty(0)
    if size == 1:
        return np.array([np.inf])
    np.fill_diagonal(distances, np.inf)
    sorted_distances = np.sort(distances, axis=1)
    effective_k = min(k, size - 1)
    return sorted_distances[:, effective_k - 1]


def spea2_density(
    objectives: np.ndarray, k: int = 1, *, distances: np.ndarray | None = None
) -> np.ndarray:
    """SPEA2 density ``d(i) = 1 / (sigma_i^k + 2)`` for every individual.

    The ``+ 2`` guarantees the density is strictly below one, so it only
    discriminates between individuals with identical raw fitness (whose raw
    fitness values differ by at least one otherwise).  ``distances`` optionally
    supplies the precomputed pairwise distance matrix.
    """
    sigma = kth_nearest_distances(objectives, k, distances=distances)
    finite_sigma = np.where(np.isfinite(sigma), sigma, np.finfo(np.float64).max / 4)
    return 1.0 / (finite_sigma + 2.0)
