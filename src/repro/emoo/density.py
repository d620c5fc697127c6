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

    Squared differences are summed one objective column at a time, in the
    column order of SciPy's ``pdist``, so the matrix equals
    ``squareform(pdist(...))`` bit for bit (NaN where two rows share an
    infinite coordinate, inf on overflow; see ``docs/invariants.md``).  The
    diagonal is zeroed explicitly, since ``inf - inf`` is NaN.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2:
        raise OptimizationError(f"objectives must be 2-D, got shape {points.shape}")
    count = points.shape[0]
    distances = np.zeros((count, count))
    with np.errstate(over="ignore", invalid="ignore"):
        for column in points.T:
            difference = column[:, None] - column
            distances += difference * difference
    np.sqrt(distances, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances


def kth_nearest_distances(
    objectives: np.ndarray, k: int = 1, *, distances: np.ndarray | None = None
) -> np.ndarray:
    """Distance of every point to its ``k``-th nearest *other* point.

    ``k`` is clamped to the number of other points, so tiny populations do not
    raise.  With a single point the distance is defined as infinity.  A
    precomputed pairwise ``distances`` matrix can be passed so the generation
    loop computes it once and shares it between density estimation and archive
    truncation (the matrix is not modified).

    NaN distances rank after every number, as in a full row sort:
    ``np.partition`` skips them where ``np.min`` would return them.
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
    kth = min(k, size - 1) - 1
    distances.partition(kth, axis=1)
    return distances[:, kth]


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
