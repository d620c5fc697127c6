"""Quality indicators for comparing Pareto fronts.

The paper compares schemes by plotting their Pareto fronts; these indicators
turn that visual comparison into numbers the benchmark harness can print and
the tests can assert on:

* **hypervolume** (2-D exact) — area dominated by a front relative to a
  reference point; larger is better.
* **coverage** (the C-metric) — fraction of one front dominated by another.
* **additive epsilon indicator** — how much one front must be translated to
  weakly dominate another.
* **spread** — extent of the front along each objective.

All indicators assume minimisation of every objective.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def _as_front(points: np.ndarray) -> np.ndarray:
    array = np.asarray(points, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] < 1:
        raise ValidationError(f"a front must be a 2-D array of points, got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValidationError("a front must contain at least one point")
    if not np.all(np.isfinite(array)):
        raise ValidationError("front points must be finite")
    return array


def hypervolume_2d(front: np.ndarray, reference: tuple[float, float]) -> float:
    """Exact hypervolume (area) dominated by a 2-D front.

    Parameters
    ----------
    front:
        Array of shape ``(n_points, 2)``; both objectives minimised.
    reference:
        Reference point; points not strictly better than the reference in both
        objectives contribute nothing.
    """
    points = _as_front(front)
    if points.shape[1] != 2:
        raise ValidationError("hypervolume_2d only supports two objectives")
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (2,):
        raise ValidationError("reference must be a 2-element point")
    # Keep only points that dominate the reference point.
    mask = np.all(points < ref, axis=1)
    points = points[mask]
    if points.shape[0] == 0:
        return 0.0
    # Sort by the first objective ascending; sweep and accumulate rectangles.
    order = np.lexsort((points[:, 1], points[:, 0]))
    points = points[order]
    area = 0.0
    best_second = ref[1]
    for first, second in points:
        if second < best_second:
            area += (ref[0] - first) * (best_second - second)
            best_second = second
    return float(area)


def finite_front_hypervolume_2d(
    front: np.ndarray, reference: tuple[float, float]
) -> float | None:
    """:func:`hypervolume_2d` over the finite rows of a possibly-unclean front.

    Live optimizer fronts may contain sentinel values (e.g. the
    singular-utility penalty is finite, but generic problems may emit
    ``inf``); rows with non-finite entries are dropped first.  Returns
    ``None`` when no finite points remain — callers decide whether that
    means "unknown" or "no progress".
    """
    front = np.asarray(front, dtype=np.float64)
    front = front[np.all(np.isfinite(front), axis=1)]
    if front.shape[0] == 0:
        return None
    return hypervolume_2d(front, reference)


def coverage(front_a: np.ndarray, front_b: np.ndarray) -> float:
    """C-metric ``C(A, B)``: fraction of points in ``B`` weakly dominated by at
    least one point in ``A``.  ``C(A, B) = 1`` means ``A`` covers ``B``."""
    a = _as_front(front_a)
    b = _as_front(front_b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError("fronts must have the same number of objectives")
    dominated = 0
    for point in b:
        weakly = np.all(a <= point, axis=1) & np.any(a < point, axis=1)
        equal = np.all(a == point, axis=1)
        if np.any(weakly | equal):
            dominated += 1
    return dominated / b.shape[0]


def epsilon_indicator(front_a: np.ndarray, front_b: np.ndarray) -> float:
    """Additive epsilon indicator ``I_eps+(A, B)``.

    The smallest value ``eps`` such that every point of ``B`` is weakly
    dominated by some point of ``A`` translated by ``eps`` in every objective.
    Smaller (more negative) is better for ``A``.
    """
    a = _as_front(front_a)
    b = _as_front(front_b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError("fronts must have the same number of objectives")
    # For each b point: the best (smallest) over a of the worst per-objective
    # shortfall; epsilon is the worst over b.
    differences = a[:, None, :] - b[None, :, :]
    per_pair = differences.max(axis=2)
    per_b = per_pair.min(axis=0)
    return float(per_b.max())


def spread_2d(front: np.ndarray) -> tuple[float, float]:
    """Extent of a 2-D front along each objective (max - min per objective)."""
    points = _as_front(front)
    if points.shape[1] != 2:
        raise ValidationError("spread_2d only supports two objectives")
    extents = points.max(axis=0) - points.min(axis=0)
    return float(extents[0]), float(extents[1])
