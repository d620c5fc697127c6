"""Frozen reference bodies of the (B, n, n) hot kernels.

These are the original batched-numpy implementations of the ten kernels the
optimizer loop and the RR runtime run on, kept verbatim as executable
specifications.  The production kernels live next to their callers:

* :func:`repro.metrics.evaluation.evaluate_stack`
* :func:`repro.utils.linalg.batched_safe_inverses`
* :func:`repro.emoo.density.pairwise_distances` and
  :func:`~repro.emoo.density.kth_nearest_distances`
* :func:`repro.emoo.dominance.dominance_matrix_from_arrays`
* the raw-fitness reduction of
  :func:`repro.emoo.fitness.spea2_fitness_from_arrays`
* :func:`repro.core.operators.column_crossover_batch`,
  :func:`~repro.core.operators.proportional_column_mutation_batch` and
  :func:`~repro.core.operators.enforce_privacy_bound_batch`
* :func:`repro.rr.randomize.disguise_codes`

``tests/test_kernel_equivalence.py`` compares each production kernel with the
oracle here bit for bit, and ``benchmarks/bench_backend.py`` times the
production evaluation against :func:`evaluate_stack`.  Nothing in ``src/``
imports this module.  The oracles must never change: a fix that moves their
output is a change to the kernel contract and would fork every fixed-seed
trajectory in the repo.

Like the production kernels, the oracles draw no randomness: crossover cuts,
mutation indices/magnitudes/signs and disguise uniforms arrive as arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from repro.metrics.privacy import joint_tensor, posterior_from_joint, posterior_tensor
from repro.metrics.utility import utility_score_batch
from repro.utils.linalg import one_norm_condition_estimate

#: Must stay equal to ``repro.core.operators._EPSILON``.
_EPSILON = 1e-12


def evaluate_stack(
    stack: np.ndarray,
    prior: np.ndarray,
    n_records: int,
    *,
    condition_limit: float,
    cheap_posterior_bound: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(privacy, utility, worst_posterior, invertible)`` of a stack.

    ``cheap_posterior_bound=False`` is the posterior-tensor-maximum
    reference; ``True`` is the row-max/row-sum bound.  Both are
    bit-identical, which the equivalence suite checks.
    """
    # One joint tensor serves both the adversary accuracy (Eq. 8) and the
    # posterior maximum (Eq. 9).
    joint = joint_tensor(stack, prior)
    privacy = 1.0 - joint.max(axis=2).sum(axis=1)
    if not cheap_posterior_bound:
        worst_posterior = posterior_from_joint(joint).max(axis=(1, 2))
    else:
        row_max = joint.max(axis=2)
        row_sum = joint.sum(axis=2)
        safe = np.where(row_sum > 0, row_sum, 1.0)
        worst_posterior = np.where(row_sum > 0, row_max / safe, 0.0).max(axis=1)
    inverses, invertible = batched_safe_inverses(
        stack, condition_limit=condition_limit
    )
    utility = np.full(stack.shape[0], np.inf)
    if invertible.any():
        utility[invertible] = utility_score_batch(
            stack[invertible], inverses[invertible], prior, n_records
        )
    return privacy, utility, worst_posterior, invertible


def batched_safe_inverses(
    stack: np.ndarray, *, condition_limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """slogdet screen, then one ``inv`` over the screened rows."""
    inverses = np.zeros_like(stack)
    if stack.shape[0] == 0:
        return inverses, np.zeros(0, dtype=bool)
    signs, log_determinants = np.linalg.slogdet(stack)
    candidates = (signs != 0) & np.isfinite(log_determinants)
    if candidates.any():
        try:
            inverses[candidates] = np.linalg.inv(stack[candidates])
        except np.linalg.LinAlgError:  # pragma: no cover - slogdet said fine
            for index in np.flatnonzero(candidates):
                try:
                    inverses[index] = np.linalg.inv(stack[index])
                except np.linalg.LinAlgError:
                    candidates[index] = False
                    inverses[index] = 0.0
    condition_estimates = one_norm_condition_estimate(stack, inverses)
    invertible = (
        candidates
        & np.isfinite(condition_estimates)
        & (condition_estimates < condition_limit)
    )
    return inverses, invertible


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix: ``pdist`` where it applies, else the
    broadcast ``einsum`` (empty, single-point and zero-dimensional inputs)."""
    if points.shape[0] == 0:
        return np.zeros((0, 0))
    if points.shape[0] > 1 and points.shape[1] > 0:
        return squareform(pdist(points, metric="euclidean"))
    deltas = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))


def kth_nearest_distances(distances: np.ndarray, k: int) -> np.ndarray:
    """Distance to the ``k``-th nearest other point: full row sort (NaN
    last) with an infinite diagonal; ``k`` clamped to the other points."""
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


def dominance_matrix(
    objectives: np.ndarray, feasible: np.ndarray | None = None
) -> np.ndarray:
    """Constrained-dominance matrix by ``(size, size, n_objectives)``
    broadcasting, reduced with ``all``/``any`` over the objective axis."""
    objectives = np.asarray(objectives, dtype=np.float64)
    size = objectives.shape[0]
    if size == 0:
        return np.zeros((0, 0), dtype=bool)
    less_equal = np.all(objectives[:, None, :] <= objectives[None, :, :], axis=2)
    strictly_less = np.any(objectives[:, None, :] < objectives[None, :, :], axis=2)
    matrix = less_equal & strictly_less
    if feasible is not None:
        feasible = np.asarray(feasible, dtype=bool)
        feasibility_dominance = feasible[:, None] & ~feasible[None, :]
        same_feasibility = feasible[:, None] == feasible[None, :]
        matrix = feasibility_dominance | (same_feasibility & matrix)
    np.fill_diagonal(matrix, False)
    return matrix


def raw_fitness(matrix: np.ndarray) -> np.ndarray:
    """SPEA2 raw fitness: the strengths of each column's dominators, summed
    as a masked broadcast."""
    strengths = matrix.sum(axis=1)
    return (matrix * strengths[:, None]).sum(axis=0).astype(np.float64)


def crossover_columns(
    first: np.ndarray, second: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Swap columns ``cuts[p]:`` between the parents of every pair ``p``."""
    n = first.shape[-1]
    swap = (np.arange(n)[None, :] >= cuts[:, None])[:, None, :]  # (P, 1, n)
    child_a = np.where(swap, second, first)
    child_b = np.where(swap, first, second)
    return child_a, child_b


def mutate_stack(
    stack: np.ndarray,
    column_indices: np.ndarray,
    element_indices: np.ndarray,
    magnitudes: np.ndarray,
    add: np.ndarray,
) -> np.ndarray:
    """Section V-F proportional column mutation with pre-drawn randomness."""
    batch_size = stack.shape[0]
    rows = np.arange(batch_size)
    columns = stack[rows, :, column_indices]  # (B, n) copies via fancy indexing
    element_values = columns[rows, element_indices]
    delta = np.where(
        add,
        np.minimum(magnitudes, 1.0 - element_values),
        -np.minimum(magnitudes, element_values),
    )
    saturated = np.abs(delta) <= _EPSILON
    flip_add = np.minimum(magnitudes, 1.0 - element_values)
    flip_sub = -np.minimum(magnitudes, element_values)
    flipped = np.where(flip_add != 0.0, flip_add, flip_sub)
    delta = np.where(saturated, np.where(delta != 0.0, -delta, flipped), delta)
    unchanged = np.abs(delta) <= _EPSILON
    mutated_columns = _rebalance_columns(columns, element_indices, delta)
    mutated_columns[unchanged] = columns[unchanged]
    result = stack.copy()
    result[rows, :, column_indices] = mutated_columns
    return result


def _rebalance_columns(
    columns: np.ndarray, changed: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    batch_size, n = columns.shape
    rows = np.arange(batch_size)
    cols = columns.copy()
    cols[rows, changed] = cols[rows, changed] + delta
    others = np.ones((batch_size, n), dtype=bool)
    others[rows, changed] = False
    positive = delta > 0
    weights = np.where(others, cols, 0.0)
    total_weight = weights.sum(axis=1)
    headroom = np.where(others, 1.0 - cols, 0.0)
    total_headroom = headroom.sum(axis=1)
    undo = (positive & (total_weight <= _EPSILON)) | (
        ~positive & (total_headroom <= _EPSILON)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        subtract = (
            delta[:, None]
            * weights
            / np.where(total_weight > 0, total_weight, 1.0)[:, None]
        )
        add = (
            (-delta)[:, None]
            * headroom
            / np.where(total_headroom > 0, total_headroom, 1.0)[:, None]
        )
    adjusted = cols + np.where(positive[:, None], -subtract, add)
    adjusted = np.clip(adjusted, 0.0, 1.0)
    sums = adjusted.sum(axis=1)
    degenerate = sums <= 0
    result = np.where(
        degenerate[:, None],
        1.0 / n,
        adjusted / np.where(degenerate, 1.0, sums)[:, None],
    )
    if undo.any():
        reverted = cols.copy()
        reverted[rows, changed] = reverted[rows, changed] - delta
        result[undo] = reverted[undo]
    return result


def repair_stack(
    stack: np.ndarray,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int,
    tolerance: float,
) -> np.ndarray:
    """Section V-G privacy-bound repair; every matrix returns its best state."""
    values = stack.copy()
    batch_size, n, _ = values.shape
    if batch_size == 0:
        return values
    best = values.copy()
    best_worst = np.full(batch_size, np.inf)
    active = np.ones(batch_size, dtype=bool)
    for pass_index in range(max_passes + 1):
        index = np.flatnonzero(active)
        if index.size == 0:
            break
        posterior = posterior_tensor(values[index], prior)
        worst = posterior.reshape(index.size, -1).max(axis=1)
        improved = worst < best_worst[index]
        if improved.any():
            improved_index = index[improved]
            best[improved_index] = values[improved_index]
            best_worst[improved_index] = worst[improved]
        met = worst <= delta + tolerance
        active[index[met]] = False
        if pass_index == max_passes:
            break
        index = index[~met]
        if index.size == 0:
            continue
        posterior = posterior[~met]
        flat = posterior.reshape(index.size, -1).argmax(axis=1)
        i = flat // n
        j = flat % n
        local = np.arange(index.size)
        row_values = values[index, i, :]  # (A, n)
        cell = values[index, i, j]
        prior_j = prior[j]
        row_rest = row_values @ prior - cell * prior_j
        ok = prior_j > _EPSILON
        if delta < 1.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                target = delta * row_rest / (prior_j * (1.0 - delta))
        else:
            target = cell.copy()
        target = np.clip(target, 0.0, cell)
        removed = cell - target
        ok &= removed > _EPSILON
        columns = values[index, :, j]  # (A, n)
        columns[local, i] = target
        others = np.ones((index.size, n), dtype=bool)
        others[local, i] = False
        headroom = np.where(others, 1.0 - columns, 0.0)
        total_headroom = headroom.sum(axis=1)
        ok &= total_headroom > _EPSILON
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = (
                removed[:, None]
                * headroom
                / np.where(total_headroom > 0, total_headroom, 1.0)[:, None]
            )
        new_columns = np.clip(columns + spread, 0.0, 1.0)
        column_sums = new_columns.sum(axis=1)
        ok &= column_sums > 0
        active[index[~ok]] = False
        if ok.any():
            apply = np.flatnonzero(ok)
            values[index[apply], :, j[apply]] = (
                new_columns[apply] / column_sums[apply, None]
            )
    return best


def disguise_codes(
    probabilities: np.ndarray, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Sort-and-group ``searchsorted`` disguise against the column CDFs."""
    n = probabilities.shape[0]
    cdf = np.cumsum(probabilities, axis=0)
    cdf[-1, :] = 1.0
    order = np.argsort(codes, kind="stable")
    sorted_uniforms = uniforms[order]
    boundaries = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=n), out=boundaries[1:])
    sorted_out = np.empty(codes.size, dtype=np.int64)
    for category in range(n):
        begin, end = boundaries[category], boundaries[category + 1]
        if begin < end:
            sorted_out[begin:end] = np.searchsorted(
                cdf[:, category], sorted_uniforms[begin:end], side="left"
            )
    disguised = np.empty(codes.size, dtype=np.int64)
    disguised[order] = sorted_out
    return disguised
