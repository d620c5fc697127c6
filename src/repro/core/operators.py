"""RR-matrix variation operators (Sections V-E, V-F and V-G of the paper).

All operators take and return :class:`~repro.rr.matrix.RRMatrix` instances
and preserve the column-stochastic constraint:

* **column crossover** — pick a random boundary between two columns and swap
  everything to its right between the two parents (Figure 3 in the paper);
* **proportional column mutation** — pick a column and an element, add or
  subtract a small random value, and rescale the remaining elements of the
  column proportionally (to their values when mass must be removed, to
  ``1 - value`` when mass must be added) so the column still sums to one;
* **privacy-bound repair** — shrink the matrix entries responsible for
  posteriors above ``delta`` and redistribute the removed mass within the
  same column, iterating until the worst posterior meets the bound (or a
  small iteration budget is exhausted).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.privacy import posterior_matrix, posterior_tensor
from repro.rr.matrix import RRMatrix, random_rr_matrix
from repro.types import SeedLike, as_rng
from repro.utils.validation import (
    check_in_unit_interval,
    check_matrix_stack,
    check_positive_int,
)

#: Tiny value used to keep columns strictly positive where renormalisation
#: would otherwise divide by zero.
_EPSILON = 1e-12


def column_crossover(
    first: RRMatrix,
    second: RRMatrix,
    rng: SeedLike = None,
) -> tuple[RRMatrix, RRMatrix]:
    """Swap the columns to the right of a random boundary between two parents.

    Because whole columns are exchanged, both children remain
    column-stochastic by construction.
    """
    if first.n_categories != second.n_categories:
        raise ValidationError("parents must have the same domain size")
    n = first.n_categories
    generator = as_rng(rng)
    # A boundary after column `cut` (1 .. n-1); swapping after column n would
    # be a no-op and after column 0 would swap everything (also allowed by the
    # paper's figure, but it just exchanges the parents), so we restrict to
    # boundaries that actually mix genetic material.
    if n < 2:
        return first, second
    cut = int(generator.integers(1, n))
    child_a = first.as_array()
    child_b = second.as_array()
    child_a[:, cut:], child_b[:, cut:] = child_b[:, cut:].copy(), child_a[:, cut:].copy()
    return RRMatrix(child_a), RRMatrix(child_b)


def _rebalance_column(column: np.ndarray, changed: int, delta: float) -> np.ndarray:
    """Apply ``delta`` to ``column[changed]`` and redistribute ``-delta`` over
    the remaining entries, proportionally to their values when removing mass
    and proportionally to ``1 - value`` when adding mass.

    This is the paper's mutation rebalancing rule; it keeps every entry in
    ``[0, 1]`` and the column sum at one.
    """
    column = column.astype(np.float64).copy()
    n = column.size
    others = np.arange(n) != changed
    column[changed] = column[changed] + delta
    if delta > 0:
        # Mass was added to the changed element: remove `delta` from the other
        # elements proportionally to their current values.
        weights = column[others]
        total = weights.sum()
        if total <= _EPSILON:
            # Nothing to take from; undo the change.
            column[changed] -= delta
            return column
        column[others] = weights - delta * (weights / total)
    else:
        # Mass was removed from the changed element: add `-delta` to the other
        # elements proportionally to (1 - value).
        headroom = 1.0 - column[others]
        total = headroom.sum()
        if total <= _EPSILON:
            column[changed] -= delta
            return column
        column[others] = column[others] + (-delta) * (headroom / total)
    column = np.clip(column, 0.0, 1.0)
    column_sum = column.sum()
    if column_sum <= 0:
        return np.full(n, 1.0 / n)
    return column / column_sum


def proportional_column_mutation(
    matrix: RRMatrix,
    rng: SeedLike = None,
    *,
    scale: float = 0.3,
) -> RRMatrix:
    """Mutate one column of ``matrix`` as described in Section V-F.

    A random element of a random column is perturbed by a random amount in
    ``(0, scale]`` (added or subtracted, clipped so the element stays in
    ``[0, 1]``) and the rest of the column is rescaled proportionally.
    """
    check_in_unit_interval(scale, "scale", inclusive_low=False)
    generator = as_rng(rng)
    n = matrix.n_categories
    column_index = int(generator.integers(0, n))
    element_index = int(generator.integers(0, n))
    column = matrix.column(column_index)
    magnitude = float(generator.uniform(0.0, scale))
    add = bool(generator.integers(0, 2))
    if add:
        delta = min(magnitude, 1.0 - column[element_index])
    else:
        delta = -min(magnitude, column[element_index])
    if abs(delta) <= _EPSILON:
        # The element is already saturated in the chosen direction; flip it.
        delta = -delta if delta != 0 else (
            min(magnitude, 1.0 - column[element_index])
            or -min(magnitude, column[element_index])
        )
        if abs(delta) <= _EPSILON:
            return matrix
    mutated_column = _rebalance_column(column, element_index, delta)
    return matrix.replace_column(column_index, mutated_column)


def enforce_privacy_bound(
    matrix: RRMatrix,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int = 50,
    tolerance: float = 1e-9,
) -> RRMatrix:
    """Repair ``matrix`` so that ``max P(X | Y) <= delta`` (Section V-G).

    For every posterior ``P(X = c_j | Y = c_i)`` above the bound, the entry
    ``theta[i, j]`` is reduced towards the value that makes the posterior
    exactly ``delta`` and the removed mass is redistributed over the other
    entries of column ``j`` proportionally to ``1 - value``.  Because the
    posteriors of a column interact (shrinking ``theta[i, j]`` shrinks row
    ``i``'s normaliser, which *raises* the other posteriors of that report,
    and the redistributed mass raises posteriors elsewhere in column ``j``),
    a single pass can overshoot, so the procedure iterates up to
    ``max_passes`` times and returns the *best state seen* — the visited
    matrix with the smallest worst-case posterior, which is never worse than
    the input.  Matrices that cannot be repaired (e.g. when
    ``delta < max P(X)``, which Theorem 5 proves impossible to satisfy) are
    returned in their best-effort state and the evaluator marks them
    infeasible.
    """
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    check_positive_int(max_passes, "max_passes")
    prior = np.asarray(prior, dtype=np.float64)
    values = matrix.as_array()
    n = matrix.n_categories
    best_values = values
    best_worst = np.inf
    for pass_index in range(max_passes + 1):
        posterior = posterior_matrix(values, prior)
        worst = float(posterior.max())
        if worst < best_worst:
            best_worst = worst
            best_values = values.copy()
        if worst <= delta + tolerance or pass_index == max_passes:
            break
        # Visit the worst violating (report i, original j) pair.
        report_index, original_index = np.unravel_index(np.argmax(posterior), posterior.shape)
        i, j = int(report_index), int(original_index)
        # Posterior(i, j) = theta[i, j] p_j / sum_l theta[i, l] p_l.
        # Solving Posterior = delta for theta[i, j] with the other entries of
        # row i fixed gives the target value below.
        row_rest = float(values[i, :] @ prior - values[i, j] * prior[j])
        if prior[j] <= _EPSILON:
            break
        target = delta * row_rest / (prior[j] * (1.0 - delta)) if delta < 1.0 else values[i, j]
        target = float(np.clip(target, 0.0, values[i, j]))
        removed = values[i, j] - target
        if removed <= _EPSILON:
            # Cannot reduce further (the prior alone already violates delta).
            break
        column = values[:, j].copy()
        column[i] = target
        others = np.arange(n) != i
        headroom = 1.0 - column[others]
        total_headroom = headroom.sum()
        if total_headroom <= _EPSILON:
            break
        column[others] = column[others] + removed * (headroom / total_headroom)
        column = np.clip(column, 0.0, 1.0)
        column_sum = column.sum()
        if column_sum <= 0:
            break
        values[:, j] = column / column_sum
    return RRMatrix(best_values)


# -- batched variants ---------------------------------------------------------
#
# The batch-evaluation engine moves whole populations through the variation
# pipeline as (B, n, n) stacks.  Each batched operator draws all of its
# randomness up front, as whole arrays in a fixed order, and then runs
# deterministic array code; the scalar functions remain the per-matrix
# reference implementations.  The frozen batched bodies these must match bit
# for bit live in ``tests/oracles/kernels.py``.


def column_crossover_batch(
    first: np.ndarray,
    second: np.ndarray,
    rng: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched column crossover: one random boundary per parent pair.

    ``first`` and ``second`` are ``(P, n, n)`` stacks of paired parents; both
    children of every pair are returned as stacks.  Whole columns are swapped,
    so the children stay column-stochastic by construction.
    """
    first = check_matrix_stack(first, "first")
    second = check_matrix_stack(second, "second")
    if first.shape != second.shape:
        raise ValidationError(
            f"parent stacks must have the same shape, got {first.shape} and {second.shape}"
        )
    n = first.shape[-1]
    if first.shape[0] == 0 or n < 2:
        return first.copy(), second.copy()
    generator = as_rng(rng)
    cuts = generator.integers(1, n, size=first.shape[0])
    swap = (np.arange(n)[None, :] >= cuts[:, None])[:, None, :]  # (P, 1, n)
    return np.where(swap, second, first), np.where(swap, first, second)


def _rebalance_columns_batch(
    columns: np.ndarray, changed: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Batched :func:`_rebalance_column`: apply ``delta[b]`` to
    ``columns[b, changed[b]]`` and redistribute ``-delta[b]`` over the other
    entries of each column, with the same undo/clip/renormalise rules."""
    batch_size, n = columns.shape
    rows = np.arange(batch_size)
    cols = np.array(columns, dtype=np.float64)
    cols[rows, changed] = cols[rows, changed] + delta
    others = np.ones((batch_size, n), dtype=bool)
    others[rows, changed] = False
    positive = delta > 0
    weights = np.where(others, cols, 0.0)
    total_weight = weights.sum(axis=1)
    headroom = np.where(others, 1.0 - cols, 0.0)
    total_headroom = headroom.sum(axis=1)
    # Undo rows: nothing to take from / add to, so the change is reverted
    # (including the same add-then-subtract rounding as the scalar code).
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


def proportional_column_mutation_batch(
    stack: np.ndarray,
    rng: SeedLike = None,
    *,
    scale: float = 0.3,
) -> np.ndarray:
    """Batched proportional column mutation: one mutation per matrix.

    For every matrix in the ``(B, n, n)`` stack a random element of a random
    column is perturbed and the rest of the column is rescaled, exactly as in
    :func:`proportional_column_mutation` (including the saturation-flip rule);
    only the random draws are vectorized.
    """
    check_in_unit_interval(scale, "scale", inclusive_low=False)
    stack = check_matrix_stack(stack, "stack")
    batch_size, n, _ = stack.shape
    if batch_size == 0:
        return stack.copy()
    generator = as_rng(rng)
    column_indices = generator.integers(0, n, size=batch_size)
    element_indices = generator.integers(0, n, size=batch_size)
    magnitudes = generator.uniform(0.0, scale, size=batch_size)
    add = generator.integers(0, 2, size=batch_size).astype(bool)
    rows = np.arange(batch_size)
    columns = stack[rows, :, column_indices]  # (B, n) copies via fancy indexing
    element_values = columns[rows, element_indices]
    delta = np.where(
        add,
        np.minimum(magnitudes, 1.0 - element_values),
        -np.minimum(magnitudes, element_values),
    )
    # The element is already saturated in the chosen direction; flip it
    # (same rule as the scalar operator).
    saturated = np.abs(delta) <= _EPSILON
    flip_add = np.minimum(magnitudes, 1.0 - element_values)
    flip_sub = -np.minimum(magnitudes, element_values)
    flipped = np.where(flip_add != 0.0, flip_add, flip_sub)
    delta = np.where(saturated, np.where(delta != 0.0, -delta, flipped), delta)
    unchanged = np.abs(delta) <= _EPSILON
    mutated_columns = _rebalance_columns_batch(columns, element_indices, delta)
    mutated_columns[unchanged] = columns[unchanged]
    result = stack.copy()
    result[rows, :, column_indices] = mutated_columns
    return result


def enforce_privacy_bound_batch(
    stack: np.ndarray,
    prior: np.ndarray,
    delta: float,
    *,
    max_passes: int = 50,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Batched :func:`enforce_privacy_bound` over a ``(B, n, n)`` stack.

    Each matrix follows the same trajectory as the scalar repair: per pass
    the worst violating posterior cell is relaxed towards ``delta`` and the
    removed mass is redistributed within its column; matrices that meet the
    bound (or hit one of the scalar early-exit conditions) drop out of the
    active set, and every matrix returns the best state it visited, so the
    worst-case posterior never increases.  The repair is fully deterministic.
    """
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    check_positive_int(max_passes, "max_passes")
    prior = np.asarray(prior, dtype=np.float64)
    values = check_matrix_stack(stack, "stack").copy()
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
        # Matrices that hit a scalar break condition freeze at their
        # current (already scored) state.
        active[index[~ok]] = False
        if ok.any():
            apply = np.flatnonzero(ok)
            values[index[apply], :, j[apply]] = (
                new_columns[apply] / column_sums[apply, None]
            )
    return best


def random_initial_matrix(
    n_categories: int,
    rng: SeedLike = None,
    *,
    kind: int = 0,
    diagonal_bias: float = 2.0,
) -> RRMatrix:
    """Generate one random initial matrix of the given ``kind``.

    Three kinds are mixed into the initial population so it spans the whole
    privacy/utility trade-off from the first generation:

    * ``kind % 3 == 0`` — plain flat-Dirichlet columns (moderate privacy);
    * ``kind % 3 == 1`` — diagonally biased columns (low privacy, low MSE,
      near the identity matrix);
    * ``kind % 3 == 2`` — a blend of the uniform matrix and Dirichlet noise
      (high privacy, near total randomization, but still invertible).
    """
    check_positive_int(n_categories, "n_categories")
    generator = as_rng(rng)
    mode = kind % 3
    if mode == 1 and diagonal_bias > 0:
        bias = float(generator.uniform(0.0, diagonal_bias * n_categories))
        return random_rr_matrix(n_categories, seed=generator, diagonal_bias=bias)
    if mode == 2:
        noise = generator.dirichlet(np.ones(n_categories), size=n_categories).T
        weight = float(generator.uniform(0.02, 0.5))
        blended = (1.0 - weight) * np.full((n_categories, n_categories), 1.0 / n_categories)
        blended = blended + weight * noise
        return RRMatrix(blended / blended.sum(axis=0, keepdims=True))
    return random_rr_matrix(n_categories, seed=generator)


def random_initial_matrices(
    n_categories: int,
    population_size: int,
    rng: SeedLike = None,
    *,
    diagonal_bias: float = 2.0,
) -> list[RRMatrix]:
    """Generate the initial population ``Q_0``.

    The population mixes plain random, diagonally-biased and near-uniform
    matrices (see :func:`random_initial_matrix`) so the initial front already
    spans the trade-off from near-total randomization to near-identity.
    """
    check_positive_int(n_categories, "n_categories")
    check_positive_int(population_size, "population_size")
    generator = as_rng(rng)
    return [
        random_initial_matrix(
            n_categories, generator, kind=index, diagonal_bias=diagonal_bias
        )
        for index in range(population_size)
    ]
