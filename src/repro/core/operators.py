"""RR-matrix variation operators (Sections V-E, V-F and V-G of the paper).

The operators move whole populations as ``(B, n, n)`` stacks of
column-stochastic matrices and preserve that constraint:

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

Each operator draws all of its randomness up front, as whole arrays in a
fixed order, and then runs deterministic array code.  Called on a batch of
one, crossover and mutation consume the RNG exactly like the original
one-matrix operators.  Those scalar operators are frozen in
``tests/oracles/scalar.py`` and the batched bodies these must match bit for
bit in ``tests/oracles/kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.data.distribution import CategoricalDistribution, prior_probabilities
from repro.exceptions import ValidationError
from repro.metrics.privacy import posterior_from_joint
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
    """The paper's mutation rebalancing rule, per column: apply ``delta[b]``
    to ``columns[b, changed[b]]`` and redistribute ``-delta[b]`` over the
    other entries of each column — proportionally to their values when mass
    is removed from them, to ``1 - value`` when mass is added — then clip and
    renormalise.  A column with nothing to take from (or no headroom to add
    to) undoes the change; a column clipped to all zeros becomes uniform."""
    batch_size, n = columns.shape
    rows = np.arange(batch_size)
    cols = np.array(columns, dtype=np.float64)
    cols[rows, changed] = cols[rows, changed] + delta
    positive = delta > 0
    # The changed entry takes no share of the redistributed mass.
    weights = cols.copy()
    weights[rows, changed] = 0.0
    total_weight = weights.sum(axis=1)
    headroom = 1.0 - cols
    headroom[rows, changed] = 0.0
    total_headroom = headroom.sum(axis=1)
    # Undo rows: nothing to take from / add to, so the change is reverted
    # (with the add-then-subtract rounding of the original operator).
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
    column is perturbed by a random amount in ``(0, scale]`` (added or
    subtracted, clipped so the element stays in ``[0, 1]``; an element
    already saturated in the drawn direction is moved the other way) and the
    rest of the column is rescaled proportionally (Section V-F).
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
    up = np.minimum(magnitudes, 1.0 - element_values)
    down = -np.minimum(magnitudes, element_values)
    delta = np.where(add, up, down)
    # The element is already saturated in the chosen direction; flip it.
    saturated = np.abs(delta) <= _EPSILON
    flipped = np.where(up != 0.0, up, down)
    delta = np.where(saturated, np.where(delta != 0.0, -delta, flipped), delta)
    unchanged = np.abs(delta) <= _EPSILON
    mutated_columns = _rebalance_columns_batch(columns, element_indices, delta)
    mutated_columns[unchanged] = columns[unchanged]
    result = stack.copy()
    result[rows, :, column_indices] = mutated_columns
    return result


def enforce_privacy_bound_batch(
    stack: np.ndarray,
    prior: CategoricalDistribution | np.ndarray,
    delta: float,
    *,
    max_passes: int = 50,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Repair every matrix of a ``(B, n, n)`` stack so that
    ``max P(X | Y) <= delta`` (Section V-G).

    Per pass, the worst violating posterior ``P(X = c_j | Y = c_i)`` of each
    matrix is relaxed: ``theta[i, j]`` is reduced towards the value that
    makes that posterior exactly ``delta`` (with the rest of row ``i``
    fixed), and the removed mass is redistributed over the other entries of
    column ``j`` proportionally to ``1 - value``.  The posteriors of a column
    interact, so one pass can overshoot; the procedure iterates up to
    ``max_passes`` times.  Matrices that meet the bound, or cannot be reduced
    further, drop out of the active set, and every matrix returns the *best
    state it visited* — never worse than its input.  Matrices that cannot
    be repaired (``delta < max P(X)``, impossible by Theorem 5) come back in
    their best-effort state and the evaluator marks them infeasible.  The
    repair is fully deterministic.

    The prior is validated once, on entry
    (:func:`~repro.data.distribution.prior_probabilities`).  The active set
    is kept compact: ``work`` holds only the active matrices and ``ids``
    their rows of the stack, so a pass scores and edits ``work`` in place
    and a matrix that meets the bound or freezes is dropped from both.
    """
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    check_positive_int(max_passes, "max_passes")
    prior = prior_probabilities(prior)
    best = check_matrix_stack(stack, "stack").copy()
    batch_size, n, _ = best.shape
    if batch_size == 0:
        return best
    best_worst = np.full(batch_size, np.inf)
    work = best.copy()
    ids = np.arange(batch_size)
    # One error state for the whole loop: the target and spread quotients
    # divide by zero on rows the ``ok`` mask then freezes.
    with np.errstate(divide="ignore", invalid="ignore"):
        for pass_index in range(max_passes + 1):
            posterior = posterior_from_joint(work * prior).reshape(ids.size, -1)
            worst = posterior.max(axis=1)
            improved = worst < best_worst[ids]
            improved_ids = ids[improved]
            if pass_index and improved_ids.size:
                best[improved_ids] = work[improved]
            best_worst[improved_ids] = worst[improved]
            # Not ``worst > delta + tolerance``: a NaN posterior stays active.
            unmet = ~(worst <= delta + tolerance)
            if pass_index == max_passes or not unmet.any():
                break
            if not unmet.all():
                work, ids, posterior = work[unmet], ids[unmet], posterior[unmet]
            flat = posterior.argmax(axis=1)
            i = flat // n
            j = flat % n
            local = np.arange(ids.size)
            cell = work[local, i, j]
            prior_j = prior[j]
            row_rest = work[local, i, :] @ prior - cell * prior_j
            ok = prior_j > _EPSILON
            if delta < 1.0:
                target = delta * row_rest / (prior_j * (1.0 - delta))
            else:
                target = cell.copy()
            target = target.clip(0.0, cell)
            removed = cell - target
            ok &= removed > _EPSILON
            columns = work[local, :, j]  # (A, n)
            columns[local, i] = target
            headroom = 1.0 - columns
            headroom[local, i] = 0.0
            total_headroom = headroom.sum(axis=1)
            ok &= total_headroom > _EPSILON
            spread = (
                removed[:, None]
                * headroom
                / np.where(total_headroom > 0, total_headroom, 1.0)[:, None]
            )
            new_columns = (columns + spread).clip(0.0, 1.0)
            column_sums = new_columns.sum(axis=1)
            ok &= column_sums > 0
            # Matrices that cannot be reduced further freeze at their current
            # (already scored) state: they leave the working set unchanged.
            if not ok.all():
                if not ok.any():
                    break
                work, ids, j = work[ok], ids[ok], j[ok]
                new_columns, column_sums = new_columns[ok], column_sums[ok]
                local = np.arange(ids.size)
            work[local, :, j] = new_columns / column_sums[:, None]
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
