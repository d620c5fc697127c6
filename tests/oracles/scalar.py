"""Frozen scalar (per-matrix, per-individual) reference implementations.

These are the original one-matrix-at-a-time and ``Individual``-list bodies
the batched engine replaced, kept verbatim as executable specifications for
the equivalence suites and the benchmarks that time the engine against them:

* the RR-matrix variation operators of Sections V-E/V-F/V-G —
  :func:`column_crossover`, :func:`proportional_column_mutation` (with its
  :func:`_rebalance_column` rule) and :func:`enforce_privacy_bound`; the
  production operators are the batched ones in
  :mod:`repro.core.operators`;
* :func:`evaluate_scalar`, the per-matrix privacy/utility evaluation the
  batched :meth:`repro.metrics.evaluation.MatrixEvaluator.evaluate_batch`
  replaced;
* :func:`pareto_ranks_reference`, Deb's fast non-dominated sort with
  explicit domination counts;
* the ``Individual``-list SPEA2 wrappers (:func:`assign_spea2_fitness`,
  :func:`environmental_selection`, :func:`truncate_archive`,
  :func:`binary_tournament`) over the index-native kernels, used by the
  frozen list-based OptRR loop in :mod:`tests.oracles.optrr_loop`.

Nothing in ``src/`` imports this module.  Batch-of-one calls of the batched
operators consume the RNG exactly like these scalar operators; crossover is
bit-identical, mutation agrees to within one ulp, and the batched repair may
differ bitwise (it redistributes mass with array reductions).
"""

from __future__ import annotations

import numpy as np

from repro.emoo.density import pairwise_distances
from repro.emoo.dominance import dominance_matrix_from_arrays
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from repro.exceptions import OptimizationError, SingularMatrixError, ValidationError
from repro.metrics.evaluation import MatrixEvaluation, MatrixEvaluator
from repro.metrics.privacy import max_posterior, posterior_matrix, privacy_score
from repro.metrics.utility import utility_score
from repro.rr.matrix import RRMatrix
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_in_unit_interval, check_positive_int
from tests.oracles.individual import Individual, objectives_array

#: Must stay equal to ``repro.core.operators._EPSILON``.
_EPSILON = 1e-12


# -- variation operators (Sections V-E, V-F, V-G) -----------------------------
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


# -- evaluation ---------------------------------------------------------------
def evaluate_scalar(evaluator: MatrixEvaluator, matrix: RRMatrix) -> MatrixEvaluation:
    """Reference per-matrix implementation (the pre-batch hot path).

    Kept verbatim so the equivalence property tests and
    ``benchmarks/bench_batch_eval.py`` can compare the vectorized engine
    against the original scalar computation.
    """
    if matrix.n_categories != evaluator.n_categories:
        raise ValidationError(
            f"matrix domain {matrix.n_categories} does not match the prior "
            f"domain {evaluator.n_categories}"
        )
    prior_vector = evaluator.prior.probabilities
    privacy = privacy_score(matrix, prior_vector)
    worst_posterior = max_posterior(matrix, prior_vector)
    try:
        utility = utility_score(matrix, prior_vector, evaluator.n_records)
        invertible = True
    except SingularMatrixError:
        utility = float("inf")
        invertible = False
    feasible = invertible
    if evaluator.delta is not None and worst_posterior > evaluator.delta + 1e-9:
        feasible = False
    return MatrixEvaluation(
        privacy=privacy,
        utility=utility,
        max_posterior=worst_posterior,
        feasible=feasible,
        invertible=invertible,
    )


# -- EMOO primitives -----------------------------------------------------------
def _feasible(population: list[Individual]) -> np.ndarray:
    return np.array([individual.feasible for individual in population], dtype=bool)


def pareto_ranks_reference(population: list[Individual]) -> np.ndarray:
    """Reference loop implementation of non-dominated sorting (Deb's fast
    non-dominated sort with explicit domination counts).

    Kept as the ground truth the vectorized
    :func:`repro.emoo.dominance.pareto_ranks_from_arrays` is tested against;
    does *not* write ranks back onto the individuals.
    """
    size = len(population)
    ranks = np.full(size, -1, dtype=np.int64)
    if size == 0:
        return ranks
    matrix = dominance_matrix_from_arrays(objectives_array(population), _feasible(population))
    domination_counts = matrix.sum(axis=0).astype(np.int64)
    dominated_sets = [np.flatnonzero(matrix[index]) for index in range(size)]
    current_front = list(np.flatnonzero(domination_counts == 0))
    front_index = 0
    remaining = size
    while current_front:
        next_front: list[int] = []
        for index in current_front:
            ranks[index] = front_index
            remaining -= 1
            for dominated_index in dominated_sets[index]:
                domination_counts[dominated_index] -= 1
                if domination_counts[dominated_index] == 0:
                    next_front.append(int(dominated_index))
        current_front = next_front
        front_index += 1
    assert remaining == 0, "non-dominated sorting failed to rank every individual"
    return ranks


def assign_spea2_fitness(population: list[Individual], k: int = 1) -> np.ndarray:
    """Assign SPEA2 fitness in place to every individual in ``population``.

    ``population`` should be the multiset union of the current archive and
    the current population (the paper's ``Q_t + V_t``).  Returns the fitness
    array so callers can keep working on arrays without re-reading the
    attributes.
    """
    if not population:
        return np.zeros(0)
    strengths, densities, fitness = spea2_fitness_from_arrays(
        objectives_array(population), _feasible(population), k
    )
    for index, individual in enumerate(population):
        individual.strength = int(strengths[index])
        individual.density = float(densities[index])
        individual.fitness = float(fitness[index])
    return fitness


def environmental_selection(
    union: list[Individual],
    archive_size: int,
    *,
    density_k: int = 1,
    assign_fitness: bool = True,
) -> list[Individual]:
    """Select the next archive of exactly ``archive_size`` individuals.

    ``Individual``-list wrapper over :func:`environmental_selection_indices`,
    kept for the result boundary and the reference loop.

    Parameters
    ----------
    union:
        The multiset union of the current population and archive.
    archive_size:
        Target archive size ``N_V``.
    density_k:
        The ``k`` used by the density estimator during fitness assignment.
    assign_fitness:
        When True (default) SPEA2 fitness is (re)assigned to ``union`` first.
    """
    check_positive_int(archive_size, "archive_size")
    if not union:
        raise OptimizationError("environmental selection needs a non-empty union")
    if assign_fitness:
        fitness = assign_spea2_fitness(union, density_k)
    else:
        fitness = np.array([individual.fitness for individual in union])
    indices = environmental_selection_indices(
        fitness, archive_size, objectives=objectives_array(union)
    )
    return [union[index] for index in indices]


def truncate_archive(archive: list[Individual], target_size: int) -> list[Individual]:
    """Iteratively remove the most crowded individuals until ``target_size``.

    ``Individual``-list wrapper over :func:`truncate_indices`.
    """
    check_positive_int(target_size, "target_size")
    survivors = list(archive)
    if len(survivors) <= target_size:
        return survivors
    distances = pairwise_distances(objectives_array(survivors))
    keep = truncate_indices(distances, target_size)
    return [survivors[index] for index in keep]


def binary_tournament(
    pool: list[Individual],
    n_selections: int,
    seed: SeedLike = None,
) -> list[Individual]:
    """Binary tournament selection on fitness (lower fitness wins).

    Returns ``n_selections`` individuals (with replacement across
    tournaments).  Requires that fitness has been assigned.
    ``Individual``-list wrapper over :func:`binary_tournament_indices`.
    """
    check_positive_int(n_selections, "n_selections")
    if not pool:
        raise OptimizationError("mating selection needs a non-empty pool")
    rng = as_rng(seed)
    fitness = np.array([individual.fitness for individual in pool])
    winners = binary_tournament_indices(fitness, n_selections, rng)
    return [pool[index] for index in winners]
