"""Frozen scalar (per-matrix, per-individual) reference implementations.

These are the original one-matrix-at-a-time and ``Individual``-list bodies
the batched engine replaced, kept verbatim as executable specifications for
the equivalence suites and the benchmarks that time the engine against them:

* the RR-matrix variation operators of Sections V-E/V-F/V-G —
  :func:`column_crossover`, :func:`proportional_column_mutation` (with its
  :func:`_rebalance_column` rule) and :func:`enforce_privacy_bound`; the
  production operators are the batched ones in
  :mod:`repro.core.operators`;
* the one-matrix privacy metrics (Eq. 8, Eq. 9: :func:`privacy_score`,
  :func:`max_posterior`, :func:`satisfies_bound`, :func:`privacy_report`, ...)
  and utility metrics (Theorem 6, Eq. 10: :func:`theoretical_mse`,
  :func:`utility_score`, the Var/Cov expansion
  :func:`theoretical_mse_from_covariance`, :func:`utility_report`, ...), plus
  the stack-level :func:`privacy_score_batch` / :func:`max_posterior_batch`;
  the production forms are the stack kernels in :mod:`repro.metrics.privacy`,
  :mod:`repro.metrics.utility` and :func:`repro.metrics.evaluation.
  evaluate_stack`;
* :func:`evaluate_scalar`, the per-matrix privacy/utility evaluation the
  batched :meth:`repro.metrics.evaluation.MatrixEvaluator.evaluate_batch`
  replaced, and the list-of-results wrappers :func:`evaluate_many` /
  :func:`unpack` over it;
* :func:`batched_condition_numbers` (2-norm condition numbers by SVD) and
  :func:`unstack_matrices`, the inverse of
  :func:`repro.rr.matrix.stack_matrices`;
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

from dataclasses import dataclass

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
from repro.metrics.evaluation import BatchEvaluation, MatrixEvaluation, MatrixEvaluator
from repro.metrics.privacy import BOUND_ATOL, joint_tensor, posterior_from_joint, posterior_tensor
from repro.rr.estimation import DistributionEstimate
from repro.rr.matrix import RRMatrix
from repro.types import SeedLike, as_rng
from repro.utils.linalg import condition_number
from repro.utils.validation import (
    check_in_unit_interval,
    check_matrix_stack,
    check_positive_int,
    check_probability_vector,
)
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


# -- privacy metrics (Section IV-A, Eq. 8, Eq. 9) ------------------------------
def _joint_matrix(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Return ``joint[y, x] = P(Y = c_y, X = c_x) = M[y, x] P(x)``."""
    prior = check_probability_vector(prior, "prior")
    probabilities = matrix.probabilities if isinstance(matrix, RRMatrix) else np.asarray(matrix)
    if probabilities.shape != (prior.size, prior.size):
        raise ValidationError(
            f"RR matrix shape {probabilities.shape} does not match prior of "
            f"length {prior.size}"
        )
    return probabilities * prior[None, :]


def adversary_accuracy_batch(stack: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Per-matrix adversary accuracy ``A`` (Eq. 8) for a ``(B, n, n)`` stack."""
    joint = joint_tensor(stack, prior)
    return joint.max(axis=2).sum(axis=1)


def privacy_score_batch(stack: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Per-matrix privacy ``1 - A`` (Eq. 8) for a ``(B, n, n)`` stack."""
    return 1.0 - adversary_accuracy_batch(stack, prior)


def max_posterior_batch(stack: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Per-matrix worst-case posterior (Eq. 9 left-hand side) for a stack."""
    return posterior_tensor(stack, prior).max(axis=(1, 2))


def posterior_matrix(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Posterior ``P(X = c_x | Y = c_y)`` for every (report, original) pair.

    Rows index the observed report ``y``; columns index the candidate original
    value ``x``.  Rows whose report has zero probability under the prior are
    returned as all zeros (the report can never be observed).
    """
    return posterior_from_joint(_joint_matrix(matrix, prior))


def map_estimates(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> np.ndarray:
    """MAP estimate ``x_hat_y`` for every possible report ``y`` (Theorem 3)."""
    posterior = posterior_matrix(matrix, prior)
    return np.argmax(posterior, axis=1)


def adversary_accuracy(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> float:
    """The adversary's expected accuracy ``A`` under MAP estimation (Eq. 8
    before the ``1 -`` complement)."""
    joint = _joint_matrix(matrix, prior)
    return float(joint.max(axis=1).sum())


def privacy_score(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> float:
    """Privacy of an RR matrix for a given prior: ``1 - A`` (Eq. 8).

    Larger values mean better privacy.  The value lies in
    ``[0, 1 - max_x P(x)]`` because the adversary can always guess the prior
    mode.
    """
    return 1.0 - adversary_accuracy(matrix, prior)


def max_posterior(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> float:
    """The largest posterior ``max_y max_x P(x | y)`` (the quantity bounded by
    ``delta`` in Eq. 9)."""
    return float(posterior_matrix(matrix, prior).max())


def satisfies_bound(
    matrix: RRMatrix | np.ndarray,
    prior: np.ndarray,
    delta: float,
    *,
    atol: float = BOUND_ATOL,
) -> bool:
    """Whether the matrix satisfies the worst-case bound ``max P(X|Y) <= delta``."""
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    return max_posterior(matrix, prior) <= delta + atol


@dataclass(frozen=True)
class PrivacyReport:
    """Full privacy analysis of one RR matrix against one prior.

    Attributes
    ----------
    privacy:
        The average-case privacy score ``1 - A`` (Eq. 8).
    adversary_accuracy:
        The adversary's expected MAP accuracy ``A``.
    max_posterior:
        The worst-case posterior (Eq. 9 left-hand side).
    map_estimates:
        MAP estimate index for every possible report.
    posterior:
        The full posterior matrix ``P(X | Y)``.
    """

    privacy: float
    adversary_accuracy: float
    max_posterior: float
    map_estimates: np.ndarray
    posterior: np.ndarray

    def satisfies(self, delta: float, *, atol: float = BOUND_ATOL) -> bool:
        """Whether the analysed matrix satisfies the bound ``delta``."""
        check_in_unit_interval(delta, "delta", inclusive_low=False)
        return self.max_posterior <= delta + atol


def privacy_report(matrix: RRMatrix | np.ndarray, prior: np.ndarray) -> PrivacyReport:
    """Compute the full :class:`PrivacyReport` for ``matrix`` and ``prior``."""
    joint = _joint_matrix(matrix, prior)
    posterior = posterior_from_joint(joint)
    accuracy = float(joint.max(axis=1).sum())
    return PrivacyReport(
        privacy=1.0 - accuracy,
        adversary_accuracy=accuracy,
        max_posterior=float(posterior.max()),
        map_estimates=np.argmax(posterior, axis=1),
        posterior=posterior,
    )


# -- utility metrics (Section IV-B, Theorem 6, Eq. 10) -------------------------
def theoretical_mse(
    matrix: RRMatrix,
    prior: np.ndarray,
    n_records: int,
) -> np.ndarray:
    """Per-category closed-form MSE of the inversion estimator (Theorem 6).

    Parameters
    ----------
    matrix:
        The RR matrix ``M`` (must be invertible).
    prior:
        The original distribution ``P``.
    n_records:
        Number of records ``N`` in the disguised data set.

    Returns
    -------
    numpy.ndarray
        Vector of per-category MSE values ``MSE(X = c_k)``.
    """
    prior = check_probability_vector(prior, "prior")
    check_positive_int(n_records, "n_records")
    if matrix.n_categories != prior.size:
        raise ValidationError(
            f"matrix domain {matrix.n_categories} does not match prior length {prior.size}"
        )
    inverse = matrix.inverse()
    disguised = matrix.disguise_distribution(prior)
    # Var(sum_i B[k,i] p*_i_hat) with multinomial covariance of p*_hat:
    #   (1/N) [ sum_i B[k,i]^2 p*_i - (sum_i B[k,i] p*_i)^2 ]
    linear = inverse @ disguised  # equals the prior, up to numerical error
    quadratic = (inverse ** 2) @ disguised
    return (quadratic - linear ** 2) / float(n_records)


def utility_score(matrix: RRMatrix, prior: np.ndarray, n_records: int) -> float:
    """Average closed-form MSE over all categories (Eq. 10); lower is better."""
    return float(np.mean(theoretical_mse(matrix, prior, n_records)))


def variance_covariance(disguised: np.ndarray, n_records: int) -> np.ndarray:
    """Multinomial covariance matrix of the empirical disguised frequencies.

    ``Var(N_i / N) = P*_i (1 - P*_i) / N`` and
    ``Cov(N_i / N, N_j / N) = -P*_i P*_j / N``; this is the matrix the paper's
    Theorem 6 expands term by term.
    """
    p_star = check_probability_vector(disguised, "disguised")
    check_positive_int(n_records, "n_records")
    covariance = -np.outer(p_star, p_star)
    covariance[np.diag_indices_from(covariance)] = p_star * (1.0 - p_star)
    return covariance / float(n_records)


def theoretical_mse_from_covariance(
    matrix: RRMatrix, prior: np.ndarray, n_records: int
) -> np.ndarray:
    """Per-category MSE computed via the explicit quadratic form
    ``B Sigma B^T`` (used in tests to cross-check the fast closed form)."""
    prior = check_probability_vector(prior, "prior")
    inverse = matrix.inverse()
    disguised = matrix.disguise_distribution(prior)
    covariance = variance_covariance(disguised, n_records)
    return np.einsum("ki,ij,kj->k", inverse, covariance, inverse)


def empirical_mse(
    estimates: list[DistributionEstimate] | list[np.ndarray],
    true_prior: np.ndarray,
) -> float:
    """Empirical mean squared error of repeated distribution estimates (the
    measure :func:`repro.experiments.common.empirical_front_mse` takes per
    front point for Figure 5(d))."""
    truth = check_probability_vector(true_prior, "true_prior")
    if not estimates:
        raise ValidationError("at least one estimate is required")
    errors = []
    for estimate in estimates:
        vector = estimate.probabilities if isinstance(estimate, DistributionEstimate) else np.asarray(estimate)
        if vector.shape != truth.shape:
            raise ValidationError(
                f"estimate shape {vector.shape} does not match prior shape {truth.shape}"
            )
        errors.append(np.mean((vector - truth) ** 2))
    return float(np.mean(errors))


@dataclass(frozen=True)
class UtilityReport:
    """Full utility analysis of one RR matrix against one prior.

    Attributes
    ----------
    utility:
        Average per-category MSE (Eq. 10); lower is better.
    per_category_mse:
        The closed-form MSE of each category's estimate.
    n_records:
        Sample size the MSE was computed for.
    """

    utility: float
    per_category_mse: np.ndarray
    n_records: int


def utility_report(matrix: RRMatrix, prior: np.ndarray, n_records: int) -> UtilityReport:
    """Compute the full :class:`UtilityReport` for ``matrix`` and ``prior``."""
    per_category = theoretical_mse(matrix, prior, n_records)
    return UtilityReport(
        utility=float(np.mean(per_category)),
        per_category_mse=per_category,
        n_records=int(n_records),
    )


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


def unpack(batch: BatchEvaluation) -> list[MatrixEvaluation]:
    """Per-matrix :class:`MatrixEvaluation` objects, in batch order."""
    return [batch[index] for index in range(len(batch))]


def evaluate_many(evaluator: MatrixEvaluator, matrices: list[RRMatrix]) -> list[MatrixEvaluation]:
    """Evaluate a batch of matrices (vectorized, scalar results)."""
    if not matrices:
        return []
    return unpack(evaluator.evaluate_batch(matrices))


# -- matrix stacks ----------------------------------------------------------------
def batched_condition_numbers(stack: np.ndarray) -> np.ndarray:
    """Condition number of every matrix in a ``(B, n, n)`` stack.

    Singular matrices get ``inf`` instead of raising, so a whole population
    can be classified in one call.
    """
    stack = check_matrix_stack(stack)
    if stack.shape[0] == 0:
        return np.empty(0)
    try:
        conditions = np.linalg.cond(stack)
    except np.linalg.LinAlgError:  # pragma: no cover - gesdd non-convergence
        conditions = np.array([condition_number(matrix) for matrix in stack])
    return np.where(np.isnan(conditions), np.inf, conditions)


def unstack_matrices(stack: np.ndarray) -> list[RRMatrix]:
    """Turn a ``(B, n, n)`` array back into validated :class:`RRMatrix`
    objects (the inverse of :func:`stack_matrices`)."""
    return [RRMatrix(matrix) for matrix in check_matrix_stack(stack)]


# -- EMOO primitives -----------------------------------------------------------
def _feasible(population: list[Individual]) -> np.ndarray:
    return np.array([individual.feasible for individual in population], dtype=bool)


def pareto_ranks_reference(population: list[Individual]) -> np.ndarray:
    """Reference loop implementation of non-dominated sorting (Deb's fast
    non-dominated sort with explicit domination counts).

    Kept as the ground truth the vectorized
    :func:`benchmarks.baselines.nsga2.pareto_ranks_from_arrays` is tested against;
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
