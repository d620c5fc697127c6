"""Combined privacy/utility evaluation of RR matrices.

The evolutionary optimizer evaluates thousands of candidate matrices per
generation; :class:`MatrixEvaluator` packages the prior, the record count and
the privacy bound so each evaluation is a single call returning the two
objectives plus feasibility information.

Two evaluation paths are provided:

* :meth:`MatrixEvaluator.evaluate_batch` — the vectorized engine.  A whole
  population enters as one ``(B, n, n)`` stack and every quantity (posterior
  row bounds, adversary accuracy, condition numbers, inverses, Theorem-6
  MSE) is computed by :func:`evaluate_stack`.  This is the optimizer hot
  path.
* :meth:`MatrixEvaluator.evaluate` — the scalar API, kept as a thin wrapper
  that stacks a single matrix and unpacks the batch result, so both paths are
  one implementation.  The original per-matrix implementation is frozen in
  ``tests/oracles/scalar.py`` for equivalence tests and benchmarks.

On every path the worst-case posterior is computed through the row-max/row-sum
bound, which equals the full posterior-tensor maximum bit for bit (division by
a positive row sum is monotone, so the maximum commutes with it) without
materialising the ``(B, n, n)`` posterior tensor.

Every matrix is scored on its own, so :func:`evaluate_stack` may cut a large
batch into row blocks and run them on a thread pool (NumPy releases the GIL
in the batched LAPACK and elementwise loops); the columns are the same bits
for any cut and any CPU count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.distribution import CategoricalDistribution, prior_probabilities
from repro.exceptions import ValidationError
from repro.metrics.privacy import BOUND_ATOL
from repro.metrics.utility import closed_form_mse
from repro.rr.matrix import RRMatrix, as_matrix_stack
from repro.utils.linalg import batched_safe_inverses
from repro.utils.validation import check_in_unit_interval, check_positive_int

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

#: Work budget of one row block of :func:`evaluate_stack`, in units of
#: ``rows * n**3`` (the batched LU inverse dominates).  A block holds
#: ``max(1, BLOCK_WORK // n**3)`` rows: every n <= 16 batch the optimizer
#: makes (up to the 1 001-point Warner sweep) is a single block, an n = 64
#: block is at most 16 rows.  A block's temporaries (joint tensor, inverses
#: and their powers) stay near ``6 * rows * n**2 * 8`` bytes, ~3 MB at n = 64.
BLOCK_WORK = 1 << 22

#: Threads that evaluate row blocks; ``None`` until the first split batch
#: reads the CPU affinity mask.
_threads: int | None = None
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: drop the pool
    (and a lock another thread may have held at the fork) so the child's
    first split batch creates its own."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def evaluate_on_one_thread() -> None:
    """Evaluate every later batch on the calling thread, block by block.

    For processes that already share the CPUs with sibling processes (the
    grid's parallel attempt workers), so process-level parallelism stays
    the only kind."""
    global _threads
    _threads = 1


def _thread_count() -> int:
    global _threads
    if _threads is None:
        _threads = len(os.sched_getaffinity(0))
    return _threads


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=_thread_count(), thread_name_prefix="evaluate"
            )
        return _pool


def evaluate_stack(
    stack: np.ndarray,
    prior: CategoricalDistribution | np.ndarray,
    n_records: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluation of a C-contiguous ``(B, n, n)`` stack.

    Returns the ``(B,)`` columns ``(privacy, utility, worst_posterior,
    invertible)`` (see :func:`_evaluate_block`).  The prior is validated
    here, once (:func:`~repro.data.distribution.prior_probabilities`: a
    distribution's vector as it is, a raw vector checked), and the blocks
    work on that vector directly.  Rows are independent, so
    the stack is evaluated in contiguous blocks of ``max(1, BLOCK_WORK //
    n**3)`` rows: on the calling thread when it is one block or only one CPU
    is usable, otherwise on the shared thread pool, one task per block.  The
    columns are concatenated in block order and equal a one-block
    evaluation bit for bit.
    """
    prior = prior_probabilities(prior)
    if stack.ndim != 3 or stack.shape[1:] != (prior.size, prior.size):
        raise ValidationError(
            f"matrix stack shape {stack.shape} does not match the prior domain "
            f"(expected (B, {prior.size}, {prior.size}))"
        )
    size = stack.shape[0]
    rows = max(1, BLOCK_WORK // stack.shape[-1] ** 3)
    if size <= rows:
        return _evaluate_block(stack, prior, n_records)
    threads = _thread_count()
    # The fewest blocks within the work bound, rounded up to a whole number
    # per thread so the last round leaves no thread idle.
    count = -(-size // rows)
    blocks = np.array_split(stack, min(size, count + (-count % threads)))
    if threads == 1:
        results = [_evaluate_block(block, prior, n_records) for block in blocks]
    else:
        # Pool threads start with NumPy's default error state; carry the
        # caller's over so a block warns or raises exactly as it would here.
        errors = np.geterr()

        def evaluate(block: np.ndarray) -> tuple[np.ndarray, ...]:
            with np.errstate(**errors):
                return _evaluate_block(block, prior, n_records)

        results = list(_executor().map(evaluate, blocks))
    privacy, utility, worst_posterior, invertible = (
        np.concatenate(column) for column in zip(*results)
    )
    return privacy, utility, worst_posterior, invertible


def _evaluate_block(
    stack: np.ndarray, prior: np.ndarray, n_records: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One block of :func:`evaluate_stack`, on its validated prior vector.

    Utility is ``inf`` for rows that are not numerically invertible under
    :func:`~repro.utils.linalg.batched_safe_inverses`.  One joint tensor
    serves the adversary accuracy (Eq. 8) and the worst posterior (Eq. 9),
    taken as ``max_y max_x joint / sum_x joint`` with zero-probability
    reports contributing 0.  The Theorem-6 closed form runs over the whole
    block (batched ``matmul`` contracts each matrix independently, so a
    row's utility does not depend on its neighbours) and non-invertible
    rows, which may overflow, are masked out.
    """
    joint = stack * prior
    row_max = joint.max(axis=2)
    row_sum = joint.sum(axis=2)
    del joint
    privacy = 1.0 - row_max.sum(axis=1)
    reported = row_sum > 0
    safe = np.where(reported, row_sum, 1.0)
    worst_posterior = np.where(reported, row_max / safe, 0.0).max(axis=1)
    inverses, invertible = batched_safe_inverses(stack)
    utility = np.full(stack.shape[0], np.inf)
    if invertible.any():
        with np.errstate(over="ignore", invalid="ignore"):
            mse = closed_form_mse(stack, inverses, prior, n_records).mean(axis=1)
        utility[invertible] = mse[invertible]
    return privacy, utility, worst_posterior, invertible


@dataclass(frozen=True)
class MatrixEvaluation:
    """Privacy/utility evaluation of a single RR matrix.

    Attributes
    ----------
    privacy:
        ``1 - A`` (Eq. 8); larger is better.
    utility:
        Average closed-form MSE (Eq. 10); smaller is better.
    max_posterior:
        Worst-case posterior probability (Eq. 9 left-hand side).
    feasible:
        Whether the matrix satisfies the configured ``delta`` bound and could
        be evaluated (i.e. was invertible).
    invertible:
        Whether the matrix was invertible; non-invertible matrices cannot be
        used with the inversion estimator and receive infinite utility.
    """

    privacy: float
    utility: float
    max_posterior: float
    feasible: bool
    invertible: bool

    @property
    def objectives(self) -> np.ndarray:
        """Objective vector in *minimisation* convention.

        The optimizer minimises both objectives, so privacy (larger is
        better) is negated: ``objectives = (-privacy, utility)``.
        """
        return np.array([-self.privacy, self.utility], dtype=np.float64)


@dataclass(frozen=True)
class BatchEvaluation:
    """Privacy/utility evaluation of a whole stack of RR matrices.

    Every attribute is an array over the batch dimension ``B``; index the
    object to recover a per-matrix :class:`MatrixEvaluation` view.

    Attributes
    ----------
    privacy:
        ``(B,)`` privacy scores ``1 - A`` (Eq. 8); larger is better.
    utility:
        ``(B,)`` average closed-form MSE values (Eq. 10); ``inf`` for
        singular matrices.
    max_posterior:
        ``(B,)`` worst-case posteriors (Eq. 9 left-hand side).
    feasible:
        ``(B,)`` boolean mask of delta-feasible, invertible matrices.
    invertible:
        ``(B,)`` boolean mask of numerically invertible matrices.
    """

    privacy: np.ndarray
    utility: np.ndarray
    max_posterior: np.ndarray
    feasible: np.ndarray
    invertible: np.ndarray

    def __len__(self) -> int:
        return int(self.privacy.size)

    def __getitem__(self, index: int) -> MatrixEvaluation:
        return MatrixEvaluation(
            privacy=float(self.privacy[index]),
            utility=float(self.utility[index]),
            max_posterior=float(self.max_posterior[index]),
            feasible=bool(self.feasible[index]),
            invertible=bool(self.invertible[index]),
        )

    @property
    def objectives(self) -> np.ndarray:
        """``(B, 2)`` objective array ``(-privacy, utility)`` (minimisation
        convention), with ``inf`` utilities left in place."""
        return np.stack([-self.privacy, self.utility], axis=1)


@dataclass(frozen=True)
class MatrixEvaluator:
    """Evaluate RR matrices against a fixed prior, sample size and bound.

    Parameters
    ----------
    prior:
        The original data distribution ``P(X)`` (a distribution object or a
        probability vector).
    n_records:
        Number of records ``N`` used for the closed-form MSE.
    delta:
        Worst-case privacy bound (Eq. 9).  ``None`` disables the bound.
    """

    prior: CategoricalDistribution
    n_records: int
    delta: float | None = None

    def __post_init__(self) -> None:
        prior = self.prior
        if not isinstance(prior, CategoricalDistribution):
            prior = CategoricalDistribution(np.asarray(prior, dtype=np.float64))
        object.__setattr__(self, "prior", prior)
        check_positive_int(self.n_records, "n_records")
        if self.delta is not None:
            check_in_unit_interval(self.delta, "delta", inclusive_low=False)
            if self.delta < prior.max_probability - 1e-9:
                raise ValidationError(
                    f"delta={self.delta} is infeasible for this prior: by Theorem 5 "
                    f"it must be at least max P(X) = {prior.max_probability:.6f}"
                )

    @property
    def n_categories(self) -> int:
        """Domain size of the evaluated matrices."""
        return self.prior.n_categories

    def evaluate_batch(self, matrices: np.ndarray | list[RRMatrix]) -> BatchEvaluation:
        """Evaluate a whole stack of matrices with batched linear algebra.

        Parameters
        ----------
        matrices:
            A ``(B, n, n)`` array of column-stochastic matrices, or a list of
            :class:`RRMatrix` objects (stacked internally).

        Returns
        -------
        BatchEvaluation
            Array-valued privacy, utility, worst posterior and feasibility.
        """
        privacy, utility, worst_posterior, invertible = evaluate_stack(
            as_matrix_stack(matrices), self.prior, self.n_records
        )
        feasible = invertible.copy()
        if self.delta is not None:
            feasible &= worst_posterior <= self.delta + BOUND_ATOL
        return BatchEvaluation(
            privacy=privacy,
            utility=utility,
            max_posterior=worst_posterior,
            feasible=feasible,
            invertible=invertible,
        )

    def evaluate(self, matrix: RRMatrix) -> MatrixEvaluation:
        """Evaluate one matrix, returning privacy, utility and feasibility.

        Thin wrapper over :meth:`evaluate_batch` with a batch of one, so the
        scalar and batched paths cannot drift apart.
        """
        if matrix.n_categories != self.n_categories:
            raise ValidationError(
                f"matrix domain {matrix.n_categories} does not match the prior "
                f"domain {self.n_categories}"
            )
        return self.evaluate_batch(matrix.probabilities[None, :, :])[0]
