"""Linear-algebra helpers for the inversion-based estimator.

Near-singular classification
----------------------------
Whether a matrix counts as "numerically invertible" is decided — for the
scalar *and* the batched path — by the same rule: invert via LU and accept
the inverse only when the 1-norm condition estimate
``cond_1(A) = ||A||_1 ||A^-1||_1`` stays below the configured limit.  The
estimate reuses the inverse that the estimator needs anyway, so no SVD is
required, and because every caller goes through the shared helper
:func:`one_norm_condition_estimate` the scalar API and the batch engine can
never disagree about which matrices are usable.

This module is the only place in ``src/`` that touches ``numpy.linalg``
(lint rule RL006), so no inversion can bypass that rule.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SingularMatrixError
from repro.utils.validation import check_matrix_stack

#: Matrices whose 1-norm condition estimate exceeds this value are treated as
#: singular for the purpose of the inversion estimator; the resulting
#: estimates would be numerically meaningless anyway.
DEFAULT_CONDITION_LIMIT = 1e12


def condition_number(matrix: np.ndarray) -> float:
    """Return the 2-norm condition number of ``matrix`` (``inf`` if singular).

    This is the textbook SVD-based diagnostic (exposed as
    ``RRMatrix.condition``); the invertibility *decision* uses
    :func:`one_norm_condition_estimate` instead.
    """
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return float("inf")


def one_norm_condition_estimate(matrix: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """1-norm condition estimate ``||A||_1 ||A^-1||_1`` from a known inverse.

    Works on a single ``(n, n)`` matrix or a ``(B, n, n)`` stack (the norms
    reduce over the trailing two axes either way).  ``cond_1`` and the SVD
    2-norm condition number bound each other within a factor of ``n``, and
    reusing the inverse makes the estimate essentially free — which is why it
    is the classification rule for both evaluation paths.
    """
    one_norms = np.abs(matrix).sum(axis=-2).max(axis=-1)
    inverse_one_norms = np.abs(inverse).sum(axis=-2).max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return one_norms * inverse_one_norms


def is_invertible(matrix: np.ndarray, *, condition_limit: float = DEFAULT_CONDITION_LIMIT) -> bool:
    """Return ``True`` when ``matrix`` is numerically invertible.

    Uses the same 1-norm condition estimate as the batched path, so
    ``is_invertible(m)`` and ``batched_safe_inverses(m[None])[1][0]`` always
    agree.
    """
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return False
    estimate = one_norm_condition_estimate(matrix, inverse)
    return bool(np.isfinite(estimate) and estimate < condition_limit)


def safe_inverse(
    matrix: np.ndarray,
    *,
    condition_limit: float = DEFAULT_CONDITION_LIMIT,
) -> np.ndarray:
    """Invert ``matrix``, raising :class:`SingularMatrixError` when it is
    singular or too ill-conditioned to invert reliably.

    Classification matches :func:`batched_safe_inverses` exactly (shared
    1-norm condition estimate), so the scalar and batch paths agree on every
    matrix.
    """
    try:
        inverse = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is exactly singular") from exc
    estimate = float(one_norm_condition_estimate(matrix, inverse))
    if not np.isfinite(estimate) or estimate >= condition_limit:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (condition estimate {estimate:.3e})"
        )
    return inverse


def batched_safe_inverses(
    stack: np.ndarray,
    *,
    condition_limit: float = DEFAULT_CONDITION_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert every numerically invertible matrix in a ``(B, n, n)`` stack.

    Returns ``(inverses, invertible)`` where ``invertible`` is a boolean mask
    and ``inverses[b]`` is ``stack[b]^-1`` for invertible matrices (callers
    must consult the mask before using a row: ill-conditioned rows hold
    their numerically meaningless inverse, exactly singular rows zeros).

    The whole stack is inverted in one LAPACK call.  Batched ``getrf/getri``
    factorises each matrix independently, so every row equals its own
    single-matrix inverse bit for bit.  Only when that call raises (at least
    one row has an exact zero pivot) are the rows screened by their
    ``slogdet`` sign first and the non-singular ones inverted.  Either way,
    near-singular rows are classified by the shared
    :func:`one_norm_condition_estimate` — the same rule :func:`safe_inverse`
    and :func:`is_invertible` apply, so the scalar and batched paths classify
    every matrix identically.
    """
    stack = check_matrix_stack(stack)
    if stack.shape[0] == 0:
        return np.zeros_like(stack), np.zeros(0, dtype=bool)
    try:
        inverses = np.linalg.inv(stack)
        candidates = np.ones(stack.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        inverses, candidates = _screened_inverses(stack)
    condition_estimates = one_norm_condition_estimate(stack, inverses)
    invertible = (
        candidates
        & np.isfinite(condition_estimates)
        & (condition_estimates < condition_limit)
    )
    return inverses, invertible


def _screened_inverses(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the rows whose LU factorisation has no zero pivot; the others
    stay zero and are masked out of the returned candidate mask."""
    inverses = np.zeros_like(stack)
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
    return inverses, candidates
