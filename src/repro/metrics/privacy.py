"""Privacy quantification (Section IV-A, Eq. 8 and Eq. 9).

Privacy is ``1 - A`` where ``A`` is the adversary's expected accuracy under
the optimal (MAP) estimation strategy:

``A = sum_y P(y | x_hat_y) P(x_hat_y) = sum_y max_x [ M[y, x] P(x) ]``

The worst-case constraint (Eq. 9) additionally bounds every posterior:
``max_y max_x P(x | y) <= delta``.  Theorem 5 shows ``delta`` can never be
smaller than the largest prior probability.

The posterior kernels here work on a ``(B, n, n)`` stack of RR matrices, the form
:mod:`repro.metrics.evaluation` and the repair operator consume; the
one-matrix reference forms live in ``tests/oracles/scalar.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InfeasibleBoundError, ValidationError
from repro.utils.validation import check_in_unit_interval, check_probability_vector

#: Numerical slack used when checking the delta bound, so matrices produced by
#: the repair operator (which targets the bound exactly) are not rejected for
#: floating-point noise.
BOUND_ATOL = 1e-9


def joint_tensor(stack: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Batched joint ``joint[b, y, x] = M_b[y, x] P(x)`` for a ``(B, n, n)``
    stack of RR matrices."""
    prior = check_probability_vector(prior, "prior")
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != (prior.size, prior.size):
        raise ValidationError(
            f"RR matrix stack shape {stack.shape} does not match prior of "
            f"length {prior.size} (expected (B, {prior.size}, {prior.size}))"
        )
    return stack * prior[None, None, :]


def posterior_from_joint(joint: np.ndarray) -> np.ndarray:
    """Normalise a joint array ``P(Y, X)`` into posteriors ``P(X | Y)``.

    Works on a single ``(n, n)`` joint matrix or a ``(B, n, n)`` joint tensor
    (the candidate-original axis is always last).  Rows whose report has zero
    probability are returned as all zeros — this helper is the single home of
    that convention.
    """
    report_probabilities = joint.sum(axis=-1, keepdims=True)
    safe = np.where(report_probabilities > 0, report_probabilities, 1.0)
    return np.where(report_probabilities > 0, joint / safe, 0.0)


def posterior_tensor(stack: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Batched posterior ``P(X = c_x | Y = c_y)`` for every matrix in a
    ``(B, n, n)`` stack; rows with zero report probability come back as zeros
    (see :func:`posterior_from_joint`)."""
    return posterior_from_joint(joint_tensor(stack, prior))


def check_bound_feasible(prior: np.ndarray, delta: float) -> None:
    """Raise :class:`InfeasibleBoundError` when no RR matrix can satisfy the
    bound ``delta`` for this prior (Theorem 5: ``delta >= max_x P(x)``)."""
    prior = check_probability_vector(prior, "prior")
    check_in_unit_interval(delta, "delta", inclusive_low=False)
    if delta < prior.max() - BOUND_ATOL:
        raise InfeasibleBoundError(
            f"delta={delta} is below the largest prior probability "
            f"{prior.max():.6f}; by Theorem 5 no RR matrix can satisfy it"
        )
