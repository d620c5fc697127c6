"""Utility quantification (Section IV-B, Theorem 6).

Utility is measured by the Mean Squared Error of the inversion estimator's
distribution estimate.  Because the estimator is unbiased, the MSE of the
``k``-th component equals its variance:

``MSE_k = Var( sum_i B[k, i] N_i / N )``

where ``B = M^-1`` and ``(N_1, ..., N_n)`` is a multinomial sample of size
``N`` with probabilities ``P* = M P``.  Expanding the multinomial covariance
(the paper's Var/Cov formulation) and simplifying gives the closed form

``MSE_k = (1/N) * ( sum_i B[k, i]^2 P*_i  -  P_k^2 )``

because ``sum_i B[k, i] P*_i = (M^-1 P*)_k = P_k``.  The reported utility is
the average MSE over all categories (Eq. 10); *lower is better*.

Both functions here work on a ``(B, n, n)`` stack of RR matrices; the
one-matrix closed form and the explicit Var/Cov expansion it is checked
against live in ``tests/oracles/scalar.py``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int, check_probability_vector


def theoretical_mse_batch(
    stack: np.ndarray,
    inverses: np.ndarray,
    prior: np.ndarray,
    n_records: int,
) -> np.ndarray:
    """Batched Theorem-6 closed form: per-category MSE for every matrix.

    Parameters
    ----------
    stack:
        ``(B, n, n)`` stack of RR matrices.
    inverses:
        ``(B, n, n)`` stack of their inverses (from
        :func:`repro.utils.linalg.batched_safe_inverses`); rows for singular
        matrices may hold garbage — callers mask them out of the result.
    prior:
        The original distribution ``P``.
    n_records:
        Number of records ``N``.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` array of per-category MSE values.
    """
    prior = check_probability_vector(prior, "prior")
    check_positive_int(n_records, "n_records")
    stack = np.asarray(stack, dtype=np.float64)
    inverses = np.asarray(inverses, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1:] != (prior.size, prior.size):
        raise ValidationError(
            f"matrix stack shape {stack.shape} does not match prior length {prior.size}"
        )
    if inverses.shape != stack.shape:
        raise ValidationError(
            f"inverse stack shape {inverses.shape} does not match matrix stack {stack.shape}"
        )
    return closed_form_mse(stack, inverses, prior, n_records)


def closed_form_mse(
    stack: np.ndarray,
    inverses: np.ndarray,
    prior: np.ndarray,
    n_records: int,
) -> np.ndarray:
    """The ``(B, n)`` Theorem-6 closed form without input checks: the
    arithmetic of :func:`theoretical_mse_batch`, for callers that already
    hold a validated prior vector and matching float64 stacks (the
    evaluation kernel, once per block)."""
    disguised = np.matmul(stack, prior[None, :, None])  # (B, n, 1): P* = M P
    linear = np.matmul(inverses, disguised)[..., 0]
    quadratic = np.matmul(inverses**2, disguised)[..., 0]
    return (quadratic - linear**2) / float(n_records)


def utility_score_batch(
    stack: np.ndarray,
    inverses: np.ndarray,
    prior: np.ndarray,
    n_records: int,
) -> np.ndarray:
    """Per-matrix average closed-form MSE (Eq. 10) for a ``(B, n, n)`` stack."""
    return theoretical_mse_batch(stack, inverses, prior, n_records).mean(axis=1)
