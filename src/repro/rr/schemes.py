"""Classic randomized-response scheme constructors.

Section III-B of the paper describes three existing RR matrix families:

* **Warner** — diagonal ``p``, off-diagonal ``(1 - p) / (n - 1)``.
* **Uniform Perturbation (UP)** — retain with probability ``q``, otherwise
  replace with a uniformly random category: diagonal ``q + (1 - q) / n``,
  off-diagonal ``(1 - q) / n``.
* **FRAPP** — diagonal ``lambda / (lambda + n - 1)``, off-diagonal
  ``1 / (lambda + n - 1)``.

Theorem 2 states that the three families generate the identical solution set;
:func:`repro.rr.family.scheme_family` and the tests verify the equivalence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import RRMatrixError, ValidationError
from repro.rr.matrix import RRMatrix
from repro.utils.validation import (
    check_in_unit_interval,
    check_positive_int,
    check_stochastic_stack,
)


def identity_matrix(n_categories: int) -> RRMatrix:
    """The no-disguise matrix (the paper's ``M1`` example)."""
    return RRMatrix.identity(n_categories)


def total_randomization_matrix(n_categories: int) -> RRMatrix:
    """The full-randomization matrix (the paper's ``M2`` example)."""
    return RRMatrix.uniform(n_categories)


def warner_matrix(n_categories: int, p: float) -> RRMatrix:
    """Warner scheme matrix with retention probability ``p``.

    ``p = 1`` yields the identity matrix; ``p = 1 / n`` yields the total
    randomization matrix.
    """
    check_positive_int(n_categories, "n_categories")
    check_in_unit_interval(p, "p")
    return RRMatrix.from_validated(warner_stack(n_categories, [p])[0])


def warner_stack(n_categories: int, retention_values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``(S, n, n)`` stack of Warner matrices, one per retention value.

    Built as one array (off-diagonal ``(1 - p) / (n - 1)``, diagonal ``p``)
    and validated once with the bounds, column-sum check and clip that
    :class:`RRMatrix` applies to each matrix, so ``warner_stack(n, ps)[i]``
    equals ``warner_matrix(n, ps[i]).probabilities`` bit for bit.
    """
    check_positive_int(n_categories, "n_categories")
    retention = np.asarray(retention_values, dtype=np.float64)
    if retention.ndim != 1:
        raise ValidationError(
            f"retention values must be one-dimensional, got shape {retention.shape}"
        )
    if not np.all(np.isfinite(retention)) or np.any((retention < 0.0) | (retention > 1.0)):
        raise ValidationError("retention values must lie in [0, 1]")
    if n_categories == 1:
        raise RRMatrixError("Warner scheme needs at least two categories")
    off_diagonal = (1.0 - retention) / (n_categories - 1)
    stack = np.repeat(off_diagonal, n_categories * n_categories).reshape(
        retention.size, n_categories, n_categories
    )
    diagonal = np.arange(n_categories)
    stack[:, diagonal, diagonal] = retention[:, None]
    stack = check_stochastic_stack(stack, "Warner stack")
    return np.clip(stack, 0.0, 1.0, out=stack)


def uniform_perturbation_matrix(n_categories: int, q: float) -> RRMatrix:
    """Uniform Perturbation (UP) matrix with retention probability ``q``.

    Each value is kept with probability ``q`` and otherwise replaced by a
    category drawn uniformly from the whole domain (including itself), giving
    diagonal ``q + (1 - q) / n`` and off-diagonal ``(1 - q) / n``.
    """
    check_positive_int(n_categories, "n_categories")
    check_in_unit_interval(q, "q")
    off_diagonal = (1.0 - q) / n_categories
    matrix = np.full((n_categories, n_categories), off_diagonal)
    np.fill_diagonal(matrix, q + off_diagonal)
    return RRMatrix(matrix)


def frapp_matrix(n_categories: int, gamma: float) -> RRMatrix:
    """FRAPP matrix with amplification parameter ``gamma`` (the paper's
    ``lambda``): diagonal ``gamma / (gamma + n - 1)``, off-diagonal
    ``1 / (gamma + n - 1)``.

    ``gamma`` must be positive; ``gamma = 1`` gives total randomization and
    ``gamma -> inf`` approaches the identity matrix.
    """
    check_positive_int(n_categories, "n_categories")
    if gamma <= 0 or not np.isfinite(gamma):
        raise RRMatrixError(f"gamma must be a positive finite value, got {gamma}")
    denominator = gamma + n_categories - 1
    matrix = np.full((n_categories, n_categories), 1.0 / denominator)
    np.fill_diagonal(matrix, gamma / denominator)
    return RRMatrix(matrix)


def warner_equivalent_p(n_categories: int, *, q: float | None = None, gamma: float | None = None) -> float:
    """Map a UP parameter ``q`` or FRAPP parameter ``gamma`` to the Warner
    retention probability ``p`` that produces the identical matrix.

    This is the constructive form of Theorem 2: the three families are
    reparameterisations of the symmetric matrices with constant off-diagonal.
    """
    check_positive_int(n_categories, "n_categories")
    if (q is None) == (gamma is None):
        raise RRMatrixError("provide exactly one of q or gamma")
    if q is not None:
        check_in_unit_interval(q, "q")
        return q + (1.0 - q) / n_categories
    assert gamma is not None
    if gamma <= 0:
        raise RRMatrixError("gamma must be positive")
    return gamma / (gamma + n_categories - 1)
