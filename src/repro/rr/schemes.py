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


def warner_matrix(n_categories: int, p: float) -> RRMatrix:
    """Warner scheme matrix with retention probability ``p``.

    ``p = 1`` yields the identity matrix; ``p = 1 / n`` yields the total
    randomization matrix.
    """
    return RRMatrix.from_validated(warner_stack(n_categories, [p])[0])


def warner_stack(n_categories: int, retention_values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``(S, n, n)`` stack of Warner matrices, one per retention value
    (off-diagonal ``(1 - p) / (n - 1)``, diagonal ``p``), built like every
    stack of this module (see :func:`_symmetric_stack`), so
    ``warner_stack(n, ps)[i]`` equals ``warner_matrix(n, ps[i]).probabilities``
    bit for bit.
    """
    retention = _parameters(n_categories, retention_values, "retention values")
    if n_categories == 1:
        raise RRMatrixError("Warner scheme needs at least two categories")
    off_diagonal = (1.0 - retention) / (n_categories - 1)
    return _symmetric_stack(n_categories, retention, off_diagonal, "Warner stack")


def uniform_perturbation_matrix(n_categories: int, q: float) -> RRMatrix:
    """Uniform Perturbation (UP) matrix with retention probability ``q``.

    Each value is kept with probability ``q`` and otherwise replaced by a
    category drawn uniformly from the whole domain (including itself), giving
    diagonal ``q + (1 - q) / n`` and off-diagonal ``(1 - q) / n``.
    """
    return RRMatrix.from_validated(uniform_perturbation_stack(n_categories, [q])[0])


def uniform_perturbation_stack(
    n_categories: int, retention_values: Sequence[float] | np.ndarray
) -> np.ndarray:
    """``(S, n, n)`` stack of UP matrices, one per retention value ``q``;
    row ``i`` equals ``uniform_perturbation_matrix(n, qs[i]).probabilities``
    bit for bit."""
    retention = _parameters(n_categories, retention_values, "retention values")
    off_diagonal = (1.0 - retention) / n_categories
    return _symmetric_stack(n_categories, retention + off_diagonal, off_diagonal, "UP stack")


def frapp_matrix(n_categories: int, gamma: float) -> RRMatrix:
    """FRAPP matrix with amplification parameter ``gamma`` (the paper's
    ``lambda``): diagonal ``gamma / (gamma + n - 1)``, off-diagonal
    ``1 / (gamma + n - 1)``.

    ``gamma`` must be positive; ``gamma = 1`` gives total randomization and
    ``gamma -> inf`` approaches the identity matrix.
    """
    return RRMatrix.from_validated(frapp_stack(n_categories, [gamma])[0])


def frapp_stack(n_categories: int, gammas: Sequence[float] | np.ndarray) -> np.ndarray:
    """``(S, n, n)`` stack of FRAPP matrices, one per ``gamma``; row ``i``
    equals ``frapp_matrix(n, gammas[i]).probabilities`` bit for bit."""
    gammas = _parameters(n_categories, gammas, "gamma values", positive=True)
    denominator = gammas + n_categories - 1
    return _symmetric_stack(n_categories, gammas / denominator, 1.0 / denominator, "FRAPP stack")


def _parameters(
    n_categories: int, values: Sequence[float] | np.ndarray, name: str, *, positive: bool = False
) -> np.ndarray:
    """``values`` as a 1-D float array: finite and positive with
    ``positive``, else in ``[0, 1]``."""
    check_positive_int(n_categories, "n_categories")
    parameters = np.asarray(values, dtype=np.float64)
    if parameters.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {parameters.shape}")
    if positive:
        bad = parameters[~(np.isfinite(parameters) & (parameters > 0.0))]
        if bad.size:
            raise RRMatrixError(f"{name} must be positive and finite, got {bad[0]}")
    else:
        bad = parameters[~((parameters >= 0.0) & (parameters <= 1.0))]
        if bad.size:
            raise ValidationError(f"{name} must lie in [0, 1], got {bad[0]}")
    return parameters


def _symmetric_stack(
    n_categories: int, diagonal: np.ndarray, off_diagonal: np.ndarray, name: str
) -> np.ndarray:
    """``(S, n, n)`` stack whose matrix ``i`` has ``diagonal[i]`` on the
    diagonal and ``off_diagonal[i]`` elsewhere, built as one array and
    validated once with the bounds, column-sum check and clip that
    :class:`RRMatrix` applies to each matrix."""
    stack = np.repeat(off_diagonal, n_categories * n_categories).reshape(
        off_diagonal.size, n_categories, n_categories
    )
    cells = np.arange(n_categories)
    stack[:, cells, cells] = diagonal[:, None]
    stack = check_stochastic_stack(stack, name)
    return np.clip(stack, 0.0, 1.0, out=stack)


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
