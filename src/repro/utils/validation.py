"""Input validation helpers.

Every public entry point of the library validates its inputs with these
functions so error messages are consistent and informative.  All functions
either return a normalised :class:`numpy.ndarray` or raise
:class:`repro.exceptions.ValidationError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DataError, RRMatrixError, ValidationError

#: Tolerance used when checking that probabilities sum to one.
PROBABILITY_ATOL = 1e-8


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_counter(value: object, name: str, *, at_most: int | None = None) -> int:
    """Validate a restored bookkeeping counter: a non-negative ``int`` (not a
    ``bool``), no larger than ``at_most`` when given; returns it."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    if at_most is not None and value > at_most:
        raise ValidationError(f"{name} {value} exceeds {at_most}")
    return value


def check_in_unit_interval(
    value: float,
    name: str,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies in the unit interval and return it."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[" if inclusive_low else "("
        high = "]" if inclusive_high else ")"
        raise ValidationError(f"{name} must be in {low}0, 1{high}, got {value}")
    return value


def check_probability_vector(
    probabilities: Sequence[float] | np.ndarray,
    name: str = "probabilities",
    *,
    atol: float = PROBABILITY_ATOL,
) -> np.ndarray:
    """Validate a probability vector and return it as ``float64`` array.

    The vector must be one-dimensional, non-empty, non-negative, finite and
    sum to one (within ``atol``).
    """
    array = np.asarray(probabilities, dtype=np.float64)
    if array.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} must contain only finite values")
    if np.any(array < -atol):
        raise DataError(f"{name} must be non-negative, got minimum {array.min()}")
    total = float(array.sum())
    # ``np.isclose(total, 1.0, atol=atol, rtol=0.0)`` for the finite or
    # +inf sum a finite vector has, without its array machinery.
    if not abs(total - 1.0) <= atol:
        raise DataError(f"{name} must sum to 1, got {total}")
    return np.clip(array, 0.0, 1.0)


def normalize_probabilities(
    weights: Sequence[float] | np.ndarray,
    name: str = "weights",
) -> np.ndarray:
    """Normalise non-negative ``weights`` into a probability vector."""
    array = np.asarray(weights, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise DataError(f"{name} must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(array)):
        raise DataError(f"{name} must contain only finite values")
    if np.any(array < 0):
        raise DataError(f"{name} must be non-negative")
    total = float(array.sum())
    if total <= 0:
        raise DataError(f"{name} must have a positive sum, got {total}")
    return array / total


def check_matrix_stack(
    stack: np.ndarray,
    name: str = "stack",
) -> np.ndarray:
    """Validate that ``stack`` is a ``(B, n, n)`` array of square matrices
    and return it as C-contiguous float64.  Shared by every batched entry
    point (stacked operators, batched metrics, batched linear algebra) so
    malformed stacks raise one exception type everywhere.

    The contiguity canonicalisation matters for determinism, not just speed:
    BLAS contractions round differently depending on operand memory layout,
    so the batched kernels only match their frozen oracles bit for bit when
    every caller hands them the same layout.  For the engine's own stacks
    this is a no-op (they are already contiguous)."""
    array = np.ascontiguousarray(stack, dtype=np.float64)
    if array.ndim != 3 or array.shape[-1] != array.shape[-2]:
        raise ValidationError(
            f"{name} must be a (B, n, n) stack of square matrices, got shape {array.shape}"
        )
    return array


def check_stochastic_stack(stack: np.ndarray, name: str = "stack") -> np.ndarray:
    """:func:`check_matrix_stack` plus :func:`check_stochastic_columns`'
    rules, for every matrix of the stack at once."""
    array = check_matrix_stack(stack, name)
    if not np.all(np.isfinite(array)):
        raise RRMatrixError(f"{name} must contain only finite values")
    if np.any(array < -PROBABILITY_ATOL) or np.any(array > 1.0 + PROBABILITY_ATOL):
        raise RRMatrixError(f"{name} entries must lie in [0, 1]")
    if not np.allclose(array.sum(axis=1), 1.0, atol=max(PROBABILITY_ATOL, 1e-6), rtol=0.0):
        raise RRMatrixError(f"{name} columns must each sum to 1")
    return array


def check_square_matrix(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    name: str = "matrix",
) -> np.ndarray:
    """Validate that ``matrix`` is a square 2-D array and return it."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise RRMatrixError(f"{name} must be a square 2-D matrix, got shape {array.shape}")
    if array.shape[0] == 0:
        raise RRMatrixError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise RRMatrixError(f"{name} must contain only finite values")
    return array


def check_stochastic_columns(
    matrix: Sequence[Sequence[float]] | np.ndarray,
    name: str = "matrix",
    *,
    atol: float = PROBABILITY_ATOL,
) -> np.ndarray:
    """Validate that ``matrix`` is square and column-stochastic.

    Each entry must lie in ``[0, 1]`` and every column must sum to one.  The
    validated matrix is returned with entries clipped to ``[0, 1]``.
    """
    array = check_square_matrix(matrix, name)
    if np.any(array < -atol) or np.any(array > 1.0 + atol):
        raise RRMatrixError(f"{name} entries must lie in [0, 1]")
    column_sums = array.sum(axis=0)
    if not np.allclose(column_sums, 1.0, atol=max(atol, 1e-6), rtol=0.0):
        raise RRMatrixError(
            f"{name} columns must each sum to 1, got sums {column_sums.tolist()}"
        )
    return np.clip(array, 0.0, 1.0)
