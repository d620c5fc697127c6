"""The randomized-response (RR) matrix abstraction.

An RR matrix ``M`` for a domain of ``n`` categories is an ``n x n``
column-stochastic matrix whose entry ``M[j, i]`` (the paper's ``theta_{j,i}``)
is the probability that an original value ``c_i`` is reported as ``c_j``.
Columns therefore sum to one.  The disguised distribution is ``P* = M P``
(Eq. 1 in the paper).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import RRMatrixError
from repro.types import MatrixLike, SeedLike, as_rng
from repro.utils.linalg import condition_number, is_invertible, safe_inverse
from repro.utils.validation import (
    check_matrix_stack,
    check_positive_int,
    check_stochastic_columns,
)


@dataclass(frozen=True)
class RRMatrix:
    """A validated column-stochastic randomized-response matrix.

    Parameters
    ----------
    probabilities:
        Square array with ``probabilities[j, i] = P(report c_j | true c_i)``.

    Notes
    -----
    The object is immutable; operators that modify matrices (crossover,
    mutation, repair) return new instances.  The inverse is computed lazily
    and cached because the closed-form utility metric (Theorem 6) needs
    ``M^-1`` for every candidate matrix evaluated by the optimizer.
    """

    probabilities: np.ndarray
    _inverse_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrix = check_stochastic_columns(self.probabilities, "RR matrix")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "probabilities", matrix)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: MatrixLike) -> "RRMatrix":
        """Build an RR matrix from a row-major nested sequence."""
        return cls(np.asarray(rows, dtype=np.float64))

    @classmethod
    def from_validated(cls, probabilities: np.ndarray) -> "RRMatrix":
        """Wrap an already-validated column-stochastic array without re-checking.

        This is the trusted fast path for arrays produced *inside* the
        optimization engine (the batched operators and the bound repair only
        emit column-stochastic matrices), where re-running the ``allclose``
        validation per matrix would put object construction back on the hot
        path.  The array is still copied and frozen, so the instance owns
        immutable storage.  Use the regular constructor for untrusted input.
        """
        matrix = np.array(probabilities, dtype=np.float64)
        matrix.flags.writeable = False
        instance = object.__new__(cls)
        object.__setattr__(instance, "probabilities", matrix)
        object.__setattr__(instance, "_inverse_cache", [])
        return instance

    @classmethod
    def identity(cls, n_categories: int) -> "RRMatrix":
        """The identity matrix: no disguise at all (worst privacy, best
        utility; the paper's ``M1`` example)."""
        check_positive_int(n_categories, "n_categories")
        return cls(np.eye(n_categories))

    @classmethod
    def uniform(cls, n_categories: int) -> "RRMatrix":
        """The total-randomization matrix: every value is replaced by a
        uniformly random category (best privacy, worst utility; the paper's
        ``M2`` example)."""
        check_positive_int(n_categories, "n_categories")
        return cls(np.full((n_categories, n_categories), 1.0 / n_categories))

    # -- protocol ----------------------------------------------------------
    @property
    def n_categories(self) -> int:
        """Domain size ``n``."""
        return int(self.probabilities.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the underlying array."""
        return tuple(self.probabilities.shape)  # type: ignore[return-value]

    def as_array(self) -> np.ndarray:
        """Return a writable copy of the probability array."""
        return np.array(self.probabilities, copy=True)

    def __getitem__(self, index) -> float | np.ndarray:
        return self.probabilities[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RRMatrix):
            return NotImplemented
        return bool(np.array_equal(self.probabilities, other.probabilities))

    def __hash__(self) -> int:
        return hash(self.probabilities.tobytes())

    def isclose(self, other: "RRMatrix", *, atol: float = 1e-9) -> bool:
        """Return True when both matrices are element-wise close."""
        if self.n_categories != other.n_categories:
            return False
        return bool(np.allclose(self.probabilities, other.probabilities, atol=atol))

    # -- linear algebra ----------------------------------------------------
    @property
    def is_invertible(self) -> bool:
        """Whether the matrix can be inverted for the inversion estimator."""
        return is_invertible(self.probabilities)

    @property
    def condition(self) -> float:
        """2-norm condition number of the matrix."""
        return condition_number(self.probabilities)

    def inverse(self) -> np.ndarray:
        """Return ``M^-1`` (cached), raising ``SingularMatrixError`` when the
        matrix is not invertible."""
        if not self._inverse_cache:
            self._inverse_cache.append(safe_inverse(self.probabilities))
        return self._inverse_cache[0]

    def disguise_distribution(self, prior: np.ndarray) -> np.ndarray:
        """Return the disguised distribution ``P* = M P`` for prior ``P``."""
        prior = np.asarray(prior, dtype=np.float64)
        if prior.shape != (self.n_categories,):
            raise RRMatrixError(
                f"prior must have shape ({self.n_categories},), got {prior.shape}"
            )
        return self.probabilities @ prior

    # -- parameters for the optimizer ---------------------------------------
    def column(self, index: int) -> np.ndarray:
        """Return a copy of column ``index`` (the distribution of the report
        for true value ``c_{index}``)."""
        return np.array(self.probabilities[:, index], copy=True)

    def replace_column(self, index: int, column: np.ndarray) -> "RRMatrix":
        """Return a new matrix with column ``index`` replaced."""
        matrix = self.as_array()
        matrix[:, index] = column
        return RRMatrix(matrix)

    def diagonal(self) -> np.ndarray:
        """Return a copy of the diagonal (the retention probabilities)."""
        return np.array(np.diag(self.probabilities), copy=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RRMatrix(n={self.n_categories})"


def stack_matrices(matrices: "list[RRMatrix] | tuple[RRMatrix, ...]") -> np.ndarray:
    """Stack a sequence of same-domain RR matrices into a ``(B, n, n)`` array.

    The batch-evaluation engine and the batched variation operators work on
    stacked arrays; this is the boundary where ``RRMatrix`` objects enter the
    vectorized world.
    """
    if not matrices:
        raise RRMatrixError("cannot stack an empty sequence of matrices")
    n = matrices[0].n_categories
    for matrix in matrices:
        if matrix.n_categories != n:
            raise RRMatrixError(
                f"cannot stack matrices with mixed domains ({matrix.n_categories} != {n})"
            )
    return np.stack([matrix.probabilities for matrix in matrices])


def unstack_matrices(stack: np.ndarray) -> list[RRMatrix]:
    """Turn a ``(B, n, n)`` array back into validated :class:`RRMatrix`
    objects (the inverse of :func:`stack_matrices`)."""
    return [RRMatrix(matrix) for matrix in check_matrix_stack(stack)]


def as_matrix_stack(matrices: "np.ndarray | list[RRMatrix]") -> np.ndarray:
    """Accept either a ``(B, n, n)`` array or a list of :class:`RRMatrix` and
    return the stacked array (copying only in the list case)."""
    if isinstance(matrices, np.ndarray):
        return check_matrix_stack(matrices)
    return stack_matrices(list(matrices))


def random_rr_matrix(
    n_categories: int,
    seed: SeedLike = None,
    *,
    diagonal_bias: float = 0.0,
) -> RRMatrix:
    """Generate a random column-stochastic RR matrix.

    Each column is drawn from a flat Dirichlet distribution.  A positive
    ``diagonal_bias`` adds mass to the diagonal before renormalising, which
    produces matrices closer to the identity; the optimizer's initial
    population mixes unbiased and diagonally-biased matrices so the starting
    front spans a wide privacy range.
    """
    check_positive_int(n_categories, "n_categories")
    if diagonal_bias < 0:
        raise RRMatrixError("diagonal_bias must be non-negative")
    rng = as_rng(seed)
    matrix = rng.dirichlet(np.ones(n_categories), size=n_categories).T
    if diagonal_bias > 0:
        matrix = matrix + diagonal_bias * np.eye(n_categories)
        matrix = matrix / matrix.sum(axis=0, keepdims=True)
    return RRMatrix(matrix)


def matrix_digest(matrix: RRMatrix) -> str:
    """SHA-256 of a matrix's full-precision entries.

    The single digest convention shared by the pipeline's cell cache keys,
    its disguise-stream derivation (:func:`repro.pipeline.runner.
    disguise_seed`) and the ``optrr disguise`` report.
    """
    payload = json.dumps(matrix.probabilities.tolist())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
