"""Distribution estimators for randomized-response disguised data.

Two estimators are implemented, matching Section III-A of the paper:

* :class:`InversionEstimator` — the closed-form unbiased MLE
  ``P_hat = M^-1 P*_hat`` (Theorem 1), where ``P*_hat`` is the empirical
  distribution of the disguised data.
* :class:`IterativeEstimator` — the Bayes-update fixed-point iteration of
  Agrawal et al. (Eq. 3), which never produces negative probabilities and is
  used in the paper's Figure 5(d) to confirm that the optimized matrices also
  win when this estimator is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distribution import CategoricalDistribution
from repro.exceptions import EstimationError
from repro.rr.matrix import RRMatrix
from repro.utils.validation import check_positive_int, check_probability_vector


@dataclass(frozen=True)
class DistributionEstimate:
    """Result of estimating the original distribution from disguised data.

    Attributes
    ----------
    probabilities:
        The estimated original distribution.  The inversion estimator may
        produce values slightly outside ``[0, 1]``; they are reported raw in
        ``raw_probabilities`` and clipped/renormalised here.
    raw_probabilities:
        The uncorrected estimate (useful for diagnostics and for computing
        unbiased errors).
    n_iterations:
        Number of iterations performed (0 for the closed-form estimator).
    converged:
        Whether the estimator converged (always True for the inversion
        estimator).
    """

    probabilities: np.ndarray
    raw_probabilities: np.ndarray
    n_iterations: int = 0
    converged: bool = True

    def as_distribution(self, categories: tuple[str, ...] | None = None) -> CategoricalDistribution:
        """Return the (corrected) estimate as a distribution object."""
        return CategoricalDistribution(
            self.probabilities, tuple(categories) if categories else ()
        )

    def mean_squared_error(self, true_probabilities: np.ndarray) -> float:
        """Mean squared error of the corrected estimate against the truth."""
        truth = check_probability_vector(true_probabilities, "true_probabilities")
        return float(np.mean((self.probabilities - truth) ** 2))


def _empirical_disguised_distribution(disguised_counts: np.ndarray, n_categories: int) -> np.ndarray:
    counts = np.asarray(disguised_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size != n_categories:
        raise EstimationError(
            f"disguised counts must be a vector of length {n_categories}, "
            f"got shape {counts.shape}"
        )
    if np.any(counts < 0):
        raise EstimationError("disguised counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise EstimationError("disguised counts must not be all zero")
    return counts / total


def counts_from_codes(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """Histogram integer-coded disguised values into per-category counts."""
    check_positive_int(n_categories, "n_categories")
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.ndim != 1 or codes.size == 0:
        raise EstimationError("codes must be a non-empty one-dimensional array")
    # Single-pass domain check: viewed as uint64, negatives wrap to huge
    # values, so one `>= n` comparison covers both bounds.
    if (codes.view(np.uint64) >= np.uint64(n_categories)).any():
        raise EstimationError(f"codes must lie in [0, {n_categories})")
    return np.bincount(codes, minlength=n_categories).astype(np.float64)


@dataclass(frozen=True)
class InversionEstimator:
    """Closed-form unbiased MLE via matrix inversion (Theorem 1).

    Parameters
    ----------
    clip_negative:
        When True (default), the corrected estimate clips negative entries to
        zero and renormalises; the raw estimate is always preserved in
        ``raw_probabilities``.
    """

    clip_negative: bool = True

    def estimate(self, disguised_counts: np.ndarray, matrix: RRMatrix) -> DistributionEstimate:
        """Estimate the original distribution from disguised counts."""
        p_star = _empirical_disguised_distribution(disguised_counts, matrix.n_categories)
        raw = matrix.inverse() @ p_star
        corrected = raw.copy()
        if self.clip_negative:
            corrected = np.clip(corrected, 0.0, None)
            total = corrected.sum()
            if total <= 0:
                raise EstimationError(
                    "inversion estimate collapsed to the zero vector; the RR "
                    "matrix is too close to singular for this sample"
                )
            corrected = corrected / total
        return DistributionEstimate(corrected, raw, n_iterations=0, converged=True)

    def estimate_from_codes(self, codes: np.ndarray, matrix: RRMatrix) -> DistributionEstimate:
        """Estimate from raw disguised codes rather than counts."""
        return self.estimate(counts_from_codes(codes, matrix.n_categories), matrix)


@dataclass(frozen=True)
class IterativeEstimator:
    """Iterative Bayes-update estimator (Agrawal et al., Eq. 3).

    Starting from an initial guess (uniform by default), each step applies

    ``P_{k+1}(c_j) = sum_i P*(c_i) * M[i, j] P_k(c_j) / sum_l M[i, l] P_k(c_l)``

    until successive iterates change by less than ``tolerance`` (L1 norm) or
    ``max_iterations`` is reached.

    Parameters
    ----------
    max_iterations:
        Iteration budget.
    tolerance:
        L1 convergence threshold on successive iterates.
    raise_on_nonconvergence:
        When True, a non-converged run raises ``EstimationError``; otherwise
        the last iterate is returned with ``converged=False``.
    """

    max_iterations: int = 10_000
    tolerance: float = 1e-9
    raise_on_nonconvergence: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.max_iterations, "max_iterations")
        if self.tolerance <= 0:
            raise EstimationError("tolerance must be positive")

    def estimate(
        self,
        disguised_counts: np.ndarray,
        matrix: RRMatrix,
        *,
        initial: np.ndarray | None = None,
    ) -> DistributionEstimate:
        """Estimate the original distribution from disguised counts."""
        n = matrix.n_categories
        p_star = _empirical_disguised_distribution(disguised_counts, n)
        if initial is None:
            current = np.full(n, 1.0 / n)
        else:
            current = check_probability_vector(initial, "initial")
            if current.size != n:
                raise EstimationError(
                    f"initial estimate must have length {n}, got {current.size}"
                )
        theta = matrix.probabilities  # theta[i, j] = P(Y = c_i | X = c_j)
        iterations = 0
        converged = False
        # Per-iteration workspaces: the `theta / safe` weighting previously
        # built two fresh (n, n) temporaries every iteration.  Writing the
        # division into a reused buffer and zeroing the impossible-report
        # rows in place is the same op sequence — identical quotients where
        # denominators > 0, exact 0.0 elsewhere — so iterates are unchanged.
        safe = np.empty(n)
        weights = np.empty_like(theta)
        for iterations in range(1, self.max_iterations + 1):
            denominators = theta @ current  # P_k(Y = c_i)
            # Avoid division by zero for reports that are impossible under the
            # current iterate; their posterior contribution is zero anyway.
            impossible = denominators <= 0
            np.copyto(safe, denominators)
            safe[impossible] = 1.0
            np.divide(theta, safe[:, None], out=weights)
            weights[impossible, :] = 0.0
            updated = current * (p_star @ weights)
            total = updated.sum()
            if total <= 0:
                raise EstimationError("iterative estimator collapsed to zero mass")
            updated = updated / total
            if np.abs(updated - current).sum() < self.tolerance:
                current = updated
                converged = True
                break
            current = updated
        if not converged and self.raise_on_nonconvergence:
            raise EstimationError(
                f"iterative estimator did not converge in {self.max_iterations} iterations"
            )
        # One defensive copy serves both fields: the iterative estimate needs
        # no clipping, so the corrected and raw views are the same vector.
        final = current.copy()
        return DistributionEstimate(
            final, final, n_iterations=iterations, converged=converged
        )

    def estimate_from_codes(
        self, codes: np.ndarray, matrix: RRMatrix, *, initial: np.ndarray | None = None
    ) -> DistributionEstimate:
        """Estimate from raw disguised codes rather than counts."""
        counts = counts_from_codes(codes, matrix.n_categories)
        return self.estimate(counts, matrix, initial=initial)


#: Keyword options each estimation method understands: constructor options of
#: the underlying estimator, plus (for the iterative method) the ``initial``
#: guess forwarded to the estimate call itself.
_INVERSION_OPTIONS = frozenset({"clip_negative"})
_ITERATIVE_CONSTRUCTOR_OPTIONS = frozenset(
    {"max_iterations", "tolerance", "raise_on_nonconvergence"}
)
_ITERATIVE_OPTIONS = _ITERATIVE_CONSTRUCTOR_OPTIONS | {"initial"}


def _check_options(method: str, options: dict, accepted: frozenset[str]) -> None:
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise EstimationError(
            f"unknown option(s) {', '.join(map(repr, unknown))} for the "
            f"{method!r} method; accepted: {', '.join(map(repr, sorted(accepted)))}"
        )


def estimate_distribution(
    codes: np.ndarray,
    matrix: RRMatrix,
    *,
    method: str = "inversion",
    **options,
) -> DistributionEstimate:
    """Convenience wrapper: estimate the original distribution from disguised
    codes using the named method (``"inversion"`` or ``"iterative"``).

    Keyword options are forwarded to the underlying estimator:

    * ``inversion`` accepts ``clip_negative``;
    * ``iterative`` accepts ``max_iterations``, ``tolerance``,
      ``raise_on_nonconvergence`` and the ``initial`` guess.

    An option the chosen method does not understand raises
    :class:`EstimationError` listing the accepted names.
    """
    if method == "inversion":
        _check_options(method, options, _INVERSION_OPTIONS)
        return InversionEstimator(**options).estimate_from_codes(codes, matrix)
    if method == "iterative":
        _check_options(method, options, _ITERATIVE_OPTIONS)
        initial = options.pop("initial", None)
        return IterativeEstimator(**options).estimate_from_codes(
            codes, matrix, initial=initial
        )
    raise EstimationError(f"unknown estimation method {method!r}")
