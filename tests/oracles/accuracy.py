"""Adversary accuracy functions and Bayes estimation (Section IV-A).

The paper models the adversary's estimation quality with an accuracy function
``G(x_hat, x)`` and shows that, for any ``G``, the optimal consistent (and, by
Theorem 4, inconsistent) estimation strategy is the Bayes estimate that
maximises the expected accuracy under the posterior ``P(X | Y)``.  For the
paper's 0/1 accuracy function the Bayes estimate reduces to the MAP estimate
(Theorem 3); other accuracy functions express application-specific privacy
notions (e.g. partial credit for "close" categories on ordinal domains).

The Bayes estimate is written report by report, from the posterior and the
score matrix, not from the joint-tensor reductions the production kernel
uses.  The accuracy tests therefore check
:func:`repro.metrics.evaluation.evaluate_stack` against it: its privacy is
``1 - expected_accuracy`` and its worst posterior is the best 0/1 Bayes
score over the reports that can occur.  Nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int, check_probability_vector


class AccuracyFunction(ABC):
    """An accuracy score ``G(x_hat, x)`` for estimating ``x`` by ``x_hat``.

    Implementations return a full ``n x n`` score matrix with
    ``scores[estimate, truth] = G(c_estimate, c_truth)`` so Bayes estimation
    is a single matrix product.
    """

    @abstractmethod
    def score_matrix(self, n_categories: int) -> np.ndarray:
        """Return the ``n x n`` score matrix for a domain of ``n`` values."""

    def score(self, estimate: int, truth: int, n_categories: int) -> float:
        """Score a single (estimate, truth) pair."""
        matrix = self.score_matrix(n_categories)
        return float(matrix[estimate, truth])


@dataclass(frozen=True)
class ZeroOneAccuracy(AccuracyFunction):
    """The paper's accuracy function (Eq. 6): 1 when the guess is exactly
    right, 0 otherwise.  Its Bayes estimate is the MAP estimate."""

    def score_matrix(self, n_categories: int) -> np.ndarray:
        check_positive_int(n_categories, "n_categories")
        return np.eye(n_categories)


@dataclass(frozen=True)
class OrdinalAccuracy(AccuracyFunction):
    """Partial-credit accuracy for ordinal domains.

    The score decays linearly with the absolute difference of category
    indices: ``G(i, j) = max(0, 1 - |i - j| / width)``.  With ``width = 1``
    this reduces to the 0/1 function.
    """

    width: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValidationError("width must be positive")

    def score_matrix(self, n_categories: int) -> np.ndarray:
        check_positive_int(n_categories, "n_categories")
        indices = np.arange(n_categories)
        distance = np.abs(indices[:, None] - indices[None, :])
        return np.clip(1.0 - distance / self.width, 0.0, 1.0)


def bayes_estimate(
    posterior: np.ndarray,
    accuracy: AccuracyFunction | None = None,
) -> tuple[int, float]:
    """Optimal Bayes estimate for one observed report.

    Parameters
    ----------
    posterior:
        Posterior probabilities ``P(X = c_i | Y = y)`` over the ``n``
        candidate original values.
    accuracy:
        Accuracy function ``G``; defaults to the 0/1 function, for which this
        is the MAP estimate (Theorem 3).

    Returns
    -------
    tuple
        ``(best_index, expected_accuracy)`` — the estimate maximising the
        expected accuracy (Eq. 5) and the value it attains.
    """
    probs = check_probability_vector(posterior, "posterior")
    accuracy = accuracy or ZeroOneAccuracy()
    scores = accuracy.score_matrix(probs.size)
    expected = scores @ probs
    best = int(np.argmax(expected))
    return best, float(expected[best])


def expected_accuracy(
    prior: np.ndarray,
    rr_matrix: np.ndarray,
    accuracy: AccuracyFunction | None = None,
) -> float:
    """Adversary's overall expected accuracy ``A`` under optimal estimation.

    For each possible report ``y`` the adversary plays the Bayes estimate;
    the per-report expected accuracies are then averaged over the disguised
    distribution ``P(Y)``.  With the 0/1 accuracy function this equals
    ``sum_y max_x M[y, x] P(x)``, the quantity in Eq. 8.
    """
    prior = check_probability_vector(prior, "prior")
    matrix = np.asarray(rr_matrix, dtype=np.float64)
    if matrix.shape != (prior.size, prior.size):
        raise ValidationError(
            f"rr_matrix must have shape {(prior.size, prior.size)}, got {matrix.shape}"
        )
    accuracy = accuracy or ZeroOneAccuracy()
    scores = accuracy.score_matrix(prior.size)
    joint = matrix * prior[None, :]  # joint[y, x] = P(Y = y, X = x)
    # For report y, expected accuracy of guessing x_hat is
    # sum_x G(x_hat, x) P(x | y); weighting by P(y) turns posteriors into the
    # joint, so the per-report optimum is max over x_hat of (scores @ joint.T)
    per_report = scores @ joint.T  # shape (x_hat, y)
    return float(per_report.max(axis=0).sum())
