"""Bridging randomized response and local differential privacy (LDP).

The paper predates the differential-privacy formulation, but its RR matrices
are exactly the mechanisms studied today under *local differential privacy*:
a column-stochastic matrix ``M`` satisfies ``epsilon``-LDP when

``M[y, x] <= exp(epsilon) * M[y, x']``  for every report ``y`` and every pair
of inputs ``x, x'``.

This module provides that modern lens on the paper's objects:

* :func:`ldp_epsilon` — the smallest ``epsilon`` a matrix satisfies;
* :func:`satisfies_ldp` — check a matrix against a target ``epsilon``;
* :func:`k_rr_matrix` — the optimal-utility ``epsilon``-LDP mechanism
  (k-ary randomized response), which coincides with the Warner scheme at
  ``p = e^eps / (e^eps + n - 1)``;
* :func:`epsilon_for_delta_bound` — translate the paper's worst-case
  posterior bound ``delta`` (Eq. 9) into the ``epsilon`` that guarantees it
  for a given prior, and vice versa.

These are closed forms derived independently of the production privacy
kernel, so the LDP tests use them as a second opinion on it: the worst
posterior :func:`repro.metrics.evaluation.evaluate_stack` reports never
exceeds :func:`max_posterior_under_ldp` at the matrix's own epsilon, and
:func:`repro.metrics.privacy.check_bound_feasible` refuses exactly the
``delta`` that :func:`epsilon_for_delta_bound` refuses (Theorem 5).
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix
from repro.utils.validation import check_in_unit_interval, check_positive_int, check_probability_vector

#: Probabilities below this value are treated as zero when computing epsilon;
#: a true zero entry makes the likelihood ratio (and epsilon) infinite.
_ZERO_TOLERANCE = 1e-15


def ldp_epsilon(matrix: RRMatrix) -> float:
    """The smallest ``epsilon`` such that ``matrix`` satisfies epsilon-LDP.

    Returns ``inf`` when some report has zero probability under one input but
    positive probability under another (the likelihood ratio is unbounded).
    """
    probabilities = matrix.probabilities
    worst = 0.0
    for row in probabilities:
        positive = row > _ZERO_TOLERANCE
        if not np.any(positive):
            continue
        if not np.all(positive):
            return float("inf")
        ratio = float(row.max() / row.min())
        worst = max(worst, ratio)
    return math.log(worst) if worst > 0 else 0.0


def satisfies_ldp(matrix: RRMatrix, epsilon: float, *, atol: float = 1e-9) -> bool:
    """Whether ``matrix`` satisfies ``epsilon``-local differential privacy."""
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    return ldp_epsilon(matrix) <= epsilon + atol


def k_rr_matrix(n_categories: int, epsilon: float) -> RRMatrix:
    """The k-ary randomized response (k-RR) mechanism for ``epsilon``-LDP.

    k-RR keeps the true value with probability
    ``e^eps / (e^eps + n - 1)`` and reports any other value with probability
    ``1 / (e^eps + n - 1)``.  It is exactly the Warner scheme (and, by the
    paper's Theorem 2, the UP and FRAPP schemes) parameterised by epsilon,
    and is the utility-optimal epsilon-LDP mechanism for small domains.
    """
    check_positive_int(n_categories, "n_categories")
    if epsilon < 0 or not np.isfinite(epsilon):
        raise ValidationError(f"epsilon must be a non-negative finite value, got {epsilon}")
    exp_eps = math.exp(epsilon)
    retention = exp_eps / (exp_eps + n_categories - 1)
    return warner_matrix(n_categories, retention)


def epsilon_of_k_rr(n_categories: int, retention: float) -> float:
    """Inverse of :func:`k_rr_matrix`: the epsilon of a Warner/k-RR matrix
    with diagonal ``retention``."""
    check_positive_int(n_categories, "n_categories")
    check_in_unit_interval(retention, "retention")
    off_diagonal = (1.0 - retention) / (n_categories - 1)
    if off_diagonal <= 0:
        return float("inf")
    if retention <= off_diagonal:
        return 0.0 if math.isclose(retention, off_diagonal) else math.log(off_diagonal / retention)
    return math.log(retention / off_diagonal)


def max_posterior_under_ldp(prior: np.ndarray, epsilon: float) -> float:
    """Worst-case posterior (Eq. 9 left-hand side) guaranteed by epsilon-LDP.

    For any epsilon-LDP mechanism, Bayes' rule bounds every posterior by

    ``P(x | y) <= e^eps P(x) / (e^eps P(x) + 1 - P(x))``

    evaluated at the largest prior probability.  The bound is tight for the
    k-RR mechanism in the limit of a dominant prior category.
    """
    prior = check_probability_vector(prior, "prior")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    p_max = float(prior.max())
    exp_eps = math.exp(epsilon)
    return exp_eps * p_max / (exp_eps * p_max + 1.0 - p_max)


def epsilon_for_delta_bound(prior: np.ndarray, delta: float) -> float:
    """Largest ``epsilon`` whose LDP guarantee implies the paper's worst-case
    bound ``max P(X | Y) <= delta`` for this prior.

    Solving the posterior bound for epsilon gives
    ``epsilon = log( delta (1 - p_max) / (p_max (1 - delta)) )``.
    By Theorem 5 the bound is only satisfiable when ``delta >= p_max``; a
    ``delta`` below that raises :class:`ValidationError`.
    """
    prior = check_probability_vector(prior, "prior")
    check_in_unit_interval(delta, "delta", inclusive_low=False, inclusive_high=False)
    p_max = float(prior.max())
    if delta < p_max:
        raise ValidationError(
            f"delta={delta} is below the largest prior probability {p_max:.6f}; "
            "no mechanism can satisfy it (Theorem 5)"
        )
    return math.log(delta * (1.0 - p_max) / (p_max * (1.0 - delta)))
