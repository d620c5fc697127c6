"""Synthetic categorical data generators used in the paper's evaluation.

Section VI of the paper evaluates OptRR on single-attribute synthetic datasets
of 10 000 records with 10 category values whose probabilities follow a normal,
gamma or (discrete) uniform distribution.  The generators here discretise the
named continuous distribution onto ``n_categories`` equal-width bins covering
the bulk of its mass, producing the prior ``P(X)``, and can then sample a
dataset from that prior.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.distribution import CategoricalDistribution
from repro.exceptions import DataError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_positive_int, normalize_probabilities

#: Number of quadrature points per bin used when integrating a density.
_QUADRATURE_POINTS = 64


def _discretize_density(
    density: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    n_categories: int,
) -> np.ndarray:
    """Integrate ``density`` over ``n_categories`` equal-width bins of
    ``[lower, upper]`` and normalise the bin masses into probabilities."""
    if upper <= lower:
        raise DataError("upper bound must exceed lower bound")
    edges = np.linspace(lower, upper, n_categories + 1)
    masses = np.empty(n_categories, dtype=np.float64)
    for index in range(n_categories):
        xs = np.linspace(edges[index], edges[index + 1], _QUADRATURE_POINTS)
        masses[index] = np.trapezoid(density(xs), xs)
    return normalize_probabilities(masses, "bin masses")


def normal_distribution(
    n_categories: int = 10,
    *,
    mean: float = 0.0,
    std: float = 1.0,
    span_sigmas: float = 3.0,
) -> CategoricalDistribution:
    """Discretised normal prior used for Figure 4.

    The density of ``N(mean, std)`` is integrated over ``n_categories``
    equal-width bins spanning ``mean +/- span_sigmas * std``.
    """
    check_positive_int(n_categories, "n_categories")
    if std <= 0:
        raise DataError("std must be positive")
    if span_sigmas <= 0:
        raise DataError("span_sigmas must be positive")

    def density(xs: np.ndarray) -> np.ndarray:
        z = (xs - mean) / std
        return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))

    probs = _discretize_density(
        density, mean - span_sigmas * std, mean + span_sigmas * std, n_categories
    )
    return CategoricalDistribution(probs)


def gamma_distribution(
    n_categories: int = 10,
    *,
    alpha: float = 1.0,
    beta: float = 2.0,
    upper_quantile_mass: float = 0.995,
) -> CategoricalDistribution:
    """Discretised gamma prior used for Figure 5(a) and 5(d).

    ``alpha`` is the shape and ``beta`` the scale parameter (the paper's
    ``alpha = 1.0, beta = 2.0``).  The density is integrated over equal-width
    bins of ``[0, U]`` where ``U`` captures ``upper_quantile_mass`` of the
    distribution's mass.
    """
    check_positive_int(n_categories, "n_categories")
    if alpha <= 0 or beta <= 0:
        raise DataError("alpha and beta must be positive")
    if not 0.5 < upper_quantile_mass < 1.0:
        raise DataError("upper_quantile_mass must be in (0.5, 1.0)")

    def density(xs: np.ndarray) -> np.ndarray:
        xs = np.maximum(xs, 1e-300)
        log_pdf = (
            (alpha - 1.0) * np.log(xs)
            - xs / beta
            - alpha * math.log(beta)
            - math.lgamma(alpha)
        )
        return np.exp(log_pdf)

    upper = _gamma_quantile(upper_quantile_mass, alpha, beta)
    probs = _discretize_density(density, 0.0, upper, n_categories)
    return CategoricalDistribution(probs)


def _gamma_quantile(q: float, alpha: float, beta: float) -> float:
    """Approximate the ``q`` quantile of Gamma(alpha, beta) by bisection on the
    regularised lower incomplete gamma function."""
    lower, upper = 0.0, beta * max(alpha, 1.0)
    while _gamma_cdf(upper, alpha, beta) < q:
        upper *= 2.0
        if upper > 1e9:  # pragma: no cover - defensive
            break
    for _ in range(200):
        middle = 0.5 * (lower + upper)
        if _gamma_cdf(middle, alpha, beta) < q:
            lower = middle
        else:
            upper = middle
    return upper


def _gamma_cdf(x: float, alpha: float, beta: float) -> float:
    """Regularised lower incomplete gamma function ``P(alpha, x / beta)``.

    Uses the series expansion for small arguments and the continued fraction
    for large ones (Numerical Recipes style), which is accurate to ~1e-12 and
    avoids a SciPy dependency in the core library.
    """
    if x <= 0:
        return 0.0
    z = x / beta
    if z < alpha + 1.0:
        # Series representation.
        term = 1.0 / alpha
        total = term
        a = alpha
        for _ in range(500):
            a += 1.0
            term *= z / a
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return total * math.exp(-z + alpha * math.log(z) - math.lgamma(alpha))
    # Continued fraction representation of Q, return 1 - Q.
    tiny = 1e-300
    b = z + 1.0 - alpha
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q_upper = math.exp(-z + alpha * math.log(z) - math.lgamma(alpha)) * h
    return 1.0 - q_upper


def uniform_distribution(n_categories: int = 10) -> CategoricalDistribution:
    """Discrete uniform prior used for Figure 5(b)."""
    check_positive_int(n_categories, "n_categories")
    return CategoricalDistribution.uniform(n_categories)


def zipf_distribution(n_categories: int = 10, *, exponent: float = 1.0) -> CategoricalDistribution:
    """Zipf (power-law) prior, useful for additional skewed-data experiments."""
    check_positive_int(n_categories, "n_categories")
    if exponent <= 0:
        raise DataError("exponent must be positive")
    ranks = np.arange(1, n_categories + 1, dtype=np.float64)
    return CategoricalDistribution.from_weights(ranks ** (-exponent))


def geometric_distribution(
    n_categories: int = 10, *, success_probability: float = 0.4
) -> CategoricalDistribution:
    """Truncated geometric prior, another skewed synthetic workload."""
    check_positive_int(n_categories, "n_categories")
    if not 0.0 < success_probability < 1.0:
        raise DataError("success_probability must be in (0, 1)")
    ks = np.arange(n_categories, dtype=np.float64)
    weights = success_probability * (1.0 - success_probability) ** ks
    return CategoricalDistribution.from_weights(weights)


#: Named registry of the synthetic priors used throughout the experiments.
DISTRIBUTION_FACTORIES: dict[str, Callable[..., CategoricalDistribution]] = {
    "normal": normal_distribution,
    "gamma": gamma_distribution,
    "uniform": uniform_distribution,
    "zipf": zipf_distribution,
    "geometric": geometric_distribution,
}


def make_distribution(name: str, n_categories: int = 10, **kwargs) -> CategoricalDistribution:
    """Look up a synthetic prior by name (``normal``, ``gamma``, ...)."""
    try:
        factory = DISTRIBUTION_FACTORIES[name]
    except KeyError as exc:
        raise DataError(
            f"unknown distribution {name!r}; available: {sorted(DISTRIBUTION_FACTORIES)}"
        ) from exc
    return factory(n_categories, **kwargs)


def sample_dataset(
    distribution: CategoricalDistribution,
    n_records: int = 10_000,
    *,
    name: str = "attribute",
    seed: SeedLike = None,
) -> CategoricalDataset:
    """Sample a single-attribute dataset of ``n_records`` from ``distribution``.

    This mirrors the paper's synthetic workloads (10 000 records drawn from a
    10-category prior).
    """
    check_positive_int(n_records, "n_records")
    values = distribution.sample(n_records, seed=as_rng(seed))
    return CategoricalDataset.from_single_attribute(
        values, distribution.n_categories, name=name, categories=distribution.categories
    )
