"""Adult-census-like dataset generator.

The paper's real-data experiment (Figure 5(c)) uses the UCI *Adult* dataset,
disguises one attribute at a time and plots the resulting Pareto fronts.  This
environment has no network access, so the real file cannot be downloaded.
Instead this module generates a *synthetic Adult-like dataset*: for each of a
representative subset of Adult attributes we embed an approximate marginal
distribution (category weights chosen to mimic the well-known skew of the
census attributes — e.g. a dominant "Private" workclass, a bell-shaped age
profile, a heavily skewed capital-gain indicator) and sample records
independently per attribute.

Why this substitution is faithful: the OptRR experiment consumes only the
*marginal prior* ``P(X)`` of a single attribute and the record count ``N``.
The privacy metric (Eq. 8) and the utility metric (Theorem 6) are functions of
``P(X)``, ``M`` and ``N`` alone; no cross-attribute structure enters the
optimization.  A synthetic sample drawn from a similarly skewed marginal
therefore exercises exactly the same code path and produces the same
qualitative Pareto-front shape as the real file.  The substitution is recorded
in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalAttribute, CategoricalDataset
from repro.data.distribution import CategoricalDistribution
from repro.exceptions import DataError
from repro.types import SeedLike, as_rng
from repro.utils.validation import check_positive_int

#: Default number of records; the real Adult training split has 32 561.
DEFAULT_N_RECORDS = 32_561

# Approximate marginal category weights for a representative subset of the
# Adult attributes.  The weights are *approximations* of the census skew (not
# copies of the data file); they only need to reproduce the qualitative shape
# (one or two dominant categories, a long tail) that drives Figure 5(c).
_ADULT_MARGINALS: dict[str, dict[str, float]] = {
    # The paper's "first attribute" is age, discretised.  Ten equal-width age
    # bands between 17 and 90 with a right-skewed, unimodal profile.
    "age": {
        "17-24": 0.16,
        "25-31": 0.18,
        "32-38": 0.17,
        "39-45": 0.16,
        "46-52": 0.12,
        "53-59": 0.09,
        "60-66": 0.06,
        "67-73": 0.03,
        "74-80": 0.02,
        "81-90": 0.01,
    },
    "workclass": {
        "Private": 0.70,
        "Self-emp-not-inc": 0.08,
        "Local-gov": 0.065,
        "State-gov": 0.04,
        "Self-emp-inc": 0.035,
        "Federal-gov": 0.03,
        "Unknown": 0.05,
    },
    "education": {
        "HS-grad": 0.32,
        "Some-college": 0.22,
        "Bachelors": 0.16,
        "Masters": 0.05,
        "Assoc-voc": 0.04,
        "11th": 0.04,
        "Assoc-acdm": 0.03,
        "10th": 0.03,
        "7th-8th": 0.02,
        "Other": 0.09,
    },
    "marital_status": {
        "Married-civ-spouse": 0.46,
        "Never-married": 0.33,
        "Divorced": 0.14,
        "Separated": 0.03,
        "Widowed": 0.03,
        "Married-spouse-absent": 0.01,
    },
    "occupation": {
        "Prof-specialty": 0.13,
        "Craft-repair": 0.13,
        "Exec-managerial": 0.12,
        "Adm-clerical": 0.12,
        "Sales": 0.11,
        "Other-service": 0.10,
        "Machine-op-inspct": 0.06,
        "Transport-moving": 0.05,
        "Handlers-cleaners": 0.04,
        "Other": 0.14,
    },
    "relationship": {
        "Husband": 0.40,
        "Not-in-family": 0.26,
        "Own-child": 0.16,
        "Unmarried": 0.11,
        "Wife": 0.05,
        "Other-relative": 0.02,
    },
    "race": {
        "White": 0.85,
        "Black": 0.10,
        "Asian-Pac-Islander": 0.03,
        "Amer-Indian-Eskimo": 0.01,
        "Other": 0.01,
    },
    "sex": {
        "Male": 0.67,
        "Female": 0.33,
    },
    "hours_per_week": {
        "0-19": 0.08,
        "20-34": 0.13,
        "35-39": 0.06,
        "40": 0.47,
        "41-49": 0.09,
        "50-59": 0.12,
        "60+": 0.05,
    },
    "income": {
        "<=50K": 0.76,
        ">50K": 0.24,
    },
}


def adult_attribute_names() -> tuple[str, ...]:
    """Names of the Adult-like attributes available from this module."""
    return tuple(_ADULT_MARGINALS)


def adult_attribute_distribution(name: str) -> CategoricalDistribution:
    """Return the (approximate) marginal prior of an Adult-like attribute."""
    try:
        marginal = _ADULT_MARGINALS[name]
    except KeyError as exc:
        raise DataError(
            f"unknown Adult attribute {name!r}; available: {sorted(_ADULT_MARGINALS)}"
        ) from exc
    return CategoricalDistribution.from_weights(
        np.asarray(list(marginal.values()), dtype=np.float64),
        tuple(marginal.keys()),
    )


def load_adult_like(
    n_records: int = DEFAULT_N_RECORDS,
    *,
    attributes: tuple[str, ...] | None = None,
    seed: SeedLike = None,
) -> CategoricalDataset:
    """Generate a synthetic Adult-like dataset.

    Parameters
    ----------
    n_records:
        Number of records to sample (defaults to the size of the real Adult
        training split).
    attributes:
        Subset of attribute names to include; defaults to all available.
    seed:
        Random seed or generator for reproducibility.
    """
    check_positive_int(n_records, "n_records")
    names = attributes if attributes is not None else adult_attribute_names()
    if not names:
        raise DataError("at least one attribute must be requested")
    rng = as_rng(seed)
    columns: list[np.ndarray] = []
    metadata: list[CategoricalAttribute] = []
    for name in names:
        distribution = adult_attribute_distribution(name)
        metadata.append(CategoricalAttribute(name, distribution.categories))
        columns.append(distribution.sample(n_records, seed=rng))
    return CategoricalDataset(tuple(metadata), np.column_stack(columns))
