"""Fixtures for the privacy-preserving mining tests.

A small synthetic "survey" dataset with a known dependence structure: the
class attribute ``buys`` depends strongly on ``income`` and weakly on
``region``.  The RR matrices disguise the predictive attributes; the class
attribute stays in the clear (the usual miner-side setting).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix
from tests.oracles.randomize import randomize_dataset


N_RECORDS = 8000


@pytest.fixture
def survey_dataset(rng) -> CategoricalDataset:
    income = rng.choice(3, size=N_RECORDS, p=[0.5, 0.3, 0.2])   # low, mid, high
    region = rng.choice(2, size=N_RECORDS, p=[0.6, 0.4])
    # P(buys=1) rises steeply with income, mildly with region.
    buy_probability = 0.15 + 0.35 * income + 0.05 * region
    buys = (rng.random(N_RECORDS) < buy_probability).astype(np.int64)
    return CategoricalDataset.from_columns(
        {"income": income, "region": region, "buys": buys},
        {
            "income": ("low", "mid", "high"),
            "region": ("north", "south"),
            "buys": ("no", "yes"),
        },
    )


@pytest.fixture
def survey_matrices() -> dict[str, RRMatrix]:
    return {"income": warner_matrix(3, 0.7), "region": warner_matrix(2, 0.8)}


@pytest.fixture
def disguised_survey(survey_dataset, survey_matrices) -> CategoricalDataset:
    return randomize_dataset(survey_dataset, survey_matrices, seed=99)
