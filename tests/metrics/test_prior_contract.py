"""The prior contract of the batched kernels.

A prior is validated once: when a :class:`CategoricalDistribution` is built,
or on entry to a public function handed a raw vector.  The kernels then work
on that vector and never re-validate it, so the generation loop makes no
validation calls at all.  These tests pin both halves: every public entry
point still rejects a bad raw prior with :class:`DataError`, and the number
of ``check_probability_vector`` calls in a bounded run does not grow with
the generation count.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.core.operators import enforce_privacy_bound_batch
from repro.core.optimizer import OptRROptimizer
from repro.data.synthetic import normal_distribution
from repro.exceptions import DataError
from repro.metrics.evaluation import MatrixEvaluator, evaluate_stack
from repro.metrics.privacy import joint_tensor, posterior_tensor
from repro.metrics.utility import theoretical_mse_batch
from repro.utils import validation

N = 3

BAD_PRIORS = {
    "nan": np.array([0.5, np.nan, 0.5]),
    "negative": np.array([0.7, -0.2, 0.5]),
    "sum-not-one": np.array([0.2, 0.2, 0.2]),
    "two-dimensional": np.full((1, N), 1.0 / N),
}

STACK = np.full((2, N, N), 1.0 / N)

ENTRY_POINTS = {
    "joint_tensor": lambda prior: joint_tensor(STACK, prior),
    "posterior_tensor": lambda prior: posterior_tensor(STACK, prior),
    "theoretical_mse_batch": lambda prior: theoretical_mse_batch(STACK, STACK, prior, 100),
    "evaluate_stack": lambda prior: evaluate_stack(STACK, prior, 100),
    "enforce_privacy_bound_batch": lambda prior: enforce_privacy_bound_batch(
        STACK, prior, 0.9
    ),
    "MatrixEvaluator": lambda prior: MatrixEvaluator(prior, 100),
}


@pytest.mark.parametrize("prior", BAD_PRIORS.values(), ids=BAD_PRIORS.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_public_entry_points_reject_a_bad_prior(call, prior):
    with pytest.raises(DataError):
        call(prior)


def _validation_calls(monkeypatch, generations: int) -> int:
    """``check_probability_vector`` calls made by building and running a
    bounded n = 10 optimizer for ``generations`` generations."""
    original = validation.check_probability_vector
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "check_probability_vector", None) is original
        ):
            monkeypatch.setattr(module, "check_probability_vector", counted)
    config = OptRRConfig(
        population_size=20, archive_size=20, n_generations=generations, delta=0.5, seed=3
    )
    OptRROptimizer(normal_distribution(10), 10_000, config).run()
    monkeypatch.undo()
    return calls


def test_a_bounded_run_validates_the_prior_a_fixed_number_of_times(monkeypatch):
    short = _validation_calls(monkeypatch, 10)
    assert short > 0
    assert _validation_calls(monkeypatch, 20) == short
