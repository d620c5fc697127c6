"""Property-based tests (hypothesis) on the core invariants.

These tests exercise the mathematical invariants the paper relies on over a
broad space of randomly generated priors and RR matrices:

* RR matrices stay column-stochastic under every variation operator;
* privacy lies in ``[0, 1 - max P(X)]`` and Theorem 5 holds;
* the closed-form utility is non-negative and decreases with ``N``;
* the inversion estimator is exact on the noiseless disguised distribution;
* Theorem 2 (Warner / UP / FRAPP equivalence) holds for arbitrary parameters;
* Pareto dominance is irreflexive and antisymmetric;
* the 2-D hypervolume never shrinks when a point is added.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.operators import (
    column_crossover_batch,
    enforce_privacy_bound_batch,
    proportional_column_mutation_batch,
)
from repro.data.distribution import CategoricalDistribution
from repro.emoo.dominance import dominance_matrix_from_arrays
from repro.emoo.indicators import hypervolume_2d
from repro.rr.estimation import InversionEstimator, IterativeEstimator
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import (
    frapp_matrix,
    uniform_perturbation_matrix,
    warner_equivalent_p,
    warner_matrix,
)
from tests.oracles.scalar import max_posterior, privacy_score, theoretical_mse, utility_score

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- strategies ---------------------------------------------------------------
@st.composite
def priors(draw, min_categories: int = 2, max_categories: int = 8):
    """A random non-degenerate categorical prior."""
    n = draw(st.integers(min_categories, max_categories))
    weights = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(0.05, 10.0, allow_nan=False, allow_infinity=False),
        )
    )
    return CategoricalDistribution.from_weights(weights)


@st.composite
def rr_matrices(draw, n: int | None = None, min_categories: int = 2, max_categories: int = 8):
    """A random column-stochastic RR matrix."""
    if n is None:
        n = draw(st.integers(min_categories, max_categories))
    columns = []
    for _ in range(n):
        weights = draw(
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
            )
        )
        columns.append(weights / weights.sum())
    return RRMatrix(np.column_stack(columns))


@st.composite
def priors_and_matrices(draw):
    prior = draw(priors())
    matrix = draw(rr_matrices(n=prior.n_categories))
    return prior, matrix


def assert_column_stochastic(matrix: RRMatrix) -> None:
    assert np.all(matrix.probabilities >= -1e-12)
    assert np.all(matrix.probabilities <= 1.0 + 1e-12)
    np.testing.assert_allclose(matrix.probabilities.sum(axis=0), 1.0, atol=1e-8)


# -- operator invariants ---------------------------------------------------------
class TestOperatorInvariants:
    @SETTINGS
    @given(pair=priors_and_matrices(), other_seed=st.integers(0, 2**31 - 1))
    def test_crossover_preserves_stochasticity(self, pair, other_seed):
        _, matrix = pair
        rng = np.random.default_rng(other_seed)
        other = RRMatrix(
            np.random.default_rng(other_seed + 1).dirichlet(
                np.ones(matrix.n_categories), size=matrix.n_categories
            ).T
        )
        children = column_crossover_batch(
            matrix.probabilities[None], other.probabilities[None], rng
        )
        for child in children:
            assert_column_stochastic(RRMatrix.from_validated(child[0]))

    @SETTINGS
    @given(matrix=rr_matrices(), seed=st.integers(0, 2**31 - 1), scale=st.floats(0.01, 1.0))
    def test_mutation_preserves_stochasticity(self, matrix, seed, scale):
        mutated = proportional_column_mutation_batch(
            matrix.probabilities[None], np.random.default_rng(seed), scale=scale
        )
        assert_column_stochastic(RRMatrix.from_validated(mutated[0]))

    @SETTINGS
    @given(pair=priors_and_matrices(), delta_offset=st.floats(0.01, 0.3))
    def test_bound_repair_preserves_stochasticity_and_never_worsens(self, pair, delta_offset):
        prior, matrix = pair
        delta = min(0.999, prior.max_probability + delta_offset)
        repaired = RRMatrix.from_validated(
            enforce_privacy_bound_batch(matrix.probabilities[None], prior.probabilities, delta)[0]
        )
        assert_column_stochastic(repaired)
        assert (
            max_posterior(repaired, prior.probabilities)
            <= max_posterior(matrix, prior.probabilities) + 1e-9
        )


# -- metric invariants ---------------------------------------------------------
class TestMetricInvariants:
    @SETTINGS
    @given(pair=priors_and_matrices())
    def test_privacy_is_bounded(self, pair):
        prior, matrix = pair
        privacy = privacy_score(matrix, prior.probabilities)
        assert -1e-12 <= privacy <= 1.0 - prior.max_probability + 1e-9

    @SETTINGS
    @given(pair=priors_and_matrices())
    def test_theorem5_posterior_lower_bound(self, pair):
        prior, matrix = pair
        assert max_posterior(matrix, prior.probabilities) >= prior.max_probability - 1e-9

    @SETTINGS
    @given(pair=priors_and_matrices(), n_records=st.integers(10, 100_000))
    def test_utility_nonnegative_and_scales_with_n(self, pair, n_records):
        prior, matrix = pair
        if not matrix.is_invertible:
            return
        mse = theoretical_mse(matrix, prior.probabilities, n_records)
        assert np.all(mse >= -1e-10)
        double = utility_score(matrix, prior.probabilities, 2 * n_records)
        single = utility_score(matrix, prior.probabilities, n_records)
        assert double == pytest.approx(single / 2, rel=1e-9, abs=1e-18)

    @SETTINGS
    @given(pair=priors_and_matrices())
    def test_inversion_estimator_exact_on_noiseless_input(self, pair):
        prior, matrix = pair
        if not matrix.is_invertible or matrix.condition > 1e6:
            return
        disguised = matrix.disguise_distribution(prior.probabilities)
        estimate = InversionEstimator().estimate(disguised * 10_000, matrix)
        np.testing.assert_allclose(estimate.probabilities, prior.probabilities, atol=1e-6)

    @SETTINGS
    @given(pair=priors_and_matrices())
    def test_iterative_estimator_returns_distribution(self, pair):
        prior, matrix = pair
        disguised = matrix.disguise_distribution(prior.probabilities)
        estimate = IterativeEstimator(max_iterations=300).estimate(disguised * 1000, matrix)
        assert np.all(estimate.probabilities >= -1e-12)
        assert estimate.probabilities.sum() == pytest.approx(1.0)


# -- scheme equivalence (Theorem 2) --------------------------------------------
class TestSchemeEquivalenceProperty:
    @SETTINGS
    @given(n=st.integers(2, 12), q=st.floats(0.0, 1.0))
    def test_up_is_a_warner_matrix(self, n, q):
        p = warner_equivalent_p(n, q=q)
        assert uniform_perturbation_matrix(n, q).isclose(warner_matrix(n, p), atol=1e-9)

    @SETTINGS
    @given(n=st.integers(2, 12), gamma=st.floats(0.1, 1e4))
    def test_frapp_is_a_warner_matrix(self, n, gamma):
        p = warner_equivalent_p(n, gamma=gamma)
        assert frapp_matrix(n, gamma).isclose(warner_matrix(n, p), atol=1e-9)

    @SETTINGS
    @given(pair=priors_and_matrices(), q=st.floats(0.0, 1.0))
    def test_equivalent_matrices_have_equal_objectives(self, pair, q):
        prior, _ = pair
        n = prior.n_categories
        p = warner_equivalent_p(n, q=q)
        up = uniform_perturbation_matrix(n, q)
        warner = warner_matrix(n, p)
        assert privacy_score(up, prior.probabilities) == pytest.approx(
            privacy_score(warner, prior.probabilities)
        )
        # Near-singular pairs (q -> 1/n) amplify rounding through the inverse
        # far past any fixed tolerance; guard like the estimator properties.
        if up.is_invertible and up.condition <= 1e6:
            assert utility_score(up, prior.probabilities, 1000) == pytest.approx(
                utility_score(warner, prior.probabilities, 1000), rel=1e-6
            )


# -- dominance and indicators -----------------------------------------------------
class TestDominanceProperties:
    @SETTINGS
    @given(
        objectives=hnp.arrays(
            np.float64, (2, 2), elements=st.floats(-5, 5, allow_nan=False)
        )
    )
    def test_dominance_is_irreflexive_and_antisymmetric(self, objectives):
        matrix = dominance_matrix_from_arrays(objectives)
        assert not matrix.diagonal().any()
        assert not (matrix[0, 1] and matrix[1, 0])

    @SETTINGS
    @given(
        points=hnp.arrays(np.float64, (6, 2), elements=st.floats(0.0, 1.0, allow_nan=False)),
        extra=hnp.arrays(np.float64, (1, 2), elements=st.floats(0.0, 1.0, allow_nan=False)),
    )
    def test_hypervolume_monotone_under_addition(self, points, extra):
        reference = (1.5, 1.5)
        base = hypervolume_2d(points, reference)
        augmented = hypervolume_2d(np.vstack([points, extra]), reference)
        assert augmented >= base - 1e-12


# -- disguise mechanism ------------------------------------------------------------
class TestMechanismProperties:
    @SETTINGS
    @given(pair=priors_and_matrices(), seed=st.integers(0, 2**31 - 1))
    def test_randomization_keeps_codes_in_domain(self, pair, seed):
        from repro.rr.randomize import RandomizedResponse

        prior, matrix = pair
        codes = prior.sample(500, seed=seed)
        disguised = RandomizedResponse(matrix).randomize_codes(codes, seed=seed + 1)
        assert disguised.shape == codes.shape
        assert disguised.min() >= 0
        assert disguised.max() < matrix.n_categories
