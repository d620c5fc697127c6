"""Tests for repro.rr.multidim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, RRMatrixError
from repro.rr.matrix import RRMatrix, random_rr_matrix
from repro.rr.multidim import MultiDimensionalRR
from repro.rr.schemes import warner_matrix
from tests.oracles.randomize import randomize_dataset


def joint_distribution_from_marginals(marginals: list[np.ndarray]) -> np.ndarray:
    """Outer-product joint distribution of independent per-attribute
    marginals, flattened in the attribute order of the joint domain."""
    if not marginals:
        raise DataError("at least one marginal is required")
    joint = np.asarray(marginals[0], dtype=np.float64)
    for marginal in marginals[1:]:
        joint = np.outer(joint, np.asarray(marginal, dtype=np.float64)).ravel()
    return joint


@pytest.fixture
def two_attribute_dataset(rng) -> CategoricalDataset:
    n = 5000
    return CategoricalDataset.from_columns(
        {
            "a": rng.choice(3, size=n, p=[0.5, 0.3, 0.2]),
            "b": rng.choice(2, size=n, p=[0.7, 0.3]),
        },
        {"a": ("a0", "a1", "a2"), "b": ("b0", "b1")},
    )


class TestConstruction:
    def test_valid(self):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        assert rr.domain_sizes == (3, 2)
        assert rr.joint_domain_size == 6

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            MultiDimensionalRR(("a",), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))

    def test_duplicate_names(self):
        with pytest.raises(DataError):
            MultiDimensionalRR(("a", "a"), (warner_matrix(3, 0.7), warner_matrix(3, 0.8)))


class TestJointMatrix:
    def test_kronecker_structure(self):
        m1, m2 = warner_matrix(2, 0.9), warner_matrix(2, 0.6)
        joint = MultiDimensionalRR(("a", "b"), (m1, m2)).joint_matrix()
        np.testing.assert_allclose(
            joint.probabilities, np.kron(m1.probabilities, m2.probabilities)
        )

    def test_joint_is_column_stochastic(self):
        joint = MultiDimensionalRR(
            ("a", "b"), (warner_matrix(3, 0.5), warner_matrix(4, 0.7))
        ).joint_matrix()
        np.testing.assert_allclose(joint.probabilities.sum(axis=0), 1.0)

    @pytest.mark.parametrize("domain_sizes", [(2, 2), (3, 4), (2, 3, 2)])
    def test_disguises_independent_joint_into_product_of_marginals(self, domain_sizes):
        # P*(joint) = (M_1 kron M_2 ...) P(joint) factorises when the
        # attributes are independent: each marginal is disguised on its own.
        rng = np.random.default_rng(len(domain_sizes) * 10 + sum(domain_sizes))
        matrices = tuple(random_rr_matrix(size, rng) for size in domain_sizes)
        marginals = [rng.dirichlet(np.ones(size)) for size in domain_sizes]
        names = tuple(f"x{index}" for index in range(len(domain_sizes)))
        joint = MultiDimensionalRR(names, matrices).joint_matrix()
        np.testing.assert_allclose(
            joint.disguise_distribution(joint_distribution_from_marginals(marginals)),
            joint_distribution_from_marginals(
                [matrix.disguise_distribution(marginal) for matrix, marginal in zip(matrices, marginals)]
            ),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_refuses_huge_joint_domains(self):
        matrices = tuple(warner_matrix(20, 0.8) for _ in range(3))
        rr = MultiDimensionalRR(("a", "b", "c"), matrices)
        with pytest.raises(RRMatrixError, match="too large"):
            rr.joint_matrix()


class TestRandomizeAndEstimate:
    def test_randomize_both_attributes(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        disguised = rr.randomize(two_attribute_dataset, seed=0)
        assert disguised.n_records == two_attribute_dataset.n_records
        # With retention < 1 the columns should not be identical.
        assert not np.array_equal(disguised.column("a"), two_attribute_dataset.column("a"))

    def test_joint_estimation_recovers_joint_distribution(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        disguised = rr.randomize(two_attribute_dataset, seed=1)
        estimate = rr.estimate_joint_distribution(disguised)
        joint_codes = rr.encode_joint(two_attribute_dataset)
        truth = np.bincount(joint_codes, minlength=6) / two_attribute_dataset.n_records
        assert np.abs(estimate.probabilities - truth).max() < 0.05

    def test_marginal_estimation(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        disguised = rr.randomize(two_attribute_dataset, seed=2)
        marginals = rr.estimate_marginals(disguised)
        truth_a = two_attribute_dataset.distribution("a").probabilities
        assert np.abs(marginals["a"].probabilities - truth_a).max() < 0.05

    def test_unknown_method(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        with pytest.raises(DataError):
            rr.estimate_joint_distribution(two_attribute_dataset, method="magic")


class TestEncodeJoint:
    def test_mixed_radix_encoding(self):
        dataset = CategoricalDataset.from_columns(
            {"a": [0, 1, 2], "b": [1, 0, 1]},
            {"a": ("x", "y", "z"), "b": ("u", "v")},
        )
        rr = MultiDimensionalRR(("a", "b"), (RRMatrix.identity(3), RRMatrix.identity(2)))
        np.testing.assert_array_equal(rr.encode_joint(dataset), [1, 2, 5])


class TestJointFromMarginals:
    def test_outer_product(self):
        joint = joint_distribution_from_marginals([np.array([0.5, 0.5]), np.array([0.2, 0.8])])
        np.testing.assert_allclose(joint, [0.1, 0.4, 0.1, 0.4])
        assert joint.sum() == pytest.approx(1.0)

    def test_requires_at_least_one(self):
        with pytest.raises(DataError):
            joint_distribution_from_marginals([])


class TestConstructionEdgeCases:
    def test_requires_at_least_one_attribute(self):
        with pytest.raises(DataError, match="at least one"):
            MultiDimensionalRR((), ())

    def test_single_attribute_joint_is_the_matrix_itself(self):
        matrix = warner_matrix(3, 0.7)
        rr = MultiDimensionalRR(("a",), (matrix,))
        assert rr.joint_domain_size == 3
        np.testing.assert_allclose(rr.joint_matrix().probabilities, matrix.probabilities)


class TestEncodeJointValidation:
    def test_rejects_codes_outside_matrix_domain(self):
        dataset = CategoricalDataset.from_columns(
            {"a": [0, 2], "b": [0, 1]},
            {"a": ("x", "y", "z"), "b": ("u", "v")},
        )
        rr = MultiDimensionalRR(("a", "b"), (RRMatrix.identity(2), RRMatrix.identity(2)))
        with pytest.raises(DataError, match="outside the matrix domain"):
            rr.encode_joint(dataset)


class TestEstimationMethods:
    def test_iterative_joint_estimation(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        disguised = rr.randomize(two_attribute_dataset, seed=4)
        estimate = rr.estimate_joint_distribution(disguised, method="iterative")
        joint_codes = rr.encode_joint(two_attribute_dataset)
        truth = np.bincount(joint_codes, minlength=6) / two_attribute_dataset.n_records
        assert np.abs(estimate.probabilities - truth).max() < 0.05
        # The iterative (EM) estimator always lands on a simplex point.
        assert np.all(estimate.probabilities >= 0.0)
        assert estimate.probabilities.sum() == pytest.approx(1.0)

    def test_iterative_marginals(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        disguised = rr.randomize(two_attribute_dataset, seed=5)
        marginals = rr.estimate_marginals(disguised, method="iterative")
        truth_b = two_attribute_dataset.distribution("b").probabilities
        assert np.abs(marginals["b"].probabilities - truth_b).max() < 0.05

    def test_marginals_unknown_method(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        with pytest.raises(DataError, match="unknown estimation method"):
            rr.estimate_marginals(two_attribute_dataset, method="magic")


class TestRandomizeDeterminism:
    def test_same_seed_same_disguise(self, two_attribute_dataset):
        rr = MultiDimensionalRR(("a", "b"), (warner_matrix(3, 0.7), warner_matrix(2, 0.8)))
        first = rr.randomize(two_attribute_dataset, seed=9)
        second = rr.randomize(two_attribute_dataset, seed=9)
        np.testing.assert_array_equal(first.column("a"), second.column("a"))
        np.testing.assert_array_equal(first.column("b"), second.column("b"))

    @pytest.mark.parametrize("seed", [0, 9, 2024])
    def test_matches_per_attribute_reference(self, two_attribute_dataset, seed):
        matrices = {"a": warner_matrix(3, 0.7), "b": warner_matrix(2, 0.8)}
        rr = MultiDimensionalRR(tuple(matrices), tuple(matrices.values()))
        disguised = rr.randomize(two_attribute_dataset, seed=seed)
        reference = randomize_dataset(two_attribute_dataset, matrices, seed=seed)
        for name in matrices:
            np.testing.assert_array_equal(disguised.column(name), reference.column(name))

    def test_untouched_attributes_survive(self, rng):
        dataset = CategoricalDataset.from_columns(
            {"a": rng.choice(3, size=100), "c": rng.choice(2, size=100)},
            {"a": ("x", "y", "z"), "c": ("u", "v")},
        )
        rr = MultiDimensionalRR(("a",), (warner_matrix(3, 0.6),))
        disguised = rr.randomize(dataset, seed=1)
        np.testing.assert_array_equal(disguised.column("c"), dataset.column("c"))


class TestJointFromMarginalsEdgeCases:
    def test_single_marginal_is_returned_as_is(self):
        marginal = np.array([0.3, 0.7])
        np.testing.assert_allclose(joint_distribution_from_marginals([marginal]), marginal)

    def test_three_way_product_sums_to_one(self):
        joint = joint_distribution_from_marginals(
            [np.array([0.5, 0.5]), np.array([0.2, 0.8]), np.array([0.9, 0.1])]
        )
        assert joint.shape == (8,)
        assert joint.sum() == pytest.approx(1.0)
