"""Tests for repro.analysis.front."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.front import ParetoFront
from repro.core.optimizer import OptRROptimizer
from repro.data.synthetic import normal_distribution
from repro.emoo.dominance import non_dominated_indices
from repro.exceptions import ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import FrappFamily, UniformPerturbationFamily, WarnerFamily
from repro.rr.schemes import warner_matrix


class TestFromPoints:
    def test_sorted_by_privacy(self):
        front = ParetoFront.from_points("test", [(0.7, 1e-4), (0.3, 5e-5), (0.5, 8e-5)],
                                        keep_dominated=True)
        assert np.all(np.diff(front.privacy) >= 0)

    def test_dominated_points_removed_by_default(self):
        front = ParetoFront.from_points(
            "test", [(0.5, 1e-4), (0.6, 5e-5), (0.4, 2e-4)]
        )
        # (0.6, 5e-5) dominates both other points.
        assert len(front) == 1
        assert front.privacy[0] == pytest.approx(0.6)

    def test_dominated_point_within_isclose_tolerance_is_removed(self):
        # The dominated point differs from the dominating one by less than
        # np.isclose's default atol in both objectives.
        front = ParetoFront.from_points("x", [(0.5 - 1e-9, 1.005e-6), (0.5, 1.0e-6)])
        assert [(point.privacy, point.utility) for point in front] == [(0.5, 1.0e-6)]

    def test_keep_dominated_flag(self):
        front = ParetoFront.from_points(
            "test", [(0.5, 1e-4), (0.6, 5e-5)], keep_dominated=True
        )
        assert len(front) == 2

    def test_empty_front(self):
        front = ParetoFront.from_points("empty", [])
        assert front.is_empty
        with pytest.raises(ValidationError):
            front.privacy_range


class TestFromResultAndFamily:
    def test_result_front_carries_matrices(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        front = result.front
        assert not front.is_empty
        assert all(point.matrix is not None for point in front)
        # The front is a view into the spectrum's stack, not a copy of it.
        assert front.stack is result.spectrum.stack

    def test_from_family_filters_bound_violations(self, normal_prior):
        delta = 0.7
        front = ParetoFront.from_family(
            WarnerFamily(10), normal_prior, 10_000, delta=delta, n_points=101
        )
        evaluator = MatrixEvaluator(normal_prior, 10_000, delta)
        for point in front:
            assert evaluator.evaluate(point.matrix).feasible

    def test_from_family_without_bound_spans_full_range(self, normal_prior):
        front = ParetoFront.from_family(WarnerFamily(10), normal_prior, 10_000, n_points=101)
        low, high = front.privacy_range
        assert low == pytest.approx(0.0, abs=1e-6)
        assert high > 0.7

    def test_from_matrices_excludes_singular(self, small_prior, evaluator):
        from repro.rr.matrix import RRMatrix

        stack = np.stack([RRMatrix.uniform(4).probabilities, warner_matrix(4, 0.8).probabilities])
        front = ParetoFront.from_matrices("mixed", stack, evaluator)
        assert len(front) == 1

    def test_from_matrices_of_nothing_is_empty(self, evaluator):
        assert ParetoFront.from_matrices("none", np.empty((0, 4, 4)), evaluator).is_empty

    @pytest.mark.parametrize(
        "n_categories, delta, n_points", [(10, 0.8, 1001), (64, None, 101)]
    )
    @pytest.mark.parametrize(
        "family_type", [WarnerFamily, UniformPerturbationFamily, FrappFamily]
    )
    def test_from_family_matches_per_matrix_evaluation(
        self, family_type, n_categories, delta, n_points
    ):
        """One batched evaluation of the sweep gives exactly the points one
        ``evaluate`` call per matrix gives (n = 64 spans several row blocks)."""
        prior = normal_distribution(n_categories)
        family = family_type(n_categories)
        evaluator = MatrixEvaluator(prior, 10_000, delta)
        per_matrix = []
        for parameter in family.parameter_grid(n_points):
            matrix = family.matrix(parameter)
            evaluation = evaluator.evaluate(matrix)
            if evaluation.feasible and np.isfinite(evaluation.utility):
                per_matrix.append(
                    (evaluation.privacy, evaluation.utility, matrix.probabilities.tobytes())
                )
        objectives = np.array([(-privacy, utility) for privacy, utility, _ in per_matrix])
        expected = sorted(
            (per_matrix[row] for row in non_dominated_indices(objectives)),
            key=lambda point: point[:2],
        )
        front = ParetoFront.from_family(family, prior, 10_000, delta=delta, n_points=n_points)

        assert len(front) > 1
        assert [
            (point.privacy, point.utility, point.matrix.probabilities.tobytes())
            for point in front
        ] == expected


class TestQueries:
    @pytest.fixture
    def simple_front(self) -> ParetoFront:
        return ParetoFront.from_points(
            "simple", [(0.2, 1e-5), (0.4, 5e-5), (0.6, 2e-4), (0.8, 1e-3)], keep_dominated=True
        )

    def test_as_arrays(self, simple_front):
        minimisation = simple_front.as_minimization_array()
        assert minimisation.shape == (4, 2)
        np.testing.assert_array_equal(minimisation[:, 0], -simple_front.privacy)
        np.testing.assert_array_equal(minimisation[:, 1], simple_front.utility)

    def test_take_shares_the_stack(self):
        stack = np.stack([warner_matrix(3, p).probabilities for p in (0.4, 0.6, 0.8)])
        front = ParetoFront("f", [0.3, 0.2, 0.1], [1.0, 2.0, 3.0], stack=stack)
        taken = front.take(np.array([2, 0]))
        assert taken.stack is front.stack and np.shares_memory(taken.stack, stack)
        assert taken.privacy.tolist() == [0.1, 0.3]
        assert taken[0].matrix == warner_matrix(3, 0.8)
        assert taken[1].matrix == warner_matrix(3, 0.4)
        assert taken[0].max_posterior is None
        assert ParetoFront("bare", [0.1], [1.0])[0].matrix is None

    def test_columns_are_read_only(self):
        """Nothing writes through a front; the caller's arrays stay writable."""
        privacy, stack = np.array([0.3, 0.1]), np.stack([np.eye(2), np.eye(2)])
        front = ParetoFront("f", privacy, [1.0, 2.0], [0.5, 0.6], stack=stack)
        for column in (front.privacy, front.utility, front.max_posterior, front.stack):
            with pytest.raises(ValueError):
                column[0] = 0.0
        assert privacy.flags.writeable and stack.flags.writeable
        assert front.take(np.array([1])).privacy.flags.writeable is False

    def test_columns_must_align(self):
        with pytest.raises(ValidationError):
            ParetoFront("f", [0.1, 0.2], [1.0])
        with pytest.raises(ValidationError):
            ParetoFront("f", [0.1], [1.0], stack=np.eye(2)[None].repeat(2, axis=0))
