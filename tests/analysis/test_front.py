"""Tests for repro.analysis.front."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.front import FrontPoint, ParetoFront
from repro.core.optimizer import OptRROptimizer
from repro.data.synthetic import normal_distribution
from repro.exceptions import ValidationError
from repro.metrics.evaluation import MatrixEvaluator
from repro.rr.family import FrappFamily, UniformPerturbationFamily, WarnerFamily
from repro.rr.schemes import warner_matrix


class TestFrontPoint:
    def test_dominates(self):
        better = FrontPoint(privacy=0.6, utility=1e-4)
        worse = FrontPoint(privacy=0.5, utility=2e-4)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_tradeoff_points_incomparable(self):
        a = FrontPoint(privacy=0.6, utility=2e-4)
        b = FrontPoint(privacy=0.5, utility=1e-4)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_equal_points_do_not_dominate(self):
        a = FrontPoint(privacy=0.5, utility=1e-4)
        assert not a.dominates(FrontPoint(privacy=0.5, utility=1e-4))


class TestFromPoints:
    def test_sorted_by_privacy(self):
        front = ParetoFront.from_points("test", [(0.7, 1e-4), (0.3, 5e-5), (0.5, 8e-5)],
                                        keep_dominated=True)
        privacies = front.privacy_values()
        assert np.all(np.diff(privacies) >= 0)

    def test_dominated_points_removed_by_default(self):
        front = ParetoFront.from_points(
            "test", [(0.5, 1e-4), (0.6, 5e-5), (0.4, 2e-4)]
        )
        # (0.6, 5e-5) dominates both other points.
        assert len(front) == 1
        assert front.privacy_values()[0] == pytest.approx(0.6)

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
    def test_from_result(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        front = ParetoFront.from_result("optrr", result)
        assert not front.is_empty
        assert all(point.matrix is not None for point in front)

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

        front = ParetoFront.from_matrices(
            "mixed", [RRMatrix.uniform(4), warner_matrix(4, 0.8)], evaluator
        )
        assert len(front) == 1

    def test_from_matrices_of_nothing_is_empty(self, evaluator):
        assert ParetoFront.from_matrices("none", [], evaluator).is_empty

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
        for matrix in family.matrices(n_points):
            evaluation = evaluator.evaluate(matrix)
            if evaluation.feasible and np.isfinite(evaluation.utility):
                per_matrix.append(FrontPoint(evaluation.privacy, evaluation.utility, matrix))
        expected = ParetoFront.from_points(family.name, per_matrix)
        front = ParetoFront.from_family(family, prior, 10_000, delta=delta, n_points=n_points)

        def key(front):
            return [
                (point.privacy, point.utility, point.matrix.probabilities.tobytes())
                for point in front
            ]

        assert len(front) > 1
        assert key(front) == key(expected)


class TestQueries:
    @pytest.fixture
    def simple_front(self) -> ParetoFront:
        return ParetoFront.from_points(
            "simple", [(0.2, 1e-5), (0.4, 5e-5), (0.6, 2e-4), (0.8, 1e-3)], keep_dominated=True
        )

    def test_utility_at_privacy(self, simple_front):
        assert simple_front.utility_at_privacy(0.5) == pytest.approx(2e-4)
        assert simple_front.utility_at_privacy(0.2) == pytest.approx(1e-5)

    def test_utility_at_unreachable_privacy_is_inf(self, simple_front):
        assert simple_front.utility_at_privacy(0.95) == np.inf

    def test_best_point_for_privacy(self, simple_front):
        point = simple_front.best_point_for_privacy(0.5)
        assert point.privacy == pytest.approx(0.6)
        assert simple_front.best_point_for_privacy(0.95) is None

    def test_restrict_privacy(self, simple_front):
        restricted = simple_front.restrict_privacy(0.3, 0.7)
        assert len(restricted) == 2

    def test_as_arrays(self, simple_front):
        array = simple_front.as_array()
        minimisation = simple_front.as_minimization_array()
        assert array.shape == (4, 2)
        np.testing.assert_allclose(minimisation[:, 0], -array[:, 0])
        np.testing.assert_allclose(minimisation[:, 1], array[:, 1])
