"""Tests for repro.emoo.density and repro.emoo.fitness (SPEA2 components) and
the NSGA-II baseline's crowding distance (benchmarks/baselines/nsga2.py)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.baselines.nsga2 import crowding_distances_from_objectives
from repro.emoo.density import kth_nearest_distances, pairwise_distances, spea2_density
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.exceptions import OptimizationError
from tests.oracles import kernels as oracle


class TestPairwiseDistances:
    def test_symmetric_with_zero_diagonal(self, rng):
        points = rng.normal(size=(6, 2))
        distances = pairwise_distances(points)
        np.testing.assert_allclose(distances, distances.T)
        np.testing.assert_allclose(np.diag(distances), 0.0)

    def test_known_values(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_distances(points)
        assert distances[0, 1] == pytest.approx(5.0)


class TestKthNearestDistances:
    def test_k1_is_nearest_neighbour(self):
        points = np.array([[0.0], [1.0], [10.0]])
        distances = kth_nearest_distances(points, k=1)
        np.testing.assert_allclose(distances, [1.0, 1.0, 9.0])

    def test_k_clamped_to_population(self):
        points = np.array([[0.0], [1.0]])
        distances = kth_nearest_distances(points, k=10)
        np.testing.assert_allclose(distances, [1.0, 1.0])

    def test_single_point_gets_infinity(self):
        assert kth_nearest_distances(np.array([[1.0, 2.0]]), k=1)[0] == np.inf

    def test_rejects_k_zero(self):
        with pytest.raises(OptimizationError):
            kth_nearest_distances(np.array([[0.0]]), k=0)


@st.composite
def shared_infinity_points(draw):
    """2-D points where at least two rows are infinite, with the same sign,
    in the same objective, so at least one off-diagonal distance is NaN."""
    count = draw(st.integers(2, 40))
    dimensions = draw(st.integers(1, 4))
    values = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf]),
    )
    points = np.array(
        draw(st.lists(st.lists(values, min_size=dimensions, max_size=dimensions),
                      min_size=count, max_size=count)),
        dtype=np.float64,
    )
    rows = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=count, unique=True))
    points[rows, draw(st.integers(0, dimensions - 1))] = draw(st.sampled_from([np.inf, -np.inf]))
    return points


class TestNonFiniteObjectives:
    """The numerical contract of ``docs/invariants.md`` for ±inf objectives."""

    @given(points=shared_infinity_points(), k=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_kth_nearest_skips_nan_like_a_row_sort(self, points, k):
        distances = pairwise_distances(points)
        off_diagonal = ~np.eye(len(points), dtype=bool)
        assert np.isnan(distances[off_diagonal]).any()
        np.testing.assert_array_equal(
            kth_nearest_distances(points, k), oracle.kth_nearest_distances(distances, k)
        )

    def test_nan_neighbour_is_not_the_nearest(self):
        # Rows 0 and 1 share +inf in the first objective (NaN apart), so a
        # row min would return NaN; row 2 is their real, infinitely distant
        # nearest neighbour.
        points = np.array([[np.inf, 0.0], [np.inf, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(kth_nearest_distances(points, 1), [np.inf, np.inf, np.inf])

    @given(points=shared_infinity_points())
    @settings(max_examples=30, deadline=None)
    def test_distances_have_a_zero_diagonal_and_raise_no_warning(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distances = pairwise_distances(points)
        np.testing.assert_array_equal(np.diag(distances), np.zeros(len(points)))
        assert not np.signbit(distances[~np.isnan(distances)]).any()
        np.testing.assert_array_equal(distances, distances.T)

    def test_overflowing_squares_give_inf(self):
        distances = pairwise_distances(np.array([[1e200], [-1e200]]))
        np.testing.assert_array_equal(distances, [[0.0, np.inf], [np.inf, 0.0]])

    @given(points=shared_infinity_points())
    @settings(max_examples=30, deadline=None)
    def test_non_finite_sigma_maps_to_a_finite_density(self, points):
        densities = spea2_density(points)
        assert np.isfinite(densities).all()
        assert ((densities > 0.0) & (densities <= 0.5)).all()


class TestSpea2Density:
    def test_density_below_one(self, rng):
        points = rng.normal(size=(10, 2))
        densities = spea2_density(points)
        assert np.all(densities < 1.0)
        assert np.all(densities > 0.0)

    def test_crowded_point_has_higher_density(self):
        # Two close points and one far away: the far one is less crowded.
        points = np.array([[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]])
        densities = spea2_density(points)
        assert densities[0] > densities[2]
        assert densities[1] > densities[2]


class TestCrowdingDistance:
    def test_extremes_get_infinity(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        distances = crowding_distances_from_objectives(front)
        assert distances[0] == np.inf and distances[2] == np.inf
        assert np.isfinite(distances[1])

    def test_isolated_point_has_larger_distance(self):
        front = np.array([[0.0, 1.0], [0.05, 0.9], [0.1, 0.85], [1.0, 0.0]])
        distances = crowding_distances_from_objectives(front)
        # The interior point next to the isolated extreme is less crowded than
        # the interior point in the dense cluster.
        assert distances[2] > distances[1]

    def test_empty_front(self):
        assert crowding_distances_from_objectives(np.empty((0, 2))).size == 0


class TestSpea2Fitness:
    def test_nondominated_have_fitness_below_one(self, square_objectives):
        _, _, fitness = spea2_fitness_from_arrays(square_objectives)
        # (0, 0), row 2, dominates everything and is the only row with F < 1.
        np.testing.assert_array_equal(np.flatnonzero(fitness < 1.0), [2])

    def test_strength_counts_dominated(self, square_objectives):
        strengths, _, _ = spea2_fitness_from_arrays(square_objectives)
        # (0, 0) dominates the other four individuals.
        assert strengths[2] == 4
        # (1, 1) dominates nothing.
        assert strengths[3] == 0

    def test_raw_fitness_sums_dominator_strengths(self):
        objectives = np.array(
            [
                [0.0, 0.0],  # dominates both others -> strength 2
                [1.0, 1.0],  # dominated by first, dominates third
                [2.0, 2.0],  # dominated by both
            ]
        )
        _, _, fitness = spea2_fitness_from_arrays(objectives)
        assert fitness[0] < 1.0
        # Raw fitness of the middle: strength of its single dominator (2).
        assert int(fitness[1]) == 2
        # Raw fitness of the worst: strengths of both dominators (2 + 1 = 3).
        assert int(fitness[2]) == 3

    def test_more_dominated_individual_has_worse_fitness(self, square_objectives):
        _, _, fitness = spea2_fitness_from_arrays(square_objectives)
        # (1, 1), row 3, is dominated by three points; (0.6, 0.6), row 4, by
        # (0, 0) only.
        assert fitness[3] > fitness[4]

    def test_density_breaks_ties_between_nondominated(self):
        objectives = np.array(
            [
                [0.0, 1.0],
                [0.02, 0.98],  # crowded near the first
                [1.0, 0.0],  # isolated
            ]
        )
        _, _, fitness = spea2_fitness_from_arrays(objectives)
        assert np.all(fitness < 1.0)
        assert fitness[2] < fitness[1]

    def test_empty_population_is_noop(self):
        strengths, densities, fitness = spea2_fitness_from_arrays(np.empty((0, 2)))
        assert strengths.size == densities.size == fitness.size == 0
