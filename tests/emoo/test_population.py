"""Tests for the structure-of-arrays Population (repro.emoo.population)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from repro.rr.matrix import RRMatrix


def make_population(size: int = 4, with_metadata: bool = True) -> Population:
    rng = np.random.default_rng(0)
    return Population(
        genomes=rng.random((size, 3, 3)),
        objectives=rng.random((size, 2)),
        feasible=np.ones(size, dtype=bool),
        metadata=(
            {"privacy": np.linspace(0.1, 0.9, size), "flag": np.zeros(size, dtype=bool)}
            if with_metadata
            else {}
        ),
    )


class TestConstruction:
    def test_basic_shape_and_defaults(self):
        population = make_population(5)
        assert len(population) == 5
        assert population.size == 5
        assert np.all(np.isnan(population.fitness))
        assert population.fitness_generation == -1

    def test_rejects_mismatched_genomes(self):
        with pytest.raises(OptimizationError):
            Population(
                genomes=np.zeros((3, 2, 2)),
                objectives=np.zeros((4, 2)),
                feasible=np.ones(4, dtype=bool),
            )

    def test_rejects_mismatched_feasible(self):
        with pytest.raises(OptimizationError):
            Population(
                genomes=np.zeros((3, 2, 2)),
                objectives=np.zeros((3, 2)),
                feasible=np.ones(2, dtype=bool),
            )

    def test_rejects_mismatched_metadata_column(self):
        with pytest.raises(OptimizationError):
            Population(
                genomes=np.zeros((3, 2, 2)),
                objectives=np.zeros((3, 2)),
                feasible=np.ones(3, dtype=bool),
                metadata={"privacy": np.zeros(2)},
            )

    def test_rejects_1d_objectives(self):
        with pytest.raises(OptimizationError):
            Population(
                genomes=np.zeros((3, 2, 2)),
                objectives=np.zeros(3),
                feasible=np.ones(3, dtype=bool),
            )


class TestTakeConcat:
    def test_take_slices_every_column(self):
        population = make_population(5)
        population.set_fitness(np.arange(5.0), generation=2)
        taken = population.take(np.array([3, 0]))
        assert taken.size == 2
        assert np.array_equal(taken.objectives, population.objectives[[3, 0]])
        assert np.array_equal(taken.genomes, population.genomes[[3, 0]])
        assert np.array_equal(taken.metadata["privacy"], population.metadata["privacy"][[3, 0]])
        assert np.array_equal(taken.fitness, np.array([3.0, 0.0]))
        assert taken.fitness_generation == 2

    def test_take_copies_rows(self):
        population = make_population(4)
        taken = population.take(np.array([1]))
        taken.objectives[0, 0] = 123.0
        assert population.objectives[1, 0] != 123.0

    def test_concat_joins_and_resets_fitness(self):
        first = make_population(3)
        second = make_population(2)
        first.set_fitness(np.zeros(3), generation=5)
        joined = Population.concat(first, second)
        assert joined.size == 5
        assert joined.fitness_generation == -1
        assert np.all(np.isnan(joined.fitness))
        assert np.array_equal(joined.objectives[:3], first.objectives)
        assert np.array_equal(joined.objectives[3:], second.objectives)

    def test_concat_joins_any_number_of_populations(self):
        parts = [make_population(size) for size in (1, 3, 2)]
        joined = Population.concat(*parts)
        assert joined.size == 6
        assert np.array_equal(joined.genomes, np.concatenate([p.genomes for p in parts]))
        assert np.array_equal(
            joined.metadata["flag"], np.concatenate([p.metadata["flag"] for p in parts])
        )
        assert Population.concat(parts[1]).objectives.tobytes() == parts[1].objectives.tobytes()

    def test_concat_rejects_mismatched_metadata(self):
        first = make_population(2, with_metadata=True)
        second = make_population(2, with_metadata=False)
        with pytest.raises(OptimizationError):
            Population.concat(first, second)


class TestFitnessStamp:
    def test_require_fresh_fitness_returns_column(self):
        population = make_population(3)
        population.set_fitness(np.array([0.1, 0.2, 0.3]), generation=7)
        assert np.array_equal(
            population.require_fresh_fitness(7), np.array([0.1, 0.2, 0.3])
        )

    def test_require_fresh_fitness_rejects_stale_stamp(self):
        population = make_population(3)
        population.set_fitness(np.zeros(3), generation=7)
        with pytest.raises(OptimizationError, match="stale fitness"):
            population.require_fresh_fitness(8)

    def test_unassigned_fitness_is_always_stale(self):
        population = make_population(3)
        with pytest.raises(OptimizationError, match="stale fitness"):
            population.require_fresh_fitness(0)

    def test_set_fitness_rejects_wrong_shape(self):
        population = make_population(3)
        with pytest.raises(OptimizationError):
            population.set_fitness(np.zeros(2), generation=0)


class TestViews:
    """A candidate is a row: ``take`` gives a one-row population, and the RR
    problem's ``population_individual`` turns a row into a result point."""

    def test_individual_view_builds_genome_and_metadata(self):
        problem = RRMatrixProblem(normal_distribution(3), n_records=500)
        population = problem.initial_population_soa(3, np.random.default_rng(0))
        point = problem.population_individual(population, np.array([1]))[0]
        assert isinstance(point.matrix, RRMatrix)
        assert point.matrix.probabilities.tobytes() == population.genomes[1].tobytes()
        # Metadata columns come back as plain Python floats.
        assert isinstance(point.privacy, float)
        assert point.privacy == population.metadata["privacy"][1]
        assert point.max_posterior == population.metadata["max_posterior"][1]

    def test_individual_view_carries_stamped_fitness(self):
        population = make_population(2)
        population.set_fitness(np.array([0.5, 1.5]), generation=0)
        row = population.take([1])
        assert row.fitness.tolist() == [1.5]
        assert row.fitness_generation == 0
        assert row.metadata["flag"].dtype == bool
