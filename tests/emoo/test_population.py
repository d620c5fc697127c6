"""Tests for the structure-of-arrays Population (repro.emoo.population)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.emoo.individual import Individual
from repro.emoo.population import Population
from repro.exceptions import OptimizationError


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
    def test_individual_view_builds_genome_and_metadata(self):
        population = make_population(3)
        view = population.individual(1, genome_builder=lambda row: row.sum())
        assert isinstance(view, Individual)
        assert view.genome == pytest.approx(population.genomes[1].sum())
        # Columnar metadata comes back as plain Python scalars.
        assert isinstance(view.metadata["privacy"], float)
        assert isinstance(view.metadata["flag"], bool)

    def test_individual_view_carries_stamped_fitness(self):
        population = make_population(2)
        population.set_fitness(np.array([0.5, 1.5]), generation=0)
        assert population.individual(1).fitness == 1.5
