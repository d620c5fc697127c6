"""Tests for the OptRR optimizer (repro.core.optimizer)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.result import ParetoFront
from repro.core.config import OptRRConfig
from repro.core.archive import OptimalSet
from repro.core.optimizer import OptRROptimizer
from repro.data.synthetic import normal_distribution
from repro.emoo.dominance import non_dominated_indices
from repro.emoo.population import Population
from repro.exceptions import InfeasibleBoundError
from repro.metrics.evaluation import MatrixEvaluator
from repro.metrics.privacy import max_posterior
from repro.rr.family import WarnerFamily


def utility_at_privacy(front: ParetoFront, privacy: float) -> float:
    """Best (lowest) utility on ``front`` at privacy >= ``privacy`` (``inf``
    when the front does not reach it)."""
    reached = front.privacy >= privacy - 1e-12
    return float(front.utility[reached].min()) if reached.any() else float("inf")


class TestBasicRun:
    def test_produces_a_nonempty_front(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        assert len(result) > 0
        assert result.n_generations == fast_config.n_generations
        assert result.n_evaluations > 0

    def test_front_points_are_feasible_and_sorted(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        privacies = result.privacy_values()
        assert np.all(np.diff(privacies) >= 0)
        for point in result:
            assert point.max_posterior <= fast_config.delta + 1e-6
            np.testing.assert_allclose(
                point.matrix.probabilities.sum(axis=0), 1.0, atol=1e-9
            )

    def test_front_is_mutually_nondominated(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        points = list(result)
        for a in points:
            for b in points:
                if a is b:
                    continue
                dominates = (
                    a.privacy >= b.privacy
                    and a.utility <= b.utility
                    and (a.privacy > b.privacy or a.utility < b.utility)
                )
                assert not dominates

    def test_front_is_the_non_dominated_part_of_omega(self, small_prior, fast_config):
        """The front is exactly the Ω members no other member dominates."""
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        spectrum = [(point.privacy, point.utility) for point in result.spectrum]

        def dominated(p):
            return any(
                q[0] >= p[0] and q[1] <= p[1] and (q[0] > p[0] or q[1] < p[1])
                for q in spectrum
            )

        front = [(point.privacy, point.utility) for point in result]
        assert front == sorted(p for p in spectrum if not dominated(p))
        assert len(front) < len(spectrum)

    def test_reproducible_with_seed(self, small_prior, fast_config):
        first = OptRROptimizer(small_prior, 10_000, fast_config).run()
        second = OptRROptimizer(small_prior, 10_000, fast_config).run()
        np.testing.assert_allclose(first.privacy_values(), second.privacy_values())
        np.testing.assert_allclose(first.utility_values(), second.utility_values())

    def test_seed_override_changes_result(self, small_prior, fast_config):
        base = OptRROptimizer(small_prior, 10_000, fast_config).run()
        other = OptRROptimizer(small_prior, 10_000, fast_config).run(seed=999)
        assert not np.array_equal(
            base.front.as_minimization_array(), other.front.as_minimization_array()
        )

    def test_accepts_probability_vector_prior(self, fast_config):
        result = OptRROptimizer(np.array([0.5, 0.3, 0.2]), 1000, fast_config).run()
        assert len(result) > 0

    def test_infeasible_delta_rejected(self, small_prior):
        with pytest.raises(InfeasibleBoundError):
            OptRROptimizer(small_prior, 1000, OptRRConfig(delta=0.2))

    def test_progress_callback(self, small_prior, fast_config):
        generations = []

        def callback(generation, archive, omega):
            assert isinstance(archive, Population) and len(archive) == fast_config.archive_size
            assert isinstance(omega, OptimalSet)
            generations.append(generation)

        OptRROptimizer(small_prior, 10_000, fast_config).run(on_generation=callback)
        assert generations == list(range(fast_config.n_generations))

    def test_stagnation_termination_can_stop_early(self, small_prior):
        config = OptRRConfig(
            population_size=10,
            archive_size=10,
            n_generations=500,
            stagnation_patience=3,
            delta=0.8,
            seed=0,
        )
        result = OptRROptimizer(small_prior, 10_000, config).run()
        assert result.n_generations < 500


class TestFinishMemory:
    """``finish()`` copies no genome: the spectrum's matrices are rows of Ω's
    genome array and the front is a view into the same stack."""

    def test_finish_copies_no_genome(self):
        n, occupied = 64, 300
        optimizer = OptRROptimizer(normal_distribution(n), 1000, OptRRConfig(seed=0))
        steppable = optimizer.driver().optimization
        # Utility rises with privacy, so every member is on the front.
        privacy = np.linspace(0.1, 0.9, occupied)
        utility = np.linspace(1e-4, 1e-2, occupied)
        genomes = np.full((occupied, n, n), 1.0 / n)
        genomes[:, 0, 0] = np.arange(occupied)
        omega = OptimalSet(1000)
        omega.offer_population(
            Population(
                genomes=genomes,
                objectives=np.stack([-privacy, utility], axis=1),
                feasible=np.ones(occupied, dtype=bool),
                metadata={
                    "privacy": privacy,
                    "utility": utility,
                    "max_posterior": np.full(occupied, 0.5),
                    "invertible": np.ones(occupied, dtype=bool),
                },
            )
        )
        steppable.optimal_set = omega
        tracemalloc.start()
        try:
            result = steppable.finish(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The occupied genomes take 9.8 MB; gathering them, or the front,
        # once would exceed this bound.
        assert peak <= 2**20
        assert len(result.spectrum) == len(result) == occupied
        spectrum = result.spectrum
        np.testing.assert_array_equal(spectrum.stack[spectrum.stack_rows], genomes)


class TestBaselineSeeding:
    def test_runs_without_baseline_seeds(self, small_prior, fast_config):
        config = fast_config.with_updates(baseline_seeds=0)
        result = OptRROptimizer(small_prior, 10_000, config).run()
        assert len(result) > 0

    def test_front_without_a_feasible_member_is_non_dominated(self):
        """With no seeds and ``delta`` at the largest prior probability, Ω
        never accepts a member; the result falls back to the archive's
        non-dominated rows, not every archive row."""
        prior = normal_distribution(5)
        config = OptRRConfig(
            population_size=10, archive_size=10, n_generations=5, seed=1,
            baseline_seeds=0, delta=float(prior.probabilities.max()),
        )
        result = OptRROptimizer(prior, 10_000, config).run()
        assert len(result.spectrum) == 0 and len(result) > 0
        objectives = result.front.as_minimization_array()
        assert non_dominated_indices(objectives).size == len(result)
        assert np.all(np.diff(result.privacy_values()) >= 0)

    def test_seeded_front_never_loses_to_warner(self, normal_prior):
        """With the warm start, every delta-feasible Warner matrix is in the
        initial population, so the recovered front must weakly dominate the
        Warner front at every privacy level it covers."""
        delta = 0.7
        n_records = 10_000
        config = OptRRConfig(
            population_size=20, archive_size=20, n_generations=30, delta=delta,
            baseline_seeds=40, seed=0,
        )
        result = OptRROptimizer(normal_prior, n_records, config).run()
        warner = ParetoFront.from_family(
            WarnerFamily(10), normal_prior, n_records, delta=delta, n_points=41
        )
        for privacy in np.linspace(*warner.privacy_range, 15):
            assert utility_at_privacy(result.front, privacy) <= (
                utility_at_privacy(warner, privacy) * 1.02
            )

    def test_seeding_extends_low_privacy_end_beyond_warner(self, normal_prior):
        delta = 0.8
        config = OptRRConfig(
            population_size=30, archive_size=30, n_generations=150, delta=delta, seed=4
        )
        result = OptRROptimizer(normal_prior, 10_000, config).run()
        warner = ParetoFront.from_family(WarnerFamily(10), normal_prior, 10_000, delta=delta)
        assert result.front.privacy_range[0] < warner.privacy_range[0]


class TestOptimizationQuality:
    def test_beats_or_matches_warner_front(self, normal_prior):
        """The core claim of the paper on a small budget: the optimized front
        should not be dominated by the Warner front and should extend it."""
        delta = 0.8
        n_records = 10_000
        config = OptRRConfig(
            population_size=40,
            archive_size=40,
            n_generations=300,
            delta=delta,
            seed=3,
        )
        result = OptRROptimizer(normal_prior, n_records, config).run()
        optrr_front = result.front
        warner = ParetoFront.from_family(
            WarnerFamily(normal_prior.n_categories), normal_prior, n_records, delta=delta
        )
        # Wider privacy coverage: the delta-feasible Warner front cannot reach
        # low privacy, OptRR should get clearly below it.
        assert optrr_front.privacy_range[0] < warner.privacy_range[0] - 0.01
        # At the probed privacy levels OptRR should rarely be worse.
        probes = np.linspace(*warner.privacy_range, 12)
        losses = sum(
            1
            for privacy in probes
            if utility_at_privacy(optrr_front, privacy) > utility_at_privacy(warner, privacy) * 1.05
        )
        assert losses <= 4

    def test_more_generations_do_not_hurt_hypervolume(self, small_prior):
        from repro.emoo.indicators import hypervolume_2d

        def run(generations: int):
            config = OptRRConfig(
                population_size=16, archive_size=16, n_generations=generations, delta=0.8, seed=5
            )
            result = OptRROptimizer(small_prior, 10_000, config).run()
            return result.front.as_minimization_array()

        short = run(5)
        long = run(60)
        reference = (0.0, 2e-3)
        assert hypervolume_2d(long, reference) >= hypervolume_2d(short, reference) * 0.98

    def test_all_front_matrices_satisfy_bound_exactly(self, normal_prior):
        delta = 0.7
        config = OptRRConfig(
            population_size=20, archive_size=20, n_generations=40, delta=delta, seed=1
        )
        result = OptRROptimizer(normal_prior, 10_000, config).run()
        for point in result:
            assert max_posterior(point.matrix, normal_prior.probabilities) <= delta + 1e-6

    def test_front_utilities_match_evaluator(self, small_prior, fast_config):
        result = OptRROptimizer(small_prior, 10_000, fast_config).run()
        evaluator = MatrixEvaluator(small_prior, 10_000, fast_config.delta)
        for point in list(result)[:5]:
            evaluation = evaluator.evaluate(point.matrix)
            assert evaluation.privacy == pytest.approx(point.privacy)
            assert evaluation.utility == pytest.approx(point.utility)
