"""Tests for repro.emoo.fidelity (schedule, scheduler, promotion, adaptation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimizer import _OptRRSteppable
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.fidelity import (
    DEADLINE_FIDELITY_STEPS,
    FidelitySchedule,
    FidelityScheduler,
)
from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ValidationError
from tests.emoo.conftest import SphereTradeoffProblem


def make_scheduler(low=0.2, promotion=0.25, floor=0.05) -> FidelityScheduler:
    return FidelityScheduler(
        FidelitySchedule(
            low_fidelity=low, promotion_fraction=promotion, min_fidelity=floor
        )
    )


class TestFidelitySchedule:
    def test_accepts_interior_values(self):
        schedule = FidelitySchedule(0.5, promotion_fraction=1.0, min_fidelity=1.0)
        assert schedule.low_fidelity == 0.5

    @pytest.mark.parametrize("low", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_low_fidelity_outside_open_interval(self, low):
        with pytest.raises(OptimizationError):
            FidelitySchedule(low)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.01])
    def test_rejects_bad_promotion_fraction(self, fraction):
        with pytest.raises(OptimizationError):
            FidelitySchedule(0.2, promotion_fraction=fraction)

    @pytest.mark.parametrize("floor", [0.0, -1.0, 1.1])
    def test_rejects_bad_min_fidelity(self, floor):
        with pytest.raises(OptimizationError):
            FidelitySchedule(0.2, min_fidelity=floor)


class TestPromotionCount:
    def test_ceil_of_fraction(self):
        scheduler = make_scheduler(promotion=0.25)
        assert scheduler.promotion_count(40) == 10
        assert scheduler.promotion_count(41) == 11

    def test_always_promotes_at_least_one(self):
        scheduler = make_scheduler(promotion=0.01)
        assert scheduler.promotion_count(5) == 1

    def test_capped_at_batch_size(self):
        scheduler = make_scheduler(promotion=1.0)
        assert scheduler.promotion_count(7) == 7

    def test_empty_batch(self):
        assert make_scheduler().promotion_count(0) == 0


class TestPromoteIndices:
    def test_full_batch_when_fraction_is_one(self):
        scheduler = make_scheduler(promotion=1.0)
        objectives = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        np.testing.assert_array_equal(
            scheduler.promote_indices(objectives), np.arange(3)
        )

    def test_prefers_lower_pareto_ranks(self):
        # Two non-dominated rows and two clearly dominated ones: promoting
        # half the batch must pick exactly the rank-0 rows.
        scheduler = make_scheduler(promotion=0.5)
        objectives = np.array([[5.0, 5.0], [0.0, 1.0], [1.0, 0.0], [6.0, 6.0]])
        np.testing.assert_array_equal(
            scheduler.promote_indices(objectives), np.array([1, 2])
        )

    def test_infeasible_rows_rank_last(self):
        scheduler = make_scheduler(promotion=0.5)
        objectives = np.array([[0.0, 0.0], [0.0, 0.1], [1.0, 1.0], [1.0, 1.1]])
        feasible = np.array([False, False, True, True])
        promoted = scheduler.promote_indices(objectives, feasible)
        np.testing.assert_array_equal(promoted, np.array([2, 3]))

    def test_deterministic_and_sorted(self):
        scheduler = make_scheduler(promotion=0.3)
        rng = np.random.default_rng(5)
        objectives = rng.uniform(size=(20, 2))
        first = scheduler.promote_indices(objectives)
        second = scheduler.promote_indices(objectives)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.diff(first) > 0)

    def test_crowding_breaks_ties_within_a_front(self):
        # A 3-point rank-0 front: the extremes carry infinite crowding
        # distance, so promoting two rows must pick both extremes over the
        # interior point.
        scheduler = make_scheduler(promotion=0.5)
        objectives = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0], [5.0, 5.0]])
        np.testing.assert_array_equal(
            scheduler.promote_indices(objectives), np.array([0, 2])
        )


class TestDeadlineAdaptation:
    def test_noop_without_deadline(self):
        scheduler = make_scheduler(low=0.4)
        scheduler.adapt(1e9, None)
        assert scheduler.current_low_fidelity == 0.4

    def test_steps_match_schedule_table(self):
        for threshold, factor in DEADLINE_FIDELITY_STEPS:
            scheduler = make_scheduler(low=0.4, floor=0.01)
            scheduler.adapt(threshold * 100.0, 100.0)
            assert scheduler.current_low_fidelity == pytest.approx(0.4 * factor)

    def test_no_step_before_half_budget(self):
        scheduler = make_scheduler(low=0.4)
        scheduler.adapt(49.0, 100.0)
        assert scheduler.current_low_fidelity == 0.4

    def test_floor_is_respected(self):
        scheduler = make_scheduler(low=0.4, floor=0.3)
        scheduler.adapt(95.0, 100.0)
        assert scheduler.current_low_fidelity == 0.3

    def test_monotone_ratchet_never_goes_back_up(self):
        scheduler = make_scheduler(low=0.4, floor=0.01)
        scheduler.adapt(95.0, 100.0)
        lowest = scheduler.current_low_fidelity
        scheduler.adapt(10.0, 100.0)  # early progress again (e.g. clock skew)
        assert scheduler.current_low_fidelity == lowest


class TestStateRoundTrip:
    def test_round_trip_restores_everything(self):
        scheduler = make_scheduler(low=0.4)
        scheduler.adapt(80.0, 100.0)
        scheduler.n_low_evaluations = 123
        scheduler.n_full_evaluations = 45
        document = scheduler.state_document()
        restored = make_scheduler(low=0.4)
        restored.restore_state(document)
        assert restored.current_low_fidelity == scheduler.current_low_fidelity
        assert restored.n_low_evaluations == 123
        assert restored.n_full_evaluations == 45

    def test_state_document_is_json_compatible(self):
        import json

        document = make_scheduler().state_document()
        assert json.loads(json.dumps(document)) == document

    @pytest.mark.parametrize(
        "counters",
        [{"n_low_evaluations": -1}, {"n_full_evaluations": True}, {"n_low_evaluations": 2.5}],
    )
    def test_restore_rejects_tampered_counters(self, counters):
        with pytest.raises(ValidationError, match="checkpointed n_"):
            make_scheduler().restore_state(counters)

    @pytest.mark.parametrize(
        "fidelity", [1.0, 0.5, 0.01, -5.0, float("nan"), float("inf"), True, "0.1", None]
    )
    def test_restore_rejects_an_unreachable_low_fidelity(self, fidelity):
        """The ratchet only moves down from ``low_fidelity`` to the floor, so
        anything outside [0.05, 0.2] here (or not a number) is tampering."""
        with pytest.raises(ValidationError, match="current_low_fidelity"):
            make_scheduler(low=0.2, floor=0.05).restore_state(
                {"current_low_fidelity": fidelity}
            )

    @pytest.mark.parametrize("fidelity", [0.2, 0.1, 0.05])
    def test_restore_accepts_every_reachable_low_fidelity(self, fidelity):
        scheduler = make_scheduler(low=0.2, floor=0.05)
        scheduler.restore_state({"current_low_fidelity": fidelity})
        assert scheduler.current_low_fidelity == fidelity

    def test_restore_accepts_the_low_fidelity_under_a_higher_floor(self):
        """With the floor above ``low_fidelity`` the ratchet never moves, and
        the checkpoint holds ``low_fidelity`` itself."""
        scheduler = make_scheduler(low=0.2, floor=0.5)
        scheduler.adapt(99.0, 100.0)
        restored = make_scheduler(low=0.2, floor=0.5)
        restored.restore_state(scheduler.state_document())
        assert restored.current_low_fidelity == 0.2

    def test_restore_tolerates_missing_keys(self):
        scheduler = make_scheduler(low=0.3)
        scheduler.restore_state({})
        assert scheduler.current_low_fidelity == 0.3
        assert scheduler.n_low_evaluations == 0


def random_stack(problem: RRMatrixProblem, size: int, rng) -> np.ndarray:
    """Random bound-repaired matrices, drawn on a twin problem so the tested
    problem's evaluation counters stay untouched."""
    twin = RRMatrixProblem(problem.prior, problem.n_records, delta=problem.delta)
    return twin.initial_population_soa(size, rng).genomes


class TestEvaluateStack:
    @pytest.fixture
    def problem(self) -> RRMatrixProblem:
        return RRMatrixProblem(normal_distribution(6), 5000, delta=0.8)

    def test_promoted_rows_match_full_fidelity_evaluation(self, problem):
        rng = np.random.default_rng(2)
        stack = random_stack(problem, 12, rng)
        scheduler = make_scheduler(low=0.25, promotion=0.25)
        population = scheduler.evaluate_stack(problem, stack)
        reference = problem.evaluate_population(stack, fidelity=1.0)
        fidelity = population.metadata["fidelity"]
        promoted = np.flatnonzero(fidelity >= 1.0)
        assert promoted.size == scheduler.promotion_count(12)
        np.testing.assert_array_equal(
            population.objectives[promoted], reference.objectives[promoted]
        )
        # Non-promoted rows keep the low-fidelity upper bound: utility
        # (objective 1) at least the full-fidelity value, privacy exact.
        rest = np.flatnonzero(fidelity < 1.0)
        np.testing.assert_array_equal(fidelity[rest], 0.25)
        assert np.all(
            population.objectives[rest, 1] >= reference.objectives[rest, 1]
        )
        np.testing.assert_array_equal(
            population.objectives[rest, 0], reference.objectives[rest, 0]
        )

    def test_counters_track_both_passes(self, problem):
        rng = np.random.default_rng(3)
        stack = random_stack(problem, 8, rng)
        scheduler = make_scheduler(low=0.5, promotion=0.25)
        scheduler.evaluate_stack(problem, stack)
        assert scheduler.n_low_evaluations == 8
        assert scheduler.n_full_evaluations == 2
        assert problem.n_low_evaluations == 8
        assert problem.n_full_evaluations == 2


class FidelitySphereProblem(SphereTradeoffProblem):
    """Generic-problem fidelity stub: objective noise shrinks as f -> 1."""

    def evaluate_population(self, stack, *, fidelity=None) -> Population:
        population = super().evaluate_population(stack)
        if fidelity is not None:
            population.objectives /= np.broadcast_to(fidelity, (population.size,))[:, None]
            population.metadata["fidelity"] = np.broadcast_to(
                np.asarray(fidelity, dtype=float), (population.size,)
            ).copy()
        return population


class TestGenericEvaluateStack:
    def test_promoted_slots_carry_full_fidelity_objectives(self):
        problem = FidelitySphereProblem()
        stack = np.array([[0.1], [0.5], [0.9], [0.3]])
        scheduler = make_scheduler(low=0.5, promotion=0.5)
        population = scheduler.evaluate_stack(problem, stack)
        assert population.size == 4
        exact = problem.evaluate_population(stack).objectives
        exact_rows = np.all(population.objectives == exact, axis=1)
        assert np.count_nonzero(exact_rows) == scheduler.promotion_count(4)
        np.testing.assert_array_equal(
            exact_rows, population.metadata["fidelity"] == 1.0
        )
        assert scheduler.n_low_evaluations == 4
        assert scheduler.n_full_evaluations == 2

    def test_generic_problem_without_fidelity_support_raises(self, sphere_problem):
        scheduler = make_scheduler()
        with pytest.raises(OptimizationError, match="reduced-fidelity"):
            scheduler.evaluate_stack(sphere_problem, np.array([[0.2], [0.8]]))


class TestFullFidelityRowFilter:
    def test_population_without_fidelity_column_passes_through(self):
        population = Population(
            genomes=np.zeros((3, 2, 2)),
            objectives=np.zeros((3, 2)),
            feasible=np.ones(3, dtype=bool),
        )
        assert _OptRRSteppable._full_fidelity_rows(population) is population

    def test_low_fidelity_rows_are_filtered_out(self):
        population = Population(
            genomes=np.zeros((4, 2, 2)),
            objectives=np.arange(8.0).reshape(4, 2),
            feasible=np.ones(4, dtype=bool),
            metadata={"fidelity": np.array([1.0, 0.2, 1.0, 0.5])},
        )
        filtered = _OptRRSteppable._full_fidelity_rows(population)
        assert filtered.size == 2
        np.testing.assert_array_equal(
            filtered.objectives, population.objectives[[0, 2]]
        )
