"""The stopping rule (Section V-I), tested on the driver that owns it.

A scripted algorithm reports chosen Ω-update counts and advances a fake
clock by a fixed wall time per generation, so every stop is exact: the
generation budget, Ω-stagnation patience, and the wall-clock deadline, plus
the stagnation counter's checkpoint round trip and the deadline's anchoring
on the resumed segment.
"""

from __future__ import annotations

import pytest

from repro.emoo import driver as driver_module
from repro.emoo.driver import (
    CHECKPOINT_VERSION,
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    StoppingRule,
    build_driver,
    checkpoint_scope,
)
from repro.exceptions import OptimizationError, ValidationError


class FakeClock:
    """Stands in for the driver's ``time`` module."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(driver_module, "time", fake)
    return fake


class Scripted(SteppableOptimization):
    """Reports ``updates[generation]`` Ω updates (1 past the script) and
    spends ``step_seconds`` on ``clock`` per generation."""

    algorithm_name = "scripted"

    def __init__(
        self,
        updates: tuple[int, ...] = (),
        *,
        clock: FakeClock | None = None,
        step_seconds: float = 0.0,
    ) -> None:
        self.updates = updates
        self.clock = clock
        self.step_seconds = step_seconds

    def setup(self, rng) -> None:
        pass

    def step(self, rng, generation: int) -> StepOutcome:
        if self.clock is not None:
            self.clock.now += self.step_seconds
        updates = self.updates[generation] if generation < len(self.updates) else 1
        return StepOutcome(archive_updates=updates, n_evaluations=generation + 1)

    def finish(self, generation: int) -> int:
        return generation + 1

    def state_document(self) -> dict:
        return {}

    def restore_state(self, document: dict) -> None:
        pass


def generations_run(rule: StoppingRule, updates: tuple[int, ...] = (), **scripted) -> int:
    """How many generations a driven run lasts under ``rule``."""
    return OptimizationDriver(Scripted(updates, **scripted), rule=rule).run()


def stale_trace(rule: StoppingRule, updates: tuple[int, ...]) -> list[int]:
    """The driver's stagnation counter after every generation."""
    driver = OptimizationDriver(Scripted(updates), rule=rule)
    return [driver.stale for _ in driver.steps()]


class TestMaxGenerations:
    def test_stops_at_limit(self):
        driver = OptimizationDriver(Scripted(), rule=StoppingRule(3))
        assert [snapshot.stopped for snapshot in driver.steps()] == [False, False, True]
        assert driver.result() == 3

    def test_rejects_non_positive(self):
        for budget in (0, -3, 2.5, True):
            with pytest.raises(ValidationError, match="max_generations"):
                StoppingRule(budget)


class TestStagnation:
    def test_stops_after_patience_without_updates(self):
        assert generations_run(StoppingRule(100, patience=2), (0, 0, 0, 0)) == 2

    def test_updates_reset_counter(self):
        rule = StoppingRule(100, patience=2)
        assert stale_trace(rule, (0, 5, 0, 0)) == [1, 0, 1, 2]
        assert generations_run(rule, (0, 5, 0, 0)) == 4

    def test_reset(self):
        """Every run starts with a zero counter, whatever an earlier run on
        the same algorithm left behind."""
        algorithm = Scripted((0, 1))
        first = OptimizationDriver(algorithm, rule=StoppingRule(10, patience=1))
        assert first.run() == 1 and first.stale == 1
        second = OptimizationDriver(algorithm, rule=StoppingRule(2, patience=1))
        assert second.stale == 0
        assert second.run() == 1

    def test_counter_is_kept_without_patience(self):
        """The counter is tracked (and checkpointed) even when no patience
        is set, so a resume under a patience sees the true streak."""
        assert stale_trace(StoppingRule(4), (0, 0, 3, 0)) == [1, 2, 0, 1]

    @pytest.mark.parametrize("patience", [0, -1, 1.5])
    def test_rejects_non_positive_patience(self, patience):
        with pytest.raises(ValidationError, match="patience"):
            StoppingRule(10, patience=patience)


class TestDeadline:
    def test_uses_driver_elapsed_time(self, clock):
        algorithm = Scripted(clock=clock, step_seconds=1.0)
        driver = OptimizationDriver(algorithm, rule=StoppingRule(1000, deadline=3.0))
        assert driver.run() == 3
        assert driver.elapsed_seconds == 3.0

    def test_rejects_non_positive_budget(self):
        for seconds in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(OptimizationError, match="positive"):
                StoppingRule(10, deadline=seconds)

    def test_composes_with_or(self, clock):
        """The run stops on whichever of budget, patience and deadline fires
        first."""
        rule = StoppingRule(3, patience=50, deadline=1e9)
        assert generations_run(rule, clock=clock, step_seconds=1.0) == 3
        rule = StoppingRule(1000, patience=50, deadline=5.0)
        assert generations_run(rule, clock=clock, step_seconds=2.0) == 3
        rule = StoppingRule(1000, patience=2, deadline=5.0)
        assert generations_run(rule, (0, 0), clock=clock, step_seconds=1.0) == 2


class TestAnyCriterion:
    def test_stops_when_either_fires(self):
        """Budget and patience in one rule: the run ends on whichever fires
        first."""
        rule = StoppingRule(5, patience=2)
        assert generations_run(rule, (0, 0, 0, 0, 0)) == 2
        assert generations_run(rule, (1, 1, 1, 1, 1)) == 5
        assert generations_run(rule, (1, 0, 1, 0, 0)) == 5


class TestStateDocuments:
    def test_stagnation_round_trip(self):
        rule = StoppingRule(100, patience=3)
        interrupted = OptimizationDriver(Scripted((0, 0, 0, 0)), rule=rule)
        steps = interrupted.steps()
        next(steps)
        next(steps)
        document = interrupted.checkpoint_document()
        assert document["checkpoint_version"] == CHECKPOINT_VERSION == 3
        assert document["termination"] == {"stale": 2}
        resumed = OptimizationDriver(Scripted((0, 0, 0, 0)), rule=rule)
        resumed.restore(document)
        assert resumed.stale == 2
        # One more stale generation fires the patience (2 + 1 == 3).
        assert [snapshot.generation for snapshot in resumed.steps()] == [2]

    def test_counter_survives_a_changed_rule(self):
        """The checkpoint holds one counter, not a per-criterion tree, so a
        resume under another rule (a deadline added, the patience set)
        continues the same streak."""
        interrupted = OptimizationDriver(Scripted((0, 0, 0, 0)), rule=StoppingRule(100))
        steps = interrupted.steps()
        next(steps)
        next(steps)
        document = interrupted.checkpoint_document()
        resumed = OptimizationDriver(
            Scripted((0, 0, 0, 0)), rule=StoppingRule(100, patience=3, deadline=1e9)
        )
        resumed.restore(document)
        assert resumed.stale == 2
        assert [snapshot.generation for snapshot in resumed.steps()] == [2]

    def test_deadline_anchors_on_resume(self, clock):
        """A resumed run's deadline budgets only its own new work: the 90 s
        spent before the interruption do not count against it."""
        rule = StoppingRule(1000, deadline=100.0)
        interrupted = OptimizationDriver(
            Scripted(clock=clock, step_seconds=10.0), rule=rule
        )
        steps = interrupted.steps()
        for _ in range(9):
            next(steps)
        document = interrupted.checkpoint_document()
        assert document["elapsed_seconds"] == 90.0
        algorithm = Scripted(clock=clock, step_seconds=10.0)
        resumed = OptimizationDriver(algorithm, rule=rule)
        resumed.restore(document)
        assert resumed.run() == 9 + 10
        assert resumed.elapsed_seconds == 190.0

    def test_any_criterion_round_trip(self):
        """A rule with budget, patience and deadline writes only the counter,
        and an interrupted run resumed from it stops where the uninterrupted
        one does."""
        rule = StoppingRule(100, patience=3, deadline=1e9)
        updates = (1, 0, 0, 1, 0, 0, 0, 0)
        assert generations_run(rule, updates) == 7
        interrupted = OptimizationDriver(Scripted(updates), rule=rule)
        steps = interrupted.steps()
        for _ in range(5):
            next(steps)
        document = interrupted.checkpoint_document()
        assert document["termination"] == {"stale": 1}
        resumed = OptimizationDriver(Scripted(updates), rule=rule)
        resumed.restore(document)
        assert resumed.run() == 7

    def test_any_criterion_deadline_anchors_on_resume(self, clock):
        """After a resume, a rule with patience and a deadline budgets the
        resumed segment's elapsed time, not the whole run's."""
        rule = StoppingRule(1000, patience=50, deadline=25.0)
        interrupted = OptimizationDriver(
            Scripted(clock=clock, step_seconds=10.0), rule=rule
        )
        steps = interrupted.steps()
        next(steps)
        next(steps)
        document = interrupted.checkpoint_document()
        algorithm = Scripted(clock=clock, step_seconds=10.0)
        resumed = OptimizationDriver(algorithm, rule=rule)
        resumed.restore(document)
        assert resumed.run() == 2 + 3
        assert resumed.elapsed_seconds == 50.0

    def test_stateless_criteria_have_empty_documents(self):
        """Budget and deadline keep no state of their own: the document of a
        rule without patience holds the stagnation counter and nothing
        else."""
        driver = OptimizationDriver(Scripted((0, 0, 4)), rule=StoppingRule(10, deadline=1e9))
        steps = driver.steps()
        next(steps)
        next(steps)
        assert driver.checkpoint_document()["termination"] == {"stale": 2}
        next(steps)
        assert driver.checkpoint_document()["termination"] == {"stale": 0}

    def test_restore_matches_criteria_by_kind_not_position(self):
        """The counter is restored whatever criteria surround it: a streak
        saved under budget, patience and deadline resumes under a rule with
        only a tighter patience."""
        interrupted = OptimizationDriver(
            Scripted((0, 0, 0, 0)), rule=StoppingRule(100, patience=5, deadline=1e9)
        )
        steps = interrupted.steps()
        next(steps)
        next(steps)
        document = interrupted.checkpoint_document()
        resumed = OptimizationDriver(Scripted((0, 0, 0, 0)), rule=StoppingRule(100, patience=3))
        resumed.restore(document)
        assert resumed.stale == 2
        assert [snapshot.generation for snapshot in resumed.steps()] == [2]

    def test_restore_with_extra_criterion_keeps_reset_state(self, clock):
        """A deadline added on resume starts from the resumed segment, not
        from the time the checkpointed run had already spent."""
        interrupted = OptimizationDriver(
            Scripted(clock=clock, step_seconds=10.0), rule=StoppingRule(1000)
        )
        steps = interrupted.steps()
        for _ in range(5):
            next(steps)
        document = interrupted.checkpoint_document()
        assert document["elapsed_seconds"] == 50.0
        resumed = OptimizationDriver(
            Scripted(clock=clock, step_seconds=10.0), rule=StoppingRule(1000, deadline=30.0)
        )
        resumed.restore(document)
        assert resumed.stale == 0
        assert resumed.run() == 5 + 3
        assert resumed.elapsed_seconds == 80.0

    @pytest.mark.parametrize(
        "termination",
        # {"stale": 2}: a streak longer than the one generation the
        # checkpoint covers.
        [{"stale": -1}, {"stale": True}, {"stale": "3"}, {"stale": 2.0}, {"stale": 2},
         {}, [], None],
    )
    def test_restore_rejects_a_malformed_counter(self, termination):
        driver = OptimizationDriver(Scripted(), rule=StoppingRule(10))
        next(driver.steps())
        document = driver.checkpoint_document()
        document["termination"] = termination
        fresh = OptimizationDriver(Scripted(), rule=StoppingRule(10))
        with pytest.raises(ValidationError, match="termination.stale"):
            fresh.restore(document)
        assert fresh.generation == 0 and fresh.stale == 0


class TestTerminationDeadlineSeconds:
    """Which deadline ``build_driver`` hands the rule."""

    def test_plain_deadline(self):
        driver = build_driver(Scripted(), max_generations=2, deadline=42.0)
        assert driver.rule == StoppingRule(2, deadline=42.0)
        assert driver.run() == 2

    def test_combined_takes_the_tightest_deadline(self):
        """An explicit deadline and a scope's remaining budget both count
        from this segment's start, so the tighter one wins."""
        with checkpoint_scope(None, deadline=30.0):
            assert build_driver(Scripted(), max_generations=2, deadline=12.0).rule.deadline == 12.0
        with checkpoint_scope(None, deadline=30.0):
            scoped = build_driver(Scripted(), max_generations=2, deadline=1e9).rule.deadline
        assert 0 < scoped <= 30.0
        with checkpoint_scope(None, deadline=30.0):
            scoped = build_driver(Scripted(), max_generations=2).rule.deadline
        assert 0 < scoped <= 30.0

    def test_combined_without_deadline(self):
        driver = build_driver(Scripted(), max_generations=2, patience=3)
        assert driver.rule == StoppingRule(2, patience=3)
        assert driver.run() == 2

    def test_non_deadline_criteria_have_no_budget(self):
        """A budget-only rule built outside any checkpoint scope carries no
        deadline."""
        driver = build_driver(Scripted(), max_generations=3)
        assert driver.rule == StoppingRule(3)
        assert driver.rule.deadline is None
        assert driver.run() == 3

    def test_explicit_checkpoint_path_ignores_the_scope(self, tmp_path):
        """A run given its own checkpoint path claims nothing from the
        ambient scope, its deadline included."""
        with checkpoint_scope(None, deadline=30.0):
            driver = build_driver(
                Scripted(), max_generations=2, checkpoint_path=tmp_path / "ck.json"
            )
        assert driver.rule.deadline is None
