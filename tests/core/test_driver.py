"""Stepwise driver + checkpoint/resume tests.

The hard invariant under test: a run killed after any generation ``k`` and
resumed from its checkpoint produces the final front, Ω spectrum, matrices
and RNG stream bit-for-bit identical to the uninterrupted run — for OptRR and
NSGA-II alike.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.emoo.driver import (
    OptimizationDriver,
    StoppingRule,
    checkpoint_scope,
    claim_scoped_checkpoint,
)
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.exceptions import OptimizationError, ValidationError
from repro.io import load_checkpoint, result_to_dict, save_result

from benchmarks.baselines.nsga2 import NSGA2, NSGA2Settings
from tests.emoo.conftest import SphereTradeoffProblem

N_GENERATIONS = 5


def make_optrr() -> OptRROptimizer:
    return OptRROptimizer(
        normal_distribution(7),
        4000,
        OptRRConfig(
            population_size=10,
            archive_size=10,
            n_generations=N_GENERATIONS,
            delta=0.8,
            seed=11,
            baseline_seeds=101,
        ),
    )


def make_nsga2() -> NSGA2:
    return NSGA2(
        SphereTradeoffProblem(),
        NSGA2Settings(population_size=10),
        n_generations=N_GENERATIONS,
        seed=7,
    )


def make_rr_nsga2(delta: float = 0.85) -> NSGA2:
    return NSGA2(
        RRMatrixProblem(normal_distribution(6), 4000, delta=delta),
        NSGA2Settings(population_size=8),
        n_generations=N_GENERATIONS,
        seed=3,
    )


def optrr_result_key(result) -> str:
    return json.dumps(result_to_dict(result, include_optimal_set=True), sort_keys=True)


def generic_result_key(result) -> list:
    front = result.front
    return sorted(
        (tuple(objectives.tolist()), repr(genome))
        for objectives, genome in zip(front.objectives, front.genomes)
    )


def rr_result_key(result) -> list:
    front = result.front
    return sorted(
        tuple(objectives.tolist()) + tuple(genome.ravel().tolist())
        for objectives, genome in zip(front.objectives, front.genomes)
    )


def run_interrupted(factory, kill_after: int, checkpoint_path):
    """Run a driver, abandon it after ``kill_after + 1`` generations, and
    return the checkpoint document it left behind."""
    driver = factory().driver(checkpoint_path=str(checkpoint_path), checkpoint_every=1)
    steps = driver.steps()
    for _ in range(kill_after + 1):
        snapshot = next(steps)
        if snapshot.stopped:
            break
    return load_checkpoint(checkpoint_path)


class TestResumeEquivalence:
    """Kill-at-every-generation resume equivalence, per algorithm."""

    @pytest.mark.parametrize("kill_after", range(N_GENERATIONS))
    def test_optrr_resume_bit_for_bit(self, tmp_path, kill_after):
        reference = optrr_result_key(make_optrr().run())
        document = run_interrupted(make_optrr, kill_after, tmp_path / "ck.json")
        optimizer = OptRROptimizer.from_checkpoint(document)
        driver = optimizer.driver()
        driver.restore(document)
        assert optrr_result_key(optimizer.run_driver(driver)) == reference

    @pytest.mark.parametrize("kill_after", range(N_GENERATIONS))
    def test_nsga2_rr_resume_bit_for_bit(self, tmp_path, kill_after):
        """NSGA-II on RR matrices: the (P, n, n) genome stack, ranks and
        crowding round-trip through the checkpoint bit for bit."""
        reference = make_rr_nsga2().run()
        document = run_interrupted(make_rr_nsga2, kill_after, tmp_path / "ck.json")
        driver = make_rr_nsga2().driver()
        driver.restore(document)
        resumed = driver.run()
        assert rr_result_key(resumed) == rr_result_key(reference)
        assert resumed.n_generations == reference.n_generations
        assert resumed.n_evaluations == reference.n_evaluations

    @pytest.mark.parametrize("kill_after", range(N_GENERATIONS))
    def test_nsga2_resume_bit_for_bit(self, tmp_path, kill_after):
        reference = make_nsga2().run()
        document = run_interrupted(make_nsga2, kill_after, tmp_path / "ck.json")
        driver = make_nsga2().driver()
        driver.restore(document)
        resumed = driver.run()
        assert generic_result_key(resumed) == generic_result_key(reference)
        assert resumed.n_generations == reference.n_generations
        assert resumed.n_evaluations == reference.n_evaluations

    def test_resume_continues_rng_stream_exactly(self, tmp_path):
        """The resumed driver's generator continues the interrupted stream:
        the restored bit-generator state equals the checkpointed one, so the
        next draws are bit-for-bit the draws the interrupted run would have
        made."""
        path = tmp_path / "ck.json"
        driver = make_optrr().driver(checkpoint_path=str(path), checkpoint_every=1)
        steps = driver.steps()
        next(steps)
        next(steps)
        expected = driver.rng.random(64)  # what the interrupted run draws next
        document = load_checkpoint(path)
        resumed = make_optrr().driver()
        resumed.restore(document)
        np.testing.assert_array_equal(resumed.rng.random(64), expected)

    def test_checkpoints_use_the_array_layout_only(self, tmp_path):
        """Every engine checkpoints genome stacks as arrays; a population in
        the per-individual layout older NSGA-II checkpoints used is rejected
        with a typed error and the driver stays unstarted."""
        path = tmp_path / "ck.json"
        driver = make_rr_nsga2().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        assert document["state"]["population"]["layout"] == "arrays"
        document["state"]["population"] = {
            "layout": "individuals",
            "individuals": [],
            "fitness": document["state"]["population"]["fitness"],
        }
        fresh = make_rr_nsga2().driver()
        with pytest.raises(ValidationError, match="population layout 'individuals'"):
            fresh.restore(document)
        assert fresh.generation == 0


class TestDriverBehaviour:
    def test_snapshots_are_enriched(self):
        driver = make_optrr().driver()
        snapshots = list(driver.steps())
        assert [snapshot.generation for snapshot in snapshots] == list(range(N_GENERATIONS))
        assert snapshots[-1].stopped and not snapshots[0].stopped
        for snapshot in snapshots:
            assert snapshot.n_evaluations > 0
            assert snapshot.elapsed_seconds >= 0.0
        assert snapshots[-1].elapsed_seconds >= snapshots[0].elapsed_seconds

    def test_result_requires_termination(self):
        driver = make_optrr().driver()
        steps = driver.steps()
        next(steps)
        with pytest.raises(OptimizationError, match="not terminated"):
            driver.result()

    def test_run_matches_legacy_run(self):
        via_driver = make_optrr().driver().run()
        via_run = make_optrr().run()
        assert optrr_result_key(via_driver) == optrr_result_key(via_run)

    def test_deadline_stops_early(self):
        optimizer = OptRROptimizer(
            normal_distribution(7),
            4000,
            OptRRConfig(
                population_size=10, archive_size=10, n_generations=100_000, seed=1
            ),
        )
        driver = optimizer.driver(deadline=0.15)
        result = optimizer.run_driver(driver)
        assert result.n_generations < 100_000

    def test_restore_rejects_other_algorithm(self, tmp_path):
        path = tmp_path / "ck.json"
        driver = make_nsga2().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        with pytest.raises(ValidationError, match="algorithm"):
            make_optrr().driver().restore(document)

    def test_generic_engine_fingerprint_covers_problem_workload(self, tmp_path):
        """An NSGA-II checkpoint must not resume into the same problem
        *class* with a different workload (prior/bound) — the fingerprint
        hashes the problem's identity document, not just its name."""
        path = tmp_path / "ck.json"
        driver = make_rr_nsga2(0.85).driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        with pytest.raises(ValidationError, match="fingerprint"):
            make_rr_nsga2(0.6).driver().restore(document)

    @pytest.mark.parametrize("n_evaluations", [-500, True, 3.0])
    def test_nsga2_restore_rejects_tampered_evaluation_count(self, tmp_path, n_evaluations):
        path = tmp_path / "ck.json"
        driver = make_nsga2().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        document["state"]["n_evaluations"] = n_evaluations
        with pytest.raises(ValidationError, match="checkpointed n_evaluations"):
            make_nsga2().driver().restore(document)

    def test_restore_rejects_other_workload(self, tmp_path):
        path = tmp_path / "ck.json"
        driver = make_optrr().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        other = OptRROptimizer(
            normal_distribution(7),
            4000,
            OptRRConfig(
                population_size=10, archive_size=10, n_generations=5, delta=0.9, seed=11
            ),
        )
        with pytest.raises(ValidationError, match="fingerprint"):
            other.driver().restore(document)

    @pytest.mark.parametrize("stored", [None, "", 0, ["x"], "missing"])
    def test_restore_requires_a_fingerprint(self, tmp_path, stored):
        path = tmp_path / "ck.json"
        driver = make_optrr().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        document = load_checkpoint(path)
        if stored == "missing":
            del document["fingerprint"]
        else:
            document["fingerprint"] = stored
        with pytest.raises(ValidationError, match="checkpoint field 'fingerprint'"):
            make_optrr().driver().restore(document)

    def test_restore_of_stopped_checkpoint_reproduces_result(self, tmp_path):
        path = tmp_path / "ck.json"
        reference = make_optrr().run(checkpoint_path=str(path), checkpoint_every=1)
        document = load_checkpoint(path)
        assert document["stopped"] is True
        optimizer = OptRROptimizer.from_checkpoint(document)
        driver = optimizer.driver()
        driver.restore(document)
        assert driver.finished
        assert list(driver.steps()) == []
        assert optrr_result_key(driver.result()) == optrr_result_key(reference)

    def test_reopen_extends_a_finished_run(self, tmp_path):
        path = tmp_path / "ck.json"
        make_optrr().run(checkpoint_path=str(path), checkpoint_every=1)
        document = load_checkpoint(path)
        optimizer = OptRROptimizer.from_checkpoint(document)
        extended = OptRROptimizer(
            optimizer.prior,
            optimizer.n_records,
            optimizer.config.with_updates(n_generations=N_GENERATIONS + 3),
        )
        driver = extended.driver()
        driver.restore(document, reopen=True)
        result = extended.run_driver(driver)
        assert result.n_generations == N_GENERATIONS + 3
        # ... and it matches the uninterrupted longer run bit for bit.
        uninterrupted = OptRROptimizer(
            extended.prior, extended.n_records, extended.config
        ).run()
        assert optrr_result_key(result) == optrr_result_key(uninterrupted)

    def test_checkpoint_cadence(self, tmp_path):
        path = tmp_path / "ck.json"
        writes = []
        driver = make_optrr().driver(checkpoint_path=str(path), checkpoint_every=2)
        for snapshot in driver.steps():
            if path.exists():
                document = load_checkpoint(path)
                writes.append((snapshot.generation, document["generation"]))
        # Cadence 2 over 5 generations: checkpoints after generations 1, 3
        # and the final generation 4.
        assert [written for _, written in writes][-3:] == [1, 3, 4]

    def test_nsga2_on_generation_callback(self):
        """NSGA2.run reports every generation's survivors, ranked."""
        seen = []

        def callback(generation, population, ranks):
            seen.append((generation, len(population)))
            assert ranks.shape == (len(population),) and np.all(ranks >= 0)

        result = make_nsga2().run(on_generation=callback)
        assert [generation for generation, _ in seen] == list(range(N_GENERATIONS))
        assert all(count == 10 for _, count in seen)
        assert result.n_generations == N_GENERATIONS


class TestCheckpointScope:
    def test_scope_claims_and_resumes(self, tmp_path):
        reference = optrr_result_key(make_optrr().run())
        with checkpoint_scope(tmp_path, token="cell", every=1):
            driver = make_optrr().driver()
            steps = driver.steps()
            next(steps)
            next(steps)
        assert (tmp_path / "cell-0.json").is_file()
        # A fresh run in a new scope with the same token auto-resumes.
        with checkpoint_scope(tmp_path, token="cell", every=1):
            resumed_driver = make_optrr().driver()
            assert resumed_driver.generation > 0
            result = make_optrr().run_driver(resumed_driver)
        assert optrr_result_key(result) == reference

    def test_scope_ignores_mismatched_checkpoint(self, tmp_path):
        with checkpoint_scope(tmp_path, token="cell", every=1):
            next(make_nsga2().driver().steps())
        with checkpoint_scope(tmp_path, token="cell", every=1):
            driver = make_optrr().driver()
            assert driver.generation == 0  # fresh start, not a broken resume

    def test_scope_clear_removes_partials(self, tmp_path):
        with checkpoint_scope(tmp_path, token="cell", every=1) as scope:
            next(make_optrr().driver().steps())
            assert list(tmp_path.glob("cell-*.json"))
            scope.clear()
        assert not list(tmp_path.glob("cell-*.json"))

    def test_claims_are_sequential(self, tmp_path):
        with checkpoint_scope(tmp_path, token="cell") as scope:
            first, _, _, _ = claim_scoped_checkpoint()
            second, _, _, _ = claim_scoped_checkpoint()
        assert first != second
        assert scope.directory == tmp_path

    def test_deadline_only_scope(self):
        with checkpoint_scope(None, deadline=30.0):
            path, _, remaining, document = claim_scoped_checkpoint()
        assert path is None and document is None
        assert 0 < remaining <= 30.0

    def test_scoped_deadline_reaches_driver(self):
        with checkpoint_scope(None, deadline=1e9):
            driver = make_optrr().driver()
        assert 0 < driver.rule.deadline <= 1e9
        assert driver.rule.max_generations == N_GENERATIONS


class TestDriverValidation:
    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(OptimizationError, match="checkpoint_every"):
            OptimizationDriver(
                make_optrr().driver().optimization,
                rule=StoppingRule(1),
                checkpoint_every=0,
            )

    def test_restore_after_start_fails(self, tmp_path):
        path = tmp_path / "ck.json"
        driver = make_optrr().driver(checkpoint_path=str(path), checkpoint_every=1)
        next(driver.steps())
        with pytest.raises(OptimizationError, match="already started"):
            driver.restore(load_checkpoint(path))


#: A run that stops on Ω stagnation (patience 3) long before its
#: 500-generation budget; its stop generation, evaluation count and result
#: bytes are pinned.
PATIENCE_CONFIG = OptRRConfig(
    population_size=10,
    archive_size=10,
    n_generations=500,
    stagnation_patience=3,
    delta=0.8,
    seed=0,
)
PATIENCE_STOP = (213, 3141)
PATIENCE_RESULT_SHA256 = "a83afc7f3283a2da71a00d609ffe095fab3d9e97994426599876e8023effe926"


def make_patience_optrr() -> OptRROptimizer:
    return OptRROptimizer(normal_distribution(5), 10_000, PATIENCE_CONFIG)


def result_sha256(result, path) -> str:
    save_result(result, path, include_optimal_set=True)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestStagnationStop:
    def test_patience_stop_is_pinned(self, tmp_path):
        result = make_patience_optrr().run()
        assert (result.n_generations, result.n_evaluations) == PATIENCE_STOP
        assert result_sha256(result, tmp_path / "result.json") == PATIENCE_RESULT_SHA256

    def test_resume_mid_streak_reproduces_the_stop(self, tmp_path):
        """Killed one generation before the patience fires (two stale
        generations behind it), the resumed run must stop after exactly one
        more generation — the stale counter rides the checkpoint."""
        path = tmp_path / "ck.json"
        driver = make_patience_optrr().driver(checkpoint_path=str(path), checkpoint_every=1)
        for snapshot in driver.steps():
            if snapshot.generation == PATIENCE_STOP[0] - 2:
                break
        document = load_checkpoint(path)
        assert document["termination"] == {"stale": 2}
        assert document["stopped"] is False
        optimizer = OptRROptimizer.from_checkpoint(document)
        resumed = optimizer.driver()
        resumed.restore(document)
        assert resumed.stale == 2
        result = optimizer.run_driver(resumed)
        assert (result.n_generations, result.n_evaluations) == PATIENCE_STOP
        assert result_sha256(result, tmp_path / "result.json") == PATIENCE_RESULT_SHA256
