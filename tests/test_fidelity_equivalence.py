"""Promotion-equivalence suite for the multi-fidelity scheduler.

Two invariants make fidelity scheduling safe to adopt:

1. **Exact-path equivalence** — a run with fidelity scheduling disabled
   (OptRR at ``low_fidelity_fraction=1.0``, NSGA-II with no schedule)
   is bit-for-bit the run this repo produced before the scheduler existed:
   same RNG stream, same fronts, same Ω spectrum, same serialized result.
2. **Resume equivalence** — a fidelity-*enabled* run killed after any
   generation and resumed from its checkpoint reproduces the uninterrupted
   run bit for bit, which requires the scheduler state (current low
   fidelity, eval counters) to round-trip through the checkpoint codec.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.fidelity import FidelitySchedule
from repro.io import load_checkpoint, result_to_dict

from benchmarks.baselines.nsga2 import NSGA2, NSGA2Settings

N_GENERATIONS = 5
SCHEDULE = FidelitySchedule(low_fidelity=0.25, promotion_fraction=0.4)


def make_optrr(**config_updates) -> OptRROptimizer:
    config = OptRRConfig(
        population_size=10,
        archive_size=10,
        n_generations=N_GENERATIONS,
        delta=0.8,
        seed=11,
        baseline_seeds=101,
        **config_updates,
    )
    return OptRROptimizer(normal_distribution(7), 4000, config)


def make_fidelity_optrr() -> OptRROptimizer:
    return make_optrr(low_fidelity_fraction=0.25, promotion_fraction=0.4)


def make_nsga2(fidelity: FidelitySchedule | None) -> NSGA2:
    return NSGA2(
        RRMatrixProblem(normal_distribution(6), 4000, delta=0.85),
        NSGA2Settings(population_size=8),
        n_generations=N_GENERATIONS,
        seed=3,
        fidelity=fidelity,
    )


def optrr_result_key(result) -> str:
    return json.dumps(result_to_dict(result, include_optimal_set=True), sort_keys=True)


def generic_result_key(result) -> list:
    front = result.front
    return sorted(
        (tuple(objectives.tolist()), repr(genome))
        for objectives, genome in zip(front.objectives, front.genomes)
    )


def run_interrupted(factory, kill_after: int, checkpoint_path):
    driver = factory().driver(checkpoint_path=str(checkpoint_path), checkpoint_every=1)
    steps = driver.steps()
    for _ in range(kill_after + 1):
        snapshot = next(steps)
        if snapshot.stopped:
            break
    return load_checkpoint(checkpoint_path)


class TestExactPathEquivalence:
    """Disabled scheduling must reproduce the pre-scheduler trajectories."""

    def test_optrr_fraction_one_is_bit_identical_to_default(self):
        assert optrr_result_key(
            make_optrr(low_fidelity_fraction=1.0).run()
        ) == optrr_result_key(make_optrr().run())

    def test_optrr_fraction_one_matches_default_checkpoints_too(self, tmp_path):
        """The checkpoint documents of the two runs agree except for the
        config echo and its fingerprint (which record the explicit
        fraction); the whole optimization state — populations, Ω, RNG
        stream, counters — is identical."""
        default_doc = run_interrupted(make_optrr, 2, tmp_path / "default.json")
        explicit_doc = run_interrupted(
            lambda: make_optrr(low_fidelity_fraction=1.0), 2, tmp_path / "explicit.json"
        )
        for document in (default_doc, explicit_doc):
            document.pop("config", None)
            document.pop("fingerprint", None)
            document.pop("written_at", None)
            document.pop("elapsed_seconds", None)  # wall clock, not state
        assert json.dumps(default_doc, sort_keys=True, default=str) == json.dumps(
            explicit_doc, sort_keys=True, default=str
        )

    def test_nsga2_without_schedule_is_deterministic(self):
        assert generic_result_key(make_nsga2(None).run()) == generic_result_key(
            make_nsga2(None).run()
        )


class TestFidelityRunInvariants:
    def test_optrr_eval_counts_split_into_full_and_low(self):
        driver = make_fidelity_optrr().driver()
        last = None
        for last in driver.steps():
            assert last.n_full_evaluations + last.n_low_evaluations == last.n_evaluations
        # Setup (population + baseline seeds) runs at full fidelity; each
        # generation adds a full low-fidelity batch of 10 plus the
        # ceil(0.4 * 10) = 4 promoted re-evaluations.
        assert last.n_low_evaluations == N_GENERATIONS * 10
        assert last.n_full_evaluations == (10 + 101) + N_GENERATIONS * 4

    def test_optrr_omega_only_sees_full_fidelity(self):
        driver = make_fidelity_optrr().driver()
        for _ in driver.steps():
            pass
        members = driver.optimization.optimal_set.members()
        assert members.feasible.any()
        assert np.all(members.metadata["fidelity"][members.feasible] >= 1.0)

    def test_fidelity_run_differs_from_exact_run(self):
        """Sanity: scheduling genuinely changes the search (otherwise the
        equivalence tests above would be vacuous)."""
        exact = make_optrr().run()
        scheduled = make_fidelity_optrr().run()
        assert scheduled.n_evaluations > exact.n_evaluations


class TestFidelityResumeEquivalence:
    """Kill-at-every-generation resume of fidelity-enabled runs."""

    @pytest.mark.parametrize("kill_after", range(N_GENERATIONS))
    def test_optrr_fidelity_resume_bit_for_bit(self, tmp_path, kill_after):
        reference = optrr_result_key(make_fidelity_optrr().run())
        document = run_interrupted(make_fidelity_optrr, kill_after, tmp_path / "ck.json")
        optimizer = OptRROptimizer.from_checkpoint(document)
        driver = optimizer.driver()
        driver.restore(document)
        assert optrr_result_key(optimizer.run_driver(driver)) == reference

    @pytest.mark.parametrize("kill_after", range(N_GENERATIONS))
    def test_nsga2_fidelity_resume_bit_for_bit(self, tmp_path, kill_after):
        reference = make_nsga2(SCHEDULE).run()
        document = run_interrupted(
            lambda: make_nsga2(SCHEDULE), kill_after, tmp_path / "ck.json"
        )
        driver = make_nsga2(SCHEDULE).driver()
        driver.restore(document)
        resumed = driver.run()
        assert generic_result_key(resumed) == generic_result_key(reference)
        assert resumed.n_evaluations == reference.n_evaluations

    def test_checkpoint_carries_scheduler_state(self, tmp_path):
        document = run_interrupted(make_fidelity_optrr, 1, tmp_path / "ck.json")
        state = document["state"]["fidelity"]
        assert state["current_low_fidelity"] == 0.25
        assert state["n_low_evaluations"] == 2 * 10
        assert state["n_full_evaluations"] == 2 * 4

    def test_mismatched_fidelity_schedule_rejects_resume(self, tmp_path):
        """The setup fingerprint pins the schedule: resuming a scheduled
        NSGA-II checkpoint on a driver without the schedule must fail."""
        from repro.exceptions import ValidationError

        document = run_interrupted(
            lambda: make_nsga2(SCHEDULE), 1, tmp_path / "ck.json"
        )
        driver = make_nsga2(None).driver()
        with pytest.raises(ValidationError, match="fingerprint"):
            driver.restore(document)
