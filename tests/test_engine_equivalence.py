"""Equivalence of the array-native generation engine and the list-based loop.

The structure-of-arrays engine (PR 4) must not change what the optimizer
computes — only how fast.  Three layers of evidence:

* **Trajectory** — fixed-seed end-to-end runs of the array-native
  :class:`~repro.core.optimizer.OptRROptimizer` reproduce the frozen
  list-based loop (``tests/oracles/optrr_loop.py``) bit-for-bit, fronts, Ω and
  matrices included, when the reference applies the same fitness-reuse fix
  (``reuse_archive_fitness=True``).  The RNG stream is untouched by the
  refactor, so this holds exactly, not approximately.
* **Documented divergence** — the *only* intentional semantic change is that
  mating selection reuses the union fitness environmental selection just
  assigned instead of re-running SPEA2 fitness assignment on the archive
  alone (the canonical SPEA2 reading; see ``docs/architecture.md``).  The
  pre-PR behaviour remains available as ``reuse_archive_fitness=False``.
* **Components** — Hypothesis property tests assert the incremental
  truncation and the index-native environmental selection match the pre-PR
  reference implementations on arbitrary (duplicate-heavy) populations.
"""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.density import pairwise_distances
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
    truncate_indices,
)
from benchmarks.baselines.nsga2 import NSGA2, NSGA2Settings
from benchmarks.baselines.weighted_sum import WeightedSumGA, WeightedSumSettings
from tests.oracles.individual import Individual
from tests.oracles.optrr_loop import (
    reference_environmental_selection,
    reference_optrr_run,
    reference_truncate_archive,
)
from tests.oracles.scalar import binary_tournament

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Objective values drawn from a tiny grid so exact duplicates (the hard
#: truncation case: zero-distance clusters) appear constantly.
coordinate = st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0)
point = st.tuples(coordinate, coordinate)
point_sets = st.lists(point, min_size=2, max_size=24)
#: Hostile objective sets: a tiny grid plus ±inf coordinates, so rows share
#: infinite coordinates (NaN distances), sit infinitely far from everything
#: (all-inf distance rows) or duplicate each other.
hostile_coordinate = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf])
hostile_point_sets = st.lists(
    st.tuples(hostile_coordinate, hostile_coordinate), min_size=3, max_size=13
)


def _config(**overrides) -> OptRRConfig:
    base = dict(
        population_size=16,
        archive_size=16,
        n_generations=20,
        delta=0.8,
        baseline_seeds=101,
        seed=11,
    )
    base.update(overrides)
    return OptRRConfig(**base)


def _points(result) -> np.ndarray:
    return np.array([(p.privacy, p.utility) for p in result.points])


def _omega(result) -> np.ndarray:
    return np.array([(p.privacy, p.utility) for p in result.spectrum])


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("seed", [0, 11, 202])
    def test_front_and_omega_bit_for_bit(self, seed):
        """Same seed, same trajectory: fronts and Ω spectra are identical
        arrays, not approximately equal ones."""
        prior = normal_distribution(8)
        config = _config(seed=seed)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert np.array_equal(_points(array_result), _points(reference))
        assert np.array_equal(_omega(array_result), _omega(reference))
        assert array_result.n_evaluations == reference.n_evaluations
        assert array_result.n_generations == reference.n_generations

    def test_front_matrices_bit_for_bit(self):
        """The recovered RR matrices themselves match, entry for entry."""
        prior = normal_distribution(6)
        config = _config(n_generations=12)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert len(array_result.points) == len(reference.points)
        for ours, theirs in zip(array_result.points, reference.points):
            assert np.array_equal(ours.matrix.probabilities, theirs.matrix.probabilities)

    def test_no_delta_configuration(self):
        """Equivalence also holds without a privacy bound (no repair step)."""
        prior = normal_distribution(6)
        config = _config(delta=None, n_generations=10)
        array_result = OptRROptimizer(prior, 5_000, config).run()
        reference = reference_optrr_run(
            prior, 5_000, config, reuse_archive_fitness=True
        )
        assert np.array_equal(_points(array_result), _points(reference))

    def test_documented_divergence_from_pre_pr_loop(self):
        """With the redundant archive fitness re-assignment restored
        (``reuse_archive_fitness=False``), the reference reproduces the
        pre-PR trajectory — same budget, same determinism, but a different
        (non-canonical) mating-selection fitness.  This is the one documented
        semantic change of the array engine."""
        prior = normal_distribution(8)
        config = _config()
        pre_pr = reference_optrr_run(prior, 5_000, config)
        again = reference_optrr_run(prior, 5_000, config)
        assert np.array_equal(_points(pre_pr), _points(again))  # still deterministic
        array_result = OptRROptimizer(prior, 5_000, config).run()
        assert array_result.n_evaluations == pre_pr.n_evaluations
        assert len(array_result.points) > 0 and len(pre_pr.points) > 0


def make_individual(objectives) -> Individual:
    """A feasible oracle individual with the given objectives."""
    return Individual(genome=None, objectives=np.asarray(objectives, dtype=float))


def truncated_positions(archive, target: int) -> list[int]:
    """Survivors of the incremental truncation, as positions in ``archive``."""
    objectives = np.vstack([individual.objectives for individual in archive])
    return truncate_indices(pairwise_distances(objectives), target).tolist()


def reference_positions(population, chosen) -> list[int]:
    """Positions in ``population`` of the (identical) objects in ``chosen``."""
    return [next(k for k, u in enumerate(population) if u is member) for member in chosen]


class TestTruncationEquivalence:
    @SETTINGS
    @given(points=point_sets, data=st.data())
    def test_incremental_truncation_matches_reference(self, points, data):
        """The incremental truncation (bulk duplicate phase + maintained
        nearest-neighbour state) removes exactly the same individuals in the
        same implicit order as the per-removal full re-sort."""
        target = data.draw(st.integers(min_value=1, max_value=len(points)))
        archive = [make_individual(list(p)) for p in points]
        assert truncated_positions(archive, target) == reference_positions(
            archive, reference_truncate_archive(archive, target)
        )

    @SETTINGS
    @given(points=point_sets, data=st.data())
    def test_environmental_selection_matches_reference(self, points, data):
        """Index-native environmental selection (shared distance matrix,
        truncation included) selects the same individuals in the same order
        as the pre-PR list implementation."""
        archive_size = data.draw(st.integers(min_value=1, max_value=len(points) + 2))
        objectives = np.array(points, dtype=float)
        _, _, fitness = spea2_fitness_from_arrays(objectives)
        fast = environmental_selection_indices(
            fitness, archive_size, objectives=objectives
        )
        union = [make_individual(list(p)) for p in points]
        slow = reference_environmental_selection(union, archive_size)
        assert fast.tolist() == reference_positions(union, slow)
        # The reference writes the same fitness values onto the individuals.
        assert np.array_equal([i.fitness for i in union], fitness)

    @SETTINGS
    @given(points=hostile_point_sets, data=st.data())
    def test_truncation_matches_reference_on_hostile_sets(self, points, data):
        """With ±inf objectives (NaN and +inf distances) the incremental
        truncation still removes the reference's rows and keeps exactly
        ``target`` of them."""
        target = data.draw(st.integers(min_value=1, max_value=len(points)))
        archive = [make_individual(list(p)) for p in points]
        survivors = truncated_positions(archive, target)
        assert len(survivors) == target
        assert survivors == reference_positions(
            archive, reference_truncate_archive(archive, target)
        )

    def test_all_infinite_distances_truncate_to_target(self):
        """Regression: every pairwise distance is +inf, so every nearest
        distance ties with the removed rows' +inf; the victim must still be
        an alive row."""
        points = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.inf]])
        assert truncate_indices(pairwise_distances(points), 1).tolist() == [2]

    def test_duplicate_heavy_truncation_keeps_exact_reference_order(self):
        """Regression: a population dominated by duplicate clusters (the Ω
        re-injection pattern) goes through the bulk-removal fast path and
        must still match the reference removal-by-removal."""
        rng = np.random.default_rng(5)
        base = rng.random((6, 2))
        points = np.vstack([base[rng.integers(0, 6)] for _ in range(40)])
        archive = [make_individual(list(p)) for p in points]
        for target in (1, 3, 5, 7, 12, 30):
            assert truncated_positions(archive, target) == reference_positions(
                archive, reference_truncate_archive(archive, target)
            )


#: Fixed-seed trajectories recorded before the batched kernels were unified
#: (the reference and fused implementations produced them identically):
#: sha256 of the front's float64 bytes, the evaluation budget and the final
#: bit-generator state.  ``nsga2`` was recorded while NSGA-II still
#: varied one ``RRMatrix`` at a time and reproduces exactly on the genome
#: stacks.  ``weighted-sum`` was recorded after the GA moved onto the stack
#: hooks: its batched bound repair differs bitwise from the per-matrix repair
#: it ran before, which moved this front (the per-matrix GA gave sha256
#: ``a35bf242...``), while the RNG state and evaluation count are the ones
#: the per-matrix GA ended with.
PINNED_TRAJECTORIES = {
    "optrr": {
        "front_sha256": "260ac97e766a7fa2b60922d73f5ba204c49548445e5f8cccc6a2437a59003903",
        "front_shape": (61, 2),
        "n_evaluations": 277,
        "rng_state": {
            "bit_generator": "PCG64",
            "has_uint32": 0,
            "state": {
                "inc": 7937318808080196428804369945471644491,
                "state": 163882010986462633563647035502043999900,
            },
            "uinteger": 3535276771,
        },
    },
    "nsga2": {
        "front_sha256": "f52df15eb7b5c939483be6a2543b2b3ea5fee03777e4951d64a1e97f5066c409",
        "front_shape": (8, 2),
        "n_evaluations": 56,
        "rng_state": {
            "bit_generator": "PCG64",
            "has_uint32": 1,
            "state": {
                "inc": 222003063171874261427395693950637096479,
                "state": 203712355970150310707797846968676707832,
            },
            "uinteger": 3009066713,
        },
    },
    "weighted-sum": {
        "front_sha256": "42cc9b525cd9a51d425a8d03b8e55f35f36cbf545ecdd3af12ceb34b36ea7a16",
        "front_shape": (4, 2),
        "n_evaluations": 248,
        "rng_state": {
            "bit_generator": "PCG64",
            "has_uint32": 0,
            "state": {
                "inc": 222003063171874261427395693950637096479,
                "state": 327446976029385060386968460367537182638,
            },
            "uinteger": 759974530,
        },
    },
}


#: sha256 of ``json.dumps(checkpoint["state"], sort_keys=True)`` at the end
#: of the pinned ``optrr`` run (``checkpoint_version`` 3).  It pins the
#: population, archive, Ω and counter payload of a checkpoint bit for bit
#: (``elapsed_seconds``, the only run-to-run variable field, sits outside
#: ``state``).
PINNED_CHECKPOINT_STATES = {
    "optrr": "111859a2c883ba1cc5d9ac2a1cc0edaff67c30e2ab50af894017084bcc2ca8af",
}

#: The same digest for ``checkpoint_version`` 2, recorded while Ω still
#: stored one ``Individual`` per slot.  Version 3 dropped only the three
#: scheduling fields of ``setup.config`` (with their defaults below) and the
#: ``problem.n_low_evaluations`` counter (always 0 on that path).
VERSION_2_CHECKPOINT_STATE = "2c3139a03aeec59c600f16654218e73a9943df712c00426b06fe54c429762875"
VERSION_2_ONLY_CONFIG = {
    "low_fidelity_fraction": 1.0,
    "promotion_fraction": 0.25,
    "min_fidelity": 0.05,
}


def _pinned_optrr_run():
    """The pinned ``optrr`` run: ``(driver, result)``."""
    optimizer = OptRROptimizer(normal_distribution(8), 5_000, _config(n_generations=10))
    driver = optimizer.driver()
    return driver, optimizer.run_driver(driver)


def _state_digest(state: dict) -> str:
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()


def _pinned_run(engine: str):
    """One short fixed-seed run: ``(front, n_evaluations, rng_state)``."""
    if engine == "optrr":
        driver, result = _pinned_optrr_run()
        return _points(result), result.n_evaluations, driver.rng.bit_generator.state
    problem = RRMatrixProblem(normal_distribution(6), 4_000, delta=0.85)
    if engine == "nsga2":
        driver = NSGA2(
            problem,
            NSGA2Settings(population_size=8),
            n_generations=6,
            seed=3,
        ).driver()
        for _ in driver.steps():
            pass
        result, rng = driver.result(), driver.rng
    else:
        rng = np.random.default_rng(3)
        result = WeightedSumGA(
            problem,
            WeightedSumSettings(population_size=8, n_generations=6, n_weights=5),
            seed=rng,
        ).run()
    front = np.array(sorted(map(tuple, result.front.objectives)))
    return front, result.n_evaluations, rng.bit_generator.state


class TestPinnedTrajectories:
    """Fixed-seed runs of every engine reproduce their recorded trajectory.

    The kernels draw no randomness, so the final RNG state and the
    evaluation budget pin the control flow; the front's sha256 pins every
    objective value bit for bit.
    """

    @pytest.mark.parametrize("engine", sorted(PINNED_TRAJECTORIES))
    def test_trajectory_matches_pin(self, engine):
        front, evaluations, rng_state = _pinned_run(engine)
        expected = PINNED_TRAJECTORIES[engine]
        assert rng_state == expected["rng_state"]
        assert evaluations == expected["n_evaluations"]
        assert front.shape == expected["front_shape"]
        digest = hashlib.sha256(
            np.ascontiguousarray(front, dtype=np.float64).tobytes()
        ).hexdigest()
        assert digest == expected["front_sha256"]

    @pytest.mark.parametrize("engine", sorted(PINNED_CHECKPOINT_STATES))
    def test_checkpoint_state_matches_pin(self, engine):
        driver, _ = _pinned_optrr_run()
        assert _state_digest(driver.checkpoint_document()["state"]) == (
            PINNED_CHECKPOINT_STATES[engine]
        )

    def test_checkpoint_state_is_version_2_without_the_scheduling_fields(self):
        """The version-3 re-pin moved nothing but the dropped fields: put
        them back and the state hashes to the version-2 pin."""
        driver, _ = _pinned_optrr_run()
        state = copy.deepcopy(driver.checkpoint_document()["state"])
        assert not VERSION_2_ONLY_CONFIG.keys() & state["setup"]["config"].keys()
        assert "n_low_evaluations" not in state["problem"]
        state["setup"]["config"].update(VERSION_2_ONLY_CONFIG)
        state["problem"]["n_low_evaluations"] = 0
        assert _state_digest(state) == VERSION_2_CHECKPOINT_STATE


class TestMatingSelectionEquivalence:
    def test_tournament_wrapper_matches_index_function(self):
        pool = [make_individual([float(i), float(-i)]) for i in range(6)]
        for index, individual in enumerate(pool):
            individual.fitness = float(index % 3)
        fitness = np.array([individual.fitness for individual in pool])
        winners_list = binary_tournament(pool, 40, seed=np.random.default_rng(9))
        winners_index = binary_tournament_indices(
            fitness, 40, np.random.default_rng(9)
        )
        positions = [
            next(k for k, candidate in enumerate(pool) if candidate is winner)
            for winner in winners_list
        ]
        assert positions == [int(index) for index in winners_index]
