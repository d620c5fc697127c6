"""Tests for the optimal set Ω (repro.core.archive).

Ω stores slot-indexed columns; the frozen ``Individual``-per-slot set in
``tests/oracles/omega.py`` is the ground truth its offers, refresh and
checkpoint documents are compared against.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import archive
from repro.core.archive import OptimalSet
from repro.emoo.population import Population
from repro.exceptions import OptimizationError
from tests.oracles.individual import row_individuals
from tests.oracles.omega import OptimalSet as OracleOptimalSet
from tests.oracles.optrr_loop import _refresh_from_optimal_set


def make_population(privacy, utility, feasible=None, seed=0) -> Population:
    """Rows with the RR problem's metadata layout and random 3x3 genomes."""
    privacy = np.asarray(privacy, dtype=np.float64)
    utility = np.asarray(utility, dtype=np.float64)
    size = privacy.size
    rng = np.random.default_rng(seed)
    return Population(
        genomes=rng.random((size, 3, 3)),
        objectives=np.stack([-privacy, utility], axis=1),
        feasible=np.ones(size, dtype=bool) if feasible is None else feasible,
        metadata={
            "privacy": privacy,
            "utility": utility,
            "max_posterior": rng.random(size),
            "invertible": rng.random(size) < 0.5,
        },
    )


def occupied(omega: OptimalSet) -> Population:
    """The occupied slots of ``omega`` as a compact population."""
    members = omega.members()
    return members.take(np.flatnonzero(members.feasible))


class TestSlotting:
    def test_slot_of_uses_floor(self):
        omega = OptimalSet(size=10)
        slots = omega.slots_of(np.array([0.0, 0.15, 0.99, 1.0]))
        assert slots.tolist() == [0, 1, 9, 9]  # 1.0 is clamped into the last slot

    def test_slot_of_rejects_nan(self):
        with pytest.raises(OptimizationError):
            OptimalSet(10).slots_of(np.array([float("nan")]))


class TestOffer:
    def test_accepts_first_member_of_a_slot(self):
        omega = OptimalSet(100)
        assert omega.offer_population(make_population([0.42], [1e-4])) == 1
        assert omega.n_occupied == 1
        assert omega.n_updates == 1

    def test_better_utility_replaces_occupant(self):
        omega = OptimalSet(100)
        omega.offer_population(make_population([0.42], [1e-4]))
        # Same slot, lower MSE.
        assert omega.offer_population(make_population([0.421], [5e-5])) == 1
        assert omega.n_occupied == 1
        assert omega.slot_utilities()[42] == 5e-5
        assert occupied(omega).metadata["privacy"].tolist() == [0.421]

    def test_worse_utility_is_rejected(self):
        omega = OptimalSet(100)
        omega.offer_population(make_population([0.42], [1e-4]))
        assert omega.offer_population(make_population([0.423], [2e-4])) == 0
        assert omega.n_updates == 1

    def test_different_slots_coexist(self):
        omega = OptimalSet(100)
        omega.offer_population(make_population([0.1], [1e-4]))
        omega.offer_population(make_population([0.9], [1e-6]))
        assert omega.n_occupied == 2

    def test_infeasible_members_are_ignored(self):
        omega = OptimalSet(100)
        offered = make_population([0.5], [1e-4], feasible=np.array([False]))
        assert omega.offer_population(offered) == 0
        assert omega.n_occupied == 0
        assert omega.members() is None

    def test_members_without_metadata_raise(self):
        population = Population(
            genomes=np.zeros((1, 2, 2)), objectives=np.zeros((1, 2)), feasible=[True]
        )
        with pytest.raises(KeyError, match="utility"):
            OptimalSet(10).offer_population(population)

    def test_offer_population_counts_updates(self):
        omega = OptimalSet(100)
        assert omega.offer_population(make_population([0.1, 0.2, 0.1], [1e-4, 1e-4, 2e-4])) == 2

    def test_infinite_utility_is_rejected(self):
        omega = OptimalSet(10)
        assert omega.offer_population(make_population([0.3], [float("inf")])) == 0

    def test_stored_member_is_a_copy(self):
        omega = OptimalSet(100)
        population = make_population([0.33], [1e-4])
        omega.offer_population(population)
        population.metadata["utility"][0] = 999.0
        population.genomes[0] = 7.0
        member = occupied(omega)
        assert member.metadata["utility"].tolist() == [1e-4]
        assert not np.any(member.genomes == 7.0)


class TestViews:
    def test_members_ordered_by_privacy_slot(self):
        omega = OptimalSet(100)
        omega.offer_population(make_population([0.8, 0.2], [1e-6, 1e-4]))
        privacies = occupied(omega).metadata["privacy"].tolist()
        assert privacies == sorted(privacies)

    def test_members_are_read_only_slot_rows(self):
        omega = OptimalSet(10)
        omega.offer_population(make_population([0.35], [1e-4]))
        members = omega.members()
        assert members.size == 10
        assert np.flatnonzero(members.feasible).tolist() == [3]
        with pytest.raises(ValueError):
            members.genomes[3] = 0.0

    def test_len_counts_occupied_slots(self):
        omega = OptimalSet(50)
        omega.offer_population(make_population([0.3], [1e-4]))
        assert len(omega) == 1


class TestRefresh:
    def test_refresh_keeps_row_fitness(self):
        """An injected member inherits the selection fitness of the row it
        replaces, so the archive's generation stamp stays truthful."""
        omega = OptimalSet(100)
        omega.offer_population(make_population([0.42], [1e-5], seed=1))
        population = make_population([0.42, 0.9, 0.421], [1e-4, 1e-4, 1e-6], seed=2)
        population.set_fitness(np.array([0.1, 0.2, 0.3]), generation=1)
        omega.refresh(population)
        member = occupied(omega)
        assert population.genomes[0].tobytes() == member.genomes[0].tobytes()
        assert population.metadata["utility"].tolist() == [1e-5, 1e-4, 1e-6]
        assert population.fitness.tolist() == [0.1, 0.2, 0.3]
        assert population.fitness_generation == 1

    def test_refresh_of_an_empty_set_is_a_no_op(self):
        population = make_population([0.42], [1e-4])
        before = population.genomes.copy()
        OptimalSet(10).refresh(population)
        assert population.genomes.tobytes() == before.tobytes()


class TestOfferPopulation:
    """Vectorized population offers must make the same accept/reject
    decisions (and update counts) as offering the rows sequentially."""

    def test_matches_sequential_offers(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            ours = OptimalSet(40)
            oracle = OracleOptimalSet(40)
            for batch in range(3):  # several batches so occupied slots interact
                size = 30
                utility = rng.uniform(1e-6, 1e-3, size)
                utility[rng.random(size) < 0.1] = np.inf
                population = make_population(
                    rng.uniform(0.0, 1.0, size),
                    utility,
                    feasible=rng.random(size) > 0.2,
                    seed=trial * 10 + batch,
                )
                expected = oracle.offer_many(row_individuals(population))
                assert ours.offer_population(population) == expected
            assert ours.n_updates == oracle.n_updates
            assert ours.slot_utilities().tobytes() == oracle.slot_utilities().tobytes()

    def test_duplicate_slot_candidates_in_one_batch(self):
        """Three same-slot candidates in one batch: 3e-4 lands, then 1e-4
        replaces it, and 2e-4 loses — exactly like sequential offers."""
        omega = OptimalSet(10)
        accepted = omega.offer_population(make_population([0.505] * 3, [3e-4, 1e-4, 2e-4]))
        assert accepted == 2
        assert omega.n_occupied == 1
        assert occupied(omega).metadata["utility"].tolist() == [1e-4]

    def test_slots_of_matches_scalar_slot_of(self):
        privacy = np.array([0.0, 1.0, 0.5, 0.999999, 1e-9])
        oracle = OracleOptimalSet(17)
        assert OptimalSet(17).slots_of(privacy).tolist() == [
            oracle.slot_of(float(value)) for value in privacy
        ]

    def test_slots_of_rejects_non_finite(self):
        with pytest.raises(OptimizationError):
            OptimalSet(10).slots_of(np.array([0.5, np.nan]))


#: Privacy values that share slots at every tested size, plus both ends.
PRIVACY = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.5049, 0.505, 0.999]),
    st.floats(min_value=0.0, max_value=1.0),
)
#: Utilities from a tiny grid (exact ties) plus both infinities.
UTILITY = st.one_of(
    st.sampled_from([1e-4, 2e-4, 3e-4, np.inf, -np.inf]),
    st.floats(min_value=1e-7, max_value=1e-2),
)
ROW = st.tuples(PRIVACY, UTILITY, st.booleans())
BATCHES = st.lists(st.lists(ROW, min_size=0, max_size=12), min_size=1, max_size=4)


def batch_population(rows, seed):
    if not rows:
        rows = [(0.5, np.inf, False)]
    privacy, utility, feasible = zip(*rows)
    return make_population(privacy, utility, np.array(feasible), seed=seed)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


#: Genome rows per Ω copy chunk: None keeps the module's budget (every test
#: batch is one chunk); 1-3 rows make batches span several chunks.
CHUNK_ROWS = st.one_of(st.none(), st.integers(min_value=1, max_value=3))


def chunk_rows(rows):
    """Patch Ω's copy budget down to ``rows`` 3x3 float64 genomes."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(archive, "_CHUNK_BYTES", rows * 9 * 8)


class TestOracleEquivalence:
    """Columnar Ω against the frozen ``Individual``-per-slot Ω, batch by
    batch: accepted counts, update counters, slot utilities and the member
    genome, objective and metadata bytes (via the checkpoint documents)."""

    @given(batches=BATCHES, size=st.integers(min_value=1, max_value=20), chunk=CHUNK_ROWS)
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batches_match_the_list_oracle(self, batches, size, chunk):
        ours, oracle = OptimalSet(size), OracleOptimalSet(size)
        for seed, rows in enumerate(batches):
            population = batch_population(rows, seed)
            with chunk_rows(chunk):
                accepted = ours.offer_population(population)
            assert accepted == oracle.offer_many(row_individuals(population))
            assert ours.n_updates == oracle.n_updates
            assert ours.n_occupied == oracle.n_occupied
            assert ours.slot_utilities().tobytes() == oracle.slot_utilities().tobytes()
            assert canonical(ours.state_document()) == canonical(oracle.state_document())

    @given(
        batches=BATCHES,
        targets=st.lists(st.tuples(PRIVACY, UTILITY, st.booleans()), max_size=12),
        size=st.integers(min_value=1, max_value=20),
        chunk=CHUNK_ROWS,
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_refresh_matches_the_oracle_loop(self, batches, targets, size, chunk):
        ours, oracle = OptimalSet(size), OracleOptimalSet(size)
        for seed, rows in enumerate(batches):
            population = batch_population(rows, seed)
            with chunk_rows(chunk):
                ours.offer_population(population)
            oracle.offer_many(row_individuals(population))
        population = batch_population(targets, seed=99)
        population.set_fitness(np.arange(population.size, dtype=np.float64), generation=4)
        individuals = row_individuals(population)
        _refresh_from_optimal_set(individuals, oracle, reuse_archive_fitness=True)
        with chunk_rows(chunk):
            ours.refresh(population)
        refreshed = row_individuals(population)
        for row, (theirs, mine) in enumerate(zip(individuals, refreshed)):
            assert mine.genome.probabilities.tobytes() == theirs.genome.probabilities.tobytes()
            assert mine.objectives.tobytes() == theirs.objectives.tobytes()
            assert mine.feasible == theirs.feasible
            assert mine.metadata == theirs.metadata
            assert mine.fitness == theirs.fitness == row


class TestChunkedCopies:
    """Genomes move between a population and Ω in bounded chunks."""

    def test_offer_holds_at_most_two_chunks_beyond_the_columns(self):
        # The n = 64 baseline sweep's shape: 1001 matrices over 1000 slots,
        # each genome tagged with its row number.
        n, size = 64, 1001
        privacy = np.linspace(0.0, 1.0, size)
        genomes = np.full((size, n, n), 1.0 / n)
        genomes[:, 0, 0] = np.arange(size)
        population = Population(
            genomes=genomes,
            objectives=np.stack([-privacy, np.ones(size)], axis=1),
            feasible=np.ones(size, dtype=bool),
            metadata={"privacy": privacy, "utility": np.ones(size)},
        )
        omega = OptimalSet(1000)
        tracemalloc.start()
        try:
            omega.offer_population(population)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        members = omega.members()
        columns = members.genomes.nbytes + members.objectives.nbytes + sum(
            column.nbytes for column in members.metadata.values()
        )
        assert peak <= columns + 2 * archive._CHUNK_BYTES
        # Equal utilities: the first row offered to each slot keeps it.
        assert omega.n_occupied == 1000
        assert np.array_equal(members.genomes, genomes[:1000])
