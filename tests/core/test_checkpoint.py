"""Property tests for the checkpoint serialization layer.

Everything a checkpoint stores must restore *bit-for-bit*: raw float arrays
(including ``inf``, ``nan`` payloads and ``-0.0``), structure-of-arrays
populations, optimal-set state and the NumPy bit-generator state.  Hypothesis
drives the shapes and values; equality is asserted on the raw bytes, not on
approximate comparisons.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.archive import OptimalSet
from repro.core.driver import population_from_document, population_to_document
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ValidationError
from repro.rr.matrix import RRMatrix
from repro.utils.arrays import decode_array, encode_array


def json_round_trip(document):
    """Checkpoint documents travel through compact JSON on disk; every
    round-trip property must survive the text encoding too."""
    return json.loads(json.dumps(document))


class TestArrayCodec:
    @given(
        npst.arrays(
            dtype=np.float64,
            shape=npst.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(
                allow_nan=True, allow_infinity=True, width=64, allow_subnormal=True
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_float_arrays_round_trip_bitwise(self, array):
        restored = decode_array(json_round_trip(encode_array(array)))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()  # bitwise, nan payloads included

    @given(
        npst.arrays(
            dtype=st.sampled_from([np.bool_, np.int64, np.intp]),
            shape=npst.array_shapes(min_dims=1, max_dims=2, max_side=8),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_integer_and_bool_arrays_round_trip(self, array):
        restored = decode_array(json_round_trip(encode_array(array)))
        assert restored.dtype == array.dtype
        np.testing.assert_array_equal(restored, array)

    def test_restored_arrays_are_writable(self):
        restored = decode_array(encode_array(np.arange(4.0)))
        restored[0] = -1.0  # must not raise (frombuffer views are read-only)

    def test_negative_zero_survives(self):
        array = np.array([-0.0, 0.0])
        restored = decode_array(json_round_trip(encode_array(array)))
        assert np.signbit(restored[0]) and not np.signbit(restored[1])

    def test_object_arrays_are_rejected(self):
        with pytest.raises(ValidationError, match="genome codec"):
            encode_array(np.array([object()], dtype=object))

    def test_truncated_payload_is_rejected(self):
        document = encode_array(np.arange(4.0))
        document["shape"] = [8]
        with pytest.raises(ValidationError, match="bytes"):
            decode_array(document)


def rr_populations():
    """Strategy: RR-style array-native populations with realistic columns."""

    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=8))
        n = draw(st.integers(min_value=2, max_value=5))
        finite = st.floats(
            allow_nan=False, allow_infinity=False, width=64, min_value=-1e6, max_value=1e6
        )
        genomes = draw(
            npst.arrays(np.float64, (size, n, n), elements=finite)
        )
        objectives = draw(npst.arrays(np.float64, (size, 2), elements=finite))
        feasible = draw(npst.arrays(np.bool_, (size,)))
        utility = draw(
            npst.arrays(
                np.float64,
                (size,),
                elements=st.floats(allow_nan=False, width=64, min_value=0, max_value=1e9),
            )
        )
        population = Population(
            genomes=genomes,
            objectives=objectives,
            feasible=feasible,
            metadata={
                "privacy": draw(npst.arrays(np.float64, (size,), elements=finite)),
                "utility": utility,
                "invertible": draw(npst.arrays(np.bool_, (size,))),
            },
        )
        if draw(st.booleans()):
            population.set_fitness(
                draw(npst.arrays(np.float64, (size,), elements=finite)),
                draw(st.integers(min_value=0, max_value=100)),
            )
        return population

    return build()


class TestPopulationRoundTrip:
    @given(rr_populations())
    @settings(max_examples=40, deadline=None)
    def test_array_native_population_round_trips(self, population):
        document = json_round_trip(population_to_document(population))
        restored = population_from_document(document)
        assert restored.genomes.tobytes() == population.genomes.tobytes()
        assert restored.objectives.tobytes() == population.objectives.tobytes()
        np.testing.assert_array_equal(restored.feasible, population.feasible)
        assert set(restored.metadata) == set(population.metadata)
        for key in population.metadata:
            assert restored.metadata[key].tobytes() == population.metadata[key].tobytes()
            assert restored.metadata[key].dtype == population.metadata[key].dtype
        assert restored.fitness.tobytes() == population.fitness.tobytes()
        assert restored.fitness_generation == population.fitness_generation

    def test_individuals_layout_is_rejected(self):
        """The per-individual population layout (opaque genomes through a
        problem codec) is no longer written or read: loading one raises a
        typed error instead of reviving a half-supported state."""
        document = {
            "layout": "individuals",
            "individuals": [
                {
                    "genome": {"kind": "scalar", "value": 0.5},
                    "objectives": encode_array(np.array([0.25, 0.25])),
                    "feasible": True,
                    "metadata": {"x": 0.5},
                }
            ],
            "fitness": encode_array(np.array([np.nan])),
            "fitness_generation": -1,
        }
        with pytest.raises(ValidationError, match="population layout 'individuals'"):
            population_from_document(json_round_trip(document))


class TestOptimalSetRoundTrip:
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_optimal_set_round_trips(self, seed, n):
        """Fill Ω with real evaluated matrices, round-trip, compare slots."""
        problem = RRMatrixProblem(normal_distribution(n), 4000)
        rng = np.random.default_rng(seed)
        population = problem.initial_population_soa(12, rng)
        optimal_set = OptimalSet(size=64)
        optimal_set.offer_population(
            population, lambda index: problem.population_individual(population, index)
        )
        document = json_round_trip(optimal_set.state_document())
        restored = OptimalSet(size=64)
        restored.restore_state(document, RRMatrix.from_validated)
        assert restored.n_updates == optimal_set.n_updates
        assert restored.n_occupied == optimal_set.n_occupied
        assert restored.slot_utilities().tobytes() == optimal_set.slot_utilities().tobytes()
        for original, rebuilt in zip(optimal_set.members(), restored.members()):
            assert rebuilt.genome.probabilities.tobytes() == (
                original.genome.probabilities.tobytes()
            )
            assert rebuilt.objectives.tobytes() == original.objectives.tobytes()
            assert rebuilt.metadata == original.metadata
            assert rebuilt.feasible == original.feasible

    def test_size_mismatch_is_rejected(self):
        document = OptimalSet(size=8).state_document()
        with pytest.raises(OptimizationError, match="slots"):
            OptimalSet(size=16).restore_state(document, RRMatrix.from_validated)


class TestRngStateRoundTrip:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_bit_generator_state_round_trips(self, seed, burn):
        from repro.emoo.driver import _restore_rng_state, _rng_state_document

        rng = np.random.default_rng(seed)
        rng.random(burn)  # advance to an arbitrary mid-stream state
        document = json_round_trip(_rng_state_document(rng))
        expected = rng.random(128)
        fresh = np.random.default_rng(0)
        _restore_rng_state(fresh, document)
        np.testing.assert_array_equal(fresh.random(128), expected)

    def test_restore_into_wrong_bit_generator(self):
        from repro.emoo.driver import _restore_rng_state

        rng = np.random.Generator(np.random.MT19937(0))
        document = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}
        with pytest.raises(ValidationError, match="RNG state"):
            _restore_rng_state(rng, document)
