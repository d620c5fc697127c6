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
from repro.emoo.driver import population_from_document, population_to_document
from repro.core.problem import RRMatrixProblem
from repro.data.synthetic import normal_distribution
from repro.emoo.population import Population
from repro.exceptions import ValidationError
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
        optimal_set = OptimalSet(size=64)
        optimal_set.offer_population(problem.initial_population_soa(12, rng))
        document = json_round_trip(optimal_set.state_document())
        restored = OptimalSet(size=64)
        restored.restore_state(document)
        assert restored.n_updates == optimal_set.n_updates
        assert restored.n_occupied == optimal_set.n_occupied
        assert restored.slot_utilities().tobytes() == optimal_set.slot_utilities().tobytes()
        original, rebuilt = optimal_set.members(), restored.members()
        slots = np.flatnonzero(original.feasible)
        assert np.array_equal(rebuilt.feasible, original.feasible)
        assert rebuilt.genomes[slots].tobytes() == original.genomes[slots].tobytes()
        assert rebuilt.objectives[slots].tobytes() == original.objectives[slots].tobytes()
        assert list(rebuilt.metadata) == list(original.metadata)
        for key, column in original.metadata.items():
            assert rebuilt.metadata[key].dtype == column.dtype
            assert rebuilt.metadata[key][slots].tobytes() == column[slots].tobytes()
        assert json.dumps(restored.state_document()) == json.dumps(document)

    def test_size_mismatch_is_rejected(self):
        document = OptimalSet(size=8).state_document()
        with pytest.raises(ValidationError, match="slots"):
            OptimalSet(size=16).restore_state(document)


def _omega_document():
    """A real, JSON round-tripped Ω document with several occupied slots."""
    problem = RRMatrixProblem(normal_distribution(4), 4000, delta=0.8)
    optimal_set = OptimalSet(size=50)
    optimal_set.offer_population(problem.initial_population_soa(20, np.random.default_rng(1)))
    assert optimal_set.n_occupied >= 3
    return json_round_trip(optimal_set.state_document())


def _scaled_genomes(factor):
    def tamper(document):
        genomes = decode_array(document["genomes"])
        document["genomes"] = encode_array(genomes * factor)

    return tamper


def _set(field, value):
    def tamper(document):
        document[field] = value(document) if callable(value) else value

    return tamper


def _nan_utility(document):
    utility = decode_array(document["metadata"]["utility"]["column"])
    utility[1] = np.nan
    document["metadata"]["utility"]["column"] = encode_array(utility)


def _infeasible_member(document):
    feasible = decode_array(document["feasible"])
    feasible[0] = False
    document["feasible"] = encode_array(feasible)


def _shifted_privacy(document):
    privacy = decode_array(document["metadata"]["privacy"]["column"])
    document["metadata"]["privacy"]["column"] = encode_array(privacy + 0.2)


def _swapped_objectives(document):
    objectives = decode_array(document["objectives"])
    document["objectives"] = encode_array(objectives[:, ::-1].copy())


#: One tampered Ω checkpoint per restore rule.
OMEGA_TAMPERS = {
    "nan-genomes": _scaled_genomes(np.nan),
    "negated-genomes": _scaled_genomes(-1.0),
    "tripled-genomes": _scaled_genomes(3.0),
    "halved-genomes": _scaled_genomes(0.5),
    "slot-out-of-range": _set("slots", lambda d: d["slots"][:-1] + [5000]),
    "negative-slot": _set("slots", lambda d: [-3] + d["slots"][1:]),
    "duplicate-slots": _set("slots", lambda d: [d["slots"][0]] + d["slots"][:-1]),
    "unsorted-slots": _set("slots", lambda d: d["slots"][::-1]),
    "short-slot-list": _set("slots", lambda d: d["slots"][:-1]),
    "non-int-slot": _set("slots", lambda d: [float(d["slots"][0])] + d["slots"][1:]),
    "negative-n-updates": _set("n_updates", -5),
    "n-updates-below-occupancy": _set("n_updates", 1),
    "bool-n-updates": _set("n_updates", True),
    "nan-utility": _nan_utility,
    "infeasible-member": _infeasible_member,
    "member-outside-its-slot": _shifted_privacy,
    "objectives-not-privacy-utility": _swapped_objectives,
    "missing-genomes": lambda document: document.pop("genomes"),
    "malformed-metadata": _set("metadata", [1, 2]),
}


class TestOptimalSetRestoreValidation:
    @pytest.mark.parametrize("defect", sorted(OMEGA_TAMPERS))
    def test_tampered_document_is_rejected(self, defect):
        document = _omega_document()
        OMEGA_TAMPERS[defect](document)
        restored = OptimalSet(size=50)
        with pytest.raises(ValidationError, match="checkpointed optimal set"):
            restored.restore_state(document)
        # Nothing was touched before the document was rejected.
        assert restored.n_updates == 0 and restored.members() is None

    def test_untampered_document_is_accepted(self):
        document = _omega_document()
        restored = OptimalSet(size=50)
        restored.restore_state(document)
        assert restored.n_occupied == len(document["slots"])


class TestRngStateRoundTrip:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_bit_generator_state_round_trips(self, seed, burn):
        from repro.types import restore_rng_state, rng_state_document

        rng = np.random.default_rng(seed)
        rng.random(burn)  # advance to an arbitrary mid-stream state
        document = json_round_trip(rng_state_document(rng))
        expected = rng.random(128)
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, document)
        np.testing.assert_array_equal(fresh.random(128), expected)

    def test_restore_into_wrong_bit_generator(self):
        from repro.types import restore_rng_state

        rng = np.random.Generator(np.random.MT19937(0))
        document = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}
        with pytest.raises(ValidationError, match="RNG state"):
            restore_rng_state(rng, document)
