"""The streaming ``optimization_result`` writer and the result loaders.

:func:`repro.io.save_result` must write exactly the bytes of the reference
encoder, ``json.dumps(result_to_dict(result, ...), indent=2)``; the oracle
lives here, not in ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.io
from repro.cli import main
from repro.analysis.front import FrontRow
from repro.core.result import OptimizationResult
from repro.exceptions import ValidationError
from repro.io import (
    front_from_dict,
    front_to_dict,
    load_result,
    matrix_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.rr.matrix import RRMatrix
from tests.oracles.individual import front_from_rows, result_from_rows

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: Values whose text is easy to get wrong: signed zero, the smallest
#: subnormal, 17-significant-digit values and non-finite ones.
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 1.0, 0.1, 1 / 3, 0.30000000000000004,
    0.12345678901234568, 1e-300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]

values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0), st.floats())


def reference_bytes(result: OptimizationResult, include_optimal_set: bool) -> bytes:
    document = result_to_dict(result, include_optimal_set=include_optimal_set)
    return json.dumps(document, indent=2).encode("utf-8")


@st.composite
def results(draw) -> OptimizationResult:
    n = draw(st.integers(1, 12))
    # Matrices draw their columns from a small shared pool, the way column
    # crossover makes front matrices share values.
    pool = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=4))

    def point() -> FrontRow:
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        matrix = RRMatrix.from_validated(np.array([pool[pick] for pick in picks]).T)
        return FrontRow(draw(values), draw(values), draw(values), matrix)

    return result_from_rows(
        [point() for _ in range(draw(st.integers(0, 4)))],
        [point() for _ in range(draw(st.integers(0, 3)))],
        n_generations=draw(st.integers(0, 2**63)),
        n_evaluations=draw(st.integers(0, 2**63)),
    )


class TestByteIdentity:
    @SETTINGS
    @given(
        result=results(),
        include_optimal_set=st.booleans(),
        group_values=st.sampled_from([1, 5, 1 << 16]),
    )
    def test_matches_the_reference_encoder(
        self, tmp_path, monkeypatch, result, include_optimal_set, group_values
    ):
        monkeypatch.setattr(repro.io, "RESULT_GROUP_VALUES", group_values)
        path = save_result(
            result, tmp_path / "result.json", include_optimal_set=include_optimal_set
        )
        assert path.read_bytes() == reference_bytes(result, include_optimal_set)

    def test_signed_zeros_keep_their_own_text(self, tmp_path):
        matrix = RRMatrix.from_validated(np.array([[-0.0, 1.0], [1.0, 0.0]]))
        result = result_from_rows([FrontRow(0.5, 0.25, 1.0, matrix)])
        text = save_result(result, tmp_path / "result.json").read_text()
        assert text.encode() == reference_bytes(result, False)
        assert "-0.0" in text and "\n            0.0\n" in text

    def test_empty_front(self, tmp_path):
        result = result_from_rows([])
        for flag in (False, True):
            path = save_result(result, tmp_path / "empty.json", include_optimal_set=flag)
            assert path.read_bytes() == reference_bytes(result, flag)

    @pytest.mark.parametrize("group_values", [1, 4, 9, 10, 1 << 16])
    def test_fronts_larger_than_one_group(self, tmp_path, monkeypatch, group_values):
        # Points are written in groups of about RESULT_GROUP_VALUES values,
        # each with its own distinct-value table; values shared across
        # groups, signed zeros and a ragged last group must not matter.
        monkeypatch.setattr(repro.io, "RESULT_GROUP_VALUES", group_values)
        rng = np.random.default_rng(5)
        pool = np.array([-0.0, 0.0, 0.25, 0.5, 1 / 3, 5e-324, 0.1])
        points = [
            FrontRow(0.1 * i, 1e-3, 0.5, RRMatrix.from_validated(rng.choice(pool, size=(3, 3))))
            for i in range(7)
        ]
        result = result_from_rows(points[:5], points[5:])
        for flag in (False, True):
            path = save_result(result, tmp_path / "grouped.json", include_optimal_set=flag)
            assert path.read_bytes() == reference_bytes(result, flag)
        assert "-0.0" in path.read_text()
        empty = save_result(result_from_rows([]), tmp_path / "empty.json")
        assert empty.read_bytes() == reference_bytes(result_from_rows([]), False)

    def test_cli_output_matches_the_pre_streaming_bytes(self, tmp_path, capsys):
        # sha256 of this document as written by the json.dumps(indent=2)
        # encoder that the streaming writer replaced.
        path = tmp_path / "full.json"
        assert main([
            "optimize", "--distribution", "normal", "--categories", "8",
            "--records", "4000", "--generations", "6", "--population", "10",
            "--seed", "3", "--output", str(path),
        ]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3d2efc30acca7cccd131826653b6b560cda498397d2d917f70f256c32f92bb74"
        )
        assert path.read_bytes() == reference_bytes(load_result(path), False)


class _FailingHandle:
    """A file handle that raises on its ``budget + 1``-th write."""

    def __init__(self, handle, budget: int) -> None:
        self.handle, self.budget = handle, budget

    def write(self, text: str) -> int:
        if self.budget == 0:
            raise OSError("disk full")
        self.budget -= 1
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.handle.close()


class TestAtomicWrite:
    @pytest.fixture
    def result(self) -> OptimizationResult:
        points = [FrontRow(float(index), 1.0, 1.0, RRMatrix.identity(3)) for index in range(4)]
        return result_from_rows(points)

    def test_failure_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch, result):
        path = tmp_path / "result.json"
        path.write_text("previous result", encoding="utf-8")
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda *args, **kwargs: _FailingHandle(real_fdopen(*args, **kwargs), 3)
        )
        with pytest.raises(OSError, match="disk full"):
            save_result(result, path)
        assert path.read_text(encoding="utf-8") == "previous result"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["result.json"]

    def test_replaces_an_existing_file_with_plain_open_permissions(self, tmp_path, result):
        path = tmp_path / "result.json"
        path.write_text("previous result", encoding="utf-8")
        plain = tmp_path / "plain.txt"
        plain.write_text("", encoding="utf-8")
        save_result(result, path)
        assert path.read_bytes() == reference_bytes(result, False)
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert not list(tmp_path.glob(".tmp-*"))


def _result_document() -> dict:
    point = FrontRow(0.0, 0.5, 1.0, RRMatrix.identity(2))
    result = result_from_rows([point], [point])
    return result_to_dict(result, include_optimal_set=True)


class TestMalformedDocuments:
    @pytest.mark.parametrize("key", ["points", "optimal_set_points"])
    @pytest.mark.parametrize("value", [7, "points", {"privacy": 0.0}, None])
    def test_mistyped_point_lists(self, key, value):
        document = _result_document()
        document[key] = value
        with pytest.raises(ValidationError, match=key):
            result_from_dict(document)

    def test_missing_points(self):
        document = _result_document()
        del document["points"]
        with pytest.raises(ValidationError, match="points"):
            result_from_dict(document)

    def test_optimal_set_points_may_be_absent(self):
        document = _result_document()
        del document["optimal_set_points"]
        assert result_from_dict(document).spectrum.is_empty

    @pytest.mark.parametrize("item", [7, "point", [0.0, 0.5], None])
    def test_non_object_items(self, item):
        document = _result_document()
        document["points"].append(item)
        with pytest.raises(ValidationError, match=r"points\[1\] must be an object"):
            result_from_dict(document)

    @pytest.mark.parametrize("field", ["privacy", "utility", "max_posterior", "matrix"])
    def test_missing_point_fields(self, field):
        document = _result_document()
        del document["optimal_set_points"][0][field]
        with pytest.raises(ValidationError, match=field):
            result_from_dict(document)

    @pytest.mark.parametrize("value", [None, "high", [1.0]])
    def test_non_numeric_fields(self, value):
        document = _result_document()
        document["points"][0]["utility"] = value
        with pytest.raises(ValidationError, match=r"points\[0\]\.utility"):
            result_from_dict(document)

    @pytest.mark.parametrize("field", ["privacy", "utility", "max_posterior"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True, False, "0.5", 10**400]
    )
    def test_non_finite_or_non_numeric_objectives(self, field, value):
        document = _result_document()
        document["optimal_set_points"][0][field] = value
        with pytest.raises(ValidationError, match=rf"optimal_set_points\[0\]\.{field}"):
            result_from_dict(document)

    @pytest.mark.parametrize("key", ["n_generations", "n_evaluations"])
    @pytest.mark.parametrize("value", [3.7, 3.0, "12", -5, True, None])
    def test_bad_counts(self, key, value):
        document = _result_document()
        document[key] = value
        with pytest.raises(ValidationError, match=key):
            result_from_dict(document)

    @pytest.mark.parametrize("matrix", [None, {}, 0])
    def test_points_without_a_matrix_document(self, matrix):
        document = _result_document()
        for key in ("points", "optimal_set_points"):
            document[key][0]["matrix"] = matrix
        with pytest.raises(ValidationError):
            result_from_dict(document)

    def test_mixed_matrix_sizes(self):
        document = _result_document()
        document["optimal_set_points"][0]["matrix"] = matrix_to_dict(RRMatrix.identity(3))
        with pytest.raises(ValidationError, match=r"mixes matrix sizes \[2, 3\]"):
            result_from_dict(document)

    def test_non_numeric_probabilities(self):
        document = _result_document()
        document["points"][0]["matrix"]["probabilities"] = {"a": 1}
        with pytest.raises(ValidationError, match="probabilities"):
            result_from_dict(document)

    def test_front_documents(self):
        document = front_to_dict(front_from_rows("f", [FrontRow(0.1, 0.2)]))
        assert front_from_dict(document)[0].privacy == 0.1
        for broken in (
            {**document, "points": 7},
            {**document, "points": [7]},
            {**document, "points": [{"privacy": 0.1}]},
            {"points": []},
            [],
            {**document, "points": [{"privacy": float("nan"), "utility": 0.2}]},
            {**document, "points": [{"privacy": 0.1, "utility": float("inf")}]},
            {**document, "points": [{"privacy": True, "utility": 0.2}]},
            {**document, "points": [{"privacy": "0.1", "utility": 0.2}]},
        ):
            with pytest.raises(ValidationError):
                front_from_dict(broken)

    def test_front_document_matrices(self):
        rows = [
            FrontRow(0.3, 0.1, matrix=RRMatrix.identity(2)),
            FrontRow(0.1, 0.2, matrix=RRMatrix.identity(2)),
        ]
        document = front_to_dict(front_from_rows("f", rows))
        loaded = front_from_dict(document)
        assert loaded.privacy.tolist() == [0.1, 0.3]
        assert loaded[0].matrix == RRMatrix.identity(2)
        for change in (
            {"matrix": None},
            {"matrix": matrix_to_dict(RRMatrix.identity(3))},
        ):
            broken = json.loads(json.dumps(document))
            broken["points"][1].update(change)
            with pytest.raises(ValidationError, match="matrix"):
                front_from_dict(broken)
