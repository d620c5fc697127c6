"""Tests for repro.io (serialization of matrices and results)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.exceptions import RRMatrixError, ValidationError
from repro.experiments.base import ExperimentResult
from repro.io import (
    comparison_from_dict,
    comparison_to_dict,
    experiment_result_from_dict,
    experiment_result_to_dict,
    load_matrix,
    load_result,
    matrix_from_dict,
    matrix_to_dict,
    result_from_dict,
    result_to_dict,
    save_matrix,
    save_result,
)
from repro.utils.arrays import dump_canonical_json
from repro.rr.matrix import RRMatrix
from repro.rr.schemes import warner_matrix


def save_experiment_result(result: ExperimentResult, path: str | Path) -> Path:
    """Write an experiment result to a canonical-JSON file and return the
    path."""
    path = Path(path)
    path.write_text(dump_canonical_json(experiment_result_to_dict(result)), encoding="utf-8")
    return path


def load_experiment_result(path: str | Path) -> ExperimentResult:
    """Read an experiment result from a JSON file written by
    :func:`save_experiment_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return experiment_result_from_dict(document)


class TestMatrixSerialization:
    def test_round_trip_dict(self):
        matrix = warner_matrix(5, 0.63)
        restored = matrix_from_dict(matrix_to_dict(matrix))
        assert restored == matrix

    def test_round_trip_file(self, tmp_path):
        matrix = warner_matrix(4, 0.42)
        path = save_matrix(matrix, tmp_path / "matrix.json")
        assert path.exists()
        assert load_matrix(path) == matrix

    def test_file_is_valid_json(self, tmp_path):
        path = save_matrix(RRMatrix.identity(3), tmp_path / "matrix.json")
        document = json.loads(path.read_text())
        assert document["type"] == "rr_matrix"
        assert document["n_categories"] == 3

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="expected"):
            matrix_from_dict({"type": "something", "format_version": 1})

    def test_rejects_wrong_version(self):
        document = matrix_to_dict(RRMatrix.identity(2))
        document["format_version"] = 99
        with pytest.raises(ValidationError, match="format version"):
            matrix_from_dict(document)

    def test_rejects_inconsistent_size(self):
        document = matrix_to_dict(RRMatrix.identity(3))
        document["n_categories"] = 4
        with pytest.raises(ValidationError, match="does not match"):
            matrix_from_dict(document)

    def test_rejects_corrupted_probabilities(self):
        document = matrix_to_dict(RRMatrix.identity(3))
        document["probabilities"][0][0] = 5.0
        with pytest.raises(RRMatrixError):
            matrix_from_dict(document)


class TestResultSerialization:
    @pytest.fixture(scope="class")
    def result(self, ):
        prior = np.array([0.4, 0.35, 0.25])
        config = OptRRConfig(
            population_size=10, archive_size=10, n_generations=10, delta=0.8, seed=0
        )
        return OptRROptimizer(prior, 1000, config).run()

    def test_round_trip_dict(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert len(restored) == len(result)
        np.testing.assert_array_equal(
            restored.front.as_minimization_array(), result.front.as_minimization_array()
        )
        assert restored.n_generations == result.n_generations
        assert restored.n_evaluations == result.n_evaluations

    def test_round_trip_preserves_matrices(self, result):
        restored = result_from_dict(result_to_dict(result))
        for original, loaded in zip(result, restored):
            assert original.matrix == loaded.matrix

    def test_round_trip_file(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        restored = load_result(path)
        np.testing.assert_allclose(restored.privacy_values(), result.privacy_values())

    def test_optimal_set_points_optional(self, result, tmp_path):
        without = result_to_dict(result)
        assert "optimal_set_points" not in without
        with_set = result_to_dict(result, include_optimal_set=True)
        assert len(with_set["optimal_set_points"]) == len(result.spectrum)
        restored = result_from_dict(with_set)
        assert len(restored.spectrum) == len(result.spectrum)

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError):
            result_from_dict({"type": "rr_matrix", "format_version": 1})


class TestExperimentResultSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.runner import run_experiment

        return run_experiment("fig4a", seed=0, n_generations=8, population_size=8)

    def test_round_trip_dict(self, result):
        restored = experiment_result_from_dict(experiment_result_to_dict(result))
        assert restored.experiment_id == result.experiment_id
        assert restored.reproduced == result.reproduced
        assert restored.summary == result.summary
        assert set(restored.fronts) == set(result.fronts)
        assert restored.metrics == dict(result.metrics)

    def test_round_trip_preserves_front_points_and_matrices(self, result):
        restored = experiment_result_from_dict(experiment_result_to_dict(result))
        for name, front in result.fronts.items():
            loaded = restored.fronts[name]
            np.testing.assert_array_equal(loaded.privacy, front.privacy)
            np.testing.assert_array_equal(loaded.utility, front.utility)
            for original, point in zip(front, loaded):
                assert original.matrix == point.matrix

    def test_round_trip_preserves_comparison(self, result):
        restored = experiment_result_from_dict(experiment_result_to_dict(result))
        assert restored.comparison == result.comparison

    def test_round_trip_without_comparison(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment("fact1", seed=0)
        restored = experiment_result_from_dict(experiment_result_to_dict(result))
        assert restored.comparison is None
        assert restored.metrics == dict(result.metrics)

    def test_round_trip_file(self, result, tmp_path):
        path = save_experiment_result(result, tmp_path / "experiment.json")
        restored = load_experiment_result(path)
        assert restored.experiment_id == result.experiment_id

    def test_serialization_is_byte_stable(self, result):
        document = experiment_result_to_dict(result)
        round_tripped = experiment_result_from_dict(document)
        assert dump_canonical_json(experiment_result_to_dict(round_tripped)) == (
            dump_canonical_json(document)
        )

    def test_legacy_backend_field_is_ignored(self, result):
        document = experiment_result_to_dict(result)
        assert "backend" not in document
        restored = experiment_result_from_dict(dict(document, backend="numba"))
        assert dump_canonical_json(experiment_result_to_dict(restored)) == (
            dump_canonical_json(document)
        )

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError):
            experiment_result_from_dict({"type": "rr_matrix", "format_version": 1})

    def test_comparison_round_trips(self, result):
        document = comparison_to_dict(result.comparison)
        assert comparison_from_dict(json.loads(json.dumps(document))) == result.comparison

    @pytest.mark.parametrize("document", [{}, [], "comparison", None])
    def test_comparison_rejects_non_documents(self, document):
        with pytest.raises(ValidationError):
            comparison_from_dict(document)

    def test_comparison_errors_name_the_field(self, result):
        document = comparison_to_dict(result.comparison)
        with pytest.raises(ValidationError, match="'ties'"):
            comparison_from_dict({k: v for k, v in document.items() if k != "ties"})
        with pytest.raises(ValidationError, match="candidate_wins"):
            comparison_from_dict(dict(document, candidate_wins="many"))
        with pytest.raises(ValidationError, match="baseline_privacy_range"):
            comparison_from_dict(dict(document, baseline_privacy_range=0.5))


class TestCheckpointDocuments:
    def _checkpoint(self, tmp_path):
        from repro.data.synthetic import normal_distribution

        optimizer = OptRROptimizer(
            normal_distribution(6),
            3000,
            OptRRConfig(
                population_size=8, archive_size=8, n_generations=3, delta=0.85, seed=2
            ),
        )
        path = tmp_path / "ck.json"
        optimizer.run(checkpoint_path=str(path), checkpoint_every=1)
        return path

    def test_save_load_round_trip(self, tmp_path):
        from repro.io import load_checkpoint, save_checkpoint

        path = self._checkpoint(tmp_path)
        document = load_checkpoint(path)
        assert document["type"] == "checkpoint"
        assert document["algorithm"] == "optrr"
        assert document["checkpoint_version"] == 3
        assert list(document["termination"]) == ["stale"]
        copy_path = save_checkpoint(document, tmp_path / "copy.json")
        assert load_checkpoint(copy_path) == document

    def test_load_rejects_other_document_types(self, tmp_path):
        from repro.io import load_checkpoint

        path = tmp_path / "notes.json"
        path.write_text(json.dumps({"type": "rr_matrix", "format_version": 1}))
        with pytest.raises(ValidationError, match="checkpoint"):
            load_checkpoint(path)

    def test_load_rejects_unknown_format_version(self, tmp_path):
        from repro.io import load_checkpoint

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"type": "checkpoint", "format_version": 99}))
        with pytest.raises(ValidationError, match="format version"):
            load_checkpoint(path)

    def test_save_rejects_non_checkpoint_documents(self, tmp_path):
        from repro.io import save_checkpoint

        with pytest.raises(ValidationError, match="checkpoint"):
            save_checkpoint({"type": "experiment_result", "format_version": 1},
                            tmp_path / "x.json")

    def test_writes_are_atomic_no_temp_residue(self, tmp_path):
        self._checkpoint(tmp_path)
        assert not list(tmp_path.glob(".tmp-checkpoint-*"))
