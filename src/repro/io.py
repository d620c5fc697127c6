"""Serialization of RR matrices, optimization results and experiment results.

Optimized RR matrices are artefacts users want to store, version and ship to
the data-collection clients that apply the disguise.  This module provides a
stable JSON representation for :class:`~repro.rr.matrix.RRMatrix`,
:class:`~repro.core.result.OptimizationResult` and
:class:`~repro.experiments.base.ExperimentResult` (the ``experiment_result``
document type backing the campaign result cache), with round-trip guarantees
covered by the test suite.

Experiment-result documents are always written with sorted keys so the same
result serializes to byte-identical JSON — the property the campaign cache
and the campaign determinism guarantee are built on.

Optimization results (fronts of up to hundreds of n×n matrices, tens of MB
at n=64) are written by a streaming writer: :func:`save_result` emits
exactly the bytes of ``json.dumps(result_to_dict(...), indent=2)``, but
formats each distinct matrix value once and writes point by point, through
a temporary sibling file and :func:`os.replace`.  Loaders reject malformed
documents with :class:`~repro.exceptions.ValidationError`.

The ``checkpoint`` document type (:func:`save_checkpoint` /
:func:`load_checkpoint`) stores a whole optimization run's resumable state;
its payload is produced and consumed by :mod:`repro.emoo.driver`, and its
schema is documented in ``docs/cli.md``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, TextIO

import numpy as np

from repro.core.result import OptimizationResult, ParetoFront
from repro.exceptions import CheckpointCorruptionError, ValidationError
from repro.faults.injector import truncate_checkpoint_file
from repro.rr.matrix import RRMatrix
from repro.utils.arrays import dump_canonical_json
from repro.utils.logging import get_logger
from repro.utils.validation import check_counter

logger = get_logger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.analysis.compare import FrontComparison
    from repro.experiments.base import ExperimentResult
    from repro.pipeline.runner import PipelineResult

#: Format identifier embedded in every serialized document.
FORMAT_VERSION = 1


def matrix_to_dict(matrix: RRMatrix) -> dict[str, Any]:
    """Serialize an RR matrix to a JSON-compatible dictionary."""
    return _matrix_document(matrix.n_categories, matrix.probabilities.tolist())


def _matrix_document(n_categories: int, probabilities: Any) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "type": "rr_matrix",
        "n_categories": n_categories,
        "probabilities": probabilities,
    }


def matrix_from_dict(document: dict[str, Any]) -> RRMatrix:
    """Deserialize an RR matrix from :func:`matrix_to_dict` output."""
    _check_document(document, "rr_matrix")
    try:
        probabilities = np.asarray(document["probabilities"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"rr_matrix 'probabilities' is missing or not a numeric matrix: {exc}"
        ) from exc
    matrix = RRMatrix(probabilities)
    declared = document.get("n_categories")
    if declared is not None and _number(int, declared, "n_categories") != matrix.n_categories:
        raise ValidationError(
            f"declared n_categories {declared} does not match matrix size {matrix.n_categories}"
        )
    return matrix


def result_to_dict(result: OptimizationResult, *, include_optimal_set: bool = False) -> dict[str, Any]:
    """Serialize an optimization result (front + metadata) to a dictionary."""
    return _result_document(
        result,
        include_optimal_set,
        lambda front, row: front.stack[front.stack_rows[row]].tolist(),
    )


def _result_document(
    result: OptimizationResult,
    include_optimal_set: bool,
    probabilities: Callable[[ParetoFront, int], Any],
) -> dict[str, Any]:
    def point_documents(front: ParetoFront) -> list[dict[str, Any]]:
        return [
            {
                "privacy": float(front.privacy[row]),
                "utility": float(front.utility[row]),
                "max_posterior": float(front.max_posterior[row]),
                "matrix": _matrix_document(front.stack.shape[-1], probabilities(front, row)),
            }
            for row in range(len(front))
        ]

    document: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "type": "optimization_result",
        "n_generations": result.n_generations,
        "n_evaluations": result.n_evaluations,
        "points": point_documents(result.front),
    }
    if include_optimal_set:
        document["optimal_set_points"] = point_documents(result.spectrum)
    return document


#: Fields every point of an ``optimization_result`` document carries.
_RESULT_POINT_FIELDS = ("privacy", "utility", "max_posterior", "matrix")


def result_from_dict(document: dict[str, Any]) -> OptimizationResult:
    """Deserialize an optimization result from :func:`result_to_dict` output
    (finite objectives, non-negative integer counts, one matrix size)."""
    _check_document(document, "optimization_result")
    points = _point_items(document, "points", _RESULT_POINT_FIELDS)
    spectrum = _point_items(
        document, "optimal_set_points", _RESULT_POINT_FIELDS, required=False
    )
    rows = _front_from_items("optrr", points + spectrum, result=True)
    return OptimizationResult(
        front=rows.take(np.arange(len(points))),
        spectrum=rows.take(np.arange(len(points), len(rows))),
        n_generations=check_counter(document.get("n_generations", 0), "n_generations"),
        n_evaluations=check_counter(document.get("n_evaluations", 0), "n_evaluations"),
    )


def front_to_dict(front: ParetoFront) -> dict[str, Any]:
    """Serialize a Pareto front (points plus any attached matrices)."""
    return {
        "name": front.name,
        "points": [
            {
                "privacy": point.privacy,
                "utility": point.utility,
                "matrix": matrix_to_dict(point.matrix) if point.matrix is not None else None,
            }
            for point in front
        ],
    }


def front_from_dict(document: dict[str, Any]) -> ParetoFront:
    """Deserialize a Pareto front from :func:`front_to_dict` output, sorted
    by ``(privacy, utility)`` (finite objectives, matrices on all points or
    none, one matrix size)."""
    if not isinstance(document, dict) or "name" not in document:
        raise ValidationError("a front must be a JSON object with a 'name'")
    front = _front_from_items(
        str(document["name"]),
        _point_items(document, "points", ("privacy", "utility")),
        result=False,
    )
    return front.take(np.lexsort((front.utility, front.privacy)))


def _front_from_items(
    name: str, items: list[tuple[str, dict[str, Any]]], *, result: bool
) -> ParetoFront:
    """One columnar front from labelled point objects, each objective a
    finite number.  A ``result`` point also carries a ``max_posterior`` and
    always a matrix; other fronts carry a matrix on every point or on none.
    The matrices are validated and gathered into one stack of one size."""
    keys = ("privacy", "utility", "max_posterior") if result else ("privacy", "utility")
    columns = [
        [_finite(item[key], f"{where}.{key}") for where, item in items] for key in keys
    ]
    matrices = [
        matrix_from_dict(item["matrix"]) for _, item in items if result or item.get("matrix")
    ]
    if len(matrices) not in (0, len(items)):
        raise ValidationError(f"front {name!r}: either every point or none has a matrix")
    sizes = sorted({matrix.n_categories for matrix in matrices})
    if len(sizes) > 1:
        raise ValidationError(f"front {name!r} mixes matrix sizes {sizes}")
    stack = np.stack([matrix.probabilities for matrix in matrices]) if matrices else None
    return ParetoFront(name, *columns, stack=stack)


def _point_items(
    document: dict[str, Any], key: str, fields: tuple[str, ...], *, required: bool = True
) -> list[tuple[str, dict[str, Any]]]:
    """``document[key]`` as ``(label, item)`` pairs, each item checked to be
    an object carrying ``fields``; an optional absent key gives no items."""
    if key not in document and not required:
        return []
    items = document.get(key)
    if not isinstance(items, list):
        raise ValidationError(
            f"{key!r} must be a list of point objects, got {type(items).__name__}"
        )
    labelled = []
    for index, item in enumerate(items):
        where = f"{key}[{index}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where} must be an object, got {type(item).__name__}")
        missing = [field for field in fields if field not in item]
        if missing:
            raise ValidationError(f"{where} has no {', '.join(map(repr, missing))}")
        labelled.append((where, item))
    return labelled


def _finite(value: Any, what: str) -> float:
    """``value`` as a float when it is a finite JSON number (not a bool or a
    string), else :class:`ValidationError`."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _number(kind: type, value: Any, what: str) -> Any:
    """``kind(value)``, raising :class:`ValidationError` instead of a bare
    ``TypeError``/``ValueError``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {value!r}") from exc


def comparison_to_dict(comparison: "FrontComparison") -> dict[str, Any]:
    """Serialize a front comparison (all indicator fields)."""
    return {
        "candidate_name": comparison.candidate_name,
        "baseline_name": comparison.baseline_name,
        "candidate_privacy_range": [float(v) for v in comparison.candidate_privacy_range],
        "baseline_privacy_range": [float(v) for v in comparison.baseline_privacy_range],
        "extra_privacy_range": float(comparison.extra_privacy_range),
        "mean_utility_ratio": float(comparison.mean_utility_ratio),
        "candidate_wins": int(comparison.candidate_wins),
        "baseline_wins": int(comparison.baseline_wins),
        "ties": int(comparison.ties),
        "hypervolume_candidate": float(comparison.hypervolume_candidate),
        "hypervolume_baseline": float(comparison.hypervolume_baseline),
        "coverage_candidate_over_baseline": float(
            comparison.coverage_candidate_over_baseline
        ),
        "additive_epsilon": float(comparison.additive_epsilon),
    }


def comparison_from_dict(document: dict[str, Any]) -> "FrontComparison":
    """Deserialize a front comparison from :func:`comparison_to_dict` output."""
    from dataclasses import fields

    from repro.analysis.compare import FrontComparison

    if not isinstance(document, dict):
        raise ValidationError(
            f"a front comparison must be a JSON object, got {type(document).__name__}"
        )
    missing = [field.name for field in fields(FrontComparison) if field.name not in document]
    if missing:
        raise ValidationError(f"front comparison has no {', '.join(map(repr, missing))}")

    def number(kind: type, key: str) -> Any:
        return _number(kind, document[key], key)

    def privacy_range(key: str) -> tuple[float, ...]:
        values = document[key]
        if not isinstance(values, list):
            raise ValidationError(f"{key} must be a list of numbers, got {values!r}")
        return tuple(_number(float, value, key) for value in values)

    return FrontComparison(
        candidate_name=str(document["candidate_name"]),
        baseline_name=str(document["baseline_name"]),
        candidate_privacy_range=privacy_range("candidate_privacy_range"),
        baseline_privacy_range=privacy_range("baseline_privacy_range"),
        extra_privacy_range=number(float, "extra_privacy_range"),
        mean_utility_ratio=number(float, "mean_utility_ratio"),
        candidate_wins=number(int, "candidate_wins"),
        baseline_wins=number(int, "baseline_wins"),
        ties=number(int, "ties"),
        hypervolume_candidate=number(float, "hypervolume_candidate"),
        hypervolume_baseline=number(float, "hypervolume_baseline"),
        coverage_candidate_over_baseline=number(float, "coverage_candidate_over_baseline"),
        additive_epsilon=number(float, "additive_epsilon"),
    )


def experiment_result_to_dict(result: "ExperimentResult") -> dict[str, Any]:
    """Serialize an experiment result (fronts, comparison, verdict, metrics).

    This is the ``experiment_result`` document type the campaign cache
    stores; campaign workers also ship results to the parent process in this
    form so cached and freshly-computed runs are bit-for-bit interchangeable.
    Documents written before the kernels were unified also carry a
    ``backend`` key; deserialization ignores it.
    """
    return {
        "format_version": FORMAT_VERSION,
        "type": "experiment_result",
        "experiment_id": result.experiment_id,
        "reproduced": bool(result.reproduced),
        "summary": list(result.summary),
        "metrics": {key: float(value) for key, value in result.metrics.items()},
        "fronts": {name: front_to_dict(front) for name, front in result.fronts.items()},
        "comparison": (
            comparison_to_dict(result.comparison) if result.comparison is not None else None
        ),
    }


def experiment_result_from_dict(document: dict[str, Any]) -> "ExperimentResult":
    """Deserialize an experiment result from :func:`experiment_result_to_dict`
    output."""
    from repro.experiments.base import ExperimentResult

    _check_document(document, "experiment_result")
    comparison_document = document.get("comparison")
    return ExperimentResult(
        experiment_id=str(document["experiment_id"]),
        fronts={
            name: front_from_dict(front_document)
            for name, front_document in document.get("fronts", {}).items()
        },
        comparison=(
            comparison_from_dict(comparison_document) if comparison_document else None
        ),
        reproduced=bool(document.get("reproduced", False)),
        summary=tuple(str(line) for line in document.get("summary", [])),
        metrics={
            key: float(value) for key, value in document.get("metrics", {}).items()
        },
    )


def pipeline_result_to_dict(result: "PipelineResult") -> dict[str, Any]:
    """Serialize a pipeline result (spec, scheme evaluations, cell table).

    This is the ``pipeline_result`` document type: the per-scheme ×
    per-miner × per-seed metric table produced by
    :func:`repro.pipeline.run_pipeline`, with every scheme's full RR matrix
    embedded so the run is reproducible from the document alone.
    """
    spec = result.spec
    evaluation_by_scheme = {item.scheme: item for item in result.evaluations}
    return {
        "format_version": FORMAT_VERSION,
        "type": "pipeline_result",
        "data": spec.data,
        "n_records": spec.n_records,
        "n_categories": spec.n_categories,
        "seeds": list(spec.seeds),
        "miners": list(spec.miners),
        "miner_params": {
            miner: dict(items) for miner, items in spec.miner_params
        },
        "schemes": [
            {
                "name": scheme.name,
                "matrix": matrix_to_dict(scheme.matrix),
                "privacy": evaluation_by_scheme[scheme.name].privacy,
                "utility": evaluation_by_scheme[scheme.name].utility,
                "max_posterior": evaluation_by_scheme[scheme.name].max_posterior,
                "invertible": evaluation_by_scheme[scheme.name].invertible,
            }
            for scheme in spec.schemes
        ],
        "cells": [
            {
                "scheme": cell.scheme,
                "seed": cell.seed,
                "miner": cell.miner,
                "metrics": {key: float(value) for key, value in sorted(cell.metrics.items())},
            }
            for cell in result.cells
        ],
        # The failure manifest appears only when something failed, keeping
        # fault-free documents byte-identical to pre-resilience builds.
        **(
            {"failure_manifest": result.failure_manifest}
            if result.failure_manifest is not None
            else {}
        ),
    }


def pipeline_result_from_dict(document: dict[str, Any]) -> "PipelineResult":
    """Deserialize a pipeline result from :func:`pipeline_result_to_dict`
    output (cache provenance flags reset — a loaded document no longer knows
    which cells were cache hits)."""
    from repro.pipeline.runner import (
        PipelineCellRecord,
        PipelineResult,
        SchemeEvaluation,
    )
    from repro.pipeline.spec import PipelineScheme, PipelineSpec

    _check_document(document, "pipeline_result")
    schemes = tuple(
        PipelineScheme(name=str(item["name"]), matrix=matrix_from_dict(item["matrix"]))
        for item in document.get("schemes", [])
    )
    evaluations = tuple(
        SchemeEvaluation(
            scheme=str(item["name"]),
            privacy=float(item["privacy"]),
            utility=float(item["utility"]),
            max_posterior=float(item["max_posterior"]),
            invertible=bool(item.get("invertible", True)),
        )
        for item in document.get("schemes", [])
    )
    miner_params = tuple(
        (str(miner), tuple(sorted(dict(params).items())))
        for miner, params in document.get("miner_params", {}).items()
    )
    raw_categories = document.get("n_categories")
    spec = PipelineSpec(
        data=str(document["data"]),
        n_records=int(document["n_records"]),
        n_categories=int(raw_categories) if raw_categories is not None else None,
        schemes=schemes,
        miners=tuple(str(miner) for miner in document.get("miners", [])),
        seeds=tuple(int(seed) for seed in document.get("seeds", [])),
        miner_params=miner_params,
    )
    cells = tuple(
        PipelineCellRecord(
            scheme=str(item["scheme"]),
            seed=int(item["seed"]),
            miner=str(item["miner"]),
            metrics={key: float(value) for key, value in item.get("metrics", {}).items()},
            from_cache=False,
        )
        for item in document.get("cells", [])
    )
    manifest = document.get("failure_manifest")
    failures: tuple[tuple[str, int, str], ...] = ()
    if manifest is not None:
        failures = tuple(
            (str(cell["scheme"]), int(cell["seed"]), str(cell["miner"]))
            for cell in manifest.get("cells", [])
            if cell.get("quarantined")
        )
    return PipelineResult(
        spec=spec,
        evaluations=evaluations,
        cells=cells,
        failures=failures,
        failure_manifest=manifest,
    )


def save_pipeline_result(result: "PipelineResult", path: str | Path) -> Path:
    """Write a pipeline result to a canonical-JSON file and return the path."""
    path = Path(path)
    path.write_text(dump_canonical_json(pipeline_result_to_dict(result)), encoding="utf-8")
    return path


def load_pipeline_result(path: str | Path) -> "PipelineResult":
    """Read a pipeline result from a JSON file written by
    :func:`save_pipeline_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return pipeline_result_from_dict(document)


def checkpoint_rotation_path(path: str | Path) -> Path:
    """The ``.prev`` rotation sibling of a checkpoint file."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def checkpoint_quarantine_path(path: str | Path) -> Path:
    """Where a corrupt checkpoint file is parked for forensics."""
    path = Path(path)
    return path.with_name(path.name + ".corrupt")


def save_checkpoint(document: dict[str, Any], path: str | Path) -> Path:
    """Atomically write a ``checkpoint`` document and return its path.

    Checkpoints are produced by :meth:`repro.emoo.driver.OptimizationDriver.
    checkpoint_document`: a versioned snapshot of a whole optimization run
    (population/archive/Ω arrays as base64 bytes, the stagnation counter, the
    NumPy bit-generator state).  The write goes through a temporary file in
    the destination directory plus :func:`os.replace`, so a run killed
    mid-checkpoint never leaves a partial document — the previous checkpoint
    survives intact.  Additionally the previous checkpoint is rotated to a
    ``.prev`` sibling rather than overwritten, so even a checkpoint that was
    written whole and corrupted *afterwards* (torn page, bit rot) leaves a
    valid predecessor for :func:`load_checkpoint_with_fallback`.  Compact
    JSON keeps the per-generation serialization cost off the optimization
    hot path.
    """
    _check_document(document, "checkpoint")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(
        path,
        ".tmp-checkpoint-",
        lambda handle: handle.write(
            json.dumps(document, sort_keys=True, separators=(",", ":"))
        ),
        rotate_to=checkpoint_rotation_path(path),
    )
    truncate_checkpoint_file(path)
    return path


def _write_atomically(
    path: Path,
    prefix: str,
    write: Callable[[TextIO], object],
    *,
    rotate_to: Path | None = None,
) -> None:
    """Have ``write`` fill a temporary sibling of ``path``, then move it over
    ``path`` (first moving an existing ``path`` to ``rotate_to``, if given).

    On any failure the temporary file is removed and ``path`` is untouched.
    The file gets the permissions a plain ``open`` would have given it.
    """
    descriptor, temporary = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".json")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            write(handle)
        os.chmod(temporary, 0o666 & ~_umask())
        if rotate_to is not None and path.exists():
            os.replace(path, rotate_to)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


def _umask() -> int:
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a ``checkpoint`` document written by
    :func:`save_checkpoint`.

    Only the document envelope is validated here (type and format version);
    the algorithm-specific payload is validated by
    :meth:`repro.emoo.driver.OptimizationDriver.restore`.

    A *missing* checkpoint raises :class:`FileNotFoundError`; a file that
    exists but does not decode or validate raises
    :class:`~repro.exceptions.CheckpointCorruptionError` — distinct failure
    modes, because resume treats them differently (fresh start versus
    fallback to the previous valid checkpoint).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is not decodable JSON: {exc}"
        ) from exc
    try:
        _check_document(document, "checkpoint")
    except ValidationError as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} failed envelope validation: {exc}"
        ) from exc
    return document


def load_checkpoint_with_fallback(path: str | Path) -> tuple[dict[str, Any], Path]:
    """Load ``path``'s checkpoint, falling back to its ``.prev`` rotation.

    Corrupt candidates are quarantined (renamed to ``.corrupt`` with a
    logged warning) before the next candidate is tried.  Returns the
    document together with the path it was actually read from.  Raises
    :class:`FileNotFoundError` when no candidate exists at all, and
    :class:`~repro.exceptions.CheckpointCorruptionError` when candidates
    existed but none was valid.
    """
    path = Path(path)
    corruption: CheckpointCorruptionError | None = None
    for candidate in (path, checkpoint_rotation_path(path)):
        if not candidate.is_file():
            continue
        try:
            document = load_checkpoint(candidate)
        except CheckpointCorruptionError as exc:
            if corruption is None:
                corruption = exc
            quarantine = checkpoint_quarantine_path(candidate)
            try:
                os.replace(candidate, quarantine)
            except OSError:  # pragma: no cover - quarantine is best effort
                continue
            logger.warning(
                "quarantined corrupt checkpoint %s -> %s (%s)",
                candidate.name, quarantine.name, exc,
            )
            continue
        if candidate != path:
            logger.warning(
                "checkpoint %s unusable; resuming from rotation sibling %s",
                path.name, candidate.name,
            )
        return document, candidate
    if corruption is not None:
        raise CheckpointCorruptionError(
            f"no valid checkpoint at {path}: newest and .prev rotation are "
            f"both corrupt or missing"
        ) from corruption
    raise FileNotFoundError(f"no checkpoint at {path}")


def save_experiment_result(result: "ExperimentResult", path: str | Path) -> Path:
    """Write an experiment result to a canonical-JSON file and return the
    path."""
    path = Path(path)
    path.write_text(dump_canonical_json(experiment_result_to_dict(result)), encoding="utf-8")
    return path


def load_experiment_result(path: str | Path) -> "ExperimentResult":
    """Read an experiment result from a JSON file written by
    :func:`save_experiment_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return experiment_result_from_dict(document)


def save_matrix(matrix: RRMatrix, path: str | Path) -> Path:
    """Write an RR matrix to a JSON file and return the path."""
    path = Path(path)
    path.write_text(json.dumps(matrix_to_dict(matrix), indent=2), encoding="utf-8")
    return path


def load_matrix(path: str | Path) -> RRMatrix:
    """Read an RR matrix from a JSON file written by :func:`save_matrix`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return matrix_from_dict(document)


def save_result(
    result: OptimizationResult, path: str | Path, *, include_optimal_set: bool = False
) -> Path:
    """Write an optimization result to a JSON file and return the path.

    The bytes are exactly ``json.dumps(result_to_dict(result,
    include_optimal_set=...), indent=2)``, streamed point by point instead
    of built as one string (see :func:`_write_result`).  The write goes
    through a temporary sibling plus :func:`os.replace`, so a failure
    partway never leaves a torn file at ``path``.
    """
    path = Path(path)
    fronts = [result.front, result.spectrum] if include_optimal_set else [result.front]
    skeleton = json.dumps(
        _result_document(
            result, include_optimal_set, lambda front, row: _PROBABILITIES_PLACEHOLDER
        ),
        indent=2,
    )
    _write_atomically(
        path, ".tmp-result-", lambda handle: _write_result(handle, skeleton, fronts)
    )
    return path


#: Stands in for every matrix's ``probabilities`` in the skeleton document
#: that :func:`save_result` renders with :func:`json.dumps`; the only other
#: strings in that document are its two ``type`` names.
_PROBABILITIES_PLACEHOLDER = "<probabilities>"


#: Matrix values per distinct-value table of :func:`_write_result`: points
#: are written in groups of about this many values (at least one point), so
#: the table's temporaries stay bounded however large the front is.
RESULT_GROUP_VALUES = 1 << 16


def _write_result(handle: TextIO, skeleton: str, fronts: list[ParetoFront]) -> None:
    """Stream ``skeleton`` with the probabilities of each front's rows, front
    after front, spliced in.

    ``json`` only uses its C encoder without ``indent``, and formatting
    every float separately dominates a large front, yet crossover copies
    whole columns so a front holds few distinct values.  Rows are written
    in groups of about :data:`RESULT_GROUP_VALUES` values, each gathered
    from the front's stack; within a group each distinct bit pattern (so
    ``-0.0`` and ``0.0`` stay apart) is formatted once by ``json`` itself,
    and a matrix is written as lookups into that table.
    """
    parts = skeleton.split(json.dumps(_PROBABILITIES_PLACEHOLDER))
    handle.write(parts[0])
    if len(parts) == 1:
        return
    # Every matrix sits at the same depth: its array opens on the line of
    # its "probabilities" key, rows one level deeper, values two.
    key_line = parts[0][parts[0].rindex("\n") + 1:]
    key_indent = "\n" + " " * (len(key_line) - len(key_line.lstrip(" ")))
    row_indent, value_indent = key_indent + "  ", key_indent + "    "
    afters = iter(parts[1:])
    for front in fronts:
        if front.is_empty:
            continue
        n = front.stack.shape[-1]
        step = -(-RESULT_GROUP_VALUES // (n * n))
        for start in range(0, len(front), step):
            group = front.stack[front.stack_rows[start:start + step]]
            bits, inverse = np.unique(group.reshape(-1).view(np.uint64), return_inverse=True)
            texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
            row_start = np.array(
                [row_indent + "[" + value_indent + text for text in texts], dtype=object
            )
            row_next = np.array(["," + value_indent + text for text in texts], dtype=object)
            for codes in inverse.reshape(-1, n, n):
                cells = np.empty((n, n + 1), dtype=object)
                cells[:, 0] = row_start[codes[:, 0]]
                cells[:, 1:n] = row_next[codes[:, 1:]]
                cells[:, n] = row_indent + "],"
                cells[n - 1, n] = row_indent + "]"
                handle.write("[" + "".join(cells.ravel().tolist()) + key_indent + "]")
                handle.write(next(afters))


def load_result(path: str | Path) -> OptimizationResult:
    """Read an optimization result from a JSON file written by
    :func:`save_result`."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return result_from_dict(document)


def _check_document(document: dict[str, Any], expected_type: str) -> None:
    if not isinstance(document, dict):
        raise ValidationError("serialized document must be a JSON object")
    if document.get("type") != expected_type:
        raise ValidationError(
            f"expected a {expected_type!r} document, got {document.get('type')!r}"
        )
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )
