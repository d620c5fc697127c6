"""Every field of a version-3 ``optrr`` checkpoint, tampered one at a time.

A checkpoint is outside input (``optrr optimize --resume``), so each field is
deleted, set to ``null``, to a string, to an empty list and to ``-1`` in
turn, and the resume must end one of two ways: exit 2 with one
``optrr: error:`` line, or exit 0 with the byte-identical result of the
untampered resume (the field was optional, or the value means the same).
It must never end in a traceback or in a different result.  The envelope
keys and the workload fingerprint are never optional, and a file with an
edited envelope stays where the user named it.

:data:`KEY_PATHS` spells out the version-3 layout; a layout change that
adds, drops or renames a field fails :func:`test_key_paths_are_the_layout`
until the list (and ``CHECKPOINT_VERSION``) follows.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import OptRRConfig

FAST_OPTIMIZE = [
    "optimize", "--distribution", "normal", "--categories", "6",
    "--records", "2000", "--population", "8", "--seed", "3",
]

#: Resume to one generation past the checkpoint, so every part of the
#: state (population, archive, Ω, counters, RNG) feeds the result.
RESUME_GENERATIONS = "3"

ARRAY_FIELDS = ("dtype", "shape", "data")
METADATA_COLUMNS = ("privacy", "utility", "max_posterior", "invertible")


def _array(path: str) -> list[str]:
    """An encoded array and its three fields."""
    return [path, *(f"{path}.{field}" for field in ARRAY_FIELDS)]


def _key_paths() -> tuple[str, ...]:
    paths = [
        "format_version", "type", "checkpoint_version", "algorithm", "fingerprint",
        "generation", "stopped", "elapsed_seconds", "termination", "termination.stale",
        "rng_state", "rng_state.bit_generator", "rng_state.state", "rng_state.state.state",
        "rng_state.state.inc", "rng_state.has_uint32", "rng_state.uinteger",
        "state", "state.setup", *_array("state.setup.prior"), "state.setup.n_records",
        "state.setup.config",
        *(f"state.setup.config.{field.name}" for field in dataclasses.fields(OptRRConfig)),
        "state.problem", "state.problem.n_evaluations", "state.problem.counter",
    ]
    for name in ("population", "archive"):
        section = f"state.{name}"
        paths += [section, f"{section}.layout", f"{section}.fitness_generation"]
        for array in ("genomes", "objectives", "feasible", "fitness"):
            paths += _array(f"{section}.{array}")
        paths.append(f"{section}.metadata")
        for column in METADATA_COLUMNS:
            paths += _array(f"{section}.metadata.{column}")
    omega = "state.optimal_set"
    paths += [omega, f"{omega}.size", f"{omega}.n_updates", f"{omega}.slots"]
    for array in ("genomes", "objectives", "feasible"):
        paths += _array(f"{omega}.{array}")
    paths.append(f"{omega}.metadata")
    for column in METADATA_COLUMNS:
        paths += [f"{omega}.metadata.{column}", *_array(f"{omega}.metadata.{column}.column")]
    return tuple(paths)


#: Every dict key of a version-3 optrr checkpoint, as a dotted path.
KEY_PATHS = _key_paths()

#: The envelope keys: a decodable file with either one edited is rejected
#: where it lies (one stderr line, no quarantine, no ``.prev`` fallback).
ENVELOPE_KEYS = ("type", "format_version")

#: Keys no tampering gets past: the envelope says what the file is, the
#: fingerprint which workload it belongs to, and neither has a value that
#: means "unchecked".
REQUIRED_KEYS = (*ENVELOPE_KEYS, "fingerprint")


def _delete(node: dict, key: str) -> None:
    del node[key]


def _set(value):
    def tamper(node: dict, key: str) -> None:
        node[key] = value

    return tamper


TAMPERINGS = {
    "deleted": _delete,
    "null": _set(None),
    "string": _set("x"),
    "empty-list": _set([]),
    "minus-one": _set(-1),
}


def _document_paths(node, prefix: str = ""):
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}{key}"
            yield path
            yield from _document_paths(value, f"{path}.")


def _resume(document: dict, directory: Path) -> tuple[int, str, Path]:
    """Resume ``document`` in a fresh directory: ``(exit code, stderr,
    output path)``."""
    directory.mkdir()
    checkpoint, output = directory / "ck.json", directory / "out.json"
    checkpoint.write_text(json.dumps(document), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([
            "optimize", "--resume", str(checkpoint),
            "--generations", RESUME_GENERATIONS, "--output", str(output),
        ])
    return code, stderr.getvalue(), output


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory) -> tuple[dict, bytes]:
    """A finished 2-generation checkpoint and the result of resuming it,
    untampered, for one more generation."""
    root = tmp_path_factory.mktemp("checkpoint-fields")
    path = root / "ck.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(FAST_OPTIMIZE + ["--generations", "2", "--checkpoint", str(path)]) == 0
    document = json.loads(path.read_text(encoding="utf-8"))
    code, stderr, output = _resume(document, root / "reference")
    assert code == 0, stderr
    return document, output.read_bytes()


def test_key_paths_are_the_layout(checkpoint):
    document, _ = checkpoint
    assert document["checkpoint_version"] == 3
    assert len(KEY_PATHS) == len(set(KEY_PATHS))
    assert set(KEY_PATHS) == set(_document_paths(document))


@pytest.mark.parametrize("path", KEY_PATHS)
def test_tampered_field_is_rejected_or_changes_nothing(checkpoint, tmp_path, path):
    document, reference = checkpoint
    *parents, key = path.split(".")
    for name, tamper in TAMPERINGS.items():
        tampered = copy.deepcopy(document)
        node = tampered
        for parent in parents:
            node = node[parent]
        tamper(node, key)
        code, stderr, output = _resume(tampered, tmp_path / name)
        if code == 0:
            assert path not in REQUIRED_KEYS, f"{name}: resumed without the {path!r} check"
            assert output.read_bytes() == reference, f"{name}: resumed to a different result"
        else:
            errors = [line for line in stderr.splitlines() if line.startswith("optrr: error:")]
            assert code == 2 and len(errors) == 1, (name, code, stderr)
            assert "Traceback" not in stderr, (name, stderr)
        if path in ENVELOPE_KEYS:
            assert len(stderr.splitlines()) == 1, (name, stderr)
            assert (tmp_path / name / "ck.json").is_file(), name
            assert not (tmp_path / name / "ck.json.corrupt").exists(), name
