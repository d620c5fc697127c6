"""The benchmark's workloads: inputs made from the seed, the CLI argv, and the
checks every repetition's outputs must pass.

The argv templates, shapes and reasons live in ``definitions.json`` so later
changes can cite a workload by name; this module adds what cannot be data:
input generation, output checks, digests and the quality figure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DEFINITIONS = json.loads(
    Path(__file__).with_name("definitions.json").read_text(encoding="utf-8")
)

#: Tolerance when re-evaluated objectives are compared with the document.
OBJECTIVE_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of a repetition is missing, malformed or wrong."""


@dataclass(frozen=True)
class Outcome:
    """What the checks learned from one repetition's outputs."""

    digest: str
    work_units: float
    quality: float


def digest_files(*paths: Path) -> str:
    """SHA-256 over the bytes of ``paths`` (length-prefixed, in order)."""
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- optimize ------------------------------------------------------------------


def check_optimize(rep_dir: Path, context: dict[str, Any], shape: dict[str, Any]) -> Outcome:
    """The front loads through ``repro.io``, every matrix is column-stochastic,
    re-evaluation reproduces every objective and the bound holds."""
    import numpy as np

    from repro.core.problem import SINGULAR_UTILITY_PENALTY
    from repro.data.workload import resolve_workload_prior
    from repro.emoo.indicators import finite_front_hypervolume_2d
    from repro.io import load_result
    from repro.metrics.evaluation import MatrixEvaluator

    path = rep_dir / "result.json"
    result = load_result(path)
    _require(len(result) > 0, "the written front is empty")
    _require(result.n_evaluations > 0, "the result reports no evaluations")
    stack = np.stack([point.matrix.probabilities for point in result.points])
    _require(bool((stack >= 0.0).all()), "a front matrix has a negative entry")
    _require(
        bool(np.allclose(stack.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)),
        "a front matrix is not column-stochastic",
    )
    delta = shape["delta"]
    evaluator = MatrixEvaluator(
        resolve_workload_prior("normal", shape["n"]), shape["records"], delta
    )
    batch = evaluator.evaluate_batch(stack)
    for field in ("privacy", "utility", "max_posterior"):
        written = np.array([getattr(point, field) for point in result.points])
        _require(
            bool(np.allclose(written, getattr(batch, field), rtol=OBJECTIVE_RTOL, atol=0.0)),
            f"re-evaluated {field} does not match the document",
        )
    if delta is not None:
        worst = max(point.max_posterior for point in result.points)
        _require(worst <= delta + 1e-9, f"max_posterior {worst} exceeds delta {delta}")
    front = np.column_stack([-result.privacy_values(), result.utility_values()])
    volume = finite_front_hypervolume_2d(front, (0.0, SINGULAR_UTILITY_PENALTY))
    _require(volume is not None and volume > 0.0, "the front has no hypervolume")
    return Outcome(digest_files(path), float(result.n_evaluations), float(volume))


# -- disguise ------------------------------------------------------------------


def prepare_disguise(work_dir: Path, seed: int, shape: dict[str, Any]) -> dict[str, Any]:
    """Write the codes file: ``records`` draws from the normal prior."""
    import numpy as np

    from repro.data.workload import resolve_workload_prior

    prior = resolve_workload_prior(shape["input_prior"], shape["n"]).probabilities
    codes = np.random.default_rng(seed).choice(shape["n"], size=shape["records"], p=prior)
    path = work_dir / "codes.txt"
    path.write_text("\n".join(map(str, codes.tolist())) + "\n", encoding="utf-8")
    return {"input": str(path), "histogram": np.bincount(codes, minlength=shape["n"])}


def check_disguise(rep_dir: Path, context: dict[str, Any], shape: dict[str, Any]) -> Outcome:
    """N codes in ``[0, n)``, a report whose counts match them and sum to N."""
    import numpy as np

    n, records = shape["n"], shape["records"]
    output, report_path = rep_dir / "disguised.txt", rep_dir / "report.json"
    tokens = output.read_text(encoding="utf-8").split()
    _require(len(tokens) == records, f"{len(tokens)} disguised codes, expected {records}")
    try:
        codes = np.array(tokens, dtype=np.int64)
    except ValueError as exc:
        raise CheckFailed(f"a disguised code is not an integer: {exc}") from exc
    _require(bool(((codes >= 0) & (codes < n)).all()), f"a disguised code is outside [0, {n})")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    _require(report.get("type") == "disguise_report", "the report has the wrong type")
    counts = np.asarray(report["disguised_counts"], dtype=np.int64)
    _require(int(report["n_records"]) == records, "the report's n_records is wrong")
    _require(int(counts.sum()) == records, "the report's counts do not sum to N")
    _require(
        bool((counts == np.bincount(codes, minlength=n)).all()),
        "the report's counts do not match the disguised codes",
    )
    estimate = np.asarray(report["estimate"]["probabilities"], dtype=np.float64)
    _require(estimate.shape == (n,), "the estimate has the wrong length")
    truth = context["histogram"] / records
    error = float(np.abs(estimate - truth).sum())
    return Outcome(digest_files(output, report_path), float(records), error)


# -- pipeline ------------------------------------------------------------------


def prepare_pipeline(work_dir: Path, seed: int, shape: dict[str, Any]) -> dict[str, Any]:
    """Pipeline seeds ``4*seed .. 4*seed+3``: each benchmark seed a fresh grid."""
    first = shape["seeds"] * seed
    return {"seed_range": f"{first}-{first + shape['seeds'] - 1}",
            "seeds": list(range(first, first + shape["seeds"]))}


def check_pipeline(rep_dir: Path, context: dict[str, Any], shape: dict[str, Any]) -> Outcome:
    """The run is complete: every scheme and miner is aggregated over every
    seed, no failure manifest exists and every cell was stored."""
    path = rep_dir / "aggregate.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    _require(document.get("type") == "pipeline_aggregate", "not a pipeline_aggregate")
    _require("failure_manifest" not in document, "the run has a failure manifest")
    _require(list(document.get("seeds", [])) == context["seeds"], "the seeds differ")
    schemes = document.get("schemes", [])
    _require(len(schemes) == shape["schemes"], f"{len(schemes)} schemes aggregated")
    for scheme in schemes:
        _require(
            sorted(scheme.get("miners", {})) == ["distribution", "rules", "tree"],
            f"scheme {scheme.get('scheme')!r} lacks a miner",
        )
    stored = list((rep_dir / "cache").glob("*.json"))
    _require(len(stored) == shape["cells"], f"{len(stored)} cells stored, expected {shape['cells']}")
    accuracy = sum(s["miners"]["tree"]["accuracy"]["mean"] for s in schemes) / len(schemes)
    return Outcome(digest_files(path), float(shape["cells"]), float(accuracy))


# -- the registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload: its ``definitions.json`` entry (argv template, shape)
    plus the set-up probe, input generation and output checks."""

    name: str
    definition: dict[str, Any]
    probe: str
    check: Callable[[Path, dict[str, Any], dict[str, Any]], Outcome]
    prepare: Callable[[Path, int, dict[str, Any]], dict[str, Any]] | None = None

    @property
    def shape(self) -> dict[str, Any]:
        return self.definition["shape"]

    def context(self, work_dir: Path, seed: int) -> dict[str, Any]:
        """Inputs and argv placeholders for ``seed`` (made before timing)."""
        context: dict[str, Any] = {"seed": str(seed)}
        if self.prepare is not None:
            context.update(self.prepare(work_dir, seed, self.shape))
        return context

    def argv(self, context: dict[str, Any], rep_dir: Path) -> list[str]:
        values = {key: value for key, value in context.items() if isinstance(value, str)}
        return [part.format(rep=rep_dir, **values) for part in self.definition["argv"]]

    def outcome(self, rep_dir: Path, context: dict[str, Any]) -> Outcome:
        """Run the checks; any malformed output becomes :class:`CheckFailed`."""
        try:
            return self.check(rep_dir, context, self.shape)
        except CheckFailed:
            raise
        except Exception as exc:  # a truncated or corrupt output of any kind
            raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc


def _defined(name: str, *behaviour: Any) -> tuple[str, Workload]:
    return name, Workload(name, DEFINITIONS["workloads"][name], *behaviour)


WORKLOADS: dict[str, Workload] = dict(
    (
        _defined("optimize-n10-bounded", "first-step", check_optimize),
        _defined("optimize-n64", "first-step", check_optimize),
        _defined("disguise-n64", "estimator-ready", check_disguise, prepare_disguise),
        _defined("pipeline-cold", "first-cache-lookup", check_pipeline, prepare_pipeline),
    )
)
