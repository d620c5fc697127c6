"""Declarative specification of a downstream-mining pipeline.

A pipeline is fully described by a :class:`PipelineSpec`: which dataset, which
RR schemes, which miners, which seeds.  The spec is the unit of determinism —
running the same spec serially, on many workers, or from a warm cache must
produce byte-identical result documents — and the unit of caching: every
``(scheme, seed, miner)`` cell derives a content-addressed key from the spec
fields that affect it (including the package version and the full matrix
entries, so changed inputs can never replay stale results).

Build specs with :func:`plan_pipeline`, which resolves scheme arguments
(``warner:0.8``-style family members, explicit matrix documents, or a whole
optimized Pareto front) against the dataset's domain size and validates every
miner name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import repro
from repro.core.result import OptimizationResult
from repro.data.workload import resolve_workload_prior
from repro.exceptions import ValidationError
from repro.pipeline.miners import get_miner
from repro.rr.family import scheme_family
from repro.rr.matrix import RRMatrix

#: Cache-key prefix; bump when the key derivation itself changes.
#: v3: the array-backend name left the key again (see the campaign cache notes).
PIPELINE_KEY_SCHEMA = "pipeline-cell-v3"

#: Default number of records in the sampled workload dataset.
DEFAULT_N_RECORDS = 20_000


def matrix_digest(matrix: RRMatrix) -> str:
    """SHA-256 of a matrix's full-precision entries.

    The single digest convention shared by the cell cache keys and the
    disguise-stream derivation (:func:`repro.pipeline.runner.disguise_seed`).
    """
    payload = json.dumps(matrix.probabilities.tolist())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PipelineScheme:
    """One named RR scheme entering the pipeline."""

    name: str
    matrix: RRMatrix = field(repr=False)


@dataclass(frozen=True)
class PipelineCellTask:
    """One cell of the pipeline grid: a scheme, a seed and a miner."""

    data: str
    n_records: int
    n_categories: int | None
    scheme: PipelineScheme
    seed: int
    miner: str
    miner_params: tuple[tuple[str, Any], ...]

    def cache_key(self) -> str:
        """Content-addressed key of this cell (includes the package version
        and the full matrix, so no input change can replay a stale result)."""
        payload = json.dumps(
            {
                "schema": PIPELINE_KEY_SCHEMA,
                "version": repro.__version__,
                "data": self.data,
                "n_records": self.n_records,
                "n_categories": self.n_categories,
                "scheme": self.scheme.name,
                "matrix": self.scheme.matrix.probabilities.tolist(),
                "seed": self.seed,
                "miner": self.miner,
                "miner_params": sorted(self.miner_params),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PipelineSpec:
    """Static description of a pipeline run.

    Attributes
    ----------
    data:
        Dataset specification (``adult:<attribute>`` or a synthetic family
        name such as ``normal``).
    n_records:
        Number of records sampled into the workload dataset.
    n_categories:
        Domain size for synthetic priors (None derives the default, and is
        required to be consistent for ``adult:`` data).
    schemes:
        The RR schemes to push through the pipeline, in evaluation order.
    miners:
        Canonical miner names, in evaluation order.
    seeds:
        Seeds the disguise/sampling fan out over.
    miner_params:
        Per-miner effective parameters (defaults merged with overrides),
        stored as sorted items per miner.
    """

    data: str
    n_records: int
    n_categories: int | None
    schemes: tuple[PipelineScheme, ...]
    miners: tuple[str, ...]
    seeds: tuple[int, ...]
    miner_params: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()

    def params_for(self, miner: str) -> dict[str, Any]:
        """Effective parameters of one miner."""
        for name, items in self.miner_params:
            if name == miner:
                return dict(items)
        return {}

    def tasks(self) -> tuple[PipelineCellTask, ...]:
        """The grid in canonical order: schemes outer, seeds middle, miners
        inner."""
        cells = []
        for scheme in self.schemes:
            for seed in self.seeds:
                for miner in self.miners:
                    cells.append(
                        PipelineCellTask(
                            data=self.data,
                            n_records=self.n_records,
                            n_categories=self.n_categories,
                            scheme=scheme,
                            seed=seed,
                            miner=miner,
                            miner_params=tuple(sorted(self.params_for(miner).items())),
                        )
                    )
        return tuple(cells)


def parse_seed_argument(text: str) -> tuple[int, ...]:
    """Parse a ``--seeds`` argument into an explicit seed tuple.

    Three forms are accepted: a count (``5`` → seeds 0..4), an inclusive
    range (``0-4`` or ``2-6``), and a comma list (``0,3,7``).
    """
    text = text.strip()

    def to_int(part: str) -> int:
        # Only the integer conversion gets the generic wrapper; the specific
        # range/count errors below must reach the caller untouched
        # (ValidationError subclasses ValueError, so a blanket except would
        # swallow them).
        try:
            return int(part)
        except ValueError as exc:
            raise ValidationError(
                f"cannot parse seeds {text!r}; use a count (5), a range (0-4) "
                f"or a comma list (0,3,7)"
            ) from exc

    if "," in text:
        seeds = tuple(to_int(part) for part in text.split(","))
    elif "-" in text and not text.startswith("-"):
        low_text, high_text = text.split("-", 1)
        low, high = to_int(low_text), to_int(high_text)
        if high < low:
            raise ValidationError(f"seed range {text!r} is empty")
        seeds = tuple(range(low, high + 1))
    else:
        count = to_int(text)
        if count < 1:
            raise ValidationError("--seeds needs at least one seed")
        seeds = tuple(range(count))
    if any(seed < 0 for seed in seeds):
        raise ValidationError(f"seeds must be non-negative, got {text!r}")
    if len(set(seeds)) != len(seeds):
        raise ValidationError(f"seeds {text!r} contain duplicates")
    return seeds


def resolve_scheme_argument(argument: str, n_categories: int) -> PipelineScheme:
    """Resolve one ``--schemes`` entry into a named matrix.

    The form is ``family:parameter`` where family is one of the classic
    scheme families (``warner``, ``up``/``uniform-perturbation``, ``frapp``)
    and parameter is the family's sweep parameter.
    """
    if ":" not in argument:
        raise ValidationError(
            f"scheme {argument!r} must have the form family:parameter "
            f"(e.g. warner:0.8)"
        )
    family_name, parameter_text = argument.split(":", 1)
    try:
        parameter = float(parameter_text)
    except ValueError as exc:
        raise ValidationError(
            f"scheme parameter {parameter_text!r} in {argument!r} is not a number"
        ) from exc
    family = scheme_family(family_name, n_categories)
    return PipelineScheme(name=argument, matrix=family.matrix(parameter))


def schemes_from_front(
    result: OptimizationResult, *, max_schemes: int | None = None
) -> tuple[PipelineScheme, ...]:
    """Turn an optimized Pareto front into pipeline schemes.

    Points are taken in ascending-privacy order (the order
    :class:`~repro.core.result.OptimizationResult` guarantees) and named
    ``front[<index>]@privacy=<value>`` so result tables stay readable.  When
    ``max_schemes`` is given, the front is thinned to at most that many
    points, evenly spaced across the privacy range.
    """
    front = result.front
    if front.is_empty:
        raise ValidationError("the optimized front contains no points")
    rows = list(range(len(front)))
    if max_schemes is not None and max_schemes < len(front):
        if max_schemes < 1:
            raise ValidationError("max_schemes must be at least 1")
        if max_schemes == 1:
            rows = [0]
        else:
            step = (len(front) - 1) / (max_schemes - 1)
            rows = sorted({int(round(i * step)) for i in range(max_schemes)})
    return tuple(
        PipelineScheme(
            name=f"front[{index:02d}]@privacy={front.privacy[row]:.4f}",
            matrix=front[row].matrix,
        )
        for index, row in enumerate(rows)
    )


def plan_pipeline(
    data: str,
    *,
    schemes: Sequence[str | PipelineScheme],
    miners: Sequence[str],
    seeds: Sequence[int],
    n_records: int = DEFAULT_N_RECORDS,
    n_categories: int | None = None,
    miner_options: Mapping[str, Mapping[str, Any]] | None = None,
) -> PipelineSpec:
    """Resolve arguments and build the pipeline specification.

    ``schemes`` entries may be ready :class:`PipelineScheme` objects (e.g.
    produced by :func:`schemes_from_front`) or ``family:parameter`` strings;
    miner names may be aliases (``dist``).  Scheme names must be unique —
    the result table is keyed by them.
    """
    prior = resolve_workload_prior(data, n_categories)
    if not schemes:
        raise ValidationError("a pipeline needs at least one scheme")
    if not miners:
        raise ValidationError("a pipeline needs at least one miner")
    if not seeds:
        raise ValidationError("a pipeline needs at least one seed")
    resolved_schemes = tuple(
        entry
        if isinstance(entry, PipelineScheme)
        else resolve_scheme_argument(entry, prior.n_categories)
        for entry in schemes
    )
    names = [scheme.name for scheme in resolved_schemes]
    if len(set(names)) != len(names):
        raise ValidationError(f"scheme names must be unique, got {names}")
    for scheme in resolved_schemes:
        if scheme.matrix.n_categories != prior.n_categories:
            raise ValidationError(
                f"scheme {scheme.name!r} is {scheme.matrix.n_categories}x"
                f"{scheme.matrix.n_categories} but the data has "
                f"{prior.n_categories} categories"
            )
    resolved_miners = tuple(get_miner(name).name for name in miners)
    if len(set(resolved_miners)) != len(resolved_miners):
        raise ValidationError(f"duplicate miners in {list(miners)}")
    # Canonicalise option keys so the documented aliases (`dist`) work in
    # miner_options exactly as they do in the miners list; two keys landing
    # on the same miner would silently shadow each other, so that is an error.
    options: dict[str, Mapping[str, Any]] = {}
    for name, values in (miner_options or {}).items():
        canonical = get_miner(name).name
        if canonical in options:
            raise ValidationError(
                f"miner options for {canonical!r} given more than once "
                f"(an alias and the canonical name?)"
            )
        options[canonical] = values
    unknown_option_miners = sorted(set(options) - set(resolved_miners))
    if unknown_option_miners:
        raise ValidationError(
            f"miner option(s) given for {unknown_option_miners}, which are not "
            f"part of the pipeline {list(resolved_miners)}"
        )
    miner_params = tuple(
        (name, tuple(sorted(get_miner(name).effective_params(options.get(name)).items())))
        for name in resolved_miners
    )
    return PipelineSpec(
        data=data,
        n_records=int(n_records),
        n_categories=n_categories,
        schemes=resolved_schemes,
        miners=resolved_miners,
        seeds=tuple(int(seed) for seed in seeds),
        miner_params=miner_params,
    )
