"""Registry mapping experiment ids to their specifications."""

from __future__ import annotations

import fnmatch
import importlib
from typing import Iterable

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentSpec

_REGISTRY: dict[str, ExperimentSpec] = {}

#: The modules that register the paper's experiments when imported.
_EXPERIMENT_MODULES = ("figure4", "figure5", "theorem2", "factsheet")


def _registry() -> dict[str, ExperimentSpec]:
    """The registry, with the paper's experiments registered."""
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")
    return _REGISTRY


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register an experiment specification (id must be unique)."""
    if spec.experiment_id in _REGISTRY:
        raise ExperimentError(f"experiment {spec.experiment_id!r} is already registered")
    _REGISTRY[spec.experiment_id] = spec
    return spec


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id."""
    registry = _registry()
    try:
        return registry[experiment_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {sorted(registry)}"
        ) from exc


def available_experiments() -> tuple[str, ...]:
    """Ids of all registered experiments, sorted."""
    return tuple(sorted(_registry()))


def find_experiments(patterns: Iterable[str]) -> tuple[str, ...]:
    """Resolve experiment ids and shell-style globs (``fig4*``) against the
    registry.

    Matches are returned sorted per pattern, de-duplicated across patterns
    with the first occurrence winning, so the same pattern list always yields
    the same experiment order (the campaign grid depends on this).  A pattern
    matching nothing raises :class:`ExperimentError`.
    """
    registry = _registry()
    resolved: list[str] = []
    for pattern in patterns:
        matches = sorted(fnmatch.filter(registry, pattern))
        if not matches:
            raise ExperimentError(
                f"pattern {pattern!r} matches no experiment; available: {sorted(registry)}"
            )
        for experiment_id in matches:
            if experiment_id not in resolved:
                resolved.append(experiment_id)
    return tuple(resolved)
