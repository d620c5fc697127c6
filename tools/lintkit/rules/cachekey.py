"""RL004 — cache-key completeness.

Campaign/pipeline grid results are content-addressed by ``(version,
experiment id, effective overrides, seed)``.  The *effective overrides* are
the weak point: an override key whose runner-level default comes from the
environment must be materialized into
``environment_override_defaults()`` (``src/repro/experiments/base.py``) or
two runs under different environments share a cache key, and a cached
result is replayed for a run it does not belong to.  ``n_generations`` and
``population_size`` (``REPRO_GENERATIONS``, ``REPRO_POPULATION``) are the
materialized keys today.

The rule cross-references three name sets, all extracted statically:

* the ``OptRRConfig`` field names (``src/repro/core/config.py``),
* every ``accepted_overrides`` key (``DEFAULT_ACCEPTED_OVERRIDES`` plus the
  per-spec tuples in ``src/repro/experiments/*.py``),
* the keys of the dict literal ``environment_override_defaults()`` returns.

Every accepted override key, and every config field, must either be
materialized or appear in :data:`EXEMPT_FIELDS` with a recorded reason.
The exemption list is the explicit, reviewable statement that a field
cannot cause a stale-cache replay.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register

CONFIG_PATH = "src/repro/core/config.py"
BASE_PATH = "src/repro/experiments/base.py"
EXPERIMENTS_DIR = "src/repro/experiments"
CONFIG_CLASS = "OptRRConfig"
MATERIALIZATION = "environment_override_defaults"
DEFAULT_TUPLE = "DEFAULT_ACCEPTED_OVERRIDES"

#: Fields that provably cannot cause a stale-cache replay, with the reason.
#: Everything else must be materialized into environment_override_defaults().
EXEMPT_FIELDS: dict[str, str] = {
    # Keyed separately: the cache key carries the seed verbatim.
    "seed": "cache-keyed verbatim as the task's seed field",
    # Pinned by the experiment spec: these are compile-time constants of the
    # runner, never environment-defaulted; a different value can only come
    # from an explicit override, which lands in the effective overrides (and
    # thus the key) on its own.
    "archive_size": "pinned by the experiment spec / explicit override only",
    "optimal_set_size": "pinned by the experiment spec / explicit override only",
    "stagnation_patience": "pinned by the experiment spec / explicit override only",
    "crossover_rate": "pinned by the experiment spec / explicit override only",
    "mutation_rate": "pinned by the experiment spec / explicit override only",
    "mutation_scale": "pinned by the experiment spec / explicit override only",
    "delta": "pinned by the experiment spec / explicit override only",
    "density_k": "pinned by the experiment spec / explicit override only",
    "diagonal_bias": "pinned by the experiment spec / explicit override only",
    "baseline_seeds": "pinned by the experiment spec / explicit override only",
    # Explicit-only workload overrides: no environment default exists, so
    # they are always present in the effective overrides when set.
    "n_categories": "explicit-only override; no environment default",
    "d": "explicit-only override; no environment default",
}


def _config_fields(source: SourceFile) -> dict[str, int]:
    """``OptRRConfig`` field name -> declaration line."""
    fields: dict[str, int] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS:
            for item in node.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                ):
                    fields[item.target.id] = item.lineno
    return fields


def _materialized_keys(source: SourceFile) -> tuple[dict[str, int], int | None]:
    """Keys of the dict ``environment_override_defaults`` returns, plus the
    function's line (None when the function is missing)."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.FunctionDef) and node.name == MATERIALIZATION:
            keys: dict[str, int] = {}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Dict):
                    for key in sub.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(key.value, str):
                            keys.setdefault(key.value, key.lineno)
            return keys, node.lineno
    return {}, None


def _string_tuple(node: ast.expr) -> list[str]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return [
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]
    return []


def _accepted_override_keys(
    project: ProjectContext,
) -> list[tuple[str, SourceFile, int]]:
    """Every accepted override key with the file/line that declares it."""
    keys: list[tuple[str, SourceFile, int]] = []
    base = project.source_at(BASE_PATH)
    if base is not None:
        for node in ast.walk(base.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == DEFAULT_TUPLE:
                        for key in _string_tuple(node.value):
                            keys.append((key, base, node.lineno))
    directory = project.root / EXPERIMENTS_DIR
    if directory.is_dir():
        for path in sorted(directory.glob("*.py")):
            source = project.source(path)
            if source is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.keyword) and node.arg == "accepted_overrides":
                    for key in _string_tuple(node.value):
                        keys.append((key, source, node.value.lineno))
    return keys


@register
class CacheKeyCompletenessRule(Rule):
    rule_id = "RL004"
    name = "cache-key-completeness"
    description = (
        "every OptRRConfig field and accepted override key must be "
        "materialized into environment_override_defaults() or explicitly "
        "exempted"
    )
    scopes = ()  # project-level: reads its target files directly

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        config = project.source_at(CONFIG_PATH)
        base = project.source_at(BASE_PATH)
        if config is None or base is None:
            # Not this project shape (e.g. a partial tree); nothing to check.
            return ()
        materialized, registry_line = _materialized_keys(base)
        violations: list[Violation] = []
        if registry_line is None:
            violations.append(
                self.violation(
                    base,
                    1,
                    f"{MATERIALIZATION}() not found in {BASE_PATH}: the "
                    f"cache-key materialization registry is missing",
                )
            )
            return violations
        seen: set[tuple[str, str]] = set()
        for key, source, line in _accepted_override_keys(project):
            if key in materialized or key in EXEMPT_FIELDS:
                continue
            if (source.relpath, key) in seen:
                continue
            seen.add((source.relpath, key))
            violations.append(
                self.violation(
                    source,
                    line,
                    f"override key {key!r} is accepted but never materialized "
                    f"in {MATERIALIZATION}() ({BASE_PATH}): a cached result "
                    f"could be replayed across an environment that changes it; "
                    f"materialize it or exempt it in EXEMPT_FIELDS with a "
                    f"reason",
                )
            )
        for field, line in sorted(_config_fields(config).items()):
            if field in materialized or field in EXEMPT_FIELDS:
                continue
            violations.append(
                self.violation(
                    config,
                    line,
                    f"OptRRConfig.{field} is neither materialized in "
                    f"{MATERIALIZATION}() ({BASE_PATH}) nor exempted: decide "
                    f"whether it can affect cached results and record the "
                    f"decision (materialize it, or add it to EXEMPT_FIELDS "
                    f"with a reason)",
                )
            )
        return violations
