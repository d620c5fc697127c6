"""Rule base class and registry.

A rule is a class with a stable id (``RLnnn``), a human-readable kebab-case
name, a description, and one or both hooks:

* :meth:`Rule.check_file` — called once per selected file whose
  project-relative path falls under the rule's ``scopes`` prefixes;
* :meth:`Rule.check_project` — called once per run for cross-file
  invariants (the rule reads companion files itself through the
  :class:`~lintkit.model.ProjectContext`).

Rules register themselves with the :func:`register` decorator at import
time; :func:`all_rules` returns one instance of each, ordered by id, so a
run is deterministic regardless of registration order.
"""

from __future__ import annotations

import ast
import importlib
from typing import Iterable, Iterator

from lintkit.model import ProjectContext, SourceFile, Violation

_REGISTRY: dict[str, type["Rule"]] = {}


class Rule:
    """Base class of every repro-lint rule."""

    rule_id: str = ""
    name: str = ""
    description: str = ""
    #: Project-relative path prefixes this rule's file hook applies to.
    scopes: tuple[str, ...] = ("src/repro",)

    def tokens(self) -> frozenset[str]:
        """The pragma/baseline tokens identifying this rule."""
        return frozenset({self.rule_id, self.name})

    def applies_to(self, relpath: str) -> bool:
        """Whether the file hook runs on the file at ``relpath``."""
        return any(
            relpath == scope or relpath.startswith(scope + "/") for scope in self.scopes
        )

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        """Per-file hook (default: no findings)."""
        return ()

    def check_project(self, project: ProjectContext) -> Iterable[Violation]:
        """Once-per-run cross-file hook (default: no findings)."""
        return ()

    def violation(
        self,
        source: SourceFile,
        node: ast.AST | int,
        message: str,
        *,
        column: int | None = None,
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node`` (an AST node or a
        1-indexed line number) in ``source``."""
        if isinstance(node, int):
            line = node
            col = 1 if column is None else column
        else:
            line = getattr(node, "lineno", 1)
            col = (getattr(node, "col_offset", 0) + 1) if column is None else column
        return Violation(
            rule_id=self.rule_id,
            rule_name=self.name,
            relpath=source.relpath,
            line=line,
            column=col,
            message=message,
            snippet=source.line_text(line).strip(),
        )


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not cls.rule_id or not cls.name:
        raise ValueError(f"rule {cls.__name__} needs a rule_id and a name")
    existing = _REGISTRY.get(cls.rule_id)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


#: The rule modules; importing one registers its rule.
_RULE_MODULES = (
    "cachekey", "checkpoint", "exceptions", "linalg", "ordering", "rng", "wallclock",
)


def all_rules() -> list[Rule]:
    """One instance of every registered rule, ordered by rule id."""
    for module in _RULE_MODULES:
        importlib.import_module(f"lintkit.rules.{module}")
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def iter_rule_tokens() -> Iterator[tuple[str, str]]:
    """(id, name) pairs of the registered rules, ordered by id."""
    for rule in all_rules():
        yield rule.rule_id, rule.name
