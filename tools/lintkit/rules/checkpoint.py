"""RL003 — checkpoint codec symmetry.

The kill/resume invariant (resume == uninterrupted run, bit for bit) holds
only when every ``state_document`` has a ``restore_state`` that reads back
exactly what was written.  This rule enforces the two static halves of that
contract:

* **pairing** — a class defining one of ``state_document`` /
  ``restore_state`` must define the other;
* **key symmetry** — the literal dict keys the pair writes and reads must
  match: a key written but never read is state silently dropped on resume,
  a key read but never written is a typo that surfaces as a KeyError (or a
  silently-defaulted ``.get``) in the middle of a restore.

Key extraction is deliberately literal-only: keys written into the returned
dict (dict-literal keys plus ``document["key"] = ...`` subscript stores on
the returned name) versus keys read off the document parameter
(``document["key"]`` / ``document.get("key")``).  When either side has no
extractable keys — delegating codecs, trivial ``return {}`` bodies — the
comparison is skipped; the pairing check still applies.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register

WRITER = "state_document"
READER = "restore_state"


def _written_keys(func: ast.FunctionDef) -> dict[str, int]:
    """Literal keys written into the dict ``state_document`` returns, mapped
    to the line each key is written on."""
    returned_names: set[str] = set()
    literal_keys: dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        literal_keys.setdefault(key.value, key.lineno)
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
    if not returned_names:
        return literal_keys
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in returned_names
                and isinstance(value, ast.Dict)
            ):
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        literal_keys.setdefault(key.value, key.lineno)
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in returned_names
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                literal_keys.setdefault(target.slice.value, target.lineno)
    return literal_keys


def _read_keys(func: ast.FunctionDef) -> dict[str, int]:
    """Literal keys ``restore_state`` reads off its document parameter."""
    positional = func.args.posonlyargs + func.args.args
    if len(positional) < 2:
        return {}
    parameter = positional[1].arg
    keys: dict[str, int] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == parameter
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(getattr(node, "ctx", None), ast.Load)
        ):
            keys.setdefault(node.slice.value, node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == parameter
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.setdefault(node.args[0].value, node.lineno)
    return keys


@register
class CheckpointSymmetryRule(Rule):
    rule_id = "RL003"
    name = "checkpoint-symmetry"
    description = (
        "state_document/restore_state must come in pairs and agree on the "
        "literal dict keys they write and read"
    )
    scopes = ("src/repro", "tools/lintkit", "benchmarks/baselines")

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            writer = methods.get(WRITER)
            reader = methods.get(READER)
            if writer is None and reader is None:
                continue
            if writer is None or reader is None:
                present, missing = (WRITER, READER) if reader is None else (READER, WRITER)
                violations.append(
                    self.violation(
                        source,
                        node,
                        f"class {node.name} defines {present} without "
                        f"{missing}: checkpoint codecs must come in "
                        f"symmetric pairs",
                    )
                )
                continue
            written = _written_keys(writer)
            read = _read_keys(reader)
            if not written or not read:
                continue
            for key, line in sorted(written.items()):
                if key not in read:
                    violations.append(
                        self.violation(
                            source,
                            line,
                            f"{node.name}.{WRITER} writes key {key!r} that "
                            f"{READER} never reads: state silently dropped "
                            f"on resume",
                        )
                    )
            for key, line in sorted(read.items()):
                if key not in written:
                    violations.append(
                        self.violation(
                            source,
                            line,
                            f"{node.name}.{READER} reads key {key!r} that "
                            f"{WRITER} never writes: resume would miss or "
                            f"mis-default it",
                        )
                    )
        return violations
