"""Every module under ``src/repro`` is reachable from what ``optrr`` runs.

The walk is static: it follows every ``import`` statement of a module —
including the ones inside the CLI's subcommand handlers — starting from
``repro.cli``, ``repro.__main__``, the modules of the top-level ``repro``
export table (``repro._EXPORTS``) and the experiment modules the registry
imports by name (``repro.experiments.registry._EXPERIMENT_MODULES``).  A
module no root reaches is code only its own tests run; it belongs in
``tests/`` or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_name(path: Path) -> str:
    parts = ("repro", *path.relative_to(PACKAGE).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> dict[str, Path]:
    return {_module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}


def _assigned_literal(module: Path, name: str):
    """The literal value of the top-level assignment ``name = ...``."""
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{module} assigns no {name}")


def _imported(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """Every package module an ``import`` statement anywhere in ``path``
    names (``from X import Y`` counts ``X`` and, when it is a module, ``X.Y``)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*anchor, *([base] if base else [])])
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {module for module in found if module in modules}


def _with_parents(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def unreachable_modules() -> list[str]:
    modules = _modules()
    exports = _assigned_literal(PACKAGE / "__init__.py", "_EXPORTS")
    experiments = _assigned_literal(
        PACKAGE / "experiments" / "registry.py", "_EXPERIMENT_MODULES"
    )
    roots = [
        "repro.cli",
        "repro.__main__",
        *exports.values(),
        *(f"repro.experiments.{module}" for module in experiments),
    ]
    reached: set[str] = set()
    queue = [parent for root in roots for parent in _with_parents(root)]
    while queue:
        module = queue.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        for imported in _imported(module, modules[module], modules):
            queue.extend(_with_parents(imported))
    return sorted(set(modules) - reached)


def test_every_package_module_is_reachable() -> None:
    assert unreachable_modules() == []
