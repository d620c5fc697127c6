"""Pragma parsing and suppression semantics."""

from __future__ import annotations

from pathlib import Path

from lintkit_helpers import lint_tree

from lintkit.pragmas import parse_pragmas


def _tree_with(tmp_path: Path, body: str) -> Path:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "module.py").write_text(body, encoding="utf-8")
    return tmp_path


def test_parse_pragmas_maps_lines_to_tokens() -> None:
    text = (
        "x = 1  # repro-lint: allow[rng-discipline]\n"
        "y = 2\n"
        "z = 3  # repro-lint: allow[RL002, wall-clock]\n"
    )
    pragmas = parse_pragmas(text)
    assert pragmas == {
        1: frozenset({"rng-discipline"}),
        3: frozenset({"RL002", "wall-clock"}),
    }


def test_pragma_inside_string_literal_is_not_a_pragma() -> None:
    text = 's = "# repro-lint: allow[rng-discipline]"\n'
    assert parse_pragmas(text) == {}


def test_pragma_suppresses_by_rule_name(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        "import random  # repro-lint: allow[rng-discipline]\n",
    )
    assert lint_tree(tree, {"RL001"}) == []


def test_pragma_suppresses_by_rule_id(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        "import random  # repro-lint: allow[RL001]\n",
    )
    assert lint_tree(tree, {"RL001"}) == []


def test_pragma_wildcard_suppresses_every_rule(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        "import random  # repro-lint: allow[*]\n",
    )
    assert lint_tree(tree) == []


def test_pragma_for_a_different_rule_does_not_suppress(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        "import random  # repro-lint: allow[wall-clock]\n",
    )
    violations = lint_tree(tree, {"RL001"})
    assert len(violations) == 1
    assert violations[0].rule_id == "RL001"


def test_pragma_only_covers_its_own_line(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        "# repro-lint: allow[rng-discipline]\nimport random\n",
    )
    violations = lint_tree(tree, {"RL001"})
    assert len(violations) == 1


def test_string_literal_pragma_does_not_suppress(tmp_path: Path) -> None:
    tree = _tree_with(
        tmp_path,
        'import random; s = "# repro-lint: allow[rng-discipline]"\n',
    )
    violations = lint_tree(tree, {"RL001"})
    assert len(violations) == 1
