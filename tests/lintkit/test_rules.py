"""Fixture-tree self-tests: every rule fires on tree_bad, stays silent on
tree_good.

The fixture trees under ``lint_fixtures/`` mirror the real repo layout
(``src/repro/...``) so scope prefixes and the project-level cache-key rule
resolve the same way they do on the actual tree.
"""

from __future__ import annotations

from pathlib import Path

from lintkit_helpers import lint_tree

from repro.lintkit.registry import all_rules


def _by_rule(violations) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for violation in violations:
        grouped.setdefault(violation.rule_id, []).append(violation)
    return grouped


def test_registry_exposes_the_documented_rules() -> None:
    rules = all_rules()
    assert [rule.rule_id for rule in rules] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
    ]
    names = {rule.rule_id: rule.name for rule in rules}
    assert names == {
        "RL001": "rng-discipline",
        "RL002": "wall-clock",
        "RL003": "checkpoint-symmetry",
        "RL004": "cache-key-completeness",
        "RL005": "ordering-hazard",
        "RL006": "linalg-confinement",
        "RL007": "exception-discipline",
    }


def test_good_tree_is_completely_clean(good_tree: Path) -> None:
    assert lint_tree(good_tree) == []


def test_bad_tree_total(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree)
    counts = {rule_id: len(found) for rule_id, found in _by_rule(violations).items()}
    assert counts == {
        "RL001": 5, "RL002": 5, "RL003": 3, "RL004": 3, "RL005": 2, "RL006": 4,
        "RL007": 3,
    }


def test_rng_discipline_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL001"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 5
    assert all(violation.relpath == "src/repro/rng_helpers.py" for violation in violations)
    assert any("stdlib `random`" in message for message in messages)
    assert any("np.random.seed" in message for message in messages)
    assert any("np.random.rand" in message for message in messages)
    assert any("unseeded default_rng()" in message for message in messages)
    assert any("np.random.RandomState" in message for message in messages)


def test_rng_discipline_silent_on_seeded_generators(good_tree: Path) -> None:
    assert lint_tree(good_tree, {"RL001"}) == []


def test_wall_clock_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL002"})
    assert len(violations) == 5
    assert all(violation.relpath == "src/repro/timers.py" for violation in violations)
    joined = "\n".join(violation.message for violation in violations)
    assert "from time import perf_counter" in joined
    assert "time.time()" in joined
    assert "datetime.now()" in joined
    assert "os.urandom()" in joined
    assert "uuid.uuid4()" in joined


def test_wall_clock_allows_the_deadline_sites(good_tree: Path) -> None:
    # tree_good/src/repro/emoo/driver.py calls time.perf_counter — the
    # allowlisted timing site must not fire.
    assert lint_tree(good_tree, {"RL002"}) == []


def test_checkpoint_symmetry_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL003"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 3
    assert any("writes key 'rng_state'" in message for message in messages)
    assert any("reads key 'extra'" in message for message in messages)
    assert any("SaveOnly defines state_document without restore_state" in m for m in messages)


def test_checkpoint_symmetry_accepts_conditional_writes(good_tree: Path) -> None:
    # SymmetricCodec writes "rng_state" via a conditional subscript store and
    # reads it back with .get(...) — both sides must be extracted.
    assert lint_tree(good_tree, {"RL003"}) == []


def test_cache_key_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL004"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 3
    # The accepted-but-unmaterialized override key...
    assert any(
        "override key 'low_fidelity_fraction' is accepted but never materialized" in m
        for m in messages
    )
    # ...and both config fields missing from materialization and exemptions.
    assert any("OptRRConfig.low_fidelity_fraction" in m for m in messages)
    assert any("OptRRConfig.smoothing_epsilon" in m for m in messages)


def test_cache_key_silent_when_everything_is_materialized(good_tree: Path) -> None:
    assert lint_tree(good_tree, {"RL004"}) == []


def test_ordering_hazard_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL005"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 2
    assert any("iteration directly over a set" in message for message in messages)
    assert any("first-match next(...)" in message for message in messages)


def test_ordering_hazard_accepts_sorted_iteration(good_tree: Path) -> None:
    assert lint_tree(good_tree, {"RL005"}) == []


def test_linalg_confinement_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL006"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 4
    by_file = {violation.relpath for violation in violations}
    assert by_file == {
        "src/repro/metrics/evaluation.py",
        "src/repro/emoo/density.py",
    }
    assert any("np.linalg.slogdet" in message for message in messages)
    assert any("np.linalg.inv" in message for message in messages)
    assert any("`from numpy import linalg`" in message for message in messages)
    assert any("`from numpy.linalg import ...`" in message for message in messages)


def test_linalg_confinement_silent_without_numpy_linalg(good_tree: Path) -> None:
    # The good-tree modules invert through repro.utils.linalg and compute
    # distances without numpy.linalg; only the home module touches it.
    assert lint_tree(good_tree, {"RL006"}) == []


def test_linalg_confinement_exempts_its_home_module(bad_tree: Path) -> None:
    # tree_bad/src/repro/utils/linalg.py calls np.linalg.inv and is the one
    # module the rule must leave alone.
    violations = lint_tree(bad_tree, {"RL006"})
    assert all(
        violation.relpath != "src/repro/utils/linalg.py" for violation in violations
    )


def test_exception_discipline_findings(bad_tree: Path) -> None:
    violations = lint_tree(bad_tree, {"RL007"})
    messages = [violation.message for violation in violations]
    assert len(violations) == 3
    assert all(
        violation.relpath == "src/repro/experiments/guards.py"
        for violation in violations
    )
    assert any("`except Exception:` swallows" in message for message in messages)
    assert any("bare `except:` swallows" in message for message in messages)
    assert any("`except BaseException:` swallows" in message for message in messages)


def test_exception_discipline_ignores_narrow_handlers(bad_tree: Path) -> None:
    # guards.py ends with an `except OSError:` that swallows — naming the
    # exception type is already a classification decision, so RL007 must not
    # anchor any violation there.
    violations = lint_tree(bad_tree, {"RL007"})
    last_handler_line = max(
        violation.line for violation in violations
    )
    text = (bad_tree / "src/repro/experiments/guards.py").read_text(encoding="utf-8")
    oserror_line = next(
        number
        for number, line in enumerate(text.splitlines(), start=1)
        if "except OSError" in line
    )
    assert last_handler_line < oserror_line


def test_exception_discipline_silent_on_disciplined_handlers(good_tree: Path) -> None:
    # tree_good/src/repro/experiments/guards.py re-raises, logs, uses the
    # bound exception, and pragma-justifies its one intentional silent site.
    assert lint_tree(good_tree, {"RL007"}) == []


def test_syntax_error_reported_once(tmp_path: Path) -> None:
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    violations = lint_tree(tmp_path)
    assert [violation.rule_id for violation in violations] == ["RL000"]
    assert "does not parse" in violations[0].message
