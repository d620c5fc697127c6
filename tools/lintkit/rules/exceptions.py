"""RL007 — exception discipline.

A resilient execution layer must *classify* failures, not erase them: retry
and quarantine decisions, failure manifests and corruption forensics all
depend on errors reaching the layer that records them.  A broad handler
that swallows — ``except Exception:`` / ``except BaseException:`` / a bare
``except:`` whose body neither re-raises, nor logs, nor so much as reads
the caught exception — deletes exactly that signal, and it does so
silently.

A broad handler counts as *disciplined* when its body does any of:

* re-raise (any ``raise`` statement, bare or not);
* log the failure (a ``*.debug/info/warning/error/exception/critical/log``
  method call);
* use the bound exception (``except Exception as exc:`` with ``exc`` read
  anywhere in the body — rendering it into an error message or shipping it
  over a pipe is handling, not swallowing).

Narrow handlers (``except OSError:`` and friends) are out of scope: naming
the exception type is already a classification decision.  Intentional
broad-and-silent sites — they exist, e.g. best-effort teardown — carry a
``# repro-lint: allow[RL007]`` pragma with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lintkit.model import ProjectContext, SourceFile, Violation
from lintkit.registry import Rule, register

#: Catch-all exception classes a broad handler names.
BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})

#: Method names whose call counts as logging the failure.
LOGGING_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)


def _broad_name(annotation: ast.expr | None) -> str | None:
    """The catch-all class a handler names, or None for a narrow handler.

    A bare ``except:`` reports as ``BaseException`` (that is what it is).
    """
    if annotation is None:
        return "BaseException"
    if isinstance(annotation, ast.Name) and annotation.id in BROAD_EXCEPTION_NAMES:
        return annotation.id
    if isinstance(annotation, ast.Tuple):
        for element in annotation.elts:
            if isinstance(element, ast.Name) and element.id in BROAD_EXCEPTION_NAMES:
                return element.id
    return None


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body discards the exception entirely."""
    for statement in handler.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise):
                return False
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOGGING_METHODS
            ):
                return False
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return False
    return True


@register
class ExceptionDisciplineRule(Rule):
    rule_id = "RL007"
    name = "exception-discipline"
    description = (
        "broad except handlers (Exception/BaseException/bare) must re-raise, "
        "log, or use the caught exception — silent swallowing erases the "
        "failure signal the resilience layer classifies"
    )
    scopes = ("src/repro", "tools/lintkit", "benchmarks/baselines")

    def check_file(
        self, source: SourceFile, project: ProjectContext
    ) -> Iterable[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                caught = _broad_name(handler.type)
                if caught is None or not _handler_swallows(handler):
                    continue
                spelled = "bare `except:`" if handler.type is None else f"`except {caught}:`"
                violations.append(
                    self.violation(
                        source,
                        handler,
                        f"{spelled} swallows the failure (no re-raise, no "
                        f"logging, exception unused) — classify it, or "
                        f"justify the silence with a pragma",
                    )
                )
        return violations
