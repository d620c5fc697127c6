"""Outside-in tracing: spans around the program's public calls.

The benchmark never edits the program.  A traced repetition replaces a
layer's public function or method with a wrapper that records a span (name,
start, end, parent span) and passes the return value or exception through
unchanged.  Spans are kept in memory and written out once, when the
repetition ends.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover; the self times of all spans in one repetition add up
to the time the root spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Iterable, Sequence

#: One recorded span: ``[name, start, end, parent index or -1]``.
Span = list

#: Hook run after a traced call: ``observe(tracer, state, args, kwargs, result)``.
Observer = Callable[["Tracer", Any, tuple, dict, Any], None]

#: Hook run before a traced call; its return value is passed to the observer.
Preparer = Callable[[tuple, dict], Any]


class Tracer:
    """In-memory span and counter recorder for one repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increase counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def record(self, name: str, start: float, end: float) -> None:
        """Record an already-measured span under the currently open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span called ``name``."""
        record = [name, self.clock(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            return function(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._open.pop()

    def wrap(
        self,
        function: Callable,
        name: str,
        observe: Observer | None = None,
        prepare: Preparer | None = None,
    ) -> Callable:
        """A wrapper recording a span per call of ``function``.

        ``prepare`` runs before the span opens and ``observe`` after it
        closes, so the work they do for counters is not charged to the
        layer itself.  A call that raises is still recorded; the exception
        propagates unchanged and ``observe`` is skipped.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = prepare(args, kwargs) if prepare is not None else None
            result = self.call(name, function, *args, **kwargs)
            if observe is not None:
                observe(self, state, args, kwargs, result)
            return result

        return traced

    def document(self) -> dict[str, Any]:
        """Spans and counters as plain JSON-compatible data."""
        return {"spans": self.spans, "counters": dict(self.counters)}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        """Replace ``owner.attribute`` (frozen dataclass instances included)."""
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        _assign(owner, attribute, value)

    def function(
        self, module_name: str, attribute: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace a module-level function everywhere it was imported.

        ``from module import f`` copies the binding into the importing
        module, so every loaded ``repro`` module holding the same object is
        patched too.
        """
        original = getattr(importlib.import_module(module_name), attribute)
        replacement = make(original)
        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] != module_name.split(".")[0] or module is None:
                continue
            if getattr(module, attribute, None) is original:
                self.set(module, attribute, replacement)

    def method(
        self, cls: type, attribute: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace a method defined on ``cls`` itself."""
        self.set(cls, attribute, make(cls.__dict__[attribute]))

    def undo(self) -> None:
        """Restore every replaced attribute."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            _assign(owner, attribute, original)


def _assign(owner: Any, attribute: str, value: Any) -> None:
    # object.__setattr__ also reaches into frozen dataclass instances.
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attribute, value)
    else:
        object.__setattr__(owner, attribute, value)


def subclasses_defining(base: type, attribute: str) -> list[type]:
    """``base`` and its subclasses that define ``attribute`` themselves."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


# -- span arithmetic ----------------------------------------------------------


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    The spans of one repetition come from one thread's call stack, so a
    span's children never overlap and lie inside it: the covered part is the
    sum of their durations.
    """
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def busy_time(spans: Sequence[Span], names: Iterable[str]) -> float:
    """Time spent inside spans called one of ``names``.

    A span nested inside another span of the same set is not counted again,
    so recursion or a layer calling itself cannot double the figure.
    """
    wanted = set(names)
    total = 0.0
    for span in spans:
        if span[0] in wanted and not _has_ancestor_in(spans, span, wanted):
            total += span[2] - span[1]
    return total


def durations(spans: Sequence[Span], name: str) -> list[float]:
    """Durations of every span called ``name``, in recording order."""
    return [span[2] - span[1] for span in spans if span[0] == name]


def _has_ancestor_in(spans: Sequence[Span], span: Span, names: set[str]) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
