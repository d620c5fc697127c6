"""Span arithmetic and the wrappers of the traced repetitions."""

from __future__ import annotations

import sys
import types

import pytest

from perfbench.tracing import (
    Patches,
    Tracer,
    busy_time,
    durations,
    self_time_by_name,
    self_times,
    subclasses_defining,
)


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # Self times partition the root span.
    assert sum(self_times(spans)) == 10.0


def test_self_time_by_name_sums_repeated_spans():
    spans = [["main", 0.0, 6.0, -1], ["step", 1.0, 2.0, 0], ["step", 3.0, 5.0, 0]]
    assert self_time_by_name(spans) == {"main": 3.0, "step": 3.0}


def test_busy_time_does_not_double_count_nested_calls_of_one_layer():
    spans = [
        ["main", 0.0, 10.0, -1],
        ["layer", 1.0, 5.0, 0],
        ["layer", 2.0, 3.0, 1],
        ["other", 6.0, 8.0, 0],
        ["layer", 6.5, 7.0, 3],
    ]
    assert busy_time(spans, ["layer"]) == pytest.approx(4.5)
    assert busy_time(spans, ["layer", "other"]) == pytest.approx(6.0)
    assert durations(spans, "layer") == [4.0, 1.0, 0.5]


def test_tracer_records_parents_from_the_call_stack():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return "inner"

    def outer():
        return tracer.call("inner", inner)

    assert tracer.call("outer", outer) == "inner"
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


def test_wrapper_passes_results_and_exceptions_through():
    tracer = Tracer()
    seen = []

    def divide(a, b=1):
        return a / b

    traced = tracer.wrap(
        divide, "divide", observe=lambda t, state, args, kwargs, result: seen.append(result)
    )
    assert traced(6, b=3) == 2.0
    assert traced.__name__ == "divide"
    with pytest.raises(ZeroDivisionError):
        traced(1, b=0)
    # Both calls left a closed span; only the successful one was observed.
    assert [span[0] for span in tracer.spans] == ["divide", "divide"]
    assert all(span[2] >= span[1] for span in tracer.spans)
    assert seen == [2.0]
    assert tracer._open == []


def test_patches_reach_every_importer_and_undo_restores_them(monkeypatch):
    source = types.ModuleType("repro_fake_source")
    source.helper = lambda: "original"
    importer = types.ModuleType("repro_fake_source.importer")
    importer.helper = source.helper
    monkeypatch.setitem(sys.modules, "repro_fake_source", source)
    monkeypatch.setitem(sys.modules, "repro_fake_source.importer", importer)
    original = source.helper
    patches = Patches()
    patches.function("repro_fake_source", "helper", lambda fn: (lambda: "wrapped " + fn()))
    assert source.helper() == importer.helper() == "wrapped original"
    patches.undo()
    assert source.helper is original and importer.helper is original


def test_patches_replace_methods_and_frozen_instance_fields():
    from dataclasses import dataclass

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        def step(self):
            return "child"

    @dataclass(frozen=True)
    class Holder:
        run: object

    holder = Holder(run=len)
    assert subclasses_defining(Base, "step") == [Base, Child]
    patches = Patches()
    patches.method(Child, "step", lambda fn: (lambda self: fn(self).upper()))
    patches.set(holder, "run", max)
    assert Child().step() == "CHILD" and Base().step() == "base"
    assert holder.run is max
    patches.undo()
    assert Child().step() == "child" and holder.run is len
