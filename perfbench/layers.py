"""Which public calls a traced repetition wraps, and the per-layer metrics
derived from the spans and counters they record.

Every wrapper is installed from here, from outside the program; nothing in
``src/`` knows it is being traced.  Untraced repetitions install a single
one-shot probe instead (:func:`install_probe`) that notes when the first
unit of work starts and then removes itself.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from perfbench import stats
from perfbench.tracing import Patches, Tracer, busy_time, durations, subclasses_defining

# -- installing the wrappers --------------------------------------------------


def _file_bytes(counter: str) -> Callable:
    def observe(tracer: Tracer, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.add(counter, os.path.getsize(result))

    return observe


def _evaluated(tracer: Tracer, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("evaluation.rows", len(result))
    tracer.add("evaluation.singular", int((~result.invertible).sum()))


def _stack_before_repair(args: tuple, kwargs: dict) -> Any:
    # repair_stack(self, stack) may repair in place; keep the input to compare.
    problem, stack = args[0], args[1]
    return None if problem.delta is None else stack.copy()


def _repaired(tracer: Tracer, before: Any, args: tuple, kwargs: dict, result: Any) -> None:
    rows = len(result)
    tracer.add("repair.rows", rows)
    if before is not None and rows:
        changed = (result != before).reshape(rows, -1).any(axis=1)
        tracer.add("repair.changed", int(changed.sum()))


def _offered(tracer: Tracer, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    population = args[1]  # offer_population(self, population, make_individual)
    tracer.add("archive.offers", population.size)
    tracer.add("archive.accepted", result)


def _looked_up(tracer: Tracer, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("cache.misses" if result is None else "cache.hits")


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every traced layer's public calls (``repro`` must be imported)."""
    from repro.core.archive import OptimalSet
    from repro.core.problem import RRMatrixProblem
    from repro.emoo.driver import OptimizationDriver, SteppableOptimization
    from repro.experiments.grid import DocumentCache
    from repro.metrics.evaluation import MatrixEvaluator
    from repro.pipeline.miners import available_miners, get_miner
    from repro.rr.streaming import OnlineEstimator, StreamingDisguiser

    def traced(name: str, observe: Callable | None = None,
               prepare: Callable | None = None) -> Callable[[Callable], Callable]:
        return lambda function: tracer.wrap(function, name, observe, prepare)

    for attribute in ("setup", "step"):
        for cls in subclasses_defining(SteppableOptimization, attribute):
            patches.method(cls, attribute, traced(f"emoo.driver.{attribute}"))
    patches.method(OptimizationDriver, "save_checkpoint",
                   traced("emoo.driver.checkpoint", _file_bytes("checkpoint.bytes")))
    patches.method(MatrixEvaluator, "evaluate_batch",
                   traced("metrics.evaluation.evaluate_batch", _evaluated))
    patches.function("repro.emoo.density", "pairwise_distances",
                     traced("emoo.density.pairwise_distances"))
    patches.function("repro.emoo.fitness", "spea2_fitness_from_arrays",
                     traced("emoo.fitness.spea2_fitness_from_arrays"))
    for function in ("environmental_selection_indices", "binary_tournament_indices"):
        patches.function("repro.emoo.selection", function,
                         traced(f"emoo.selection.{function}"))
    for method in ("crossover_stack", "mutate_stack"):
        patches.method(RRMatrixProblem, method, traced(f"core.operators.{method}"))
    patches.method(RRMatrixProblem, "repair_stack",
                   traced("core.operators.repair_stack", _repaired, _stack_before_repair))
    patches.method(OptimalSet, "offer_population",
                   traced("core.archive.offer_population", _offered))
    patches.method(RRMatrixProblem, "population_individual",
                   traced("core.archive.population_individual"))
    patches.function("repro.io", "save_result",
                     traced("io.save_result", _file_bytes("result.bytes")))
    patches.method(StreamingDisguiser, "disguise_chunk",
                   traced("rr.streaming.disguise_chunk"))
    patches.method(OnlineEstimator, "update", traced("rr.streaming.estimate_update"))
    for name in available_miners():
        miner = get_miner(name)
        patches.set(miner, "run", tracer.wrap(miner.run, f"mining.{name}"))
    patches.function("repro.pipeline.runner", "disguise_workload",
                     traced("pipeline.disguise_workload"))
    patches.function("repro.data.workload", "build_workload",
                     traced("data.workload.build_workload"))
    patches.method(DocumentCache, "load_document",
                   traced("experiments.grid.load_document", _looked_up))
    patches.method(DocumentCache, "store_document",
                   traced("experiments.grid.store_document", _file_bytes("cache.bytes")))


# -- the one-shot probe of untraced repetitions --------------------------------


def _probe_targets(probe: str) -> tuple[list[tuple[type, str]], bool]:
    """The methods marking the end of set-up, and whether the mark is taken
    once the call returned (else when it starts)."""
    if probe == "first-step":
        from repro.emoo.driver import SteppableOptimization

        return [(cls, "step") for cls in subclasses_defining(SteppableOptimization, "step")], False
    if probe == "estimator-ready":
        from repro.rr.streaming import OnlineEstimator

        return [(OnlineEstimator, "__init__")], True
    if probe == "first-cache-lookup":
        from repro.experiments.grid import DocumentCache

        return [(DocumentCache, "load_document")], False
    raise ValueError(f"unknown probe {probe!r}")


def install_probe(probe: str, marks: dict[str, float], patches: Patches) -> None:
    """Note ``marks["first_work"]`` (``time.monotonic``) at the end of
    set-up, then restore the probed methods so the rest of the run executes
    the unwrapped program."""
    targets, on_return = _probe_targets(probe)

    def fire() -> None:
        if "first_work" not in marks:
            marks["first_work"] = time.monotonic()
            patches.undo()

    for cls, attribute in targets:
        original = cls.__dict__[attribute]

        def probed(*args: Any, _original: Callable = original, **kwargs: Any) -> Any:
            if not on_return:
                fire()
            result = _original(*args, **kwargs)
            if on_return:
                fire()
            return result

        patches.set(cls, attribute, probed)


# -- per-layer metrics --------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric.

    ``per_rep`` reduces one traced repetition (its spans and counters) to a
    value, and the reported figure is the median over traced repetitions.
    ``pooled`` instead reduces the spans of all traced repetitions at once,
    for percentiles over individual calls.
    """

    name: str
    unit: str
    per_rep: Callable[[Mapping[str, Any]], float] | None = None
    pooled: Callable[[Sequence[Mapping[str, Any]]], float] | None = None

    def value(self, reps: Sequence[Mapping[str, Any]]) -> float:
        if self.pooled is not None:
            return self.pooled(reps)
        return stats.median([self.per_rep(rep) for rep in reps])


def _busy(*names: str) -> Callable[[Mapping[str, Any]], float]:
    return lambda rep: busy_time(rep["spans"], names)


def _calls(name: str) -> Callable[[Mapping[str, Any]], float]:
    return lambda rep: float(len(durations(rep["spans"], name)))


def _counter(name: str) -> Callable[[Mapping[str, Any]], float]:
    return lambda rep: float(rep["counters"].get(name, 0.0))


def _ratio(numerator: str, denominator: str) -> Callable[[Mapping[str, Any]], float]:
    def value(rep: Mapping[str, Any]) -> float:
        total = rep["counters"].get(denominator, 0.0)
        return rep["counters"].get(numerator, 0.0) / total if total else 0.0

    return value


def _call_ms(name: str, p: str) -> Callable[[Sequence[Mapping[str, Any]]], float]:
    def value(reps: Sequence[Mapping[str, Any]]) -> float:
        samples = [1000.0 * d for rep in reps for d in durations(rep["spans"], name)]
        return stats.capped_percentile(samples, p) if samples else 0.0

    return value


def _self_time(name: str) -> Callable[[Mapping[str, Any]], float]:
    return lambda rep: rep["self_times"].get(name, 0.0)


def _disguise_self(rep: Mapping[str, Any]) -> float:
    return rep["self_times"].get("cli.main", 0.0) if rep["workload"] == "disguise-n64" else 0.0


def _coverage(rep: Mapping[str, Any]) -> float:
    return sum(rep["self_times"].values()) / rep["wall_s"]


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("python.import_s", "s", _self_time("python.import")),
    LayerMetric("cli.main.self_s", "s", _self_time("cli.main")),
    LayerMetric("emoo.driver.setup_s", "s", _busy("emoo.driver.setup")),
    LayerMetric("emoo.driver.step_ms.p50", "ms", pooled=_call_ms("emoo.driver.step", "50")),
    LayerMetric("emoo.driver.step_ms.p90", "ms", pooled=_call_ms("emoo.driver.step", "90")),
    LayerMetric("metrics.evaluation.busy_s", "s",
                _busy("metrics.evaluation.evaluate_batch")),
    LayerMetric("metrics.evaluation.rows", "count", _counter("evaluation.rows")),
    LayerMetric("metrics.evaluation.singular_frac", "ratio",
                _ratio("evaluation.singular", "evaluation.rows")),
    LayerMetric("emoo.density.busy_s", "s", _busy("emoo.density.pairwise_distances")),
    LayerMetric("emoo.fitness.busy_s", "s", _busy("emoo.fitness.spea2_fitness_from_arrays")),
    LayerMetric("emoo.selection.busy_s", "s",
                _busy("emoo.selection.environmental_selection_indices",
                      "emoo.selection.binary_tournament_indices")),
    LayerMetric("core.operators.variation_s", "s",
                _busy("core.operators.crossover_stack", "core.operators.mutate_stack")),
    LayerMetric("core.operators.repair_s", "s", _busy("core.operators.repair_stack")),
    LayerMetric("core.operators.repair_rows_changed_frac", "ratio",
                _ratio("repair.changed", "repair.rows")),
    LayerMetric("core.archive.offer_s", "s", _busy("core.archive.offer_population")),
    LayerMetric("core.archive.offers", "count", _counter("archive.offers")),
    LayerMetric("core.archive.accepted_frac", "ratio",
                _ratio("archive.accepted", "archive.offers")),
    LayerMetric("core.archive.materialised", "count",
                _calls("core.archive.population_individual")),
    LayerMetric("emoo.driver.checkpoint_s", "s", _busy("emoo.driver.checkpoint")),
    LayerMetric("emoo.driver.checkpoint_bytes", "bytes", _counter("checkpoint.bytes")),
    LayerMetric("emoo.driver.checkpoint_writes", "count", _calls("emoo.driver.checkpoint")),
    LayerMetric("io.save_result_s", "s", _busy("io.save_result")),
    LayerMetric("io.result_bytes", "bytes", _counter("result.bytes")),
    LayerMetric("cli.disguise.parse_write_s", "s", _disguise_self),
    LayerMetric("rr.streaming.disguise_s", "s", _busy("rr.streaming.disguise_chunk")),
    LayerMetric("rr.streaming.chunk_ms.p50", "ms",
                pooled=_call_ms("rr.streaming.disguise_chunk", "50")),
    LayerMetric("rr.streaming.chunk_ms.p90", "ms",
                pooled=_call_ms("rr.streaming.disguise_chunk", "90")),
    LayerMetric("rr.streaming.estimate_s", "s", _busy("rr.streaming.estimate_update")),
    LayerMetric("mining.tree_s", "s", _busy("mining.tree")),
    LayerMetric("mining.rules_s", "s", _busy("mining.rules")),
    LayerMetric("mining.distribution_s", "s", _busy("mining.distribution")),
    LayerMetric("pipeline.disguise_s", "s", _busy("pipeline.disguise_workload")),
    LayerMetric("pipeline.disguise_calls", "count", _calls("pipeline.disguise_workload")),
    LayerMetric("data.workload.build_s", "s", _busy("data.workload.build_workload")),
    LayerMetric("experiments.grid.cache_load_s", "s",
                _busy("experiments.grid.load_document")),
    LayerMetric("experiments.grid.cache_store_s", "s",
                _busy("experiments.grid.store_document")),
    LayerMetric("experiments.grid.cache_hits", "count", _counter("cache.hits")),
    LayerMetric("experiments.grid.cache_misses", "count", _counter("cache.misses")),
    LayerMetric("experiments.grid.cache_bytes", "bytes", _counter("cache.bytes")),
    LayerMetric("trace.coverage", "ratio", _coverage),
)
