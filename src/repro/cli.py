"""Command-line interface for the OptRR reproduction library.

Usage examples::

    optrr list
    optrr run fig4a --generations 200 --seed 1
    optrr campaign 'fig4*' thm2 --seeds 8 --jobs 4 --cache-dir .campaign-cache
    optrr optimize --distribution gamma --categories 10 --records 10000 --delta 0.75
    optrr optimize --distribution adult:education --output front.json
    optrr optimize --distribution normal --generations 20000 \
        --checkpoint run.ck.json --deadline 3600
    optrr optimize --resume run.ck.json --generations 40000
    optrr pipeline --data adult:education --front front.json --miners tree,rules \
        --seeds 0-4 --jobs 2 --output aggregate.json
    optrr disguise codes.txt --matrix warner:0.8 --categories 5 \
        --chunk-size 10000 --estimator iterative --report report.json
    optrr compare-schemes --distribution normal --categories 10
    optrr search-space --categories 10 --grid 100

Exit codes: ``0`` success, ``1`` a paper claim diverged (``run``), ``2`` a
usage error (unknown experiment, conflicting ``--categories``, rejected
override, unreadable ``--front`` document, ...) reported on stderr.  The
full reference for every subcommand lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

# Module level: the optimizer, pipeline and streaming runtimes, which hold
# every layer perfbench/layers.py traces, so that a traced run's
# `python.import` span covers their import.  Each handler imports the
# analysis, experiment-harness and document modules only it runs.
from repro.core.config import OptRRConfig
from repro.core.optimizer import OptRROptimizer
from repro.core.result import ParetoFront
from repro.data.distribution import CategoricalDistribution
from repro.data.workload import resolve_workload_prior
from repro.emoo.driver import DEFAULT_CHECKPOINT_EVERY, checkpoint_scope
from repro.exceptions import (
    DataError,
    EstimationError,
    ExperimentError,
    GridCellError,
    OptimizationError,
    ValidationError,
)
from repro.faults.injector import active_fault_plan
from repro.metrics.evaluation import MatrixEvaluator
from repro.pipeline.runner import PipelineCache, run_pipeline
from repro.pipeline.spec import parse_seed_argument, plan_pipeline, schemes_from_front
from repro.rr.family import family_names, scheme_family, scheme_matrix
from repro.rr.matrix import matrix_digest
from repro.rr.streaming import (
    CodeLineWriter,
    OnlineEstimator,
    StreamingDisguiser,
    read_code_chunks,
)
from repro.utils.arrays import dump_canonical_json

#: Default domain size for the synthetic priors when --categories is omitted.
DEFAULT_CATEGORIES = 10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optrr",
        description="OptRR: optimizing randomized response schemes (ICDE 2008 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run a paper experiment")
    run_parser.add_argument("experiment", help="experiment id (see `optrr list`)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--generations", type=int, default=None)
    run_parser.add_argument("--population", type=int, default=None)
    run_parser.add_argument("--plot", action="store_true", help="render an ASCII front plot")
    run_parser.add_argument(
        "--checkpoint-dir", default=None,
        help="write per-optimizer-run checkpoints into this directory and "
             "auto-resume from any checkpoints already there",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="DIR",
        help="alias for --checkpoint-dir: resume the experiment's optimizer "
             "runs from the partial checkpoints in DIR",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint cadence in generations (default 50; needs "
             "--checkpoint-dir or --resume)",
    )
    run_parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget shared by the experiment's optimizer runs",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a multi-seed campaign over a grid of experiments",
    )
    campaign_parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids or globs (e.g. fig4a 'fig5*')",
    )
    campaign_parser.add_argument(
        "--seeds", type=int, default=4, help="number of seeds per experiment (0..N-1)"
    )
    campaign_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    campaign_parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory (omit to disable caching)",
    )
    campaign_parser.add_argument("--generations", type=int, default=None)
    campaign_parser.add_argument("--population", type=int, default=None)
    campaign_parser.add_argument(
        "--output", default=None, help="write the aggregate JSON document to this path"
    )
    _add_resilience_arguments(campaign_parser, keep_going_default=True)

    optimize_parser = subparsers.add_parser("optimize", help="optimize RR matrices for a workload")
    optimize_parser.add_argument("--distribution", default="normal",
                                 help="normal, gamma, uniform, zipf, geometric, or adult:<attribute>")
    optimize_parser.add_argument(
        "--categories", type=int, default=None,
        help=f"domain size for synthetic priors (default {DEFAULT_CATEGORIES}); "
             "derived from the data for adult:<attribute>",
    )
    optimize_parser.add_argument("--records", type=int, default=10_000)
    optimize_parser.add_argument("--delta", type=float, default=None)
    optimize_parser.add_argument(
        "--generations", type=int, default=None,
        help="generation budget (default 200; with --resume, extends the "
             "checkpointed run's budget)",
    )
    optimize_parser.add_argument("--population", type=int, default=40)
    optimize_parser.add_argument("--seed", type=int, default=0)
    optimize_parser.add_argument("--plot", action="store_true")
    optimize_parser.add_argument(
        "--output", default=None,
        help="write the optimization_result JSON document (front + matrices) "
             "to this path; feed it to `optrr pipeline --front`",
    )
    optimize_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write resumable checkpoint documents to this file",
    )
    optimize_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint cadence in generations (default 50; needs "
             "--checkpoint or --resume)",
    )
    optimize_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint file; the workload (distribution, "
             "records, delta, population) comes from the checkpoint and the "
             "corresponding flags are ignored",
    )
    optimize_parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for this invocation's work, combined with "
             "the generation budget (time spent before a --resume does not "
             "count against it)",
    )

    pipeline_parser = subparsers.add_parser(
        "pipeline",
        help="disguise -> reconstruct -> mine -> score a set of RR schemes",
    )
    pipeline_parser.add_argument(
        "--data", required=True,
        help="workload data: adult:<attribute> or a synthetic family "
             "(normal, gamma, uniform, zipf, geometric)",
    )
    pipeline_parser.add_argument(
        "--schemes", default=None,
        help="comma list of family:parameter schemes (e.g. warner:0.8,up:0.9,frapp:5)",
    )
    pipeline_parser.add_argument(
        "--front", default=None,
        help="optimization_result JSON document produced by `optrr optimize "
             "--output`; every front point becomes a scheme",
    )
    pipeline_parser.add_argument(
        "--front-schemes", type=int, default=None,
        help="thin the front to at most this many evenly-spaced points",
    )
    pipeline_parser.add_argument(
        "--miners", default="tree,rules,distribution",
        help="comma list of miners (tree, rules, distribution)",
    )
    pipeline_parser.add_argument(
        "--miner-param", action="append", default=[], metavar="MINER:KEY=VALUE",
        help="override a miner parameter (repeatable), e.g. rules:min_support=0.1",
    )
    pipeline_parser.add_argument(
        "--seeds", default="4",
        help="seeds as a count (5 -> 0..4), an inclusive range (0-4) or a "
             "comma list (0,3,7)",
    )
    pipeline_parser.add_argument("--records", type=int, default=20_000)
    pipeline_parser.add_argument(
        "--categories", type=int, default=None,
        help=f"domain size for synthetic priors (default {DEFAULT_CATEGORIES}); "
             "derived from the data for adult:<attribute>",
    )
    pipeline_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial)"
    )
    pipeline_parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed cell cache directory (omit to disable caching)",
    )
    pipeline_parser.add_argument(
        "--output", default=None,
        help="write the pipeline_aggregate JSON document to this path",
    )
    pipeline_parser.add_argument(
        "--result", default=None,
        help="write the full per-cell pipeline_result JSON document to this path",
    )
    _add_resilience_arguments(pipeline_parser, keep_going_default=False)

    disguise_parser = subparsers.add_parser(
        "disguise",
        help="stream integer codes through an RR disguise with online "
             "reconstruction (bounded-memory chunks)",
    )
    disguise_parser.add_argument(
        "input", nargs="?", default="-",
        help="file of integer codes (whitespace-separated); '-' or omitted "
             "reads stdin",
    )
    disguise_parser.add_argument(
        "--matrix", default=None, metavar="SCHEME|PATH",
        help="family:parameter scheme (e.g. warner:0.8; needs --categories) "
             "or a path to an rr_matrix JSON document",
    )
    disguise_parser.add_argument(
        "--front", default=None, metavar="PATH",
        help="optimization_result JSON produced by `optrr optimize --output`; "
             "pick a point with --front-index",
    )
    disguise_parser.add_argument(
        "--front-index", type=int, default=0, metavar="K",
        help="front point to disguise with, in ascending-privacy order "
             "(default 0)",
    )
    disguise_parser.add_argument(
        "--categories", type=int, default=None,
        help="domain size (required with a family:parameter --matrix; "
             "derived from the matrix otherwise)",
    )
    disguise_parser.add_argument(
        "--chunk-size", type=int, default=65_536, metavar="N",
        help="records disguised per chunk; bounds peak memory (default 65536)",
    )
    disguise_parser.add_argument(
        "--estimator", choices=("inversion", "iterative"), default="inversion",
        help="reconstruction method for the report (default inversion)",
    )
    disguise_parser.add_argument("--seed", type=int, default=0)
    disguise_parser.add_argument(
        "--output", default=None,
        help="write disguised codes (one per line) to this path instead of "
             "stdout",
    )
    disguise_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON disguise_report document (counts, estimate, "
             "per-chunk diagnostics) to this path",
    )

    compare_parser = subparsers.add_parser(
        "compare-schemes", help="compare the classic scheme families on a workload"
    )
    compare_parser.add_argument("--distribution", default="normal")
    compare_parser.add_argument(
        "--categories", type=int, default=None,
        help=f"domain size for synthetic priors (default {DEFAULT_CATEGORIES}); "
             "derived from the data for adult:<attribute>",
    )
    compare_parser.add_argument("--records", type=int, default=10_000)
    compare_parser.add_argument("--delta", type=float, default=None)

    space_parser = subparsers.add_parser("search-space", help="print the Fact 1 search-space size")
    space_parser.add_argument("--categories", type=int, default=DEFAULT_CATEGORIES)
    space_parser.add_argument("--grid", type=int, default=100)

    return parser


def _add_resilience_arguments(
    parser: argparse.ArgumentParser, *, keep_going_default: bool
) -> None:
    """The shared ``--retries/--cell-timeout/--keep-going`` flag group.

    Semantics are documented in ``docs/robustness.md``; the ``keep_going``
    default differs per command (on for campaigns, off for pipelines).
    """
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts granted to each failing grid cell, with capped "
             "exponential backoff between attempts (default: 1 for "
             "campaign, 0 for pipeline)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock limit; a cell exceeding it has its worker "
             "killed and replaced (counts as a failed attempt)",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        default=keep_going_default,
        help="quarantine cells that exhaust their attempts and run the rest "
             "of the grid to completion (exit status 1 reports the "
             f"quarantined cells){' [default]' if keep_going_default else ''}",
    )
    group.add_argument(
        "--no-keep-going", dest="keep_going", action="store_false",
        help="abort the whole grid on the first cell that exhausts its "
             f"attempts{'' if keep_going_default else ' [default]'}",
    )


def _report_quarantined_cells(manifest: dict | None, label: str) -> None:
    """Describe every quarantined cell of a failure manifest on stderr."""
    cells = [
        cell for cell in (manifest or {}).get("cells", []) if cell.get("quarantined")
    ]
    print(
        f"optrr: error: {len(cells)} {label} cell(s) quarantined after "
        f"exhausting their attempts:",
        file=sys.stderr,
    )
    for cell in cells:
        coordinates = ", ".join(
            f"{key}={cell[key]}"
            for key in cell
            if key not in ("index", "quarantined", "attempts")
        )
        last = cell["attempts"][-1] if cell.get("attempts") else {}
        detail = last.get("error") or last.get("status") or "no result"
        print(
            f"optrr:   cell {cell['index']} ({coordinates}): {detail}",
            file=sys.stderr,
        )


def _validate_resilience_arguments(args: argparse.Namespace) -> str | None:
    """Shared validation of the resilience flag group (None when valid)."""
    if args.retries is not None and args.retries < 0:
        return "--retries must be >= 0"
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        return "--cell-timeout must be positive"
    return None


def _fail(message: str) -> int:
    """Report a usage error on stderr and return the usage-error exit code."""
    print(f"optrr: error: {message}", file=sys.stderr)
    return 2


def _resolve_distribution(name: str, n_categories: int | None) -> CategoricalDistribution:
    """Resolve a --distribution argument into a prior.

    Delegates to the shared resolver (:func:`repro.data.workload.
    resolve_workload_prior`): for ``adult:<attribute>`` the category count is
    a property of the data, and an explicit ``--categories`` that contradicts
    it raises :class:`DataError` instead of being silently ignored.
    """
    return resolve_workload_prior(name, n_categories, categories_label="--categories")


def _command_list() -> int:
    from repro.experiments.registry import available_experiments, get_experiment

    print("Available experiments:")
    for experiment_id in available_experiments():
        spec = get_experiment(experiment_id)
        print(f"  {experiment_id:8s}  {spec.paper_artifact:12s}  {spec.description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.analysis.plot import ascii_scatter
    from repro.experiments.runner import run_experiment

    overrides = {}
    if args.generations is not None:
        overrides["n_generations"] = args.generations
    if args.population is not None:
        overrides["population_size"] = args.population
    checkpoint_dir = args.checkpoint_dir or args.resume
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        return _fail("--checkpoint-every must be at least 1")
    if args.checkpoint_every is not None and checkpoint_dir is None:
        return _fail("--checkpoint-every needs --checkpoint-dir or --resume")
    if args.deadline is not None and args.deadline <= 0:
        return _fail("--deadline must be positive")
    try:
        if checkpoint_dir is not None or args.deadline is not None:
            # Every optimizer run inside the experiment claims a checkpoint
            # slot in the scope (auto-resuming from a previous partial run)
            # and shares the wall-clock deadline.
            with checkpoint_scope(
                checkpoint_dir,
                token=f"{args.experiment}-seed{args.seed}",
                every=args.checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
                deadline=args.deadline,
            ) as scope:
                result = run_experiment(args.experiment, seed=args.seed, **overrides)
            scope.clear()
        else:
            result = run_experiment(args.experiment, seed=args.seed, **overrides)
    except (ExperimentError, ValidationError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"checkpoint i/o failed: {exc}")
    print(result.summary_text())
    if args.plot and result.fronts:
        fronts = [front for front in result.fronts.values() if not front.is_empty]
        if fronts:
            print(ascii_scatter(fronts))
    return 0 if result.reproduced else 1


def _command_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import format_aggregate_table
    from repro.experiments.campaign import (
        DEFAULT_CAMPAIGN_RETRIES,
        CampaignCache,
        plan_campaign,
        run_campaign,
    )

    if args.seeds < 1:
        return _fail("--seeds must be at least 1")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    resilience_error = _validate_resilience_arguments(args)
    if resilience_error is not None:
        return _fail(resilience_error)
    overrides = {}
    if args.generations is not None:
        overrides["n_generations"] = args.generations
    if args.population is not None:
        overrides["population_size"] = args.population
    try:
        # A malformed REPRO_FAULTS plan fails here, not once in every cell.
        active_fault_plan()
        spec = plan_campaign(args.experiments, range(args.seeds), overrides or None)
    except (ExperimentError, ValidationError) as exc:
        return _fail(str(exc))
    # The plan is valid; now fail on bad destinations, still before the
    # (potentially long) grid runs.
    output_path = Path(args.output) if args.output is not None else None
    if output_path is not None:
        if not output_path.parent.is_dir():
            return _fail(f"--output directory {str(output_path.parent)!r} does not exist")
        if output_path.is_dir():
            return _fail(f"--output {args.output!r} is an existing directory")
    if args.cache_dir is not None:
        try:
            CampaignCache(args.cache_dir)
        except OSError as exc:
            return _fail(f"--cache-dir {args.cache_dir!r} is unusable: {exc}")
    try:
        result = run_campaign(
            spec,
            n_jobs=args.jobs,
            cache_dir=args.cache_dir,
            retries=(
                args.retries if args.retries is not None else DEFAULT_CAMPAIGN_RETRIES
            ),
            cell_timeout=args.cell_timeout,
            keep_going=args.keep_going,
        )
    except (ExperimentError, GridCellError) as exc:
        # With --no-keep-going a poison cell aborts the grid; surface it as
        # the documented exit-2 error line, not a traceback.
        return _fail(str(exc))
    print(
        f"campaign: {len(spec.experiments)} experiment(s) x {len(spec.seeds)} seed(s) "
        f"= {len(result.records)} run(s), {result.n_cache_hits} from cache, "
        f"{args.jobs} worker(s)"
    )
    print(format_aggregate_table(result.aggregates))
    if output_path is not None:
        try:
            output_path.write_text(result.aggregate_json() + "\n", encoding="utf-8")
        except OSError as exc:
            return _fail(f"could not write --output: {exc}")
        print(f"aggregate written to {args.output}")
    if result.failures:
        # Partial success: aggregates over the completed cells were printed
        # (and written) above; the quarantined cells make the run non-zero.
        _report_quarantined_cells(result.failure_manifest, "campaign")
        return 1
    return 0


def _command_optimize(args: argparse.Namespace) -> int:
    from repro.analysis.plot import ascii_scatter
    from repro.analysis.report import format_front_table

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        return _fail("--checkpoint-every must be at least 1")
    if args.checkpoint_every is not None and args.checkpoint is None and args.resume is None:
        return _fail("--checkpoint-every needs --checkpoint or --resume")
    if args.deadline is not None and args.deadline <= 0:
        return _fail("--deadline must be positive")
    output_path = Path(args.output) if args.output is not None else None
    if output_path is not None and not output_path.parent.is_dir():
        return _fail(f"--output directory {str(output_path.parent)!r} does not exist")
    try:
        if args.resume is not None:
            result = _resumed_optimization(args)
        else:
            result = _fresh_optimization(args)
    except (DataError, ValidationError, OptimizationError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"checkpoint i/o failed: {exc}")
    found = not result.front.is_empty
    if found:
        print(format_front_table(result.front, max_rows=30))
        if args.plot:
            print(ascii_scatter([result.front]))
        low, high = result.front.privacy_range
        print(f"privacy range: [{low:.4f}, {high:.4f}]  "
              f"({len(result)} Pareto points, {result.n_evaluations} evaluations)")
    else:
        print(f"no bound-feasible matrix found: the front is empty "
              f"({result.n_evaluations} evaluations)")
    if output_path is not None:
        from repro.io import save_result

        try:
            save_result(result, output_path)
        except OSError as exc:
            return _fail(f"could not write --output: {exc}")
        print(f"front written to {args.output}")
    return 0 if found else 1


def _fresh_optimization(args: argparse.Namespace):
    """Run `optrr optimize` from scratch (optionally writing checkpoints)."""
    prior = _resolve_distribution(args.distribution, args.categories)
    config = OptRRConfig(
        population_size=args.population,
        archive_size=args.population,
        n_generations=args.generations if args.generations is not None else 200,
        delta=args.delta,
        seed=args.seed,
    )
    return OptRROptimizer(prior, args.records, config).run(
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        deadline=args.deadline,
    )


def _resumed_optimization(args: argparse.Namespace):
    """Resume `optrr optimize` from a checkpoint file.

    The workload comes from the checkpoint itself; ``--generations`` (when
    given) replaces the generation budget, which reopens a run whose
    checkpoint was written after termination.  Further checkpoints keep
    going to the same file unless ``--checkpoint`` redirects them.
    """
    from repro.emoo.driver import checkpoint_generation
    from repro.io import load_checkpoint_with_fallback

    try:
        document, loaded_from = load_checkpoint_with_fallback(args.resume)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read --resume {args.resume!r}: {exc}") from exc
    if str(loaded_from) != str(args.resume):
        print(
            f"optrr: warning: newest checkpoint was corrupt; resuming from "
            f"rotation sibling {loaded_from}",
            file=sys.stderr,
        )
    if document.get("algorithm") != "optrr":
        raise ValidationError(
            f"--resume expects an optrr checkpoint, got algorithm "
            f"{document.get('algorithm')!r}"
        )
    optimizer = OptRROptimizer.from_checkpoint(document)
    if args.generations is not None:
        optimizer = OptRROptimizer(
            optimizer.prior,
            optimizer.n_records,
            optimizer.config.with_updates(n_generations=args.generations),
        )
    driver = optimizer.driver(
        checkpoint_path=args.checkpoint or args.resume,
        checkpoint_every=args.checkpoint_every,
        deadline=args.deadline,
    )
    # Reopen a post-termination checkpoint only while the (possibly
    # --generations-extended) generation budget is unexhausted: a run whose
    # --deadline fired first continues its remaining generations, while a
    # run that completed its budget replays its result — never overshooting
    # by an extra generation.
    try:
        reopen = (
            bool(document.get("stopped"))
            and checkpoint_generation(document) + 1 < optimizer.config.n_generations
        )
        driver.restore(document, reopen=reopen)
    except KeyError as exc:
        raise ValidationError(
            f"unusable checkpoint {args.resume!r}: missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"unusable checkpoint {args.resume!r}: {exc}") from exc
    return optimizer.run_driver(driver)


def _parse_miner_param_arguments(arguments: Sequence[str]) -> dict[str, dict[str, str]]:
    """Parse repeated ``--miner-param miner:key=value`` overrides."""
    options: dict[str, dict[str, str]] = {}
    for argument in arguments:
        head, separator, value = argument.partition("=")
        miner, colon, key = head.partition(":")
        if not separator or not colon or not miner or not key:
            raise ValidationError(
                f"--miner-param {argument!r} must have the form miner:key=value"
            )
        options.setdefault(miner, {})[key] = value
    return options


def _command_pipeline(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_pipeline_table

    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    resilience_error = _validate_resilience_arguments(args)
    if resilience_error is not None:
        return _fail(resilience_error)
    if args.schemes is None and args.front is None:
        return _fail("give --schemes, --front, or both")
    if args.front is None and args.front_schemes is not None:
        return _fail("--front-schemes only applies when --front is given")
    scheme_arguments: list = []
    if args.schemes is not None:
        scheme_arguments.extend(
            part.strip() for part in args.schemes.split(",") if part.strip()
        )
    if args.front is not None:
        from repro.io import load_result

        try:
            front_result = load_result(args.front)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read --front {args.front!r}: {exc}")
        try:
            scheme_arguments.extend(
                schemes_from_front(front_result, max_schemes=args.front_schemes)
            )
        except ValidationError as exc:
            return _fail(str(exc))
    miners = [part.strip() for part in args.miners.split(",") if part.strip()]
    try:
        active_fault_plan()
        seeds = parse_seed_argument(args.seeds)
        miner_options = _parse_miner_param_arguments(args.miner_param)
        spec = plan_pipeline(
            args.data,
            schemes=scheme_arguments,
            miners=miners,
            seeds=seeds,
            n_records=args.records,
            n_categories=args.categories,
            miner_options=miner_options,
        )
    except (DataError, ValidationError, EstimationError) as exc:
        return _fail(str(exc))
    # The plan is valid; now fail on bad destinations, still before the
    # (potentially long) grid runs.
    destinations = {}
    for option in ("output", "result"):
        raw = getattr(args, option)
        if raw is None:
            continue
        path = Path(raw)
        if not path.parent.is_dir():
            return _fail(f"--{option} directory {str(path.parent)!r} does not exist")
        if path.is_dir():
            return _fail(f"--{option} {raw!r} is an existing directory")
        destinations[option] = path
    if args.cache_dir is not None:
        try:
            PipelineCache(args.cache_dir)
        except OSError as exc:
            return _fail(f"--cache-dir {args.cache_dir!r} is unusable: {exc}")
    try:
        result = run_pipeline(
            spec,
            n_jobs=args.jobs,
            cache_dir=args.cache_dir,
            retries=(args.retries if args.retries is not None else 0),
            cell_timeout=args.cell_timeout,
            keep_going=args.keep_going,
        )
    except (ValidationError, DataError, EstimationError, GridCellError) as exc:
        # Cell-time failures (e.g. an estimation method the miner only
        # validates when it runs) surface as the documented exit-2 error
        # line, not a traceback — also when re-raised out of a worker pool,
        # and also when the cell died without an exception to re-raise (a
        # crash or timeout under --no-keep-going).
        return _fail(str(exc))
    print(
        f"pipeline: {len(spec.schemes)} scheme(s) x {len(spec.seeds)} seed(s) x "
        f"{len(spec.miners)} miner(s) = {len(result.cells)} cell(s), "
        f"{result.n_cache_hits} from cache, {args.jobs} worker(s)"
    )
    aggregate_document = result.aggregate_document()
    print(format_pipeline_table(aggregate_document))
    try:
        if "output" in destinations:
            destinations["output"].write_text(
                dump_canonical_json(aggregate_document) + "\n", encoding="utf-8"
            )
            print(f"aggregate written to {args.output}")
        if "result" in destinations:
            destinations["result"].write_text(
                dump_canonical_json(result.result_document()) + "\n", encoding="utf-8"
            )
            print(f"result table written to {args.result}")
    except OSError as exc:
        return _fail(f"could not write output document: {exc}")
    if result.failures:
        # Partial success: completed cells were reported (and written)
        # above; the quarantined cells make the run non-zero.
        _report_quarantined_cells(result.failure_manifest, "pipeline")
        return 1
    return 0


def _resolve_disguise_matrix(args: argparse.Namespace):
    """Resolve the ``optrr disguise`` matrix source into ``(name, matrix)``.

    Exactly one of ``--matrix`` (scheme string or rr_matrix file) and
    ``--front`` must be given; an explicit ``--categories`` that contradicts
    the resolved matrix is rejected instead of silently ignored.
    """
    if (args.matrix is None) == (args.front is None):
        raise ValidationError("give exactly one of --matrix or --front")
    if args.matrix is not None:
        path = Path(args.matrix)
        if path.exists():
            from repro.io import load_matrix

            try:
                matrix = load_matrix(path)
            except (OSError, ValueError) as exc:
                raise ValidationError(
                    f"cannot read --matrix {args.matrix!r}: {exc}"
                ) from exc
            name = f"file:{args.matrix}"
        else:
            if args.categories is None:
                raise ValidationError(
                    f"--matrix {args.matrix!r} is not a file; a "
                    f"family:parameter scheme needs --categories"
                )
            name, matrix = args.matrix, scheme_matrix(args.matrix, args.categories)
    else:
        from repro.io import load_result

        try:
            result = load_result(args.front)
        except (OSError, ValueError) as exc:
            raise ValidationError(
                f"cannot read --front {args.front!r}: {exc}"
            ) from exc
        schemes = schemes_from_front(result)
        if not 0 <= args.front_index < len(schemes):
            raise ValidationError(
                f"--front-index {args.front_index} out of range; the front "
                f"has {len(schemes)} point(s)"
            )
        scheme = schemes[args.front_index]
        name, matrix = scheme.name, scheme.matrix
    if args.categories is not None and args.categories != matrix.n_categories:
        raise ValidationError(
            f"--categories {args.categories} contradicts the resolved "
            f"{matrix.n_categories}x{matrix.n_categories} matrix"
        )
    return name, matrix


def _command_disguise(args: argparse.Namespace) -> int:
    if args.chunk_size < 1:
        return _fail("--chunk-size must be at least 1")
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    try:
        name, matrix = _resolve_disguise_matrix(args)
    except (ValidationError, DataError, EstimationError) as exc:
        return _fail(str(exc))
    report_path = Path(args.report) if args.report is not None else None
    output_path = Path(args.output) if args.output is not None else None
    for option, path in (("report", report_path), ("output", output_path)):
        if path is not None and not path.parent.is_dir():
            return _fail(f"--{option} directory {str(path.parent)!r} does not exist")
    disguiser = StreamingDisguiser(matrix, seed=args.seed)
    estimator = OnlineEstimator(matrix, method=args.estimator)
    estimate = None
    # Codes go to stdout by default, so the human summary moves to stderr
    # there — `optrr disguise < in > out` stays a clean code stream.
    summary_stream = sys.stdout if output_path is not None else sys.stderr
    try:
        if args.input == "-":
            input_stream = sys.stdin.buffer
            close_input = False
        else:
            input_stream = open(args.input, "rb")
            close_input = True
    except OSError as exc:
        return _fail(f"cannot read input {args.input!r}: {exc}")
    try:
        output_stream = (
            open(output_path, "wb") if output_path is not None else sys.stdout.buffer
        )
    except OSError as exc:
        if close_input:
            input_stream.close()
        return _fail(f"could not open --output: {exc}")
    writer = CodeLineWriter(output_stream, matrix.n_categories)
    try:
        for chunk in read_code_chunks(input_stream, args.chunk_size):
            disguised = disguiser.disguise_chunk(chunk)
            estimate = estimator.update(disguised)
            writer.write(disguised)
    except (DataError, ValidationError, EstimationError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"i/o failed: {exc}")
    finally:
        if close_input:
            input_stream.close()
        if output_path is not None:
            output_stream.close()
    if estimate is None:
        return _fail("no input codes")
    n_chunks = len(estimator.diagnostics)
    print(
        f"disguise: {disguiser.records_seen} record(s) in {n_chunks} chunk(s), "
        f"matrix {name} ({matrix.n_categories} categories), seed {args.seed}",
        file=summary_stream,
    )
    probabilities = " ".join(f"{value:.4f}" for value in estimate.probabilities)
    convergence = (
        f", {estimate.n_iterations} iteration(s), "
        f"converged={estimate.converged}"
        if args.estimator == "iterative"
        else ""
    )
    print(
        f"estimate ({args.estimator}): [{probabilities}]{convergence}",
        file=summary_stream,
    )
    if report_path is not None:
        document = {
            "type": "disguise_report",
            "format_version": 1,
            "matrix": {
                "name": name,
                "n_categories": matrix.n_categories,
                "digest": matrix_digest(matrix),
            },
            "seed": int(args.seed),
            "chunk_size": int(args.chunk_size),
            "estimator": args.estimator,
            "n_records": disguiser.records_seen,
            "disguised_counts": [int(count) for count in estimator.counts],
            "estimate": {
                "probabilities": [float(v) for v in estimate.probabilities],
                "raw_probabilities": [float(v) for v in estimate.raw_probabilities],
                "n_iterations": int(estimate.n_iterations),
                "converged": bool(estimate.converged),
            },
            "chunks": list(estimator.diagnostics),
        }
        try:
            report_path.write_text(
                dump_canonical_json(document) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            return _fail(f"could not write --report: {exc}")
        print(f"report written to {args.report}", file=summary_stream)
    return 0


def _command_compare_schemes(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_front_table

    try:
        prior = _resolve_distribution(args.distribution, args.categories)
        evaluator = MatrixEvaluator(prior, args.records, args.delta)
        families = {name: scheme_family(name, prior.n_categories) for name in family_names()}
    except ValidationError as exc:
        return _fail(str(exc))
    for name, family in families.items():
        front = ParetoFront.from_matrices(name, family.matrices(201), evaluator)
        print(format_front_table(front, max_rows=10))
        print()
    return 0


def _command_search_space(args: argparse.Namespace) -> int:
    from repro.core.search_space import log10_rr_matrix_combinations

    try:
        log10_count = log10_rr_matrix_combinations(args.categories, args.grid)
    except ValidationError as exc:
        return _fail(str(exc))
    print(
        f"discretised RR matrices for n={args.categories}, d={args.grid}: "
        f"about 10^{log10_count:.2f}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    try:
        code = _dispatch(argv)
        # Flush here so a closed stdout surfaces below, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`optrr list | head -2`): stop
        # without a traceback.  Point stdout at /dev/null so the
        # interpreter's final flush of the buffered rest cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "campaign":
        return _command_campaign(args)
    if args.command == "optimize":
        return _command_optimize(args)
    if args.command == "pipeline":
        return _command_pipeline(args)
    if args.command == "disguise":
        return _command_disguise(args)
    if args.command == "compare-schemes":
        return _command_compare_schemes(args)
    if args.command == "search-space":
        return _command_search_space(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
