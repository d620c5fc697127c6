"""Step-based optimization driving with checkpoint/resume.

An optimizer that owns a monolithic ``run()`` loop loses all work when its
process is killed, and its only practical stopping rule is a fixed
generation budget.  This module factors the loop out once, for
:class:`~repro.core.optimizer.OptRROptimizer` (the package's one optimizer)
and the NSGA-II ablation baseline in ``benchmarks/baselines``:

* An algorithm implements :class:`SteppableOptimization` — set up its state,
  advance one generation, produce the final result, and (de)serialize its
  state as a JSON-compatible document.
* :class:`OptimizationDriver` owns everything around the algorithm: the RNG,
  the generation counter, cumulative wall time, the :class:`StoppingRule`
  with its one piece of state (generations since Ω last changed), and the
  checkpoint cadence.  :meth:`OptimizationDriver.steps` is a generator
  yielding one :class:`GenerationSnapshot` per generation; ``run()`` methods
  on the optimizers are thin wrappers over it.

Checkpoints are versioned ``checkpoint`` io documents (:mod:`repro.io`)
holding the complete run state: population/archive arrays (bit-exact, see
:mod:`repro.utils.arrays`), the optimal-set state, the stagnation counter,
and the NumPy bit-generator state.  The hard invariant: a run
killed after any generation ``k`` and resumed from its checkpoint retraces
the uninterrupted run bit for bit — same front, same Ω spectrum, same
matrices, same RNG stream.

For grid-shaped workloads (campaigns, :mod:`repro.experiments.grid`), the
ambient :func:`checkpoint_scope` gives every optimizer run inside a grid
cell an automatically claimed checkpoint file, resumed transparently when
the cell re-runs after an interruption.

This module lives in the ``emoo`` layer, below ``repro.core``, because it
knows nothing of RR matrices: any :class:`SteppableOptimization` runs on it,
including the NSGA-II baseline outside the package.  It is the only place an
optimizer run reads the wall clock.
"""

from __future__ import annotations

import hashlib
import json
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator

import numpy as np

from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ReproError, ValidationError
from repro.types import SeedLike, as_rng, restore_rng_state, rng_state_document
from repro.utils.arrays import decode_array, encode_array
from repro.utils.logging import get_logger
from repro.utils.validation import check_counter, check_positive_int

logger = get_logger(__name__)

#: Version of the ``checkpoint`` document layout (bumped independently of the
#: io-wide ``format_version`` when the state payload changes shape).
CHECKPOINT_VERSION = 3

#: Default checkpoint cadence (generations between checkpoint writes).  At 50
#: the measured end-to-end overhead stays under 5% even with a well-filled Ω
#: (see ``benchmarks/bench_checkpoint.py``).
DEFAULT_CHECKPOINT_EVERY = 50


@dataclass(frozen=True)
class StoppingRule:
    """When a driven run stops (Section V-I), checked after every generation.

    The run stops once ``max_generations`` generations completed, once
    ``patience`` (when set) consecutive generations made no update to the
    algorithm's long-term store (Ω for OptRR), or once the wall time of the
    current run segment reaches ``deadline`` seconds (when set) — measured
    from the start of this invocation, so a resumed run's deadline budgets
    only its new work.

    A deadline is inherently wall-clock-dependent: two runs with the same
    seed may stop at different generations.  The bit-for-bit resume
    guarantee therefore applies to *state*, not to where a deadline fires.
    """

    max_generations: int
    patience: int | None = None
    deadline: float | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.max_generations, "max_generations")
        if self.patience is not None:
            check_positive_int(self.patience, "patience")
        if self.deadline is not None and not (
            np.isfinite(self.deadline) and self.deadline > 0
        ):
            raise OptimizationError(f"deadline seconds must be positive, got {self.deadline}")


@dataclass(frozen=True)
class StepOutcome:
    """What one generation produced, as reported by the algorithm.

    Attributes
    ----------
    archive_updates:
        Number of improvements to the algorithm's long-term store during this
        generation (the Ω update count for OptRR; algorithms without such a
        store report 1 so update-based stagnation never fires spuriously).
    n_evaluations:
        Cumulative objective evaluations since the start of the run
        (including any resumed-from segments).
    """

    archive_updates: int
    n_evaluations: int


@dataclass(frozen=True)
class GenerationSnapshot:
    """Per-generation state yielded by :meth:`OptimizationDriver.steps`.

    Attributes
    ----------
    generation:
        Zero-based index of the generation that just completed.
    archive_updates:
        See :attr:`StepOutcome.archive_updates`.
    n_evaluations:
        Cumulative objective evaluations so far.
    elapsed_seconds:
        Cumulative wall time of the run, including segments before a
        checkpoint/resume cycle.
    stopped:
        Whether the stopping rule fired after this generation (this is the
        last snapshot of the run when True).
    """

    generation: int
    archive_updates: int
    n_evaluations: int
    elapsed_seconds: float
    stopped: bool


class SteppableOptimization(ABC):
    """One optimization algorithm, decomposed for the stepwise driver."""

    #: Identifier stored in checkpoints; a checkpoint only restores into a
    #: driver wrapping the same algorithm.
    algorithm_name: ClassVar[str] = "steppable"

    @abstractmethod
    def setup(self, rng: np.random.Generator) -> None:
        """Create the initial state (populations, archives, counters)."""

    @abstractmethod
    def step(self, rng: np.random.Generator, generation: int) -> StepOutcome:
        """Advance the state by one generation."""

    @abstractmethod
    def finish(self, generation: int) -> Any:
        """Produce the final result after the last completed ``generation``."""

    @abstractmethod
    def state_document(self) -> dict[str, Any]:
        """JSON-compatible snapshot of the complete algorithm state."""

    @abstractmethod
    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_document`."""

    def setup_fingerprint(self) -> str:
        """Hash identifying the workload (not the stopping rule or seed).

        A checkpoint restores only into an algorithm with the same
        fingerprint, so a resumed run can never silently continue a
        different problem.  An empty string disables the check.
        """
        return ""


class OptimizationDriver:
    """Drives a :class:`SteppableOptimization` generation by generation.

    Parameters
    ----------
    optimization:
        The algorithm to drive.
    rule:
        When to stop; checked after every generation.
    rng:
        Seed or generator for the whole run.  On resume, the generator's
        bit-generator state is overwritten with the checkpointed state.
    checkpoint_path:
        File the driver writes ``checkpoint`` documents to (atomically, via
        a temporary file).  ``None`` disables checkpointing.
    checkpoint_every:
        Write a checkpoint every this many generations (the final generation
        is always checkpointed when a path is configured).
    """

    def __init__(
        self,
        optimization: SteppableOptimization,
        *,
        rule: StoppingRule,
        rng: SeedLike = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if checkpoint_every < 1:
            raise OptimizationError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        self.optimization = optimization
        self.rule = rule
        self.rng = as_rng(rng)
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.checkpoint_every = int(checkpoint_every)
        self.generation = 0
        self._started = False
        self._finished = False
        self._elapsed = 0.0
        # Where the current segment started (non-zero after a resume): the
        # deadline always budgets this invocation's new work.
        self._elapsed_anchor = 0.0
        #: Consecutive generations without an update to the algorithm's
        #: long-term store (the stopping rule's patience counter).
        self.stale = 0

    # -- checkpointing --------------------------------------------------------
    @property
    def elapsed_seconds(self) -> float:
        """Cumulative wall time, including resumed-from segments."""
        return self._elapsed

    def checkpoint_document(self, *, stopped: bool = False) -> dict[str, Any]:
        """The complete run state as a versioned ``checkpoint`` document."""
        from repro.io import FORMAT_VERSION

        return {
            "format_version": FORMAT_VERSION,
            "type": "checkpoint",
            "checkpoint_version": CHECKPOINT_VERSION,
            "algorithm": self.optimization.algorithm_name,
            "fingerprint": self.optimization.setup_fingerprint(),
            "generation": self.generation,
            "stopped": bool(stopped),
            "elapsed_seconds": float(self._elapsed),
            "rng_state": rng_state_document(self.rng),
            "termination": {"stale": self.stale},
            "state": self.optimization.state_document(),
        }

    def save_checkpoint(self, path: str | Path | None = None, *, stopped: bool = False) -> Path:
        """Write the current state to ``path`` (default: the configured
        checkpoint path) and return the written path."""
        from repro.io import save_checkpoint

        destination = Path(path) if path is not None else self.checkpoint_path
        if destination is None:
            raise OptimizationError("no checkpoint path configured")
        return save_checkpoint(self.checkpoint_document(stopped=stopped), destination)

    def restore(self, document: dict[str, Any], *, reopen: bool = False) -> None:
        """Restore a checkpoint into this (not-yet-started) driver.

        ``reopen`` controls what happens when the checkpoint was written
        *after* the stopping rule fired: by default the driver comes
        back already finished (``steps()`` yields nothing and ``result()`` is
        immediately available, reproducing the original run's result without
        recomputation); with ``reopen=True`` the run continues — used when
        the caller extended the budget, e.g. ``--resume`` with a larger
        ``--generations``.

        Validation failures (wrong document type, another algorithm, another
        workload fingerprint or none, a malformed ``generation`` or
        stagnation counter) raise before any state is touched.  Payload
        errors raised later may leave algorithm state partially written, but
        always *before* the RNG is overwritten — and a subsequent fresh start
        runs ``setup()``, which rebuilds it completely, so a caught restore
        failure still yields an exact seed-deterministic fresh run.
        """
        if self._started:
            raise OptimizationError("cannot restore into a driver that already started")
        if document.get("type") != "checkpoint":
            raise ValidationError(
                f"expected a 'checkpoint' document, got {document.get('type')!r}"
            )
        check_checkpoint_version(document)
        algorithm = document.get("algorithm")
        if algorithm != self.optimization.algorithm_name:
            raise ValidationError(
                f"checkpoint was written by algorithm {algorithm!r}, this driver runs "
                f"{self.optimization.algorithm_name!r}"
            )
        fingerprint = self.optimization.setup_fingerprint()
        if fingerprint:
            stored = document.get("fingerprint")
            if not isinstance(stored, str) or not stored:
                raise ValidationError(
                    f"checkpoint field 'fingerprint' must be a non-empty string, got {stored!r}"
                )
            if stored != fingerprint:
                raise ValidationError(
                    "checkpoint fingerprint does not match this optimizer's workload "
                    "(different prior, bound, or hyper-parameters)"
                )
        # Mutation order matters for the catch-and-start-fresh fallback in
        # the optimizers' driver() wrappers: everything that can raise runs
        # before the RNG is overwritten, so any payload error leaves it
        # pristine for a seed-exact fresh start.
        completed = checkpoint_generation(document)
        termination = document.get("termination")
        stale = check_counter(
            termination.get("stale") if isinstance(termination, dict) else termination,
            "checkpoint field 'termination.stale'",
            at_most=completed + 1,
        )
        stopped = document.get("stopped", False)
        if not isinstance(stopped, bool):
            raise ValidationError(
                f"checkpoint field 'stopped' must be a bool, got {stopped!r}"
            )
        # The elapsed time anchors the deadline: NaN, negative or infinite
        # values would skew it.
        elapsed = document.get("elapsed_seconds", 0.0)
        if (
            not isinstance(elapsed, (int, float))
            or isinstance(elapsed, bool)
            or not 0.0 <= elapsed < float("inf")
        ):
            raise ValidationError(
                f"checkpoint field 'elapsed_seconds' must be a finite "
                f"non-negative number, got {elapsed!r}"
            )
        elapsed = float(elapsed)
        self.optimization.restore_state(document["state"])
        restore_rng_state(self.rng, document["rng_state"])
        self.stale = stale
        self._elapsed = elapsed
        self._elapsed_anchor = elapsed
        if stopped and not reopen:
            self.generation = completed
            self._finished = True
        else:
            self.generation = completed + 1
        self._started = True

    # -- driving --------------------------------------------------------------
    def steps(self) -> Iterator[GenerationSnapshot]:
        """Yield one :class:`GenerationSnapshot` per generation until the
        stopping rule fires.

        Checkpoints (when configured) are written between generations —
        after the generation's outcome updated the stagnation counter, so it
        resumes exactly.  A driver restored from a post-termination
        checkpoint yields nothing.
        """
        if self._finished:
            return
        if not self._started:
            self.optimization.setup(self.rng)
            self._started = True
        rule = self.rule
        mark = time.perf_counter()
        while True:
            outcome = self.optimization.step(self.rng, self.generation)
            mark = self._accumulate(mark)
            self.stale = 0 if outcome.archive_updates > 0 else self.stale + 1
            stop = (
                self.generation + 1 >= rule.max_generations
                or (rule.patience is not None and self.stale >= rule.patience)
                or (
                    rule.deadline is not None
                    and self._elapsed - self._elapsed_anchor >= rule.deadline
                )
            )
            if self.checkpoint_path is not None and (
                stop or (self.generation + 1) % self.checkpoint_every == 0
            ):
                mark = self._accumulate(mark)
                self.save_checkpoint(stopped=stop)
            yield GenerationSnapshot(
                generation=self.generation,
                archive_updates=outcome.archive_updates,
                n_evaluations=outcome.n_evaluations,
                elapsed_seconds=self._elapsed,
                stopped=stop,
            )
            mark = self._accumulate(mark)
            if stop:
                self._finished = True
                return
            self.generation += 1

    def run(
        self, on_snapshot: Callable[[GenerationSnapshot], None] | None = None
    ) -> Any:
        """Drive the run to termination and return the algorithm's result."""
        for snapshot in self.steps():
            if on_snapshot is not None:
                on_snapshot(snapshot)
        return self.result()

    def result(self) -> Any:
        """The final result; only available once the run has terminated."""
        if not self._finished:
            raise OptimizationError(
                "the run has not terminated yet; exhaust steps() or call run()"
            )
        return self.optimization.finish(self.generation)

    @property
    def finished(self) -> bool:
        """Whether the stopping rule has fired."""
        return self._finished

    # -- internals ------------------------------------------------------------
    def _accumulate(self, mark: float) -> float:
        now = time.perf_counter()
        self._elapsed += now - mark
        return now


# -- population serialization --------------------------------------------------
def population_to_document(population: Population) -> dict[str, Any]:
    """Serialize a :class:`~repro.emoo.population.Population` bit-exactly:
    every column is stored as base64 byte arrays."""
    return {
        "layout": "arrays",
        "genomes": encode_array(population.genomes),
        "objectives": encode_array(population.objectives),
        "feasible": encode_array(population.feasible),
        "metadata": {
            key: encode_array(column) for key, column in population.metadata.items()
        },
        "fitness": encode_array(population.fitness),
        "fitness_generation": population.fitness_generation,
    }


def population_from_document(document: dict[str, Any]) -> Population:
    """Rebuild a population from :func:`population_to_document` output.

    Any other layout (such as the per-individual one written before every
    engine worked on genome stacks), or a document or ``metadata`` that is
    not an object, raises :class:`~repro.exceptions.ValidationError`.
    """
    if not isinstance(document, dict):
        raise ValidationError(f"a population must be an object, got {document!r:.40}")
    layout = document.get("layout")
    if layout != "arrays":
        raise ValidationError(f"unknown population layout {layout!r}")
    metadata = document.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError(f"population metadata must be an object, got {metadata!r:.40}")
    return Population(
        genomes=decode_array(document["genomes"]),
        objectives=decode_array(document["objectives"]),
        feasible=decode_array(document["feasible"]),
        metadata={key: decode_array(column) for key, column in metadata.items()},
        fitness=decode_array(document["fitness"]),
        fitness_generation=int(document.get("fitness_generation", -1)),
    )


def check_checkpoint_version(document: dict[str, Any]) -> None:
    """Reject a checkpoint whose state layout is not
    :data:`CHECKPOINT_VERSION` (:class:`~repro.exceptions.ValidationError`)."""
    version = document.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported checkpoint version {version!r} (supported: {CHECKPOINT_VERSION})"
        )


def checkpoint_generation(document: dict[str, Any]) -> int:
    """The last completed generation a checkpoint records, which must be a
    non-negative integer (:class:`~repro.exceptions.ValidationError` names
    the field otherwise)."""
    value = document.get("generation")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(
            f"checkpoint field 'generation' must be a non-negative integer, got {value!r}"
        )
    return value


def workload_fingerprint(payload: dict[str, Any]) -> str:
    """SHA-256 over a canonical-JSON payload (the fingerprint helper the
    algorithm adapters use)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


# -- ambient checkpoint scope --------------------------------------------------
@dataclass
class CheckpointScope:
    """Ambient checkpoint policy for optimizer runs inside a grid cell.

    Each optimizer run started while a scope is active claims the next
    ``<token>-<index>.json`` file in ``directory`` (runs inside a cell are
    sequential, so the claim order is deterministic) and auto-resumes from
    it when it already holds a matching checkpoint.  ``deadline_at`` is an
    absolute :func:`time.monotonic` target shared by every run in the scope:
    each claim converts it into the *remaining* wall-clock budget.
    """

    directory: Path | None
    every: int = DEFAULT_CHECKPOINT_EVERY
    token: str = "run"
    deadline_at: float | None = None
    _counter: int = field(default=0, repr=False)

    def claim(self) -> tuple[Path | None, int, float | None]:
        """Claim the next checkpoint slot: (path, cadence, remaining deadline)."""
        path = None
        if self.directory is not None:
            path = self.directory / f"{self.token}-{self._counter}.json"
            self._counter += 1
        remaining = None
        if self.deadline_at is not None:
            remaining = max(self.deadline_at - time.monotonic(), 1e-3)
        return path, self.every, remaining

    def clear(self) -> None:
        """Delete this scope's checkpoint files (call after the cell's work
        completed and its final result is safely stored).

        The glob also sweeps the ``.prev`` rotation siblings and ``.corrupt``
        quarantine files that :mod:`repro.io` leaves next to each
        checkpoint.
        """
        if self.directory is None or not self.directory.is_dir():
            return
        for path in self.directory.glob(f"{self.token}-*.json*"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - cleanup is best effort
                pass


_ACTIVE_SCOPE: CheckpointScope | None = None


@contextmanager
def checkpoint_scope(
    directory: str | Path | None,
    *,
    every: int = DEFAULT_CHECKPOINT_EVERY,
    token: str = "run",
    deadline: float | None = None,
):
    """Activate a :class:`CheckpointScope` for the duration of the block.

    ``directory`` may be None to activate a deadline-only scope (no
    checkpoint files).  Scopes nest; the innermost one wins.
    """
    global _ACTIVE_SCOPE
    if every < 1:
        raise OptimizationError(f"checkpoint cadence must be at least 1, got {every}")
    resolved = Path(directory) if directory is not None else None
    if resolved is not None:
        resolved.mkdir(parents=True, exist_ok=True)
    scope = CheckpointScope(
        directory=resolved,
        every=int(every),
        token=token,
        deadline_at=(time.monotonic() + deadline) if deadline is not None else None,
    )
    previous = _ACTIVE_SCOPE
    _ACTIVE_SCOPE = scope
    try:
        yield scope
    finally:
        _ACTIVE_SCOPE = previous


def claim_scoped_checkpoint() -> tuple[Path | None, int, float | None, dict[str, Any] | None]:
    """Claim checkpointing parameters from the ambient scope.

    Returns ``(path, cadence, remaining_deadline, resume_document)``; all
    None/default when no scope is active.  When the claimed file (or its
    ``.prev`` rotation sibling) already holds a valid checkpoint it is
    returned for auto-resume; a torn newest checkpoint is quarantined by
    :func:`repro.io.load_checkpoint_with_fallback` and resume falls back to
    the previous one.  With no valid candidate at all, or a decodable file
    whose envelope is not a checkpoint's, the run starts fresh and
    overwrites.
    """
    scope = _ACTIVE_SCOPE
    if scope is None:
        return None, DEFAULT_CHECKPOINT_EVERY, None, None
    path, every, remaining = scope.claim()
    resume_document = None
    if path is not None:
        from repro.io import load_checkpoint_with_fallback

        try:
            resume_document, _ = load_checkpoint_with_fallback(path)
        except FileNotFoundError:
            pass
        except (OSError, ReproError, ValueError) as exc:
            logger.warning("ignoring unreadable checkpoint %s: %s", path, exc)
    return path, every, remaining, resume_document


def build_driver(
    optimization: SteppableOptimization,
    *,
    max_generations: int,
    patience: int | None = None,
    rng: SeedLike = None,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int | None = None,
    deadline: float | None = None,
) -> OptimizationDriver:
    """The shared driver-construction policy behind every optimizer's
    ``driver()`` method.

    When no explicit ``checkpoint_path`` is given, claims one from the
    ambient :func:`checkpoint_scope` (inheriting the scope's cadence and
    remaining wall-clock budget) and auto-resumes from a matching previous
    checkpoint; the rule's deadline is the tighter of an explicit
    ``deadline`` and that remaining budget (both count from this segment's
    start).  A scoped checkpoint that does not match this optimization
    (another algorithm or workload, an unreadable payload) is logged and
    ignored — the run starts fresh and overwrites it.
    """
    resume_document = None
    if checkpoint_path is None:
        checkpoint_path, scoped_every, remaining, resume_document = claim_scoped_checkpoint()
        if checkpoint_every is None:
            checkpoint_every = scoped_every
        if remaining is not None:
            deadline = remaining if deadline is None else min(deadline, remaining)
    driver = OptimizationDriver(
        optimization,
        rule=StoppingRule(max_generations, patience, deadline),
        rng=rng,
        checkpoint_path=checkpoint_path,
        checkpoint_every=(
            checkpoint_every if checkpoint_every is not None else DEFAULT_CHECKPOINT_EVERY
        ),
    )
    if resume_document is not None:
        try:
            driver.restore(resume_document)
            logger.info(
                "resumed %s run from checkpoint %s (generation %d)",
                optimization.algorithm_name,
                checkpoint_path,
                driver.generation,
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            logger.warning("ignoring mismatched checkpoint %s: %s", checkpoint_path, exc)
    return driver
