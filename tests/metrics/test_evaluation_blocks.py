"""Row-blocked batch evaluation: shard invariance and the thread pool.

:func:`repro.metrics.evaluation.evaluate_stack` cuts a large batch into
contiguous row blocks and may evaluate them on a thread pool.  Every matrix
is scored on its own, so any contiguous partition — one row per block up to
the whole batch, on one thread or several — must give the one-block columns
bit for bit.  The stacks mix in the rows that take the special paths:
exactly singular members (their block's one-call inversion raises and the
block is screened), matrices in the 1e12 condition-limit band and zero-prior
categories.

The pool is process-wide and created on the first split batch, so it must
survive ``fork`` (a child gets none of the parent's threads) and must not be
loaded at all by the commands that never split a batch.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.metrics.evaluation as evaluation
from repro.experiments.grid import _run_cell_on_one_thread
from repro.metrics.evaluation import MatrixEvaluator, evaluate_stack

SRC = Path(__file__).resolve().parents[2] / "src"

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

seeds = st.integers(0, 2**32 - 1)


def _stochastic_stack(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    return np.ascontiguousarray(rng.dirichlet(np.ones(n), size=(batch, n)).transpose(0, 2, 1))


def _near_singular(t: float) -> np.ndarray:
    """Column-stochastic 3x3 whose second column is a ``t``-blend away from
    the first; blends near 1e-12 straddle the condition limit."""
    base = np.array([0.5, 0.3, 0.2])
    other = np.array([0.2, 0.5, 0.3])
    matrix = np.column_stack([base, (1 - t) * base + t * other, [0.1, 0.1, 0.8]])
    return matrix / matrix.sum(axis=0)


@st.composite
def hostile_batches(draw) -> tuple[np.ndarray, np.ndarray]:
    """A ``(B, n, n)`` stack and prior with singular rows, 1e12-band rows and
    (sometimes) zero-prior categories at drawn positions."""
    rng = np.random.default_rng(draw(seeds))
    band = draw(st.booleans())
    n = 3 if band else draw(st.integers(2, 6))
    batch = draw(st.integers(1, 24))
    stack = _stochastic_stack(rng, batch, n)
    rows = st.integers(0, batch - 1)
    for row in draw(st.lists(rows, max_size=3)):
        stack[row] = 1.0 / n
    for row in draw(st.lists(rows, max_size=2)):
        stack[row][:, n - 1] = stack[row][:, 0]
    if band:
        for row in draw(st.lists(rows, max_size=8)):
            stack[row] = _near_singular(float(10.0 ** rng.uniform(-13, -10)))
    prior = rng.dirichlet(np.ones(n) * 2.0)
    zeros = draw(st.integers(0, n - 2))
    if zeros:
        prior[:zeros] = 0.0
        prior /= prior.sum()
    return stack, prior


def _cuts(batch: int):
    """Sorted interior cut points of a contiguous row partition."""
    if batch == 1:
        return st.just([])
    return st.lists(st.integers(1, batch - 1), unique=True).map(sorted)


def _assert_columns_identical(actual, expected) -> None:
    assert len(actual) == len(expected)
    for actual_column, expected_column in zip(actual, expected):
        assert actual_column.dtype == expected_column.dtype
        assert actual_column.shape == expected_column.shape
        assert actual_column.tobytes() == expected_column.tobytes()


@contextmanager
def split_evaluation(rows: int | None, threads: int):
    """Evaluate with ``rows``-row blocks (``None``: whole batch as one block)
    on ``threads`` threads and a fresh pool, shut down afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "BLOCK_WORK", 1 << 62 if rows is None else rows)
        patch.setattr(evaluation, "_threads", threads)
        patch.setattr(evaluation, "_pool", None)
        try:
            yield
        finally:
            if evaluation._pool is not None:
                evaluation._pool.shutdown()


class TestShardInvariance:
    @SETTINGS
    @given(data=st.data(), batch_and_prior=hostile_batches())
    def test_any_contiguous_partition_matches_one_block(self, data, batch_and_prior):
        stack, prior = batch_and_prior
        cuts = data.draw(_cuts(stack.shape[0]))
        blocks = [
            evaluation._evaluate_block(np.ascontiguousarray(block), prior, 10_000)
            for block in np.split(stack, cuts)
        ]
        sharded = tuple(np.concatenate(column) for column in zip(*blocks))
        _assert_columns_identical(sharded, evaluation._evaluate_block(stack, prior, 10_000))

    @SETTINGS
    @given(
        batch_and_prior=hostile_batches(),
        rows=st.integers(1, 24),
        threads=st.sampled_from([1, 2, 3]),
    )
    def test_blocked_evaluation_matches_one_block(self, batch_and_prior, rows, threads):
        stack, prior = batch_and_prior
        with split_evaluation(None, 1):
            expected = evaluate_stack(stack, prior, 10_000)
        with split_evaluation(rows * stack.shape[-1] ** 3, threads):
            actual = evaluate_stack(stack, prior, 10_000)
        _assert_columns_identical(actual, expected)

    @SETTINGS
    @given(batch_and_prior=hostile_batches(), rows=st.integers(1, 8))
    def test_evaluator_columns_match_one_block(self, batch_and_prior, rows):
        stack, prior = batch_and_prior
        evaluator = MatrixEvaluator(prior, 10_000, delta=0.9 if prior.max() <= 0.9 else None)
        with split_evaluation(None, 1):
            expected = evaluator.evaluate_batch(stack)
        with split_evaluation(rows * stack.shape[-1] ** 3, 2):
            actual = evaluator.evaluate_batch(stack)
        for name in ("privacy", "utility", "max_posterior", "feasible", "invertible"):
            assert getattr(actual, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_a_singular_row_screens_only_its_own_block(self):
        rng = np.random.default_rng(11)
        stack = _stochastic_stack(rng, 8, 4)
        stack[5] = 0.25
        prior = rng.dirichlet(np.ones(4))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(stack[4:])
        np.linalg.inv(stack[:4])
        with split_evaluation(None, 1):
            expected = evaluate_stack(stack, prior, 10_000)
        with split_evaluation(4 * 4**3, 2):
            actual = evaluate_stack(stack, prior, 10_000)
        _assert_columns_identical(actual, expected)
        assert not actual[3][5] and actual[3][[0, 1, 2, 3, 4, 6, 7]].all()

    def test_pool_threads_evaluate_under_the_callers_error_state(self, monkeypatch):
        seen = []

        def record(block, prior, n_records):
            seen.append(np.geterr())
            column = np.zeros(block.shape[0])
            return column, column, column, column.astype(bool)

        monkeypatch.setattr(evaluation, "_evaluate_block", record)
        stack = np.full((6, 2, 2), 0.5)
        with split_evaluation(2 * 2**3, 2), np.errstate(over="raise", under="warn"):
            caller = np.geterr()
            evaluate_stack(stack, np.array([0.5, 0.5]), 100)
        assert len(seen) == 4 and all(state == caller for state in seen)

    def test_the_optimizer_batches_of_small_domains_are_one_block(self):
        # The 1 001-point Warner sweep at n = 16 is the largest batch a
        # small-domain run makes; it must stay on the calling thread.
        assert evaluation.BLOCK_WORK // 16**3 >= 1001
        assert evaluation.BLOCK_WORK // 64**3 >= 2


def _evaluate_in_child(stack, prior, connection) -> None:
    columns = evaluate_stack(stack, prior, 10_000)
    connection.send([column.tobytes() for column in columns])


class TestPoolLifecycle:
    def test_forked_child_evaluates_a_split_batch_after_the_parent_used_the_pool(self):
        rng = np.random.default_rng(3)
        stack = _stochastic_stack(rng, 12, 4)
        prior = rng.dirichlet(np.ones(4))
        with split_evaluation(2 * 4**3, 2):
            expected = [column.tobytes() for column in evaluate_stack(stack, prior, 10_000)]
            assert evaluation._pool is not None
            context = multiprocessing.get_context("fork")
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_evaluate_in_child, args=(stack, prior, send))
            child.start()
            send.close()
            try:
                assert receive.poll(60), "forked child did not finish its split batch"
                assert receive.recv() == expected
            finally:
                child.join(5)
                if child.is_alive():
                    child.kill()
                    child.join()
        assert child.exitcode == 0

    def test_concurrent_callers_share_one_pool_and_keep_their_bits(self, monkeypatch):
        # More caller threads and pool threads than cores, switching often:
        # the first split batches race to create the pool.
        import concurrent.futures

        created = []

        class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                time.sleep(0.05)  # widen the window between check and assignment
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
        rng = np.random.default_rng(7)
        stacks = [_stochastic_stack(rng, 20, 5) for _ in range(6)]
        prior = rng.dirichlet(np.ones(5))
        with split_evaluation(None, 1):
            expected = [evaluate_stack(stack, prior, 10_000) for stack in stacks]
        results: list = [None] * len(stacks)

        def call(index: int) -> None:
            for _ in range(5):
                results[index] = evaluate_stack(stacks[index], prior, 10_000)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with split_evaluation(3 * 5**3, 4):
                callers = [threading.Thread(target=call, args=(index,)) for index in range(6)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(60)
                assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
        assert len(created) == 1
        for actual, reference in zip(results, expected):
            _assert_columns_identical(actual, reference)

    def test_parallel_grid_attempts_evaluate_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_threads", None)
        bundle = (lambda payload: {"threads": evaluation._thread_count()}, None, None, "t", 1, 0, 1)
        assert _run_cell_on_one_thread(bundle) == {"threads": 1}

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["disguise", "codes.txt", "--matrix", "warner:0.8", "--categories", "4",
             "--output", "out.txt"],
            ["pipeline", "--data", "adult:sex", "--records", "600", "--schemes",
             "warner:0.8", "--miners", "tree,distribution", "--seeds", "1"],
        ],
        ids=["import", "disguise", "pipeline"],
    )
    def test_commands_that_never_split_a_batch_leave_the_pool_unloaded(self, tmp_path, argv):
        (tmp_path / "codes.txt").write_text("0 1 2 3\n" * 50)
        script = (
            "import sys\n"
            "import repro.cli\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    assert repro.cli.main(argv) == 0\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
