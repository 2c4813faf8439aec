"""Executors: concurrent graph-schedule execution, batch execution, a
sequential reference, and a discrete-event simulation.

The concurrent engine is a bounded ready queue. Every vertex of the schedule
counts its unfinished predecessors, and a fixed set of at most
``MAX_WORKERS`` threads, never one per transaction, pops the smallest ready
id from one heap. A worker reads the latest committed value of each read-set
key, runs the program, then under the engine's lock commits its writes,
emits its result and decrements its successors' counts, queueing each that
reaches zero. Batch execution is the same engine without edges and with one
barrier: the next batch opens when the current one has no unfinished
transaction. Validity of the schedule (every conflicting pair path-ordered)
is checked once, before a handle is built, and is the sole safety premise:
no two conflicting transactions ever overlap, so writes go to one overlay
dict over the input state and need nothing beyond atomic per-key
publication.

The run fails fast: the first exception raised by a transaction body stops
it, wakes every waiter, and makes ``outcome()`` raise ``InvariantError``
chained to that exception. A partial outcome is never returned.

Emission order of non-conflicting transactions is NOT part of the
deterministic contract; equivalence compares the unordered result set and
the final state changes.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .conflict import build_conflict_graph
from .errors import InvariantError, ValidationError
from .model import Block, GlobalState, Transaction, TxResult, run_program, stable_seed
from .schedule import (
    BatchSchedule,
    GraphSchedule,
    is_valid_batch_schedule,
    is_valid_schedule,
    latency,
)

# Worker threads of one execution unless the caller asks for fewer or more.
MAX_WORKERS = 8


@dataclass(frozen=True)
class ExecutionOutcome:
    """Results in emission order plus the merged state changes.

    ``state_changes`` maps every written key to its final committed value,
    i.e. later writes along the dependency order override earlier ones.
    """

    results: tuple[TxResult, ...]
    state_changes: dict[str, int]
    emission_order: tuple[int, ...]

    def results_by_id(self) -> dict[int, TxResult]:
        return {r.tx_id: r for r in self.results}


def _jitter_rng(seed: int | None, tx_id: int) -> random.Random | None:
    if seed is None:
        return None
    return random.Random(stable_seed(seed, tx_id))


def _sleep_jitter(rng: random.Random | None, max_jitter_us: int) -> None:
    if rng is not None and max_jitter_us > 0:
        time.sleep(rng.uniform(0, max_jitter_us) / 1_000_000)


def execute_sequential(block: Block, order: Sequence[int], state: GlobalState) -> ExecutionOutcome:
    """Run transactions one by one against an evolving copy of the state.

    This is the reference oracle every concurrent path is compared against.
    """
    ids = [tx.id for tx in block.txs]
    if sorted(order) != sorted(ids):
        raise ValidationError("order must be a permutation of the block's transaction ids")
    by_id = {tx.id: tx for tx in block.txs}
    store = {k: v for k, v in state.items()}
    written_keys: set[str] = set()
    results: list[TxResult] = []
    for tx_id in order:
        tx = by_id[tx_id]
        reads = {k: store.get(k, 0) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        for key in sorted(written):
            store[key] = written[key]
        written_keys.update(written)
        results.append(TxResult(tx_id=tx.id, read_values=reads, written_values=written))
    changes = {k: store[k] for k in sorted(written_keys)}
    return ExecutionOutcome(
        results=tuple(results), state_changes=changes, emission_order=tuple(order)
    )


def _check_graph_schedule(block: Block, schedule: GraphSchedule) -> None:
    if not is_valid_schedule(schedule, build_conflict_graph(block)):
        raise ValidationError("invalid schedule: some conflicting pair has no dependency path")


class GraphExecutionHandle:
    """A prepared concurrent execution of one valid graph schedule.

    Call :meth:`start` to launch the workers, call :meth:`drain_results`
    while :meth:`running` holds to receive results as they commit, then
    collect the final :meth:`outcome`. The handle does not validate the
    schedule: :func:`execute_graph_schedule` and ``replication.plan_block``
    check it before building one.
    """

    def __init__(
        self,
        block: Block,
        schedule: GraphSchedule,
        state: GlobalState,
        *,
        jitter_seed: int | None = None,
        max_jitter_us: int = 0,
        early_release_bug: bool = False,
        trace: bool = False,
        max_workers: int = MAX_WORKERS,
    ) -> None:
        if max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        self._txs = {tx.id: tx for tx in block.txs}
        self._state = state
        self._succs = schedule.succs
        self._unmet = [len(preds) for preds in schedule.preds]
        # batches run strictly one after another; a graph schedule is one batch
        self._batches: Sequence[Sequence[int]] = (tuple(range(schedule.n)),)
        self._batch = -1
        self._open = 0  # unfinished transactions of the current batch
        self._pending = len(block.txs)
        self._ready: list[int] = []
        self._overlay: dict[str, int] = {}
        self._results: list[TxResult] = []
        self._cursor = 0
        self._failure: tuple[int, Exception] | None = None
        self._started = False
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._results_cv = threading.Condition(self._lock)
        self._workers = [
            threading.Thread(target=self._work, daemon=True)
            for _ in range(min(max_workers, self._pending))
        ]
        self._jitter_seed = jitter_seed
        self._max_jitter_us = max_jitter_us
        self._early_release_bug = early_release_bug
        self.trace: list[tuple[int, int, int]] | None = [] if trace else None

    # -- workers --

    def _live(self) -> bool:
        return self._failure is None and self._pending > 0

    def _work(self) -> None:
        while True:
            with self._lock:
                while not self._ready and self._live():
                    self._work_cv.wait()
                if not self._live():
                    return
                tx = self._txs[heapq.heappop(self._ready)]
            try:
                self._run_one(tx)
            except Exception as exc:  # the worker boundary: recorded, re-raised by outcome()
                with self._lock:
                    if self._failure is None:
                        self._failure = (tx.id, exc)
                    self._wake_all()
                return

    def _run_one(self, tx: Transaction) -> None:
        rng = _jitter_rng(self._jitter_seed, tx.id)
        _sleep_jitter(rng, self._max_jitter_us)
        t0 = time.perf_counter_ns()
        overlay, state = self._overlay, self._state
        reads = {k: overlay[k] if k in overlay else state.get(k) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        _sleep_jitter(rng, self._max_jitter_us)
        if self._early_release_bug:
            # fault injection for negative tests: successors are released
            # before the writes are committed, so they can observe stale state
            with self._lock:
                self._emit(tx.id, reads, written)
                self._release(tx.id)
            time.sleep(0.0001)
            _sleep_jitter(rng, self._max_jitter_us)
            with self._lock:
                overlay.update(written)
                self._retire()
            return
        with self._lock:
            overlay.update(written)
            if self.trace is not None:
                self.trace.append((tx.id, t0, time.perf_counter_ns()))
            self._emit(tx.id, reads, written)
            self._release(tx.id)
            self._retire()

    # -- bookkeeping, always under the lock --

    def _emit(self, tx_id: int, reads: dict[str, int], written: dict[str, int]) -> None:
        self._results.append(TxResult(tx_id=tx_id, read_values=reads, written_values=written))
        self._results_cv.notify_all()

    def _release(self, tx_id: int) -> None:
        readied = 0
        for succ in self._succs[tx_id]:
            self._unmet[succ] -= 1
            if self._unmet[succ] == 0:
                heapq.heappush(self._ready, succ)
                readied += 1
        self._open -= 1
        if self._open == 0:
            readied += self._open_next_batch()
        self._work_cv.notify(readied)

    def _open_next_batch(self) -> int:
        """Queue the ready transactions of the next batch; returns their number."""
        if self._batch + 1 == len(self._batches):
            return 0
        self._batch += 1
        batch = self._batches[self._batch]
        self._open = len(batch)
        readied = 0
        for v in batch:
            if self._unmet[v] == 0:
                heapq.heappush(self._ready, v)
                readied += 1
        return readied

    def _retire(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._wake_all()

    def _wake_all(self) -> None:
        self._work_cv.notify_all()
        self._results_cv.notify_all()

    # -- public surface --

    def start(self) -> None:
        with self._lock:
            self._started = True
            if self._pending:
                self._open_next_batch()
        for worker in self._workers:
            worker.start()

    def running(self) -> bool:
        with self._lock:
            return self._live()

    def drain_results(self) -> list[TxResult]:
        """Results emitted since the last call; blocks until there is one or the run ends."""
        with self._lock:
            if not self._started:
                raise ValidationError("execution was never started")
            while self._cursor == len(self._results) and self._live():
                self._results_cv.wait()
            new = self._results[self._cursor :]
            self._cursor = len(self._results)
        return new

    def outcome(self) -> ExecutionOutcome:
        if not self._started:
            raise ValidationError("execution was never started")
        for worker in self._workers:
            worker.join()
        if self._failure is not None:
            tx_id, exc = self._failure
            raise InvariantError(f"tx {tx_id} raised {exc!r}; execution stopped") from exc
        changes = {k: self._overlay[k] for k in sorted(self._overlay)}
        return ExecutionOutcome(
            results=tuple(self._results),
            state_changes=changes,
            emission_order=tuple(r.tx_id for r in self._results),
        )


def execute_graph_schedule(
    block: Block,
    schedule: GraphSchedule,
    state: GlobalState,
    *,
    jitter_seed: int | None = None,
    max_jitter_us: int = 0,
    max_workers: int = MAX_WORKERS,
) -> ExecutionOutcome:
    """Run the block concurrently under a valid graph schedule (blocking)."""
    _check_graph_schedule(block, schedule)
    handle = GraphExecutionHandle(
        block,
        schedule,
        state,
        jitter_seed=jitter_seed,
        max_jitter_us=max_jitter_us,
        max_workers=max_workers,
    )
    handle.start()
    return handle.outcome()


def execute_graph_schedule_broken(
    block: Block,
    schedule: GraphSchedule,
    state: GlobalState,
    *,
    jitter_seed: int | None = None,
    max_jitter_us: int = 0,
    max_workers: int = MAX_WORKERS,
) -> ExecutionOutcome:
    """Deliberately defective executor that releases successors before
    committing writes. Exists only as the negative control for determinism
    tests."""
    _check_graph_schedule(block, schedule)
    handle = GraphExecutionHandle(
        block,
        schedule,
        state,
        jitter_seed=jitter_seed,
        max_jitter_us=max_jitter_us,
        early_release_bug=True,
        max_workers=max_workers,
    )
    handle.start()
    return handle.outcome()


class BatchExecutionHandle(GraphExecutionHandle):
    """Strictly sequential batches on the graph engine: no edges, and a
    barrier that opens a batch only once the previous one has finished, so
    every transaction reads the state committed by the prior batches."""

    def __init__(
        self,
        block: Block,
        batches: BatchSchedule,
        state: GlobalState,
        *,
        jitter_seed: int | None = None,
        max_jitter_us: int = 0,
        trace: bool = False,
    ) -> None:
        super().__init__(
            block,
            GraphSchedule(n=len(block.txs), edges=frozenset()),
            state,
            jitter_seed=jitter_seed,
            max_jitter_us=max_jitter_us,
            trace=trace,
        )
        self._batches = batches.batches


def execute_batch_schedule(
    block: Block,
    batches: BatchSchedule,
    state: GlobalState,
    *,
    jitter_seed: int | None = None,
    max_jitter_us: int = 0,
) -> ExecutionOutcome:
    """Run the block batch by batch (blocking)."""
    if not is_valid_batch_schedule(batches, build_conflict_graph(block)):
        raise ValidationError(
            "batches must partition the block's transaction ids into conflict-free batches"
        )
    handle = BatchExecutionHandle(
        block, batches, state, jitter_seed=jitter_seed, max_jitter_us=max_jitter_us
    )
    handle.start()
    return handle.outcome()


def simulate_execution(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> tuple[ExecutionOutcome, int]:
    """Discrete-event simulation of the concurrent executor with unbounded workers.

    A transaction starts when its last predecessor finishes and runs for
    exactly its length; the returned makespan equals the schedule's latency.
    """
    _check_graph_schedule(block, schedule)
    return _simulate_checked(block, schedule, state)


def _simulate_checked(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> tuple[ExecutionOutcome, int]:
    """``simulate_execution`` for a schedule already checked against the
    block's conflict graph (as ``replication.plan_block`` does)."""
    by_id = {tx.id: tx for tx in block.txs}
    lengths = {tx.id: tx.length for tx in block.txs}
    n = schedule.n
    remaining = {v: len(schedule.preds[v]) for v in range(n)}
    ready_at = {v: 0 for v in range(n)}
    heap: list[tuple[int, int]] = []
    for v in range(n):
        if remaining[v] == 0:
            heapq.heappush(heap, (lengths[v], v))
    store = {k: v for k, v in state.items()}
    written_keys: set[str] = set()
    results: list[TxResult] = []
    makespan = 0
    while heap:
        finish, v = heapq.heappop(heap)
        makespan = max(makespan, finish)
        tx = by_id[v]
        reads = {k: store.get(k, 0) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        for key in sorted(written):
            store[key] = written[key]
        written_keys.update(written)
        results.append(
            TxResult(tx_id=v, read_values=reads, written_values=written, finish_time=finish)
        )
        for succ in schedule.succs[v]:
            ready_at[succ] = max(ready_at[succ], finish)
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(heap, (ready_at[succ] + lengths[succ], succ))
    changes = {k: store[k] for k in sorted(written_keys)}
    outcome = ExecutionOutcome(
        results=tuple(results),
        state_changes=changes,
        emission_order=tuple(r.tx_id for r in results),
    )
    if block.txs and makespan != latency(schedule, lengths):
        raise InvariantError("simulation makespan diverged from schedule latency")
    return outcome, makespan


@dataclass(frozen=True)
class DeterminismReport:
    ok: bool
    trials_run: int
    diff: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _outcome_diff(label: str, got: ExecutionOutcome, want: ExecutionOutcome) -> str | None:
    if got.state_changes != want.state_changes:
        return f"{label}: state changes differ\n got: {got.state_changes}\nwant: {want.state_changes}"
    got_by_id = got.results_by_id()
    want_by_id = want.results_by_id()
    if set(got_by_id) != set(want_by_id):
        return f"{label}: result id sets differ: {sorted(got_by_id)} vs {sorted(want_by_id)}"
    for tx_id in sorted(want_by_id):
        g_res, w_res = got_by_id[tx_id], want_by_id[tx_id]
        if g_res.read_values != w_res.read_values or g_res.written_values != w_res.written_values:
            return (
                f"{label}: tx {tx_id} differs\n got: reads={g_res.read_values} writes={g_res.written_values}"
                f"\nwant: reads={w_res.read_values} writes={w_res.written_values}"
            )
    return None


def stress_determinism(
    block: Block,
    schedule: GraphSchedule,
    state: GlobalState,
    trials: int = 100,
    *,
    max_jitter_us: int = 200,
    seed: int = 0,
    executor: Callable[..., ExecutionOutcome] = execute_graph_schedule,
) -> DeterminismReport:
    """Hammer the concurrent executor with adversarial sleeps.

    Every trial must match the sequential reference over a topological order
    of the schedule, both in final state and in every transaction's observed
    reads and writes. Any mismatch produces a diff report.
    """
    if trials < 2:
        raise ValidationError("stress_determinism needs at least 2 trials")
    baseline = execute_sequential(block, schedule.topo_order(), state)
    for trial in range(trials):
        out = executor(
            block,
            schedule,
            state,
            jitter_seed=stable_seed(seed, trial),
            max_jitter_us=max_jitter_us,
        )
        diff = _outcome_diff(f"trial {trial}", out, baseline)
        if diff is not None:
            return DeterminismReport(ok=False, trials_run=trial + 1, diff=diff)
    return DeterminismReport(ok=True, trials_run=trials)
