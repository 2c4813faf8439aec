"""Executors: concurrent graph-schedule execution, batch execution, a
sequential reference, and a discrete-event simulation.

The concurrent engine is a bounded ready queue. Every vertex of the schedule
counts its unfinished predecessors, and at most ``MAX_WORKERS`` workers,
never one per transaction, pop the smallest ready id from one heap. A worker
reads the latest committed value of each read-set key, runs the program,
then under the engine's lock commits its writes, records its result and
decrements its successors' counts, queueing each that reaches zero. Batch
execution is the same engine without edges and with one barrier: the next
batch opens when the current one has no unfinished transaction, skipping an
empty one, and the run ends when none is left. Validity of the schedule
(every conflicting pair path-ordered; ``schedule.UNORDERED_CONFLICT`` if not)
is checked once, before a handle is built, and is the sole safety premise: no
two conflicting transactions ever overlap, so writes go to one overlay dict
over the input state and need nothing beyond atomic per-key publication.

The workers run on one process-wide pool of daemon threads shared by every
execution. It starts no thread until the first execution, then grows only
up to the largest ``MAX_WORKERS`` a handle has read, and is never shut down;
a forked child starts with a fresh, empty pool. Each handle keeps its own
ready heap, counters, overlay, lock and failure slot, and hands the pool one
job per worker slot.

A handle is started once with ``start()``; ``outcome()`` waits until every
worker slot has returned and gives every result in emission order with the
merged state changes. The run fails fast: the first exception raised by a
transaction body stops it, wakes every waiter, and makes ``outcome()`` raise
``InvariantError`` chained to that exception. A partial outcome is never
returned.

The simulation only fixes finish order; its transactions run
through :func:`execute_sequential`, the reference oracle.

Emission order of non-conflicting transactions is NOT part of the
deterministic contract; equivalence compares the unordered result set and
the final state changes.
"""

from __future__ import annotations

import heapq
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .conflict import build_conflict_graph
from .errors import InvariantError, ValidationError
from .model import Block, GlobalState, Transaction, TxResult, run_program, stable_seed
from .schedule import (
    UNORDERED_CONFLICT,
    BatchSchedule,
    GraphSchedule,
    check_partition,
    is_valid_schedule,
    latency,
)

# Worker slots of one execution, read when its handle is built.
MAX_WORKERS = 8


class _Pool:
    """Daemon threads that run queued jobs, one at a time each, forever.

    A submission of ``count`` jobs grows the pool to ``count`` threads if it
    is smaller, so it holds as many threads as the largest submission asked
    for; jobs beyond the threads free wait their turn in the queue. That
    wait always ends: a worker slot blocks only while another slot of its
    own execution is running a transaction, so every execution holding a
    thread makes progress and hands its threads back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._jobs: deque[Callable[[], None]] = deque()
        self._threads = 0

    def submit(self, job: Callable[[], None], count: int) -> None:
        with self._lock:
            self._jobs.extend([job] * count)
            self._cv.notify(count)
            for _ in range(self._threads, count):
                threading.Thread(target=self._serve, daemon=True).start()
            self._threads = max(self._threads, count)

    def _serve(self) -> None:
        while True:
            with self._lock:
                while not self._jobs:
                    self._cv.wait()
                job = self._jobs.popleft()
            job()
            job = None  # an idle thread must keep no execution alive


_POOL = _Pool()


def _fresh_pool() -> None:
    """A forked child inherits the pool's bookkeeping but none of its threads."""
    global _POOL
    _POOL = _Pool()


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_fresh_pool)


@dataclass(frozen=True)
class ExecutionOutcome:
    """Results in emission order plus the merged state changes.

    ``state_changes`` maps every written key to its final committed value,
    i.e. later writes along the dependency order override earlier ones.
    """

    results: tuple[TxResult, ...]
    state_changes: dict[str, int]

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
    """Run transactions one by one, reading through an overlay of their
    writes over the state, which is never copied.

    This is the reference oracle every concurrent path is compared against.
    """
    ids = [tx.id for tx in block.txs]
    if sorted(order) != sorted(ids):
        raise ValidationError("order must be a permutation of the block's transaction ids")
    by_id = {tx.id: tx for tx in block.txs}
    overlay: dict[str, int] = {}
    results: list[TxResult] = []
    for tx_id in order:
        tx = by_id[tx_id]
        reads = {k: overlay[k] if k in overlay else state.get(k) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        overlay.update(written)
        results.append(TxResult(tx_id=tx.id, read_values=reads, written_values=written))
    changes = {k: overlay[k] for k in sorted(overlay)}
    return ExecutionOutcome(results=tuple(results), state_changes=changes)


class GraphExecutionHandle:
    """A prepared concurrent execution of one valid graph schedule.

    :meth:`start` hands ``min(MAX_WORKERS, n)`` worker slots to the shared
    pool, and may be called once; :meth:`outcome` waits until every slot has
    returned and gives the results in emission order with the merged state
    changes.
    With ``trace=True``, :attr:`trace` holds each transaction's
    ``(tx_id, start_ns, end_ns)`` once :meth:`outcome` has returned. The
    handle does not validate the schedule: :func:`execute_graph_schedule`,
    :func:`stress_determinism` and ``replication.plan_block`` check it
    before building one.
    """

    def __init__(
        self,
        block: Block,
        schedule: GraphSchedule,
        state: GlobalState,
        *,
        jitter_seed: int | None = None,
        max_jitter_us: int = 0,
        trace: bool = False,
    ) -> None:
        self._txs = {tx.id: tx for tx in block.txs}
        self._state = state
        self._succs = schedule.succs
        self._unmet = [len(preds) for preds in schedule.preds]
        # batches run strictly one after another; a graph schedule is one batch
        self._batches: Sequence[Sequence[int]] = (tuple(range(schedule.n)),)
        self._batch = -1
        self._open = 0  # unfinished transactions of the current batch; 0 once the run ends
        self._ready: list[int] = []
        self._overlay: dict[str, int] = {}
        self._results: list[TxResult] = []
        self._failure: tuple[int, Exception] | None = None
        self._started = False
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._done_cv = threading.Condition(self._lock)
        self._worker_count = min(MAX_WORKERS, len(block.txs))
        self._running = 0  # worker slots handed to the pool and not yet returned
        self._jitter_seed = jitter_seed
        self._max_jitter_us = max_jitter_us
        self.trace: list[tuple[int, int, int]] | None = [] if trace else None

    # -- workers --

    def _live(self) -> bool:
        return self._failure is None and self._open > 0

    def _work(self) -> None:
        """One worker slot: run ready transactions until the run ends, then
        hand the slot back."""
        try:
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
                        self._work_cv.notify_all()
                    return
        finally:
            with self._lock:
                self._running -= 1
                if self._running == 0:
                    self._done_cv.notify()

    def _run_one(self, tx: Transaction) -> None:
        rng = _jitter_rng(self._jitter_seed, tx.id)
        _sleep_jitter(rng, self._max_jitter_us)
        t0 = time.perf_counter_ns()
        overlay, state = self._overlay, self._state
        reads = {k: overlay[k] if k in overlay else state.get(k) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        _sleep_jitter(rng, self._max_jitter_us)
        self._commit(TxResult(tx_id=tx.id, read_values=reads, written_values=written), t0, rng)

    def _commit(self, result: TxResult, t0: int, rng: random.Random | None) -> None:
        """Publish the writes, then emit the result and release the successors."""
        with self._lock:
            self._overlay.update(result.written_values)
            if self.trace is not None:
                self.trace.append((result.tx_id, t0, time.perf_counter_ns()))
            self._results.append(result)
            self._release(result.tx_id)

    # -- bookkeeping, always under the lock --

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
        """Queue the ready transactions of the next non-empty batch; returns
        their number. With no batch left, wakes every slot to return."""
        while self._batch + 1 < len(self._batches):
            self._batch += 1
            batch = self._batches[self._batch]
            if batch:
                self._open = len(batch)
                readied = 0
                for v in batch:
                    if self._unmet[v] == 0:
                        heapq.heappush(self._ready, v)
                        readied += 1
                return readied
        self._work_cv.notify_all()
        return 0

    # -- public surface --

    def start(self) -> None:
        with self._lock:
            if self._started:
                raise ValidationError("execution already started")
            self._started = True
            self._open_next_batch()
            self._running = self._worker_count
        _POOL.submit(self._work, self._worker_count)

    def outcome(self) -> ExecutionOutcome:
        if not self._started:
            raise ValidationError("execution was never started")
        with self._lock:
            while self._running:
                self._done_cv.wait()
        if self._failure is not None:
            tx_id, exc = self._failure
            raise InvariantError(f"tx {tx_id} raised {exc!r}; execution stopped") from exc
        changes = {k: self._overlay[k] for k in sorted(self._overlay)}
        return ExecutionOutcome(results=tuple(self._results), state_changes=changes)


class _EarlyReleaseHandle(GraphExecutionHandle):
    """The negative control's defect: successors are released before the
    writes are committed, so they can observe stale state."""

    def _commit(self, result: TxResult, t0: int, rng: random.Random | None) -> None:
        with self._lock:
            self._results.append(result)
            self._release(result.tx_id)
        time.sleep(0.0001)
        _sleep_jitter(rng, self._max_jitter_us)
        with self._lock:
            self._overlay.update(result.written_values)


class BatchExecutionHandle(GraphExecutionHandle):
    """Strictly sequential batches on the graph engine: an edgeless schedule,
    the graph handle's keyword options, and a barrier that opens a batch only
    once the previous one has finished, so every transaction reads the state
    committed by the prior batches."""

    def __init__(self, block: Block, batches: BatchSchedule, state: GlobalState, **options) -> None:
        n = len(block.txs)
        super().__init__(block, GraphSchedule._of_preds([()] * n, range(n)), state, **options)
        self._batches = batches.batches


def _check_graph(block: Block, schedule: GraphSchedule) -> None:
    """Raise ``ValidationError`` unless ``schedule`` is valid for the block."""
    if not is_valid_schedule(schedule, build_conflict_graph(block)):
        raise ValidationError(UNORDERED_CONFLICT)


def execute_graph_schedule(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> ExecutionOutcome:
    """Run the block concurrently under a valid graph schedule (blocking)."""
    _check_graph(block, schedule)
    handle = GraphExecutionHandle(block, schedule, state)
    handle.start()
    return handle.outcome()


def execute_batch_schedule(
    block: Block, batches: BatchSchedule, state: GlobalState
) -> ExecutionOutcome:
    """Run the block batch by batch (blocking)."""
    check_partition(batches.batches, build_conflict_graph(block))
    handle = BatchExecutionHandle(block, batches, state)
    handle.start()
    return handle.outcome()


def simulate_execution(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> tuple[ExecutionOutcome, int]:
    """Discrete-event simulation of the concurrent executor with unbounded workers.

    A transaction starts when its last predecessor finishes and runs for
    exactly its length; the returned makespan equals the schedule's latency.
    """
    _check_graph(block, schedule)
    return _simulate_checked(block, schedule, state)


def _simulate_checked(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> tuple[ExecutionOutcome, int]:
    """``simulate_execution`` for a schedule already checked against the
    block's conflict graph (as ``replication.plan_block`` does)."""
    lengths = {tx.id: tx.length for tx in block.txs}
    n = schedule.n
    remaining = {v: len(schedule.preds[v]) for v in range(n)}
    ready_at = {v: 0 for v in range(n)}
    heap: list[tuple[int, int]] = []
    for v in range(n):
        if remaining[v] == 0:
            heapq.heappush(heap, (lengths[v], v))
    order: list[int] = []
    makespan = 0
    while heap:
        finish, v = heapq.heappop(heap)
        makespan = max(makespan, finish)
        order.append(v)
        for succ in schedule.succs[v]:
            ready_at[succ] = max(ready_at[succ], finish)
            remaining[succ] -= 1
            if remaining[succ] == 0:
                heapq.heappush(heap, (ready_at[succ] + lengths[succ], succ))
    outcome = execute_sequential(block, order, state)
    if block.txs:
        expected = latency(schedule, lengths)
        if makespan != expected:
            raise InvariantError(f"simulated makespan {makespan} != schedule latency {expected}")
    return outcome, makespan


@dataclass(frozen=True)
class DeterminismReport:
    ok: bool
    trials_run: int
    diff: str | None = None


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
    handle: Callable[..., GraphExecutionHandle] = GraphExecutionHandle,
) -> DeterminismReport:
    """Hammer the concurrent executor with adversarial sleeps.

    The schedule is checked once; each trial then runs a new ``handle``
    built with its own jitter seed. Every trial must match the sequential
    reference over a topological order of the schedule, both in final state
    and in every transaction's observed reads and writes. Any mismatch
    produces a diff report.
    """
    if trials < 2:
        raise ValidationError("stress_determinism needs at least 2 trials")
    _check_graph(block, schedule)
    baseline = execute_sequential(block, schedule.topo_order(), state)
    for trial in range(trials):
        run = handle(
            block,
            schedule,
            state,
            jitter_seed=stable_seed(seed, trial),
            max_jitter_us=max_jitter_us,
        )
        run.start()
        diff = _outcome_diff(f"trial {trial}", run.outcome(), baseline)
        if diff is not None:
            return DeterminismReport(ok=False, trials_run=trial + 1, diff=diff)
    return DeterminismReport(ok=True, trials_run=trials)
