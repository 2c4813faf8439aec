"""Executors: concurrent graph-schedule execution, batch execution, a
sequential reference, and a discrete-event simulation.

The concurrent engine is a bounded ready queue. Every vertex of the schedule
counts its unfinished predecessors, and at most ``MAX_WORKERS`` workers,
never one per transaction, pop the smallest ready id from one heap. A worker
reads the latest committed value of each read-set key, runs the program,
then under the engine's lock commits its writes, records its result and
decrements its successors' counts, queueing each that reaches zero. Batch
execution is the same engine without edges and with one barrier: the next
batch opens when the current one has no unfinished transaction, and the run
ends when none is left. A handle checks the shape of what it is given when
it is built: the block's ids must be 0..n-1 (``model.validate_block``), a
graph schedule must have one vertex per transaction, and a
batch list must pass ``schedule.check_partition`` over an edgeless graph of
the block's size, so no batch is empty. Validity of the schedule (every
conflicting pair path-ordered; ``schedule.UNORDERED_CONFLICT`` if not) is
checked once, before a handle is built, and is the sole safety premise: no
two conflicting transactions ever overlap, so writes go to one overlay dict
over the input state and need nothing beyond atomic per-key publication.

The thread that waits for a block's outcome runs one worker slot itself
(the work-first principle: the thread already running does the work), so
a 1-tx block never touches another thread. The other slots, the helpers,
run on one process-wide pool of daemon threads shared by every execution.
It starts no thread until an execution first hands it helpers, then grows
only up to the largest ``MAX_WORKERS`` a handle has read, less one, and is
never shut down; a forked child starts with a fresh, empty pool. Each
handle keeps its own ready heap, counters, overlay, lock and failure slot.
It hands the pool one job per helper slot, and wakes a thread for each, only
once a transaction blocks (runs longer than ``_BLOCKING_NS``) or, under
jitter, where every transaction sleeps, at once; a run that never blocks
hands the pool nothing. Under the interpreter lock a second thread cannot
speed up microsecond-scale transactions, and a woken thread that finds
nothing to do still costs the caller a hand-off of that lock. A slot that
commits takes the next ready transaction itself and wakes a sleeping slot
only for each further one it readied.

One call runs an execution: ``outcome()`` opens the first batch, runs the
caller's slot until the run ends and gives every result in emission order
with the merged state changes; it may be called once per handle. The run
fails fast: the first exception raised by a transaction body stops it,
wakes every slot, and makes ``outcome()`` raise ``InvariantError`` chained
to that exception; any other ``BaseException`` raised on the caller's slot,
such as a Ctrl-C, propagates as itself once the run is failed. A partial
outcome is never returned.

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

from .conflict import ConflictGraph, build_conflict_graph
from .errors import InvariantError, ValidationError
from .model import Block, GlobalState, Transaction, TxResult, run_program, stable_seed, validate_block
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
# A transaction that runs longer than this has most likely blocked (a sleep,
# I/O), so the first one wakes its execution's helper slots.
_BLOCKING_NS = 100_000


class _Pool:
    """Daemon threads that run queued jobs, one at a time each, forever.

    :meth:`submit` queues ``count`` copies of a job, grows the pool to
    ``count`` threads if it is smaller, and wakes ``count`` idle threads for
    them, so the pool holds as many threads as the largest submission asked
    for. Jobs beyond the threads free wait their turn in the queue. No
    execution's progress rests on the pool: its caller's own slot runs every
    transaction no helper has taken, and a helper slot blocks only while
    another slot of its execution is running a transaction, so every job
    returns and hands its thread back.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._jobs: deque[Callable[[], None]] = deque()
        self._threads = 0

    def submit(self, job: Callable[[], None], count: int) -> None:
        with self._lock:
            self._jobs.extend([job] * count)
            for _ in range(self._threads, count):
                threading.Thread(target=self._serve, daemon=True).start()
            self._threads = max(self._threads, count)
            self._cv.notify(count)

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


def _sleep_jitter(rng: random.Random, max_jitter_us: int) -> None:
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

    It runs on ``min(MAX_WORKERS, n)`` worker slots. :meth:`outcome`, which
    may be called once, runs the execution: one slot on the calling thread,
    so the thread that waits for the block works on it and a 1-tx block never
    touches the pool. Progress does not rest on the pool: the caller's slot
    alone runs every transaction no helper has taken, and the other slots are
    handed to the pool only once a transaction blocks (under jitter, at
    once). Once the run has ended :meth:`outcome` gives the results in
    emission order with the merged state changes. With ``trace=True``,
    :attr:`trace` holds each transaction's ``(tx_id, start_ns, end_ns)`` once
    :meth:`outcome` has returned. A negative ``max_jitter_us`` raises
    ``ValidationError``; 0 means no jitter. A block whose ids are not
    0..n-1 raises ``ValidationError`` with ``validate_block``'s text, and so
    does a schedule whose size is not the block's. The handle does not check the
    schedule's validity: :func:`execute_graph_schedule`,
    :func:`stress_determinism` and ``replication.plan_block`` check it before
    building one.
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
        if max_jitter_us < 0:
            raise ValidationError(f"max_jitter_us must be >= 0, got {max_jitter_us}")
        problems = validate_block(block)
        if problems:
            raise ValidationError("; ".join(problems))
        n = len(block.txs)
        if schedule.n != n:
            raise ValidationError(f"schedule has {schedule.n} vertices, block has {n} transactions")
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
        self._failure: tuple[int, BaseException] | None = None
        self._started = False
        self._lock = threading.Lock()
        self._work_cv = threading.Condition(self._lock)
        self._worker_count = min(MAX_WORKERS, n)
        self._asleep = self._worker_count > 1  # helper slots not handed to the pool yet
        self._jitter_seed = jitter_seed if max_jitter_us > 0 else None
        self._max_jitter_us = max_jitter_us
        self.trace: list[tuple[int, int, int]] | None = [] if trace else None

    # -- workers --

    def _live(self) -> bool:
        return self._failure is None and self._open > 0

    def _work(self) -> BaseException | None:
        """One worker slot: run ready transactions until the run ends. An
        exception a transaction raises fails the run and wakes every slot;
        it is stored, like a future's, for ``outcome()`` to raise, and
        returned to the slot's own thread."""
        while True:
            with self._lock:
                while not self._ready and self._live():
                    self._work_cv.wait()
                if not self._live():
                    return None
                tx = self._txs[heapq.heappop(self._ready)]
            try:
                self._run_one(tx)
            except BaseException as exc:  # a Ctrl-C on the caller's slot too
                with self._lock:
                    if self._failure is None:
                        self._failure = (tx.id, exc)
                    self._work_cv.notify_all()
                return exc

    def _run_one(self, tx: Transaction) -> None:
        rng = None
        if self._jitter_seed is not None:
            rng = random.Random(stable_seed(self._jitter_seed, tx.id))
            _sleep_jitter(rng, self._max_jitter_us)
        t0 = time.perf_counter_ns()
        overlay, state = self._overlay, self._state
        reads = {k: overlay[k] if k in overlay else state.get(k) for k in sorted(tx.read_set)}
        written = run_program(tx, reads)
        if self._asleep and time.perf_counter_ns() - t0 > _BLOCKING_NS:
            self._wake_helpers()
        if rng is not None:
            _sleep_jitter(rng, self._max_jitter_us)
        self._commit(TxResult(tx_id=tx.id, read_values=reads, written_values=written), t0)

    def _commit(self, result: TxResult, t0: int) -> None:
        """Publish the writes, then emit the result and release the successors."""
        with self._lock:
            self._overlay.update(result.written_values)
            if self.trace is not None:
                self.trace.append((result.tx_id, t0, time.perf_counter_ns()))
            self._results.append(result)
            self._release(result.tx_id)

    # -- bookkeeping, always under the lock --

    def _release(self, tx_id: int) -> None:
        """Count the transaction finished and queue what it readied. The
        committing slot goes back to the heap and takes one of them, so only
        each further one wakes a sleeping slot."""
        readied = 0
        for succ in self._succs[tx_id]:
            self._unmet[succ] -= 1
            if self._unmet[succ] == 0:
                heapq.heappush(self._ready, succ)
                readied += 1
        self._open -= 1
        if self._open == 0:
            readied += self._open_next_batch()
        if readied > 1:
            self._work_cv.notify(readied - 1)

    def _open_next_batch(self) -> int:
        """Queue the ready transactions of the next batch; returns their
        number. With no batch left, wakes every slot to return."""
        self._batch += 1
        if self._batch == len(self._batches):
            self._work_cv.notify_all()
            return 0
        batch = self._batches[self._batch]
        self._open = len(batch)
        readied = 0
        for v in batch:
            if self._unmet[v] == 0:
                heapq.heappush(self._ready, v)
                readied += 1
        return readied

    def _wake_helpers(self) -> None:
        """Hand the pool ``min(MAX_WORKERS, n) - 1`` helper slots, once, from
        the caller's thread: before this no other thread touches the run."""
        self._asleep = False
        _POOL.submit(self._work, self._worker_count - 1)

    # -- public surface --

    def outcome(self) -> ExecutionOutcome:
        """Run the execution: open the first batch, wake the helpers at once
        under jitter, run the caller's slot until the run ends, and give the
        run's outcome. A second call raises ``ValidationError``.

        When the run succeeds every transaction has committed, so no helper
        slot still touches the results. A transaction's ``Exception`` is
        raised as ``InvariantError``; any other ``BaseException`` raised on
        this thread propagates as itself, after the run is failed.
        """
        with self._lock:
            if self._started:
                raise ValidationError("execution already started")
            self._started = True
            self._open_next_batch()
        if self._asleep and self._jitter_seed is not None:
            self._wake_helpers()
        raised = self._work()
        if raised is not None and not isinstance(raised, Exception):
            raise raised
        if self._failure is not None:
            tx_id, exc = self._failure
            raise InvariantError(f"tx {tx_id} raised {exc!r}; execution stopped") from exc
        changes = {k: self._overlay[k] for k in sorted(self._overlay)}
        return ExecutionOutcome(results=tuple(self._results), state_changes=changes)


class BatchExecutionHandle(GraphExecutionHandle):
    """Strictly sequential batches on the graph engine: an edgeless schedule,
    the graph handle's keyword options, and a barrier that opens a batch only
    once the previous one has finished, so every transaction reads the state
    committed by the prior batches.

    Building one checks the batches with ``schedule.check_partition`` over
    an edgeless graph of the block's size, as ``batch_to_graph`` does over
    the list's own: an empty batch or a repeated, out-of-range or missing id
    raises its ``ValidationError``; then the block's ids are checked as for
    a graph handle. Conflicts inside a batch are the caller's check, as for
    a graph schedule.
    """

    def __init__(self, block: Block, batches: BatchSchedule, state: GlobalState, **options) -> None:
        n = len(block.txs)
        check_partition(batches.batches, ConflictGraph(n, ()))
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
    return GraphExecutionHandle(block, schedule, state).outcome()


def execute_batch_schedule(
    block: Block, batches: BatchSchedule, state: GlobalState
) -> ExecutionOutcome:
    """Run the block batch by batch (blocking)."""
    check_partition(batches.batches, build_conflict_graph(block))
    return BatchExecutionHandle(block, batches, state).outcome()


def simulate_execution(
    block: Block, schedule: GraphSchedule, state: GlobalState
) -> tuple[ExecutionOutcome, int]:
    """Discrete-event simulation of the concurrent executor with unbounded workers.

    A transaction starts when its last predecessor finishes and runs for
    exactly its length; the returned makespan equals the schedule's latency.
    """
    _check_graph(block, schedule)
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
        diff = _outcome_diff(f"trial {trial}", run.outcome(), baseline)
        if diff is not None:
            return DeterminismReport(ok=False, trials_run=trial + 1, diff=diff)
    return DeterminismReport(ok=True, trials_run=trials)
