import dataclasses
import gc
import multiprocessing
import os
import random
import re
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from blocksched import executor
from blocksched.conflict import build_conflict_graph
from blocksched.coloring import descending_degree_order, greedy_coloring, partition_from_coloring
from blocksched.errors import InvariantError, ValidationError
from blocksched.executor import (
    MAX_WORKERS,
    BatchExecutionHandle,
    GraphExecutionHandle,
    execute_batch_schedule,
    execute_graph_schedule,
    execute_sequential,
    simulate_execution,
    stress_determinism,
)
from blocksched.model import GlobalState, ProgramKind, TxResult, stable_seed
from blocksched.replication import BatchPlan, GraphPlan, make_runner, plan_block, process_block
from blocksched.schedule import (
    BatchSchedule,
    GraphSchedule,
    batch_to_graph,
    finish_times,
    latency,
    level_schedule,
)
from blocksched.workload import WorkloadSpec, chain_block, gen_block

from conftest import (
    EarlyReleaseHandle,
    make_block,
    make_tx,
    inject_tx_failure,
    random_valid_schedule,
    run_bounded,
    runner_planning,
)

EMPTY = GlobalState()


def writer_reader_block():
    t0 = make_tx(0, writes={"x"}, kind=ProgramKind.WRITE_CONST, const=1)
    t1 = make_tx(1, reads={"x"}, writes={"y"}, kind=ProgramKind.SUM_AND_ADD, const=1)
    return make_block([t0, t1])


def test_sequential_order_matters():
    block = writer_reader_block()
    forward = execute_sequential(block, [0, 1], EMPTY)
    assert forward.state_changes == {"x": 1, "y": 2}
    backward = execute_sequential(block, [1, 0], EMPTY)
    assert backward.state_changes == {"x": 1, "y": 1}


def test_sequential_empty_block():
    out = execute_sequential(make_block([]), [], EMPTY)
    assert out.state_changes == {}
    assert out.results == ()


def test_sequential_rejects_bad_order():
    with pytest.raises(ValidationError):
        execute_sequential(writer_reader_block(), [0], EMPTY)


def test_graph_execution_dependent_pair_always_agrees():
    block = writer_reader_block()
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    for _ in range(20):
        out = execute_graph_schedule(block, s, EMPTY)
        assert out.state_changes == {"x": 1, "y": 2}
        assert out.results_by_id()[1].read_values == {"x": 1}


def run_handle(handle):
    return handle.outcome()


def test_batch_handle_skips_empty_batches():
    # chain_block(4) conflicts on (0, 1), (1, 2) and (2, 3); the handle is
    # built directly, so nothing checks the batches before it runs them
    block = chain_block(4)
    handle = BatchExecutionHandle(block, BatchSchedule(((), (0, 2), (), (), (1, 3), ())), EMPTY)
    out = run_bounded(lambda: run_handle(handle), timeout=20)
    ref = execute_sequential(block, [0, 2, 1, 3], EMPTY)
    assert sorted(r.tx_id for r in out.results) == [0, 1, 2, 3]
    assert out.results_by_id() == ref.results_by_id()
    assert out.state_changes == ref.state_changes


@pytest.mark.parametrize(
    "batches, reason",
    [
        (((0,), (1,)), "partition does not cover all vertices"),
        (((0, 2), (1, 2)), "vertex 2 appears in more than one level"),
        (((0, 2), (), (1, 3)), "level 2: vertex 3 out of range"),
    ],
    ids=["missing", "repeated", "out-of-range"],
)
@pytest.mark.parametrize("build", ["handle", "init_execution"])
def test_batch_handle_counts_its_members(batches, reason, build):
    # nothing checks these lists before the handle: it must refuse them
    # rather than drop or repeat a transaction
    block = chain_block(3)
    unchecked = BatchSchedule(batches)

    def run():
        if build == "handle":
            handle = BatchExecutionHandle(block, unchecked, EMPTY)
        else:
            plan = BatchPlan(batches=unchecked, levels=())
            handle = make_runner("batch").init_execution(block, plan, EMPTY)
        return run_handle(handle)

    with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
        run_bounded(run, timeout=20)


@pytest.mark.parametrize(
    "build",
    [
        lambda block: GraphExecutionHandle(block, GraphSchedule(0, ()), EMPTY),
        lambda block: BatchExecutionHandle(block, BatchSchedule(()), EMPTY),
        lambda block: BatchExecutionHandle(block, BatchSchedule(((),)), EMPTY),
    ],
    ids=["graph", "batch-no-batch", "batch-one-empty-batch"],
)
def test_an_empty_block_finishes(build):
    out = run_bounded(lambda: run_handle(build(make_block([]))), timeout=20)
    assert out.results == ()
    assert out.state_changes == {}


@pytest.mark.parametrize("handle", ["graph", "batch"])
def test_second_outcome_is_rejected(handle):
    # a second run would open a batch barrier early: the handle runs once
    block = writer_reader_block()
    if handle == "graph":
        run = GraphExecutionHandle(block, GraphSchedule(n=2, edges={(0, 1)}), EMPTY)
    else:
        run = BatchExecutionHandle(block, BatchSchedule(((0,), (1,))), EMPTY)
    out = run.outcome()
    assert sorted(r.tx_id for r in out.results) == [0, 1]
    assert out.state_changes == {"x": 1, "y": 2}
    with pytest.raises(ValidationError, match="^execution already started$"):
        run.outcome()


@pytest.mark.parametrize("handle", ["graph", "batch"])
def test_a_negative_jitter_is_rejected(handle):
    def build(max_jitter_us):
        block = writer_reader_block()
        jitter = {"jitter_seed": 1, "max_jitter_us": max_jitter_us}
        if handle == "graph":
            return GraphExecutionHandle(block, GraphSchedule(n=2, edges={(0, 1)}), EMPTY, **jitter)
        return BatchExecutionHandle(block, BatchSchedule(((0,), (1,))), EMPTY, **jitter)

    with pytest.raises(ValidationError, match="^max_jitter_us must be >= 0, got -200$"):
        build(-200)
    assert build(0).outcome().state_changes == {"x": 1, "y": 2}  # 0 means no jitter


def test_a_negative_jitter_cannot_switch_the_stress_harness_off():
    block = chain_block(8)
    s = level_schedule([(0, 2, 4, 6), (1, 3, 5, 7)], build_conflict_graph(block))
    with pytest.raises(ValidationError, match="^max_jitter_us must be >= 0, got -200$"):
        stress_determinism(block, s, EMPTY, trials=60, max_jitter_us=-200, handle=EarlyReleaseHandle)


def test_outcome_diff_reports_each_difference():
    want = execute_sequential(writer_reader_block(), [0, 1], EMPTY)
    assert executor._outcome_diff("t", want, want) is None
    changed = dataclasses.replace(want, state_changes={"x": 1, "y": 3})
    assert executor._outcome_diff("t", changed, want).startswith("t: state changes differ\n")
    missing = dataclasses.replace(want, results=want.results[:1])
    assert executor._outcome_diff("t", missing, want) == "t: result id sets differ: [0] vs [0, 1]"
    stale = dataclasses.replace(want, results=(want.results[0], TxResult(1, {"x": 0}, {"y": 1})))
    assert executor._outcome_diff("t", stale, want) == (
        "t: tx 1 differs\n got: reads={'x': 0} writes={'y': 1}\nwant: reads={'x': 1} writes={'y': 2}"
    )


def test_graph_execution_independent_writers_any_arrival_order():
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(8)]
    block = make_block(txs)
    s = GraphSchedule(n=8, edges=frozenset())
    out = GraphExecutionHandle(block, s, EMPTY, jitter_seed=5, max_jitter_us=100).outcome()
    assert out.state_changes == {f"w{i}": i for i in range(8)}
    assert sorted(r.tx_id for r in out.results) == list(range(8))


def test_graph_execution_matches_sequential_on_chain():
    block = chain_block(6)
    g = build_conflict_graph(block)
    s = level_schedule([(0, 2, 4), (1, 3, 5)], g)
    out = execute_graph_schedule(block, s, EMPTY)
    ref = execute_sequential(block, [0, 2, 4, 1, 3, 5], EMPTY)
    assert out.state_changes == ref.state_changes
    assert {i: (r.read_values, r.written_values) for i, r in out.results_by_id().items()} == {
        i: (r.read_values, r.written_values) for i, r in ref.results_by_id().items()
    }


def test_invalid_schedule_rejected_before_launch():
    block = writer_reader_block()
    with pytest.raises(ValidationError):
        execute_graph_schedule(block, GraphSchedule(n=2, edges=frozenset()), EMPTY)
    with pytest.raises(ValidationError):
        simulate_execution(block, GraphSchedule(n=2, edges=frozenset()), EMPTY)


def test_graph_execution_does_not_mutate_input_state():
    block = writer_reader_block()
    state = GlobalState({"x": 9})
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    execute_graph_schedule(block, s, state)
    assert state == GlobalState({"x": 9})


def test_bounded_pool_matches_unbounded(monkeypatch):
    block = gen_block(WorkloadSpec(n_txs=12, key_universe=6, seed=21))
    g = build_conflict_graph(block)
    part = partition_from_coloring(greedy_coloring(g, descending_degree_order(g)))
    s = level_schedule(part, g)
    full = execute_graph_schedule(block, s, EMPTY)
    monkeypatch.setattr(executor, "MAX_WORKERS", 3)
    # the pool size is read when a handle is built
    assert GraphExecutionHandle(block, s, EMPTY)._worker_count == 3
    pooled = execute_graph_schedule(block, s, EMPTY)
    assert pooled.state_changes == full.state_changes
    assert pooled.results_by_id().keys() == full.results_by_id().keys()


def collected(ref, timeout=5.0):
    """Whether ``ref`` dies once the pool thread that ran the last worker
    slot has returned from it and dropped the job."""
    deadline = time.monotonic() + timeout
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
        gc.collect()
    return ref() is None


class WeakState(GlobalState):
    __slots__ = ("__weakref__",)


def jittered(block, s, state=EMPTY):
    """A handle whose jitter hands the pool its helpers before the first
    transaction runs."""
    return GraphExecutionHandle(block, s, state, jitter_seed=1, max_jitter_us=20)


@pytest.mark.parametrize("bad_id", [None, 5])
def test_idle_pool_threads_keep_no_execution_alive(monkeypatch, bad_id):
    block = gen_block(WorkloadSpec(n_txs=24, key_universe=6, seed=8))
    s = greedy_level_schedule(block)
    fresh_pool(monkeypatch)
    if bad_id is not None:
        inject_tx_failure(monkeypatch, bad_id=bad_id)

    def run():
        state = WeakState({f"k{i}": i + 1 for i in range(6)})
        handle = jittered(block, s, state)
        try:
            handle.outcome()
            failed = False
        except InvariantError:
            failed = True
        return weakref.ref(handle), weakref.ref(state), failed

    handle_ref, state_ref, failed = run()
    assert failed == (bad_id is not None)
    assert executor._POOL.submits == [MAX_WORKERS - 1]  # pool threads ran its helper slots
    assert collected(handle_ref)
    assert collected(state_ref)


def _run_in_forked_child(block, s, want):
    assert executor._POOL._threads == 0  # the parent's threads are not the child's
    assert jittered(block, s).outcome().state_changes == want
    assert executor._POOL._threads == MAX_WORKERS - 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_execution_in_a_forked_child_does_not_hang():
    block = gen_block(WorkloadSpec(n_txs=24, key_universe=6, seed=8))
    s = greedy_level_schedule(block)
    want = jittered(block, s).outcome().state_changes  # starts the parent's pool threads
    assert executor._POOL._threads > 0
    child = multiprocessing.get_context("fork").Process(
        target=_run_in_forked_child, args=(block, s, want)
    )
    child.start()
    child.join(20)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("execution in a forked child still running after 20s")
    assert child.exitcode == 0


class CountingPool(executor._Pool):
    """A pool that records the job count of every submission."""

    def __init__(self):
        super().__init__()
        self.submits = []

    def submit(self, job, count):
        self.submits.append(count)
        super().submit(job, count)


def fresh_pool(monkeypatch):
    """Give the test its own empty ``CountingPool``; returns a count of the
    threads started since, which are that pool's threads once every other
    thread the test started has been joined."""
    before = set(threading.enumerate())
    monkeypatch.setattr(executor, "_POOL", CountingPool())
    return lambda: sum(t not in before for t in threading.enumerate())


def block_on(monkeypatch, seconds, blocks=lambda tx: True):
    """Make every transaction that ``blocks`` picks sleep ``seconds`` in its
    body, so the engine counts it as blocked."""
    real = executor.run_program

    def run_program(tx, reads):
        if blocks(tx):
            time.sleep(seconds)
        return real(tx, reads)

    monkeypatch.setattr(executor, "run_program", run_program)


def test_two_callers_share_one_bounded_pool(monkeypatch):
    pool_threads = fresh_pool(monkeypatch)
    block_on(monkeypatch, 0.0002)  # so each caller hands the pool its helpers
    cases = []
    for seed in (41, 42):
        block = gen_block(WorkloadSpec(n_txs=40, key_universe=12, seed=seed))
        cases.append((block, greedy_level_schedule(block)))
    together = threading.Barrier(2)

    def call(i):
        block, s = cases[i]
        together.wait()
        return execute_graph_schedule(block, s, EMPTY)

    with ThreadPoolExecutor(2) as callers:
        runs = [callers.submit(run_bounded, lambda i=i: call(i)) for i in range(2)]
        outs = [run.result() for run in runs]
    for (block, s), out in zip(cases, outs):
        ref = execute_sequential(block, s.topo_order(), EMPTY)
        assert out.state_changes == ref.state_changes
        assert {i: (r.read_values, r.written_values) for i, r in out.results_by_id().items()} == {
            i: (r.read_values, r.written_values) for i, r in ref.results_by_id().items()
        }
    # pool threads never exit, so the count now is the most ever alive; each
    # caller ran one slot of its own execution
    assert executor._POOL.submits == [MAX_WORKERS - 1] * 2
    assert pool_threads() == MAX_WORKERS - 1


def test_handle_runs_no_more_workers_than_it_read(monkeypatch):
    pool_threads = fresh_pool(monkeypatch)
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(16)]
    block = make_block(txs)
    s = GraphSchedule(n=16, edges=frozenset())
    # tx 0 readies txs 1-8 at once, and the last of those the rest
    gated = GraphSchedule(
        n=16, edges=[(0, v) for v in range(1, 9)] + [(u, w) for u in range(1, 9) for w in range(9, 16)]
    )
    real = executor.run_program
    gate = threading.Lock()
    active, most = [0], [0]

    def counted(tx, reads):
        with gate:
            active[0] += 1
            most[0] = max(most[0], active[0])
        time.sleep(0.002)
        with gate:
            active[0] -= 1
        return real(tx, reads)

    monkeypatch.setattr(executor, "run_program", counted)
    # gated, first: tx 0 blocks, so the caller hands the fresh pool seven
    # helper jobs; its new threads take them and park until tx 0 commits, so
    # the slot that commits it must wake all seven; then on the warm pool the
    # first transaction that blocks must wake them
    for schedule in (gated, s):
        most[0] = 0
        run_bounded(lambda: execute_graph_schedule(block, schedule, EMPTY))
        assert most[0] == MAX_WORKERS  # every slot overlaps a sleeping transaction
    assert pool_threads() == MAX_WORKERS - 1  # the caller runs the last slot
    monkeypatch.setattr(executor, "MAX_WORKERS", 2)
    most[0] = 0
    out = run_bounded(lambda: execute_graph_schedule(block, s, EMPTY))
    assert out.state_changes == {f"w{i}": i for i in range(16)}
    assert most[0] <= 2
    assert pool_threads() == MAX_WORKERS - 1


def test_jitter_wakes_the_helpers_at_start(monkeypatch):
    # a jittered transaction sleeps outside its timed body, so the run cannot
    # wait for one to show that it blocks: C3's concurrency rests on this
    fresh_pool(monkeypatch)
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(16)]
    block = make_block(txs)
    s = GraphSchedule(n=16, edges=frozenset())
    real = executor.run_program
    ran_on = set()

    def recorded(tx, reads):
        ran_on.add(threading.current_thread())
        return real(tx, reads)

    monkeypatch.setattr(executor, "run_program", recorded)
    handle = GraphExecutionHandle(block, s, EMPTY, jitter_seed=1, max_jitter_us=500)
    out = run_bounded(lambda: run_handle(handle))
    assert out.state_changes == {f"w{i}": i for i in range(16)}
    assert len(ran_on) > 1


class LatePool(executor._Pool):
    """A fresh pool that holds its first submission until ``release()``."""

    def __init__(self):
        super().__init__()
        self.held = []

    def submit(self, job, count):
        if self.held is None:
            super().submit(job, count)
        else:
            self.held.append((job, count))

    def release(self):
        held, self.held = self.held, None
        for job, count in held:
            super().submit(job, count)


class Interrupt(BaseException):
    """Not an ``Exception``: a Ctrl-C landing inside a transaction."""


def test_an_exception_on_the_callers_slot_ends_the_run(monkeypatch):
    pool = LatePool()
    monkeypatch.setattr(executor, "_POOL", pool)
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(16)]
    block = make_block(txs)
    # tx 0 blocks, so the caller hands the pool its helpers, and readies only
    # tx 1, which gates every other one: helpers find nothing to run while it runs
    gated = GraphSchedule(n=16, edges=frozenset([(0, 1)] + [(1, v) for v in range(2, 16)]))
    real = executor.run_program
    caller, held = [], []

    def run_program(tx, reads):
        if tx.id == 0:
            time.sleep(0.001)
        elif caller and threading.current_thread() is caller[0]:
            caller.clear()  # only the first execution is interrupted
            held.extend(count for _, count in pool.held)
            pool.release()  # the caller holds tx 1: its helpers can only park
            time.sleep(0.05)
            raise Interrupt
        return real(tx, reads)

    monkeypatch.setattr(executor, "run_program", run_program)

    def interrupted():
        caller.append(threading.current_thread())
        handle = GraphExecutionHandle(block, gated, EMPTY)
        try:
            handle.outcome()
        except Interrupt:
            return weakref.ref(handle)
        raise AssertionError("outcome() returned without the interrupt")

    handle_ref = run_bounded(interrupted)
    assert held == [MAX_WORKERS - 1]  # the interrupt landed while the helpers were parked
    assert collected(handle_ref)  # every helper slot returned and dropped its job
    out = run_bounded(lambda: execute_graph_schedule(block, gated, EMPTY))
    assert out.state_changes == {f"w{i}": i for i in range(16)}


def test_a_run_that_never_blocks_hands_the_pool_nothing(monkeypatch):
    fresh_pool(monkeypatch)
    pool = executor._POOL
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(32)]
    block = make_block(txs)
    s = GraphSchedule(n=32, edges=frozenset())
    want = {f"w{i}": i for i in range(32)}
    with monkeypatch.context() as m:
        # a host stall inside a microsecond transaction must not read as a block
        m.setattr(executor, "_BLOCKING_NS", 10**9)
        assert run_bounded(lambda: execute_graph_schedule(block, s, EMPTY)).state_changes == want
    assert pool.submits == []

    # jitter hands the pool every helper slot once, before the first transaction
    real = executor.run_program
    submits_seen = []

    def recorded(tx, reads):
        submits_seen.append(len(pool.submits))
        return real(tx, reads)

    with monkeypatch.context() as m:
        m.setattr(executor, "run_program", recorded)
        assert run_bounded(jittered(block, s).outcome).state_changes == want
    assert pool.submits == [min(MAX_WORKERS, 32) - 1]
    assert submits_seen == [1] * 32

    # the first transaction that blocks hands them over, and no later one again
    pool.submits.clear()
    block_on(monkeypatch, 0.002, lambda tx: tx.id == 0)
    assert run_bounded(lambda: execute_graph_schedule(block, s, EMPTY)).state_changes == want
    assert pool.submits == [MAX_WORKERS - 1]


def test_batch_reader_sees_previous_batch_write():
    block = writer_reader_block()
    out = execute_batch_schedule(block, BatchSchedule(batches=((0,), (1,))), EMPTY)
    assert out.state_changes == {"x": 1, "y": 2}


def test_batch_single_batch_equals_empty_schedule():
    txs = [make_tx(i, writes={f"w{i}"}, kind=ProgramKind.WRITE_CONST, const=i) for i in range(5)]
    block = make_block(txs)
    via_batch = execute_batch_schedule(block, BatchSchedule(batches=((0, 1, 2, 3, 4),)), EMPTY)
    via_graph = execute_graph_schedule(block, GraphSchedule(n=5, edges=frozenset()), EMPTY)
    assert via_batch.state_changes == via_graph.state_changes


def test_batch_rejects_conflicting_batch():
    block = writer_reader_block()
    with pytest.raises(ValidationError, match=r"^level 0 is not conflict-free: pair \(0, 1\) conflicts$"):
        execute_batch_schedule(block, BatchSchedule(batches=((0, 1),)), EMPTY)


def test_batch_outcome_equals_graph_outcome_on_transform():
    rng = random.Random(4)
    for trial in range(15):
        block = gen_block(WorkloadSpec(n_txs=rng.randint(1, 8), key_universe=4, seed=100 + trial))
        g = build_conflict_graph(block)
        levels = list(partition_from_coloring(greedy_coloring(g, descending_degree_order(g))))
        rng.shuffle(levels)
        b = BatchSchedule(batches=tuple(levels))
        batch_out = execute_batch_schedule(block, b, EMPTY)
        graph_out = execute_graph_schedule(block, batch_to_graph(b), EMPTY)
        assert batch_out.state_changes == graph_out.state_changes
        assert {i: (r.read_values, r.written_values) for i, r in batch_out.results_by_id().items()} == {
            i: (r.read_values, r.written_values) for i, r in graph_out.results_by_id().items()
        }


def test_batch_execution_builds_no_checked_schedule(monkeypatch):
    # the barrier engine runs on an edgeless schedule whose identity order
    # proves it acyclic: neither the checked constructor nor the canonical order
    def refuse(*args, **kwargs):
        raise AssertionError("batch execution built a checked schedule")

    monkeypatch.setattr(GraphSchedule, "__init__", refuse)
    monkeypatch.setattr(GraphSchedule, "_topo", property(refuse))
    block = gen_block(WorkloadSpec(n_txs=40, key_universe=16, seed=3))
    plan = plan_block(make_runner("batch"), block)
    want = execute_sequential(block, [v for level in plan.levels for v in level], EMPTY)
    assert execute_batch_schedule(block, plan.batches, EMPTY).state_changes == want.state_changes
    assert process_block(make_runner("batch"), block, EMPTY)[0] == want.state_changes


def test_simulate_path_makespan():
    txs = [make_tx(0, length=5), make_tx(1, length=1)]
    block = make_block(txs)
    _, makespan = simulate_execution(block, GraphSchedule(n=2, edges=frozenset({(0, 1)})), EMPTY)
    assert makespan == 6


def test_simulate_parallel_max():
    txs = [make_tx(i, length=l) for i, l in enumerate([3, 9, 4])]
    block = make_block(txs)
    _, makespan = simulate_execution(block, GraphSchedule(n=3, edges=frozenset()), EMPTY)
    assert makespan == 9


def test_simulate_matches_latency_and_sequential():
    rng = random.Random(11)
    for trial in range(25):
        block = gen_block(
            WorkloadSpec(
                n_txs=10, key_universe=5, length_mode="heterogeneous", seed=200 + trial
            )
        )
        g = build_conflict_graph(block)
        s = random_valid_schedule(g, rng)
        outcome, makespan = simulate_execution(block, s, EMPTY)
        assert makespan == latency(s, {tx.id: tx.length for tx in block.txs})
        ref = execute_sequential(block, s.topo_order(), EMPTY)
        assert outcome.state_changes == ref.state_changes
        for tx_id, res in outcome.results_by_id().items():
            ref_res = ref.results_by_id()[tx_id]
            assert res.read_values == ref_res.read_values
            assert res.written_values == ref_res.written_values
        # results come in finish order, ties broken by id
        finish = finish_times(s, {tx.id: tx.length for tx in block.txs})
        assert [r.tx_id for r in outcome.results] == sorted(
            range(s.n), key=lambda v: (finish[v], v)
        )


def test_stress_determinism_chain():
    block = chain_block(6)
    g = build_conflict_graph(block)
    s = level_schedule([(0, 2, 4), (1, 3, 5)], g)
    report = stress_determinism(block, s, EMPTY, trials=30, max_jitter_us=120)
    assert report.ok, report.diff


def test_stress_determinism_single_tx():
    block = make_block([make_tx(0, writes={"x"}, kind=ProgramKind.WRITE_CONST, const=3)])
    s = GraphSchedule(n=1, edges=frozenset())
    assert stress_determinism(block, s, EMPTY, trials=2).ok


def test_stress_determinism_requires_trials():
    block = chain_block(2)
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    with pytest.raises(ValidationError):
        stress_determinism(block, s, EMPTY, trials=1)


def counting_handle():
    built = []

    def factory(*args, **kwargs):
        built.append(kwargs)
        return GraphExecutionHandle(*args, **kwargs)

    return factory, built


def test_stress_determinism_rejects_an_invalid_schedule_before_any_trial():
    factory, built = counting_handle()
    unordered = GraphSchedule(n=2, edges=frozenset())
    with pytest.raises(ValidationError):
        stress_determinism(writer_reader_block(), unordered, EMPTY, trials=5, handle=factory)
    assert built == []


@pytest.mark.parametrize(
    "path", ["execute_graph_schedule", "simulate_execution", "stress_determinism", "process_block"]
)
def test_an_unordered_conflict_has_one_text(path):
    block = writer_reader_block()
    unordered = GraphSchedule(n=2, edges=frozenset())
    run = {
        "execute_graph_schedule": lambda: execute_graph_schedule(block, unordered, EMPTY),
        "simulate_execution": lambda: simulate_execution(block, unordered, EMPTY),
        "stress_determinism": lambda: stress_determinism(block, unordered, EMPTY, trials=2),
        "process_block": lambda: process_block(runner_planning(GraphPlan(unordered)), block, EMPTY),
    }[path]
    with pytest.raises((ValidationError, InvariantError)) as info:
        run()
    error = info.value
    if path == "process_block":  # a runner's bad plan: chained to the check's error
        assert type(error) is InvariantError
        error = error.__cause__
    assert type(error) is ValidationError
    assert str(error) == "some conflicting pair has no dependency path"


def test_stress_determinism_builds_one_handle_per_trial():
    factory, built = counting_handle()
    block = chain_block(6)
    s = level_schedule([(0, 2, 4), (1, 3, 5)], build_conflict_graph(block))
    report = stress_determinism(block, s, EMPTY, trials=7, max_jitter_us=50, seed=3, handle=factory)
    assert report.ok and report.trials_run == 7
    assert built == [
        {"jitter_seed": stable_seed(3, trial), "max_jitter_us": 50} for trial in range(7)
    ]


def test_blocking_entry_points_take_no_jitter_options():
    block = writer_reader_block()
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    with pytest.raises(TypeError):
        execute_graph_schedule(block, s, EMPTY, jitter_seed=1)
    with pytest.raises(TypeError):
        execute_batch_schedule(block, BatchSchedule(((0,), (1,))), EMPTY, max_jitter_us=1)
    assert not hasattr(executor, "execute_graph_schedule_broken")


def test_broken_executor_is_caught():
    block = chain_block(8)
    g = build_conflict_graph(block)
    s = level_schedule([(0, 2, 4, 6), (1, 3, 5, 7)], g)
    report = stress_determinism(
        block, s, EMPTY, trials=60, max_jitter_us=200, handle=EarlyReleaseHandle
    )
    assert not report.ok
    assert report.diff


def test_trace_intervals_disjoint_for_conflicts():
    block = chain_block(10)
    g = build_conflict_graph(block)
    s = level_schedule([tuple(range(0, 10, 2)), tuple(range(1, 10, 2))], g)
    for trial in range(5):
        handle = GraphExecutionHandle(
            block, s, EMPTY, trace=True, jitter_seed=trial, max_jitter_us=150
        )
        handle.outcome()
        intervals = {tx_id: (start, end) for tx_id, start, end in handle.trace}
        for u, v in g.edges:
            su, eu = intervals[u]
            sv, ev = intervals[v]
            assert eu <= sv or ev <= su, f"conflicting {u},{v} overlapped"


def greedy_level_schedule(block):
    g = build_conflict_graph(block)
    return level_schedule(partition_from_coloring(greedy_coloring(g, descending_degree_order(g))), g)


@pytest.mark.parametrize("max_workers", [MAX_WORKERS, 1])
def test_raising_transaction_fails_graph_execution(monkeypatch, max_workers):
    block = gen_block(WorkloadSpec(n_txs=24, key_universe=6, seed=8))
    s = greedy_level_schedule(block)
    inject_tx_failure(monkeypatch, bad_id=5)
    monkeypatch.setattr(executor, "MAX_WORKERS", max_workers)
    with pytest.raises(InvariantError, match="tx 5") as info:
        run_bounded(lambda: execute_graph_schedule(block, s, EMPTY))
    assert isinstance(info.value.__cause__, RuntimeError)


def test_raising_transaction_fails_batch_execution(monkeypatch):
    block = gen_block(WorkloadSpec(n_txs=24, key_universe=6, seed=8))
    g = build_conflict_graph(block)
    b = BatchSchedule(partition_from_coloring(greedy_coloring(g, descending_degree_order(g))))
    inject_tx_failure(monkeypatch, bad_id=5)
    with pytest.raises(InvariantError, match="tx 5"):
        run_bounded(lambda: execute_batch_schedule(block, b, EMPTY))


def test_stress_more_workers_than_cores(monkeypatch):
    workers = (os.cpu_count() or 1) + 4
    monkeypatch.setattr(executor, "MAX_WORKERS", workers)
    block = gen_block(WorkloadSpec(n_txs=max(96, 4 * workers), key_universe=12, seed=31))
    s = greedy_level_schedule(block)
    ref = execute_sequential(block, s.topo_order(), EMPTY)
    want = {i: (r.read_values, r.written_values) for i, r in ref.results_by_id().items()}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            # jitter wakes every helper at once: more threads than cores run
            jittered = GraphExecutionHandle(block, s, EMPTY, jitter_seed=trial, max_jitter_us=20)
            for run in (lambda: execute_graph_schedule(block, s, EMPTY), lambda: run_handle(jittered)):
                out = run_bounded(run, timeout=60)
                assert out.state_changes == ref.state_changes, f"trial {trial}"
                got = {i: (r.read_values, r.written_values) for i, r in out.results_by_id().items()}
                assert got == want, f"trial {trial}"
    finally:
        sys.setswitchinterval(old_interval)


def test_batch_engine_matches_sequential_under_jitter():
    # C3 runs every runner's plan on the graph engine (batches become
    # batch_to_graph edges); this drives the barrier engine itself
    def without_barrier(block, schedule, state, **jitter):
        return GraphExecutionHandle(
            block, GraphSchedule(n=schedule.n, edges=frozenset()), state, **jitter
        )

    missing_barrier_caught = False
    for i in range(8):
        block = gen_block(
            WorkloadSpec(
                n_txs=16,
                key_universe=6,
                length_mode="heterogeneous",
                seed=stable_seed("batch-jitter", i),
            )
        )
        g = build_conflict_graph(block)
        batches = BatchSchedule(
            partition_from_coloring(greedy_coloring(g, descending_degree_order(g)))
        )

        def run_batches(block, schedule, state, **jitter):
            return BatchExecutionHandle(block, batches, state, **jitter)

        baseline = batch_to_graph(batches)
        report = stress_determinism(
            block, baseline, EMPTY, trials=25, max_jitter_us=80, seed=i, handle=run_batches
        )
        assert report.ok, report.diff
        if not missing_barrier_caught:
            missing_barrier_caught = not stress_determinism(
                block, baseline, EMPTY, trials=25, max_jitter_us=80, seed=i,
                handle=without_barrier,
            ).ok
    # negative control: the same jitter exposes a run that skips the barrier
    assert missing_barrier_caught
