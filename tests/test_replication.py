import threading
from collections import Counter

import pytest

from blocksched import replication
from blocksched.conflict import build_conflict_graph
from blocksched.errors import InvariantError, ParseError, ValidationError
from blocksched.executor import MAX_WORKERS, execute_sequential, simulate_execution
from blocksched.model import Block, GlobalState, block_hash
from blocksched.replication import (
    BUILTIN_RUNNERS,
    BatchPlan,
    GraphPlan,
    Ledger,
    TxError,
    make_runner,
    process_block,
    results_digest,
    run_main_loop,
)
from blocksched.schedule import batch_to_graph, latency
from blocksched.workload import (
    WorkloadSpec,
    chain_block,
    gen_block,
    gen_commutative_block,
    gen_commutative_stream,
    gen_stream,
)

from conftest import make_block, make_tx, inject_tx_failure, run_bounded

EMPTY = GlobalState()
RUNNER_NAMES = ["order", "greedy", "min-coloring", "weighted-coloring", "batch"]


def stream_specs(count, base_seed=0, n=8):
    return [
        WorkloadSpec(n_txs=n, key_universe=6, length_mode="heterogeneous", seed=base_seed + i)
        for i in range(count)
    ]


def test_all_runners_agree_with_their_sequential_oracle():
    # every runner's outcome must equal the sequential reference over a
    # topological order of the schedule that runner produced
    block = gen_block(WorkloadSpec(n_txs=10, key_universe=5, seed=77))
    g = build_conflict_graph(block)
    for name in RUNNER_NAMES:
        runner = make_runner(name)
        changes, results = process_block(runner, block, EMPTY)
        plan = runner.make_schedule(block.txs, g)
        s = plan.schedule if isinstance(plan, GraphPlan) else batch_to_graph(plan.batches)
        ref = execute_sequential(block, s.topo_order(), EMPTY)
        assert changes == ref.state_changes
        assert {r.tx_id for r in results} == {tx.id for tx in block.txs}


def test_runners_agree_on_commutative_blocks():
    # different runners serialize conflicts differently, so cross-runner state
    # equality is asserted on blocks whose conflicting effects commute
    block = gen_commutative_block(12, seed=3)
    changes = {
        name: process_block(make_runner(name), block, EMPTY)[0] for name in RUNNER_NAMES
    }
    assert len({tuple(sorted(c.items())) for c in changes.values()}) == 1
    assert any(changes["order"].values())  # the agreement is not vacuous


def test_process_block_empty_block():
    changes, results = process_block(make_runner("min-coloring"), make_block([]), EMPTY)
    assert changes == {}
    assert results == []


def test_process_block_duplicate_ids_all_error():
    bad = make_block([make_tx(0, writes={"x"}), make_tx(0, writes={"y"})])
    changes, results = process_block(make_runner("order"), bad, EMPTY)
    assert changes == {}
    assert len(results) == 2
    assert all(isinstance(r, TxError) for r in results)


def test_process_block_rejects_misbehaving_runner():
    class BadRunner(make_runner("order").__class__):
        def validate_schedule(self, txs, constraints, plan):
            return False

    with pytest.raises(InvariantError):
        process_block(BadRunner(), chain_block(3), EMPTY)


def test_min_coloring_runner_falls_back_above_cap():
    runner = make_runner("min-coloring", exact_cap=3)
    block = chain_block(5)
    g = build_conflict_graph(block)
    plan = runner.make_schedule(block.txs, g)
    assert plan.exact is False
    small = make_runner("min-coloring", exact_cap=16).make_schedule(block.txs, g)
    assert small.exact is True


@pytest.mark.parametrize("name", ["order", "greedy", "batch"])
def test_runners_that_never_try_an_exact_coloring_report_exact_none(name):
    block = chain_block(5)
    plan = make_runner(name).make_schedule(block.txs, build_conflict_graph(block))
    assert plan.exact is None


def test_runner_latencies_on_chain_block():
    block = chain_block(10)
    g = build_conflict_graph(block)
    lengths = {tx.id: tx.length for tx in block.txs}
    min_plan = make_runner("min-coloring").make_schedule(block.txs, g)
    _, makespan = simulate_execution(block, min_plan.schedule, EMPTY)
    assert makespan == latency(min_plan.schedule, lengths) == 2
    order_plan = make_runner("order").make_schedule(block.txs, g)
    _, makespan = simulate_execution(block, order_plan.schedule, EMPTY)
    assert makespan == 10


def test_weighted_runner_prefers_short_color_first():
    # path a-b-c-d with lengths chosen so weighted coloring needs 3 colors
    txs = [
        make_tx(0, writes={"ab"}, length=5),
        make_tx(1, writes={"ab", "bc"}, length=1),
        make_tx(2, writes={"bc", "cd"}, length=2),
        make_tx(3, writes={"cd"}, length=4),
    ]
    block = make_block(txs)
    g = build_conflict_graph(block)
    plan = make_runner("weighted-coloring").make_schedule(block.txs, g)
    assert plan.coloring_mode == "weighted-exact"
    assert len(plan.levels) == 3


def test_weighted_runner_epsilon_cutoff_switches_to_unweighted():
    txs = [
        make_tx(0, writes={"ab"}, length=5),
        make_tx(1, writes={"ab", "bc"}, length=1),
        make_tx(2, writes={"bc", "cd"}, length=2),
        make_tx(3, writes={"cd"}, length=4),
    ]
    block = make_block(txs)
    g = build_conflict_graph(block)
    runner = make_runner("weighted-coloring", epsilon_cutoff=10)
    plan = runner.make_schedule(block.txs, g)
    assert plan.coloring_mode == "exact"
    assert len(plan.levels) == 2  # chromatic number of a path


def test_weighted_runner_falls_back_above_cap():
    block = chain_block(6)
    g = build_conflict_graph(block)
    plan = make_runner("weighted-coloring", weighted_cap=4).make_schedule(block.txs, g)
    assert plan.exact is False


def test_batch_runner_matches_greedy_runner_state():
    block = gen_block(WorkloadSpec(n_txs=9, key_universe=5, seed=13))
    batch_changes, _ = process_block(make_runner("batch"), block, EMPTY)
    greedy_changes, _ = process_block(make_runner("greedy"), block, EMPTY)
    assert batch_changes == greedy_changes


def test_make_runner_rejects_unknown_name():
    with pytest.raises(ValidationError):
        make_runner("nope")


def test_main_loop_runner_digests_agree(tmp_path):
    blocks = gen_commutative_stream(3, n=9, seed=8)
    digests = set()
    for name in RUNNER_NAMES:
        final = run_main_loop(make_runner(name), blocks, EMPTY, tmp_path / f"ledger-{name}")
        digests.add(final.digest())
    assert len(digests) == 1


def test_main_loop_empty_stream(tmp_path):
    state = GlobalState({"x": 3})
    final = run_main_loop(make_runner("order"), [], state, tmp_path / "ledger")
    assert final == state
    assert Ledger(tmp_path / "ledger").load() == []


def test_main_loop_replay_is_byte_identical(tmp_path):
    blocks = gen_stream(stream_specs(4))
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, tmp_path / "a")
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_main_loop_detects_seq_gap(tmp_path):
    blocks = gen_stream(stream_specs(2))
    broken = [blocks[0], Block(seq=5, prev_hash=block_hash(blocks[0]), txs=blocks[1].txs)]
    with pytest.raises(ValidationError, match="gap"):
        run_main_loop(make_runner("order"), broken, EMPTY, tmp_path / "ledger")


def test_main_loop_detects_hash_mismatch(tmp_path):
    blocks = gen_stream(stream_specs(2))
    broken = [blocks[0], Block(seq=1, prev_hash=b"bogus", txs=blocks[1].txs)]
    with pytest.raises(ValidationError, match="prev_hash"):
        run_main_loop(make_runner("order"), broken, EMPTY, tmp_path / "ledger")


def test_main_loop_requires_seq_zero_start(tmp_path):
    blocks = gen_stream(stream_specs(1))
    shifted = [Block(seq=7, prev_hash=blocks[0].prev_hash, txs=blocks[0].txs)]
    with pytest.raises(ValidationError):
        run_main_loop(make_runner("order"), shifted, EMPTY, tmp_path / "ledger")


def test_main_loop_invalid_block_leaves_state_untouched(tmp_path):
    good = gen_stream(stream_specs(1))[0]
    bad_txs = (good.txs[0],) + (good.txs[0],)  # duplicate id
    bad = Block(seq=1, prev_hash=block_hash(good), txs=bad_txs)
    final = run_main_loop(make_runner("order"), [good, bad], EMPTY, tmp_path / "ledger")
    only_good = run_main_loop(make_runner("order"), [good], EMPTY, tmp_path / "ledger2")
    assert final.digest() == only_good.digest()
    records = Ledger(tmp_path / "ledger").load()
    assert len(records) == 2
    assert records[0].state_digest == records[1].state_digest


@pytest.mark.parametrize("name", ["min-coloring", "batch"])
def test_main_loop_records_nothing_for_a_failing_block(tmp_path, monkeypatch, name):
    blocks = gen_stream(stream_specs(3))
    armed = False

    def stream():
        nonlocal armed
        yield blocks[0]
        armed = True  # block 0 is processed and recorded by now
        yield from blocks[1:]

    inject_tx_failure(monkeypatch, bad_id=2, armed=lambda: armed)
    ledger = tmp_path / "ledger"
    with pytest.raises(InvariantError):
        run_bounded(lambda: run_main_loop(make_runner(name), stream(), EMPTY, ledger))
    assert [r.seq for r in Ledger(ledger).load()] == [0]


def test_block_size_does_not_set_thread_count():
    block = gen_block(WorkloadSpec(n_txs=200, key_universe=200, seed=5))
    real_start = threading.Thread.start
    for name in BUILTIN_RUNNERS:
        started = []

        def counting_start(thread):
            started.append(thread)
            return real_start(thread)

        threading.Thread.start = counting_start
        try:
            _, results = process_block(make_runner(name), block, EMPTY)
        finally:
            threading.Thread.start = real_start
        assert len(results) == 200
        assert len(started) <= MAX_WORKERS, f"{name} started {len(started)} threads"


def test_kill_and_resume_matches_uninterrupted(tmp_path):
    blocks = gen_stream(stream_specs(6))
    full = run_main_loop(make_runner("min-coloring"), blocks, EMPTY, tmp_path / "full")
    partial_path = tmp_path / "partial"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, partial_path, max_blocks=3)
    assert len(Ledger(partial_path).load()) == 3
    resumed = run_main_loop(
        make_runner("min-coloring"), blocks, EMPTY, partial_path, resume=True
    )
    assert resumed.digest() == full.digest()
    assert partial_path.read_bytes() == (tmp_path / "full").read_bytes()


def test_resume_detects_divergence(tmp_path):
    blocks = gen_stream(stream_specs(3))
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, tmp_path / "ledger", max_blocks=2)
    other = gen_stream(stream_specs(3, base_seed=50))
    with pytest.raises(ParseError, match="diverged"):
        run_main_loop(make_runner("min-coloring"), other, EMPTY, tmp_path / "ledger", resume=True)


def test_resume_rejects_stream_shorter_than_ledger(tmp_path):
    blocks = gen_stream(stream_specs(5))
    path = tmp_path / "ledger"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path)
    before = path.read_bytes()
    with pytest.raises(ValidationError, match="ledger has 5 records"):
        run_main_loop(make_runner("min-coloring"), blocks[:3], EMPTY, path, resume=True)
    assert path.read_bytes() == before
    # a replay cut short by max_blocks is a deliberate stop, not a short stream
    partial = run_main_loop(
        make_runner("min-coloring"), blocks, EMPTY, path, resume=True, max_blocks=2
    )
    assert partial == run_main_loop(make_runner("min-coloring"), blocks[:2], EMPTY, tmp_path / "two")


def test_ledger_detects_corruption(tmp_path):
    blocks = gen_stream(stream_specs(2))
    path = tmp_path / "ledger"
    run_main_loop(make_runner("order"), blocks, EMPTY, path)
    raw = bytearray(path.read_bytes())
    raw[7] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        Ledger(path).load()


def record_offsets(raw):
    """Start offset of every record in a ledger file."""
    offsets, pos = [], 0
    while pos < len(raw):
        offsets.append(pos)
        pos += 4 + int.from_bytes(raw[pos : pos + 4], "big")
    return offsets


def test_resume_cuts_a_torn_final_record(tmp_path):
    blocks = gen_stream(stream_specs(3, n=4))
    full_path = tmp_path / "full"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, full_path)
    full = full_path.read_bytes()
    last = record_offsets(full)[-1]
    path = tmp_path / "torn"
    for cut in range(last + 1, len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(ParseError, match="truncated"):
            Ledger(path).load()
        run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path, resume=True)
        assert path.read_bytes() == full, f"cut at byte {cut}"


def test_resume_still_rejects_a_corrupt_middle_record(tmp_path):
    blocks = gen_stream(stream_specs(3, n=4))
    path = tmp_path / "ledger"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path)
    full = path.read_bytes()
    start, end = record_offsets(full)[1:3]
    for at in range(start, end):
        raw = bytearray(full)
        raw[at] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path, resume=True)
        assert path.read_bytes() == bytes(raw), f"byte {at} flipped"


def test_fresh_run_over_a_torn_ledger_is_unaffected(tmp_path):
    blocks = gen_stream(stream_specs(3, n=4))
    path = tmp_path / "ledger"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path)
    full = path.read_bytes()
    path.write_bytes(full[:-5])
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path)
    assert path.read_bytes() == full


def test_results_digest_orders_by_id():
    a = results_digest([TxError(tx_id=1, error="x"), TxError(tx_id=0, error="y")])
    b = results_digest([TxError(tx_id=0, error="y"), TxError(tx_id=1, error="x")])
    assert a == b


def test_batch_plan_validation_catches_conflicts():
    runner = make_runner("batch")
    block = chain_block(3)
    g = build_conflict_graph(block)
    from blocksched.schedule import BatchSchedule

    bad = BatchPlan(batches=BatchSchedule(batches=((0, 1), (2,))), levels=((0, 1), (2,)))
    assert not runner.validate_schedule(block.txs, g, bad)


# Module globals of replication that the benchmark's tracer replaces with
# timing wrappers. A runner must look each up when it runs, not bind it at
# import, or the traced run silently reports zero for that layer.
TRACED_GLOBALS = (
    "build_conflict_graph",
    "descending_degree_order",
    "greedy_coloring",
    "exact_min_coloring",
    "level_schedule",
    "total_order_schedule",
    "is_valid_schedule",
    "block_hash",
    "GraphExecutionHandle",
    "BatchExecutionHandle",
)
GREEDY = {"descending_degree_order", "greedy_coloring"}
LEVELS = {"level_schedule", "is_valid_schedule", "GraphExecutionHandle"}


@pytest.mark.parametrize(
    "name, options, reached",
    [
        ("order", {}, {"total_order_schedule", "is_valid_schedule", "GraphExecutionHandle"}),
        ("greedy", {}, GREEDY | LEVELS),
        ("min-coloring", {}, {"exact_min_coloring"} | LEVELS),
        ("min-coloring", {"exact_cap": 2}, {"exact_min_coloring"} | GREEDY | LEVELS),
        ("weighted-coloring", {}, LEVELS),
        ("weighted-coloring", {"epsilon_cutoff": 10**6}, {"exact_min_coloring"} | LEVELS),
        ("weighted-coloring", {"weighted_cap": 2}, GREEDY | LEVELS),
        ("batch", {}, GREEDY | {"BatchExecutionHandle"}),
    ],
)
def test_runners_call_the_traced_module_globals(monkeypatch, tmp_path, name, options, reached):
    calls = Counter()

    def counting(attr, original):
        if isinstance(original, type):
            class Counted(original):
                def __init__(self, *args, **kwargs):
                    calls[attr] += 1
                    super().__init__(*args, **kwargs)

            return Counted

        def counted(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        return counted

    for attr in TRACED_GLOBALS:
        monkeypatch.setattr(replication, attr, counting(attr, getattr(replication, attr)))
    blocks = gen_stream(stream_specs(2))
    run_main_loop(make_runner(name, **options), blocks, EMPTY, tmp_path / "ledger")
    assert set(calls) == reached | {"build_conflict_graph", "block_hash"}
    assert all(count == len(blocks) for count in calls.values()), calls
