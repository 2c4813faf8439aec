import gc
import json
import threading
from collections import Counter
from dataclasses import asdict

import pytest

from blocksched import conflict, model, replication
from blocksched.coloring import EXACT_COLORING_CAP, EXACT_WEIGHTED_CAP
from blocksched.conflict import build_conflict_graph
from blocksched.errors import CapacityError, InvariantError, ParseError, ValidationError
from blocksched.executor import MAX_WORKERS, execute_sequential, simulate_execution
from blocksched.model import Block, GlobalState, block_from_text, block_hash, block_to_text
from blocksched.replication import (
    BUILTIN_RUNNERS,
    BatchPlan,
    GraphPlan,
    Ledger,
    TxError,
    make_record,
    make_runner,
    plan_block,
    process_block,
    results_digest,
    run_main_loop,
)
from blocksched.schedule import BatchSchedule, GraphSchedule, batch_to_graph, latency
from blocksched.workload import (
    WorkloadSpec,
    chain_block,
    gen_block,
    gen_commutative_block,
    gen_commutative_stream,
    gen_stream,
)

from conftest import make_block, make_tx, inject_tx_failure, run_bounded, runner_planning

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
    # chain_block(3) conflicts on (0, 1) and (1, 2); an edgeless schedule
    # orders neither. A plan of the wrong size is a runner bug too, not bad
    # input: InvariantError, not ValidationError.
    for plan, reason in (
        (GraphPlan(schedule=GraphSchedule(3, edges=())), "some conflicting pair has no dependency path"),
        (None, "plan is a NoneType, not a GraphPlan or BatchPlan"),
        (GraphPlan(schedule=GraphSchedule(2, edges=())), "schedule has 2 vertices, conflict graph has 3"),
        (GraphPlan(schedule=GraphSchedule(4, edges=())), "schedule has 4 vertices, conflict graph has 3"),
        (BatchPlan(batches=BatchSchedule(((0,), (2,))), levels=()), "partition does not cover all vertices"),
        (BatchPlan(batches=BatchSchedule(((0,), (2,), (1, 3))), levels=()), "level 2: vertex 3 out of range"),
    ):
        with pytest.raises(InvariantError) as info:
            process_block(runner_planning(plan), chain_block(3), EMPTY)
        assert str(info.value) == f"runner 'order' produced an invalid schedule: {reason}"
        assert type(info.value.__cause__) is ValidationError
        assert str(info.value.__cause__) == reason


def test_min_coloring_runner_falls_back_above_cap():
    runner = make_runner("min-coloring")
    for n, exact in ((EXACT_COLORING_CAP + 1, False), (EXACT_COLORING_CAP, True)):
        block = chain_block(n)
        plan = runner.make_schedule(block.txs, build_conflict_graph(block))
        assert plan.exact is exact


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
    runner = make_runner("weighted-coloring")
    for n, exact in ((EXACT_WEIGHTED_CAP + 1, False), (EXACT_WEIGHTED_CAP, True)):
        block = chain_block(n)
        plan = runner.make_schedule(block.txs, build_conflict_graph(block))
        assert plan.exact is exact


def test_epsilon_branch_has_the_unweighted_cap():
    # a block within the spread cutoff is colored by exact_min_coloring, so
    # it falls back only above that function's cap, not the weighted one
    runner = make_runner("weighted-coloring", epsilon_cutoff=0)
    block = chain_block(EXACT_WEIGHTED_CAP + 1)
    plan = runner.make_schedule(block.txs, build_conflict_graph(block))
    assert (plan.coloring_mode, plan.exact) == ("exact", True)
    # the fallback keeps the branch's label: it never tried the weighted search
    block = chain_block(EXACT_COLORING_CAP + 1)
    plan = runner.make_schedule(block.txs, build_conflict_graph(block))
    assert (plan.coloring_mode, plan.exact) == ("exact", False)


# 267 conflict edges; greedy's 12 colors are optimal, but proving it takes the
# exact search more than EXACT_SEARCH_BUDGET units
OVER_BUDGET_SPEC = WorkloadSpec(n_txs=34, key_universe=8, seed=29)


def test_min_coloring_falls_back_to_greedy_over_the_search_budget():
    block = gen_block(OVER_BUDGET_SPEC)
    runner = make_runner("min-coloring")
    first = plan_block(runner, block)
    assert (first.coloring_mode, first.exact) == ("exact", False)
    assert first.levels == plan_block(make_runner("greedy"), block).levels
    assert plan_block(runner, block) == first


def test_batch_runner_matches_greedy_runner_state():
    block = gen_block(WorkloadSpec(n_txs=9, key_universe=5, seed=13))
    batch_changes, _ = process_block(make_runner("batch"), block, EMPTY)
    greedy_changes, _ = process_block(make_runner("greedy"), block, EMPTY)
    assert batch_changes == greedy_changes


def test_make_runner_rejects_unknown_name():
    with pytest.raises(ValidationError):
        make_runner("nope")


# an epsilon cutoff means something only to weighted-coloring, and only when
# it is not negative
BAD_EPSILON_CUTOFFS = {
    "order": (0, "only to the weighted-coloring runner, not 'order'"),
    "greedy": (-5, "only to the weighted-coloring runner, not 'greedy'"),
    "min-coloring": (0, "only to the weighted-coloring runner, not 'min-coloring'"),
    "weighted-coloring": (-1, "epsilon cutoff must be >= 0, got -1"),
    "batch": (3, "only to the weighted-coloring runner, not 'batch'"),
}


@pytest.mark.parametrize("name", RUNNER_NAMES)
def test_bad_epsilon_cutoff_leaves_the_ledger_untouched(tmp_path, name):
    cutoff, message = BAD_EPSILON_CUTOFFS[name]
    ledger = tmp_path / "ledger"
    blocks = gen_stream(stream_specs(3))
    run_main_loop(make_runner("greedy"), blocks, EMPTY, ledger)
    before = ledger.read_bytes()
    with pytest.raises(ValidationError, match=message):
        run_main_loop(make_runner(name, epsilon_cutoff=cutoff), blocks, EMPTY, ledger)
    assert ledger.read_bytes() == before


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


# Final record digest and state digest of each runner over a heterogeneous
# 20-block stream. On this stream the exact search runs past the clique bound
# on 14 blocks and the minimal coloring differs from greedy on 7, so a change
# to either exact search's color vectors shows up here.
GOLDEN_LEDGERS = {
    "order": (
        "c37a587f35be79af84b25128fe4a09bf0f91f9e8e13de4db535f0099bd122b70",
        "4477ceb226c87277d479762613342d9914519fcdd90a56e2d521a37cd1836447",
    ),
    "greedy": (
        "64a2a176f03e8abe948209666308755c6f223d4093174769f2734aa6aecce1c8",
        "f8bcc2a4760ac7d96af418edb241123be1d07d76463269a6b81b83d4f70dbd4b",
    ),
    "min-coloring": (
        "5f936703a8d3dff4c3620074ace4294459068b4077360419988e77480744db5f",
        "32676978ff0010bdb2312db10c14fa74c3b742d81409199b49177435dacf6723",
    ),
    "weighted-coloring": (
        "cb6dbbd7921a7bbb335ab136446957138b5e3e56910da2719de5639e169b8776",
        "953acad49ca3ffd3801fa889c052e15ac453a6454f262351a12103aac0028167",
    ),
    "batch": (
        "64a2a176f03e8abe948209666308755c6f223d4093174769f2734aa6aecce1c8",
        "f8bcc2a4760ac7d96af418edb241123be1d07d76463269a6b81b83d4f70dbd4b",
    ),
}


@pytest.mark.parametrize("name", RUNNER_NAMES)
def test_main_loop_golden_ledger(tmp_path, name):
    blocks = gen_stream(
        WorkloadSpec(n_txs=20, key_universe=8, length_mode="heterogeneous", seed=s)
        for s in range(20)
    )
    final = run_main_loop(make_runner(name), blocks, EMPTY, tmp_path / "ledger")
    record_digest = Ledger(tmp_path / "ledger").load()[-1].record_digest
    assert (record_digest, final.digest()) == GOLDEN_LEDGERS[name]


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


def test_resume_onto_a_missing_ledger_matches_a_plain_run(tmp_path):
    blocks = gen_commutative_stream(5, n=8, seed=3)
    plain = run_main_loop(make_runner("min-coloring"), blocks, EMPTY, tmp_path / "plain")
    fresh = tmp_path / "fresh"
    resumed = run_main_loop(make_runner("min-coloring"), blocks, EMPTY, fresh, resume=True)
    assert resumed == plain
    assert fresh.read_bytes() == (tmp_path / "plain").read_bytes()


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


def test_ledger_rejects_an_edited_record_of_valid_length(tmp_path):
    blocks = gen_stream(stream_specs(3, n=4))
    path = tmp_path / "ledger"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, path)
    full = path.read_bytes()
    start = record_offsets(full)[1]
    at = full.index(b'"block_hash":"', start) + len(b'"block_hash":"')
    raw = bytearray(full)
    raw[at] = ord("0") if raw[at] != ord("0") else ord("1")  # still one hex digit
    path.write_bytes(bytes(raw))
    for read in (Ledger(path).load, Ledger(path).recover):
        with pytest.raises(ParseError, match="ledger record 1: digest chain broken"):
            read()
        assert path.read_bytes() == bytes(raw)


def test_ledger_rejects_a_sequence_gap(tmp_path):
    ledger = Ledger(tmp_path / "ledger")
    first = make_record(Ledger.GENESIS_DIGEST, 0, "h0", "r0", "s0")
    ledger.append(first)
    ledger.append(make_record(first.record_digest, 2, "h2", "r2", "s2"))
    with pytest.raises(ParseError, match="ledger record 1: sequence gap"):
        ledger.load()


@pytest.mark.parametrize(
    "seq, drop",
    [("0", None), (False, None), (0, "record_digest")],
    ids=["string-seq", "bool-seq", "no-record-digest"],
)
def test_ledger_rejects_a_malformed_record_with_an_intact_chain(tmp_path, seq, drop):
    # every digest is right, so only the payload check can reject record 0
    first = make_record(Ledger.GENESIS_DIGEST, seq, "h0", "r0", "s0")
    payloads = [asdict(first), asdict(make_record(first.record_digest, 1, "h1", "r1", "s1"))]
    if drop:
        del payloads[0][drop]
    raw = b""
    for obj in payloads:
        data = json.dumps(obj, separators=(",", ":")).encode()
        raw += len(data).to_bytes(4, "big") + data
    path = tmp_path / "ledger"
    path.write_bytes(raw)
    for read in (Ledger(path).load, Ledger(path).recover):
        with pytest.raises(ParseError, match="ledger record 0: malformed payload"):
            read()
        assert path.read_bytes() == raw


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
    block = chain_block(3)
    bad = BatchPlan(batches=BatchSchedule(batches=((0, 1), (2,))), levels=((0, 1), (2,)))
    reason = "level 0 is not conflict-free: pair (0, 1) conflicts"
    with pytest.raises(InvariantError) as info:
        plan_block(runner_planning(bad, "batch"), block)
    assert str(info.value) == f"runner 'batch' produced an invalid schedule: {reason}"
    assert type(info.value.__cause__) is ValidationError
    assert str(info.value.__cause__) == reason
    # the benchmark's bool form of the same check
    assert not make_runner("batch").validate_schedule(block.txs, build_conflict_graph(block), bad)


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


# upper-case options are coloring constants, patched for the run; the others
# are make_runner keywords
@pytest.mark.parametrize(
    "name, options, reached",
    [
        ("order", {}, {"total_order_schedule", "is_valid_schedule", "GraphExecutionHandle"}),
        ("greedy", {}, GREEDY | LEVELS),
        ("min-coloring", {}, {"exact_min_coloring"} | LEVELS),
        ("min-coloring", {"EXACT_COLORING_CAP": 2}, {"exact_min_coloring"} | GREEDY | LEVELS),
        ("weighted-coloring", {}, LEVELS),
        ("weighted-coloring", {"epsilon_cutoff": 10**6}, {"exact_min_coloring"} | LEVELS),
        ("weighted-coloring", {"EXACT_WEIGHTED_CAP": 2}, GREEDY | LEVELS),
        ("batch", {}, GREEDY | {"BatchExecutionHandle"}),
    ],
)
def test_runners_call_the_traced_module_globals(monkeypatch, tmp_path, name, options, reached):
    calls = Counter()
    kwargs = {}
    for key, value in options.items():
        if key.isupper():
            monkeypatch.setattr(f"blocksched.coloring.{key}", value)
        else:
            kwargs[key] = value

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
    run_main_loop(make_runner(name, **kwargs), blocks, EMPTY, tmp_path / "ledger")
    assert set(calls) == reached | {"build_conflict_graph", "block_hash"}
    assert all(count == len(blocks) for count in calls.values()), calls


# ---------------------------------------------------------------------------
# The three planning calls that pause cyclic GC: block_from_text,
# build_conflict_graph and BlockRunner.make_schedule.
# ---------------------------------------------------------------------------

def _record_gc_state(monkeypatch, owner, name, seen):
    """Make ``owner.name`` note whether GC is enabled each time it runs."""
    real = getattr(owner, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)


def _parse(monkeypatch, seen):
    _record_gc_state(monkeypatch, model, "block_from_obj", seen)
    block = gen_block(WorkloadSpec(n_txs=30, key_universe=10, seed=5))
    assert block_from_text(block_to_text(block)) == block


def _parse_bad_json(monkeypatch, seen):
    with pytest.raises(ParseError):
        block_from_text('{"seq": 0,')


def _build_with_duplicate_ids(monkeypatch, seen):
    _record_gc_state(monkeypatch, conflict, "validate_block", seen)
    with pytest.raises(ValidationError, match="duplicate transaction ids"):
        build_conflict_graph(make_block([make_tx(0), make_tx(0)]))


def _min_coloring_fallback(monkeypatch, seen):
    def over_budget(g):
        seen.append(gc.isenabled())
        raise CapacityError("over the search budget")

    monkeypatch.setattr(replication, "exact_min_coloring", over_budget)
    _record_gc_state(monkeypatch, replication, "greedy_coloring", seen)
    block = chain_block(6)
    plan = make_runner("min-coloring").make_schedule(block.txs, build_conflict_graph(block))
    assert (plan.coloring_mode, plan.exact) == ("exact", False)


@pytest.mark.parametrize(
    "call", [_parse, _parse_bad_json, _build_with_duplicate_ids, _min_coloring_fallback]
)
def test_paused_calls_run_without_gc_and_enable_it_again(monkeypatch, call):
    assert gc.isenabled()
    seen = []
    call(monkeypatch, seen)
    assert seen == [False] * len(seen)
    assert gc.isenabled()


def test_paused_calls_leave_gc_disabled_for_a_caller_that_disabled_it():
    block = gen_block(WorkloadSpec(n_txs=30, key_universe=10, seed=5))
    gc.disable()
    try:
        parsed = block_from_text(block_to_text(block))
        assert not gc.isenabled()
        with pytest.raises(ParseError):
            block_from_text("{")
        assert not gc.isenabled()
        g = build_conflict_graph(parsed)
        assert not gc.isenabled()
        with pytest.raises(ValidationError):
            build_conflict_graph(make_block([make_tx(0), make_tx(0)]))
        assert not gc.isenabled()
        for name in RUNNER_NAMES:
            make_runner(name).make_schedule(parsed.txs, g)
            assert not gc.isenabled()
    finally:
        gc.enable()


def test_parsing_a_large_block_starts_no_collection():
    # 2 000 transactions allocate enough containers to set off about 20
    # young collections when GC runs during the parse
    text = block_to_text(gen_block(WorkloadSpec(n_txs=2000, key_universe=2000, seed=1)))
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(note)
    try:
        block = block_from_text(text)
    finally:
        gc.callbacks.remove(note)
    assert len(block) == 2000
    assert starts == []
