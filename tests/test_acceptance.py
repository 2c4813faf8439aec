"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import random
import time

from blocksched.analysis import (
    connected_graph_catalog,
    gnp_graph,
    hetero_counterexample_search,
    homogeneous_reorder_witness_search,
    optimal_schedule_oracle,
    stable_seed,
    transform_graph_to_block,
    vulnerability_study,
)
from blocksched.coloring import exact_min_coloring, partition_from_coloring
from blocksched.conflict import build_conflict_graph
from blocksched.executor import (
    execute_batch_schedule,
    execute_graph_schedule,
    simulate_execution,
    stress_determinism,
)
from blocksched.model import GlobalState
from blocksched.replication import BatchPlan, GraphPlan, make_runner, run_main_loop
from blocksched.schedule import (
    BatchSchedule,
    batch_latency,
    batch_to_graph,
    latency,
    level_schedule,
    reorder_partition,
)
from blocksched.workload import (
    WorkloadSpec,
    block_from_graph,
    chain_block,
    gen_block,
    gen_commutative_stream,
)

from conftest import EarlyReleaseHandle, random_graph, random_valid_schedule

EMPTY = GlobalState()
RUNNERS = ["order", "greedy", "min-coloring", "batch"]


def lengths_of(block):
    return {tx.id: tx.length for tx in block.txs}


def plan_schedule(runner, block):
    g = build_conflict_graph(block)
    plan = runner.make_schedule(block.txs, g)
    if isinstance(plan, BatchPlan):
        return batch_to_graph(plan.batches)
    return plan.schedule


def test_c01_chain_gap_reproduction():
    started = time.perf_counter()
    for n in (4, 10, 50):
        block = chain_block(n)
        order_latency = latency(plan_schedule(make_runner("order"), block), lengths_of(block))
        min_latency = latency(
            plan_schedule(make_runner("min-coloring"), block), lengths_of(block)
        )
        assert order_latency == n
        assert min_latency == 2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: chain gap n vs 2 for n in (4,10,50) in {elapsed:.2f}s")


def test_c02_latency_preservation():
    rng = random.Random(202)
    for trial in range(500):
        n = rng.randint(1, 12)
        block = gen_block(
            WorkloadSpec(
                n_txs=n,
                key_universe=6,
                length_mode="heterogeneous",
                length_choices=(1, 2, 5, 10, 100),
                seed=stable_seed("c2", trial),
            )
        )
        g = build_conflict_graph(block)
        schedule = random_valid_schedule(g, rng)
        _, makespan = simulate_execution(block, schedule, EMPTY)
        assert makespan == latency(schedule, lengths_of(block))
    print("\nACCEPTANCE 2 PASS: simulated makespan == latency on 500 random pairs")


def test_c03_sequential_determinism():
    rng = random.Random(303)
    blocks = [
        gen_block(
            WorkloadSpec(
                n_txs=rng.randint(1, 32),
                key_universe=8,
                length_mode="heterogeneous",
                length_choices=(1, 2, 5),
                seed=stable_seed("c3", i),
            )
        )
        for i in range(50)
    ]
    for name in RUNNERS:
        runner = make_runner(name)
        for block in blocks:
            schedule = plan_schedule(runner, block)
            report = stress_determinism(
                block, schedule, EMPTY, trials=100, max_jitter_us=80, seed=stable_seed(name)
            )
            assert report.ok, f"{name}: {report.diff}"
    # negative control: the early-release executor must fail the same suite
    broken_caught = False
    for block in blocks:
        schedule = plan_schedule(make_runner("min-coloring"), block)
        report = stress_determinism(
            block,
            schedule,
            EMPTY,
            trials=100,
            max_jitter_us=80,
            handle=EarlyReleaseHandle,
        )
        if not report.ok:
            broken_caught = True
            break
    assert broken_caught, "broken executor passed the determinism suite"
    print("\nACCEPTANCE 3 PASS: 4 runners x 50 blocks x 100 jittered trials, negative control caught")


def test_c04_chromatic_equals_optimal_latency():
    started = time.perf_counter()
    mismatches = 0
    catalog = connected_graph_catalog(6)
    assert len(catalog) == 143
    for g in catalog:
        chi = exact_min_coloring(g).k
        _, best = optimal_schedule_oracle(transform_graph_to_block(g, 1))
        if chi != best:
            mismatches += 1
    rng = random.Random(404)
    for trial in range(200):
        n = rng.randint(4, 10)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        g = gnp_graph(n, p, stable_seed("c4", trial))
        chi = exact_min_coloring(g).k
        _, best = optimal_schedule_oracle(transform_graph_to_block(g, 1))
        if chi != best:
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 4 PASS: chi == MinLt on {len(catalog)} catalog graphs + 200 random, "
        f"0 mismatches, {elapsed:.1f}s"
    )


def test_c05_level_scheduling_completeness():
    from blocksched.schedule import convert_to_coloring, is_valid_schedule

    rng = random.Random(505)
    violations = 0
    for trial in range(300):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        block = block_from_graph(
            g, [rng.choice([1, 2, 5, 10]) for _ in range(n)], include_reads=True
        )
        s = random_valid_schedule(g, rng)
        assert is_valid_schedule(s, g)
        part = partition_from_coloring(convert_to_coloring(s))
        if latency(level_schedule(part, g), lengths_of(block)) > latency(s, lengths_of(block)):
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 5 PASS: level schedule of depth partition never worse on 300 schedules")


def test_c06_reordering_claims():
    rng = random.Random(606)
    changes = 0
    for trial in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        coloring = exact_min_coloring(g)
        part = partition_from_coloring(coloring)
        unit = {v: 1 for v in range(n)}
        base = latency(level_schedule(part, g), unit)
        perm = list(range(1, coloring.k + 1))
        rng.shuffle(perm)
        if latency(level_schedule(reorder_partition(part, perm), g), unit) != base:
            changes += 1
    assert changes == 0
    witness = homogeneous_reorder_witness_search(n_max=6, trials=5000, seed=1)
    assert witness is not None
    print(
        "\nACCEPTANCE 6 PASS: minimal-coloring permutations latency-invariant on 200 blocks; "
        f"non-minimal witness found ({witness.detail})"
    )


def test_c07_heterogeneous_negative_results():
    report = hetero_counterexample_search(n_max=7, trials=10_000, seed=3)
    assert report.found("a"), "no witness for differing minimal-coloring latencies"
    assert report.found("c"), "no witness for suboptimal minimal weighted coloring"
    control = hetero_counterexample_search(
        n_max=7, trials=10_000, seed=3, homogeneous=True, stop_when=None
    )
    assert control.counts["a"] == 0
    print(
        f"\nACCEPTANCE 7 PASS: hetero witnesses (a) at trial {report.witnesses['a'].trial}, "
        f"(c) at trial {report.witnesses['c'].trial}; homogeneous control 0/{control.trials_run}"
    )


def test_c08_vulnerability_study_desk_scale():
    started = time.perf_counter()
    cells = list(vulnerability_study([100], [0.01], samples=100, seed=7))
    low = cells[0].mean_ratio
    cells = list(vulnerability_study([500], [0.05], samples=100, seed=7))
    high = cells[0].mean_ratio
    elapsed = time.perf_counter() - started
    assert low >= 1.3
    assert high > low
    assert elapsed < 120
    print(
        f"\nACCEPTANCE 8 PASS: mean ratio {low:.3f} >= 1.3 at (100, 0.01); "
        f"{high:.3f} at (500, 0.05) confirms growth; {elapsed:.1f}s"
    )


def test_c09_batch_graph_equivalence():
    rng = random.Random(909)
    for trial in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        block = block_from_graph(
            g, [rng.choice([1, 2, 5, 10]) for _ in range(n)], include_reads=True
        )
        coloring = exact_min_coloring(g)
        levels = list(partition_from_coloring(coloring))
        rng.shuffle(levels)
        batches = BatchSchedule(batches=tuple(levels))
        assert batch_latency(batches, lengths_of(block)) == latency(
            batch_to_graph(batches), lengths_of(block)
        )
        batch_out = execute_batch_schedule(block, batches, EMPTY)
        graph_out = execute_graph_schedule(block, batch_to_graph(batches), EMPTY)
        assert batch_out.state_changes == graph_out.state_changes
        assert {
            i: (r.read_values, r.written_values) for i, r in batch_out.results_by_id().items()
        } == {i: (r.read_values, r.written_values) for i, r in graph_out.results_by_id().items()}
    print("\nACCEPTANCE 9 PASS: batch latency and outcomes match graph execution on 300 sequences")


def test_c10_replication_replay(tmp_path):
    blocks = gen_commutative_stream(20, n=10, seed=10)
    digests = {}
    for name in ("min-coloring", "order"):
        final = run_main_loop(make_runner(name), blocks, EMPTY, tmp_path / f"ledger-{name}")
        digests[name] = final.digest()
    assert digests["min-coloring"] == digests["order"]
    interrupted = tmp_path / "interrupted"
    run_main_loop(make_runner("min-coloring"), blocks, EMPTY, interrupted, max_blocks=9)
    resumed = run_main_loop(make_runner("min-coloring"), blocks, EMPTY, interrupted, resume=True)
    assert resumed.digest() == digests["min-coloring"]
    assert interrupted.read_bytes() == (tmp_path / "ledger-min-coloring").read_bytes()
    print("\nACCEPTANCE 10 PASS: 20-block stream digests agree across runners; resume matches")
