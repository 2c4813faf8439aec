import dataclasses
import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from blocksched.coloring import (
    Coloring,
    descending_degree_order,
    exact_min_coloring,
    greedy_coloring,
    partition_from_coloring,
)
from blocksched.conflict import ConflictGraph, build_conflict_graph
from blocksched.errors import InvariantError, ValidationError
from blocksched.executor import execute_batch_schedule
from blocksched.model import GlobalState
from blocksched.replication import BUILTIN_RUNNERS, BatchPlan, make_runner, plan_block
from blocksched.schedule import (
    BatchSchedule,
    GraphSchedule,
    LatencyReport,
    batch_latency,
    batch_to_graph,
    check_partition,
    convert_to_coloring,
    dump_levels,
    dump_schedule,
    finish_times,
    is_valid_schedule,
    latency,
    latency_stats,
    level_schedule,
    reorder_partition,
    size_descending_color_order,
    total_order_schedule,
)
from blocksched.workload import WorkloadSpec, chain_block, gen_block

from conftest import (
    brute_dag_latency,
    make_block,
    make_tx,
    random_graph,
    random_valid_schedule,
    runner_planning,
)


def lengths_of(block):
    return {tx.id: tx.length for tx in block.txs}


def test_schedule_rejects_cycles_and_bad_edges():
    with pytest.raises(ValidationError):
        GraphSchedule(n=2, edges=frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ValidationError):
        GraphSchedule(n=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValidationError):
        GraphSchedule(n=2, edges=frozenset({(0, 2)}))


def test_is_valid_direct_edge():
    g = ConflictGraph(n=2, edges=frozenset({(0, 1)}))
    assert is_valid_schedule(GraphSchedule(n=2, edges=frozenset({(0, 1)})), g)
    assert not is_valid_schedule(GraphSchedule(n=2, edges=frozenset()), g)


def test_is_valid_accepts_indirect_paths():
    g = ConflictGraph(n=3, edges=frozenset({(0, 2)}))
    s = GraphSchedule(n=3, edges=frozenset({(0, 1), (1, 2)}))
    assert is_valid_schedule(s, g)


def test_is_valid_requires_same_vertex_count():
    g = ConflictGraph(n=2, edges=frozenset())
    with pytest.raises(ValidationError):
        is_valid_schedule(GraphSchedule(n=3, edges=frozenset()), g)


def test_latency_single_vertex():
    s = GraphSchedule(n=1, edges=frozenset())
    assert latency(s, {0: 7}) == 7


def test_latency_two_vertex_path():
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    assert latency(s, {0: 5, 1: 1}) == 6


def test_latency_requires_positive_lengths():
    s = GraphSchedule(n=1, edges=frozenset())
    with pytest.raises(ValidationError):
        latency(s, {0: 0})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_latency_matches_path_enumeration(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 8, 0.4)
    s = random_valid_schedule(g, rng)
    lengths = {v: rng.choice([1, 2, 5, 10]) for v in range(8)}
    assert latency(s, lengths) == brute_dag_latency(s, lengths)


def test_level_schedule_chain_evens_then_odds():
    block = chain_block(6)
    g = build_conflict_graph(block)
    s = level_schedule([(0, 2, 4), (1, 3, 5)], g)
    assert is_valid_schedule(s, g)
    assert latency(s, lengths_of(block)) == 2


def test_level_schedule_triangle_skips_covered_edge():
    g = ConflictGraph(n=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}))
    s = level_schedule([(0,), (1,), (2,)], g)
    # 0->2 is redundant once 0->1->2 exists
    assert s.edges == frozenset({(0, 1), (1, 2)})


def test_level_schedule_edgeless_partition():
    g = ConflictGraph(n=3, edges=frozenset())
    s = level_schedule([(0, 1, 2)], g)
    assert s.edges == frozenset()


def test_level_schedule_rejects_conflicting_level():
    g = ConflictGraph(n=2, edges=frozenset({(0, 1)}))
    with pytest.raises(ValidationError, match=r"\(0, 1\)"):
        level_schedule([(0, 1)], g)


def test_level_schedule_requires_full_cover():
    g = ConflictGraph(n=2, edges=frozenset())
    with pytest.raises(ValidationError):
        level_schedule([(0,)], g)


def pair_scan_level_schedule(partition, g):
    """Edge set of the O(n^2) pair-scan level schedule, kept as an oracle for the bitset one."""
    levels = [tuple(sorted(level)) for level in partition]
    edges = set()
    anc = [0] * g.n
    for i in range(len(levels)):
        for j in range(i - 1, -1, -1):
            batch = []
            for u in levels[j]:
                row = g.adj_bits[u]
                for v in levels[i]:
                    if (row >> v) & 1 and not (anc[v] >> u) & 1:
                        batch.append((u, v))
            for u, v in batch:
                edges.add((u, v))
                anc[v] |= anc[u] | (1 << u)
    return frozenset(edges)


def first_conflicting_pair(level, g):
    """The (u, v) pair the pair-scan check reported: first u in id order, then its lowest v."""
    level = sorted(level)
    for a, u in enumerate(level):
        for v in level[a + 1 :]:
            if v in g.neighbors[u]:
                return u, v
    return None


def rejection(check, partition, g):
    """The message of the ValidationError ``check`` raises, or None."""
    try:
        check(partition, g)
    except ValidationError as exc:
        return str(exc)
    return None


def seeded_greedy_partitions(seed, n, density):
    block = gen_block(WorkloadSpec(n_txs=n, key_universe=max(2, n // density), seed=seed))
    g = build_conflict_graph(block)
    coloring = greedy_coloring(g, descending_degree_order(g))
    size_desc = size_descending_color_order(coloring)
    perm = list(range(1, len(size_desc) + 1))
    random.Random(seed).shuffle(perm)
    return g, [partition_from_coloring(coloring), size_desc, reorder_partition(size_desc, perm)]


def broken_partitions(part, g, rng):
    """The partition with one vertex missing, with an out-of-range vertex, and
    with two levels merged (an in-level conflict when the merged pair clashes)."""
    levels = [list(level) for level in part]
    if not levels:
        return [[[g.n]]]
    i = rng.randrange(len(levels))
    dropped = levels[i][1:]
    variants = [
        levels[:i] + ([dropped] if dropped else []) + levels[i + 1 :],
        levels[:-1] + [levels[-1] + [g.n]],
    ]
    if len(levels) >= 2:
        a, b = rng.sample(range(len(levels)), 2)
        variants.append([levels[a] + levels[b]] + [lv for i, lv in enumerate(levels) if i not in (a, b)])
    return variants


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(0, 150), density=st.sampled_from([1, 2, 4]))
def test_level_schedule_matches_pair_scan(seed, n, density):
    g, partitions = seeded_greedy_partitions(seed, n, density)
    rng = random.Random(seed)
    for part in partitions:
        s = level_schedule(part, g)
        assert s.edges == pair_scan_level_schedule(part, g)
        assert is_valid_schedule(s, g)
        # the batch check and level_schedule accept the same partitions and
        # reject the others for the same reason
        for candidate in [part] + broken_partitions(part, g, rng):
            assert rejection(level_schedule, candidate, g) == rejection(
                check_partition, BatchSchedule(candidate).batches, g
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 60), density=st.sampled_from([1, 2, 4]))
def test_conflicting_level_names_the_pair_scan_pair(seed, n, density):
    g, (part, _, _) = seeded_greedy_partitions(seed, n, density)
    rng = random.Random(seed)
    if len(part) < 2:
        return
    a, b = rng.sample(range(len(part)), 2)
    merged = part[a] + part[b]
    rest = [level for i, level in enumerate(part) if i not in (a, b)]
    bad = rest[: len(rest) // 2] + [merged] + rest[len(rest) // 2 :]
    pair = first_conflicting_pair(merged, g)
    if pair is None:
        assert level_schedule(bad, g).edges == pair_scan_level_schedule(bad, g)
        return
    with pytest.raises(ValidationError, match=re.escape(f"pair {pair} conflicts")):
        level_schedule(bad, g)


def test_level_schedule_rejects_overlap_and_out_of_range():
    g = ConflictGraph(n=3, edges=frozenset())
    with pytest.raises(ValidationError, match="vertex 1 appears in more than one level"):
        level_schedule([(0, 1), (1, 2)], g)
    with pytest.raises(ValidationError, match="vertex 1 appears in more than one level"):
        level_schedule([(1, 1), (0, 2)], g)
    with pytest.raises(ValidationError, match="vertex 3 out of range"):
        level_schedule([(0, 1, 2), (3,)], g)


def test_topo_order_returns_a_fresh_list():
    s = GraphSchedule(n=4, edges=frozenset({(2, 0), (0, 1)}))
    order = s.topo_order()
    assert order == [2, 0, 1, 3]
    order.reverse()
    order.append(99)
    assert s.topo_order() == [2, 0, 1, 3]
    assert s.topo_order() is not s.topo_order()


def test_schedule_rejects_a_cycle_behind_an_acyclic_prefix():
    with pytest.raises(ValidationError, match="cycle"):
        GraphSchedule(n=5, edges=frozenset({(3, 0), (0, 1), (1, 2), (2, 0), (2, 4)}))


def test_total_order_chain_is_fully_sequential():
    for n in (2, 5, 9):
        block = chain_block(n)
        g = build_conflict_graph(block)
        s = total_order_schedule(block.txs, g)
        assert latency(s, lengths_of(block)) == n


def test_total_order_without_conflicts_is_empty():
    txs = [make_tx(i, writes={f"w{i}"}, length=3 + i) for i in range(3)]
    block = make_block(txs)
    g = build_conflict_graph(block)
    s = total_order_schedule(block.txs, g)
    assert s.edges == frozenset()
    assert latency(s, lengths_of(block)) == 5


def test_total_order_follows_list_positions_not_ids():
    block = chain_block(6)
    reordered = make_block([block.txs[i] for i in (0, 2, 4, 1, 3, 5)])
    g = build_conflict_graph(reordered)
    s = total_order_schedule(reordered.txs, g)
    assert latency(s, lengths_of(block)) == 2


def test_total_order_keeps_all_conflict_edges():
    block = chain_block(5)
    g = build_conflict_graph(block)
    s = total_order_schedule(block.txs, g)
    assert len(s.edges) == len(g.edges)


def test_total_order_rejects_a_size_mismatch():
    block = chain_block(5)
    with pytest.raises(ValidationError, match="block has 4 transactions, conflict graph has 5"):
        total_order_schedule(block.txs[:4], build_conflict_graph(block))


def test_batch_to_graph_rejects_ids_that_skip_a_vertex():
    with pytest.raises(ValidationError, match=r"^level 1: vertex 2 out of range$"):
        batch_to_graph(BatchSchedule(batches=((0,), (2,))))


def test_batch_to_graph_two_singletons():
    b = BatchSchedule(batches=((0,), (1,)))
    assert batch_to_graph(b).edges == frozenset({(0, 1)})


def test_batch_latency_and_graph_latency_match_worked_example():
    # batches [{a,d},{b},{c}] with lengths a=5,d=5,b=1,c=2: 5+1+2 = 8
    b = BatchSchedule(batches=((0, 3), (1,), (2,)))
    lengths = {0: 5, 1: 1, 2: 2, 3: 5}
    assert batch_latency(b, lengths) == 8
    assert latency(batch_to_graph(b), lengths) == 8


def test_batch_latency_single_batch_is_max():
    assert batch_latency(BatchSchedule(batches=((0, 1),)), {0: 5, 1: 3}) == 5


def test_batch_latency_homogeneous_counts_batches():
    b = BatchSchedule(batches=((0,), (1,), (2,)))
    assert batch_latency(b, {0: 1, 1: 1, 2: 1}) == 3


# Batch lists for chain_block(3), which conflicts on (0, 1) and (1, 2): each
# is malformed in one way. The reasons are check_partition's over the block's
# conflict graph and over the edgeless graph of the list's own size, which
# is what batch_to_graph checks; over the latter, an uncovered id is out of range.
MALFORMED_BATCH_LISTS = {
    "empty": (((0, 2), (), (1,)), "level 1 is empty", "level 1 is empty"),
    "repeated": (
        ((0, 2), (1, 2)),
        "vertex 2 appears in more than one level",
        "vertex 2 appears in more than one level",
    ),
    "out-of-range": (
        ((0, 2), (1, 4)),
        "level 1: vertex 4 out of range",
        "level 1: vertex 4 out of range",
    ),
    "uncovered": (((0, 2),), "partition does not cover all vertices", "level 0: vertex 2 out of range"),
}


@pytest.mark.parametrize("path", ["execute_batch_schedule", "plan_block", "batch_to_graph", "level_schedule"])
@pytest.mark.parametrize("case", sorted(MALFORMED_BATCH_LISTS))
def test_malformed_batch_list_has_one_text(case, path):
    batches, block_reason, own_size_reason = MALFORMED_BATCH_LISTS[case]
    block = chain_block(3)
    g = build_conflict_graph(block)
    for graph, reason in ((g, block_reason), (ConflictGraph(sum(map(len, batches)), ()), own_size_reason)):
        with pytest.raises(ValidationError, match=f"^{re.escape(reason)}$"):
            check_partition(batches, graph)
    plan = BatchPlan(batches=BatchSchedule(batches), levels=())
    run, reason = {
        "execute_batch_schedule": (
            lambda: execute_batch_schedule(block, BatchSchedule(batches), GlobalState()),
            block_reason,
        ),
        "plan_block": (lambda: plan_block(runner_planning(plan, "batch"), block), block_reason),
        "batch_to_graph": (lambda: batch_to_graph(BatchSchedule(batches)), own_size_reason),
        "level_schedule": (lambda: level_schedule(batches, g), block_reason),
    }[path]
    with pytest.raises((ValidationError, InvariantError)) as info:
        run()
    error = info.value
    if path == "plan_block":  # a runner's bad plan: chained to the check's error
        assert type(error) is InvariantError
        error = error.__cause__
    assert type(error) is ValidationError
    assert str(error) == reason


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_batch_latency_equals_graph_latency(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, 0.4)
    coloring = greedy_coloring(g, descending_degree_order(g))
    levels = list(partition_from_coloring(coloring))
    rng.shuffle(levels)
    b = BatchSchedule(batches=tuple(tuple(lv) for lv in levels))
    lengths = {v: rng.choice([1, 2, 5, 10]) for v in range(n)}
    assert batch_latency(b, lengths) == latency(batch_to_graph(b), lengths)


def test_reorder_partition_identity_and_validation():
    part = ((0, 2), (1,))
    assert reorder_partition(part, [1, 2]) == part
    assert reorder_partition(part, [2, 1]) == ((1,), (0, 2))
    with pytest.raises(ValidationError):
        reorder_partition(part, [1, 1])
    with pytest.raises(ValidationError):
        reorder_partition(part, [0, 1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_minimal_coloring_reorder_keeps_latency(seed):
    # homogeneous blocks: permuting a minimal coloring's levels never moves latency
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    g = random_graph(rng, n, 0.5)
    coloring = exact_min_coloring(g)
    part = partition_from_coloring(coloring)
    lengths = {v: 1 for v in range(n)}
    base = latency(level_schedule(part, g), lengths)
    assert base == coloring.k
    perm = list(range(1, coloring.k + 1))
    rng.shuffle(perm)
    reordered = reorder_partition(part, perm)
    assert latency(level_schedule(reordered, g), lengths) == base


def test_size_descending_color_order_sorts_by_size():
    coloring = Coloring((1, 2, 2, 2, 3, 3))  # sizes 1,3,2
    assert size_descending_color_order(coloring) == ((1, 2, 3), (4, 5), (0,))


def test_size_descending_equal_sizes_keep_color_order():
    coloring = Coloring((1, 2, 3))
    assert size_descending_color_order(coloring) == ((0,), (1,), (2,))


def test_latency_stats_two_vertex_path():
    s = GraphSchedule(n=2, edges=frozenset({(0, 1)}))
    report = latency_stats(s, {0: 1, 1: 1})
    assert finish_times(s, {0: 1, 1: 1}) == [1, 2]
    assert report.block_latency == 2
    assert report.mean_latency == pytest.approx(1.5)
    assert report.p95_latency == 2
    assert [f.name for f in dataclasses.fields(report)] == [
        "block_latency",
        "mean_latency",
        "p95_latency",
    ]


def test_latency_stats_of_an_empty_schedule():
    assert latency_stats(GraphSchedule(n=0, edges=()), {}) == LatencyReport(0, 0.0, 0)


def test_latency_stats_wide_vs_narrow_first_level():
    # star: four leaves conflict with the center only
    g = ConflictGraph(n=5, edges=frozenset((i, 4) for i in range(4)))
    lengths = {v: 1 for v in range(5)}
    wide_first = latency_stats(level_schedule([(0, 1, 2, 3), (4,)], g), lengths)
    narrow_first = latency_stats(level_schedule([(4,), (0, 1, 2, 3)], g), lengths)
    assert wide_first.block_latency == narrow_first.block_latency == 2
    assert wide_first.mean_latency == pytest.approx(1.2)
    assert narrow_first.mean_latency == pytest.approx(1.8)


def test_latency_stats_no_edges_finish_at_own_length():
    s = GraphSchedule(n=3, edges=frozenset())
    report = latency_stats(s, {0: 3, 1: 9, 2: 4})
    assert finish_times(s, {0: 3, 1: 9, 2: 4}) == [3, 9, 4]
    assert report.block_latency == 9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_synthesized_schedules_are_valid(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_graph(rng, n, 0.5)
    coloring = greedy_coloring(g, descending_degree_order(g))
    part = size_descending_color_order(coloring)
    assert is_valid_schedule(level_schedule(part, g), g)
    txs = [make_tx(i, length=1) for i in range(n)]
    assert is_valid_schedule(total_order_schedule(txs, g), g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_level_bound_is_number_of_levels(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_graph(rng, n, 0.5)
    coloring = greedy_coloring(g, descending_degree_order(g))
    part = partition_from_coloring(coloring)
    unweighted = {v: 1 for v in range(n)}
    assert latency(level_schedule(part, g), unweighted) <= len(part)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_level_scheduling_completeness(seed):
    # converting any valid schedule to its depth partition never increases latency
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, 0.5)
    s = random_valid_schedule(g, rng)
    lengths = {v: rng.choice([1, 2, 5, 10]) for v in range(n)}
    assert is_valid_schedule(s, g)
    part = partition_from_coloring(convert_to_coloring(s))
    assert latency(level_schedule(part, g), lengths) <= latency(s, lengths)


def test_dump_formats():
    s = GraphSchedule(n=3, edges=frozenset({(0, 2), (0, 1)}))
    assert dump_schedule(s) == "3 2\n0 1\n0 2\n"
    assert dump_levels([(2, 0), (1,)]) == "0 2\n1\n"


def _checked_equal(s):
    checked = GraphSchedule(n=s.n, edges=s.edges)
    assert s == checked
    assert type(s.edges) is frozenset
    # the edge view is copied from a set: no growth slack in its table
    assert sys.getsizeof(s.edges) == sys.getsizeof(frozenset(set(s.edges)))
    assert s.topo_order() == checked.topo_order()
    assert (s.succs, s.preds, s.ancestor_bits) == (checked.succs, checked.preds, checked.ancestor_bits)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 250),
    universe=st.integers(4, 50),
    conflict_p=st.none() | st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32),
)
def test_built_schedules_equal_checked_construction(n, universe, conflict_p, seed):
    block = gen_block(WorkloadSpec(n_txs=n, key_universe=universe, conflict_p=conflict_p, seed=seed))
    g = build_conflict_graph(block)
    partition = partition_from_coloring(greedy_coloring(g, descending_degree_order(g)))
    _checked_equal(level_schedule(partition, g))
    _checked_equal(total_order_schedule(block.txs, g))
    shuffled = list(block.txs)
    random.Random(seed).shuffle(shuffled)
    _checked_equal(total_order_schedule(shuffled, g))
    _checked_equal(batch_to_graph(BatchSchedule(partition)))


def test_trusted_schedule_still_rejects_a_cycle():
    # no order of a cycle lists every vertex after its predecessors, so each
    # supplied order falls back to the canonical check
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0], [0, 0, 0], [], [0, 1, 2, 3], [-1, 0, 1]):
        with pytest.raises(ValidationError, match="cycle"):
            GraphSchedule._of_preds([[2], [0], [1]], order)


def views_along(s, order, lengths):
    """Ancestor bitsets, finish times and depths computed by walking ``order``."""
    anc, finish, depth = [0] * s.n, [0] * s.n, [0] * s.n
    for v in order:
        for u in s.preds[v]:
            anc[v] |= anc[u] | (1 << u)
        finish[v] = max((finish[u] for u in s.preds[v]), default=0) + lengths[v]
        depth[v] = 1 + max((depth[u] for u in s.preds[v]), default=0)
    return tuple(anc), finish, tuple(depth)


def views_of(s, lengths):
    return s.ancestor_bits, finish_times(s, lengths), convert_to_coloring(s).colors


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 12))
def test_of_preds_rejects_cyclic_rows_whatever_order(seed, n):
    rng = random.Random(seed)
    s = random_valid_schedule(random_graph(rng, n, 0.5), rng)
    order = s.topo_order()
    i, j = sorted(rng.sample(range(n), 2))
    rows = [set(row) for row in s.preds]
    for a, b in zip(order[i:j], order[i + 1 : j + 1]):
        rows[b].add(a)  # a path order[i] -> ... -> order[j]
    rows[order[i]].add(order[j])  # and back
    rows = [sorted(row) for row in rows]
    shuffled = order[:]
    rng.shuffle(shuffled)
    sources = [v for v in range(n) if not rows[v]] or [0]
    for candidate in (order, order[::-1], shuffled, list(range(n)), sources[:1] * n, order[:-1], order + [n]):
        with pytest.raises(ValidationError, match="cycle"):
            GraphSchedule._of_preds(rows, candidate)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 12))
def test_of_preds_accepts_acyclic_rows_under_a_wrong_order(seed, n):
    rng = random.Random(seed)
    s = random_valid_schedule(random_graph(rng, n, 0.5), rng)
    lengths = {v: rng.choice([1, 2, 5, 10]) for v in range(n)}
    order = s.topo_order()
    shuffled = order[:]
    rng.shuffle(shuffled)
    wrong = (
        order[::-1],
        shuffled,
        [order[0]] * n,  # every predecessor placed, yet not a permutation
        order[:-1],
        order + [order[-1]],
        order[:-1] + [n],
        order[:-1] + [-1],
    )
    for candidate in wrong:
        t = GraphSchedule._of_preds(s.preds, candidate)
        assert t == s
        assert views_of(t, lengths) == views_along(s, order, lengths)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 150), universe=st.integers(4, 40), seed=st.integers(0, 2**32))
def test_producer_views_equal_the_values_along_topo_order(n, universe, seed):
    # the producers' own orders are not the canonical one (levels by size,
    # a shuffled list order), yet every view walked along them is the same
    spec = WorkloadSpec(n_txs=n, key_universe=universe, length_mode="heterogeneous", seed=seed)
    block = gen_block(spec)
    g = build_conflict_graph(block)
    lengths = lengths_of(block)
    levels = size_descending_color_order(greedy_coloring(g, descending_degree_order(g)))
    shuffled = list(block.txs)
    random.Random(seed).shuffle(shuffled)
    for s in (
        level_schedule(levels, g),
        total_order_schedule(shuffled, g),
        batch_to_graph(BatchSchedule(levels)),
    ):
        assert is_valid_schedule(s, g)
        assert views_of(s, lengths) == views_along(s, s.topo_order(), lengths)


# (gen_block spec, sha256 of the ``dump_schedule`` of every built-in runner's
# plan, runners in name order, then of the order schedule of the reversed
# transaction list). Redundant edges never change a ledger, so only these
# digests pin the exact edges each producer emits.
SCHEDULE_GOLDEN = [
    (
        dict(n_txs=0, seed=1),
        "bae1ece52a35dfcc8197a3e535f37f033db1267706ccdda88675996f11a20313",
    ),
    (
        dict(n_txs=1, seed=2),
        "d28bfa312065762a09c95ac6d931f3bf381c84f21a2cbcf7d2b7d3a9c725c03e",
    ),
    (
        dict(n_txs=16, key_universe=6, seed=3),
        "d86854cef88a5fe4d328d0a4167bbd00076e8efecc4098e2dae8b15e81794a9c",
    ),
    (
        dict(n_txs=40, key_universe=8, length_mode="heterogeneous", seed=4),
        "9b18bac6e80601104fc4418a4844881b83b6db971fdbb0fa3d31e5a079cd622f",
    ),
    (
        dict(n_txs=60, key_universe=12, length_mode="epsilon", length_base=10, length_epsilon=3, seed=5),
        "2fd5e7170328082896b098da2f77f48fde01e88098e042d4084189fc838660f7",
    ),
    (
        dict(n_txs=100, key_universe=30, seed=6),
        "b5199d983de647bc4b9276d90938d16f5ce913754a0b73b95d754f6b2924276f",
    ),
    (
        dict(n_txs=120, conflict_p=0.05, length_mode="heterogeneous", seed=7),
        "8542ac7035c140d99f79ac613ca64b080ceccd1f40854ce54286ff381f707933",
    ),
    (
        dict(n_txs=200, key_universe=50, length_mode="heterogeneous", seed=8),
        "71c50a5edd2f6663388f0f3752e47ee05b3acc5a13be3c8d6da17a3ac59c0b9d",
    ),
    (
        dict(n_txs=250, conflict_p=0.02, seed=9),
        "b3035bef3699cbcead90089bba78eedea5425234d2ae453847ff20330146c955",
    ),
    (
        dict(n_txs=300, key_universe=64, length_mode="heterogeneous", seed=10),
        "b9112bcc4c21ce6567fe2cc62ff25410b3f684dec52ffae8c58f72976139d5f3",
    ),
]


def _schedule_digest(block):
    digest = hashlib.sha256()
    for name in sorted(BUILTIN_RUNNERS):
        plan = plan_block(make_runner(name), block)
        s = batch_to_graph(plan.batches) if isinstance(plan, BatchPlan) else plan.schedule
        digest.update(dump_schedule(s).encode())
    reversed_order = total_order_schedule(block.txs[::-1], build_conflict_graph(block))
    digest.update(dump_schedule(reversed_order).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "spec, expected", SCHEDULE_GOLDEN, ids=[f"n{spec['n_txs']}" for spec, _ in SCHEDULE_GOLDEN]
)
def test_schedule_golden(spec, expected):
    assert _schedule_digest(gen_block(WorkloadSpec(**spec))) == expected
