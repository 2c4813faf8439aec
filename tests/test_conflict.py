import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksched.analysis import gnp_graph, ratio_sample
from blocksched.conflict import ConflictGraph, build_conflict_graph, conflicts, dump_edges
from blocksched.errors import ValidationError
from blocksched.model import Block, GlobalState, block_from_text, block_to_text
from blocksched.replication import make_runner, plan_block, process_block
from blocksched.schedule import GraphSchedule, latency_stats
from blocksched.workload import WorkloadSpec, chain_block, gen_block

from conftest import assert_rows_match_checked_graph, make_block, make_tx


def edge_set_conflict_graph(block: Block) -> frozenset[tuple[int, int]]:
    """Oracle: the block's conflict edges (u, v), u < v, collected pair by pair
    into a set from per-key writer and reader lists."""
    readers: dict[str, list[int]] = {}
    writers: dict[str, list[int]] = {}
    for tx in block.txs:
        for key in tx.read_set:
            readers.setdefault(key, []).append(tx.id)
        for key in tx.write_set:
            writers.setdefault(key, []).append(tx.id)
    edges: set[tuple[int, int]] = set()
    for key, ws in writers.items():
        for i, u in enumerate(ws):
            for v in ws[i + 1 :]:
                edges.add((u, v) if u < v else (v, u))
            for v in readers.get(key, ()):
                if v != u:
                    edges.add((u, v) if u < v else (v, u))
    return frozenset(edges)


def test_read_write_conflict():
    t1 = make_tx(0, reads={"x"})
    t2 = make_tx(1, writes={"x"})
    assert conflicts(t1, t2)
    assert conflicts(t2, t1)


def test_read_read_is_not_a_conflict():
    t1 = make_tx(0, reads={"x"})
    t2 = make_tx(1, reads={"x"})
    assert not conflicts(t1, t2)


def test_write_write_conflict_via_set_intersection():
    t1 = make_tx(0, writes={"x", "y"})
    t2 = make_tx(1, writes={"y", "z"})
    # oracle: condition (iii) is plain set intersection
    assert bool(t1.write_set & t2.write_set)
    assert conflicts(t1, t2)


def test_conflicts_requires_distinct_ids():
    t = make_tx(3, writes={"x"})
    with pytest.raises(ValidationError):
        conflicts(t, make_tx(3, writes={"y"}))


def test_chain_block_gives_path_graph():
    g = build_conflict_graph(chain_block(4))
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3)]


def test_disjoint_sets_give_no_edges():
    txs = [make_tx(i, reads={f"r{i}"}, writes={f"w{i}"}) for i in range(5)]
    g = build_conflict_graph(make_block(txs))
    assert g.edges == frozenset()


@settings(max_examples=40)
@given(seed=st.integers(0, 100_000))
def test_graph_matches_pairwise_brute_force(seed):
    block = gen_block(WorkloadSpec(n_txs=10, key_universe=5, seed=seed))
    g = build_conflict_graph(block)
    expected = set()
    for i, t1 in enumerate(block.txs):
        for t2 in block.txs[i + 1 :]:
            if (
                t1.read_set & t2.write_set
                or t1.write_set & t2.read_set
                or t1.write_set & t2.write_set
            ):
                expected.add((min(t1.id, t2.id), max(t1.id, t2.id)))
    assert set(g.edges) == expected


def test_graph_is_independent_of_list_order():
    block = gen_block(WorkloadSpec(n_txs=8, key_universe=4, seed=3))
    shuffled = list(block.txs)
    random.Random(0).shuffle(shuffled)
    assert build_conflict_graph(make_block(shuffled)) == build_conflict_graph(block)


def test_duplicate_ids_are_a_hard_error():
    with pytest.raises(ValidationError):
        build_conflict_graph(make_block([make_tx(0), make_tx(0)]))


def test_adjacency_is_sorted_and_symmetric():
    g = ConflictGraph(n=4, edges=frozenset({(0, 3), (0, 1), (1, 3)}))
    assert g.neighbors[0] == (1, 3)
    assert g.neighbors[3] == (0, 1)
    for u, v in g.edges:
        assert v in g.neighbors[u] and u in g.neighbors[v]


def test_non_canonical_edges_rejected():
    with pytest.raises(ValidationError):
        ConflictGraph(n=2, edges=frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        ConflictGraph(n=2, edges=frozenset({(0, 2)}))


def test_dump_edges_format():
    g = ConflictGraph(n=3, edges=frozenset({(1, 2), (0, 2)}))
    assert dump_edges(g) == "0 2\n1 2\n"


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 300),
    data=st.data(),
    length_mode=st.sampled_from(["homogeneous", "heterogeneous"]),
    conflict_p=st.none() | st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_built_graph_equals_checked_construction(n, data, length_mode, conflict_p, seed):
    universe = data.draw(st.integers(2, max(n, 2)), label="key_universe")
    spec = WorkloadSpec(
        n_txs=n, key_universe=universe, length_mode=length_mode, conflict_p=conflict_p, seed=seed
    )
    block = gen_block(spec)
    g = build_conflict_graph(block)
    assert g.n == n
    assert g.edges == edge_set_conflict_graph(block)
    assert_rows_match_checked_graph(g)


def test_timed_paths_never_build_the_edge_view(monkeypatch):
    # the study kernel, the plan-large schedule path and block processing read
    # the rows only: neither a conflict graph nor a schedule builds its edge set
    built = []

    def edges(x):
        built.append((type(x).__name__, x.n))
        return frozenset()

    monkeypatch.setattr(ConflictGraph, "edges", property(edges))
    monkeypatch.setattr(GraphSchedule, "edges", property(edges))
    for n, p in ((300, 0.05), (200, 0.5)):
        ratio_sample(gnp_graph(n, p, 1), n, p)
    for universe in (16, 400):
        block = gen_block(WorkloadSpec(n_txs=400, key_universe=universe, seed=1))
        for name in ("greedy", "order"):
            runner = make_runner(name)
            g = build_conflict_graph(block)
            plan = runner.make_schedule(block.txs, g)
            assert runner.validate_schedule(block.txs, g, plan)
            latency_stats(plan.schedule, {tx.id: tx.length for tx in block.txs})
    block = gen_block(WorkloadSpec(n_txs=60, key_universe=24, seed=2))
    for name in ("min-coloring", "batch"):
        process_block(make_runner(name), block, GlobalState())
    assert built == []


def test_plan_paths_build_no_successors_canonical_order_or_bitsets(monkeypatch):
    # the plan-large schedule path (greedy, order) and plan_block (greedy,
    # batch) prove acyclicity with the producer's order and level a partition
    # on the rows: no successor rows, canonical order or adjacency bitsets
    built = []
    for cls, name in ((GraphSchedule, "succs"), (GraphSchedule, "_topo"), (ConflictGraph, "adj_bits")):
        real = cls.__dict__[name].func

        def view(x, name=name, real=real):
            built.append((name, x.n))
            return real(x)

        monkeypatch.setattr(cls, name, property(view))
    for universe in (16, 400):
        text = block_to_text(gen_block(WorkloadSpec(n_txs=400, key_universe=universe, seed=1)))
        for name in ("greedy", "order"):
            runner = make_runner(name)
            block = block_from_text(text)
            g = build_conflict_graph(block)
            plan = runner.make_schedule(block.txs, g)
            assert runner.validate_schedule(block.txs, g, plan)
            latency_stats(plan.schedule, {tx.id: tx.length for tx in block.txs})
        for name in ("greedy", "batch"):
            plan_block(make_runner(name), block_from_text(text))
    assert built == []


def test_order_plans_and_their_check_build_no_ancestor_bitsets(monkeypatch):
    # on an id-ordered block each row of an order plan is its lower prefix,
    # so every conflicting pair is a direct edge and the check needs no
    # bitsets; a greedy plan's check still builds them
    built = []
    real = GraphSchedule.__dict__["ancestor_bits"].func

    def ancestor_bits(s):
        built.append(s.n)
        return real(s)

    monkeypatch.setattr(GraphSchedule, "ancestor_bits", property(ancestor_bits))
    for universe in (16, 400):
        text = block_to_text(gen_block(WorkloadSpec(n_txs=400, key_universe=universe, seed=1)))
        block = block_from_text(text)
        g = build_conflict_graph(block)
        order = make_runner("order")
        assert order.validate_schedule(block.txs, g, order.make_schedule(block.txs, g))
        plan_block(order, block_from_text(text))
        assert built == []
        greedy = make_runner("greedy")
        assert greedy.validate_schedule(block.txs, g, greedy.make_schedule(block.txs, g))
        assert built == [400]
        built.clear()
