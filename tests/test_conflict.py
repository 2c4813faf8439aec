import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksched.conflict import ConflictGraph, build_conflict_graph, conflicts, dump_edges
from blocksched.errors import ValidationError
from blocksched.workload import WorkloadSpec, chain_block, gen_block

from conftest import make_block, make_tx


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
        assert g.are_adjacent(u, v) and g.are_adjacent(v, u)


def test_non_canonical_edges_rejected():
    with pytest.raises(ValidationError):
        ConflictGraph(n=2, edges=frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        ConflictGraph(n=2, edges=frozenset({(0, 2)}))


def test_dump_edges_format():
    g = ConflictGraph(n=3, edges=frozenset({(1, 2), (0, 2)}))
    assert dump_edges(g) == "0 2\n1 2\n"


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 300),
    universe=st.integers(4, 60),
    conflict_p=st.none() | st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32),
)
def test_built_graph_equals_checked_construction(n, universe, conflict_p, seed):
    block = gen_block(WorkloadSpec(n_txs=n, key_universe=universe, conflict_p=conflict_p, seed=seed))
    g = build_conflict_graph(block)
    checked = ConflictGraph(n=g.n, edges=g.edges)
    assert g == checked
    assert type(g.edges) is frozenset
    assert g.neighbors == checked.neighbors
    assert g.adj_bits == checked.adj_bits
