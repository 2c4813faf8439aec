import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from blocksched.conflict import build_conflict_graph
from blocksched.errors import ValidationError
from blocksched.model import block_hash, block_to_text
from blocksched.workload import (
    WorkloadSpec,
    block_from_graph,
    chain_block,
    gen_block,
    gen_commutative_block,
    gen_stream,
    gnp_edges,
)
from blocksched.analysis import gnp_graph

from conftest import random_graph


def test_chain_block_is_a_path():
    g = build_conflict_graph(chain_block(5))
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_homogeneous_lengths_constant():
    block = gen_block(WorkloadSpec(n_txs=10, length_mode="homogeneous", length_base=4, seed=1))
    assert {tx.length for tx in block.txs} == {4}


def test_epsilon_lengths_within_band():
    spec = WorkloadSpec(n_txs=40, length_mode="epsilon", length_base=10, length_epsilon=3, seed=2)
    lengths = [tx.length for tx in gen_block(spec).txs]
    assert max(lengths) - min(lengths) <= 3
    assert min(lengths) >= 10


def test_heterogeneous_lengths_from_choices():
    spec = WorkloadSpec(n_txs=30, length_mode="heterogeneous", length_choices=(1, 10), seed=3)
    assert set(tx.length for tx in gen_block(spec).txs) <= {1, 10}


def test_same_seed_identical_blocks():
    spec = WorkloadSpec(n_txs=12, seed=99)
    assert block_to_text(gen_block(spec)) == block_to_text(gen_block(spec))


def test_stream_chains_seq_and_hash():
    specs = [WorkloadSpec(n_txs=4, seed=i) for i in range(3)]
    blocks = gen_stream(specs)
    assert [b.seq for b in blocks] == [0, 1, 2]
    for prev, cur in zip(blocks, blocks[1:]):
        assert cur.prev_hash == block_hash(prev)


def test_stream_regeneration_is_identical():
    specs = [WorkloadSpec(n_txs=5, seed=i) for i in range(3)]
    a = "".join(block_to_text(b) for b in gen_stream(specs))
    b = "".join(block_to_text(b) for b in gen_stream(specs))
    assert a == b


def test_empty_stream():
    assert gen_stream([]) == []


def test_conflict_p_density_matches_request():
    n, p = 40, 0.2
    spec = WorkloadSpec(n_txs=n, conflict_p=p, seed=5)
    g = build_conflict_graph(gen_block(spec))
    pairs = n * (n - 1) / 2
    sigma = math.sqrt(pairs * p * (1 - p))
    assert abs(len(g.edges) - pairs * p) <= 4 * sigma


def test_block_from_graph_round_trips():
    g = gnp_graph(9, 0.4, seed=11)
    block = block_from_graph(g, [1] * 9, include_reads=True)
    assert build_conflict_graph(block) == g


def test_spec_validation():
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=-1)
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=1, length_mode="bogus")
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=1, read_size=(2, 1))
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=1, key_universe=2, write_size=(0, 3))
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=1, conflict_p=1.5)


def test_commutative_block_is_executable_and_conflicted():
    block = gen_commutative_block(14, seed=4)
    g = build_conflict_graph(block)
    assert g.edges  # conflicts are present, not a degenerate workload


def test_gnp_edges_matches_the_independent_drawer():
    # same edges and the same rng state after the call, so every caller
    # keeps its random stream
    for seed in range(50):
        for n, p in [(0, 0.5), (1, 0.5), (7, 0.0), (12, 1.0), (30, 0.1), (40, 0.5)]:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert gnp_edges(ours, n, p) == random_graph(theirs, n, p).edges
            assert ours.random() == theirs.random()


# Probabilities at the edges of the drawer's exact arithmetic: at and around a
# boundary of the top byte it classifies on (j / 256), single units of 2**-53,
# a hair on either side of 1/2, tiny, out of range, infinite and NaN.
_EDGE_PS = [j / 256 for j in (1, 2, 13, 128, 255)] + [
    2**-53,
    3 * 2**-53,
    13 * 2**45 * 2**-53,
    (13 * 2**45 + 1) * 2**-53,
    (13 * 2**45 - 1) * 2**-53,
    0.5 + 2**-30,
    0.5 - 2**-30,
    1e-9,
    -0.25,
    -math.inf,
    1.5,
    math.inf,
    math.nan,
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 300),
    p=st.sampled_from(_EDGE_PS + ["first-draw", "above-first-draw"]),
)
@example(seed=7, n=2, p="first-draw")
@example(seed=7, n=2, p="above-first-draw")
@example(seed=11, n=300, p="first-draw")
def test_gnp_edges_matches_the_independent_drawer_at_edge_probabilities(seed, n, p):
    if p == "first-draw":  # the pair (0, 1) draws exactly p, which is not below p
        p = random.Random(seed).random()
    elif p == "above-first-draw":  # the next float up: (0, 1) is an edge
        p = math.nextafter(random.Random(seed).random(), 1.0)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert gnp_edges(ours, n, p) == random_graph(theirs, n, p).edges
    assert ours.random() == theirs.random()
