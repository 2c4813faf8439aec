import hashlib
import math
import random
import statistics
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from blocksched.conflict import ConflictGraph, build_conflict_graph, dump_edges
from blocksched.errors import ValidationError
from blocksched.model import block_hash, block_to_text
from blocksched.schedule import GraphSchedule
from blocksched.workload import (
    WorkloadSpec,
    block_from_graph,
    chain_block,
    gen_block,
    gen_commutative_block,
    gen_commutative_stream,
    gen_stream,
    gnp_edges,
)
from blocksched.analysis import gnp_graph

from conftest import assert_rows_match_checked_graph


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
    with pytest.raises(ValidationError, match="key_universe must be positive"):
        WorkloadSpec(n_txs=1, key_universe=0)
    # a transaction may read or write two keys
    with pytest.raises(ValidationError, match="set sizes cannot exceed the key universe"):
        WorkloadSpec(n_txs=1, key_universe=1)
    WorkloadSpec(n_txs=1, key_universe=2)
    with pytest.raises(ValidationError):
        WorkloadSpec(n_txs=1, conflict_p=1.5)
    with pytest.raises(ValidationError, match="length_choices must all be >= 1"):
        WorkloadSpec(n_txs=1, length_mode="heterogeneous", length_choices=(0, 5))
    with pytest.raises(ValidationError, match="length_base must be >= 1"):
        WorkloadSpec(n_txs=1, length_base=0)
    with pytest.raises(ValidationError, match="length_epsilon must be >= 0"):
        WorkloadSpec(n_txs=1, length_epsilon=-1)
    with pytest.raises(ValidationError, match="heterogeneous mode needs length_choices"):
        WorkloadSpec(n_txs=1, length_mode="heterogeneous", length_choices=())


@pytest.mark.parametrize(
    "make",
    [
        lambda: GraphSchedule(n=-1, edges=frozenset()),
        lambda: ConflictGraph(n=-2, edges=frozenset()),
        lambda: gen_commutative_block(-3),
    ],
    ids=["graph-schedule", "conflict-graph", "commutative-block"],
)
def test_negative_sizes_are_rejected(make):
    with pytest.raises(ValidationError, match="n must be non-negative"):
        make()


def _chain_digest(blocks):
    """One digest over every block hash of a stream."""
    return hashlib.sha256(b"".join(block_hash(b) for b in blocks)).hexdigest()


# Golden block hashes: the generators' random draws, set sizes and program
# kinds are pinned, so every generated block, stream and ledger stays the same.
GEN_BLOCK_GOLDEN = [
    (
        dict(n_txs=16, key_universe=6, seed=1),
        "af841cdd5714b3f0066b5db3d935dd528bc1ea295df99a313a1f3e5457d07b2e",
    ),
    (
        dict(n_txs=16, key_universe=6, length_mode="epsilon", length_base=10, length_epsilon=3, seed=2),
        "cb4c7bd1c454b7b129121351a35bd4b4649909b2d26a6af3f8df0a6709c124bc",
    ),
    (
        dict(n_txs=16, key_universe=6, length_mode="heterogeneous", seed=3),
        "301b54579a2c3de9d5b4a1b044d0a6e6f14c750b7bb784a973c42611b90fe320",
    ),
    (
        dict(n_txs=16, conflict_p=0.3, length_mode="heterogeneous", seed=4),
        "a71a2af390bd1a1f253c23ee69170ca3de4ecaa5305281b72afa5364769c76b5",
    ),
]


@pytest.mark.parametrize(
    "spec, expected", GEN_BLOCK_GOLDEN, ids=["homogeneous", "epsilon", "heterogeneous", "conflict-p"]
)
def test_gen_block_golden_hash(spec, expected):
    assert block_hash(gen_block(WorkloadSpec(**spec))).hex() == expected


def test_stream_golden_hashes():
    assert _chain_digest(gen_commutative_stream(20, n=10, seed=10)) == (
        "fa27a53c541a5d04b06209c95f09c65a325ef4b5a7928e738cde11bbbd5ba4c2"
    )
    assert _chain_digest(gen_stream([WorkloadSpec(n_txs=8, seed=s) for s in range(5)])) == (
        "5f00ef51ab3200850bc3ad1d78b955a2da3dd99e0597966f6a39944a56708812"
    )


def test_commutative_block_is_executable_and_conflicted():
    block = gen_commutative_block(14, seed=4)
    g = build_conflict_graph(block)
    assert g.edges  # conflicts are present, not a degenerate workload


class _CountingRandom(random.Random):
    """``random.Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_gnp_edges_each_pair_is_an_edge_with_probability_p(p):
    n, seeds = 6, 2000
    draws = [gnp_edges(random.Random(seed), n, p).edges for seed in range(seeds)]
    sigma = math.sqrt(p * (1 - p) / seeds)
    for pair in combinations(range(n), 2):
        freq = sum(pair in edges for edges in draws) / seeds
        assert abs(freq - p) <= 5 * sigma, pair


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_gnp_edges_pairs_are_independent(p):
    # every two of the 15 pairs: neighbours in the walk order, pairs a row
    # apart and pairs that share a vertex
    n, seeds = 6, 2000
    draws = [gnp_edges(random.Random(seed), n, p).edges for seed in range(seeds)]
    sigma = math.sqrt(p * p * (1 - p * p) / seeds)
    for a, b in combinations(combinations(range(n), 2), 2):
        freq = sum(a in edges and b in edges for edges in draws) / seeds
        assert abs(freq - p * p) <= 5 * sigma, (a, b)


@pytest.mark.parametrize("p", [0.02, 0.2])
def test_gnp_edges_count_is_binomial(p):
    n, seeds = 200, 500
    pairs = n * (n - 1) // 2
    counts = [len(gnp_edges(random.Random(seed), n, p).edges) for seed in range(seeds)]
    var = pairs * p * (1 - p)
    assert abs(statistics.fmean(counts) - pairs * p) <= 5 * math.sqrt(var / seeds)
    # the sample variance's relative standard error is about sqrt(2 / (seeds - 1))
    assert abs(statistics.variance(counts) / var - 1) <= 5 * math.sqrt(2 / (seeds - 1))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(0, 80), p=st.floats())
@example(seed=1, n=60, p=5e-324)  # the first gap is infinite
@example(seed=1, n=80, p=math.nan)
@example(seed=1, n=80, p=math.inf)
@example(seed=1, n=80, p=-math.inf)
def test_gnp_edges_is_deterministic_and_draws_once_per_edge(seed, n, p):
    ours, again = _CountingRandom(seed), _CountingRandom(seed)
    g = gnp_edges(ours, n, p)
    assert_rows_match_checked_graph(g)
    edges = g.edges
    assert all(0 <= u < v < n for u, v in edges)
    # one draw per edge and one past the last pair; none without a random pair
    assert ours.calls == (len(edges) + 1 if 0 < p < 1 and n >= 2 else 0)
    assert gnp_edges(again, n, p).edges == edges
    assert ours.random() == again.random()


@pytest.mark.parametrize(
    "p, complete",
    [
        (-0.25, False),
        (-math.inf, False),
        (math.nan, False),
        (0.0, False),
        (1.5, True),
        (math.inf, True),
        (1.0, True),
        (math.nextafter(1.0, 0.0), True),
        (2**-53, False),
        (1e-9, False),
        (1e-320, False),  # subnormal: the gap is infinite, and int() of it would raise
        (5e-324, False),
    ],
)
def test_gnp_edges_at_extreme_probabilities(p, complete):
    for n in (0, 1, 2, 40):
        expected = frozenset(combinations(range(n), 2)) if complete else frozenset()
        for seed in range(20):
            assert gnp_edges(random.Random(seed), n, p).edges == expected


# (seed, n, p) -> sha256 of ``dump_edges`` of the draw from random.Random(seed),
# and the rng's next random() after it
GNP_STREAM_GOLDEN = {
    (1, 1000, 0.05): (
        "245425bcad55625567bdf8df68eed9c08c7bad8918684ac890184b6e1aaae534", 0.15724655405341403
    ),
    (2, 2000, 0.01): (
        "8480162a4f9f37cd66c364212af4ed054b7f3eff3d1ae795d38e0207f514ab1b", 0.22754648198857697
    ),
    (3, 300, 0.5): (
        "e2e8d36430028f9c8dfd408603368989789989d60682f3f74cc537a77d95eab0", 0.6292308308797226
    ),
    (4, 40, 1.5): (
        "c17126dfc2bf4e9654da947ef06c37284267ad649153b71122b86a864d05698c", 0.23604808973743452
    ),
    (5, 60, 1e-320): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.7417869892607294
    ),
    (6, 7, 0.3): (
        "1020df73489e3ba1c64321d01361407ef48cbb412d8754c46c1df781eece5e3f", 0.37316037207384156
    ),
}


@pytest.mark.parametrize("seed, n, p", list(GNP_STREAM_GOLDEN))
def test_gnp_edges_stream_golden(seed, n, p):
    rng = random.Random(seed)
    digest = hashlib.sha256(dump_edges(gnp_edges(rng, n, p)).encode()).hexdigest()
    assert (digest, rng.random()) == GNP_STREAM_GOLDEN[seed, n, p]
