import random
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from blocksched.analysis import gnp_graph
from blocksched.coloring import (
    EXACT_COLORING_CAP,
    EXACT_WEIGHTED_CAP,
    Coloring,
    coloring_weight,
    descending_degree_order,
    exact_min_coloring,
    exact_min_weighted_coloring,
    greedy_coloring,
    is_legal,
    partition_from_coloring,
)
from blocksched.conflict import ConflictGraph, build_conflict_graph
from blocksched.errors import CapacityError, ValidationError
from blocksched.schedule import GraphSchedule, convert_to_coloring, is_valid_schedule
from blocksched.workload import WorkloadSpec, gen_block

from conftest import (
    brute_chromatic,
    brute_dag_latency,
    brute_min_weighted_partition,
    random_graph,
    random_valid_schedule,
)


def path_graph(n):
    return ConflictGraph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def complete_graph(n):
    return ConflictGraph(n=n, edges=frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return ConflictGraph(n=n, edges=frozenset(edges))


def test_descending_degree_order_star():
    star = ConflictGraph(n=5, edges=frozenset((0, i) for i in range(1, 5)))
    assert descending_degree_order(star) == [0, 1, 2, 3, 4]


def test_descending_degree_order_ties_by_id():
    assert descending_degree_order(ConflictGraph(n=3, edges=frozenset())) == [0, 1, 2]
    # chain degrees are 1,2,2,1
    assert descending_degree_order(path_graph(4)) == [1, 2, 0, 3]


def test_greedy_edgeless_uses_one_color():
    g = ConflictGraph(n=4, edges=frozenset())
    assert greedy_coloring(g, [0, 1, 2, 3]).k == 1


def test_greedy_triangle_uses_three():
    assert greedy_coloring(complete_graph(3), [2, 0, 1]).k == 3


def test_greedy_path_six_matches_brute_chromatic():
    g = path_graph(6)
    assert brute_chromatic(6, g.edges) == 2
    coloring = greedy_coloring(g, descending_degree_order(g))
    assert coloring.k == 2
    assert is_legal(coloring, g)
    assert not is_legal(coloring, path_graph(7))


def test_greedy_rejects_non_permutation():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        greedy_coloring(g, [0, 1])
    with pytest.raises(ValidationError):
        greedy_coloring(g, [0, 1, 1])


def test_exact_five_cycle_needs_three():
    g = cycle_graph(5)
    assert brute_chromatic(5, g.edges) == 3
    coloring = exact_min_coloring(g)
    assert coloring.k == 3
    assert is_legal(coloring, g)


def test_exact_path_is_two_and_clique_is_n():
    assert exact_min_coloring(path_graph(5)).k == 2
    assert exact_min_coloring(complete_graph(4)).k == 4


def test_exact_cap_raises_capacity_error(monkeypatch):
    g = ConflictGraph(n=EXACT_COLORING_CAP + 1, edges=frozenset())
    with pytest.raises(CapacityError, match=f"capped at {EXACT_COLORING_CAP} vertices"):
        exact_min_coloring(g)
    assert exact_min_coloring(ConflictGraph(n=EXACT_COLORING_CAP, edges=frozenset())).k == 1
    monkeypatch.setattr("blocksched.coloring.EXACT_COLORING_CAP", 4)
    with pytest.raises(CapacityError, match="capped at 4 vertices"):
        exact_min_coloring(path_graph(5))


def five_cycle():
    return ConflictGraph(n=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))


def test_search_budget_counts_each_color_tried(monkeypatch):
    # greedy colors the 5-cycle with 3 colors and its clique bound is 2, so
    # the search tries to 2-color it: the DFS nodes at vertices 0..4 try
    # 1, 2, 3, 3 and 3 colors (the new-color branch included), 12 units
    monkeypatch.setattr("blocksched.coloring.EXACT_SEARCH_BUDGET", 12)
    assert exact_min_coloring(five_cycle()).k == 3
    monkeypatch.setattr("blocksched.coloring.EXACT_SEARCH_BUDGET", 11)
    with pytest.raises(CapacityError, match="exceeded 11 units"):
        exact_min_coloring(five_cycle())
    with pytest.raises(CapacityError, match="exceeded 11 units"):
        exact_min_weighted_coloring(five_cycle(), {v: 1 for v in range(5)})


def test_search_budget_spares_a_graph_whose_clique_proves_greedy(monkeypatch):
    monkeypatch.setattr("blocksched.coloring.EXACT_SEARCH_BUDGET", 0)
    block = gen_block(WorkloadSpec(n_txs=12, key_universe=4, seed=3))
    g = build_conflict_graph(block)
    # no DFS: greedy's clique is as large as greedy's color count
    assert exact_min_coloring(g) == greedy_coloring(g, descending_degree_order(g))
    with pytest.raises(CapacityError):
        exact_min_coloring(five_cycle())


def test_exact_is_deterministic():
    rng = random.Random(5)
    g = random_graph(rng, 9, 0.4)
    assert exact_min_coloring(g).colors == exact_min_coloring(g).colors


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 8), p=st.floats(0.1, 0.9))
def test_exact_matches_brute_chromatic(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    coloring = exact_min_coloring(g)
    assert is_legal(coloring, g)
    assert coloring.k == brute_chromatic(n, g.edges)


@settings(max_examples=30)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 10), p=st.floats(0.1, 0.9))
def test_exact_never_beats_greedy(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    order = list(range(n))
    rng.shuffle(order)
    assert exact_min_coloring(g).k <= greedy_coloring(g, order).k


# The two searches that the shared minimal-weight search replaced, kept as
# oracles: every color vector the ledgers depend on must stay the same.

def _greedy_clique_size(g: ConflictGraph, order: Sequence[int]) -> int:
    clique_bits = 0
    size = 0
    for v in order:
        if clique_bits & ~g.adj_bits[v] == 0:
            clique_bits |= 1 << v
            size += 1
    return size


def oracle_min_coloring(g: ConflictGraph) -> Coloring:
    if g.n == 0:
        return Coloring(())
    order = descending_degree_order(g)
    incumbent = list(greedy_coloring(g, order).colors)
    best_k = max(incumbent)
    lower = _greedy_clique_size(g, order)
    if lower >= best_k:
        return Coloring(tuple(incumbent))

    colors = [0] * g.n
    adj = g.adj_bits

    def dfs(idx: int, used: int) -> None:
        nonlocal best_k, incumbent
        if used >= best_k:
            return
        if idx == g.n:
            best_k = used
            incumbent = colors.copy()
            return
        v = order[idx]
        forbidden = set()
        row = adj[v]
        for u in order[:idx]:
            if (row >> u) & 1:
                forbidden.add(colors[u])
        limit = min(used + 1, best_k - 1)
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            colors[v] = c
            dfs(idx + 1, max(used, c))
            colors[v] = 0
            if best_k <= max(lower, used):
                return

    dfs(0, 0)
    return Coloring(tuple(incumbent))


def oracle_min_weighted_coloring(g: ConflictGraph, lengths: Mapping[int, int]) -> Coloring:
    if g.n == 0:
        return Coloring(())
    order = descending_degree_order(g)
    bound = coloring_weight(greedy_coloring(g, order), {v: lengths[v] for v in range(g.n)})

    best_weight = bound
    incumbent: list[int] | None = None
    colors = [0] * g.n
    color_max: list[int] = []
    adj = g.adj_bits

    def dfs(idx: int, weight: int) -> None:
        nonlocal best_weight, incumbent
        if weight > best_weight or (weight == best_weight and incumbent is not None):
            return
        if idx == g.n:
            # weight <= best_weight here; first hit at a value is lex-smallest
            best_weight = weight
            incumbent = colors.copy()
            return
        v = order[idx]
        row = adj[v]
        forbidden = set()
        for u in order[:idx]:
            if (row >> u) & 1:
                forbidden.add(colors[u])
        lv = lengths[v]
        for c in range(1, len(color_max) + 2):
            if c in forbidden:
                continue
            if c <= len(color_max):
                prev = color_max[c - 1]
                delta = lv - prev if lv > prev else 0
                colors[v] = c
                color_max[c - 1] = max(prev, lv)
                dfs(idx + 1, weight + delta)
                color_max[c - 1] = prev
            else:
                colors[v] = c
                color_max.append(lv)
                dfs(idx + 1, weight + lv)
                color_max.pop()
            colors[v] = 0

    dfs(0, 0)
    if incumbent is None:  # greedy bound was optimal and unmatched: cannot happen
        incumbent = list(greedy_coloring(g, order).colors)
    return Coloring(tuple(incumbent))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 22), p=st.floats(0.05, 0.9), seed=st.integers(0, 2**32))
def test_exact_equals_oracle_on_gnp(n, p, seed):
    g = gnp_graph(n, p, seed)
    assert exact_min_coloring(g).colors == oracle_min_coloring(g).colors


# n stays at 22: the oracles take tens of seconds on some 30-tx blocks
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 22), keys=st.integers(2, 16), seed=st.integers(0, 100_000))
def test_exact_equals_oracle_on_blocks(n, keys, seed):
    block = gen_block(WorkloadSpec(n_txs=n, key_universe=keys, length_mode="heterogeneous", seed=seed))
    g = build_conflict_graph(block)
    assert exact_min_coloring(g).colors == oracle_min_coloring(g).colors
    if n <= 12:
        lengths = {tx.id: tx.length for tx in block.txs}
        weighted = exact_min_weighted_coloring(g, lengths)
        assert weighted.colors == oracle_min_weighted_coloring(g, lengths).colors


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    p=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32),
    choices=st.sampled_from([(1,), (1, 2), (1, 10, 100, 1000)]),
)
def test_weighted_equals_oracle(n, p, seed, choices):
    g = gnp_graph(n, p, seed)
    rng = random.Random(seed)
    lengths = {v: rng.choice(choices) for v in range(n)}
    assert exact_min_weighted_coloring(g, lengths).colors == oracle_min_weighted_coloring(g, lengths).colors


def test_weighted_edgeless_single_color():
    g = ConflictGraph(n=3, edges=frozenset())
    coloring = exact_min_weighted_coloring(g, {0: 5, 1: 1, 2: 2})
    assert coloring.k == 1
    assert coloring_weight(coloring, {0: 5, 1: 1, 2: 2}) == 5


def test_weighted_forced_split():
    g = ConflictGraph(n=2, edges=frozenset({(0, 1)}))
    lengths = {0: 5, 1: 1}
    coloring = exact_min_weighted_coloring(g, lengths)
    assert coloring.k == 2
    assert coloring_weight(coloring, lengths) == 6


def test_weighted_can_beat_chromatic_partition():
    # path a-b-c-d with a long endpoint pair: 3 colors weigh less than 2
    g = path_graph(4)
    lengths = {0: 5, 1: 1, 2: 2, 3: 4}
    best = brute_min_weighted_partition(g, lengths)
    coloring = exact_min_weighted_coloring(g, lengths)
    assert coloring_weight(coloring, lengths) == best == 8
    assert coloring.k == 3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_weighted_matches_exhaustive_partitions(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, 0.5)
    lengths = {v: rng.choice([1, 2, 5, 10, 100]) for v in range(n)}
    coloring = exact_min_weighted_coloring(g, lengths)
    assert is_legal(coloring, g)
    assert coloring_weight(coloring, lengths) == brute_min_weighted_partition(g, lengths)


def test_weighted_cap_raises(monkeypatch):
    n = EXACT_WEIGHTED_CAP + 1
    with pytest.raises(CapacityError, match=f"capped at {EXACT_WEIGHTED_CAP} vertices"):
        exact_min_weighted_coloring(ConflictGraph(n=n, edges=frozenset()), {v: 1 for v in range(n)})
    monkeypatch.setattr("blocksched.coloring.EXACT_WEIGHTED_CAP", 2)
    with pytest.raises(CapacityError, match="capped at 2 vertices"):
        exact_min_weighted_coloring(ConflictGraph(n=3, edges=frozenset()), {0: 1, 1: 1, 2: 1})


def test_weighted_rejects_a_missing_length():
    g = path_graph(2)
    with pytest.raises(ValidationError, match="^missing length for vertex 1$"):
        exact_min_weighted_coloring(g, {0: 1})
    with pytest.raises(ValidationError, match="^length of vertex 0 must be positive$"):
        exact_min_weighted_coloring(g, {0: 0, 1: 1})


def test_weighted_is_deterministic():
    rng = random.Random(9)
    g = random_graph(rng, 8, 0.5)
    lengths = {v: rng.choice([1, 10, 100]) for v in range(8)}
    a = exact_min_weighted_coloring(g, lengths)
    b = exact_min_weighted_coloring(g, lengths)
    assert a.colors == b.colors


def test_convert_path_schedule_depths():
    s = GraphSchedule(n=3, edges=frozenset({(0, 1), (1, 2)}))
    assert convert_to_coloring(s).colors == (1, 2, 3)


def test_convert_empty_edges_all_one():
    s = GraphSchedule(n=3, edges=frozenset())
    assert convert_to_coloring(s).colors == (1, 1, 1)


def test_convert_diamond_longest_path_depths():
    s = GraphSchedule(n=4, edges=frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
    assert convert_to_coloring(s).colors == (1, 2, 2, 3)


def test_convert_flags_invalid_schedule():
    # convert_to_coloring only colors by depth; is_valid_schedule is the one
    # check that flags a schedule, and so a depth coloring, as invalid
    g = ConflictGraph(n=2, edges=frozenset({(0, 1)}))
    bogus = GraphSchedule(n=2, edges=frozenset())  # misses the conflict
    assert not is_valid_schedule(bogus, g)
    assert not is_legal(convert_to_coloring(bogus), g)
    # the depth coloring (1, 1, 2) is legal for the conflict (0, 2), but no
    # dependency path orders that pair, so the schedule is not valid
    g = ConflictGraph(n=3, edges=frozenset({(0, 2)}))
    unordered = GraphSchedule(n=3, edges=frozenset({(1, 2)}))
    assert not is_valid_schedule(unordered, g)
    assert convert_to_coloring(unordered).colors == (1, 1, 2)
    assert is_legal(convert_to_coloring(unordered), g)
    with pytest.raises(ValidationError, match="^schedule has 2 vertices, conflict graph has 3$"):
        is_valid_schedule(GraphSchedule(n=2, edges=frozenset()), g)
    with pytest.raises(TypeError):
        convert_to_coloring(unordered, g)  # no conflict-graph argument


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_convert_is_legal_with_depth_colors(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, 0.5)
    s = random_valid_schedule(g, rng)
    assert is_valid_schedule(s, g)
    coloring = convert_to_coloring(s)
    assert is_legal(coloring, g)
    # number of colors equals the DAG vertex depth
    assert coloring.k == brute_dag_latency(s, {v: 1 for v in range(n)})


def test_coloring_type_checks_contiguous_colors():
    with pytest.raises(ValidationError):
        Coloring((1, 3))
    with pytest.raises(ValidationError):
        Coloring((0,))


def test_partition_from_coloring_orders_by_color():
    assert partition_from_coloring(Coloring((2, 1, 2))) == ((1,), (0, 2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 400), p=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32))
def test_descending_degree_order_equals_key_pair_sort(n, p, seed):
    g = gnp_graph(n, p, seed)
    assert descending_degree_order(g) == sorted(range(g.n), key=lambda v: (-len(g.neighbors[v]), v))
