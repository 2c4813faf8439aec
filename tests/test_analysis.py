import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from blocksched import analysis
from blocksched.analysis import (
    CounterexampleReport,
    connected_graph_catalog,
    est_longest_path,
    gnp_graph,
    hetero_counterexample_search,
    homogeneous_reorder_witness_search,
    optimal_latency_all_orientations,
    optimal_schedule_oracle,
    ratio_sample,
    stable_seed,
    study_to_csv,
    transform_graph_to_block,
    vulnerability_study,
)
from blocksched.coloring import descending_degree_order, exact_min_coloring, greedy_coloring
from blocksched.conflict import ConflictGraph, build_conflict_graph
from blocksched.errors import CapacityError, ValidationError
from blocksched.model import block_from_text
from blocksched.schedule import dump_schedule, is_valid_schedule, latency, total_order_schedule
from blocksched.workload import WorkloadSpec, block_from_graph, chain_block, gen_block

from conftest import (
    assert_rows_match_checked_graph,
    brute_chromatic,
    brute_longest_simple_path_edges,
    random_graph,
)


def test_oracle_chain_of_six_is_two():
    _, best = optimal_schedule_oracle(chain_block(6))
    assert best == 2


def test_oracle_clique_is_serial():
    g = ConflictGraph(n=4, edges=frozenset((i, j) for i in range(4) for j in range(i + 1, 4)))
    _, best = optimal_schedule_oracle(transform_graph_to_block(g, 1))
    assert best == 4


def test_oracle_witness_is_valid_and_achieves_optimum():
    rng = random.Random(2)
    for trial in range(10):
        g = random_graph(rng, 7, 0.5)
        lengths = [rng.choice([1, 10, 100]) for _ in range(7)]
        block = block_from_graph(g, lengths)
        witness, best = optimal_schedule_oracle(block)
        assert is_valid_schedule(witness, build_conflict_graph(block))
        assert latency(witness, {i: lengths[i] for i in range(7)}) == best


def test_oracle_cap():
    with pytest.raises(CapacityError):
        optimal_schedule_oracle(chain_block(11))
    with pytest.raises(CapacityError):
        optimal_latency_all_orientations(chain_block(9))


def test_oracle_caps_are_read_at_call_time(monkeypatch):
    monkeypatch.setattr(analysis, "ORACLE_CAP", 5)
    monkeypatch.setattr(analysis, "FULL_DAG_ORACLE_CAP", 4)
    assert optimal_schedule_oracle(chain_block(5))[1] == 2
    with pytest.raises(CapacityError, match=r"oracle capped at 5 transactions \(block has 6\)"):
        optimal_schedule_oracle(chain_block(6))
    assert optimal_latency_all_orientations(chain_block(4)) == 2
    with pytest.raises(CapacityError, match="orientation oracle capped at 4 transactions"):
        optimal_latency_all_orientations(chain_block(5))
    with pytest.raises(CapacityError, match="n_max=6 exceeds the oracle cap 5"):
        hetero_counterexample_search(n_max=6, trials=1)


def test_oracle_is_deterministic():
    block = chain_block(7)
    w1, b1 = optimal_schedule_oracle(block)
    w2, b2 = optimal_schedule_oracle(block)
    assert (w1.edges, b1) == (w2.edges, b2)


def test_double_oracle_cross_check_heterogeneous():
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        lengths = [rng.choice([1, 10, 100, 1000]) for _ in range(n)]
        block = block_from_graph(g, lengths)
        _, fast = optimal_schedule_oracle(block)
        assert fast == optimal_latency_all_orientations(block)


def test_min_coloring_level_schedule_is_optimal_on_homogeneous_blocks():
    # exact coloring fed through the level scheduler reaches the oracle optimum
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, 0.5)
        block = transform_graph_to_block(g, 1)
        from blocksched.coloring import partition_from_coloring
        from blocksched.schedule import level_schedule

        part = partition_from_coloring(exact_min_coloring(g))
        achieved = latency(level_schedule(part, g), {v: 1 for v in range(n)})
        _, best = optimal_schedule_oracle(block)
        assert achieved == best


def test_transform_round_trips_conflict_graph():
    triangle = ConflictGraph(n=3, edges=frozenset({(0, 1), (0, 2), (1, 2)}))
    block = transform_graph_to_block(triangle, 1)
    assert build_conflict_graph(block) == triangle
    edgeless = ConflictGraph(n=5, edges=frozenset())
    assert build_conflict_graph(transform_graph_to_block(edgeless, 2)).edges == frozenset()
    with pytest.raises(ValidationError, match="length must be positive"):
        transform_graph_to_block(triangle, 0)


def test_transform_five_cycle_latency_is_three_c():
    c5 = ConflictGraph(n=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
    assert brute_chromatic(5, c5.edges) == 3
    _, best = optimal_schedule_oracle(transform_graph_to_block(c5, 3))
    assert best == 9


def test_est_longest_path_on_path_graph():
    g = ConflictGraph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    assert est_longest_path(g) == 3
    assert brute_longest_simple_path_edges(4, g.edges) == 3


def test_est_longest_path_edgeless_and_clique():
    assert est_longest_path(ConflictGraph(n=3, edges=frozenset())) == 0
    k4 = ConflictGraph(n=4, edges=frozenset((i, j) for i in range(4) for j in range(i + 1, 4)))
    assert est_longest_path(k4) == 3


def bitscan_est_longest_path(g):
    """The O(n^2) estimator that tests every higher id, kept as an oracle
    for the neighbor-list one."""
    lengths = [0] * g.n
    for v in range(g.n):
        row = g.adj_bits[v]
        base = lengths[v] + 1
        for w in range(v + 1, g.n):
            if (row >> w) & 1 and base > lengths[w]:
                lengths[w] = base
    return max(lengths, default=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(0, 80), p=st.floats(0.0, 1.0))
def test_est_longest_path_matches_bitscan(seed, n, p):
    g = gnp_graph(n, p, seed)
    assert est_longest_path(g) == bitscan_est_longest_path(g)


def test_est_longest_path_is_a_lower_bound():
    rng = random.Random(17)
    for trial in range(30):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.4)
        assert est_longest_path(g) <= brute_longest_simple_path_edges(n, g.edges)


def test_est_path_plus_one_bounded_by_total_order_latency():
    # the estimator's path plus one is exactly the unit-length latency of the
    # `order` runner's schedule for a block listed in id order, so the study
    # measures that runner
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randint(1, 40)
        g = gnp_graph(n, rng.random(), rng.getrandbits(32))
        block = block_from_graph(g, [1] * n)
        s = total_order_schedule(block.txs, g)
        assert est_longest_path(g) + 1 == latency(s, {v: 1 for v in range(n)})


def test_greedy_colors_upper_bound_chromatic():
    rng = random.Random(29)
    for trial in range(25):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, 0.5)
        est = greedy_coloring(g, descending_degree_order(g)).k
        assert est >= brute_chromatic(n, g.edges)


def test_gnp_extremes():
    assert gnp_graph(10, 0.0, 1).edges == frozenset()
    full = gnp_graph(10, 1.0, 1)
    assert len(full.edges) == 45


def test_gnp_edge_count_within_four_sigma():
    g = gnp_graph(100, 0.1, seed=123)
    mean = 4950 * 0.1
    sigma = math.sqrt(4950 * 0.1 * 0.9)
    assert abs(len(g.edges) - mean) <= 4 * sigma


def test_gnp_rejects_a_negative_size():
    with pytest.raises(ValidationError, match="n must be non-negative"):
        gnp_graph(-3, 0.5, 1)
    assert gnp_graph(0, 0.5, 1).n == 0


def test_gnp_reproducible():
    assert gnp_graph(30, 0.3, 7).edges == gnp_graph(30, 0.3, 7).edges


def test_ratio_sample_p_zero_is_one():
    g = gnp_graph(10, 0.0, 5)
    assert ratio_sample(g, 10, 0.0).ratio == 1.0


def test_vulnerability_study_shapes_and_determinism():
    cells = list(vulnerability_study([10, 20], [0.0, 0.2], samples=5, seed=3))
    assert [(c.n, c.p) for c in cells] == [(10, 0.0), (10, 0.2), (20, 0.0), (20, 0.2)]
    assert cells[0].mean_ratio == 1.0
    again = list(vulnerability_study([10, 20], [0.0, 0.2], samples=5, seed=3))
    assert study_to_csv(cells) == study_to_csv(again)


STUDY_GOLDEN = (
    "n,p,samples,mean_ratio,min_ratio,max_ratio,seed\n"
    "20,0.05,3,1.1666666666666667,1.0,1.5,11\n"
    "20,0.3,3,1.6666666666666667,1.4,2.0,11\n"
    "60,0.05,3,2.0555555555555554,1.5,2.6666666666666665,11\n"
    "60,0.3,3,2.6296296296296298,2.4444444444444446,2.888888888888889,11\n"
)


def test_vulnerability_study_golden_output():
    cells = list(vulnerability_study([20, 60], [0.05, 0.3], 3, 11))
    assert study_to_csv(cells) == STUDY_GOLDEN


def test_ratio_grows_with_density_at_fixed_n():
    cells = list(vulnerability_study([100], [0.01, 0.1], samples=20, seed=7))
    assert cells[1].mean_ratio > cells[0].mean_ratio


@pytest.mark.parametrize(
    "ns, ps, options, message",
    [
        ([10, -5], [0.5], {}, "n must be non-negative"),
        ([10], [0.5, 1.5], {}, r"p must be in \[0, 1\]"),
        ([10], [0.5], {"workers": 0}, "workers must be >= 1"),
        ([10], [0.5], {"workers": -3}, "workers must be >= 1"),
    ],
    ids=["negative-n", "p-above-1", "zero-workers", "negative-workers"],
)
def test_vulnerability_study_rejects_bad_arguments_before_any_cell(
    monkeypatch, ns, ps, options, message
):
    def no_cell(args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(analysis, "_study_cell", no_cell)
    with pytest.raises(ValidationError, match=message):
        vulnerability_study(ns, ps, samples=2, seed=1, **options)


def test_vulnerability_study_runs_no_cell_until_iterated(monkeypatch):
    ran = []
    monkeypatch.setattr(analysis, "_study_cell", ran.append)
    cells = vulnerability_study([10, 20], [0.5], samples=2, seed=1)
    assert ran == []
    next(cells)
    assert ran == [(10, 0.5, 2, 1)]


def test_vulnerability_study_parallel_matches_serial():
    serial = list(vulnerability_study([12], [0.1, 0.3], samples=4, seed=9, workers=1))
    parallel = list(vulnerability_study([12], [0.1, 0.3], samples=4, seed=9, workers=2))
    assert study_to_csv(serial) == study_to_csv(parallel)


def test_hetero_search_finds_a_and_c_quickly():
    report = hetero_counterexample_search(n_max=7, trials=2000, seed=3)
    assert report.found("a") and report.found("b") and report.found("c")
    for witness in report.witnesses.values():
        block_from_text(witness.block_text)  # serialized witness parses back


@pytest.mark.parametrize("search", [hetero_counterexample_search, homogeneous_reorder_witness_search])
def test_searches_reject_an_n_max_below_the_smallest_block(search):
    with pytest.raises(ValidationError, match="n_max=3 is below the smallest searched block size 4"):
        search(n_max=3, trials=2)


def test_hetero_search_none_found_is_explicit():
    report = hetero_counterexample_search(n_max=4, trials=3, seed=0, stop_when=None)
    assert isinstance(report, CounterexampleReport)
    assert report.trials_run == 3


def test_homogeneous_control_finds_no_a_witnesses_smoke():
    report = hetero_counterexample_search(
        n_max=7, trials=300, seed=3, homogeneous=True, stop_when=None
    )
    assert report.counts["a"] == 0


def test_hetero_search_reads_its_length_choices_at_call_time(monkeypatch):
    # unit lengths make every block homogeneous: no (a)-style gap can exist
    monkeypatch.setattr(analysis, "LENGTH_CHOICES", (1,))
    report = hetero_counterexample_search(n_max=7, trials=100, seed=3, stop_when=None)
    assert report.trials_run == 100
    assert report.counts["a"] == 0
    for witness in report.witnesses.values():
        assert all(tx.length == 1 for tx in block_from_text(witness.block_text).txs)


def test_hetero_search_finds_a_minimal_coloring_that_no_reordering_makes_optimal(monkeypatch):
    # phenomenon (b)'s stronger clause, the paper's heterogeneous claim at its
    # strongest: the best level order of some minimal coloring is still worse
    # than the optimum. This run's first (b) witness is the weaker clause, so
    # every recorded hit is collected
    hits = []
    record = CounterexampleReport.record

    def collect(report, phenomenon, trial, block, detail):
        hits.append((phenomenon, trial, block, detail))
        record(report, phenomenon, trial, block, detail)

    monkeypatch.setattr(CounterexampleReport, "record", collect)
    hetero_counterexample_search(n_max=7, trials=255, seed=0, stop_when=None)
    strongest = [hit for hit in hits if "best reordering" in hit[3]]
    assert [(p, trial, detail) for p, trial, _, detail in strongest] == [
        ("b", 254, "a minimal coloring whose best reordering is 1102 > optimum 1101")
    ]
    assert optimal_latency_all_orientations(strongest[0][2]) == 1101


def test_min_color_partitions_stop_at_their_limit():
    stopped = 0
    for seed in range(60):
        g = gnp_graph(5 + seed % 4, 0.4, seed)
        k = exact_min_coloring(g).k
        full = analysis._min_color_partitions(g, k, 10_000)
        for limit in (1, 2, 3, 5):
            assert analysis._min_color_partitions(g, k, limit) == full[:limit]
            stopped += len(full) > limit
    assert stopped > 100  # most cases end at the limit, not at the enumeration's end


def test_homogeneous_reorder_search_without_trials_finds_nothing():
    assert homogeneous_reorder_witness_search(trials=0) is None


def test_hetero_search_rejects_nmax_above_cap():
    with pytest.raises(CapacityError):
        hetero_counterexample_search(n_max=11, trials=1)


def test_homogeneous_reorder_witness_exists():
    witness = homogeneous_reorder_witness_search(n_max=6, trials=3000, seed=1)
    assert witness is not None
    block = block_from_text(witness.block_text)
    # the found partition is wider than the chromatic number by construction
    g = build_conflict_graph(block)
    assert exact_min_coloring(g).k < g.n


def test_catalog_counts_match_known_values():
    catalog = connected_graph_catalog(5)
    by_n = {}
    for g in catalog:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_stable_seed_is_stable():
    assert stable_seed(1, 2.5, "x") == stable_seed(1, 2.5, "x")
    assert stable_seed(1) != stable_seed(2)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 400), p=st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32))
def test_gnp_graph_equals_checked_construction(n, p, seed):
    g = gnp_graph(n, p, seed)
    assert g.n == n
    assert_rows_match_checked_graph(g)


def _analysis_digest():
    """One sha256 over the catalog's rows, every counterexample-search report
    and reorder witness, and the oracles' witnesses and values on seeded
    heterogeneous blocks (n 0..8; the orientation oracle for n <= 7)."""
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    for g in connected_graph_catalog(5):
        put(g.neighbors)
    for homogeneous in (False, True):
        report = hetero_counterexample_search(
            n_max=6, trials=300, seed=5, homogeneous=homogeneous, stop_when=None
        )
        put(report.trials_run, report.counts)
        for w in report.witnesses.values():
            put(w.phenomenon, w.trial, w.block_text, w.detail)
    for seed in (0, 1):
        put(homogeneous_reorder_witness_search(n_max=6, trials=2000, seed=seed))
    for i in range(40):
        spec = WorkloadSpec(n_txs=i % 9, key_universe=6, length_mode="heterogeneous", seed=i)
        block = gen_block(spec)
        witness, best = optimal_schedule_oracle(block)
        put(dump_schedule(witness), best)
        if len(block.txs) <= 7:
            put(optimal_latency_all_orientations(block))
    return digest.hexdigest()


def test_analysis_golden():
    # byte-identical analysis outputs; the heterogeneous search hits all three
    # phenomena (counts 83, 83, 18: every non-homogeneous trial runs the oracle
    # checks), so every witness-recording site is pinned
    assert _analysis_digest() == "a63f89cf0c9369d4eeb360ddb4dc8e233978826b11bcd9b4daf5b4c24c6ed8b1"
