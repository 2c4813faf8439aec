"""Optimality oracle, graph-to-block transform, order-penalty estimators,
and counterexample searches.

The oracle searches every ordered legal partition (with memoization, per
connected component), which is exhaustive because level scheduling is
complete: every valid schedule is dominated by some level schedule. A slower
oracle that enumerates all acyclic orientations of the conflict graph exists
for double-checking the fast one.

The oracles, the graph catalog and the searches read the conflict graph's
rows (``neighbors``, ``iter_edges()``, ``adj_bits``) and keep no adjacency of
their own; only the per-component search re-indexes its component's rows as
local bitsets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .coloring import (
    descending_degree_order,
    exact_min_coloring,
    exact_min_weighted_coloring,
    greedy_coloring,
    partition_from_coloring,
)
from .conflict import ConflictGraph, build_conflict_graph
from .errors import CapacityError, InvariantError, ValidationError
from .model import Block, block_to_text, stable_seed
from .schedule import GraphSchedule, latency, level_schedule
from .workload import block_from_graph, gnp_edges

# Bounds of the exhaustive searches, read when each search is called.
ORACLE_CAP = 10
FULL_DAG_ORACLE_CAP = 8
# hetero_counterexample_search: minimal colorings examined per trial, and the
# transaction lengths it draws from
MAX_PARTITIONS = 2000
LENGTH_CHOICES = (1, 2, 5, 10, 100, 1000)


# ---------------------------------------------------------------------------
# Optimal-latency oracles
# ---------------------------------------------------------------------------

def _set_bits(bits: int) -> Iterator[int]:
    """Yield the indices of the set bits of a non-negative int, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _independent_subsets(candidates: int, adj: Sequence[int]) -> Iterator[int]:
    """Non-empty independent subsets of the candidate bitmask, in lexicographic
    order of their sorted member tuples."""
    while candidates:
        low = candidates & -candidates
        v = low.bit_length() - 1
        yield low
        compatible = candidates & ~low & ~adj[v] & ~(low - 1)
        for rest in _independent_subsets(compatible, adj):
            yield low | rest
        candidates &= ~low


def _component_optimum(
    vertices: list[int], g: ConflictGraph, lengths: Mapping[int, int]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum latency and lexicographically smallest optimal ordered
    partition for one connected component, by memoized search over states.

    A level schedule finishes vertex v at len(v) plus the largest finish among
    conflicting vertices in earlier levels, so the only state a prefix leaves
    behind is the per-vertex ready time. States are normalized by their
    minimum ready time, which shifts values uniformly.
    """
    m = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * m
    for i, v in enumerate(vertices):
        for u in g.neighbors[v]:
            adj[i] |= 1 << index[u]
    lens = [lengths[vertices[i]] for i in range(m)]
    # normalized state -> (its optimum, the level masks of its first optimal partition)
    memo: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}

    def step(
        mask: int, rd: dict[int, int], level_mask: int
    ) -> tuple[int, int, tuple[int, ...]]:
        """Run one level out of the ready times ``rd`` of ``mask``: the level's
        largest finish, the vertices left, and their new ready times."""
        finish = {v: rd[v] + lens[v] for v in _set_bits(level_mask)}
        rest = mask & ~level_mask
        new_ready = []
        for w in _set_bits(rest):
            r = rd[w]
            row = adj[w] & level_mask
            while row:
                low = row & -row
                f = finish[low.bit_length() - 1]
                if f > r:
                    r = f
                row &= ~low
            new_ready.append(r)
        return max(finish.values()), rest, tuple(new_ready)

    def solve(mask: int, ready: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        if mask == 0:
            return 0, ()
        shift = min(ready)
        if shift:
            ready = tuple(r - shift for r in ready)
        key = (mask, ready)
        cached = memo.get(key)
        if cached is not None:
            return cached[0] + shift, cached[1]
        rd = dict(zip(_set_bits(mask), ready))
        best: int | None = None
        for level_mask in _independent_subsets(mask, adj):
            level_max, rest, new_ready = step(mask, rd, level_mask)
            tail, tail_levels = solve(rest, new_ready)
            val = max(level_max, tail)
            if best is None or val < best:  # ties keep the first optimal level
                best, levels = val, (level_mask, *tail_levels)
        memo[key] = (best, levels)
        return best + shift, levels

    optimum, level_masks = solve((1 << m) - 1, (0,) * m)
    return optimum, tuple(tuple(vertices[v] for v in _set_bits(lm)) for lm in level_masks)


def _component(g: ConflictGraph, start: int) -> list[int]:
    """Ids reachable from ``start`` over the graph's rows, ascending."""
    seen, stack = {start}, [start]
    while stack:
        for u in g.neighbors[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def optimal_schedule_oracle(block: Block) -> tuple[GraphSchedule, int]:
    """Exhaustive minimum-latency search; returns a witness level schedule.

    Complete because level schedules dominate all valid schedules. Searches
    every ordered legal partition per connected component of the conflict
    graph; components are solved independently and merged level by level, so
    a conflict-free vertex lands in the first level. Ties within a
    component resolve to the lexicographically smallest optimal partition,
    so the witness is deterministic.
    """
    g = build_conflict_graph(block)
    n = g.n
    if n > ORACLE_CAP:
        raise CapacityError(f"oracle capped at {ORACLE_CAP} transactions (block has {n})")
    lengths = {tx.id: tx.length for tx in block.txs}
    best_val = 0
    merged: list[list[int]] = []
    seen: set[int] = set()
    for v in range(n):
        if v in seen:
            continue
        comp = _component(g, v)
        seen.update(comp)
        comp_val, comp_levels = _component_optimum(comp, g, lengths)
        best_val = max(best_val, comp_val)
        merged.extend([] for _ in range(len(comp_levels) - len(merged)))
        for i, level in enumerate(comp_levels):
            merged[i].extend(level)
    best_partition = tuple(tuple(sorted(level)) for level in merged)

    witness = level_schedule(best_partition, g)
    if latency(witness, lengths) != best_val:
        raise InvariantError("oracle witness latency diverged from the searched optimum")
    return witness, best_val


def optimal_latency_all_orientations(block: Block) -> int:
    """Slow second oracle: minimum latency over all acyclic orientations of
    the conflict graph. Every valid schedule is dominated by the orientation
    it induces, and every orientation is itself a valid schedule."""
    g = build_conflict_graph(block)
    n = g.n
    if n > FULL_DAG_ORACLE_CAP:
        raise CapacityError(
            f"orientation oracle capped at {FULL_DAG_ORACLE_CAP} transactions (block has {n})"
        )
    lengths = [tx.length for tx in sorted(block.txs, key=lambda t: t.id)]
    if n == 0:
        return 0
    best = None
    for perm in itertools.permutations(range(n)):
        pos = [0] * n
        for idx, v in enumerate(perm):
            pos[v] = idx
        finish = [0] * n
        for v in perm:
            incoming, before = 0, pos[v]
            for u in g.neighbors[v]:
                if pos[u] < before and finish[u] > incoming:
                    incoming = finish[u]
            finish[v] = incoming + lengths[v]
        lat = max(finish)
        if best is None or lat < best:
            best = lat
    return best


def transform_graph_to_block(g: ConflictGraph, c: int = 1) -> Block:
    """Homogeneous block realizing exactly the conflict relation of ``g``:
    one do-nothing transaction per vertex, one shared written key per edge."""
    if c < 1:
        raise ValidationError("length must be positive")
    return block_from_graph(g, [c] * g.n)


def _canonical_code(g: ConflictGraph) -> tuple:
    """Exact isomorphism invariant: the minimum edge bitmask over all
    relabelings that sort vertex degrees descending. Relabeled edge (a, b),
    a < b, sets bit ``a * n + b``."""
    n = g.n
    degree = [len(row) for row in g.neighbors]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(degree[v], []).append(v)
    ordered_groups = [groups[d] for d in sorted(groups, reverse=True)]
    edges = list(g.iter_edges())
    best: int | None = None
    label = [0] * n
    for perms in itertools.product(*(itertools.permutations(grp) for grp in ordered_groups)):
        for slot, v in enumerate(itertools.chain.from_iterable(perms)):
            label[v] = slot
        code = 0
        for u, v in edges:
            a, b = label[u], label[v]
            code |= 1 << (a * n + b if a < b else b * n + a)
        if best is None or code < best:
            best = code
    return (n, tuple(sorted(degree, reverse=True)), best)


def connected_graph_catalog(max_n: int) -> list[ConflictGraph]:
    """Every connected graph on 1..max_n vertices, one per isomorphism class.

    Enumerates labeled graphs and dedupes by an exact canonical form; meant
    for desk-scale n (the count grows steeply past n=7).
    """
    catalog: list[ConflictGraph] = []
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen: set[tuple] = set()
        for bits in range(1 << len(pairs)):
            # pairs run in lexicographic order, so every row comes out ascending
            rows: list[list[int]] = [[] for _ in range(n)]
            for i, (u, v) in enumerate(pairs):
                if (bits >> i) & 1:
                    rows[u].append(v)
                    rows[v].append(u)
            g = ConflictGraph._of_rows(rows)
            if len(_component(g, 0)) != n:
                continue
            code = _canonical_code(g)
            if code in seen:
                continue
            seen.add(code)
            catalog.append(g)
    return catalog


# ---------------------------------------------------------------------------
# Order-penalty estimation
# ---------------------------------------------------------------------------

def est_longest_path(g: ConflictGraph) -> int:
    """Heuristic lower bound on the longest simple path, in edges.

    Dynamic program over the edges directed by ascending vertex id, the order
    a conflict-blind block creator gives. Plus one, it is the unit-length
    latency of the ``order`` runner's schedule for a block listed in id
    order. Each vertex relaxes only its higher-id neighbors, so the work is
    O(n + m).
    """
    lengths = [0] * g.n
    for v, nbrs in enumerate(g.neighbors):
        base = lengths[v] + 1
        for w in nbrs:
            if w > v and base > lengths[w]:
                lengths[w] = base
    return max(lengths, default=0)


def _check_gnp(n: int, p: float) -> None:
    if n < 0:
        raise ValidationError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValidationError("p must be in [0, 1]")


def gnp_graph(n: int, p: float, seed: int) -> ConflictGraph:
    """Seeded G(n, p) graph: one ``gnp_edges`` draw from ``random.Random(seed)``."""
    _check_gnp(n, p)
    return gnp_edges(random.Random(seed), n, p)


@dataclass(frozen=True)
class RatioSample:
    """One draw of the worst-vs-best latency ratio lower bound."""

    n: int
    p: float
    est_longest_path_vertices: int
    est_chromatic: int

    @property
    def ratio(self) -> float:
        return self.est_longest_path_vertices / self.est_chromatic


def ratio_sample(g: ConflictGraph, n: int, p: float) -> RatioSample:
    path_edges = est_longest_path(g)
    colors = greedy_coloring(g, descending_degree_order(g)).k if g.n else 1
    return RatioSample(
        n=n, p=p, est_longest_path_vertices=path_edges + 1, est_chromatic=max(colors, 1)
    )


@dataclass(frozen=True)
class StudyCell:
    n: int
    p: float
    samples: int
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    seed: int


def _study_cell(args: tuple[int, float, int, int]) -> StudyCell:
    n, p, samples, seed = args
    ratios = []
    for i in range(samples):
        g = gnp_graph(n, p, stable_seed(seed, n, p, i))
        ratios.append(ratio_sample(g, n, p).ratio)
    return StudyCell(
        n=n,
        p=p,
        samples=samples,
        mean_ratio=sum(ratios) / len(ratios),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        seed=seed,
    )


def vulnerability_study(
    ns: Sequence[int],
    ps: Sequence[float],
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> Iterator[StudyCell]:
    """Mean estimated worst/best latency ratio over seeded random graphs.

    Each graph is oriented by vertex id. G(n, p) gives every labeling the
    same probability, so any order fixed without looking at the graph yields
    the same ratio distribution, and one order is enough.

    The arguments are checked before any cell runs. Cells are yielded in
    ``(n, p)`` order, each once it and every cell before it are done. Per-cell
    seeds derive from (seed, n, p), so serial and parallel runs yield
    identical cells.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    cells = [(n, p, samples, seed) for n in ns for p in ps]
    for n, p, *_ in cells:
        _check_gnp(n, p)
    if workers == 1:
        return map(_study_cell, cells)
    return _pooled_cells(cells, workers)


def _pooled_cells(cells: list[tuple], workers: int) -> Iterator[StudyCell]:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_study_cell, cells)


STUDY_CSV_HEADER = "n,p,samples,mean_ratio,min_ratio,max_ratio,seed"


def study_csv_row(cell: StudyCell) -> str:
    return (
        f"{cell.n},{cell.p},{cell.samples},{cell.mean_ratio!r},"
        f"{cell.min_ratio!r},{cell.max_ratio!r},{cell.seed}"
    )


def study_to_csv(cells: Iterable[StudyCell]) -> str:
    return "".join(f"{line}\n" for line in (STUDY_CSV_HEADER, *map(study_csv_row, cells)))


# ---------------------------------------------------------------------------
# Counterexample searches
# ---------------------------------------------------------------------------

def _min_color_partitions(g: ConflictGraph, k: int, limit: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of the vertices into exactly k independent sets,
    enumerated canonically (each unordered partition once), up to ``limit``."""
    out: list[tuple[tuple[int, ...], ...]] = []
    parts: list[list[int]] = []
    adj = g.adj_bits

    def rec(v: int) -> None:
        if len(out) >= limit:
            return
        if v == g.n:
            if len(parts) == k:
                out.append(tuple(tuple(p) for p in parts))
            return
        if len(parts) + (g.n - v) < k:
            return
        row = adj[v]
        for part in parts:
            if all(not (row >> u) & 1 for u in part):
                part.append(v)
                rec(v + 1)
                part.pop()
                if len(out) >= limit:
                    return
        if len(parts) < k:
            parts.append([v])
            rec(v + 1)
            parts.pop()

    rec(0)
    return out


@dataclass(frozen=True)
class Witness:
    phenomenon: str
    trial: int
    block_text: str
    detail: str


@dataclass
class CounterexampleReport:
    trials_run: int = 0
    witnesses: dict[str, Witness] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=lambda: {"a": 0, "b": 0, "c": 0})

    def found(self, phenomenon: str) -> bool:
        return phenomenon in self.witnesses

    def record(self, phenomenon: str, trial: int, block: Block, detail: str) -> None:
        """Count a hit; the first hit of each phenomenon is kept as its witness."""
        self.counts[phenomenon] += 1
        if phenomenon not in self.witnesses:
            self.witnesses[phenomenon] = Witness(phenomenon, trial, block_to_text(block), detail)


def _order_latencies(
    partition: Sequence[Sequence[int]], g: ConflictGraph, lengths: Mapping[int, int]
) -> Iterator[int]:
    """Latency of the level schedule of each order of the partition's levels,
    in ``itertools.permutations`` order."""
    for order in itertools.permutations(partition):
        yield latency(level_schedule(order, g), lengths)


def hetero_counterexample_search(
    n_max: int = 7,
    trials: int = 10_000,
    seed: int = 0,
    *,
    homogeneous: bool = False,
    stop_when: frozenset[str] | None = frozenset({"a", "c"}),
) -> CounterexampleReport:
    """Random search for scheduling phenomena on small blocks.

    (a) two minimal colorings whose level schedules differ in latency;
    (b) a minimal coloring whose best reordering still exceeds the optimum,
        or whose reordering changes latency;
    (c) a minimal weighted coloring whose indexed level schedule is
        suboptimal while some minimal unweighted coloring is optimal.

    Finding nothing within the trial budget is an explicit non-result, not an
    error. With ``homogeneous`` all lengths are 1, which serves as the
    control: no (a)-style gap can exist there.
    """
    if n_max < 4:
        raise ValidationError(f"n_max={n_max} is below the smallest searched block size 4")
    if n_max > ORACLE_CAP:
        raise CapacityError(f"n_max={n_max} exceeds the oracle cap {ORACLE_CAP}")
    report = CounterexampleReport()
    for trial in range(trials):
        report.trials_run = trial + 1
        rng = random.Random(stable_seed(seed, trial))
        n = rng.randint(4, n_max)
        p = rng.uniform(0.25, 0.75)
        g = gnp_edges(rng, n, p)
        if not any(g.neighbors):
            continue
        if homogeneous:
            lengths = [1] * n
        else:
            lengths = [rng.choice(LENGTH_CHOICES) for _ in range(n)]
        block = block_from_graph(g, lengths)
        length_map = {v: lengths[v] for v in range(n)}
        chi = exact_min_coloring(g).k
        partitions = _min_color_partitions(g, chi, MAX_PARTITIONS)

        per_partition: list[tuple[int, int]] = []
        for partition in partitions:
            lats = list(_order_latencies(partition, g, length_map))
            per_partition.append((min(lats), max(lats)))
        overall_min = min(p_min for p_min, _ in per_partition)
        overall_max = max(p_max for _, p_max in per_partition)

        if overall_max > overall_min:
            detail = f"minimal colorings with level latencies {overall_min} and {overall_max}"
            report.record("a", trial, block, detail)

        if not homogeneous:
            _, min_lt = optimal_schedule_oracle(block)
            b_hit = None
            for (p_min, p_max) in per_partition:
                if p_min > min_lt:
                    b_hit = f"a minimal coloring whose best reordering is {p_min} > optimum {min_lt}"
                    break
                if p_max > p_min:
                    b_hit = f"a minimal coloring whose reorderings span {p_min}..{p_max}"
                    break
            if b_hit:
                report.record("b", trial, block, b_hit)

            weighted = exact_min_weighted_coloring(g, length_map)
            lat_weighted = latency(
                level_schedule(partition_from_coloring(weighted), g), length_map
            )
            if lat_weighted > min_lt and overall_min == min_lt:
                detail = (
                    f"minimal weighted coloring gives latency {lat_weighted} > optimum "
                    f"{min_lt}, while an unweighted minimal coloring reaches {overall_min}"
                )
                report.record("c", trial, block, detail)

        if stop_when is not None and stop_when <= set(report.witnesses):
            break
    return report


def homogeneous_reorder_witness_search(
    n_max: int = 6, trials: int = 5000, seed: int = 0
) -> Witness | None:
    """Find a non-minimal partition of a homogeneous block where permuting the
    level order changes the latency."""
    if n_max < 4:
        raise ValidationError(f"n_max={n_max} is below the smallest searched block size 4")
    for trial in range(trials):
        rng = random.Random(stable_seed("reorder", seed, trial))
        n = rng.randint(4, n_max)
        p = rng.uniform(0.3, 0.7)
        g = gnp_edges(rng, n, p)
        if not any(g.neighbors):
            continue
        chi = exact_min_coloring(g).k
        order = list(range(n))
        rng.shuffle(order)
        coloring = greedy_coloring(g, order)
        if coloring.k <= chi:
            continue
        partition = partition_from_coloring(coloring)
        lats = set()
        for lat in _order_latencies(partition, g, {v: 1 for v in range(n)}):
            lats.add(lat)
            if len(lats) > 1:
                block = block_from_graph(g, [1] * n)
                return Witness(
                    phenomenon="reorder-non-minimal",
                    trial=trial,
                    block_text=block_to_text(block),
                    detail=(
                        f"partition with {coloring.k} > chi={chi} levels has latencies {sorted(lats)}"
                    ),
                )
    return None
