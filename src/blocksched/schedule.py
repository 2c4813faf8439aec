"""Graph schedules: representation, validity, latency, and synthesis.

A graph schedule is a DAG over a block's transaction ids, stored as one
sorted predecessor row per transaction, beside a topological order: the one
its producer built the rows in. It is valid for a conflict graph when every
conflicting pair is connected by a directed path, which is the premise the
concurrent executor needs to stay serializable. Producers level a partition
on the conflict graph's neighbour rows, and the plan path (build, check,
latency) walks the rows in the stored order: it builds no successor rows,
canonical order or adjacency bitsets.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .coloring import Coloring, _check_lengths, partition_from_coloring
from .conflict import ConflictGraph
from .errors import ValidationError
from .model import Transaction


@dataclass(frozen=True, init=False)
class GraphSchedule:
    """Directed acyclic graph over vertex ids 0..n-1; u -> v means u runs before v.

    Stored: ``preds``, one ascending tuple of predecessor ids per vertex.
    Kept beside it, like the cached views and so outside ``==``, ``hash``
    and ``repr``: ``_order``, a topological order (the producer's when it
    gave a valid one, else the canonical one). ``ancestor_bits``,
    ``finish_times`` and ``convert_to_coloring`` walk ``_order``; any
    topological order gives them the same values. Derived and cached on
    first use, for the executor and the dumps: ``succs`` (ascending rows),
    ``edges`` (the frozenset of pairs (u, v)) and the canonical order of
    ``topo_order()``. ``GraphSchedule(n, edges)`` checks every edge; the
    producers build rows and hand them to ``_of_preds`` unchecked, with the
    order they built them in. Both reject a cycle.
    """

    n: int
    preds: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in frozenset(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            rows[v].append(u)
        self._set_preds([sorted(row) for row in rows], ())

    @classmethod
    def _of_preds(cls, rows: Sequence[Sequence[int]], order: Sequence[int]) -> GraphSchedule:
        """The schedule over ``len(rows)`` vertices whose predecessor rows are
        ``rows``, which the caller built ascending, in range and free of
        self-loops, in the topological ``order`` it gives. Acyclicity is
        still checked: by ``order`` in one pass, or, when ``order`` is not a
        topological order of the rows, by the canonical order."""
        s = object.__new__(cls)
        s._set_preds(rows, order)
        return s

    def _set_preds(self, rows: Sequence[Sequence[int]], order: Sequence[int]) -> None:
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "preds", tuple(map(tuple, rows)))
        if _is_topological(self.preds, order):
            object.__setattr__(self, "_order", tuple(order))
        elif len(self._topo) != self.n:
            raise ValidationError("schedule edges contain a cycle")

    @cached_property
    def _order(self) -> tuple[int, ...]:
        """A topological order: the producer's, set by ``_set_preds``, else canonical."""
        return self._topo

    @cached_property
    def succs(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for v, row in enumerate(self.preds):  # v ascending keeps each row sorted
            for u in row:
                out[u].append(v)
        return tuple(map(tuple, out))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        # copied from a set, so sized to its length: a generator leaves growth slack
        return frozenset({(u, v) for v, row in enumerate(self.preds) for u in row})

    @cached_property
    def _topo(self) -> tuple[int, ...]:
        """Canonical topological order: smallest ready id first (shorter on a cycle)."""
        indeg = list(map(len, self.preds))
        succs = self.succs
        ready = [v for v in range(self.n) if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        return tuple(order)

    def topo_order(self) -> list[int]:
        """Canonical topological order: smallest ready id first; a fresh list per call."""
        return list(self._topo)

    @cached_property
    def ancestor_bits(self) -> tuple[int, ...]:
        """Per vertex, the bitset of vertices with a directed path into it."""
        anc = [0] * self.n
        for v in self._order:
            acc = 0
            for u in self.preds[v]:
                acc |= anc[u] | (1 << u)
            anc[v] = acc
        return tuple(anc)


def _is_topological(rows: Sequence[Sequence[int]], order: Sequence[int]) -> bool:
    """True iff ``order`` lists each vertex of ``rows`` once, after all of its
    predecessors: the O(n + m) proof that the rows are acyclic."""
    n = len(rows)
    if len(order) != n:
        return False
    placed = [False] * n
    for v in order:
        if not 0 <= v < n or placed[v]:
            return False
        for u in rows[v]:
            if not placed[u]:
                return False
        placed[v] = True
    return True


@dataclass(frozen=True)
class BatchSchedule:
    """Ordered sequence of conflict-free batches; batches run strictly one
    after another. Building one only sorts each batch: like a ``Block``, a
    malformed list stays representable, and ``check_partition`` checks it
    wherever it is planned or run."""

    batches: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "batches", tuple(tuple(sorted(batch)) for batch in self.batches))


@dataclass(frozen=True)
class LatencyReport:
    block_latency: int
    mean_latency: float
    p95_latency: int


# The reason every check of a graph schedule gives when is_valid_schedule fails.
UNORDERED_CONFLICT = "some conflicting pair has no dependency path"


def is_valid_schedule(s: GraphSchedule, g: ConflictGraph) -> bool:
    """True iff every conflict edge is covered by a directed path in s.
    Raises ``ValidationError`` when s and g differ in size."""
    if s.n != g.n:
        raise ValidationError(f"schedule has {s.n} vertices, conflict graph has {g.n}")
    anc = s.ancestor_bits
    # the upper half of each row: each edge once, with no pair tuples
    return all(
        (anc[v] >> u) & 1 or (anc[u] >> v) & 1
        for u, row in enumerate(g.neighbors)
        for v in row
        if v > u
    )


def convert_to_coloring(s: GraphSchedule) -> Coloring:
    """Color every vertex by its depth in the scheduling DAG (sources get 1).

    The number of colors equals the DAG's vertex depth; the coloring is legal
    for a conflict graph that ``s`` is valid for (:func:`is_valid_schedule`).
    """
    return Coloring(tuple(finish_times(s, {v: 1 for v in range(s.n)})))


def finish_times(s: GraphSchedule, lengths: Mapping[int, int]) -> list[int]:
    """Per vertex, the maximum weighted path length ending at it (inclusive)."""
    _check_lengths(lengths, s.n)
    finish = [0] * s.n
    for v in s._order:
        best = 0
        for u in s.preds[v]:
            if finish[u] > best:
                best = finish[u]
        finish[v] = best + lengths[v]
    return finish


def latency(s: GraphSchedule, lengths: Mapping[int, int]) -> int:
    """Maximum vertex-weighted path length of the scheduling DAG.

    Equals the makespan of executing the schedule with unbounded workers; an
    isolated vertex counts as a one-vertex path.
    """
    if s.n == 0:
        return 0
    return max(finish_times(s, lengths))


def latency_stats(s: GraphSchedule, lengths: Mapping[int, int]) -> LatencyReport:
    if s.n == 0:
        return LatencyReport(block_latency=0, mean_latency=0.0, p95_latency=0)
    finish = finish_times(s, lengths)
    ordered = sorted(finish)
    rank = max(1, -(-95 * s.n // 100))  # nearest-rank 95th percentile
    return LatencyReport(
        block_latency=ordered[-1],
        mean_latency=sum(finish) / s.n,
        p95_latency=ordered[rank - 1],
    )


def check_partition(
    partition: Sequence[Sequence[int]], g: ConflictGraph
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Sorted levels and each vertex's level index. The one check of a batch
    list and of a level schedule's levels: raises ``ValidationError`` naming
    the empty level, the out-of-range or repeated vertex, the conflicting
    pair, or the missing cover."""
    levels = tuple(tuple(sorted(level)) for level in partition)
    rows = g.neighbors
    level_of = [-1] * g.n
    level_at = level_of.__getitem__
    for i, level in enumerate(levels):
        if not level:
            raise ValidationError(f"level {i} is empty")
        _place(level_of, i, level)
        for u in level:
            # u ascending: a clash with a lower id was already reported at it,
            # so any neighbour of u in the level has a higher id
            if i in map(level_at, rows[u]):
                v = next(v for v in rows[u] if level_of[v] == i)
                raise ValidationError(f"level {i} is not conflict-free: pair ({u}, {v}) conflicts")
    _check_cover(levels, g.n)
    return levels, level_of


def check_members(partition: Sequence[Sequence[int]], n: int) -> None:
    """``check_partition``'s vertex checks alone, with its texts: every id
    0..n-1 in exactly one level. An empty level is allowed; the batch engine
    skips it."""
    level_of = [-1] * n
    for i, level in enumerate(partition):
        _place(level_of, i, level)
    _check_cover(partition, n)


def _place(level_of: list[int], i: int, level: Sequence[int]) -> None:
    """Record ``level``'s vertices as level ``i``; raises ``ValidationError``
    for one out of range or already placed."""
    n = len(level_of)
    for v in level:
        if not 0 <= v < n:
            raise ValidationError(f"level {i}: vertex {v} out of range")
        if level_of[v] >= 0:
            raise ValidationError(f"vertex {v} appears in more than one level")
        level_of[v] = i


def _check_cover(partition: Sequence[Sequence[int]], n: int) -> None:
    """After ``_place`` accepted every level: raise unless they hold n ids."""
    if sum(map(len, partition)) != n:
        raise ValidationError("partition does not cover all vertices")


def level_schedule(partition: Sequence[Sequence[int]], g: ConflictGraph) -> GraphSchedule:
    """Build a valid schedule from an ordered partition into conflict-free sets.

    Levels run earliest first. A conflict edge from an earlier level into the
    current one is added only when no dependency path already connects the
    pair, scanning prior levels from nearest to farthest; the result carries
    no redundant edges.
    """
    levels, level_of = check_partition(partition, g)
    level_at = level_of.__getitem__
    rows = g.neighbors
    preds: list[list[int]] = [[] for _ in range(g.n)]
    anc = [0] * g.n  # incremental ancestor bitsets of the schedule built so far
    for i, current in enumerate(levels):
        for v in current:
            earlier = [u for u in rows[v] if level_of[u] < i]
            if len(earlier) > 1:
                earlier.sort(key=level_at, reverse=True)  # nearest level first
            row, acc = preds[v], 0
            for u in earlier:
                if not (acc >> u) & 1:
                    row.append(u)
                    acc |= anc[u] | (1 << u)
            row.sort()
            anc[v] = acc
    return GraphSchedule._of_preds(preds, [v for level in levels for v in level])


def total_order_schedule(txs: Sequence[Transaction], g: ConflictGraph) -> GraphSchedule:
    """Baseline: direct every conflict edge by block list order, keeping all edges."""
    if len(txs) != g.n:
        raise ValidationError(f"block has {len(txs)} transactions, conflict graph has {g.n}")
    position = {tx.id: idx for idx, tx in enumerate(txs)}
    preds = [[u for u in row if position[u] < position[v]] for v, row in enumerate(g.neighbors)]
    return GraphSchedule._of_preds(preds, list(position))


def batch_to_graph(b: BatchSchedule) -> GraphSchedule:
    """Full bipartite dependency edges between consecutive batches, which must
    partition ids 0..k-1: ``check_partition`` over k edgeless vertices checks them."""
    n = sum(map(len, b.batches))
    check_partition(b.batches, ConflictGraph(n, ()))
    preds: list[tuple[int, ...]] = [()] * n
    for earlier, later in zip(b.batches, b.batches[1:]):
        for v in later:
            preds[v] = earlier
    return GraphSchedule._of_preds(preds, [v for batch in b.batches for v in batch])


def batch_latency(b: BatchSchedule, lengths: Mapping[int, int]) -> int:
    """Sum over batches of the longest member length; an empty batch, which
    the engine runs as a no-op, counts 0."""
    return sum(max((lengths[v] for v in batch), default=0) for batch in b.batches)


def reorder_partition(
    partition: Sequence[Sequence[int]], perm: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Same sets in a new order; perm gives 1-based source indices per target slot."""
    k = len(partition)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValidationError(f"perm must be a permutation of 1..{k}")
    return tuple(tuple(sorted(partition[p - 1])) for p in perm)


def size_descending_color_order(coloring: Coloring) -> tuple[tuple[int, ...], ...]:
    """Color classes ordered by descending size; ties go to the class with
    the smallest member id."""
    return tuple(sorted(partition_from_coloring(coloring), key=lambda level: (-len(level), level[0])))


def dump_schedule(s: GraphSchedule) -> str:
    """Header ``n k`` with the edge count, then directed ``u v`` lines, sorted."""
    lines = [f"{s.n} {sum(map(len, s.preds))}"]
    lines.extend(f"{u} {v}" for u, row in enumerate(s.succs) for v in row)
    return "\n".join(lines) + "\n"


def dump_levels(partition: Sequence[Sequence[int]]) -> str:
    """One line per level listing its ids."""
    return "".join(" ".join(str(v) for v in sorted(level)) + "\n" for level in partition)
