"""Legal partitions (colorings) of a conflict graph.

A coloring assigns each vertex a 1-based color so adjacent vertices differ;
equivalently it is an ordered partition of the vertices into conflict-free
sets. Exact searches are branch-and-bound with a fixed canonical exploration
order (vertices by descending degree, colors ascending) so repeated runs
produce identical color vectors. Tie-breaking is deterministic everywhere:
descending degree first, then ascending id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .conflict import ConflictGraph
from .errors import CapacityError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .schedule import GraphSchedule

EXACT_COLORING_CAP = 64
EXACT_WEIGHTED_CAP = 20


@dataclass(frozen=True)
class Coloring:
    """Color per vertex id, 1-based; every color in [1, k] is used."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.colors:
            k = max(self.colors)
            used = set(self.colors)
            if min(self.colors) < 1 or used != set(range(1, k + 1)):
                raise ValidationError("colors must use every index in [1, k]")

    @property
    def k(self) -> int:
        return max(self.colors) if self.colors else 0


def is_legal(coloring: Coloring, g: ConflictGraph) -> bool:
    if len(coloring.colors) != g.n:
        return False
    return all(coloring.colors[u] != coloring.colors[v] for u, v in g.edges)


def assert_legal(coloring: Coloring, g: ConflictGraph) -> None:
    if len(coloring.colors) != g.n:
        raise ValidationError(f"coloring covers {len(coloring.colors)} vertices, graph has {g.n}")
    for u, v in sorted(g.edges):
        if coloring.colors[u] == coloring.colors[v]:
            raise ValidationError(f"illegal coloring: adjacent pair ({u}, {v}) share color {coloring.colors[u]}")


def partition_from_coloring(coloring: Coloring) -> tuple[tuple[int, ...], ...]:
    """Ordered partition with one set per color, ascending color index."""
    levels: list[list[int]] = [[] for _ in range(coloring.k)]
    for v, c in enumerate(coloring.colors):
        levels[c - 1].append(v)
    return tuple(tuple(level) for level in levels)


def descending_degree_order(g: ConflictGraph) -> list[int]:
    """Vertex ids sorted by degree descending, ties broken by ascending id
    (the sort is stable over ascending ids)."""
    neg_degrees = [-len(nbrs) for nbrs in g.neighbors]
    return sorted(range(g.n), key=neg_degrees.__getitem__)


def _check_permutation(order: Sequence[int], n: int) -> None:
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order must be a permutation of 0..{n - 1}")


def greedy_coloring(g: ConflictGraph, order: Sequence[int]) -> Coloring:
    """First-fit greedy coloring along the given vertex order.

    Each vertex takes the smallest color unused by its already-colored
    neighbors; deterministic for a fixed order.
    """
    _check_permutation(order, g.n)
    colors = [0] * g.n
    for v in order:
        taken = {colors[u] for u in g.neighbors[v] if colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(tuple(colors))


def _greedy_clique_size(g: ConflictGraph, order: Sequence[int]) -> int:
    clique_bits = 0
    size = 0
    for v in order:
        if clique_bits & ~g.adj_bits[v] == 0:
            clique_bits |= 1 << v
            size += 1
    return size


def exact_min_coloring(g: ConflictGraph, cap: int = EXACT_COLORING_CAP) -> Coloring:
    """A legal coloring using exactly the chromatic number of colors.

    Branch and bound with a greedy upper bound and a greedy clique lower
    bound; above ``cap`` vertices a CapacityError points at greedy_coloring.
    """
    if g.n > cap:
        raise CapacityError(
            f"exact coloring capped at {cap} vertices (graph has {g.n}); use greedy_coloring instead"
        )
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


def coloring_weight(coloring: Coloring, lengths: Mapping[int, int]) -> int:
    """Sum over colors of the longest member length."""
    maxima: dict[int, int] = {}
    for v, c in enumerate(coloring.colors):
        maxima[c] = max(maxima.get(c, 0), lengths[v])
    return sum(maxima.values())


def exact_min_weighted_coloring(
    g: ConflictGraph, lengths: Mapping[int, int], cap: int = EXACT_WEIGHTED_CAP
) -> Coloring:
    """A legal coloring minimizing the sum over colors of the max member length.

    Among optima, returns the lexicographically smallest color vector under
    the descending-degree vertex order.
    """
    if g.n > cap:
        raise CapacityError(
            f"exact weighted coloring capped at {cap} vertices (graph has {g.n})"
        )
    if g.n == 0:
        return Coloring(())
    for v in range(g.n):
        if lengths[v] < 1:
            raise ValidationError(f"length of vertex {v} must be positive")
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


def convert_to_coloring(schedule: "GraphSchedule", g: ConflictGraph | None = None) -> Coloring:
    """Color every vertex by its depth in the scheduling DAG (sources get 1).

    The number of colors equals the DAG's vertex depth. If ``g`` is given the
    result is checked for legality, which flags schedules that were not valid
    for that conflict graph.
    """
    n = schedule.n
    depth = [0] * n
    for v in schedule.topo_order():
        best = 0
        for u in schedule.preds[v]:
            if depth[u] > best:
                best = depth[u]
        depth[v] = best + 1
    coloring = Coloring(tuple(depth))
    if g is not None:
        try:
            assert_legal(coloring, g)
        except ValidationError as exc:
            raise ValidationError(f"schedule is not valid for the conflict graph: {exc}") from exc
    return coloring


def dump_coloring(coloring: Coloring) -> str:
    """Lines ``id color``, sorted by id."""
    return "".join(f"{v} {c}\n" for v, c in enumerate(coloring.colors))
