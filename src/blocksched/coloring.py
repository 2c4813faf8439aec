"""Legal partitions (colorings) of a conflict graph.

A coloring assigns each vertex a 1-based color so adjacent vertices differ;
equivalently it is an ordered partition of the vertices into conflict-free
sets. The minimal and the minimal weighted coloring share one branch and
bound (the minimal coloring is the weighted one at unit lengths) with a fixed
canonical exploration order (vertices by descending degree, colors ascending)
so repeated runs produce identical color vectors. Tie-breaking is deterministic everywhere:
descending degree first, then ascending id.
The exact search is bounded by fixed constants only, a vertex cap and a count
of search work (never time), so every replica falls back on the same graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .conflict import ConflictGraph
from .errors import CapacityError, ValidationError

EXACT_COLORING_CAP = 64
EXACT_WEIGHTED_CAP = 20
# one unit per color tried at a vertex, the new-color branch included
EXACT_SEARCH_BUDGET = 1 << 22


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
    return all(coloring.colors[u] != coloring.colors[v] for u, v in g.iter_edges())


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


def coloring_weight(coloring: Coloring, lengths: Mapping[int, int] | Sequence[int]) -> int:
    """Sum over colors of the longest member length."""
    maxima: dict[int, int] = {}
    for v, c in enumerate(coloring.colors):
        maxima[c] = max(maxima.get(c, 0), lengths[v])
    return sum(maxima.values())


def _check_lengths(lengths: Mapping[int, int], n: int) -> None:
    for v in range(n):
        if v not in lengths:
            raise ValidationError(f"missing length for vertex {v}")
        if lengths[v] < 1:
            raise ValidationError(f"length of vertex {v} must be positive")


def _min_weight_search(g: ConflictGraph, lengths: Sequence[int]) -> Coloring:
    """The first canonical coloring, in descending-degree order, of minimal
    weight (sum over colors of the longest member).

    Branch and bound from greedy's coloring, accepting only strictly lighter
    colorings; greedy's is the first canonical coloring, so ties keep the
    earliest. The lower bound is the length sum of a greedy clique. Each color
    keeps a bitset of its members, so a color is free for ``v`` when
    ``members[c] & adj[v]`` is zero. A search that would try more than
    ``EXACT_SEARCH_BUDGET`` colors raises CapacityError.
    """
    order = descending_degree_order(g)
    greedy = greedy_coloring(g, order)
    best = coloring_weight(greedy, lengths)
    adj = g.adj_bits
    clique_bits = lower = 0
    for v in order:
        if clique_bits & ~adj[v] == 0:
            clique_bits |= 1 << v
            lower += lengths[v]
    if lower >= best:
        return greedy

    incumbent = greedy.colors
    colors = [0] * g.n
    members: list[int] = []
    longest: list[int] = []
    budget = EXACT_SEARCH_BUDGET

    def dfs(idx: int, weight: int) -> None:
        nonlocal best, incumbent, budget
        if idx == g.n:
            best = weight
            incumbent = tuple(colors)
            return
        budget -= len(members) + 1
        if budget < 0:
            raise CapacityError(f"exact coloring search exceeded {EXACT_SEARCH_BUDGET} units")
        v = order[idx]
        row = adj[v]
        bit = 1 << v
        lv = lengths[v]
        for c in range(len(members)):
            prev = longest[c]
            grown = weight + lv - prev if lv > prev else weight
            if members[c] & row or grown >= best:
                continue
            colors[v] = c + 1
            members[c] |= bit
            longest[c] = max(prev, lv)
            dfs(idx + 1, grown)
            members[c] ^= bit
            longest[c] = prev
            if best <= lower:
                return
        if weight + lv < best:
            colors[v] = len(members) + 1
            members.append(bit)
            longest.append(lv)
            dfs(idx + 1, weight + lv)
            members.pop()
            longest.pop()

    dfs(0, 0)
    return Coloring(incumbent)


def exact_min_coloring(g: ConflictGraph) -> Coloring:
    """A legal coloring using exactly the chromatic number of colors: the
    minimal weighted coloring at unit lengths. Above ``EXACT_COLORING_CAP``
    vertices or the search budget a CapacityError points at greedy_coloring.
    """
    cap = EXACT_COLORING_CAP
    if g.n > cap:
        raise CapacityError(
            f"exact coloring capped at {cap} vertices (graph has {g.n}); use greedy_coloring instead"
        )
    return _min_weight_search(g, [1] * g.n)


def exact_min_weighted_coloring(g: ConflictGraph, lengths: Mapping[int, int]) -> Coloring:
    """A legal coloring minimizing the sum over colors of the max member length.

    Among optima, returns the lexicographically smallest color vector under
    the descending-degree vertex order. Above ``EXACT_WEIGHTED_CAP`` vertices
    or the search budget it raises CapacityError.
    """
    cap = EXACT_WEIGHTED_CAP
    if g.n > cap:
        raise CapacityError(
            f"exact weighted coloring capped at {cap} vertices (graph has {g.n})"
        )
    _check_lengths(lengths, g.n)
    return _min_weight_search(g, [lengths[v] for v in range(g.n)])
