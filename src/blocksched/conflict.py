"""Pairwise conflict relation and the undirected conflict graph of a block.

Two transactions conflict when one's write set intersects the other's read
or write set. Adjacency is kept sorted so all downstream iteration is
deterministic regardless of build order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .model import Block, Transaction, validate_block


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected graph over transaction ids 0..n-1; edges stored as (i, j) with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 0:
            raise ValidationError(f"n must be non-negative, got {self.n}")
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                raise ValidationError(f"edge ({u}, {v}) is not canonical for n={self.n}")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        # bitset adjacency rows; cheap to keep alongside the lists
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def are_adjacent(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValidationError(f"vertex out of range for n={self.n}")
        return bool((self.adj_bits[u] >> v) & 1)


def _trusted_graph(n: int, edges: frozenset[tuple[int, int]]) -> ConflictGraph:
    """A ``ConflictGraph`` from edges already canonical for ``n`` (each
    ``0 <= u < v < n``), built without the per-edge check."""
    g = object.__new__(ConflictGraph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    return g


def conflicts(tx1: Transaction, tx2: Transaction) -> bool:
    """True iff the pair clashes: read/write, write/read, or write/write overlap."""
    if tx1.id == tx2.id:
        raise ValidationError(f"conflicts() requires distinct transactions, both have id {tx1.id}")
    return bool(
        tx1.read_set & tx2.write_set
        or tx1.write_set & tx2.read_set
        or tx1.write_set & tx2.write_set
    )


def build_conflict_graph(block: Block) -> ConflictGraph:
    """Conflict graph of a block; independent of the transaction list order."""
    problems = validate_block(block)
    if problems:
        raise ValidationError(f"block {block.seq}: " + "; ".join(problems))
    n = len(block.txs)
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
    return _trusted_graph(n, frozenset(edges))


def dump_edges(g: ConflictGraph) -> str:
    """Edge list, one ``i j`` pair per line with i < j, sorted lexicographically."""
    return "".join(f"{u} {v}\n" for u, v in sorted(g.edges))
