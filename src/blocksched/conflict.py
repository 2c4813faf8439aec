"""Pairwise conflict relation and the undirected conflict graph of a block.

Two transactions conflict when one's write set intersects the other's read
or write set. A graph stores one thing, its sorted neighbour rows, and
derives every other view from them, so all downstream iteration is
deterministic regardless of build order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ValidationError
from .model import Block, Transaction, _gc_paused, validate_block


@dataclass(frozen=True, init=False)
class ConflictGraph:
    """Undirected graph over transaction ids 0..n-1.

    Stored: ``neighbors``, one ascending tuple of neighbour ids per vertex;
    the rows are symmetric and have no self-loops. Derived from the rows and
    cached on first use: ``edges``, the frozenset of pairs (u, v) with u < v,
    and ``adj_bits``, one bitset row per vertex. Graphs are equal, and hash
    alike, when they have the same n and the same edge set.

    ``ConflictGraph(n, edges)`` checks every edge. The producers
    (``build_conflict_graph`` and ``workload.gnp_edges``) build the rows
    directly and hand them to ``_of_rows``, unchecked.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValidationError(f"n must be non-negative, got {n}")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in frozenset(edges):
            if not 0 <= u < v < n:
                raise ValidationError(f"edge ({u}, {v}) is not canonical for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def _of_rows(cls, rows: list[list[int]]) -> ConflictGraph:
        """The graph over ``len(rows)`` vertices whose rows are ``rows``, which
        the caller built ascending, symmetric and free of self-loops."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "neighbors", tuple(map(tuple, rows)))
        return g

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, in lexicographic order: the
        upper half of each row. Builds no set."""
        return ((u, v) for u, row in enumerate(self.neighbors) for v in row if v > u)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.iter_edges())

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        bits = []
        for row in self.neighbors:
            b = 0
            for u in row:
                b |= 1 << u
            bits.append(b)
        return tuple(bits)


def conflicts(tx1: Transaction, tx2: Transaction) -> bool:
    """True iff the pair clashes: read/write, write/read, or write/write overlap."""
    if tx1.id == tx2.id:
        raise ValidationError(f"conflicts() requires distinct transactions, both have id {tx1.id}")
    return bool(
        tx1.read_set & tx2.write_set
        or tx1.write_set & tx2.read_set
        or tx1.write_set & tx2.write_set
    )


@_gc_paused
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
    rows: list[set[int]] = [set() for _ in range(n)]
    for key, ws in writers.items():
        rs = readers.get(key)
        for v in rs or ():
            rows[v].update(ws)
        touched = ws + rs if rs else ws
        for u in ws:
            rows[u].update(touched)
    for v, row in enumerate(rows):
        row.discard(v)
    return ConflictGraph._of_rows(list(map(sorted, rows)))


def dump_edges(g: ConflictGraph) -> str:
    """Edge list, one ``i j`` pair per line with i < j, sorted lexicographically."""
    return "".join(f"{u} {v}\n" for u, v in g.iter_edges())
