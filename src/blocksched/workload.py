"""Seeded generators for synthetic blocks and block streams."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .conflict import ConflictGraph
from .errors import ValidationError
from .model import (
    LENGTH_MODES,
    Block,
    ProgramKind,
    Transaction,
    TxProgram,
    block_hash,
)

# per generated transaction: inclusive ranges of read- and write-set sizes,
# and the program kinds drawn from (in this order)
READ_SIZE = (0, 2)
WRITE_SIZE = (1, 2)
PROGRAM_KINDS = (ProgramKind.WRITE_CONST, ProgramKind.SUM_AND_ADD, ProgramKind.SLEEP_ONLY)
# shared keys of a commutative block
SHARED_KEY_COUNT = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters for one synthetic block.

    ``length_mode`` picks constant lengths (homogeneous), lengths within
    ``length_epsilon`` of the base (epsilon), or draws from
    ``length_choices`` (heterogeneous). With ``conflict_p`` set, the conflict
    graph is one G(n, p) draw with that p (``gnp_edges``), realized through
    per-edge shared keys, so the edge count is exactly binomial.
    """

    n_txs: int
    key_universe: int = 16
    length_mode: str = "homogeneous"
    length_base: int = 1
    length_epsilon: int = 0
    length_choices: tuple[int, ...] = (1, 10, 100, 1000)
    conflict_p: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_txs < 0:
            raise ValidationError("n_txs must be non-negative")
        if self.key_universe < 1:
            raise ValidationError("key_universe must be positive")
        if self.length_mode not in LENGTH_MODES:
            raise ValidationError(f"length_mode must be one of {LENGTH_MODES}")
        if self.length_base < 1:
            raise ValidationError("length_base must be >= 1")
        if self.length_epsilon < 0:
            raise ValidationError("length_epsilon must be >= 0")
        if self.length_mode == "heterogeneous" and not self.length_choices:
            raise ValidationError("heterogeneous mode needs length_choices")
        if any(c < 1 for c in self.length_choices):
            raise ValidationError("length_choices must all be >= 1")
        if max(READ_SIZE[1], WRITE_SIZE[1]) > self.key_universe:
            raise ValidationError("set sizes cannot exceed the key universe")
        if self.conflict_p is not None and not 0.0 <= self.conflict_p <= 1.0:
            raise ValidationError("conflict_p must be in [0, 1]")


def gnp_edges(rng: random.Random, n: int, p: float) -> ConflictGraph:
    """One G(n, p) draw: each of the n(n-1)/2 pairs is an edge with
    probability p, independently of the others. Every seeded graph drawer
    goes through this one function.

    Geometric edge skipping (Batagelj & Brandes, "Efficient generation of
    large random networks", Phys. Rev. E 71, 2005): the pairs are walked in a
    fixed order, and the number of non-edges before the next edge is drawn
    as ``int(log(1 - rng.random()) / log1p(-p))``, which is geometric with
    P(gap >= k) = (1 - p)**k. A draw takes m + 1 calls to ``rng.random()``
    for m edges (none for n < 2), instead of one per pair. The walk stops at
    the first gap past the last pair; at a subnormal p that gap is infinite.

    The walk visits pairs (w, v), w < v, in order of v, then of w. Each edge
    appends w to v's row and v to w's row, so the graph's neighbour rows come
    out ascending without a sort, and no edge set is built.

    The same ``rng`` state gives the same graph and leaves the same state.
    p <= 0 and NaN give no edges and p >= 1 every pair; neither draws.
    """
    if p >= 1.0:
        return ConflictGraph._of_rows([[w for w in range(n) if w != v] for v in range(n)])
    rows: list[list[int]] = [[] for _ in range(n)]
    if not p > 0.0:  # NaN as well
        return ConflictGraph._of_rows(rows)
    log_q = math.log1p(-p)
    pairs = n * (n - 1) // 2
    draw, log = rng.random, math.log
    v, w = 1, -1
    while v < n:
        gap = log(1.0 - draw()) / log_q
        if gap >= pairs:  # past every remaining pair, and never int(inf)
            break
        w += 1 + int(gap)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            rows[v].append(w)
            rows[w].append(v)
    return ConflictGraph._of_rows(rows)


def _draw_length(spec: WorkloadSpec, rng: random.Random) -> int:
    if spec.length_mode == "homogeneous":
        return spec.length_base
    if spec.length_mode == "epsilon":
        return spec.length_base + rng.randint(0, spec.length_epsilon)
    return rng.choice(spec.length_choices)


def _draw_program(spec: WorkloadSpec, rng: random.Random) -> TxProgram:
    kind = rng.choice(PROGRAM_KINDS)
    return TxProgram(kind=kind, const_value=rng.randint(-100, 100))


def gen_block(spec: WorkloadSpec, *, seq: int = 0, prev_hash: bytes = b"") -> Block:
    """Deterministic block for a spec; the same spec yields identical blocks."""
    rng = random.Random(spec.seed)
    if spec.conflict_p is not None:
        g = gnp_edges(rng, spec.n_txs, spec.conflict_p)
        lengths = [_draw_length(spec, rng) for _ in range(spec.n_txs)]
        return block_from_graph(
            g,
            lengths,
            seq=seq,
            prev_hash=prev_hash,
            programs=[_draw_program(spec, rng) for _ in range(spec.n_txs)],
            include_reads=True,
        )
    universe = [f"k{i}" for i in range(spec.key_universe)]
    txs = []
    for tx_id in range(spec.n_txs):
        reads = rng.sample(universe, rng.randint(*READ_SIZE))
        writes = rng.sample(universe, rng.randint(*WRITE_SIZE))
        txs.append(
            Transaction(
                id=tx_id,
                read_set=frozenset(reads),
                write_set=frozenset(writes),
                length=_draw_length(spec, rng),
                program=_draw_program(spec, rng),
            )
        )
    return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))


def block_from_graph(
    g: ConflictGraph,
    lengths,
    *,
    seq: int = 0,
    prev_hash: bytes = b"",
    programs=None,
    include_reads: bool = False,
) -> Block:
    """A block whose conflict graph is exactly ``g``.

    Each graph edge becomes one synthetic key written by both endpoints;
    every transaction also writes one private key, so the conflict relation
    round-trips exactly. With ``include_reads`` the shared keys are read as
    well, giving the programs real data flow without changing the relation.
    """
    txs = []
    for v in range(g.n):
        keys = {f"e{min(u, v)}_{max(u, v)}" for u in g.neighbors[v]}
        keys.add(f"p{v}")
        program = programs[v] if programs is not None else TxProgram(ProgramKind.SLEEP_ONLY)
        txs.append(
            Transaction(
                id=v,
                read_set=frozenset(keys) if include_reads else frozenset(),
                write_set=frozenset(keys),
                length=lengths[v],
                program=program,
            )
        )
    return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))


def chain_block(n: int, *, length: int = 1, seq: int = 0, prev_hash: bytes = b"") -> Block:
    """Block of n transactions where tx i reads and writes keys x_i and x_{i+1}.

    Consecutive transactions share a key, so the conflict graph is a path and
    the consensus list order forces a fully sequential baseline schedule.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    txs = []
    for i in range(n):
        keys = frozenset({f"x{i}", f"x{i + 1}"})
        txs.append(
            Transaction(
                id=i,
                read_set=keys,
                write_set=keys,
                length=length,
                program=TxProgram(ProgramKind.SUM_AND_ADD, const_value=1),
            )
        )
    return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))


def gen_commutative_block(n: int, *, seed: int = 0, seq: int = 0, prev_hash: bytes = b"") -> Block:
    """A block whose final state is the same under every serialization.

    Conflicts are real: several transactions write each shared key and
    readers declare shared keys in their read sets. They stay order-invariant
    because all writers of one shared key write the same constant, readers
    write nothing, and all other effects touch private per-transaction keys.
    Useful wherever different schedulers must agree on the final state.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    rng = random.Random(seed)
    shared = [f"s{i}" for i in range(SHARED_KEY_COUNT)]
    txs = []
    for tx_id in range(n):
        role = rng.choice(("writer", "reader", "private"))
        if role == "writer":
            key = rng.choice(shared)
            const = int(key[1:]) * 7 + 3  # one constant per shared key
            txs.append(
                Transaction(
                    id=tx_id,
                    read_set=frozenset(),
                    write_set=frozenset({key}),
                    length=_draw_length_choice(rng),
                    program=TxProgram(ProgramKind.WRITE_CONST, const_value=const),
                )
            )
        elif role == "reader":
            keys = frozenset(rng.sample(shared, rng.randint(1, min(2, len(shared)))))
            txs.append(
                Transaction(
                    id=tx_id,
                    read_set=keys,
                    write_set=frozenset(),
                    length=_draw_length_choice(rng),
                    program=TxProgram(ProgramKind.SLEEP_ONLY),
                )
            )
        else:
            key = f"q{tx_id}"
            txs.append(
                Transaction(
                    id=tx_id,
                    read_set=frozenset({key}),
                    write_set=frozenset({key}),
                    length=_draw_length_choice(rng),
                    program=TxProgram(ProgramKind.SUM_AND_ADD, const_value=rng.randint(1, 50)),
                )
            )
    return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))


def _draw_length_choice(rng: random.Random) -> int:
    return rng.choice((1, 2, 5, 10))


def _chain(make_block, items) -> list[Block]:
    """``make_block(item, seq=, prev_hash=)`` per item: consecutive seq numbers
    from 0, each prev_hash the hash of the block before (empty for the first)."""
    blocks: list[Block] = []
    prev = b""
    for seq, item in enumerate(items):
        block = make_block(item, seq=seq, prev_hash=prev)
        blocks.append(block)
        prev = block_hash(block)
    return blocks


def gen_commutative_stream(count: int, *, n: int = 10, seed: int = 0) -> list[Block]:
    """Commutative blocks of n transactions, block i seeded with seed + i."""
    return _chain(
        lambda block_seed, **at: gen_commutative_block(n, seed=block_seed, **at),
        range(seed, seed + count),
    )


def gen_stream(specs) -> list[Block]:
    """One block per spec, with consecutive seq numbers and a chained prev_hash."""
    return _chain(gen_block, specs)
