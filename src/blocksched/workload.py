"""Seeded generators for synthetic blocks and block streams."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

from .conflict import ConflictGraph
from .errors import ValidationError
from .model import (
    Block,
    ProgramKind,
    Transaction,
    TxProgram,
    block_hash,
)

LENGTH_MODES = ("homogeneous", "epsilon", "heterogeneous")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters for one synthetic block.

    ``length_mode`` picks constant lengths (homogeneous), lengths within
    ``length_epsilon`` of the base (epsilon), or draws from
    ``length_choices`` (heterogeneous). With ``conflict_p`` set, the conflict
    graph is drawn edge by edge with that probability and realized through
    per-edge shared keys, so the produced density is exactly binomial.
    """

    n_txs: int
    key_universe: int = 16
    read_size: tuple[int, int] = (0, 2)
    write_size: tuple[int, int] = (1, 2)
    length_mode: str = "homogeneous"
    length_base: int = 1
    length_epsilon: int = 0
    length_choices: tuple[int, ...] = (1, 10, 100, 1000)
    program_kinds: tuple[ProgramKind, ...] = (
        ProgramKind.WRITE_CONST,
        ProgramKind.SUM_AND_ADD,
        ProgramKind.SLEEP_ONLY,
    )
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
        for lo, hi in (self.read_size, self.write_size):
            if not 0 <= lo <= hi:
                raise ValidationError("set size ranges must satisfy 0 <= lo <= hi")
            if hi > self.key_universe:
                raise ValidationError("set sizes cannot exceed the key universe")
        if self.conflict_p is not None and not 0.0 <= self.conflict_p <= 1.0:
            raise ValidationError("conflict_p must be in [0, 1]")


def gnp_edges(rng: random.Random, n: int, p: float) -> frozenset[tuple[int, int]]:
    """Edges of one G(n, p) draw: each pair (u, v) with u < v, in lexicographic
    order, takes exactly one ``rng.random()`` and is an edge when it falls
    below p. Every seeded graph drawer goes through this one function, so the
    random stream after the call is the same wherever it is used.

    The draws are read in bulk and give the same edges and the same ``rng``
    state as calling ``rng.random()`` once per pair. This rests on two
    properties of CPython's Mersenne Twister ``random.Random``:

    - ``random()`` takes the next two 32-bit words w0, w1 and returns
      k / 2**53 with k = (w0 >> 5) * 2**26 + (w1 >> 6);
    - ``getrandbits(64 * m).to_bytes(8 * m, "little")`` holds exactly the
      next 2m words, in order, each little-endian.

    So a row's m draws come from one ``getrandbits`` call, and
    ``random() < p`` holds exactly when k < ceil(min(p, 1) * 2**53). Since
    k >> 45 is the top byte of w0, that byte alone decides every draw except
    those whose top byte equals the limit's, which are checked on all 53 bits.
    """
    limit = math.ceil(min(p, 1.0) * 2**53) if p > 0 else 0  # 0 for NaN as well
    top = limit >> 45
    # certain[b] is 1 when every draw whose top byte is b falls below the limit
    certain = b"\x01" * top + b"\x00" * (256 - top)
    ids = tuple(range(n))
    edges = []
    for u in range(n - 1):
        m = n - u - 1
        words = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        tops = words[3::8]
        hits = tops.translate(certain)
        # a Python loop per edge on sparse rows, a C pass over the row on dense ones
        if hits.count(1) * 16 > m:
            edges += [(u, v) for v in compress(ids[u + 1 :], hits)]
        else:
            i = hits.find(1)
            while i >= 0:
                edges.append((u, u + 1 + i))
                i = hits.find(1, i + 1)
        if top < 256:
            i = tops.find(top)
            while i >= 0:
                w = int.from_bytes(words[8 * i : 8 * i + 8], "little")  # w1 << 32 | w0
                if ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < limit:
                    edges.append((u, u + 1 + i))
                i = tops.find(top, i + 1)
    return frozenset(edges)


def _draw_length(spec: WorkloadSpec, rng: random.Random) -> int:
    if spec.length_mode == "homogeneous":
        return spec.length_base
    if spec.length_mode == "epsilon":
        return spec.length_base + rng.randint(0, spec.length_epsilon)
    return rng.choice(spec.length_choices)


def _draw_program(spec: WorkloadSpec, rng: random.Random) -> TxProgram:
    kind = rng.choice(spec.program_kinds)
    return TxProgram(kind=kind, const_value=rng.randint(-100, 100))


def gen_block(spec: WorkloadSpec, *, seq: int = 0, prev_hash: bytes = b"") -> Block:
    """Deterministic block for a spec; the same spec yields identical blocks."""
    rng = random.Random(spec.seed)
    if spec.conflict_p is not None:
        g = ConflictGraph(n=spec.n_txs, edges=gnp_edges(rng, spec.n_txs, spec.conflict_p))
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
        reads = rng.sample(universe, rng.randint(*spec.read_size))
        writes = rng.sample(universe, rng.randint(*spec.write_size))
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
    edge_key = {edge: f"e{edge[0]}_{edge[1]}" for edge in sorted(g.edges)}
    txs = []
    for v in range(g.n):
        keys = {edge_key[(min(v, u), max(v, u))] for u in g.neighbors[v]}
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


def gen_commutative_block(
    n: int, *, shared_keys: int = 4, seed: int = 0, seq: int = 0, prev_hash: bytes = b""
) -> Block:
    """A block whose final state is the same under every serialization.

    Conflicts are real: several transactions write each shared key and
    readers declare shared keys in their read sets. They stay order-invariant
    because all writers of one shared key write the same constant, readers
    write nothing, and all other effects touch private per-transaction keys.
    Useful wherever different schedulers must agree on the final state.
    """
    rng = random.Random(seed)
    shared = [f"s{i}" for i in range(shared_keys)]
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


def gen_commutative_stream(
    count: int, *, n: int = 10, seed: int = 0, initial_prev_hash: bytes = b""
) -> list[Block]:
    blocks: list[Block] = []
    prev = initial_prev_hash
    for seq in range(count):
        block = gen_commutative_block(n, seed=seed + seq, seq=seq, prev_hash=prev)
        blocks.append(block)
        prev = block_hash(block)
    return blocks


def gen_stream(specs, *, initial_prev_hash: bytes = b"") -> list[Block]:
    """Blocks with consecutive seq numbers and a chained prev_hash."""
    blocks: list[Block] = []
    prev = initial_prev_hash
    for seq, spec in enumerate(specs):
        block = gen_block(spec, seq=seq, prev_hash=prev)
        blocks.append(block)
        prev = block_hash(block)
    return blocks
