"""Core domain types: transactions, blocks, global state, and the tiny
deterministic transaction language used to make executions comparable.

Values are signed 64-bit integers with wrap-around, so every program is a
pure function of its read values on every platform. A missing key always
reads as 0, which makes any block executable against an empty state.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, ValidationError

# An object key is a non-empty string naming one global-state cell.
ObjectKey = str

_I64_SPAN = 1 << 64
_I64_HALF = 1 << 63

# How a generated block draws its transaction lengths (``workload.WorkloadSpec``);
# defined here so the CLI can list them without importing the generators.
LENGTH_MODES = ("homogeneous", "epsilon", "heterogeneous")

# The names of the built-in block runners, in the order of
# ``replication.BUILTIN_RUNNERS``; here for the same reason: the CLI lists
# them without importing the replication layer and the executor.
RUNNER_NAMES = ("order", "greedy", "min-coloring", "weighted-coloring", "batch")


# The one canonical JSON form of every digest and ledger payload: compact
# separators, ASCII escapes, dict keys in insertion order. Every payload is a
# fresh tree of dicts, lists, tuples, strings and ints, which cannot hold a
# cycle, so the encoder keeps no per-container cycle markers.
_CANONICAL = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    """The bytes of ``json.dumps(obj, separators=(",", ":"))``, without its
    cycle check and without building an encoder per call."""
    return _CANONICAL.encode(obj)


# ``GlobalState.digest`` encodes the entries this many at a time. Two chunks
# of fresh ``(key, value)`` tuples are alive at once, the one being encoded
# and the one being built. Well below CPython's free list of 2 000 two-tuples,
# each chunk reuses the tuples of the one before instead of allocating new
# GC-tracked objects: a digest of a 20 008-key state then sets off 0.05
# collections, against 1.15 at 1 500, 9.15 at 3 000 and 25 for all at once.
_DIGEST_CHUNK = 512


def _gc_paused(fn):
    """Run ``fn`` with CPython's cyclic garbage collector paused.

    For the planning calls that build many GC-tracked but acyclic containers
    (the parse, the conflict build, a runner's schedule): reference counting
    frees all of them, so every collection that walks them is wasted work,
    and each young collection promotes the survivors towards the full ones.
    The pause restores the caller's state: GC is enabled again afterwards,
    also when ``fn`` raises, only if it was enabled before. Never wrap a
    generator with it, or GC stays off across its yields. With several
    threads a pause can overlap another thread's; that changes only when
    collections run, never what they free.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def stable_seed(*parts) -> int:
    """Platform-independent 64-bit seed derived from the given parts."""
    digest = hashlib.sha256(":".join(repr(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def wrap_int64(value: int) -> int:
    """Reduce an integer into signed 64-bit range with wrap-around."""
    return (value + _I64_HALF) % _I64_SPAN - _I64_HALF


class ProgramKind(str, Enum):
    WRITE_CONST = "write_const"
    SUM_AND_ADD = "sum_and_add"
    SLEEP_ONLY = "sleep_only"


@dataclass(frozen=True, slots=True)
class TxProgram:
    """What a transaction does with the values it reads.

    WRITE_CONST stores ``const_value`` into every write-set key and reads
    nothing. SUM_AND_ADD reads every read-set key and stores the sum of the
    read values plus ``const_value`` into every write-set key. SLEEP_ONLY
    touches nothing at all; its declared read/write sets are a legal
    over-approximation.
    """

    kind: ProgramKind
    const_value: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ProgramKind):
            raise ValidationError(f"unknown program kind: {self.kind!r}")
        if type(self.const_value) is not int:
            raise ValidationError(f"program const_value must be an integer, got {self.const_value!r}")
        object.__setattr__(self, "const_value", wrap_int64(self.const_value))


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transaction: identity, declared access sets, duration, program.

    The read and write sets are over-approximations: every key the program
    may touch in any execution appears in the matching set. ``length`` is an
    abstract duration in time units, not wall-clock time. ``id`` and
    ``length`` are plain ``int``s (a ``bool`` is not), as the block format
    requires.
    """

    id: int
    read_set: frozenset[ObjectKey]
    write_set: frozenset[ObjectKey]
    length: int
    program: TxProgram

    def __post_init__(self) -> None:
        if type(self.id) is not int or type(self.length) is not int or self.id < 0 or self.length < 1:
            raise ValidationError(_id_or_length_fault(self.id, self.length))
        object.__setattr__(self, "read_set", frozenset(self.read_set))
        object.__setattr__(self, "write_set", frozenset(self.write_set))
        if _has_bad_key(self.read_set | self.write_set):
            raise ValidationError(_key_fault(self.id))


def _id_or_length_fault(tx_id, length) -> str:
    if type(tx_id) is not int:
        return f"transaction id must be an integer, got {tx_id!r}"
    if tx_id < 0:
        return f"transaction id must be non-negative, got {tx_id}"
    if type(length) is not int:
        return f"transaction {tx_id}: length must be an integer, got {length!r}"
    return f"transaction {tx_id}: length must be >= 1, got {length}"


def _key_fault(tx_id) -> str:
    return f"transaction {tx_id}: object keys must be non-empty strings"


def _has_bad_key(keys) -> bool:
    return any(not isinstance(key, str) or not key for key in keys)


# The setters of Transaction's slots; they bypass the frozen __setattr__.
_set_id, _set_read_set, _set_write_set, _set_length, _set_program = (
    getattr(Transaction, name).__set__ for name in Transaction.__slots__
)


def _trusted_transaction(
    tx_id: int, read_set: frozenset, write_set: frozenset, length: int, program: TxProgram
) -> Transaction:
    """A ``Transaction`` from fields the caller has already checked, built
    without ``__init__`` and its ``__post_init__`` re-checks."""
    tx = object.__new__(Transaction)
    _set_id(tx, tx_id)
    _set_read_set(tx, read_set)
    _set_write_set(tx, write_set)
    _set_length(tx, length)
    _set_program(tx, program)
    return tx


@dataclass(frozen=True)
class Block:
    """An ordered batch of transactions as decided by consensus.

    The list order is the consensus-induced total order; only the
    order-following scheduler consumes it. Construction checks what the
    block format needs (an ``int`` seq >= 0, a ``bytes`` or ``bytearray``
    prev_hash, ``Transaction`` members) but not semantic validity (e.g.
    unique ids), so that invalid blocks remain representable; use
    :func:`validate_block` before processing.
    """

    seq: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        if type(self.seq) is not int:
            raise ValidationError(f"block seq must be an integer, got {self.seq!r}")
        if self.seq < 0:
            raise ValidationError(f"block seq must be non-negative, got {self.seq}")
        if not isinstance(self.prev_hash, (bytes, bytearray)):
            raise ValidationError(f"block prev_hash must be bytes, got {self.prev_hash!r}")
        txs = tuple(self.txs)
        if not all(map(isinstance, txs, repeat(Transaction))):
            i = [isinstance(tx, Transaction) for tx in txs].index(False)
            raise ValidationError(f"block txs[{i}] must be a Transaction, got {txs[i]!r}")
        object.__setattr__(self, "txs", txs)
        object.__setattr__(self, "prev_hash", bytes(self.prev_hash))

    def __len__(self) -> int:
        return len(self.txs)


def _trusted_block(seq: int, prev_hash: bytes, txs: tuple[Transaction, ...]) -> Block:
    """A ``Block`` from fields the caller has already checked, built without
    ``__init__`` and its ``__post_init__`` re-checks."""
    block = object.__new__(Block)
    object.__setattr__(block, "seq", seq)
    object.__setattr__(block, "prev_hash", prev_hash)
    object.__setattr__(block, "txs", txs)
    return block


def validate_block(block: Block) -> list[str]:
    """Return a list of semantic problems; empty means processable.

    Transaction ids must be unique and form the contiguous range [0, n),
    which every downstream module (conflict graph, schedules, executors)
    relies on for deterministic indexing.
    """
    problems: list[str] = []
    ids = [tx.id for tx in block.txs]
    if len(set(ids)) != len(ids):
        problems.append("duplicate transaction ids")
    elif ids and set(ids) != set(range(len(ids))):
        problems.append(f"transaction ids must cover 0..{len(ids) - 1}")
    return problems


class GlobalState:
    """Immutable map from object keys to int64 values; absent keys read as 0.

    The constructor takes what a state file or a block can hold: non-empty
    string keys and ``int`` values (a ``bool`` is not one); anything else
    raises ``ValidationError``.

    Entries with value 0 are normalized away so states that differ only in
    explicit zeros compare and digest identically. The entries are kept in
    ascending key order (code-point order of the key strings): the
    constructor sorts them once, ``with_changes`` keeps every surviving key
    in its place and re-sorts only when it adds a key the parent lacks. So
    ``items()`` and ``digest()`` never sort.

    ``digest()`` is the sha256 hex digest of ``canonical_json(self.items())``:
    the compact ASCII JSON list of ``[key, value]`` pairs, ascending by key,
    zero values dropped, e.g. ``[["a",1],["b",-2]]``; ``[]`` for the empty
    state. It streams exactly those bytes into sha256: ``_DIGEST_CHUNK``
    entries are encoded at a time and the chunk texts joined by ``,`` inside
    one pair of brackets. The chunk is small so that a large state's digest
    builds neither a list of every entry nor the whole payload, and reuses
    its tuples through CPython's free list instead of setting off cyclic-GC
    collections.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[ObjectKey, int] | None = None) -> None:
        entries = entries or {}
        # the keys are checked before the sort, which mixed key types would
        # break, and each value in the one pass after it; that pass runs once
        # per entry of a state file, so it inlines wrap_int64
        if not all(map(isinstance, entries, repeat(str))) or "" in entries:
            raise ValidationError(_state_key_fault(entries))
        self._entries: dict[ObjectKey, int] = {
            k: w
            for k in sorted(entries)
            if (type(v := entries[k]) is int or _reject_state_value(k, v))
            and (w := (v + _I64_HALF) % _I64_SPAN - _I64_HALF)
        }

    def get(self, key: ObjectKey) -> int:
        return self._entries.get(key, 0)

    def items(self) -> list[tuple[ObjectKey, int]]:
        return list(self._entries.items())

    def with_changes(self, changes: Mapping[ObjectKey, int]) -> "GlobalState":
        # copy the already-normalized entries in their key order; only the
        # changed keys need wrapping, and an overwritten key keeps its place
        merged = dict(self._entries)
        fresh = False  # whether a key the parent lacks landed at the end
        for k, v in changes.items():
            if w := wrap_int64(v):
                fresh = fresh or k not in merged
                merged[k] = w
            else:
                merged.pop(k, None)
        if fresh:
            merged = {k: merged[k] for k in sorted(merged)}
        out = GlobalState.__new__(GlobalState)
        out._entries = merged
        return out

    def digest(self) -> str:
        sha = hashlib.sha256(b"[")
        entries = iter(self._entries.items())
        comma = b""
        while chunk := list(islice(entries, _DIGEST_CHUNK)):
            sha.update(comma)
            sha.update(canonical_json(chunk)[1:-1].encode())
            comma = b","
        sha.update(b"]")
        return sha.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"GlobalState({self._entries!r})"


def _state_key_fault(entries) -> str:
    key = next(k for k in entries if not isinstance(k, str) or not k)
    return f"state keys must be non-empty strings, got {key!r}"


def _reject_state_value(key, value):
    raise ValidationError(f"state value of {key!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TxResult:
    """Observed reads and produced writes of one executed transaction."""

    tx_id: int
    read_values: dict[ObjectKey, int] = field(default_factory=dict)
    written_values: dict[ObjectKey, int] = field(default_factory=dict)


def run_program(tx: Transaction, reads: Mapping[ObjectKey, int]) -> dict[ObjectKey, int]:
    """Evaluate a transaction's program against the given read values.

    ``reads`` must cover exactly the declared read set. Pure: identical
    inputs give identical outputs.
    """
    if set(reads) != set(tx.read_set):
        raise ValidationError(f"tx {tx.id}: reads do not match declared read set")
    kind = tx.program.kind
    if kind is ProgramKind.SLEEP_ONLY:
        return {}
    if kind is ProgramKind.WRITE_CONST:
        value = tx.program.const_value
        return {key: value for key in sorted(tx.write_set)}
    if kind is ProgramKind.SUM_AND_ADD:
        total = wrap_int64(sum(reads[k] for k in sorted(tx.read_set)) + tx.program.const_value)
        return {key: total for key in sorted(tx.write_set)}
    raise ValidationError(f"unknown program kind: {kind!r}")


# ---------------------------------------------------------------------------
# Block file format: one canonical JSON document per block. A stream file is
# one document per line. parse -> serialize -> parse is the identity.
# ---------------------------------------------------------------------------

def block_to_obj(block: Block) -> dict:
    return {
        "seq": block.seq,
        "prev_hash": block.prev_hash.hex(),
        "txs": [
            {
                "id": tx.id,
                "reads": sorted(tx.read_set),
                "writes": sorted(tx.write_set),
                "length": tx.length,
                "program": {"kind": tx.program.kind.value, "const": tx.program.const_value},
            }
            for tx in block.txs
        ],
    }


def block_to_text(block: Block) -> str:
    return canonical_json(block_to_obj(block)) + "\n"


def block_hash(block: Block) -> bytes:
    return hashlib.sha256(block_to_text(block).encode()).digest()


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


_GONE = object()  # the value of a missing field
_KINDS = {kind.value: kind for kind in ProgramKind}


def _field_fault(i: int, key: str, value, what: str) -> ParseError:
    if value is _GONE:
        return ParseError(f"tx[{i}]: missing field {key!r}")
    return ParseError(f"tx[{i}]: {key} must be {what}")


def _kind_value(i: int, kind) -> str:
    """The ``ProgramKind`` value of a program's raw kind that is not already
    one of the value strings; raises for a missing or unknown kind."""
    if kind is _GONE:
        raise ParseError(f"tx[{i}]: missing field 'kind'")
    try:
        return ProgramKind(kind).value
    except ValueError as exc:
        raise ParseError(f"tx[{i}]: unknown program kind {kind!r}") from exc


def block_from_obj(obj: Mapping) -> Block:
    """Parse one block document; every malformed one raises ``ParseError``.

    One pass over the transactions checks each field once, in this order
    per transaction: ``program`` and its ``kind``; ``id``, ``reads``,
    ``writes``, ``length`` and ``const``, each present and of its JSON type;
    hashable keys; ``id >= 0``; ``length >= 1``; and last the keys, each
    distinct key of the block once; after the transactions, ``seq >= 0``.
    The transactions and the block are built without re-running the
    ``Transaction`` and ``Block`` checks, and equal programs are shared
    within the block.
    """
    where = "block"
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise ParseError("block document must be a JSON object")
    seq = _require(obj, "seq", where)
    prev_hex = _require(obj, "prev_hash", where)
    raw_txs = _require(obj, "txs", where)
    if type(seq) is not int:
        raise ParseError(f"{where}: seq must be an integer")
    try:
        prev_hash = bytes.fromhex(prev_hex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: prev_hash is not valid hex") from exc
    if not isinstance(raw_txs, list):
        raise ParseError(f"{where}: txs must be a list")
    txs = []
    programs: dict[tuple[str, int], TxProgram] = {}
    valid_keys: set = set()  # the keys of this block already checked
    for i, raw in enumerate(raw_txs):
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise ParseError(f"tx[{i}]: must be a JSON object")
        prog = raw.get("program", _GONE)
        if prog is _GONE:
            raise ParseError(f"tx[{i}]: missing field 'program'")
        # a program that is not an object has no kind
        is_object = type(prog) is dict or isinstance(prog, Mapping)
        kind = prog.get("kind", _GONE) if is_object else _GONE
        if type(kind) is not str or kind not in _KINDS:
            kind = _kind_value(i, kind)
        tx_id = raw.get("id", _GONE)
        if type(tx_id) is not int:
            raise _field_fault(i, "id", tx_id, "an integer")
        reads = raw.get("reads", _GONE)
        if type(reads) is not list:
            raise _field_fault(i, "reads", reads, "a list")
        writes = raw.get("writes", _GONE)
        if type(writes) is not list:
            raise _field_fault(i, "writes", writes, "a list")
        length = raw.get("length", _GONE)
        if type(length) is not int:
            raise _field_fault(i, "length", length, "an integer")
        const = prog.get("const", _GONE)
        if type(const) is not int:
            raise _field_fault(i, "const", const, "an integer")
        try:
            read_set, write_set = frozenset(reads), frozenset(writes)
        except TypeError as exc:  # an unhashable key
            raise ParseError(f"tx[{i}]: {_key_fault(tx_id)}") from exc
        if tx_id < 0 or length < 1:
            raise ParseError(f"tx[{i}]: {_id_or_length_fault(tx_id, length)}")
        if not (valid_keys.issuperset(read_set) and valid_keys.issuperset(write_set)):
            if _has_bad_key(read_set) or _has_bad_key(write_set):
                raise ParseError(f"tx[{i}]: {_key_fault(tx_id)}")
            valid_keys.update(read_set, write_set)
        program = programs.get((kind, const))
        if program is None:
            program = programs[kind, const] = TxProgram(_KINDS[kind], const)
        txs.append(_trusted_transaction(tx_id, read_set, write_set, length, program))
    if seq < 0:
        raise ParseError(f"{where}: block seq must be non-negative, got {seq}")
    return _trusted_block(seq, prev_hash, tuple(txs))


@_gc_paused
def block_from_text(text: str) -> Block:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return block_from_obj(obj)


def read_block_file(path) -> Block:
    with open(path, "r", encoding="utf-8") as fh:
        return block_from_text(fh.read())


def write_block_file(path, block: Block) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(block_to_text(block))


def read_stream_file(path) -> Iterator[Block]:
    """Yield blocks from a stream file, one JSON document per line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield block_from_text(line)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc


def write_stream_file(path, blocks: Iterable[Block]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.write(block_to_text(block))
