"""Core domain types: transactions, blocks, global state, and the tiny
deterministic transaction language used to make executions comparable.

Values are signed 64-bit integers with wrap-around, so every program is a
pure function of its read values on every platform. A missing key always
reads as 0, which makes any block executable against an empty state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .errors import ParseError, ValidationError

# An object key is a non-empty string naming one global-state cell.
ObjectKey = str

_I64_SPAN = 1 << 64
_I64_HALF = 1 << 63


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


@dataclass(frozen=True)
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
        object.__setattr__(self, "const_value", wrap_int64(self.const_value))


@dataclass(frozen=True)
class Transaction:
    """One transaction: identity, declared access sets, duration, program.

    The read and write sets are over-approximations: every key the program
    may touch in any execution appears in the matching set. ``length`` is an
    abstract duration in time units, not wall-clock time.
    """

    id: int
    read_set: frozenset[ObjectKey]
    write_set: frozenset[ObjectKey]
    length: int
    program: TxProgram

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValidationError(f"transaction id must be non-negative, got {self.id}")
        if self.length < 1:
            raise ValidationError(f"transaction {self.id}: length must be >= 1, got {self.length}")
        object.__setattr__(self, "read_set", frozenset(self.read_set))
        object.__setattr__(self, "write_set", frozenset(self.write_set))
        for key in self.read_set | self.write_set:
            if not isinstance(key, str) or not key:
                raise ValidationError(f"transaction {self.id}: object keys must be non-empty strings")


@dataclass(frozen=True)
class Block:
    """An ordered batch of transactions as decided by consensus.

    The list order is the consensus-induced total order; only the
    order-following scheduler consumes it. Construction does not enforce
    semantic validity (e.g. unique ids) so that invalid blocks remain
    representable; use :func:`validate_block` before processing.
    """

    seq: int
    prev_hash: bytes
    txs: tuple[Transaction, ...]

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValidationError(f"block seq must be non-negative, got {self.seq}")
        object.__setattr__(self, "txs", tuple(self.txs))
        object.__setattr__(self, "prev_hash", bytes(self.prev_hash))

    def __len__(self) -> int:
        return len(self.txs)


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

    Entries with value 0 are normalized away so states that differ only in
    explicit zeros compare and digest identically.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[ObjectKey, int] | None = None) -> None:
        self._entries: dict[ObjectKey, int] = {
            k: w for k, v in (entries or {}).items() if (w := wrap_int64(v)) != 0
        }

    def get(self, key: ObjectKey) -> int:
        return self._entries.get(key, 0)

    def items(self) -> list[tuple[ObjectKey, int]]:
        return sorted(self._entries.items())

    def with_changes(self, changes: Mapping[ObjectKey, int]) -> "GlobalState":
        # copy the already-normalized entries; only the changed keys need wrapping
        merged = dict(self._entries)
        for k, v in changes.items():
            if w := wrap_int64(v):
                merged[k] = w
            else:
                merged.pop(k, None)
        out = GlobalState.__new__(GlobalState)
        out._entries = merged
        return out

    def digest(self) -> str:
        payload = json.dumps(self.items(), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"GlobalState({self._entries!r})"


@dataclass(frozen=True)
class TxResult:
    """Observed reads and produced writes of one executed transaction.

    ``finish_time`` is populated only by the simulated executor.
    """

    tx_id: int
    read_values: dict[ObjectKey, int] = field(default_factory=dict)
    written_values: dict[ObjectKey, int] = field(default_factory=dict)
    finish_time: int | None = None


def run_program(tx: Transaction, reads: Mapping[ObjectKey, int]) -> dict[ObjectKey, int]:
    """Evaluate a transaction's program against the given read values.

    ``reads`` must cover exactly the declared read set (SLEEP_ONLY may also
    receive an empty map). Pure: identical inputs give identical outputs.
    """
    kind = tx.program.kind
    if kind is ProgramKind.SLEEP_ONLY:
        if reads and set(reads) != set(tx.read_set):
            raise ValidationError(f"tx {tx.id}: reads do not match declared read set")
        return {}
    if set(reads) != set(tx.read_set):
        raise ValidationError(f"tx {tx.id}: reads do not match declared read set")
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
    return json.dumps(block_to_obj(block), separators=(",", ":")) + "\n"


def block_hash(block: Block) -> bytes:
    return hashlib.sha256(block_to_text(block).encode()).digest()


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _typed(obj: Mapping, key: str, kind: type, where: str):
    """A required field whose JSON type must be exactly ``kind`` (int or
    list; a bool is not an int)."""
    value = _require(obj, key, where)
    if type(value) is not kind:
        raise ParseError(f"{where}: {key} must be {'an integer' if kind is int else 'a list'}")
    return value


def _is_object(value) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def block_from_obj(obj: Mapping) -> Block:
    """Parse one block document; every malformed one raises ``ParseError``.

    Each field is checked once: present, of its JSON type (``id``,
    ``length`` and ``const`` integers, ``reads`` and ``writes`` lists), then
    its value, by the dataclass checks.
    """
    where = "block"
    if not _is_object(obj):
        raise ParseError("block document must be a JSON object")
    seq = _require(obj, "seq", where)
    prev_hex = _require(obj, "prev_hash", where)
    raw_txs = _require(obj, "txs", where)
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ParseError(f"{where}: seq must be an integer")
    try:
        prev_hash = bytes.fromhex(prev_hex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: prev_hash is not valid hex") from exc
    if not isinstance(raw_txs, list):
        raise ParseError(f"{where}: txs must be a list")
    txs = []
    for i, raw in enumerate(raw_txs):
        twhere = f"tx[{i}]"
        if not _is_object(raw):
            raise ParseError(f"{twhere}: must be a JSON object")
        prog = _require(raw, "program", twhere)
        if not _is_object(prog):
            # a program that is not an object has no kind
            raise ParseError(f"{twhere}: missing field 'kind'")
        try:
            kind = ProgramKind(_require(prog, "kind", twhere))
        except ValueError as exc:
            raise ParseError(f"{twhere}: unknown program kind {prog.get('kind')!r}") from exc
        tx_id = _typed(raw, "id", int, twhere)
        reads = _typed(raw, "reads", list, twhere)
        writes = _typed(raw, "writes", list, twhere)
        length = _typed(raw, "length", int, twhere)
        const = _typed(prog, "const", int, twhere)
        try:
            read_set, write_set = frozenset(reads), frozenset(writes)
        except TypeError as exc:  # an unhashable key
            raise ParseError(
                f"{twhere}: transaction {tx_id}: object keys must be non-empty strings"
            ) from exc
        try:
            txs.append(
                Transaction(
                    id=tx_id,
                    read_set=read_set,
                    write_set=write_set,
                    length=length,
                    program=TxProgram(kind=kind, const_value=const),
                )
            )
        except ValidationError as exc:
            raise ParseError(f"{twhere}: {exc}") from exc
    try:
        return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from exc


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
