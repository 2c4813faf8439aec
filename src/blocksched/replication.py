"""State-machine-replication main loop with built-in block runners.

A block runner bundles schedule synthesis, schedule validation, and an
execution engine. Every built-in runner is one :class:`BlockRunner` driven by
one name-keyed table, ``BUILTIN_RUNNERS``: each entry names the coloring step
whose color classes become the levels (none for ``order``, which follows the
block's list order) and whether the levels run as barrier batches.
``plan_block`` builds the conflict graph, makes the plan and checks it; it is
the one place a runner's plan is checked. The main loop fetches blocks from an
ordered stream (file or generator backed; no real consensus layer here),
checks sequence numbers and the previous-block hash, runs the block through
the runner, applies the state changes, and appends a digest record to an
append-only ledger. Replaying the same stream with any sequentially
deterministic runner reproduces the ledger byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

from .coloring import (
    Coloring,
    descending_degree_order,
    exact_min_coloring,
    exact_min_weighted_coloring,
    greedy_coloring,
    partition_from_coloring,
)
from .conflict import ConflictGraph, build_conflict_graph
from .errors import CapacityError, InvariantError, ParseError, ValidationError
from .executor import BatchExecutionHandle, GraphExecutionHandle
from .model import Block, GlobalState, Transaction, TxResult, block_hash, validate_block
from .schedule import (
    BatchSchedule,
    GraphSchedule,
    is_valid_batch_schedule,
    is_valid_schedule,
    level_schedule,
    size_descending_color_order,
    total_order_schedule,
)


@dataclass(frozen=True)
class TxError:
    """Per-transaction error emitted when a block fails validation."""

    tx_id: int
    error: str


BlockResults = list[Union[TxResult, TxError]]


@dataclass(frozen=True)
class GraphPlan:
    """A runner-produced graph schedule plus synthesis metadata."""

    schedule: GraphSchedule
    levels: tuple[tuple[int, ...], ...] | None = None
    coloring_mode: str | None = None
    # True or False when the runner tried an exact coloring (False: it fell
    # back to greedy); None when it never tries one
    exact: bool | None = None


@dataclass(frozen=True)
class BatchPlan:
    batches: BatchSchedule
    levels: tuple[tuple[int, ...], ...]
    coloring_mode: str | None = None
    exact: bool | None = None


def _color_partition(coloring: Coloring, color_order: str) -> tuple[tuple[int, ...], ...]:
    if color_order == "size-desc":
        return size_descending_color_order(coloring)
    if color_order == "ascending":
        return partition_from_coloring(coloring)
    raise ValidationError(f"unknown color order {color_order!r}")


# Coloring steps: (runner, txs, conflict graph) -> (coloring, coloring_mode,
# exact). Each looks up the coloring functions as module globals when it runs,
# so a patched global (as the benchmark's tracer installs) takes effect.

def _greedy_step(runner, txs, g):
    return greedy_coloring(g, descending_degree_order(g)), "greedy", None


def _min_coloring_step(runner, txs, g):
    """Exact minimal coloring, greedy above the exact cap."""
    try:
        return exact_min_coloring(g, cap=runner.exact_cap), "exact", True
    except CapacityError:
        return greedy_coloring(g, descending_degree_order(g)), "exact", False


def _weighted_coloring_step(runner, txs, g):
    """Exact minimal weighted coloring, greedy above the weighted cap.

    With ``epsilon_cutoff`` set, a block whose length spread is within the
    cutoff is treated as homogeneous and colored unweighted.
    """
    lengths = {tx.id: tx.length for tx in txs}
    spread = max(lengths.values()) - min(lengths.values()) if lengths else 0
    try:
        if runner.epsilon_cutoff is not None and spread <= runner.epsilon_cutoff:
            return exact_min_coloring(g, cap=runner.weighted_cap), "exact", True
        coloring = exact_min_weighted_coloring(g, lengths, cap=runner.weighted_cap)
        return coloring, "weighted-exact", True
    except CapacityError:
        return greedy_coloring(g, descending_degree_order(g)), "weighted-exact", False


# Runner name -> (coloring step, levels run as barrier batches). ``order`` has
# no coloring step: it directs every conflict edge by the block's list order.
# The CLI's --runner choices come from these keys.
BUILTIN_RUNNERS: dict[str, tuple[Callable | None, bool]] = {
    "order": (None, False),
    "greedy": (_greedy_step, False),
    "min-coloring": (_min_coloring_step, False),
    "weighted-coloring": (_weighted_coloring_step, False),
    "batch": (_greedy_step, True),
}


@dataclass(frozen=True)
class BlockRunner:
    """A built-in runner: its name in ``BUILTIN_RUNNERS`` plus the coloring
    options. ``make_schedule`` is a pure deterministic function of the
    transactions and the conflict constraints."""

    name: str = "order"
    color_order: str = "size-desc"
    exact_cap: int = 64
    weighted_cap: int = 20
    epsilon_cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.name not in BUILTIN_RUNNERS:
            raise ValidationError(
                f"unknown runner {self.name!r}; choose from {sorted(BUILTIN_RUNNERS)}"
            )

    def make_schedule(
        self, txs: Sequence[Transaction], constraints: ConflictGraph
    ) -> GraphPlan | BatchPlan:
        coloring_step, batch = BUILTIN_RUNNERS[self.name]
        if coloring_step is None:
            return GraphPlan(schedule=total_order_schedule(txs, constraints))
        coloring, mode, exact = coloring_step(self, txs, constraints)
        levels = _color_partition(coloring, self.color_order)
        if batch:
            return BatchPlan(
                batches=BatchSchedule(levels), levels=levels, coloring_mode=mode, exact=exact
            )
        return GraphPlan(
            schedule=level_schedule(levels, constraints),
            levels=levels,
            coloring_mode=mode,
            exact=exact,
        )

    def validate_schedule(
        self, txs: Sequence[Transaction], constraints: ConflictGraph, plan: Any
    ) -> bool:
        if isinstance(plan, BatchPlan):
            return is_valid_batch_schedule(plan.batches, constraints)
        return isinstance(plan, GraphPlan) and is_valid_schedule(plan.schedule, constraints)

    def init_execution(
        self, block: Block, plan: GraphPlan | BatchPlan, state: GlobalState, *, trace: bool = False
    ) -> GraphExecutionHandle:
        if isinstance(plan, BatchPlan):
            return BatchExecutionHandle(block, plan.batches, state, trace=trace)
        return GraphExecutionHandle(block, plan.schedule, state, trace=trace)


def make_runner(
    name: str,
    *,
    color_order: str = "size-desc",
    exact_cap: int = 64,
    weighted_cap: int = 20,
    epsilon_cutoff: int | None = None,
) -> BlockRunner:
    return BlockRunner(name, color_order, exact_cap, weighted_cap, epsilon_cutoff)


def plan_block(runner: BlockRunner, block: Block) -> GraphPlan | BatchPlan:
    """The runner's plan for a valid block, checked against its conflict graph.

    This is the one place a runner's plan is checked: a plan that fails the
    runner's own check is a fatal configuration error (InvariantError).
    """
    constraints = build_conflict_graph(block)
    plan = runner.make_schedule(block.txs, constraints)
    if not runner.validate_schedule(block.txs, constraints, plan):
        raise InvariantError(f"runner {runner.name!r} produced an invalid schedule")
    return plan


def process_block(
    runner: BlockRunner, block: Block, state: GlobalState
) -> tuple[dict[str, int], BlockResults]:
    """Run one block through a runner: plan, check, execute, drain.

    An invalid block produces one error result per transaction and leaves the
    state untouched.
    """
    problems = validate_block(block)
    if problems:
        reason = "; ".join(problems)
        return {}, [TxError(tx_id=tx.id, error=reason) for tx in block.txs]
    execution = runner.init_execution(block, plan_block(runner, block), state)
    execution.start()
    results: BlockResults = []
    while execution.running():
        results.extend(execution.drain_results())
    results.extend(execution.drain_results())
    return execution.outcome().state_changes, results


# ---------------------------------------------------------------------------
# Ledger: append-only, length-prefixed records with a digest chain.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRecord:
    seq: int
    block_hash: str
    results_digest: str
    state_digest: str
    record_digest: str


def results_digest(results: BlockResults) -> str:
    canonical = []
    for item in sorted(results, key=lambda r: r.tx_id):
        if isinstance(item, TxError):
            canonical.append({"id": item.tx_id, "error": item.error})
        else:
            canonical.append(
                {
                    "id": item.tx_id,
                    "reads": sorted(item.read_values.items()),
                    "writes": sorted(item.written_values.items()),
                }
            )
    payload = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _record_digest(prev_digest: str, seq: int, bhash: str, rdigest: str, sdigest: str) -> str:
    payload = json.dumps(
        {"prev": prev_digest, "seq": seq, "block": bhash, "results": rdigest, "state": sdigest},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def make_record(prev_digest: str, seq: int, bhash: str, rdigest: str, sdigest: str) -> LedgerRecord:
    return LedgerRecord(
        seq=seq,
        block_hash=bhash,
        results_digest=rdigest,
        state_digest=sdigest,
        record_digest=_record_digest(prev_digest, seq, bhash, rdigest, sdigest),
    )


class Ledger:
    """Append-only record file. Each record is a 4-byte big-endian length
    followed by a canonical JSON payload; records chain through sha256."""

    GENESIS_DIGEST = ""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, record: LedgerRecord) -> None:
        payload = json.dumps(
            {
                "seq": record.seq,
                "block_hash": record.block_hash,
                "results_digest": record.results_digest,
                "state_digest": record.state_digest,
                "record_digest": record.record_digest,
            },
            separators=(",", ":"),
        ).encode()
        with open(self.path, "ab") as fh:
            fh.write(struct.pack(">I", len(payload)))
            fh.write(payload)

    def load(self) -> list[LedgerRecord]:
        """Read and verify the whole chain; raises ParseError on corruption."""
        records, tail = self._scan()
        if tail is not None:
            raise ParseError(tail[1])
        return records

    def recover(self) -> list[LedgerRecord]:
        """``load``, after cutting off an incomplete final record: the short
        length prefix or short payload a crash in the middle of ``append``
        leaves at the end of the file. Any other fault raises ParseError and
        leaves the file untouched."""
        records, tail = self._scan()
        if tail is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(tail[0])
        return records

    def _scan(self) -> tuple[list[LedgerRecord], tuple[int, str] | None]:
        """Verified complete records, plus the offset and error of an
        incomplete final record if the file ends inside one."""
        if not self.path.exists():
            return [], None
        records: list[LedgerRecord] = []
        prev = self.GENESIS_DIGEST
        with open(self.path, "rb") as fh:
            index = 0
            while True:
                start = fh.tell()
                header = fh.read(4)
                if not header:
                    break
                if len(header) < 4:
                    return records, (start, f"ledger record {index}: truncated length prefix")
                (length,) = struct.unpack(">I", header)
                payload = fh.read(length)
                if len(payload) < length:
                    error = f"ledger record {index}: truncated payload"
                    # payloads are printable ASCII, and records are far below
                    # 16 MiB, so every length prefix starts with a zero byte;
                    # a short payload holding any other byte has run past a
                    # record boundary: its length is corrupt, not torn
                    if all(0x20 <= b < 0x7F for b in payload):
                        return records, (start, error)
                    raise ParseError(error)
                try:
                    obj = json.loads(payload)
                    record = LedgerRecord(
                        seq=obj["seq"],
                        block_hash=obj["block_hash"],
                        results_digest=obj["results_digest"],
                        state_digest=obj["state_digest"],
                        record_digest=obj["record_digest"],
                    )
                except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
                    raise ParseError(f"ledger record {index}: malformed payload") from exc
                expect = _record_digest(
                    prev, record.seq, record.block_hash, record.results_digest, record.state_digest
                )
                if expect != record.record_digest:
                    raise ParseError(f"ledger record {index}: digest chain broken")
                if records and record.seq != records[-1].seq + 1:
                    raise ParseError(f"ledger record {index}: sequence gap")
                records.append(record)
                prev = record.record_digest
                index += 1
        return records, None

    def truncate(self) -> None:
        with open(self.path, "wb"):
            pass


def run_main_loop(
    runner: BlockRunner,
    blocks: Iterable[Block],
    initial_state: GlobalState,
    ledger_path,
    *,
    resume: bool = False,
    max_blocks: int | None = None,
) -> GlobalState:
    """Process an ordered block stream, appending one ledger record per block.

    With ``resume`` the existing ledger chain is verified first, and an
    incomplete final record left by a crash inside an append is cut off;
    already recorded blocks are re-executed deterministically and checked
    against their records instead of being appended again, so a killed run
    finishes with the exact ledger of an uninterrupted run; a stream
    that ends before every recorded block is replayed raises ValidationError.
    ``max_blocks`` stops after that many blocks (used to simulate a crash).
    """
    ledger = Ledger(ledger_path)
    existing = ledger.recover() if resume else []
    if not resume:
        ledger.truncate()
    state = initial_state
    prev_hash: bytes | None = None
    prev_record_digest = Ledger.GENESIS_DIGEST
    expected_seq: int | None = None
    processed = 0
    for block in blocks:
        if max_blocks is not None and processed >= max_blocks:
            break
        if expected_seq is None:
            if block.seq != 0:
                raise ValidationError(f"stream must start at seq 0, got {block.seq}")
        elif block.seq != expected_seq:
            raise ValidationError(f"sequence gap: expected {expected_seq}, got {block.seq}")
        if prev_hash is not None and block.prev_hash != prev_hash:
            raise ValidationError(f"block {block.seq}: prev_hash does not match previous block")
        changes, results = process_block(runner, block, state)
        state = state.with_changes(changes)
        bhash = block_hash(block)
        record = make_record(
            prev_record_digest,
            block.seq,
            bhash.hex(),
            results_digest(results),
            state.digest(),
        )
        if processed < len(existing):
            if existing[processed] != record:
                raise ParseError(
                    f"resume diverged at seq {block.seq}: replayed record does not match ledger"
                )
        else:
            ledger.append(record)
        prev_record_digest = record.record_digest
        prev_hash = bhash
        expected_seq = block.seq + 1
        processed += 1
    stopped_early = max_blocks is not None and processed >= max_blocks
    if processed < len(existing) and not stopped_early:
        raise ValidationError(
            f"resume: stream ended after {processed} blocks, ledger has {len(existing)} records"
        )
    return state
