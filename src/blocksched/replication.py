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
import itertools
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

from .coloring import (
    descending_degree_order,
    exact_min_coloring,
    exact_min_weighted_coloring,
    greedy_coloring,
)
from .conflict import ConflictGraph, build_conflict_graph
from .errors import CapacityError, InvariantError, ParseError, ValidationError
from .executor import BatchExecutionHandle, GraphExecutionHandle
from .model import (
    Block,
    GlobalState,
    Transaction,
    TxResult,
    _gc_paused,
    block_hash,
    canonical_json,
    validate_block,
)
from .schedule import (
    UNORDERED_CONFLICT,
    BatchSchedule,
    GraphSchedule,
    check_partition,
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


# Coloring steps: (runner, txs, conflict graph) -> (coloring, coloring_mode,
# exact). Each looks up the coloring functions as module globals when it runs,
# so a patched global (as the benchmark's tracer installs) takes effect.

def _greedy_step(runner, txs, g):
    return greedy_coloring(g, descending_degree_order(g)), "greedy", None


def _min_coloring_step(runner, txs, g):
    """Exact minimal coloring, greedy above its vertex cap or work budget."""
    try:
        return exact_min_coloring(g), "exact", True
    except CapacityError:
        return greedy_coloring(g, descending_degree_order(g)), "exact", False


def _weighted_coloring_step(runner, txs, g):
    """Exact minimal weighted coloring, greedy above its cap or work budget.

    With ``epsilon_cutoff`` set, a block whose length spread is within the
    cutoff is treated as homogeneous and colored as ``min-coloring`` colors it.
    """
    lengths = {tx.id: tx.length for tx in txs}
    spread = max(lengths.values()) - min(lengths.values()) if lengths else 0
    if runner.epsilon_cutoff is not None and spread <= runner.epsilon_cutoff:
        return _min_coloring_step(runner, txs, g)
    try:
        return exact_min_weighted_coloring(g, lengths), "weighted-exact", True
    except CapacityError:
        return greedy_coloring(g, descending_degree_order(g)), "weighted-exact", False


# Runner name -> (coloring step, levels run as barrier batches). ``order`` has
# no coloring step: it directs every conflict edge by the block's list order.
# ``model.RUNNER_NAMES`` lists these keys, in this order, for the CLI's --runner
# choices.
BUILTIN_RUNNERS: dict[str, tuple[Callable | None, bool]] = {
    "order": (None, False),
    "greedy": (_greedy_step, False),
    "min-coloring": (_min_coloring_step, False),
    "weighted-coloring": (_weighted_coloring_step, False),
    "batch": (_greedy_step, True),
}


@dataclass(frozen=True)
class BlockRunner:
    """A built-in runner: its name in ``BUILTIN_RUNNERS`` plus the epsilon
    cutoff of ``weighted-coloring``. ``make_schedule`` is a pure deterministic
    function of the transactions and the conflict constraints; the color
    classes become levels in ``size_descending_color_order``, so every replica
    runs a block's levels in the same order."""

    name: str = "order"
    epsilon_cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.name not in BUILTIN_RUNNERS:
            raise ValidationError(
                f"unknown runner {self.name!r}; choose from {sorted(BUILTIN_RUNNERS)}"
            )
        if self.epsilon_cutoff is not None:
            if self.name != "weighted-coloring":
                raise ValidationError(
                    f"epsilon cutoff applies only to the weighted-coloring runner, not {self.name!r}"
                )
            if self.epsilon_cutoff < 0:
                raise ValidationError(f"epsilon cutoff must be >= 0, got {self.epsilon_cutoff}")

    @_gc_paused
    def make_schedule(
        self, txs: Sequence[Transaction], constraints: ConflictGraph
    ) -> GraphPlan | BatchPlan:
        coloring_step, batch = BUILTIN_RUNNERS[self.name]
        if coloring_step is None:
            return GraphPlan(schedule=total_order_schedule(txs, constraints))
        coloring, mode, exact = coloring_step(self, txs, constraints)
        levels = size_descending_color_order(coloring)
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
        """Whether ``plan`` passes ``plan_block``'s check, without its reason.
        Only the benchmark harness calls this; ``plan_block`` does not."""
        try:
            _check_plan(plan, constraints)
        except ValidationError:
            return False
        return True

    def init_execution(
        self, block: Block, plan: GraphPlan | BatchPlan, state: GlobalState, *, trace: bool = False
    ) -> GraphExecutionHandle:
        if isinstance(plan, BatchPlan):
            return BatchExecutionHandle(block, plan.batches, state, trace=trace)
        return GraphExecutionHandle(block, plan.schedule, state, trace=trace)


def make_runner(name: str, *, epsilon_cutoff: int | None = None) -> BlockRunner:
    return BlockRunner(name, epsilon_cutoff)


def _check_plan(plan: Any, constraints: ConflictGraph) -> None:
    """Raise ``ValidationError`` unless ``plan`` is a valid plan for ``constraints``."""
    if isinstance(plan, BatchPlan):
        check_partition(plan.batches.batches, constraints)
    elif not isinstance(plan, GraphPlan):
        raise ValidationError(f"plan is a {type(plan).__name__}, not a GraphPlan or BatchPlan")
    elif not is_valid_schedule(plan.schedule, constraints):
        raise ValidationError(UNORDERED_CONFLICT)


def plan_block(runner: BlockRunner, block: Block) -> GraphPlan | BatchPlan:
    """The runner's plan for a valid block, checked against its conflict graph.

    This is the one place a runner's plan is checked: a plan that fails the
    check is a fatal configuration error, an ``InvariantError`` chained to
    the check's ``ValidationError`` and carrying its reason.
    """
    constraints = build_conflict_graph(block)
    plan = runner.make_schedule(block.txs, constraints)
    try:
        _check_plan(plan, constraints)
    except ValidationError as exc:
        raise InvariantError(f"runner {runner.name!r} produced an invalid schedule: {exc}") from exc
    return plan


def process_block(
    runner: BlockRunner, block: Block, state: GlobalState
) -> tuple[dict[str, int], BlockResults]:
    """Run one block through a runner: plan, check, execute.

    An invalid block produces one error result per transaction and leaves the
    state untouched.
    """
    problems = validate_block(block)
    if problems:
        reason = "; ".join(problems)
        return {}, [TxError(tx_id=tx.id, error=reason) for tx in block.txs]
    outcome = runner.init_execution(block, plan_block(runner, block), state).outcome()
    return outcome.state_changes, list(outcome.results)


# ---------------------------------------------------------------------------
# Ledger: append-only, length-prefixed records with a digest chain.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRecord:
    """One ledger record; ``Ledger.append`` writes its fields in this order."""

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
    return hashlib.sha256(canonical_json(canonical).encode()).hexdigest()


def make_record(prev_digest: str, seq: int, bhash: str, rdigest: str, sdigest: str) -> LedgerRecord:
    """The record of one block, chained to the previous record's digest: the
    main loop writes it, and ``Ledger`` re-derives it to verify each record."""
    payload = canonical_json(
        {"prev": prev_digest, "seq": seq, "block": bhash, "results": rdigest, "state": sdigest}
    )
    return LedgerRecord(seq, bhash, rdigest, sdigest, hashlib.sha256(payload.encode()).hexdigest())


class Ledger:
    """Append-only record file. Each record is a 4-byte big-endian length
    followed by a canonical JSON payload; records chain through sha256."""

    GENESIS_DIGEST = ""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, record: LedgerRecord) -> None:
        payload = canonical_json(asdict(record)).encode()
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
                    if type(obj["seq"]) is not int:  # a bool is rejected too
                        raise TypeError(f"seq {obj['seq']!r} is not an integer")
                    record = make_record(
                        prev, obj["seq"], obj["block_hash"], obj["results_digest"], obj["state_digest"]
                    )
                    stored = obj["record_digest"]
                except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, RecursionError) as exc:
                    raise ParseError(f"ledger record {index}: malformed payload") from exc
                if record.record_digest != stored:
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
    if max_blocks is not None and max_blocks < 0:
        raise ValidationError(f"max_blocks must be >= 0, got {max_blocks}")
    # the first block is read before the ledger is touched, so a stream that
    # cannot be opened or parsed leaves the ledger as it was
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is not None:
        blocks = itertools.chain((first,), blocks)
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
