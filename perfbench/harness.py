"""The four benchmark workloads, their output checks, and their metrics.

Every workload is a closed loop in one process and one thread: the next
block (or sample) is pulled only after the previous one is finished. The
only other threads are the ones the program starts itself. Inputs come
from ``--seed`` alone. Output checks run with the clock paused and tracing
off, or after the timed loop, so they never count as measured time.

Every timed block, sample and set-up is scaled to reference seconds by the
host speed that ``calibrate`` measured next to it (see calibrate.py), so a
slow spell of a shared host does not read as a slower program.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "blocksched" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no blocksched sources under {SRC}")
sys.path.insert(0, str(SRC))

from blocksched import analysis, coloring, conflict, executor, model, replication, schedule, workload  # noqa: E402
from blocksched.cli import _load_state as load_state  # noqa: E402
from blocksched.errors import BlockSchedError  # noqa: E402
from blocksched.model import GlobalState  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-up is timed in this many fresh processes before the timed loop and as
# many after it; setup_s is the median of all, so one burst of host speed
# does not decide it.
SETUP_REPEATS = 3
# Blocks are generated on demand in chunks of this size, with the clock paused.
STREAM_CHUNK = 64


@dataclass(frozen=True)
class SmrBigState:
    """Replay of small blocks against a large, nearly constant state."""

    n_txs: int = 32
    hot_keys: int = 8
    cold_keys: int = 20_000
    runner: str = "min-coloring"


@dataclass(frozen=True)
class SmrWide:
    """Replay of wide blocks over a tiny key universe, once per runner."""

    n_txs: int = 200
    runners: tuple[str, ...] = ("order", "greedy", "batch")


@dataclass(frozen=True)
class PlanLarge:
    """Schedule planning for large blocks, no execution and no ledger."""

    sizes: tuple[int, ...] = (1000, 2000)
    runners: tuple[str, ...] = ("greedy", "order")
    pool: int = 16


@dataclass(frozen=True)
class Study:
    """The order-penalty kernel on seeded G(n, p) samples, one worker."""

    cells: tuple[tuple[int, float], ...] = ((1000, 0.05), (2000, 0.01))
    pool: int = 8


DEFAULT_PARAMS = {
    "smr-big-state": SmrBigState(),
    "smr-wide": SmrWide(),
    "plan-large": PlanLarge(),
    "study": Study(),
}


def derive_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Clock:
    """perf_counter minus the time spent inside ``paused()``."""

    def __init__(self) -> None:
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start


@dataclass(frozen=True)
class Item:
    """One block or sample: its kind, measured wall seconds, transaction
    count, and the mean of the host speeds measured just before and just
    after it."""

    kind: str
    seconds: float
    txs: int
    traced: bool
    speed: float

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.speed


@dataclass
class Outcome:
    items: list[Item] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sched_latency: list[float] = field(default_factory=list)
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    # per-layer figures the harness measures itself, not through spans
    extra: dict[str, float] = field(default_factory=dict)


class Window:
    """Decides when the timed loop stops and when tracing starts."""

    def __init__(self, clock: Clock, seconds: float, tracer: Tracer | None) -> None:
        self.clock = clock
        self.start = clock.now()
        self.stop_at = self.start + seconds
        # a traced run measures its first half untraced, for the overhead figure
        self.trace_at = self.start + seconds / 2 if tracer is not None else math.inf
        self.tracer = tracer

    def over(self) -> bool:
        return self.clock.now() >= self.stop_at

    def traced(self) -> bool:
        """Switch tracing on once the window's second half starts."""
        if self.tracer is None or self.clock.now() < self.trace_at:
            return False
        self.tracer.install()
        return True

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blocksched.cli
runners = [blocksched.make_runner(name) for name in sys.argv[2].split(",") if name]
if sys.argv[3]:
    blocksched.cli._load_state(sys.argv[3])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[4])
import calibrate
print(seconds, calibrate.speed(3))
"""


def setup_times(runners: tuple[str, ...], state_path: Path | None) -> list[tuple[float, float]]:
    """Wall seconds and host speed of import, runner construction and the
    ``--state`` load, each in a fresh interpreter so nothing is inherited.
    The host speed is measured in the same interpreter right after."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), ",".join(runners),
             str(state_path) if state_path else "", str(Path(calibrate.__file__).parent)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, speed = done.stdout.split()
        times.append((float(seconds), float(speed)))
    return times


def set_up(out: "Outcome", times: list[tuple[float, float]]) -> None:
    out.setup_s = statistics.median(seconds * speed for seconds, speed in times)
    out.extra["wall.setup_s"] = statistics.median(seconds for seconds, _ in times)


# ---------------------------------------------------------------------------
# replication workloads
# ---------------------------------------------------------------------------

class Stream:
    """Chained block texts, generated on demand with the clock paused."""

    def __init__(self, make_block, clock: Clock) -> None:
        self._make_block = make_block
        self._clock = clock
        self._texts: list[str] = []
        self._prev = b""

    def text(self, index: int) -> str:
        while index >= len(self._texts):
            with self._clock.paused():
                for _ in range(STREAM_CHUNK):
                    block = self._make_block(len(self._texts), self._prev)
                    self._texts.append(model.block_to_text(block))
                    self._prev = model.block_hash(block)
        return self._texts[index]


def _big_state_inputs(p: SmrBigState, seed: int):
    rng = random.Random(derive_seed("smr-big-state", seed))
    hot = [f"h{i}" for i in range(p.hot_keys)]
    cold = [f"c{i}" for i in range(p.cold_keys)]
    state = {key: rng.randint(1, 1_000_000) for key in hot + cold}

    def make_block(seq: int, prev_hash: bytes) -> model.Block:
        r = random.Random(derive_seed("smr-big-state", seed, seq))
        txs = []
        for tx_id in range(p.n_txs):
            h = r.choice(hot)
            cs = r.sample(cold, r.randint(1, 2))
            writes = set(cs) | ({h} if r.random() < 0.5 else set())
            txs.append(model.Transaction(
                id=tx_id,
                read_set=frozenset({h, cs[0]}),
                write_set=frozenset(writes),
                length=1,
                program=model.TxProgram(model.ProgramKind.SUM_AND_ADD, r.randint(1, 100)),
            ))
        return model.Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))

    return state, make_block


def _wide_inputs(p: SmrWide, seed: int):
    def make_block(seq: int, prev_hash: bytes) -> model.Block:
        spec = workload.WorkloadSpec(
            n_txs=p.n_txs, key_universe=p.n_txs, seed=derive_seed("smr-wide", seed, seq)
        )
        return workload.gen_block(spec, seq=seq, prev_hash=prev_hash)

    return {}, make_block


@dataclass
class Replay:
    runner_name: str
    ledger: Path
    blocks: int = 0
    error: str | None = None
    final: GlobalState | None = None
    traced: list[bool] = field(default_factory=list)


def _replay(runner_name: str, stream: Stream, state: GlobalState, ledger: Path,
            window: Window, out: Outcome) -> Replay:
    """Feed the stream to ``run_main_loop`` until the window closes.

    A block's time is the interval between two pulls of the block iterator,
    which covers its parse, ``process_block``, state update, digests and
    ledger append.
    """
    replay = Replay(runner_name, ledger)
    runner = replication.make_runner(runner_name)

    def blocks():
        last = None
        txs = 0
        before = None
        while True:
            now = window.clock.now()
            if last is not None:
                with window.clock.paused():
                    after = calibrate.speed()
                out.items.append(Item(runner_name, now - last, txs, replay.traced[-1],
                                      (before + after) / 2))
            if window.over():
                return
            replay.traced.append(window.traced())
            if window.tracer is not None:
                window.tracer.seq = replay.blocks
            text = stream.text(replay.blocks)
            with window.clock.paused():
                before = calibrate.speed()
            block = model.block_from_text(text)
            txs = len(block.txs)
            replay.blocks += 1
            last = now
            yield block

    try:
        replay.final = replication.run_main_loop(runner, blocks(), state, ledger)
    except BlockSchedError as exc:
        replay.error = f"{type(exc).__name__}: {exc}"
    finally:
        window.close()
    return replay


def _ledger_payloads(path: Path) -> list[bytes]:
    """Raw records of a ledger file: 4-byte big-endian length, then payload.
    A record cut short is returned as it stands, so it compares unequal."""
    data = path.read_bytes() if path.exists() else b""
    records, pos = [], 0
    while pos < len(data):
        length = int.from_bytes(data[pos:pos + 4], "big")
        records.append(data[pos:pos + 4 + length])
        pos += 4 + length
    return records


class StateDigest:
    """The ledger's state digest, kept incrementally by the benchmark itself:
    sha256 over the compact JSON of the sorted non-zero entries, the format
    ``GlobalState.digest`` writes. Recomputing it in full for every block would
    make the check cost as much as the timed run on a large state."""

    def __init__(self, entries: dict[str, int]) -> None:
        self.values = {k: v for k, v in entries.items() if v}
        self.keys = sorted(self.values)
        self.parts = [self._part(k, self.values[k]) for k in self.keys]

    @staticmethod
    def _part(key: str, value: int) -> str:
        return json.dumps([key, value], separators=(",", ":"))

    def apply(self, changes: dict[str, int]) -> None:
        for key, value in changes.items():
            i = bisect.bisect_left(self.keys, key)
            present = i < len(self.keys) and self.keys[i] == key
            if not value:
                if present:
                    del self.keys[i], self.parts[i], self.values[key]
                continue
            if present:
                self.parts[i] = self._part(key, value)
            else:
                self.keys.insert(i, key)
                self.parts.insert(i, self._part(key, value))
            self.values[key] = value

    def hexdigest(self) -> str:
        return hashlib.sha256(("[" + ",".join(self.parts) + "]").encode()).hexdigest()


def _check_replay(replay: Replay, stream: Stream, state0: GlobalState, out: Outcome,
                  ref_ledger: Path) -> tuple[list[float], list[int]]:
    """Rebuild the replay's ledger from the runner's own plans, executed with
    ``execute_sequential``, and compare it with the timed run record by record.

    Returns the sequential execution time of every block (the work floor of
    the executor, run on just the keys the block touches) and the state size
    after every block.
    """
    runner = replication.make_runner(replay.runner_name)
    ledger = replication.Ledger(ref_ledger)
    ledger.truncate()
    state = StateDigest(dict(state0.items()))
    prev = replication.Ledger.GENESIS_DIGEST
    sequential_ms, keys = [], []
    checked = replay.blocks - (1 if replay.error else 0)
    for index in range(checked):
        block = model.block_from_text(stream.text(index))
        plan = runner.make_schedule(block.txs, conflict.build_conflict_graph(block))
        lengths = {tx.id: tx.length for tx in block.txs}
        if isinstance(plan, replication.BatchPlan):
            order = [v for batch in plan.batches.batches for v in batch]
            out.sched_latency.append(schedule.batch_latency(plan.batches, lengths))
        else:
            order = plan.schedule.topo_order()
            out.sched_latency.append(schedule.latency(plan.schedule, lengths))
        touched = set().union(*(tx.read_set | tx.write_set for tx in block.txs))
        before = GlobalState({k: state.values.get(k, 0) for k in touched})
        start = time.perf_counter()
        done = executor.execute_sequential(block, order, before)
        sequential_ms.append((time.perf_counter() - start) * 1e3)
        state.apply(done.state_changes)
        keys.append(len(state.values))
        record = replication.make_record(
            prev, block.seq, model.block_hash(block).hex(),
            replication.results_digest(list(done.results)), state.hexdigest(),
        )
        ledger.append(record)
        prev = record.record_digest
    got, want = _ledger_payloads(replay.ledger), _ledger_payloads(ref_ledger)
    bad = sum(1 for i in range(checked) if i >= len(got) or got[i] != want[i])
    bad += max(0, len(got) - checked)
    if replay.error is None and not bad:
        bad += 0 if replay.final.items() == sorted(state.values.items()) else 1
    out.attempted += replay.blocks
    out.failed += min(replay.blocks, bad + (1 if replay.error else 0))
    return sequential_ms, keys


def _run_smr(name: str, runner_names: tuple[str, ...], state_dict: dict, make_block,
             seed: int, seconds: float, tracer: Tracer | None, out_dir: Path) -> Outcome:
    out = Outcome()
    state_path = out_dir / f"{name}-seed{seed}-state.json"
    state_path.write_text(json.dumps(state_dict), encoding="utf-8")
    setup = setup_times(runner_names, state_path)
    # the replica loads its state through the same path as ``smr --state``
    state0 = load_state(str(state_path))
    clock = Clock()
    stream = Stream(make_block, clock)
    replays = []
    for runner_name in runner_names:
        window = Window(clock, seconds / len(runner_names), tracer)
        ledger = out_dir / f"{name}-seed{seed}-{runner_name}.ledger"
        replays.append(_replay(runner_name, stream, state0, ledger, window, out))
    out.peak_rss_mb = peak_rss_mb()
    set_up(out, setup + setup_times(runner_names, state_path))
    sequential, keys = [], []
    for replay in replays:
        ref = replay.ledger.with_suffix(".reference")
        seq_ms, state_keys = _check_replay(replay, stream, state0, out, ref)
        traced = replay.traced[: len(seq_ms)]
        sequential += [ms for ms, t in zip(seq_ms, traced) if t]
        keys += [k for k, t in zip(state_keys, traced) if t]
        if replay.error:
            print(f"{name}/{replay.runner_name}: {replay.error}", file=sys.stderr)
    out.extra["executor.sequential_ms"] = statistics.fmean(sequential) if sequential else 0.0
    out.extra["model.state_keys"] = statistics.fmean(keys) if keys else 0.0
    return out


def run_smr_big_state(p: SmrBigState, seed, seconds, tracer, out_dir) -> Outcome:
    state, make_block = _big_state_inputs(p, seed)
    return _run_smr("smr-big-state", (p.runner,), state, make_block, seed, seconds, tracer, out_dir)


def run_smr_wide(p: SmrWide, seed, seconds, tracer, out_dir) -> Outcome:
    state, make_block = _wide_inputs(p, seed)
    return _run_smr("smr-wide", p.runners, state, make_block, seed, seconds, tracer, out_dir)


# ---------------------------------------------------------------------------
# planning and study workloads
# ---------------------------------------------------------------------------

def _rounds(window: Window, kinds, body, out: Outcome) -> None:
    """Run whole rounds, one item of every kind per round, until the window
    closes; a round started before the deadline is finished."""
    rnd = 0
    try:
        while not window.over():
            traced = window.traced()
            for kind in kinds:
                out.attempted += 1
                if window.tracer is not None:
                    window.tracer.seq = out.attempted
                with window.clock.paused():
                    before = calibrate.speed()
                start = window.clock.now()
                try:
                    txs, check = body(kind, rnd)
                except BlockSchedError as exc:
                    print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    out.failed += 1
                    continue
                label = "-".join(str(part) for part in kind)
                seconds = window.clock.now() - start
                with window.clock.paused():
                    after = calibrate.speed()
                out.items.append(Item(label, seconds, txs, traced, (before + after) / 2))
                with window.clock.paused(), window.tracer.off() if window.tracer else nullcontext():
                    try:
                        ok = check()
                    except BlockSchedError:
                        ok = False
                out.failed += 0 if ok else 1
            rnd += 1
    finally:
        window.close()


def run_plan_large(p: PlanLarge, seed, seconds, tracer, out_dir) -> Outcome:
    """The ``schedule`` path: parse, conflict graph, ``make_schedule``,
    the runner's validity check, ``latency_stats``."""
    out = Outcome()
    setup = setup_times(p.runners, None)
    texts = {
        n: [model.block_to_text(workload.gen_block(workload.WorkloadSpec(
            n_txs=n, key_universe=n, seed=derive_seed("plan-large", seed, n, i))))
            for i in range(p.pool)]
        for n in p.sizes
    }
    runners = {name: replication.make_runner(name) for name in p.runners}
    first: dict[tuple, tuple] = {}

    def body(kind, rnd):
        n, name = kind
        text = texts[n][rnd % p.pool]
        block = model.block_from_text(text)
        g = conflict.build_conflict_graph(block)
        runner = runners[name]
        plan = runner.make_schedule(block.txs, g)
        valid = runner.validate_schedule(block.txs, g, plan)
        stats = schedule.latency_stats(plan.schedule, {tx.id: tx.length for tx in block.txs})

        def check() -> bool:
            out.sched_latency.append(stats.block_latency)
            key = (n, name, rnd % p.pool)
            if key not in first:
                # a separately built conflict graph and the simulator's makespan
                own = conflict.build_conflict_graph(model.block_from_text(text))
                _, makespan = executor.simulate_execution(block, plan.schedule, GlobalState())
                ok = schedule.is_valid_schedule(plan.schedule, own) and makespan == stats.block_latency
                first[key] = (plan.schedule.edges, stats.block_latency, ok)
            edges, latency, ok = first[key]
            return valid and ok and plan.schedule.edges == edges and stats.block_latency == latency

        return len(block.txs), check

    clock = Clock()
    kinds = [(n, name) for n in p.sizes for name in p.runners]
    _rounds(Window(clock, seconds, tracer), kinds, body, out)
    out.peak_rss_mb = peak_rss_mb()
    set_up(out, setup + setup_times(p.runners, None))
    return out


def run_study(p: Study, seed, seconds, tracer, out_dir) -> Outcome:
    """``gnp_graph`` then ``ratio_sample`` per sample, the kernel of
    ``blocksched analyze`` with ``workers=1``. Samples cycle through a pool of
    seeds, so every ratio is computed several times and must repeat exactly."""
    out = Outcome()
    setup = setup_times((), None)
    first: dict[int, tuple] = {}

    def body(kind, rnd):
        n, prob = kind
        sample_seed = derive_seed("study", seed, n, prob, rnd % p.pool)
        g = analysis.gnp_graph(n, prob, sample_seed)
        sample = analysis.ratio_sample(g, n, prob)

        def check() -> bool:
            out.sched_latency.append(sample.est_chromatic)
            if sample_seed not in first:
                greedy = coloring.greedy_coloring(g, coloring.descending_degree_order(g))
                ok = coloring.is_legal(greedy, g) and greedy.k == sample.est_chromatic
                first[sample_seed] = (sample.ratio, ok)
            ratio, ok = first[sample_seed]
            return ok and sample.ratio == ratio

        return n, check

    clock = Clock()
    _rounds(Window(clock, seconds, tracer), list(p.cells), body, out)
    out.peak_rss_mb = peak_rss_mb()
    set_up(out, setup + setup_times((), None))
    return out


RUNNERS = {
    "smr-big-state": run_smr_big_state,
    "smr-wide": run_smr_wide,
    "plan-large": run_plan_large,
    "study": run_study,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _rates(items: list[Item]) -> tuple[float, float]:
    seconds = sum(it.reference_seconds for it in items)
    if not seconds:
        return 0.0, 0.0
    return sum(it.txs for it in items) / seconds, len(items) / seconds


def _timings(items: list[Item], seconds_of) -> dict[str, float]:
    """Each kind of block or sample weighs the same, whatever its count.

    The rates are one round (one item of every kind) over the sum of the
    kinds' median times. A mean would jump with the rare stalls of seconds
    that exact coloring has on some smr-big-state blocks, depending on
    whether a run reaches them.
    """
    by_kind: dict[str, list[float]] = {}
    txs: dict[str, int] = {}
    for it in items:
        by_kind.setdefault(it.kind, []).append(seconds_of(it) * 1e3)
        txs[it.kind] = it.txs

    def over_kinds(pct: int) -> float:
        return statistics.fmean(_percentile(v, pct) for v in by_kind.values())

    round_ms = over_kinds(50) * len(by_kind)
    return {
        "tx_per_s": sum(txs.values()) / round_ms * 1e3,
        "samples_per_s": len(by_kind) / round_ms * 1e3,
        "block_ms.p50": over_kinds(50),
        "block_ms.p90": over_kinds(90),
    }


def end_to_end(out: Outcome) -> dict[str, float]:
    """The timings in reference seconds, then the same in wall seconds and
    the host speed, which are printed and kept but not bounded."""
    untraced = [it for it in out.items if not it.traced]
    metrics = _timings(untraced, lambda it: it.reference_seconds)
    metrics.update({
        "sched_latency_units": statistics.fmean(out.sched_latency),
        "setup_s": out.setup_s,
        "peak_rss_mb": out.peak_rss_mb,
    })
    metrics.update({f"wall.{k}": v for k, v in _timings(untraced, lambda it: it.seconds).items()})
    metrics["wall.setup_s"] = out.extra["wall.setup_s"]
    metrics["host.speed"] = statistics.median(it.speed for it in untraced)
    return metrics


def item_times_ms(out: Outcome) -> dict[str, list[float]]:
    """Every measured block or sample time, by kind, in measurement order."""
    times: dict[str, list[float]] = {}
    for it in out.items:
        times.setdefault(it.kind + ("/traced" if it.traced else ""), []).append(it.seconds * 1e3)
    return times


def per_layer(out: Outcome, tracer: Tracer) -> dict[str, float]:
    traced = [it for it in out.items if it.traced]
    untraced = [it for it in out.items if not it.traced]
    blocks = max(1, len(traced))
    total, own = tracer.totals_ns()
    c = tracer.counts

    def ms(*names: str) -> float:
        return sum(total.get(n, 0) for n in names) / 1e6 / blocks

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_ms = sum(tracer.run_ns) / 1e6 / blocks
    sequential_ms = out.extra.get("executor.sequential_ms", 0.0)
    # both sides copy the state once, so the engine's set-up counts as overhead
    engine_ms = ms("executor.init") + run_ms
    metrics = {
        "model.parse_ms": ms("model.parse"),
        "model.block_hash_ms": ms("model.block_hash"),
        "model.block_hash.calls_per_block": c["model.block_hash"] / blocks,
        "model.with_changes_ms": ms("model.with_changes"),
        "model.state_digest_ms": ms("model.state_digest"),
        "model.state_keys": out.extra.get("model.state_keys", 0.0),
        "conflict.build_ms": ms("conflict.build"),
        "conflict.edges_per_block": ratio(c["conflict.edges"], c["conflict.build"]),
        "coloring.ms": ms("coloring.degree_order", "coloring.greedy", "coloring.exact"),
        "coloring.colors_per_block": ratio(c["coloring.colors"], c["coloring.colored_blocks"]),
        "coloring.exact_ratio": ratio(c["coloring.exact_ok"], c["coloring.exact_attempts"]),
        "schedule.level_ms": ms("schedule.level"),
        "schedule.total_order_ms": ms("schedule.total_order"),
        "schedule.valid_ms": ms("schedule.valid"),
        "schedule.topo_order.calls_per_block": c["schedule.topo_order"] / blocks,
        "schedule.edges_per_block": ratio(
            c["schedule.edges"], c["schedule.level"] + c["schedule.total_order"]),
        "executor.init_ms": ms("executor.init"),
        "executor.run_ms": run_ms,
        "executor.sequential_ms": sequential_ms,
        "executor.overhead_x": ratio(engine_ms, sequential_ms),
        "executor.threads_per_block": c["executor.threads"] / blocks,
        "executor.polls_per_block": c["executor.polls"] / blocks,
        "replication.process_block_ms": ms("replication.process_block"),
        "replication.process_block_self_ms": own.get("replication.process_block", 0) / 1e6 / blocks,
        "replication.results_digest_ms": ms("replication.results_digest"),
        "replication.ledger_append_ms": ms("replication.ledger_append"),
        "replication.ledger_bytes_per_block": c["replication.ledger_bytes"] / blocks,
        "analysis.gnp_ms": ms("analysis.gnp"),
        "analysis.longest_path_ms": ms("analysis.longest_path"),
        "analysis.greedy_ms": ms("analysis.greedy", "analysis.degree_order"),
    }
    for runner_name in SmrWide().runners:
        rate, _ = _rates([it for it in untraced if it.kind == runner_name])
        metrics[f"replication.tx_per_s.{runner_name}"] = rate
    tx_untraced, samples_untraced = _rates(untraced)
    tx_traced, samples_traced = _rates(traced)
    metrics.update({
        "trace.tx_per_s.untraced": tx_untraced,
        "trace.tx_per_s.traced": tx_traced,
        "trace.samples_per_s.untraced": samples_untraced,
        "trace.samples_per_s.traced": samples_traced,
        "trace.overhead_pct": 100 * (1 - ratio(tx_traced, tx_untraced)) if tx_untraced else 0.0,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 params=None) -> tuple[Outcome, dict[str, float], Tracer | None]:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    params = params if params is not None else DEFAULT_PARAMS[name]
    out = RUNNERS[name](params, seed, seconds, tracer, out_dir)
    metrics = per_layer(out, tracer) if tracer is not None else end_to_end(out)
    return out, metrics, tracer


def params_of(name: str, params=None) -> dict:
    return asdict(params if params is not None else DEFAULT_PARAMS[name])
