"""Span and count recording around the pipeline's layer calls.

The tracer wraps module attributes that the pipeline calls through (for
example ``blocksched.replication.level_schedule`` or
``GlobalState.digest``), so no package source changes and the pipeline's
own control flow is unchanged. ``install`` swaps the wrappers in and
``uninstall`` restores the originals; an untraced run never installs them.

Spans stay in memory: ``[id, parent, name, seq, start_ns, end_ns]``, where
``seq`` is the block (or sample) the harness was processing when the span
opened, so the spans of one block share it. Counts are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from blocksched import analysis, conflict, model, replication, schedule

# Counts that a deterministic program repeats exactly for the same input,
# and counts that depend on thread timing.
EXACT_COUNTS = (
    "model.block_hash",
    "schedule.topo_order",
    "executor.threads",
    "conflict.edges",
    "schedule.edges",
    "coloring.colors",
    "coloring.exact_attempts",
    "coloring.exact_ok",
    "replication.ledger_bytes",
)
TIMING_COUNTS = ("executor.polls", "executor.drains")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.run_ns: list[int] = []
        self.seq = -1
        self.active = False
        self._next_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = self._build_patches()

    # -- recording --

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else -1
        seq = self.seq
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append([span_id, parent, name, seq, start, end])

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name)
            if after is not None:
                after(result)
            return result

        return traced

    # -- patch table --

    def _build_patches(self) -> list[tuple[object, str, object]]:
        def edges_of(kind):
            return lambda result: self.count(kind, len(result.edges))

        def colors(result):
            self.count("coloring.colors", result.k)
            self.count("coloring.colored_blocks")

        def exact(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                # an exact search over the cap raises CapacityError and the
                # runner falls back to greedy: an attempt without a result
                self.count("coloring.exact_attempts")
                with self.span("coloring.exact"):
                    result = fn(*args, **kwargs)
                self.count("coloring.exact_ok")
                colors(result)
                return result

            return traced

        def ledger_append(fn):
            @functools.wraps(fn)
            def traced(ledger, record):
                before = os.path.getsize(ledger.path)
                with self.span("replication.ledger_append"):
                    fn(ledger, record)
                self.count("replication.ledger_bytes", os.path.getsize(ledger.path) - before)

            return traced

        def thread_start(fn):
            @functools.wraps(fn)
            def traced(thread):
                self.count("executor.threads")
                return fn(thread)

            return traced

        r = replication
        table = [
            (model, "block_from_text", lambda f: self._wrap("model.parse", f)),
            (r, "process_block", lambda f: self._wrap("replication.process_block", f)),
            (r, "build_conflict_graph",
             lambda f: self._wrap("conflict.build", f, edges_of("conflict.edges"))),
            (conflict, "build_conflict_graph",
             lambda f: self._wrap("conflict.build", f, edges_of("conflict.edges"))),
            (r, "descending_degree_order", lambda f: self._wrap("coloring.degree_order", f)),
            (r, "greedy_coloring", lambda f: self._wrap("coloring.greedy", f, colors)),
            (r, "exact_min_coloring", exact),
            (r, "level_schedule",
             lambda f: self._wrap("schedule.level", f, edges_of("schedule.edges"))),
            (r, "total_order_schedule",
             lambda f: self._wrap("schedule.total_order", f, edges_of("schedule.edges"))),
            (r, "is_valid_schedule", lambda f: self._wrap("schedule.valid", f)),
            (schedule, "latency_stats", lambda f: self._wrap("schedule.latency_stats", f)),
            (schedule.GraphSchedule, "topo_order", lambda f: self._wrap("schedule.topo_order", f)),
            (model.GlobalState, "with_changes", lambda f: self._wrap("model.with_changes", f)),
            (model.GlobalState, "digest", lambda f: self._wrap("model.state_digest", f)),
            (r, "block_hash", lambda f: self._wrap("model.block_hash", f)),
            (r, "results_digest", lambda f: self._wrap("replication.results_digest", f)),
            (r, "make_record", lambda f: self._wrap("replication.make_record", f)),
            (r.Ledger, "append", ledger_append),
            (r, "GraphExecutionHandle", self._traced_handle),
            (r, "BatchExecutionHandle", self._traced_handle),
            (threading.Thread, "start", thread_start),
            (analysis, "gnp_graph", lambda f: self._wrap("analysis.gnp", f)),
            (analysis, "ratio_sample", lambda f: self._wrap("analysis.ratio_sample", f)),
            (analysis, "est_longest_path", lambda f: self._wrap("analysis.longest_path", f)),
            (analysis, "greedy_coloring", lambda f: self._wrap("analysis.greedy", f)),
            (analysis, "descending_degree_order", lambda f: self._wrap("analysis.degree_order", f)),
        ]
        return [(owner, attr, make(getattr(owner, attr))) for owner, attr, make in table]

    def _traced_handle(self, base):
        tracer = self

        class Traced(base):
            def __init__(self, *args, **kwargs):
                with tracer.span("executor.init"):
                    super().__init__(*args, **kwargs)
                self._bench_started = 0
                self._bench_done = False

            def start(self):
                with tracer.span("executor.start"):
                    super().start()
                self._bench_started = time.perf_counter_ns()

            def running(self):
                tracer.count("executor.polls")
                still = super().running()
                if not still and not self._bench_done:
                    self._bench_done = True
                    tracer.run_ns.append(time.perf_counter_ns() - self._bench_started)
                return still

            def drain_results(self):
                tracer.count("executor.drains")
                return super().drain_results()

            def outcome(self):
                with tracer.span("executor.outcome"):
                    return super().outcome()

        Traced.__name__ = Traced.__qualname__ = f"Traced{base.__name__}"
        return Traced

    # -- switching --

    def install(self) -> None:
        if self.active:
            return
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        if not self.active:
            return
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self.active = False

    @contextmanager
    def off(self):
        """Run the harness's own checks untraced, then restore the prior state."""
        was_active = self.active
        self.uninstall()
        try:
            yield
        finally:
            if was_active:
                self.install()

    # -- summaries --

    def totals_ns(self) -> tuple[dict[str, int], dict[str, int]]:
        """Total and self time per span name. Self time is a span's duration
        minus the part its child spans cover; children of one parent never
        overlap because every wrapped call runs on the caller's thread."""
        total: dict[str, int] = defaultdict(int)
        child: dict[int, int] = defaultdict(int)
        for span_id, parent, name, _seq, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for span_id, _parent, name, _seq, start, end in self.spans:
            own[name] += end - start - child[span_id]
        return dict(total), dict(own)

    def write(self, path, header: dict) -> None:
        total, own = self.totals_ns()
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "name", "seq", "start_ns", "end_ns"]
        doc["spans"] = sorted(self.spans)
        doc["total_ms_by_name"] = {k: v / 1e6 for k, v in sorted(total.items())}
        doc["self_ms_by_name"] = {k: v / 1e6 for k, v in sorted(own.items())}
        doc["counts"] = {
            "exact": {k: self.counts[k] for k in EXACT_COUNTS if k in self.counts},
            "timing_dependent": {k: self.counts[k] for k in TIMING_COUNTS if k in self.counts},
            "calls": {k: v for k, v in sorted(self.counts.items())
                      if k not in EXACT_COUNTS and k not in TIMING_COUNTS},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
