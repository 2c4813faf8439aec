"""A fixed pure-Python kernel that measures how fast the host runs Python
right now, so that the benchmark's times can be read in reference seconds.

On a shared host the same code can run 20-45% slower for minutes at a time
(another tenant on the sibling hyperthread, a busy memory bus); the thread's
own CPU time slows down with it, so CPU time does not help. The benchmark
therefore times this kernel, with the clock paused, before and after every
block or sample it measures, and scales the measured time by the mean of
the two ``REFERENCE_S / kernel time``: the host's speed changes within a
second, so the kernel must run close to the work. A change to the program moves the measured
time and not the kernel's, so a gain or a regression shows in full; a slow
spell of the host moves both and cancels.

The kernel does the kind of work the pipeline does: it builds an adjacency
map of sets from a fixed random edge list, orders the vertices by degree,
colors them greedily, counts string keys in a dict and serializes the counts
as JSON. It imports nothing from blocksched, so no change to the package can
move it.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

# The kernel's median time on the host the benchmark was tuned on (2 vCPUs of
# an Intel Xeon at 2.0 GHz, CPython 3). It only sets the scale of the reported
# figures; it must never change, or old and new results stop being comparable.
REFERENCE_S = 0.004

_N = 500
_rng = random.Random(12345)
_EDGES = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(5000)]
_KEYS = [f"k{_rng.randrange(1000)}" for _ in range(2000)]
del _rng


def kernel() -> int:
    adj: dict[int, set[int]] = {v: set() for v in range(_N)}
    for a, b in _EDGES:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    color: dict[int, int] = {}
    for v in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    counts: dict[str, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    return max(color.values()) + len(json.dumps(sorted(counts.items())))


def speed(repeats: int = 1) -> float:
    """``REFERENCE_S`` over the kernel's median time: 1.0 on the reference
    host, below 1 when the host runs slower. Multiply a measured time by it
    to get reference seconds.

    The cyclic garbage collector is off while the kernel runs: the kernel
    makes no cycles, and a collection would time the caller's heap, not the
    host."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_S / statistics.median(times)
