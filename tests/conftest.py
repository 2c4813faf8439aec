"""Shared brute-force oracles and generators for the test suite.

These stay deliberately independent of the library code paths they check:
chromatic numbers come from exhaustive assignment, latencies from explicit
path enumeration, and random valid schedules from permutation orientations.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

from blocksched import executor
from blocksched.conflict import ConflictGraph
from blocksched.model import Block, ProgramKind, Transaction, TxProgram, TxResult
from blocksched.replication import BlockRunner
from blocksched.schedule import GraphSchedule


def brute_chromatic(n: int, edges) -> int:
    """Chromatic number by exhaustive color assignment."""
    if n == 0:
        return 0
    edge_list = list(edges)
    for k in range(1, n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edge_list):
                return k
    raise AssertionError("unreachable")


def brute_longest_simple_path_edges(n: int, edges) -> int:
    """Longest simple path (edge count) in an undirected graph, by DFS."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = 0

    def dfs(v: int, visited: set[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if w not in visited:
                visited.add(w)
                dfs(w, visited, length + 1)
                visited.remove(w)

    for start in range(n):
        dfs(start, {start}, 0)
    return best


def brute_dag_latency(s: GraphSchedule, lengths) -> int:
    """Maximum vertex-weighted simple path by explicit path enumeration."""
    if s.n == 0:
        return 0
    succs = s.succs
    best = 0

    def dfs(v: int, total: int) -> None:
        nonlocal best
        best = max(best, total)
        for w in succs[v]:
            dfs(w, total + lengths[w])

    for start in range(s.n):
        dfs(start, lengths[start])
    return best


def brute_min_weighted_partition(g: ConflictGraph, lengths) -> int:
    """Minimum sum-of-color-maxima over all partitions into independent sets."""
    n = g.n
    best = None
    parts: list[list[int]] = []

    def independent_with(part: list[int], v: int) -> bool:
        return all(u not in g.neighbors[v] for u in part)

    def rec(v: int) -> None:
        nonlocal best
        if v == n:
            weight = sum(max(lengths[u] for u in part) for part in parts)
            if best is None or weight < best:
                best = weight
            return
        for part in parts:
            if independent_with(part, v):
                part.append(v)
                rec(v + 1)
                part.pop()
        parts.append([v])
        rec(v + 1)
        parts.pop()

    rec(0)
    return best if best is not None else 0


def random_graph(rng: random.Random, n: int, p: float) -> ConflictGraph:
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return ConflictGraph(n=n, edges=edges)


def assert_rows_match_checked_graph(g: ConflictGraph) -> None:
    """``g`` holds ascending, symmetric, loop-free neighbour rows, and equals the
    checked construction from its edges in every view, in ``==`` and in hash."""
    for v, row in enumerate(g.neighbors):
        assert type(row) is tuple
        assert list(row) == sorted(set(row)) and v not in row
        assert all(v in g.neighbors[u] for u in row)
    checked = ConflictGraph(n=g.n, edges=g.edges)
    assert g.neighbors == checked.neighbors
    assert g.adj_bits == checked.adj_bits
    assert g.edges == checked.edges
    assert type(g.edges) is frozenset
    assert g == checked and hash(g) == hash(checked)


def random_valid_schedule(g: ConflictGraph, rng: random.Random) -> GraphSchedule:
    """A valid schedule built independently of the level scheduler: orient
    every conflict edge along a random permutation, then sprinkle extra
    forward (hence acyclic, validity-preserving) edges."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    pos = {v: i for i, v in enumerate(perm)}
    edges = {(u, v) if pos[u] < pos[v] else (v, u) for u, v in g.edges}
    for i in range(g.n):
        for j in range(i + 1, g.n):
            u, v = perm[i], perm[j]
            if (u, v) not in edges and rng.random() < 0.15:
                edges.add((u, v))
    return GraphSchedule(n=g.n, edges=frozenset(edges))


def make_tx(
    tx_id: int,
    reads=(),
    writes=(),
    length: int = 1,
    kind: ProgramKind = ProgramKind.SLEEP_ONLY,
    const: int = 0,
) -> Transaction:
    return Transaction(
        id=tx_id,
        read_set=frozenset(reads),
        write_set=frozenset(writes),
        length=length,
        program=TxProgram(kind=kind, const_value=const),
    )


def make_block(txs, seq: int = 0, prev_hash: bytes = b"") -> Block:
    return Block(seq=seq, prev_hash=prev_hash, txs=tuple(txs))


def runner_planning(plan, name: str = "order") -> BlockRunner:
    """A runner of ``name`` whose ``make_schedule`` returns ``plan``."""

    class BadRunner(BlockRunner):
        def make_schedule(self, txs, constraints):
            return plan

    return BadRunner(name)


def run_bounded(fn, timeout: float = 30.0):
    """Call fn on a helper thread and return its value; fail the test if it
    has not returned within ``timeout`` seconds, so a hang cannot stall the
    suite."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the test thread below
            box["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"still running after {timeout}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def inject_tx_failure(monkeypatch, bad_id: int, armed=lambda: True) -> None:
    """Make the executors' transaction bodies raise for tx ``bad_id`` while
    ``armed()`` holds."""
    real = executor.run_program

    def run_program(tx, reads):
        if tx.id == bad_id and armed():
            raise RuntimeError(f"injected failure in tx {tx.id}")
        return real(tx, reads)

    monkeypatch.setattr(executor, "run_program", run_program)


class EarlyReleaseHandle(executor.GraphExecutionHandle):
    """The determinism suite's negative control: successors are released
    before the writes are committed, so they can observe stale state."""

    def _commit(self, result: TxResult, t0: int, rng: random.Random | None) -> None:
        with self._lock:
            self._results.append(result)
            self._release(result.tx_id)
        time.sleep(0.0001)
        executor._sleep_jitter(rng, self._max_jitter_us)
        with self._lock:
            self._overlay.update(result.written_values)
