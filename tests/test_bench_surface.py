"""The benchmark under ``perfbench/`` reads the package through module
attributes. Importing its harness and building its tracer looks up the names
it imports and every name the tracer wraps (the tracer's constructor calls
``getattr`` on each and installs nothing). The names the harness and tracer
read inside their functions are found by parsing both files. So removing or
renaming a name the benchmark reads fails here in well under a second
instead of in a benchmark run. The attributes the harness reads off a runner
and its plans, through local names the parse cannot follow, are checked on
one plan per runner the harness configures.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

from blocksched import conflict, replication
from blocksched.model import GlobalState
from blocksched.workload import WorkloadSpec, gen_block, gen_stream

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(scope):
    """Every node of ``scope`` outside the functions nested in it; those
    nested functions themselves are included."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def module_reads(path: Path) -> set[tuple[str, str]]:
    """``(module, attr)`` for every ``<module>.<attr>`` read of a module
    imported by ``from blocksched import ...``, also through a local alias
    such as ``r = replication``. A local binding of any other value hides
    the module name in its function."""
    tree = ast.parse(path.read_text())
    reads: set[tuple[str, str]] = set()

    def visit(scope, names: dict[str, str]) -> None:
        nodes = list(own_nodes(scope))
        outer = dict(names)
        for node in nodes:
            if isinstance(node, ast.arg):
                outer.pop(node.arg, None)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                outer.pop(node.id, None)
        names = dict(outer)
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in outer
            ):
                names[node.targets[0].id] = outer[node.value.id]
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in names:
                    reads.add((names[node.value.id], node.attr))
            elif isinstance(node, SCOPES):
                visit(node, names)

    imported = {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "blocksched"
        for alias in node.names
    }
    visit(tree, imported)
    return reads


def test_benchmark_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness  # noqa: F401  (imports every module the benchmark reads)
    from tracer import Tracer

    Tracer()


def test_benchmark_reads_only_names_that_exist():
    reads = module_reads(BENCH / "harness.py") | module_reads(BENCH / "tracer.py")
    # reads made inside functions, and through the tracer's alias of replication
    assert {
        ("replication", "BatchPlan"),
        ("replication", "Ledger"),
        ("schedule", "batch_latency"),
        ("executor", "simulate_execution"),
        ("workload", "WorkloadSpec"),
    } <= reads
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(f"blocksched.{module}"), attr)
    ]
    assert missing == []


def test_runners_and_plans_have_what_the_harness_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    configured = {harness.SmrBigState().runner, *harness.SmrWide().runners, *harness.PlanLarge().runners}
    names = configured | {"batch"}  # the one runner whose plan is a BatchPlan
    block = gen_block(WorkloadSpec(n_txs=12, key_universe=6, seed=1))
    for name in sorted(names):
        runner = replication.make_runner(name)
        g = conflict.build_conflict_graph(block)
        plan = runner.make_schedule(block.txs, g)
        assert runner.validate_schedule(block.txs, g, plan) is True
        if isinstance(plan, replication.BatchPlan):
            order = [v for batch in plan.batches.batches for v in batch]
        else:
            order = plan.schedule.topo_order()
            assert type(plan.schedule.edges) is frozenset
        assert sorted(order) == list(range(len(block.txs))), name


def test_state_items_are_what_the_replay_check_compares(monkeypatch):
    # the replay check compares ``final.items()`` with ``sorted(...)`` of its
    # own dict, and its incremental digest with the ledger's state digest
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    values = {"c10": 3, "h1": 2, "c2": 1, "b": 7}
    state = GlobalState(values).with_changes({"a": 4, "c2": 0, "h1": 5})
    values.update({"a": 4, "h1": 5})
    del values["c2"]
    items = state.items()
    assert type(items) is list and all(type(item) is tuple for item in items)
    assert items == sorted(values.items())
    assert harness.StateDigest(values).hexdigest() == state.digest()


def test_the_engine_span_is_one_outcome_per_block(monkeypatch, tmp_path):
    # the benchmark times the engine as the tracer's ``executor.init`` and
    # ``executor.outcome`` spans: one ``outcome()`` call runs an execution
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    stream = gen_stream([WorkloadSpec(n_txs=12, key_universe=6, seed=seed) for seed in range(3)])
    tracer = Tracer()

    def blocks():
        for block in stream:
            tracer.seq = block.seq
            yield block

    tracer.install()
    try:
        replication.run_main_loop(
            replication.make_runner("min-coloring"), blocks(), GlobalState(), tmp_path / "ledger"
        )
    finally:
        tracer.uninstall()
    spans = Counter((seq, name) for _, _, name, seq, _, _ in tracer.spans if name.startswith("executor."))
    assert spans == Counter(
        {(block.seq, name): 1 for block in stream for name in ("executor.init", "executor.outcome")}
    )
