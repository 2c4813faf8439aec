"""Deterministic concurrent scheduling and execution of transaction blocks.

Every name in ``__all__`` is loaded on first use (PEP 562): ``import
blocksched`` runs no pipeline module, and ``blocksched.make_runner`` imports
``blocksched.replication`` (and what it imports) the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "coloring": (
            "Coloring",
            "descending_degree_order",
            "exact_min_coloring",
            "exact_min_weighted_coloring",
            "greedy_coloring",
        ),
        "conflict": ("ConflictGraph", "build_conflict_graph", "conflicts"),
        "errors": (
            "BlockSchedError",
            "CapacityError",
            "InvariantError",
            "ParseError",
            "ValidationError",
        ),
        "executor": (
            "ExecutionOutcome",
            "execute_batch_schedule",
            "execute_graph_schedule",
            "execute_sequential",
            "simulate_execution",
            "stress_determinism",
        ),
        "model": (
            "Block",
            "GlobalState",
            "ProgramKind",
            "Transaction",
            "TxProgram",
            "TxResult",
            "run_program",
        ),
        "replication": ("BlockRunner", "make_runner", "process_block", "run_main_loop"),
        "schedule": (
            "BatchSchedule",
            "GraphSchedule",
            "batch_latency",
            "batch_to_graph",
            "convert_to_coloring",
            "is_valid_schedule",
            "latency",
            "latency_stats",
            "level_schedule",
            "reorder_partition",
            "size_descending_color_order",
            "total_order_schedule",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "Block",
    "BlockRunner",
    "BlockSchedError",
    "BatchSchedule",
    "CapacityError",
    "Coloring",
    "ConflictGraph",
    "ExecutionOutcome",
    "GlobalState",
    "GraphSchedule",
    "InvariantError",
    "ParseError",
    "ProgramKind",
    "Transaction",
    "TxProgram",
    "TxResult",
    "ValidationError",
    "batch_latency",
    "batch_to_graph",
    "build_conflict_graph",
    "conflicts",
    "convert_to_coloring",
    "descending_degree_order",
    "exact_min_coloring",
    "exact_min_weighted_coloring",
    "execute_batch_schedule",
    "execute_graph_schedule",
    "execute_sequential",
    "greedy_coloring",
    "is_valid_schedule",
    "latency",
    "latency_stats",
    "level_schedule",
    "make_runner",
    "process_block",
    "reorder_partition",
    "run_main_loop",
    "run_program",
    "simulate_execution",
    "size_descending_color_order",
    "stress_determinism",
    "total_order_schedule",
]
