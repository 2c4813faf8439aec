"""Deterministic concurrent scheduling and execution of transaction blocks."""

from .conflict import ConflictGraph, build_conflict_graph, conflicts
from .coloring import (
    Coloring,
    descending_degree_order,
    exact_min_coloring,
    exact_min_weighted_coloring,
    greedy_coloring,
)
from .errors import (
    BlockSchedError,
    CapacityError,
    InvariantError,
    ParseError,
    ValidationError,
)
from .executor import (
    ExecutionOutcome,
    execute_batch_schedule,
    execute_graph_schedule,
    execute_sequential,
    simulate_execution,
    stress_determinism,
)
from .model import (
    Block,
    GlobalState,
    ProgramKind,
    Transaction,
    TxProgram,
    TxResult,
    run_program,
)
from .replication import BlockRunner, make_runner, process_block, run_main_loop
from .schedule import (
    BatchSchedule,
    GraphSchedule,
    batch_latency,
    batch_to_graph,
    convert_to_coloring,
    is_valid_schedule,
    latency,
    latency_stats,
    level_schedule,
    reorder_partition,
    size_descending_color_order,
    total_order_schedule,
)

__version__ = "0.1.0"

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
