"""Command-line entry point.

Exit codes: 0 success, 2 parse/validation failure or a file that cannot be
read or written, 3 capacity limit, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .errors import CapacityError, InvariantError, ParseError, ValidationError
from .model import (
    LENGTH_MODES,
    RUNNER_NAMES,
    GlobalState,
    read_block_file,
    read_stream_file,
    write_block_file,
    write_stream_file,
)

# Each command imports the pipeline modules it runs, so ``--help``, the
# generators, ``conflicts``, ``analyze`` and ``oracle`` load neither the
# executor nor the replication layer.

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_INVARIANT = 4


def _load_state(path: str | None) -> GlobalState:
    if path is None:
        return GlobalState()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"state file: invalid JSON: {exc.msg}") from exc
    not_a_state = "state file must be a JSON object mapping keys to integers"
    if not isinstance(raw, dict):
        raise ParseError(not_a_state)
    try:
        return GlobalState(raw)
    except ValidationError as exc:
        # a JSON key is a string, so the fault is a value or the key ""
        if all(type(v) is int for v in raw.values()):
            raise ParseError("state file keys must be non-empty strings") from exc
        raise ParseError(not_a_state) from exc


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runner",
        choices=list(RUNNER_NAMES),
        default="min-coloring",
        help="schedule synthesis strategy",
    )
    parser.add_argument(
        "--treat-epsilon-homogeneous",
        type=int,
        default=None,
        metavar="EPS",
        help="weighted-coloring runner colors unweighted when the length spread is <= EPS",
    )


def _comma_list(item_type):
    """An argparse ``type`` for a comma-separated list; empty items are
    skipped, and a bad item is a usage error."""

    def parse(text: str) -> list:
        try:
            return [item_type(x) for x in text.split(",") if x]
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {item_type.__name__} list: {text!r}") from None

    return parse


def _runner(args):
    from .replication import make_runner

    return make_runner(args.runner, epsilon_cutoff=args.treat_epsilon_homogeneous)


def _graph_schedule(plan):
    from .replication import BatchPlan
    from .schedule import batch_to_graph

    return batch_to_graph(plan.batches) if isinstance(plan, BatchPlan) else plan.schedule


def cmd_schedule(args) -> int:
    from .replication import plan_block
    from .schedule import dump_levels, dump_schedule, latency_stats

    block = read_block_file(args.block_file)
    plan = plan_block(_runner(args), block)
    graph_schedule = _graph_schedule(plan)
    if plan.exact is False:
        print("note: exact coloring above cap, fell back to greedy")
    print(dump_schedule(graph_schedule), end="")
    if plan.levels is not None:
        print("levels:")
        print(dump_levels(plan.levels), end="")
    stats = latency_stats(graph_schedule, {tx.id: tx.length for tx in block.txs})
    print(f"block_latency {stats.block_latency}")
    print(f"mean_latency {stats.mean_latency:.4f}")
    print(f"p95_latency {stats.p95_latency}")
    return EXIT_OK


def cmd_execute(args) -> int:
    from .executor import simulate_execution
    from .replication import plan_block

    block = read_block_file(args.block_file)
    state = _load_state(args.state)
    runner = _runner(args)
    plan = plan_block(runner, block)
    handle = runner.init_execution(block, plan, state, trace=args.trace)
    outcome = handle.outcome()
    if args.trace:
        print("trace:")
        for tx_id, start_ns, end_ns in sorted(handle.trace):
            print(f"{tx_id} {start_ns} {end_ns}")
    if args.simulate:
        graph_schedule = _graph_schedule(plan)
        _, makespan = simulate_execution(block, graph_schedule, state)
        print(f"makespan {makespan}")
    print("results:")
    for result in sorted(outcome.results, key=lambda r: r.tx_id):
        reads = ",".join(f"{k}={v}" for k, v in sorted(result.read_values.items()))
        writes = ",".join(f"{k}={v}" for k, v in sorted(result.written_values.items()))
        print(f"tx {result.tx_id} reads[{reads}] writes[{writes}]")
    final = state.with_changes(outcome.state_changes)
    print("state:")
    for key, value in final.items():
        print(f"{key} {value}")
    return EXIT_OK


def cmd_smr(args) -> int:
    from .replication import run_main_loop

    state = _load_state(args.state)
    blocks = read_stream_file(args.stream_file)
    final = run_main_loop(
        _runner(args),
        blocks,
        state,
        args.ledger,
        resume=args.resume,
        max_blocks=args.max_blocks,
    )
    print(f"final_state_digest {final.digest()}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analysis

    cells = analysis.vulnerability_study(
        args.ns, args.ps, args.samples, args.seed, workers=args.workers
    )
    # opened before the first cell runs; each row is written once its cell is done
    with open(args.out, "w", encoding="utf-8") as fh:
        rows = map(analysis.study_csv_row, cells)
        for line in itertools.chain((analysis.STUDY_CSV_HEADER,), rows):
            fh.write(line + "\n")
            print(line, flush=True)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import analysis
    from .schedule import dump_schedule

    block = read_block_file(args.block_file)
    # first and under its own smaller cap: it enumerates every order of the block
    other = analysis.optimal_latency_all_orientations(block) if args.double_check else None
    witness, best = analysis.optimal_schedule_oracle(block)
    if other is not None and other != best:
        raise InvariantError(f"oracles disagree: partitions {best}, orientations {other}")
    print(f"optimal_latency {best}")
    print(dump_schedule(witness), end="")
    return EXIT_OK


def cmd_conflicts(args) -> int:
    from .conflict import build_conflict_graph, dump_edges

    block = read_block_file(args.block_file)
    g = build_conflict_graph(block)
    print(f"{g.n} {sum(map(len, g.neighbors)) // 2}")
    print(dump_edges(g), end="")
    return EXIT_OK


def _spec_from_args(args, seed: int):
    from . import workload

    return workload.WorkloadSpec(
        n_txs=args.n,
        key_universe=args.keys,
        length_mode=args.length_mode,
        length_base=args.length_base,
        length_epsilon=args.length_epsilon,
        length_choices=tuple(args.length_choices),
        conflict_p=args.conflict_p,
        seed=seed,
    )


def cmd_gen_block(args) -> int:
    from . import workload

    if args.chain:
        block = workload.chain_block(args.n, length=args.length_base)
    else:
        block = workload.gen_block(_spec_from_args(args, args.seed))
    write_block_file(args.out, block)
    print(f"wrote block with {args.n} txs to {args.out}")
    return EXIT_OK


def cmd_gen_stream(args) -> int:
    from . import workload

    if args.blocks < 0:
        raise ValidationError("--blocks must be non-negative")
    specs = [_spec_from_args(args, args.seed + i) for i in range(args.blocks)]
    blocks = workload.gen_stream(specs)
    write_stream_file(args.out, blocks)
    print(f"wrote {args.blocks} blocks to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksched",
        description="Deterministic concurrent scheduling and execution of transaction blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="print a runner's schedule and its latency report")
    p_sched.add_argument("block_file")
    _add_runner_flags(p_sched)
    p_sched.set_defaults(func=cmd_schedule)

    p_exec = sub.add_parser("execute", help="execute one block and print results and final state")
    p_exec.add_argument("block_file")
    p_exec.add_argument("--state", help="JSON file with the initial state")
    p_exec.add_argument("--simulate", action="store_true", help="also run the timed simulation")
    p_exec.add_argument("--trace", action="store_true", help="print per-tx execution intervals")
    _add_runner_flags(p_exec)
    p_exec.set_defaults(func=cmd_execute)

    p_smr = sub.add_parser("smr", help="run the replication main loop over a block stream")
    p_smr.add_argument("stream_file")
    p_smr.add_argument("--ledger", required=True, help="append-only ledger file")
    p_smr.add_argument("--state", help="JSON file with the initial state")
    p_smr.add_argument("--resume", action="store_true", help="verify and continue an existing ledger")
    p_smr.add_argument("--max-blocks", type=int, default=None, help="stop after this many blocks")
    _add_runner_flags(p_smr)
    p_smr.set_defaults(func=cmd_smr)

    p_an = sub.add_parser("analyze", help="estimate the order-induced latency penalty on random graphs")
    p_an.add_argument("--ns", required=True, type=_comma_list(int), help="comma-separated block sizes")
    p_an.add_argument(
        "--ps", required=True, type=_comma_list(float), help="comma-separated conflict probabilities"
    )
    p_an.add_argument("--samples", type=int, default=100)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--workers", type=int, default=1)
    p_an.add_argument("--out", required=True, help="CSV output path")
    p_an.set_defaults(func=cmd_analyze)

    p_or = sub.add_parser("oracle", help="exhaustive minimum-latency search for a small block")
    p_or.add_argument("block_file")
    p_or.add_argument(
        "--double-check",
        action="store_true",
        help="cross-check against the orientation-enumeration oracle",
    )
    p_or.set_defaults(func=cmd_oracle)

    p_cf = sub.add_parser("conflicts", help="print the conflict graph edge list")
    p_cf.add_argument("block_file")
    p_cf.set_defaults(func=cmd_conflicts)

    for name, helptext in (
        ("gen-block", "generate one synthetic block"),
        ("gen-stream", "generate a chained block stream"),
    ):
        p_gen = sub.add_parser(name, help=helptext)
        p_gen.add_argument("--out", required=True)
        p_gen.add_argument("--n", type=int, default=8, help="transactions per block")
        p_gen.add_argument("--keys", type=int, default=16)
        p_gen.add_argument("--seed", type=int, default=0)
        p_gen.add_argument("--length-mode", choices=list(LENGTH_MODES), default="homogeneous")
        p_gen.add_argument("--length-base", type=int, default=1)
        p_gen.add_argument("--length-epsilon", type=int, default=0)
        p_gen.add_argument("--length-choices", type=_comma_list(int), default="1,10,100,1000")
        p_gen.add_argument("--conflict-p", type=float, default=None)
        if name == "gen-block":
            p_gen.add_argument("--chain", action="store_true", help="chain-of-conflicts block")
            p_gen.set_defaults(func=cmd_gen_block)
        else:
            p_gen.add_argument("--blocks", type=int, default=3)
            p_gen.set_defaults(func=cmd_gen_stream)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
