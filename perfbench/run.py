"""blocksched benchmark: replica throughput, schedule quality and study speed.

Run one workload:

    python3 perfbench/run.py --workload smr-big-state --seed 1 --seconds 25 --trace 0

or every workload, each in its own process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics, and the spans are written to
``.perfbench/`` at the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# smr-wide is kept for manual runs but is not in BENCHMARK.json: its
# thread-per-transaction executor was not steady enough on a shared host.
WORKLOADS = ("smr-big-state", "smr-wide", "plan-large", "study")
# Later performance claims must also hold on this seed, which tuning never used.
HELD_OUT_SEED = 7919


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def stamp(workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "load_avg": list(os.getloadavg()),
    }


def build_result(out, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_one(args) -> int:
    sys.path.insert(0, str(HERE))
    import harness  # exits when the package sources are missing

    trace = bool(args.trace)
    units = declared_units(trace)
    out, metrics, tracer = harness.run_workload(args.workload, args.seed, args.seconds, trace, OUT_DIR)
    if set(units) - set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) - set(metrics))} are not measured")
    info = stamp(args.workload, args.seed, args.seconds, trace, harness.params_of(args.workload))
    label = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{label}.json", info)
    result = build_result(out, metrics, units)
    (OUT_DIR / f"result-{label}.json").write_text(
        json.dumps({"stamp": info, "result": result, "all_metrics": metrics,
                    "item_ms": harness.item_times_ms(out)}),
        encoding="utf-8")
    print("stamp " + json.dumps(info, separators=(",", ":")))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units.get(name, '(not in BENCHMARK.json)')}")
    print(f"  {'failed_ratio':40s} {out.failed / max(1, out.attempted):14.4f} fraction"
          f" ({out.failed}/{out.attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload of BENCHMARK.json in a fresh process, so set-up and
    peak memory are its own."""
    summary, status = {}, 0
    for workload in [w["name"] for w in benchmark_spec()["workloads"]]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[1:-1]))
        status = status or done.returncode
        summary[workload] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    ok = all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in summary.values() if r),
        "failed": sum(r["failed"] for r in summary.values() if r),
        "metrics": {f"{w}/{k}": v for w, r in summary.items() if r for k, v in r["metrics"].items()},
    }))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
