"""Self-check of the benchmark at tiny sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run as bench  # noqa: E402
from blocksched.schedule import GraphSchedule  # noqa: E402

TINY = {
    "smr-big-state": harness.SmrBigState(n_txs=8, hot_keys=2, cold_keys=200),
    "smr-wide": harness.SmrWide(n_txs=12),
    "plan-large": harness.PlanLarge(sizes=(30, 60), pool=2),
    "study": harness.Study(cells=((40, 0.2), (60, 0.1)), pool=2),
}


@pytest.fixture
def out_dir():
    path = bench.OUT_DIR / "selfcheck"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(name, out_dir, trace=False):
    out, metrics, _ = harness.run_workload(name, 3, 0.3, trace, out_dir, params=TINY[name])
    return out, bench.build_result(out, metrics, bench.declared_units(trace))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, out_dir):
    out, result = _run(name, out_dir, trace)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert result["correct"] and result["attempted"] == out.attempted > 0
    assert result["failed"] == 0


def test_times_are_scaled_by_the_host_speed(out_dir, monkeypatch):
    monkeypatch.setattr(harness.calibrate, "speed", lambda repeats=1: 0.5)
    _, metrics, _ = harness.run_workload("plan-large", 3, 0.3, False, out_dir,
                                         params=TINY["plan-large"])
    assert metrics["host.speed"] == 0.5
    assert metrics["tx_per_s"] == pytest.approx(2 * metrics["wall.tx_per_s"])
    assert metrics["block_ms.p50"] == pytest.approx(metrics["wall.block_ms.p50"] / 2)


def test_corrupted_ledger_tip_is_counted_as_failed(out_dir, monkeypatch):
    real = harness.replication.run_main_loop

    def corrupt_tip(runner, blocks, state, ledger_path, **kwargs):
        final = real(runner, blocks, state, ledger_path, **kwargs)
        data = bytearray(Path(ledger_path).read_bytes())
        data[-3] ^= 1  # inside the last record's digest
        Path(ledger_path).write_bytes(bytes(data))
        return final

    monkeypatch.setattr(harness.replication, "run_main_loop", corrupt_tip)
    out, result = _run("smr-big-state", out_dir)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_schedule_missing_its_edges_is_counted_as_failed(out_dir, monkeypatch):
    monkeypatch.setattr(
        harness.replication, "level_schedule",
        lambda levels, g: GraphSchedule(n=g.n, edges=frozenset()),
    )
    out, result = _run("plan-large", out_dir)
    # every greedy plan is invalid; the order plans stay valid
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_package_sources(out_dir):
    bare = out_dir / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
