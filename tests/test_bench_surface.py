"""The benchmark under ``perfbench/`` reads the package through module
attributes. Importing its harness and building its tracer looks every one of
them up (the tracer's constructor calls ``getattr`` on each name it wraps and
installs nothing), so removing or renaming a name the benchmark reads fails
here in well under a second instead of in a benchmark run.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness  # noqa: F401  (imports every module the benchmark reads)
    from tracer import Tracer

    Tracer()
