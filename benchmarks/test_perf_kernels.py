"""Host-kernel wall-clock benchmark: the tracked perf baseline.

Times every solver hot path through the ``repro.perf`` engine, then
writes the machine-readable report to
``benchmarks/results/BENCH_PR4.json`` — the same artifact
``python -m repro perf`` emits, and the one CI's perf-smoke job gates
regressions against.

Scale follows ``REPRO_BENCH_SCALE`` (default ``small``).  BC's gate is
the ``bc@batched`` row — the stacked S-source sweep against the same
sources as one call each — whose win scales with diameter (per-level
overhead paid once for all lanes), so the best per-graph row is the
high-diameter road graph.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.eval.reporting import format_table
from repro.perf.bench import best_speedup, run_bench

from conftest import run_once

RESULTS_DIR = Path(__file__).parent / "results"


def test_perf_kernels(benchmark, emit):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    report = run_once(benchmark, lambda: run_bench(scale, repeats=3))

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_PR4.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    rows = [
        {
            "kernel": r["kernel"],
            "graph": r["graph"],
            "schedule": r["schedule"] or "-",
            "seconds": r["seconds"],
        }
        for r in report["kernels"]
    ]
    emit(
        "perf_kernels",
        format_table(
            rows,
            ["kernel", "graph", "schedule", "seconds"],
            title=f"Engine host wall-clock, best of 3 (scale={scale})",
            floatfmt="{:,.4f}",
        ),
    )

    # stacking BC's sources must beat running them one call at a time
    # on its best graph (the floor CI's --min-bc-speedup gates)
    assert best_speedup(report, "bc@batched", "speedup_vs_looped") > 1.0
