"""Host-kernel wall-clock ratios: stacked lanes and direction-optimizing.

Times three comparisons per suite graph, best of 3 each, and writes them
as one ratio table to ``benchmarks/host-results/perf_kernels.txt``, an
untracked path (the figures are this host's wall-clock):

* ``bc@stacked`` — BC's stacked S-source sweep (S = 8) against the same
  sources run as one single-source call each;
* ``bfs@diropt`` / ``bc@diropt`` — the direction-optimizing schedule
  against fixed-push.

``ratio`` is baseline seconds over candidate seconds (> 1 means the
candidate is faster).  Only BC's stacked win is asserted: its best
graph must reach ``MIN_BC_STACKED_RATIO``.  The win scales with
diameter (per-level overhead paid once for all lanes), so the best
graph is the high-diameter road graph.  Every other ratio is recorded,
not asserted.  Scale follows ``REPRO_BENCH_SCALE`` (default ``small``).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.algorithms.bc import betweenness_centrality, pick_sources
from repro.algorithms.bfs import bfs
from repro.eval.reporting import format_table
from repro.graphs.generators import paper_suite

from conftest import run_once

#: sources the stacked row stacks (and its looped run loops)
LANES = 8

#: sources per run of the ``bc@diropt`` comparison
BC_SOURCES = 4

#: floor on the best per-graph BC stacked-vs-looped ratio
MIN_BC_STACKED_RATIO = 1.2

REPEATS = 3

#: where the table goes; ignored by git, so a run leaves the tree clean
TABLE_PATH = Path(__file__).parent / "host-results" / "perf_kernels.txt"


def _best_of(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def _comparisons(g):
    """``(name, baseline, candidate)`` thunks for one graph."""
    lanes = [int(s) for s in pick_sources(g.num_nodes, min(LANES, g.num_nodes), 0)]
    hub = int(np.argmax(g.out_degrees()))
    diropt = "direction-optimizing"

    def looped(kernel):
        return lambda: [kernel(s) for s in lanes]

    return [
        (
            "bc@stacked",
            looped(lambda s: betweenness_centrality(g, sources=[s])),
            lambda: betweenness_centrality(g, sources=lanes),
        ),
        (
            "bfs@diropt",
            lambda: bfs(g, hub),
            lambda: bfs(g, hub, schedule=diropt),
        ),
        (
            "bc@diropt",
            lambda: betweenness_centrality(g, num_sources=BC_SOURCES, seed=0),
            lambda: betweenness_centrality(
                g, num_sources=BC_SOURCES, seed=0, schedule=diropt
            ),
        ),
    ]


def _measure(scale: str) -> list[dict]:
    rows = []
    for graph, g in paper_suite(scale, seed=7).items():
        for name, baseline, candidate in _comparisons(g):
            base_s, cand_s = _best_of(baseline), _best_of(candidate)
            rows.append(
                {
                    "comparison": name,
                    "graph": graph,
                    "baseline_s": base_s,
                    "candidate_s": cand_s,
                    "ratio": base_s / cand_s,
                }
            )
    return rows


def test_perf_kernels(benchmark):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    rows = run_once(benchmark, lambda: _measure(scale))
    table = format_table(
        rows,
        ["comparison", "graph", "baseline_s", "candidate_s", "ratio"],
        title=(
            f"Kernel wall-clock ratios, best of {REPEATS} (scale={scale}, "
            f"{LANES} lanes); ratio = baseline_s / candidate_s"
        ),
        floatfmt="{:,.4f}",
    )
    print("\n" + table)
    TABLE_PATH.parent.mkdir(exist_ok=True)
    TABLE_PATH.write_text(table + "\n")

    best = max(r["ratio"] for r in rows if r["comparison"] == "bc@stacked")
    assert best >= MIN_BC_STACKED_RATIO, (
        f"best BC stacked-vs-looped ratio {best:.2f}x is below "
        f"{MIN_BC_STACKED_RATIO}x"
    )
