"""Extending the framework: a new algorithm in two styles.

The paper's pitch is that the transforms are *algorithm-oblivious*; this
example demonstrates it from the user's side, implementing weakly
connected components two ways:

1. through the generic :class:`~repro.algorithms.common.Runner` (the
   `repro.algorithms.wcc` module — ~15 lines of relax logic), which gets
   confluence, cluster rounds, and every Graffix technique for free; and
2. as a Gunrock-style frontier loop over
   :meth:`~repro.algorithms.common.Runner.advance`, the way a Gunrock
   user would write it: advance the changed nodes, relax the gathered
   edges, and keep the improved destinations as the next frontier.

Both are checked against scipy's component count; the first also runs
under each Graffix plan.

Run:  python examples/custom_algorithm.py
"""

from __future__ import annotations

import numpy as np

from repro import core, graphs
from repro.algorithms.common import Runner, plan_for
from repro.algorithms.wcc import exact_wcc_count, wcc


def wcc_with_advance(graph):
    """WCC as a frontier loop: each step advances the changed nodes."""
    # weak connectivity needs both directions; symmetrize once
    runner = Runner(plan_for(graph.to_undirected()))
    labels = np.arange(graph.num_nodes, dtype=np.float64)
    frontier = np.arange(graph.num_nodes)
    while frontier.size:
        step = runner.advance(frontier)
        before = labels[step.dst]
        np.minimum.at(labels, step.dst, labels[step.src])
        frontier = np.unique(step.dst[labels[step.dst] < before])
    return labels, runner.metrics


def main() -> None:
    graph = graphs.heavy_tail_social(1200, mean_degree=10, seed=8)
    expected = exact_wcc_count(graph)
    print(f"graph: {graph}; exact WCC count: {expected}\n")

    runner_style = wcc(graph)
    labels, advance_metrics = wcc_with_advance(graph)
    advance_count = int(np.unique(labels).size)
    assert runner_style.aux["num_components"] == expected
    assert advance_count == expected
    print(f"runner-style WCC:  {runner_style.aux['num_components']} components, "
          f"{runner_style.cycles:,.0f} cycles")
    print(f"advance-style WCC: {advance_count} components, "
          f"{advance_metrics.cycles:,.0f} cycles\n")

    print("the same runner-style WCC under every Graffix plan (no changes")
    print("to the algorithm — the obliviousness claim, demonstrated):")
    exact = wcc(graph)
    for technique in ("coalescing", "shmem", "divergence", "combined"):
        plan = core.build_plan(graph, technique)
        approx = wcc(plan)
        print(f"  {technique:11s} speedup {exact.cycles / approx.cycles:5.2f}x  "
              f"components {exact.aux['num_components']} -> "
              f"{approx.aux['num_components']}")


if __name__ == "__main__":
    main()
