"""Scalar vs batched sweep pricing: where each cost-model pricer wins.

``ExecutionContext.charge`` prices one sweep with the scalar
``charge_sweep``; ``charge_batch`` prices a pass of sweeps with the
vectorized ``charge_sweeps_batched``.  This script times both pricers on
the same precomputed expansions of ``paper_suite("small", seed=7)`` and
prints batched ÷ scalar process CPU time (best of ``--repeats``):

* ``full``     — one full-graph sweep, priced as a batch of one;
* ``f64``      — one 64-node frontier, priced as a batch of one;
* ``levels``   — every BFS level from node 0, one batch vs a scalar loop;
* ``run1..3``  — short runs of 1–3 small (16-node) frontiers.

A ratio above 1 means the batched pricer is slower.  Both pricers
return identical costs; the script asserts that too.

Run:  PYTHONPATH=src python benchmarks/pricing_crossover.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.graphs.generators import paper_suite
from repro.graphs.properties import bfs_levels
from repro.gpusim.costmodel import charge_sweep, charge_sweeps_batched
from repro.gpusim.device import K40C
from repro.perf.gather import expand_frontier


def _best_cpu(fn, repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        for _ in range(inner):
            fn()
        best = min(best, (time.process_time() - t0) / inner)
    return best


def _ratio(graph, sweeps, repeats: int, inner: int) -> float:
    def scalar():
        return [
            charge_sweep(graph, K40C, s.frontier, expansion=s) for s in sweeps
        ]

    def batched():
        return charge_sweeps_batched(graph, K40C, sweeps)

    assert scalar() == batched()
    return _best_cpu(batched, repeats, inner) / _best_cpu(scalar, repeats, inner)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"{'graph':<12}{'full':>8}{'f64':>8}{'levels':>8}"
          f"{'run1':>8}{'run2':>8}{'run3':>8}   (batched / scalar CPU)")
    for name, g in paper_suite("small", seed=7).items():
        idx = g.indices.astype(np.int64)

        def exp(nodes):
            return expand_frontier(g.offsets, idx, np.sort(nodes).astype(np.int64))

        def pick(k):
            return rng.choice(g.num_nodes, size=k, replace=False)

        level = bfs_levels(g, 0)
        levels = [exp(np.nonzero(level == d)[0]) for d in range(level.max() + 1)]
        cells = [
            _ratio(g, [exp(np.arange(g.num_nodes))], args.repeats, 3),
            _ratio(g, [exp(pick(64))], args.repeats, 200),
            _ratio(g, levels, args.repeats, 3),
        ] + [
            _ratio(g, [exp(pick(16)) for _ in range(k)], args.repeats, 200)
            for k in (1, 2, 3)
        ]
        print(f"{name:<12}" + "".join(f"{c:8.2f}" for c in cells)
              + f"   ({len(levels)} levels)")


if __name__ == "__main__":
    main()
