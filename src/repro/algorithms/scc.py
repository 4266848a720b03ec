"""Strongly connected components — FW-BW-Trim (Hong et al. style).

The GPU-standard SCC algorithm (the paper's Baseline-I uses Devshatwar et
al.'s GPU-centric extensions of it):

1. **Trim** — repeatedly peel nodes with zero in- or out-degree within the
   remaining set; each peeled node is a singleton SCC.  Each trim round is
   one charged sweep.
2. **FW-BW** — pick a pivot, compute its forward and backward reachable
   sets (each BFS level is a charged sweep); the intersection is one SCC;
   the three remainder partitions (FW-only, BW-only, rest) are processed
   iteratively.

On a Graffix-transformed plan the component *count* is computed over
original nodes via their primary slots, so unfilled holes and replicas
never inflate it; structural edge additions can still merge SCCs — which
is exactly the approximation the paper's SCC metric (difference in
component count) measures.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.gather import expand_frontier
from .common import AlgorithmResult, Runner, plan_for

__all__ = ["scc"]


def _reach(
    runner: Runner,
    offsets: np.ndarray,
    indices: np.ndarray,
    start: int,
    allowed: np.ndarray,
) -> np.ndarray:
    """BFS reachability from ``start`` within ``allowed``; charges per level."""
    n = allowed.size
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        runner.ctx.charge(frontier)
        flat = expand_frontier(offsets, indices, frontier).e_dst
        if flat.size == 0:
            break
        nxt = np.unique(flat)
        nxt = nxt[allowed[nxt] & ~visited[nxt]]
        if nxt.size == 0:
            break
        visited[nxt] = True
        frontier = nxt
    return visited


def scc(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """SCC labels per original node; ``aux["num_components"]`` is the count
    the paper's SCC inaccuracy metric compares."""
    plan = plan_for(graph_or_plan)
    runner = Runner(plan, device)
    graph = plan.graph
    n = graph.num_nodes
    src_f, dst_f = plan.edges.src, plan.edges.dst

    # replica groups are one logical node: connect the copies with alias
    # edges in both directions before decomposing, otherwise moving a
    # node's out-edges onto its (in-edge-less) replica would *break*
    # strong connectivity that confluence preserves on the real execution
    if plan.graffix is not None:
        slots, _gids, _sizes = plan.graffix.replica_groups()
        if slots.size:
            pair_a = slots
            pair_b = plan.graffix.replica_group_firsts()
            keep = pair_a != pair_b
            extra_src = np.concatenate([pair_a[keep], pair_b[keep]])
            extra_dst = np.concatenate([pair_b[keep], pair_a[keep]])
            graph = CSRGraph.from_edges(
                n,
                np.concatenate([src_f, extra_src]),
                np.concatenate([dst_f, extra_dst]),
                None,
                dedup=True,
            )
            src_f = graph.edge_sources().astype(np.int64)
            dst_f = graph.indices.astype(np.int64)

    rev = graph.reverse()
    offsets_b, indices_b = rev.offsets, rev.indices.astype(np.int64)

    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    remaining = np.ones(n, dtype=bool)
    # unfilled holes are not nodes; exclude them from the decomposition
    if plan.graffix is not None:
        remaining &= plan.graffix.rep_of >= 0

    def trim() -> None:
        nonlocal next_label
        while True:
            runner.ctx.charge(np.nonzero(remaining)[0])
            live = remaining[src_f] & remaining[dst_f]
            out_deg = np.bincount(src_f[live], minlength=n)
            in_deg = np.bincount(dst_f[live], minlength=n)
            peel = remaining & ((out_deg == 0) | (in_deg == 0))
            ids = np.nonzero(peel)[0]
            if ids.size == 0:
                break
            labels[ids] = next_label + np.arange(ids.size)
            next_label += ids.size
            remaining[ids] = False

    trim()
    # worklist of candidate partitions, each a boolean mask refinement
    stack: list[np.ndarray] = []
    if remaining.any():
        stack.append(remaining.copy())

    while stack:
        part = stack.pop()
        part &= remaining
        ids = np.nonzero(part)[0]
        if ids.size == 0:
            continue
        if ids.size == 1:
            labels[ids] = next_label
            next_label += 1
            remaining[ids] = False
            continue
        # pivot: max degree product inside the partition (Hong et al.)
        live = part[src_f] & part[dst_f]
        od = np.bincount(src_f[live], minlength=n)[ids]
        idg = np.bincount(dst_f[live], minlength=n)[ids]
        pivot = int(ids[np.argmax((od + 1) * (idg + 1))])
        fw = _reach(runner, graph.offsets, dst_f, pivot, part)
        bw = _reach(runner, offsets_b, indices_b, pivot, part)
        core = fw & bw & part
        labels[core] = next_label
        next_label += 1
        remaining[core] = False
        for sub in (part & fw & ~core, part & bw & ~core, part & ~fw & ~bw):
            if sub.any():
                stack.append(sub)

    # lower: component ids of original nodes via their primary slots
    if plan.graffix is not None:
        orig_labels = labels[plan.graffix.primary_slot]
    else:
        orig_labels = labels
    num_components = int(np.unique(orig_labels[orig_labels >= 0]).size)
    return AlgorithmResult(
        values=orig_labels.astype(np.float64),
        metrics=runner.metrics,
        iterations=next_label,
        aux={"num_components": num_components},
    )
