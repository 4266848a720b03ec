"""Baseline-III: Gunrock-style frontier-driven (data-driven) kernels.

Gunrock operates on frontiers of active nodes: an *advance* expands the
frontier's edges, a *filter* compacts the next frontier.  Only frontier
nodes occupy warp lanes, so sparse iterations are much cheaper than
topology-driven sweeps — our cost model reflects that automatically by
charging only the active list.

Implemented operators (the paper compares SSSP, PR and BC on Gunrock):

* ``sssp`` — delta-less Bellman-Ford over the changed-node frontier;
* ``pr``   — push-style PageRank-delta (residual propagation with an
  ``eps`` filter), Gunrock's PR formulation;
* ``bc``   — level-synchronous Brandes (our default BC is already
  frontier-charged).

All operators accept a Graffix :class:`~repro.core.pipeline.ExecutionPlan`
for the "approximate Graffix on Gunrock" rows of Tables 12–14 — replica
confluence and cluster rounds are applied exactly as in the Baseline-I
runners.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bc import betweenness_centrality
from ..algorithms.common import AlgorithmResult, Runner, check_source, plan_for
from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.gather import expand_frontier, scatter_min_changed

__all__ = ["run", "sssp_frontier", "pagerank_delta", "SUPPORTED"]

SUPPORTED = ("sssp", "pr", "bc")


def sssp_frontier(
    graph_or_plan: CSRGraph | ExecutionPlan,
    source: int,
    *,
    device: DeviceConfig = K40C,
    max_iterations: int = 100_000,
    schedule=None,
) -> AlgorithmResult:
    """Frontier-driven SSSP (advance changed nodes only).

    Under a pull schedule each iteration gathers over the reverse view,
    keeping exactly the records whose *source* changed last iteration —
    the same edge multiset the push advance expands, relaxed by
    order-insensitive scatter-min, so distances, the changed set, and
    the iteration count are all schedule-invariant.  The charge models
    what bottom-up actually does: a full reverse-adjacency scan testing
    frontier membership.
    """
    plan = plan_for(graph_or_plan)
    source = check_source(source, plan.num_original)
    runner = Runner(plan, device).use_schedule(schedule)
    graph = plan.graph
    n = graph.num_nodes
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    weights = graph.effective_weights()

    init = np.full(plan.num_original, np.inf)
    init[source] = 0.0
    dist = plan.lift(init, fill=np.inf)
    frontier = np.nonzero(np.isfinite(dist))[0].astype(np.int64)
    iterations = 0

    if plan.graffix is not None:
        g_slots, _g_gids, _g_sizes = plan.graffix.replica_groups()
    else:
        g_slots = np.empty(0, dtype=np.int64)
    in_frontier = None

    while frontier.size and iterations < max_iterations:
        iterations += 1
        decision = runner._decide(frontier)
        if decision is not None and decision.direction == "pull":
            pv = runner._pull_edges()
            runner.ctx.charge(
                None,
                subgraph=pv.rev,
                expansion=pv.full_expansion(),
                partition=decision.partition,
            )
            if in_frontier is None:
                in_frontier = np.zeros(n, dtype=bool)
            in_frontier[:] = False
            in_frontier[frontier] = True
            rec = in_frontier[pv.src]
            e_src = pv.src[rec]
            e_dst = pv.dst[rec]
            cand_w = pv.weights[rec]
            epos = None
        else:
            exp = expand_frontier(offsets, indices, frontier)
            runner.ctx.charge(
                frontier,
                expansion=exp,
                partition="vertex" if decision is None else decision.partition,
            )
            e_src, e_dst, epos = exp.e_src, exp.e_dst, exp.epos
            cand_w = None
        # touched-destinations change detection: only gathered edges
        # and, below, only replica slots are compared
        changed_mask = np.zeros(n, dtype=bool)
        if e_dst.size:
            cand = dist[e_src] + (weights[epos] if cand_w is None else cand_w)
            improved = scatter_min_changed(dist, e_dst, cand)
            changed_mask[e_dst[improved]] = True
        if plan.graffix is not None:
            # confluence only ever writes replica slots, so comparing
            # those slots is exact — the rest of dist cannot move
            before_slots = dist[g_slots]
            runner.confluence(dist)
            changed_mask[g_slots[dist[g_slots] != before_slots]] = True
        frontier = np.nonzero(changed_mask)[0].astype(np.int64)

    return AlgorithmResult(
        values=plan.lower(dist), metrics=runner.metrics, iterations=iterations
    )


def pagerank_delta(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    damping: float = 0.85,
    eps_fraction: float = 1e-3,
    max_iterations: int = 10_000,
    device: DeviceConfig = K40C,
    schedule=None,
) -> AlgorithmResult:
    """Push-style PageRank-delta with residual filtering (Gunrock PR).

    Converges to the same fixed point as power iteration: residuals below
    ``eps = eps_fraction / n`` are dropped, bounding the error.

    Ranks are bitwise schedule-invariant: the per-record share is the
    node-level ``damping * r / deg`` float either way, and within any
    destination's bincount bin the frontier records appear in (source
    asc, storage pos) order under both edge orders.
    """
    if not 0.0 < damping < 1.0:
        raise AlgorithmError(f"damping must be in (0, 1), got {damping}")
    plan = plan_for(graph_or_plan)
    runner = Runner(plan, device).use_schedule(schedule)
    graph = plan.graph
    n = graph.num_nodes
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)

    if plan.graffix is not None:
        occupied = plan.graffix.rep_of >= 0
    else:
        occupied = np.ones(n, dtype=bool)
    n_live = int(occupied.sum())
    out_deg = graph.out_degrees().astype(np.float64)

    pr = np.zeros(n)
    residual = np.zeros(n)
    residual[occupied] = (1.0 - damping) / n_live
    eps = eps_fraction / n_live

    iterations = 0
    in_frontier = None
    while iterations < max_iterations:
        frontier = np.nonzero(residual > eps)[0].astype(np.int64)
        if frontier.size == 0:
            break
        iterations += 1
        decision = runner._decide(frontier)
        pull = decision is not None and decision.direction == "pull"
        if pull:
            pv = runner._pull_edges()
            runner.ctx.charge(
                None,
                subgraph=pv.rev,
                expansion=pv.full_expansion(),
                partition=decision.partition,
            )
            degs = out_deg[frontier]
        else:
            # zero-out-degree frontier nodes contribute no edges, so the
            # frontier's expansion doubles as fo's below
            exp = expand_frontier(offsets, indices, frontier)
            runner.ctx.charge(
                frontier,
                expansion=exp,
                partition="vertex" if decision is None else decision.partition,
            )
            degs = exp.degs
        r = residual[frontier]
        pr[frontier] += r
        residual[frontier] = 0.0
        has_out = degs > 0
        fo = frontier[has_out]
        if fo.size:
            do = degs[has_out]
            share = damping * r[has_out] / do
            if pull:
                share_node = np.zeros(n)
                share_node[fo] = share
                if in_frontier is None:
                    in_frontier = np.zeros(n, dtype=bool)
                in_frontier[:] = False
                in_frontier[fo] = True
                rec = in_frontier[pv.src]
                contrib = share_node[pv.src[rec]]
                dsts = pv.dst[rec]
            else:
                contrib = np.repeat(share, do)
                dsts = exp.e_dst
            # per-destination sums via bincount (~10× np.add.at on large
            # frontiers); adds reassociate per destination, within float
            # tolerance of the residual-propagation fixed point
            residual += np.bincount(
                dsts, weights=contrib, minlength=n
            ).astype(np.float64, copy=False)
        # dangling nodes spread their residual uniformly
        dangling = r[~has_out].sum()
        if dangling > 0:
            residual[occupied] += damping * dangling / n_live
        if plan.graffix is not None:
            runner.confluence(pr)
            runner.confluence(residual)

    return AlgorithmResult(
        values=plan.lower(pr), metrics=runner.metrics, iterations=iterations
    )


def run(
    algorithm: str,
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    source: int = 0,
    bc_sources: np.ndarray | None = None,
    num_bc_sources: int = 4,
    seed: int = 0,
    device: DeviceConfig = K40C,
    schedule=None,
) -> AlgorithmResult:
    """Execute one algorithm in Gunrock (frontier-driven) style."""
    if algorithm == "sssp":
        return sssp_frontier(graph_or_plan, source, device=device, schedule=schedule)
    if algorithm == "pr":
        return pagerank_delta(graph_or_plan, device=device, schedule=schedule)
    if algorithm == "bc":
        return betweenness_centrality(
            graph_or_plan,
            sources=bc_sources,
            num_sources=num_bc_sources,
            seed=seed,
            device=device,
            schedule=schedule,
        )
    raise AlgorithmError(
        f"Gunrock baseline does not implement {algorithm!r}; supported: {SUPPORTED}"
    )
