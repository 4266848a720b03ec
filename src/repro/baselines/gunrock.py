"""Baseline-III: Gunrock-style frontier-driven (data-driven) kernels.

Gunrock operates on frontiers of active nodes: an *advance* expands the
frontier's edges, a *filter* compacts the next frontier.  Here the
advance is :meth:`~repro.algorithms.common.Runner.advance` — it takes the
schedule's push/pull decision, gathers the edges and charges only the
active list, so sparse iterations are much cheaper than topology-driven
sweeps — and the filter is each kernel's ``np.nonzero`` over the nodes
that changed.

Implemented kernels (the paper compares SSSP, PR and BC on Gunrock):

* ``sssp`` — delta-less Bellman-Ford over the changed-node frontier;
* ``pr``   — push-style PageRank-delta (residual propagation with an
  ``eps`` filter), Gunrock's PR formulation;
* ``bc``   — level-synchronous Brandes (our default BC is already
  frontier-charged).

All kernels accept a Graffix :class:`~repro.core.pipeline.ExecutionPlan`
for the "approximate Graffix on Gunrock" rows of Tables 12–14; SSSP and
PR merge replica copies after every advance.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bc import betweenness_centrality
from ..algorithms.common import AlgorithmResult, Runner, check_source, plan_for
from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.gather import scatter_min_changed

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
    n = plan.graph.num_nodes
    weights = plan.graph.effective_weights()

    init = np.full(plan.num_original, np.inf)
    init[source] = 0.0
    dist = plan.lift(init, fill=np.inf)
    frontier = np.nonzero(np.isfinite(dist))[0].astype(np.int64)
    iterations = 0

    if plan.graffix is not None:
        g_slots, _g_gids, _g_sizes = plan.graffix.replica_groups()
    else:
        g_slots = np.empty(0, dtype=np.int64)

    while frontier.size and iterations < max_iterations:
        iterations += 1
        step = runner.advance(frontier)
        # touched-destinations change detection: only gathered edges
        # and, below, only replica slots are compared
        changed_mask = np.zeros(n, dtype=bool)
        if step.dst.size:
            cand = dist[step.src] + weights[step.eid]
            improved = scatter_min_changed(dist, step.dst, cand)
            changed_mask[step.dst[improved]] = True
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
    n = plan.graph.num_nodes

    if plan.graffix is not None:
        occupied = plan.graffix.rep_of >= 0
    else:
        occupied = np.ones(n, dtype=bool)
    n_live = int(occupied.sum())
    out_deg = plan.graph.out_degrees().astype(np.float64)

    pr = np.zeros(n)
    residual = np.zeros(n)
    residual[occupied] = (1.0 - damping) / n_live
    eps = eps_fraction / n_live

    iterations = 0
    while iterations < max_iterations:
        frontier = np.nonzero(residual > eps)[0].astype(np.int64)
        if frontier.size == 0:
            break
        iterations += 1
        step = runner.advance(frontier)
        r = residual[frontier]
        pr[frontier] += r
        residual[frontier] = 0.0
        degs = out_deg[frontier]
        has_out = degs > 0
        if step.dst.size:
            # each record carries its source's node-level share; adds
            # reassociate per destination, within float tolerance of the
            # residual-propagation fixed point (bincount is ~10× np.add.at)
            share = np.zeros(n)
            share[frontier[has_out]] = damping * r[has_out] / degs[has_out]
            residual += np.bincount(
                step.dst, weights=share[step.src], minlength=n
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
