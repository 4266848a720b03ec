"""PageRank (push-style power iteration, vertex-centric).

Each sweep pushes ``d * pr[u] / outdeg(u)`` along every edge and adds the
teleport term; dangling mass (nodes with no outgoing edges — including
unfilled Graffix holes) is redistributed uniformly over the *occupied*
nodes, so holes never receive or emit rank.

Convergence is by L1 delta, as the standard GPU implementations do; the
result attribute is the per-node rank the paper's PR inaccuracy compares.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from .common import AlgorithmResult, Runner, plan_for

__all__ = ["pagerank"]


def pagerank(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 200,
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """PageRank values for every original node (sums to ~1).

    ``schedule`` selects push (scatter along out-edges) or pull (gather
    along in-edges) execution.  Ranks are bitwise schedule-invariant:
    within any destination's bincount bin the records appear in (source
    asc, storage pos) order under *both* edge orders, so each rank sum
    accumulates in the identical float sequence.
    """
    if not 0.0 < damping < 1.0:
        raise AlgorithmError(f"damping must be in (0, 1), got {damping}")
    if tol <= 0:
        raise AlgorithmError("tol must be positive")
    plan = plan_for(graph_or_plan)
    runner = (runner_factory or Runner)(plan, device).use_schedule(schedule)
    graph = plan.graph
    n_slots = graph.num_nodes

    if plan.graffix is not None:
        occupied = plan.graffix.rep_of >= 0
    else:
        occupied = np.ones(n_slots, dtype=bool)
    n_live = int(occupied.sum())
    if n_live == 0:
        raise AlgorithmError("graph has no occupied nodes")

    edges = runner.edges
    inv_deg = np.zeros(n_slots)
    nz = edges.out_deg > 0
    inv_deg[nz] = 1.0 / edges.out_deg[nz]
    dangling = occupied & ~nz

    pr = np.zeros(n_slots)
    pr[occupied] = 1.0 / n_live
    teleport = (1.0 - damping) / n_live

    iterations = 0
    delta = np.inf
    # convergence is delegated to the runner (the repro.tune seam): the
    # base Runner preserves the historical `delta > tol` check exactly
    while iterations < max_iterations and runner.keep_iterating(delta, tol):
        iterations += 1
        step = runner.advance(None)
        contrib = pr * inv_deg
        # bincount accumulates per-bin in the same array order np.add.at
        # did, so the sums are bitwise identical — just ~10× faster
        # (edgeless bincount yields int64 zeros, hence the astype)
        new_pr = np.bincount(
            step.dst, weights=damping * contrib[step.src], minlength=n_slots
        ).astype(np.float64, copy=False)
        dangling_mass = damping * pr[dangling].sum() / n_live
        new_pr[occupied] += teleport + dangling_mass
        runner.confluence(new_pr)
        # No §3 local cluster rounds for PageRank: PR recomputes every
        # contribution from scratch each power iteration, so re-pushing
        # the intra-cluster edges locally does not advance convergence the
        # way it does for monotone propagation (SSSP) — it only burns
        # atomic traffic.  The shared-memory win for PR is the residency
        # discount the cost model already applies to the pinned hub
        # attributes during the global sweep.
        delta = float(np.abs(new_pr - pr).sum())
        pr = new_pr

    values = plan.lower(pr)
    return AlgorithmResult(
        values=values, metrics=runner.metrics, iterations=iterations
    )
