"""Single-source shortest paths (Bellman-Ford style, vertex-centric).

The topology-driven variant relaxes every edge each sweep (LonestarGPU's
``sssp`` and the paper's Baseline-I style); a data-driven variant that only
expands the changed frontier lives in :mod:`repro.baselines.gunrock`.

On a Graffix-transformed plan the runner transparently applies replica
confluence and shared-memory cluster rounds; added 2-hop edges carry the
sum of the two hop weights (§4), so any path through them corresponds to a
real path in the original graph — distances can only drift through
mean-confluence, never through the structural edits alone.

Each sweep reports change the way the paper's kernels do: one
``changed`` flag, raised by any ``atomicMin`` that lowers a distance.
The host computes it against a plain copy of ``dist`` taken before the
sweep.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from .common import (
    MAX_ITERATIONS,
    AlgorithmResult,
    EdgeView,
    Runner,
    check_source,
    plan_for,
)

__all__ = ["sssp", "sssp_relax"]


def sssp_relax(edges: EdgeView, dist: np.ndarray) -> bool:
    """One Bellman-Ford sweep over ``edges``; mutates ``dist`` in place.

    Returns whether any distance improved: the kernel's ``atomicMin``
    ``changed`` flag, computed against a plain pre-sweep snapshot.

    ``edges`` may be a forward :class:`EdgeView` or a
    :class:`~repro.perf.edgeshare.PullEdgeView` — scatter-min is
    insensitive to record order, so pull schedules reuse this relax
    unchanged.
    """
    src, dst, w = edges.src, edges.dst, edges.weights
    finite = np.isfinite(dist[src])
    if not finite.any():
        return False
    cand = dist[src[finite]] + w[finite]
    before = dist.copy()
    np.minimum.at(dist, dst[finite], cand)
    return bool(np.any(dist < before))


def sssp(
    graph_or_plan: CSRGraph | ExecutionPlan,
    source: int,
    *,
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """Shortest-path distances from ``source`` (original node id).

    Unreachable nodes get ``inf``.  The distance attribute is what the
    paper's SSSP inaccuracy metric compares.  ``schedule`` (a
    :class:`~repro.perf.schedule.Schedule` or spec string) selects the
    sweep execution strategy; distances are schedule-invariant.
    """
    plan = plan_for(graph_or_plan)
    source = check_source(source, plan.num_original)
    runner = (runner_factory or Runner)(plan, device).use_schedule(schedule)

    init = np.full(plan.num_original, np.inf)
    init[source] = 0.0
    dist = plan.lift(init, fill=np.inf)

    iterations = runner.fixed_point(
        dist,
        sssp_relax,
        max_iterations=min(MAX_ITERATIONS, 4 * plan.graph.num_nodes + 50),
    )
    return AlgorithmResult(
        values=plan.lower(dist),
        metrics=runner.metrics,
        iterations=iterations,
    )
