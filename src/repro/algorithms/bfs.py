"""Breadth-first search (level assignment) on the simulated GPU.

BFS is the substrate of half the paper: the renumbering builds BFS
forests, BC's forward pass is a BFS, and SCC's reachability queries are
BFSes.  Exposing it as a first-class algorithm lets users (and the
reorder-comparison benches) measure traversal cost directly.

Two kernel styles, matching the baselines:

* ``bfs``          — level-synchronous, frontier-charged (Gunrock-style);
* ``topology_driven=True`` — every sweep touches all nodes (Baseline-I).

On a Graffix plan, replica groups are level-synced exactly as in BC
(copies are one logical node), so the reported levels are comparable with
the exact run; added 2-hop edges can shorten hop distances — that is the
measured approximation.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.batched import _replica_info, _sync_groups
from .common import AlgorithmResult, Runner, check_source, plan_for

__all__ = ["bfs"]


def bfs(
    graph_or_plan: CSRGraph | ExecutionPlan,
    source: int,
    *,
    topology_driven: bool = False,
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """BFS levels from ``source`` (original node id); -1 if unreachable.

    ``schedule`` (a :class:`~repro.perf.schedule.Schedule` or spec
    string) picks per-level execution: push expands the frontier's
    out-edges, pull gathers each unvisited node's in-edges from the
    shared reverse view — the direction-optimizing sweet spot once
    frontiers densify.  Levels are schedule-invariant (both directions
    assign ``depth+1`` to exactly the unvisited nodes with a
    depth-``depth`` in-neighbor).  Only the frontier-driven kernel is
    schedulable; the topology-driven baseline deliberately charges
    every node every sweep.
    """
    if schedule is not None and topology_driven:
        raise AlgorithmError(
            "schedules apply to the frontier-driven bfs kernel only"
        )
    plan = plan_for(graph_or_plan)
    source = check_source(source, plan.num_original)
    runner = (runner_factory or Runner)(plan, device).use_schedule(schedule)
    offsets = plan.graph.offsets

    primary, g_slots, g_gids, num_groups = _replica_info(plan)

    n = plan.graph.num_nodes
    level = np.full(n, -1, dtype=np.int64)
    level[int(primary[source])] = 0
    depth = 0

    _sync_groups(level, g_slots, g_gids, num_groups)
    frontier = np.nonzero(level == 0)[0].astype(np.int64)
    # only a schedule reads the pull candidates, the frontier's out-edge
    # count and Beamer's m_u (the out-edges of still-unexplored nodes,
    # maintained incrementally so the α switch test is O(frontier) per
    # level, with each frontier's out-degrees summed once); unscheduled
    # runs always push, so they build none of them
    scheduled = runner.schedule is not None
    fedges = unexplored = None
    if scheduled:
        fedges = int((offsets[frontier + 1] - offsets[frontier]).sum())
        unexplored = plan.graph.num_edges - fedges

    while frontier.size:
        # the topology-driven kernel sweeps every edge; pull gathers
        # each unvisited node's in-edges (bottom-up)
        step = runner.advance(
            None if topology_driven else frontier,
            candidates=level < 0 if scheduled else None,
            frontier_edges=fedges,
            unexplored_edges=unexplored,
        )
        # an edge from the current level to an unvisited node levels it:
        # the same (in-neighbor@depth, unvisited) set in every direction
        newly = step.dst[(level[step.src] == depth) & (level[step.dst] < 0)]
        level[newly] = depth + 1
        _sync_groups(level, g_slots, g_gids, num_groups)
        if num_groups == 0 and newly.size * 4 < n:
            # sorting the few freshly levelled ids beats the O(V) rescan
            # (BC's rule); with replica groups the sync can level extra
            # slots, so the rescan is the only faithful frontier there
            frontier = np.unique(newly)
        else:
            frontier = np.nonzero(level == depth + 1)[0].astype(np.int64)
        depth += 1
        if scheduled:
            fedges = int((offsets[frontier + 1] - offsets[frontier]).sum())
            unexplored -= fedges

    if plan.graffix is not None:
        values = level[primary].astype(np.float64)
    else:
        values = level.astype(np.float64)
    values[values < 0] = np.inf  # unify the unreachable sentinel
    return AlgorithmResult(
        values=values, metrics=runner.metrics, iterations=depth
    )
