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
from ..perf.edgeshare import shared_pull_view
from ..perf.gather import expand_frontier
from ..perf.schedule import schedule_for
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
    sched = schedule_for(schedule)
    if sched is not None and topology_driven:
        raise AlgorithmError(
            "schedules apply to the frontier-driven bfs kernel only"
        )
    plan = plan_for(graph_or_plan)
    source = check_source(source, plan.num_original)
    runner = (runner_factory or Runner)(plan, device)
    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    pull_view = None
    rev_indices = None

    primary, g_slots, g_gids, num_groups = _replica_info(plan)

    level = np.full(n, -1, dtype=np.int64)
    level[int(primary[source])] = 0
    depth = 0

    _sync_groups(level, g_slots, g_gids, num_groups)
    frontier = np.nonzero(level == 0)[0].astype(np.int64)
    prev = None
    # Beamer's m_u: out-edges of still-unexplored nodes, maintained
    # incrementally so the α switch test is O(frontier) per level
    unexplored = m - int((offsets[frontier + 1] - offsets[frontier]).sum())

    while frontier.size:
        decision = None
        if sched is not None:
            decision = sched.decide(
                frontier_size=int(frontier.size),
                frontier_edges=int(
                    (offsets[frontier + 1] - offsets[frontier]).sum()
                ),
                num_nodes=n,
                num_edges=m,
                unexplored_edges=unexplored,
                prev=prev,
            )
            prev = decision
        if decision is not None and decision.direction == "pull":
            # bottom-up: every unvisited node checks its in-neighbors
            if pull_view is None:
                pull_view = shared_pull_view(graph)
                rev_indices = pull_view.rev.indices.astype(np.int64)
            candidates = np.nonzero(level < 0)[0].astype(np.int64)
            rexp = expand_frontier(
                pull_view.rev.offsets, rev_indices, candidates
            )
            runner.ctx.charge(
                candidates,
                subgraph=pull_view.rev,
                expansion=rexp,
                partition=decision.partition,
            )
            # rexp.e_src = the gathering candidate, rexp.e_dst = its
            # forward in-neighbor; a hit is an in-neighbor on the
            # current level — the same (unvisited, in-neighbor@depth)
            # set the push direction assigns, so levels are identical
            newly = np.unique(rexp.e_src[level[rexp.e_dst] == depth])
            if newly.size:
                level[newly] = depth + 1
        else:
            exp = expand_frontier(offsets, indices, frontier)
            if topology_driven:
                runner.ctx.charge(None)
            else:
                runner.ctx.charge(
                    frontier,
                    expansion=exp,
                    partition="vertex" if decision is None else decision.partition,
                )
            newly = None
            dst = exp.e_dst
            if dst.size:
                fresh = dst[level[dst] < 0]
                if fresh.size:
                    level[fresh] = depth + 1
                    newly = fresh
        _sync_groups(level, g_slots, g_gids, num_groups)
        if (
            decision is not None
            and decision.frontier == "sparse"
            and num_groups == 0
        ):
            # index-array frontier from the freshly assigned ids; with
            # replica groups the sync can level extra slots, so the
            # dense rescan is the only faithful representation there
            frontier = (
                np.unique(newly) if newly is not None else np.empty(0, np.int64)
            )
        else:
            frontier = np.nonzero(level == depth + 1)[0].astype(np.int64)
        depth += 1
        unexplored -= int((offsets[frontier + 1] - offsets[frontier]).sum())

    if plan.graffix is not None:
        values = level[primary].astype(np.float64)
    else:
        values = level.astype(np.float64)
    values[values < 0] = np.inf  # unify the unreachable sentinel
    return AlgorithmResult(
        values=values, metrics=runner.metrics, iterations=depth
    )
