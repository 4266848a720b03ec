"""Minimum spanning tree/forest — Borůvka's algorithm, vertex-centric.

Borůvka is the classic GPU MST formulation (LonestarGPU's ``mst``, Nobari
et al.): every round, each component selects its minimum-weight outgoing
edge, the selected edges join the forest, and components merge — all
component-parallel, which maps directly onto warp execution.  Each round
is one charged sweep.

Each round is a fixed number of whole-array steps, with no loop over
edges: edges are ranked once by (weight, edge id), and every component's
minimum crossing edge is a ``np.minimum.at`` over those ranks.  All
winners then hook at once, the hook-and-compress step of GPU
connectivity (Hong, Dhulipala and Shun): each root points at the other
end of its winning edge, the smaller root of a mutual pair points at
itself, pointer jumping runs to a fixpoint, and each group takes its
smallest root.  The order is strict, so the winners always form a
forest, and every root stays its component's minimum node id; the picked
edges are reported in ascending edge id within a round.

The graph is treated as undirected for MST purposes (edge ``u -> v`` is
traversable both ways at the same weight; duplicate directions keep the
minimum weight).  On a Graffix-transformed plan, replicas are pre-merged
into their original's component via zero-weight *alias* edges — a replica
is logically the same node, so keeping copies in one component is the
structural analogue of confluence.  The paper's MST inaccuracy metric is
the relative difference of forest weights.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.edgeshare import EdgeView
from .common import AlgorithmResult, Runner, plan_for

__all__ = ["mst", "minimum_spanning_forest_weight"]


def _undirected_min_edges(
    edges: EdgeView,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrized (u, v, w) with u < v and the minimum weight per pair."""
    keep = edges.src != edges.dst
    src, dst, w = edges.src[keep], edges.dst[keep], edges.weights[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * edges.graph.num_nodes + hi
    order = np.lexsort((w, key))
    key, lo, hi, w = key[order], lo[order], hi[order], w[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return lo[first], hi[first], w[first]


def _hook(parent: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The new root of each of ``roots`` once every root hooks onto
    ``parent[root]``; every other node must point at itself.

    The pointers form a forest plus one mutual pair per tree; the smaller
    root of each pair becomes the tree's fixpoint.  Pointer jumping halves
    every path per step, so a forest converges within ceil(log2 n) + 1
    steps; a pointer cycle longer than 2 never does and raises.
    ``parent`` is updated in place.
    """
    p = parent[roots]
    mutual = (parent[p] == roots) & (roots < p)
    p[mutual] = roots[mutual]
    parent[roots] = p
    for _ in range(int(np.ceil(np.log2(max(parent.size, 2)))) + 1):
        q = parent[p]
        if np.array_equal(q, p):
            break
        parent[roots] = p = q
    else:
        raise AlgorithmError(
            f"hook: pointer jumping over {roots.size} roots did not converge; "
            "the winning edges must form a forest"
        )
    smallest = np.full(parent.size, parent.size, dtype=np.int64)
    np.minimum.at(smallest, p, roots)
    return smallest[p]


def mst(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """Minimum spanning forest.

    ``values[v]`` is the component label of node ``v`` in the final
    forest; ``aux`` carries ``weight`` (total forest weight — the paper's
    compared attribute), ``edges`` (the chosen (u, v, w) triples in
    original node space when untransformed, slot space otherwise) and
    ``rounds``.
    """
    plan = plan_for(graph_or_plan)
    runner = Runner(plan, device)
    graph = plan.graph
    n = graph.num_nodes

    u, v, w = _undirected_min_edges(plan.edges)

    # alias edges: replicas must live in their original's component, so
    # each group member connects to the group's first slot at weight 0
    if plan.graffix is not None:
        slots, _gids, _sizes = plan.graffix.replica_groups()
        firsts = plan.graffix.replica_group_firsts()
        extra_u = np.minimum(slots, firsts)
        extra_v = np.maximum(slots, firsts)
        nz = extra_u != extra_v
        u = np.concatenate([u, extra_u[nz]])
        v = np.concatenate([v, extra_v[nz]])
        w = np.concatenate([w, np.zeros(int(nz.sum()))])

    # (weight, edge id) is a strict order: every component's minimum
    # crossing edge is unique, so each round's winners form a forest
    m = u.size
    by_rank = np.argsort(w, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_rank] = np.arange(m, dtype=np.int64)

    comp = np.arange(n, dtype=np.int64)  # root of each node = its min id
    live = np.arange(m, dtype=np.int64)  # edges not yet inside a component
    chosen: list[np.ndarray] = []
    rounds = 0
    while True:
        rounds += 1
        runner.ctx.charge(None)
        ru, rv = comp[u[live]], comp[v[live]]
        cross = ru != rv
        if not cross.any():
            break
        live, ru, rv = live[cross], ru[cross], rv[cross]
        r = rank[live]
        best = np.full(n, m, dtype=np.int64)
        np.minimum.at(best, ru, r)
        np.minimum.at(best, rv, r)
        roots = np.flatnonzero(best < m)
        picks = by_rank[best[roots]]
        winners = np.unique(picks)  # ascending edge id
        # hook every winner at once: each root points at the other end of
        # its winning edge, and each group takes its smallest root
        ends_u = comp[u[picks]]
        parent = np.arange(n, dtype=np.int64)
        parent[roots] = np.where(ends_u == roots, comp[v[picks]], ends_u)
        new_root = _hook(parent, roots)
        merged = int(np.count_nonzero(new_root != roots))
        if merged != winners.size:
            raise AlgorithmError(
                f"Borůvka round {rounds}: {winners.size} winning edges "
                f"merged {merged} components; they must form a forest"
            )
        relabel = np.arange(n, dtype=np.int64)
        relabel[roots] = new_root
        comp = relabel[comp]
        chosen.append(winners)

    picked = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    # one addition at a time in pick order, as a running sum (np.sum's
    # pairwise summation would change the low bits)
    total_weight = float(np.cumsum(np.concatenate([[0.0], w[picked]]))[-1])
    values = plan.lower(comp.astype(np.float64))
    edges_out = np.column_stack([u[picked], v[picked], w[picked]]).astype(
        np.float64
    )
    return AlgorithmResult(
        values=values,
        metrics=runner.metrics,
        iterations=rounds,
        aux={"weight": total_weight, "edges": edges_out, "rounds": rounds},
    )


def minimum_spanning_forest_weight(
    graph_or_plan: CSRGraph | ExecutionPlan, *, device: DeviceConfig = K40C
) -> float:
    """Convenience: just the forest weight (the compared attribute)."""
    result = mst(graph_or_plan, device=device)
    assert result.aux is not None
    return float(result.aux["weight"])
