"""Weakly connected components — label propagation (HookNudge style).

Not one of the paper's five evaluation algorithms; it exists to back the
paper's claim that the transforms are *algorithm-oblivious* ("Such
approximations should be algorithm- and graph-oblivious to apply to a
wide variety of graph analytic computations", §1).  WCC is a min-label
propagation — structurally identical to the propagation pattern the
transforms were designed around — so it runs on any
:class:`~repro.core.pipeline.ExecutionPlan` unchanged, confluence and
cluster rounds included, without this module knowing which technique is
active.

Each sweep propagates ``label[v] = min(label[v], label[u])`` along every
edge in both directions (weak connectivity); convergence is by the
Runner's monotone-envelope criterion, exactly like SSSP.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from .common import MAX_ITERATIONS, AlgorithmResult, EdgeView, Runner, plan_for

__all__ = ["wcc", "exact_wcc_count"]


def _wcc_relax(edges: EdgeView, labels: np.ndarray) -> bool:
    # min-labels only ever decrease, so one pre-sweep snapshot detects
    # change for both directions
    src, dst = edges.src, edges.dst
    before = labels.copy()
    np.minimum.at(labels, dst, labels[src])
    np.minimum.at(labels, src, labels[dst])
    return bool(np.any(labels < before))


def wcc(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """Weakly-connected-component labels per original node.

    ``values[v]`` is the minimum original node id in ``v``'s component;
    ``aux["num_components"]`` counts distinct labels (the natural
    inaccuracy attribute, mirroring the paper's SCC metric).
    """
    plan = plan_for(graph_or_plan)
    runner = Runner(plan, device)

    init = np.arange(plan.num_original, dtype=np.float64)
    labels = plan.lift(init, fill=np.inf)  # holes never win a min

    iterations = runner.fixed_point(
        labels,
        _wcc_relax,
        max_iterations=min(MAX_ITERATIONS, plan.graph.num_nodes + 10),
        improvement_atol=0.5,
        improvement_rtol=0.0,  # labels are ids: relative slack is meaningless
    )
    values = plan.lower(labels)
    finite = values[np.isfinite(values)]
    num_components = int(np.unique(finite).size)
    return AlgorithmResult(
        values=values,
        metrics=runner.metrics,
        iterations=iterations,
        aux={"num_components": num_components},
    )


def exact_wcc_count(graph: CSRGraph) -> int:
    """Reference component count (scipy, weak connectivity)."""
    import scipy.sparse.csgraph as csgraph

    from ..graphs.builder import to_scipy

    count, _ = csgraph.connected_components(
        to_scipy(graph), directed=True, connection="weak"
    )
    return int(count)
