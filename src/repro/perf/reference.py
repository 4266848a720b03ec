"""Pre-engine reference paths, kept for equivalence proofs and benchmarks.

The frontier-gather engine's hard constraint is *byte-identical outputs
and identical simulated-cycle charges*: only host wall-clock may change.
This module preserves the pre-refactor SSSP/WCC host paths —

* full-array snapshot change detection in the relax callbacks
  (``dist.copy()`` / ``labels.copy()`` per sweep);
* the ``values.copy()`` + ``array_equal`` fixed-point loop

— so the equivalence suite (``tests/test_perf_equivalence.py``) can
assert the engine matches them bit for bit, and ``python -m repro perf``
can report the engine's wall-clock speedup over them on the same inputs.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.common import (
    MAX_ITERATIONS,
    AlgorithmResult,
    EdgeView,
    Runner,
    plan_for,
)
from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C

__all__ = [
    "fixed_point_reference",
    "sssp_reference",
    "sssp_relax_reference",
    "wcc_reference",
    "wcc_relax_reference",
]


def sssp_relax_reference(edges: EdgeView, dist: np.ndarray) -> bool:
    """Pre-engine SSSP relax: full ``dist`` snapshot per sweep."""
    src, dst, w = edges.src, edges.dst, edges.weights
    finite = np.isfinite(dist[src])
    if not finite.any():
        return False
    cand = dist[src[finite]] + w[finite]
    before = dist.copy()
    np.minimum.at(dist, dst[finite], cand)
    return bool(np.any(dist < before))


def wcc_relax_reference(edges: EdgeView, labels: np.ndarray) -> bool:
    """Pre-engine WCC relax: full ``labels`` snapshot per sweep."""
    src, dst = edges.src, edges.dst
    before = labels.copy()
    np.minimum.at(labels, dst, labels[src])
    np.minimum.at(labels, src, labels[dst])
    return bool(np.any(labels < before))


def fixed_point_reference(
    runner: Runner,
    values: np.ndarray,
    relax,
    *,
    max_iterations: int = MAX_ITERATIONS,
    improvement_atol: float = 0.5,
    improvement_rtol: float = 0.1,
) -> int:
    """Pre-engine fixed point: snapshot + ``array_equal`` per iteration.

    Mirrors :meth:`Runner.fixed_point` exactly except for the exact-plan
    convergence test, which re-derives change from a full snapshot
    instead of trusting the relax callback's flag.
    """
    if max_iterations < 1:
        raise AlgorithmError("max_iterations must be >= 1")
    approximate = runner.plan.has_replicas
    envelope = values.copy() if approximate else None
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        snapshot = values.copy()
        runner.sweep(values, relax, merge=False)
        if approximate:
            assert envelope is not None
            margin = improvement_atol + improvement_rtol * np.where(
                np.isfinite(envelope), np.abs(envelope), 0.0
            )
            improved = values < envelope - margin
            np.minimum(envelope, values, out=envelope)
            runner.confluence(values)
            np.minimum(envelope, values, out=envelope)
            if not improved.any():
                break
        elif np.array_equal(values, snapshot):
            break
        runner.cluster_rounds(values, relax)
    return iterations


def sssp_reference(
    graph_or_plan: CSRGraph | ExecutionPlan,
    source: int,
    *,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """SSSP through the reference relax + reference fixed point."""
    plan = plan_for(graph_or_plan)
    if not 0 <= source < plan.num_original:
        raise AlgorithmError(
            f"source {source} out of range for n={plan.num_original}"
        )
    runner = Runner(plan, device)
    init = np.full(plan.num_original, np.inf)
    init[source] = 0.0
    dist = plan.lift(init, fill=np.inf)
    iterations = fixed_point_reference(
        runner,
        dist,
        sssp_relax_reference,
        max_iterations=min(MAX_ITERATIONS, 4 * plan.graph.num_nodes + 50),
    )
    return AlgorithmResult(
        values=plan.lower(dist), metrics=runner.metrics, iterations=iterations
    )


def wcc_reference(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """WCC through the reference relax + reference fixed point."""
    plan = plan_for(graph_or_plan)
    runner = Runner(plan, device)
    init = np.arange(plan.num_original, dtype=np.float64)
    labels = plan.lift(init, fill=np.inf)
    iterations = fixed_point_reference(
        runner,
        labels,
        wcc_relax_reference,
        max_iterations=min(MAX_ITERATIONS, plan.graph.num_nodes + 10),
        improvement_atol=0.5,
        improvement_rtol=0.0,
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
