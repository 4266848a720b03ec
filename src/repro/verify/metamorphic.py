"""Metamorphic relations run through the full simulation harness.

A metamorphic relation links the outputs of *two* runs whose inputs are
related by a known transformation, so correctness can be checked without
an external ground truth:

* **Node-relabel invariance** — permuting node ids of an *exact* plan
  permutes SSSP distances exactly and PageRank/BC values up to
  accumulation-order noise.  (Transform plans are intentionally
  id-ordering-sensitive — chunking and bucketing read the labels — so
  this relation only holds for ``technique="exact"``.)
* **Weight-scaling equivariance** — scaling all weights by a power of
  two scales SSSP distances and the MST forest weight *exactly* (binary
  floating point is exact under power-of-two scaling).
* **Monotone knob → monotone edit distance** — a looser divergence
  similarity threshold or a larger shmem edge budget can only grow
  ``edges_added``.
* **Exact plan ≡ identity transform** — building an exact plan changes
  neither the graph nor any simulated charge.

Each check returns a list of :class:`~repro.verify.invariants.Violation`.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bc import betweenness_centrality, pick_sources
from ..algorithms.mst import mst
from ..algorithms.pagerank import pagerank
from ..algorithms.sssp import sssp
from ..core.divergence import normalize_degrees
from ..core.knobs import DivergenceKnobs, SharedMemoryKnobs
from ..core.pipeline import build_plan
from ..core.shmem import plan_shared_memory
from ..graphs.builder import permute
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from .invariants import Violation

__all__ = [
    "check_relabel_invariance",
    "check_weight_scaling",
    "check_knob_monotonicity",
    "check_exact_identity",
]


def _pick_source(graph: CSRGraph) -> int:
    return int(np.argmax(graph.out_degrees()))


def check_relabel_invariance(
    graph: CSRGraph, *, seed: int = 0, device: DeviceConfig = K40C
) -> list[Violation]:
    """Exact plans must not care what the nodes are called."""
    v: list[Violation] = []
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    relabelled = permute(graph, perm)
    source = _pick_source(graph)

    # SSSP: min over per-path left-to-right sums — bit-identical
    d1 = sssp(graph, source, device=device).values
    d2 = sssp(relabelled, int(perm[source]), device=device).values
    if not np.array_equal(d1, d2[perm]):
        v.append(
            Violation(
                "metamorphic.relabel.sssp",
                "SSSP distances changed under node relabelling",
            )
        )

    # PageRank: accumulation order follows labels, so tolerate eps noise
    p1 = pagerank(graph, device=device).values
    p2 = pagerank(relabelled, device=device).values
    if not np.allclose(p1, p2[perm], rtol=1e-6, atol=1e-9):
        v.append(
            Violation(
                "metamorphic.relabel.pagerank",
                f"PageRank diverged beyond tolerance"
                f" (max abs diff {np.abs(p1 - p2[perm]).max():.3e})",
            )
        )

    # BC: same sampled sources, mapped through the permutation
    sources = pick_sources(n, min(3, n), seed)
    b1 = betweenness_centrality(graph, sources=sources, device=device).values
    b2 = betweenness_centrality(
        relabelled, sources=perm[sources], device=device
    ).values
    if not np.allclose(b1, b2[perm], rtol=1e-6, atol=1e-9):
        v.append(
            Violation(
                "metamorphic.relabel.bc",
                "betweenness centrality changed under node relabelling",
            )
        )
    return v


def check_weight_scaling(
    graph: CSRGraph, *, factor: float = 2.0, device: DeviceConfig = K40C
) -> list[Violation]:
    """Power-of-two weight scaling must scale SSSP/MST outputs exactly."""
    if factor <= 0 or (factor != 2.0 ** round(np.log2(factor))):
        raise ValueError("factor must be a positive power of two for exactness")
    v: list[Violation] = []
    base = graph.with_weights(graph.effective_weights())
    scaled = base.with_weights(base.weights * factor)
    source = _pick_source(base)

    d1 = sssp(base, source, device=device).values
    d2 = sssp(scaled, source, device=device).values
    if not np.array_equal(d1 * factor, d2):
        v.append(
            Violation(
                "metamorphic.scaling.sssp",
                f"SSSP distances are not equivariant under x{factor} weights",
            )
        )

    m1 = mst(base, device=device)
    m2 = mst(scaled, device=device)
    w1 = float(m1.aux["weight"])
    w2 = float(m2.aux["weight"])
    if w1 * factor != w2:
        v.append(
            Violation(
                "metamorphic.scaling.mst",
                f"forest weight {w1} x{factor} != {w2}",
            )
        )
    if not np.array_equal(m1.values, m2.values):
        v.append(
            Violation(
                "metamorphic.scaling.mst",
                "forest component labels changed under weight scaling",
            )
        )
    return v


def check_knob_monotonicity(
    graph: CSRGraph,
    *,
    device: DeviceConfig = K40C,
    divergence_thresholds: tuple[float, ...] = (0.05, 0.3, 0.9),
    shmem_budgets: tuple[float, ...] = (0.0, 0.02, 0.2),
) -> list[Violation]:
    """Looser knobs can only *add* edit distance, never remove it."""
    v: list[Violation] = []

    added = [
        normalize_degrees(
            graph, DivergenceKnobs(degree_sim_threshold=t), device
        ).edges_added
        for t in divergence_thresholds
    ]
    if any(a > b for a, b in zip(added, added[1:])):
        v.append(
            Violation(
                "metamorphic.monotone.divergence",
                f"edges_added {added} not monotone in degree_sim_threshold"
                f" {list(divergence_thresholds)}",
            )
        )

    added = [
        plan_shared_memory(
            graph, SharedMemoryKnobs(edge_budget_fraction=b), device
        ).edges_added
        for b in shmem_budgets
    ]
    if any(a > b for a, b in zip(added, added[1:])):
        v.append(
            Violation(
                "metamorphic.monotone.shmem",
                f"edges_added {added} not monotone in edge_budget_fraction"
                f" {list(shmem_budgets)}",
            )
        )
    return v


def check_exact_identity(
    graph: CSRGraph, *, device: DeviceConfig = K40C
) -> list[Violation]:
    """``build_plan(g, "exact")`` must be a no-op in values *and* charges."""
    v: list[Violation] = []
    plan = build_plan(graph, "exact", device=device)
    if plan.edges_added != 0 or plan.graffix is not None or plan.order is not None:
        v.append(
            Violation("metamorphic.identity", "exact plan carries transform state")
        )
    if plan.graph != graph:
        v.append(
            Violation("metamorphic.identity", "exact plan altered the graph")
        )
        return v

    source = _pick_source(graph)
    direct = sssp(graph, source, device=device)
    planned = sssp(plan, source, device=device)
    if not np.array_equal(direct.values, planned.values):
        v.append(
            Violation(
                "metamorphic.identity",
                "SSSP through the exact plan differs from the raw graph",
            )
        )
    if direct.iterations != planned.iterations or (
        direct.metrics.summary() != planned.metrics.summary()
    ):
        v.append(
            Violation(
                "metamorphic.identity",
                "simulated charges differ between raw graph and exact plan",
            )
        )
    return v
