"""Technique composition: one uniform execution plan for the runners.

The three Graffix transforms produce different artifacts (a slot-space
graph with replica bookkeeping; a residency plan; a processing order).
:class:`ExecutionPlan` normalizes all of them — and their combinations —
into the single structure the algorithm runners consume, so every
algorithm works unchanged with any technique (the paper's transforms are
algorithm-oblivious, and so is this plan).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..cache import memoize
from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.edgeshare import EdgeView
from ..resilience.faults import fault_point
from .coalesce import GraffixGraph, transform_graph
from .divergence import DivergencePlan, normalize_degrees
from .knobs import CoalescingKnobs, DivergenceKnobs, SharedMemoryKnobs
from .shmem import SharedMemoryPlan, plan_shared_memory

__all__ = ["ExecutionPlan", "TECHNIQUES", "build_plan"]

TECHNIQUES = ("exact", "coalescing", "shmem", "divergence", "combined")


@dataclass
class ExecutionPlan:
    """Everything a runner needs to execute on a transformed graph.

    For the untransformed case (``technique="exact"``) the plan is simply
    the original graph with identity mappings.
    """

    technique: str
    graph: CSRGraph
    num_original: int
    order: np.ndarray | None = None
    resident_mask: np.ndarray | None = None
    cluster_graph: CSRGraph | None = None
    local_iterations: int = 0
    graffix: GraffixGraph | None = None
    confluence_operator: str = "mean"
    edges_added: int = 0
    preprocess_seconds: float = 0.0
    _shmem: SharedMemoryPlan | None = field(default=None, repr=False)
    _divergence: DivergencePlan | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # not fields: dataclasses.replace, ==, save_plan and the cache
        # key never see them, and a copy or a loaded plan starts empty
        self._full_sweep_costs: dict[DeviceConfig, dict] = {}
        self._edges: EdgeView | None = None
        self._cluster_edges: EdgeView | None = None

    @property
    def edges(self) -> EdgeView:
        """The :class:`EdgeView` of :attr:`graph`, built on first read.

        Every Runner on the plan shares it; it holds the graph, not the
        plan, so dropping the plan frees both.  Two threads reading it
        first may each build one; they are equal and the last stays.
        """
        if self._edges is None:
            self._edges = EdgeView(self.graph)
        return self._edges

    @property
    def cluster_edges(self) -> EdgeView | None:
        """The :class:`EdgeView` of :attr:`cluster_graph`, as :attr:`edges`."""
        if self._cluster_edges is None and self.cluster_graph is not None:
            self._cluster_edges = EdgeView(self.cluster_graph)
        return self._cluster_edges

    def full_sweep_costs(self, device: DeviceConfig) -> dict:
        """This plan's full-sweep memo on ``device``.

        Every :class:`~repro.algorithms.common.Runner` on the plan hands
        it to its :class:`~repro.gpusim.kernel.ExecutionContext`, so each
        full sweep is priced once per plan and device rather than once
        per solve.  Its few keys name a subgraph by fingerprint; it holds
        no graph.
        """
        return self._full_sweep_costs.setdefault(device, {})

    # ------------------------------------------------------------------
    def lift(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Map original-space attribute values into execution space."""
        if self.graffix is None:
            return np.asarray(values, dtype=np.float64).copy()
        return self.graffix.lift(values, fill)

    def lower(self, values: np.ndarray) -> np.ndarray:
        """Map execution-space attribute values back to original nodes."""
        if self.graffix is None:
            return np.asarray(values, dtype=np.float64)
        return self.graffix.lower(values)

    @property
    def has_replicas(self) -> bool:
        return self.graffix is not None and self.graffix.num_replicas > 0

    @property
    def has_clusters(self) -> bool:
        return (
            self.cluster_graph is not None
            and self.local_iterations > 0
            and self.resident_mask is not None
            and bool(self.resident_mask.any())
        )


def build_plan(
    graph: CSRGraph,
    technique: str,
    *,
    device: DeviceConfig = K40C,
    coalescing: CoalescingKnobs | None = None,
    shmem: SharedMemoryKnobs | None = None,
    divergence: DivergenceKnobs | None = None,
    confluence_operator: str = "mean",
) -> ExecutionPlan:
    """Build the execution plan for one technique (or their combination).

    ``technique`` is one of :data:`TECHNIQUES`.  ``"combined"`` applies
    divergence padding, then the shared-memory plan, then the coalescing
    transform — each on the previous one's output graph, mirroring the
    paper's remark that the techniques complement each other.

    With :mod:`repro.cache` enabled, the finished plan is memoized on
    ``(graph fingerprint, technique, knobs, device, confluence
    operator)``: a transformed plan is identical across all five
    algorithms and across repeated sweeps, so only the first request per
    knob setting pays the transform.  The on-disk tier round-trips
    through :mod:`repro.core.serialize` (whose tests certify loaded
    plans execute identically).
    """
    if technique not in TECHNIQUES:
        raise TransformError(
            f"unknown technique {technique!r}; choose from {TECHNIQUES}"
        )
    params = {
        "technique": technique,
        "device": device,
        # normalize None to the defaults the stages would apply, so an
        # explicit default knob object and "no knobs" share one key
        "coalescing": coalescing or CoalescingKnobs(),
        "shmem": shmem or SharedMemoryKnobs(),
        "divergence": divergence or DivergenceKnobs(),
        "confluence_operator": confluence_operator,
    }
    return memoize(
        "transform.build_plan",
        graph,
        params,
        lambda: _build_plan_traced(
            graph,
            technique,
            device=device,
            coalescing=coalescing,
            shmem=shmem,
            divergence=divergence,
            confluence_operator=confluence_operator,
        ),
        save=_save_plan_payload,
        load=_load_plan_payload,
    )


def _save_plan_payload(plan: ExecutionPlan, path) -> None:
    from .serialize import save_plan  # local import: serialize imports us

    save_plan(plan, path)


def _load_plan_payload(path, _meta: dict) -> ExecutionPlan:
    from .serialize import load_plan  # local import: serialize imports us

    return load_plan(path)


def _build_plan_traced(
    graph: CSRGraph,
    technique: str,
    *,
    device: DeviceConfig,
    coalescing: CoalescingKnobs | None,
    shmem: SharedMemoryKnobs | None,
    divergence: DivergenceKnobs | None,
    confluence_operator: str,
) -> ExecutionPlan:
    fault_point("transform", technique)
    obs_metrics.counter(f"transform.plans.{technique}").inc()
    with obs_trace.span(
        "transform.build_plan",
        technique=technique,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
    ) as sp:
        plan = _build_plan_stages(
            graph,
            technique,
            device=device,
            coalescing=coalescing,
            shmem=shmem,
            divergence=divergence,
            confluence_operator=confluence_operator,
        )
    if sp is not None:
        sp.set(
            edges_added=plan.edges_added,
            preprocess_seconds=plan.preprocess_seconds,
            plan_nodes=plan.graph.num_nodes,
            plan_edges=plan.graph.num_edges,
        )
    return plan


def _build_plan_stages(
    graph: CSRGraph,
    technique: str,
    *,
    device: DeviceConfig,
    coalescing: CoalescingKnobs | None,
    shmem: SharedMemoryKnobs | None,
    divergence: DivergenceKnobs | None,
    confluence_operator: str,
) -> ExecutionPlan:
    n = graph.num_nodes
    t0 = time.perf_counter()

    if technique == "exact":
        return ExecutionPlan(
            technique="exact",
            graph=graph,
            num_original=n,
            preprocess_seconds=time.perf_counter() - t0,
        )

    if technique == "divergence":
        with obs_trace.span("transform.divergence"):
            plan = normalize_degrees(graph, divergence, device)
        return ExecutionPlan(
            technique=technique,
            graph=plan.graph,
            num_original=n,
            order=plan.order,
            edges_added=plan.edges_added,
            preprocess_seconds=time.perf_counter() - t0,
            _divergence=plan,
        )

    if technique == "shmem":
        with obs_trace.span("transform.shmem"):
            plan = plan_shared_memory(graph, shmem, device)
        return ExecutionPlan(
            technique=technique,
            graph=plan.graph,
            num_original=n,
            resident_mask=plan.resident_mask,
            cluster_graph=plan.cluster_graph,
            local_iterations=plan.local_iterations,
            edges_added=plan.edges_added,
            preprocess_seconds=time.perf_counter() - t0,
            _shmem=plan,
        )

    if technique == "coalescing":
        with obs_trace.span("transform.coalesce"):
            gg = transform_graph(graph, coalescing)
        return ExecutionPlan(
            technique=technique,
            graph=gg.graph,
            num_original=n,
            graffix=gg,
            confluence_operator=confluence_operator,
            edges_added=gg.edges_added,
            preprocess_seconds=time.perf_counter() - t0,
        )

    # combined: divergence -> shmem -> coalescing
    with obs_trace.span("transform.divergence"):
        div_plan = normalize_degrees(graph, divergence, device)
    with obs_trace.span("transform.shmem"):
        shm_plan = plan_shared_memory(div_plan.graph, shmem, device)
    with obs_trace.span("transform.coalesce"):
        gg = transform_graph(shm_plan.graph, coalescing)
    # residency and cluster edges must be lifted into slot space
    slot_resident = np.zeros(gg.num_slots, dtype=bool)
    occupied = gg.rep_of >= 0
    slot_resident[occupied] = shm_plan.resident_mask[gg.rep_of[occupied]]
    c_src = gg.renumbering.new_id[shm_plan.cluster_graph.edge_sources()]
    c_dst = gg.renumbering.new_id[shm_plan.cluster_graph.indices]
    cluster_graph = CSRGraph.from_edges(
        gg.num_slots,
        c_src.astype(np.int64),
        c_dst.astype(np.int64),
        shm_plan.cluster_graph.weights,
    )
    return ExecutionPlan(
        technique="combined",
        graph=gg.graph,
        num_original=n,
        resident_mask=slot_resident,
        cluster_graph=cluster_graph,
        local_iterations=shm_plan.local_iterations,
        graffix=gg,
        confluence_operator=confluence_operator,
        edges_added=div_plan.edges_added + shm_plan.edges_added + gg.edges_added,
        preprocess_seconds=time.perf_counter() - t0,
        _shmem=shm_plan,
        _divergence=div_plan,
    )
