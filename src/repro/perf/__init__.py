"""``repro.perf`` — the frontier-gather kernel engine.

The simulator charges kernels as if they did work proportional to the
active frontier, but several host-side implementations historically did
asymptotically *more* work than the GPU kernels they model (full-edge
``np.isin`` scans per BFS level, full-array snapshots per sweep).  This
package closes that gap with three shared primitives plus a tracked
wall-clock benchmark:

* :mod:`repro.perf.gather` — O(frontier-edges) CSR gathers
  (:func:`~repro.perf.gather.frontier_edges`);
* :mod:`repro.perf.workspace` — a :class:`~repro.perf.workspace.WorkspacePool`
  of reusable scratch buffers and the touched-destinations change
  detector :func:`~repro.perf.workspace.scatter_min_changed`, eliminating
  the per-sweep O(V)/O(E) allocations in the relax hot paths;
* :mod:`repro.perf.edgeshare` — flat edge arrays
  (:class:`~repro.perf.edgeshare.EdgeView`) and reverse-CSR pull views
  (:class:`~repro.perf.edgeshare.PullEdgeView`) shared across Runners by
  graph fingerprint, so a harness sweep stops rebuilding them per
  (algorithm × source);
* :mod:`repro.perf.schedule` — the sweep-schedule layer
  (:class:`~repro.perf.schedule.Schedule` policies, notably
  :class:`~repro.perf.schedule.DirectionOptimizing` with Beamer's α/β
  hysteresis) that picks push vs. pull, sparse vs. dense frontiers and
  vertex- vs. edge-balanced partitioning per iteration;
* :mod:`repro.perf.batched` — the multi-source sweep engine: S sources
  stacked into lane-tagged ``(S, n)`` state with one concatenated
  expansion per level (:func:`~repro.perf.batched.expand_lanes`),
  per-lane charges bit-identical to solo runs (lanes are priced and
  recorded by the execution context like every other charge;
  :class:`~repro.perf.batched.LaneLedger` keeps their order), and the
  :func:`~repro.perf.batched.bfs_levels_batched` /
  :func:`~repro.perf.batched.sssp_batched` entry points behind the
  serve layer's batching window.  BC's one engine
  (:func:`repro.algorithms.bc.betweenness_centrality`) is built on the
  same stacking;
* :mod:`repro.perf.bench` — ``python -m repro perf``, the kernel
  benchmark that emits ``BENCH_PR4.json`` and gates regressions in CI.

:mod:`repro.perf.reference` preserves the pre-engine SSSP/WCC reference
paths so the equivalence suite can prove the engine returns
byte-identical values and identical simulated-cycle charges; BC is
pinned by ``tests/bc_golden.json`` and the networkx oracle instead.

Everything is observable: ``perf.gather.*`` and
``perf.workspace.{reuse,alloc}`` counters plus ``perf.*`` spans feed
``python -m repro stats`` (see ``docs/performance.md``).
"""

from .batched import (
    BatchedResult,
    LaneExpansion,
    LaneLedger,
    bfs_levels_batched,
    expand_lanes,
    lane_sources,
    sssp_batched,
)
from .edgeshare import EdgeView, PullEdgeView, shared_edge_view, shared_pull_view
from .gather import frontier_edges
from .schedule import (
    DirectionOptimizing,
    Explicit,
    FixedPush,
    Schedule,
    SweepDecision,
    schedule_for,
)
from .workspace import WorkspacePool, pool, scatter_min_changed

__all__ = [
    "BatchedResult",
    "DirectionOptimizing",
    "EdgeView",
    "Explicit",
    "FixedPush",
    "LaneExpansion",
    "LaneLedger",
    "PullEdgeView",
    "Schedule",
    "SweepDecision",
    "WorkspacePool",
    "bfs_levels_batched",
    "expand_lanes",
    "frontier_edges",
    "lane_sources",
    "pool",
    "scatter_min_changed",
    "schedule_for",
    "shared_edge_view",
    "shared_pull_view",
    "sssp_batched",
]
