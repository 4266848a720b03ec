"""``repro.perf`` — the frontier-gather kernel engine.

The simulator charges kernels as if they did work proportional to the
active frontier, and the host-side solvers do the same: no full-edge
scan per level.  The package holds the shared primitives:

* :mod:`repro.perf.gather` — the simulator's one CSR row gather.
  Solvers expand their frontiers with
  :func:`~repro.perf.gather.expand_frontier` (counted and traced), and
  the cost model builds the sweeps it prices with the uncounted
  :func:`~repro.perf.gather.expand_rows` underneath it, so both see the
  same edge records.  :func:`~repro.perf.gather.scatter_min_changed` is
  the touched-destinations change detector frontier-driven relaxes
  scatter through;
* :mod:`repro.perf.edgeshare` — flat edge arrays
  (:class:`~repro.perf.edgeshare.EdgeView`) that a plan builds on
  first read and shares across its Runners, and frees with itself;
  each view builds its reverse-CSR pull view
  (:class:`~repro.perf.edgeshare.PullEdgeView`) on first read;
* :mod:`repro.perf.schedule` — the sweep-schedule layer
  (:class:`~repro.perf.schedule.Schedule` policies, notably
  :class:`~repro.perf.schedule.DirectionOptimizing` with Beamer's α/β
  hysteresis) that picks push vs. pull and vertex- vs. edge-balanced
  partitioning per iteration — the two choices the cost model charges;
* :mod:`repro.perf.batched` — the stacked multi-source gather BC's one
  engine (:func:`repro.algorithms.bc.betweenness_centrality`) is built
  on: S sources as lane-tagged ``(S, n)`` state with one concatenated
  gather per level (:func:`~repro.perf.batched.expand_lanes`), each
  lane bit-identical to its solo run.

Values and simulated-cycle charges are pinned by recorded golden
digests (``tests/*_golden.json``) and the independent oracles in
:mod:`repro.algorithms.exact`.

Everything is observable: ``perf.gather.*`` counters plus ``perf.*``
spans feed ``python -m repro stats`` (see ``docs/performance.md``).
"""

from .batched import LaneExpansion, expand_lanes
from .edgeshare import EdgeView, PullEdgeView
from .gather import expand_frontier, scatter_min_changed
from .schedule import (
    DirectionOptimizing,
    Explicit,
    FixedPush,
    Schedule,
    SweepDecision,
    schedule_for,
)

__all__ = [
    "DirectionOptimizing",
    "EdgeView",
    "Explicit",
    "FixedPush",
    "LaneExpansion",
    "PullEdgeView",
    "Schedule",
    "SweepDecision",
    "expand_frontier",
    "expand_lanes",
    "scatter_min_changed",
    "schedule_for",
]
