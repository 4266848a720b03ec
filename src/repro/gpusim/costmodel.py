"""The cycle-accounting heart of the GPU simulator.

:func:`charge_sweep` analyses one vertex-centric kernel sweep over a CSR
graph and returns a :class:`SweepCost` with the three cost components the
paper optimizes:

1. **compute / divergence** — each warp serializes ``max`` lane degree
   neighbor-loop steps (idle lanes don't help);
2. **memory transactions** — per warp step, distinct ``line_words``
   segments touched in (a) the edges array (reading neighbor ids), and
   (b) the node-attribute array (reading/atomically-updating the
   destination's attribute), plus one coalesced-ish pass over the source
   attributes;
3. **latency class** — attribute transactions whose destination is marked
   *resident* (simulated shared memory) are charged ``shared_latency``
   instead of ``global_latency``.

The function never computes algorithm values — value updates are done by
the (vectorized, honest) algorithm implementations; this separation keeps
the simulator deterministic and testable against brute force.

:func:`charge_vertex_sweeps` is the one vertex-partition pricer: it
prices a run of 1..K sweeps in one vectorized pass, and
:func:`charge_sweep` prices a single vertex-partitioned sweep as a run
of one.  The edge-partition arm is separate because its warps are
built from edge records, not nodes.  Solvers never call the pricer
directly: they charge through
:class:`~repro.gpusim.kernel.ExecutionContext`, which keeps the ledger.
:func:`expand_accesses` and the composable pieces in
:mod:`repro.gpusim.warp` / :mod:`repro.gpusim.memory` are the
independent reference the tests price against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.properties import ragged_arange
from ..perf.gather import expand_rows
from .device import DeviceConfig

__all__ = [
    "SweepCost",
    "charge_sweep",
    "charge_vertex_sweeps",
    "checked_resident_mask",
    "expand_accesses",
]

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SweepCost:
    """Cost breakdown of one kernel sweep (all counts summed over warps)."""

    serial_steps: int = 0
    busy_lane_steps: int = 0
    idle_lane_steps: int = 0
    edge_transactions: int = 0
    attr_global_transactions: int = 0
    attr_shared_transactions: int = 0
    src_transactions: int = 0
    atomic_ops: int = 0
    cycles: float = 0.0

    def __add__(self, other: "SweepCost") -> "SweepCost":
        if not isinstance(other, SweepCost):
            return NotImplemented
        # spelled out positionally: this runs once per simulated sweep,
        # and dataclasses.fields() + kwargs construction showed up in
        # solver profiles
        return SweepCost(
            self.serial_steps + other.serial_steps,
            self.busy_lane_steps + other.busy_lane_steps,
            self.idle_lane_steps + other.idle_lane_steps,
            self.edge_transactions + other.edge_transactions,
            self.attr_global_transactions + other.attr_global_transactions,
            self.attr_shared_transactions + other.attr_shared_transactions,
            self.src_transactions + other.src_transactions,
            self.atomic_ops + other.atomic_ops,
            self.cycles + other.cycles,
        )

    @property
    def total_transactions(self) -> int:
        return (
            self.edge_transactions
            + self.attr_global_transactions
            + self.attr_shared_transactions
            + self.src_transactions
        )

    @property
    def divergence_ratio(self) -> float:
        total = self.busy_lane_steps + self.idle_lane_steps
        return self.idle_lane_steps / total if total else 0.0


def expand_accesses(
    graph: CSRGraph, active: np.ndarray, warp_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the neighbor loops of ``active`` nodes into access records.

    Returns parallel arrays ``(warp, step, edge_pos, dst)``: for the
    ``j``-th neighbor of the node at position ``p`` of the active list,
    ``warp = p // warp_size``, ``step = j``, ``edge_pos`` is the index into
    the edges array being read, ``dst`` the neighbor id whose attribute is
    touched.
    """
    active = np.asarray(active, dtype=np.int64)
    degs = (graph.offsets[active + 1] - graph.offsets[active]).astype(np.int64)
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    positions = np.arange(active.size, dtype=np.int64)
    warp = np.repeat(positions // warp_size, degs)
    # step j within each adjacency: global arange minus each segment start
    seg_starts = np.concatenate(([0], np.cumsum(degs)[:-1]))
    step = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, degs)
    edge_pos = np.repeat(graph.offsets[active].astype(np.int64), degs) + step
    dst = graph.indices[edge_pos].astype(np.int64)
    return warp, step, edge_pos, dst


def _region_distinct(
    keys: np.ndarray, bounds, select: np.ndarray | None = None
) -> list[int]:
    """Per-region distinct-value counts of region-monotone ``keys``.

    ``bounds`` (K+1 ints) delimits K concatenated key regions; every key
    of region k must be strictly below every key of region k+1, so one
    in-place sort keeps regions contiguous and a run-start
    ``searchsorted`` yields each region's distinct count.  ``select``
    (a boolean mask over ``keys``) counts that subset only.  One region
    needs no bookkeeping: it is a plain sort-and-count.

    Any injective packing of ``(warp step, segment)`` into keys yields
    the count :func:`repro.gpusim.memory.count_transactions` derives
    with its data-scanned key spans.  ``keys`` is sorted in place, so
    callers pass a throwaway array.
    """
    if len(bounds) == 2:
        if select is not None:
            keys = keys[select]
        if keys.size == 0:
            return [0]
        keys.sort()
        return [1 + int(np.count_nonzero(keys[1:] != keys[:-1]))]
    if select is not None:
        keys = keys[select]
        bounds = np.concatenate(([0], np.cumsum(select, dtype=np.int64)))[bounds]
    else:
        bounds = np.asarray(bounds, dtype=np.int64)
    if keys.size == 0:
        return [0] * (len(bounds) - 1)
    keys.sort()
    # run starts except position 0; each region's first element is one
    # (keys change across region boundaries), so counting run starts in
    # [lo, hi) needs only a +1 for the run at position 0
    rs = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    lo = bounds[:-1]
    hi = bounds[1:]
    cnt = np.searchsorted(rs, hi) - np.searchsorted(rs, lo)
    return np.where(hi > lo, cnt + (lo == 0), 0).tolist()


def _region_sum(values: np.ndarray, bounds: list[int]) -> list[int]:
    """Per-region sums of ``values`` over non-empty regions ``bounds``."""
    if len(bounds) == 2:
        return [int(values.sum())]
    return np.add.reduceat(values, bounds[:-1]).tolist()


def _check_ids(graph: CSRGraph, active: np.ndarray) -> None:
    """Refuse node ids outside ``[0, num_nodes)``."""
    if active.size and (active.min() < 0 or active.max() >= graph.num_nodes):
        raise SimulationError("active node id out of range")


def checked_resident_mask(
    resident_mask: np.ndarray | None, num_nodes: int
) -> np.ndarray | None:
    """``resident_mask`` as bool; refuse one not of length ``num_nodes``."""
    if resident_mask is None:
        return None
    resident_mask = np.asarray(resident_mask, dtype=bool)
    if resident_mask.size != num_nodes:
        raise SimulationError("resident_mask length must equal num_nodes")
    return resident_mask


def _checked_inputs(
    graph: CSRGraph, device: DeviceConfig, resident_mask: np.ndarray | None
) -> np.ndarray | None:
    """Validate the device and the residency mask (returned as bool)."""
    if device.warp_size <= 0:
        raise SimulationError("warp_size must be positive")
    if device.line_words <= 0:
        raise SimulationError("line_words must be positive")
    return checked_resident_mask(resident_mask, graph.num_nodes)


def _sweep_cost(
    device: DeviceConfig,
    serial: int,
    busy: int,
    idle: int,
    edge_t: int,
    attr_global_t: int,
    attr_shared_t: int,
    src_t: int,
    *,
    all_shared: bool = False,
) -> SweepCost:
    """Price one sweep's counts in cycles (one atomic per processed edge).

    ``all_shared`` sweeps (the §3 cluster iterations) read the edges and
    source attributes from shared memory too.
    """
    edge_latency = device.shared_latency if all_shared else device.edge_latency
    src_latency = device.shared_latency if all_shared else device.global_latency
    cycles = (
        serial * device.issue_cycles
        + edge_t * edge_latency
        + attr_global_t * device.global_latency
        + attr_shared_t * device.shared_latency
        + src_t * src_latency
        + busy * device.atomic_cycles
    )
    return SweepCost(
        serial, busy, idle, edge_t, attr_global_t, attr_shared_t, src_t, busy,
        float(cycles),
    )


def charge_vertex_sweeps(
    graph: CSRGraph,
    device: DeviceConfig,
    sweeps,
    *,
    resident_mask: np.ndarray | None = None,
    all_shared: bool = False,
) -> list[SweepCost]:
    """Price vertex-partitioned sweeps, one lane per active node.

    ``sweeps`` is a sequence of :class:`~repro.perf.gather.SweepExpansion`
    over ``graph``, each one sweep's active list *in processing order*.
    Returns one :class:`SweepCost` per sweep (empty sweeps cost nothing),
    with the warp schedule, divergence stats and transaction counts of
    every sweep computed in one pass over the concatenated records.
    Warps restart at every sweep boundary and are numbered globally, so
    the packed keys stay sweep-monotone and one sort per access class
    prices the whole run.  A single sweep is the one-region case and
    skips the concatenation and the region bookkeeping.

    ``resident_mask`` and ``all_shared`` work as in :func:`charge_sweep`
    and apply to every sweep of the call.
    """
    resident_mask = _checked_inputs(graph, device, resident_mask)
    live = [s for s in sweeps if s.frontier.size]
    if not live:
        return [SweepCost()] * len(sweeps)
    if len(live) == 1:
        (only,) = live
        active, degs = only.frontier, only.degs
        step, epos, dst = only.step, only.epos, only.e_dst
    else:
        active = np.concatenate([s.frontier for s in live])
        degs = np.concatenate([s.degs for s in live])
        step = np.concatenate([s.step for s in live])
        epos = np.concatenate([s.epos for s in live])
        dst = np.concatenate([s.e_dst for s in live])
    _check_ids(graph, active)

    ws, line = device.warp_size, device.line_words
    counts = [s.frontier.size for s in live]
    busy_k = [s.epos.size for s in live]
    pos_bounds = list(accumulate(counts, initial=0))
    edge_bounds = list(accumulate(busy_k, initial=0))
    warp_bounds = list(accumulate((-(-c // ws) for c in counts), initial=0))

    # warp schedule: each warp serializes its busiest lane's degree, and
    # every lane idles for the rest of those steps
    if len(live) == 1:
        warp_of_pos = np.arange(active.size, dtype=np.int64) // ws
        warp_start = np.arange(0, active.size, ws, dtype=np.int64)
    else:
        pos_in_sweep = ragged_arange(counts)
        warp_of_pos = pos_in_sweep // ws + np.repeat(warp_bounds[:-1], counts)
        warp_start = np.flatnonzero(pos_in_sweep % ws == 0)
    warp_max = np.maximum.reduceat(degs, warp_start)
    serial_k = _region_sum(warp_max, warp_bounds)
    idle_k = [
        w - b
        for w, b in zip(_region_sum(warp_max[warp_of_pos], pos_bounds), busy_k)
    ]

    # structural span bounds (no data scans); the guard mirrors
    # memory._encode_keys' int64 overflow refusal
    step_span = max(int(warp_max.max()), 1)
    edge_seg_span = graph.num_edges // line + 1
    node_seg_span = graph.num_nodes // line + 1
    if warp_bounds[-1] * step_span * max(edge_seg_span, node_seg_span) >= _INT64_MAX:
        raise SimulationError("access space too large to encode in int64 keys")

    zeros = [0] * len(live)
    if edge_bounds[-1]:
        gid = np.repeat(warp_of_pos * step_span, degs) + step
        # (1) reading the edges array itself
        edge_t_k = _region_distinct(gid * edge_seg_span + epos // line, edge_bounds)
        # (2) destination-attribute accesses, split by residency
        attr_keys = gid * node_seg_span + dst // line
        if all_shared:
            attr_global_k = zeros
            attr_shared_k = _region_distinct(attr_keys, edge_bounds)
        elif resident_mask is not None:
            shared = resident_mask[dst]
            attr_global_k = _region_distinct(attr_keys, edge_bounds, ~shared)
            attr_shared_k = _region_distinct(attr_keys, edge_bounds, shared)
        else:
            attr_global_k = _region_distinct(attr_keys, edge_bounds)
            attr_shared_k = zeros
    else:
        edge_t_k = attr_global_k = attr_shared_k = zeros
    # (3) one source-attribute pass: lane p reads/writes its own node's
    # attribute, coalesced iff the active ids are clustered
    src_t_k = _region_distinct(
        warp_of_pos * node_seg_span + active // line, pos_bounds
    )

    costs = [
        _sweep_cost(device, *c, all_shared=all_shared)
        for c in zip(
            serial_k, busy_k, idle_k, edge_t_k, attr_global_k, attr_shared_k,
            src_t_k,
        )
    ]
    if len(costs) == len(sweeps):
        return costs
    priced = iter(costs)
    return [next(priced) if s.frontier.size else SweepCost() for s in sweeps]


def charge_sweep(
    graph: CSRGraph,
    device: DeviceConfig,
    active: np.ndarray | None = None,
    *,
    resident_mask: np.ndarray | None = None,
    all_shared: bool = False,
    expansion=None,
    partition: str = "vertex",
) -> SweepCost:
    """Account the cycles of one vertex-centric sweep.

    Parameters
    ----------
    graph:
        the CSR graph the kernel runs over (possibly Graffix-transformed).
    active:
        node ids in processing order; ``None`` means all nodes in id order
        (topology-driven kernel).
    resident_mask:
        optional boolean per node: attribute accesses to resident nodes are
        charged at shared-memory latency (§3's pinned clusters).
    all_shared:
        charge *every* access (edges array included) at shared latency —
        used for the intra-cluster iterations of the §3 runner, where the
        whole subgraph lives in shared memory.
    expansion:
        optional :class:`~repro.perf.gather.SweepExpansion` of exactly
        ``active`` (same nodes, same order) over ``graph`` — the records
        a solver already gathered.  Without one the sweep's rows are
        gathered here with :func:`~repro.perf.gather.expand_rows`, so the
        cost is identical either way.  The caller is trusted on the
        match (``ExecutionContext.charge`` verifies it).
    partition:
        ``"vertex"`` (default) assigns one warp lane per active node —
        the classic vertex-balanced kernel whose divergence the model
        was built to expose — and prices the sweep with
        :func:`charge_vertex_sweeps`.  ``"edge"`` assigns one lane per
        gathered edge record instead: warps of consecutive edge records,
        one neighbor-loop step each, so divergence vanishes
        (``idle_lane_steps`` only from the ragged last warp) at the
        price of a per-record *source*-attribute read replacing the
        per-node source pass.  Schedules pick this via
        ``SweepDecision.partition``.
    """
    if partition not in ("vertex", "edge"):
        raise SimulationError(
            f"unknown partition {partition!r}; choose 'vertex' or 'edge'"
        )
    if expansion is None:
        if active is not None:
            # checked before the gather indexes the offsets with them
            active = np.asarray(active, dtype=np.int64)
            _check_ids(graph, active)
        expansion = expand_rows(graph.offsets, graph.indices, active)
    if partition == "vertex":
        return charge_vertex_sweeps(
            graph,
            device,
            (expansion,),
            resident_mask=resident_mask,
            all_shared=all_shared,
        )[0]
    resident_mask = _checked_inputs(graph, device, resident_mask)
    _check_ids(graph, expansion.frontier)
    return _charge_sweep_edge(
        graph, device, expansion, resident_mask=resident_mask, all_shared=all_shared
    )


def _charge_sweep_edge(
    graph: CSRGraph,
    device: DeviceConfig,
    expansion,
    *,
    resident_mask: np.ndarray | None,
    all_shared: bool,
) -> SweepCost:
    """Edge-balanced variant of :func:`charge_sweep`.

    The work items are the gathered edge *records* themselves: warps of
    ``warp_size`` consecutive records, each lane handling exactly one
    record in one neighbor-loop step.  Degree skew therefore costs
    nothing — ``serial_steps = ceil(E / warp_size)`` and the only idle
    lanes sit in the ragged final warp — which is the whole point of
    edge-balanced load partitioning (Gunrock's LB advance).  The price
    the model charges: every lane must read its *own record's source
    attribute* (lanes no longer share one node per lane), so the
    source-attribute pass becomes per-record transactions grouped by
    the edge-warp, typically more traffic than the vertex-balanced
    per-node pass on clustered frontiers.
    """
    line = device.line_words
    total = int(expansion.epos.size)
    if total == 0:
        return SweepCost()
    edge_pos = expansion.epos
    dst = expansion.e_dst

    ws = device.warp_size
    num_warps = -(-total // ws)
    edge_seg_span = graph.num_edges // line + 1
    node_seg_span = graph.num_nodes // line + 1
    if num_warps * max(edge_seg_span, node_seg_span) >= _INT64_MAX:
        raise SimulationError("access space too large to encode in int64 keys")

    # one record per lane, one step per warp: no degree divergence
    serial = num_warps
    busy = total
    idle = num_warps * ws - total
    gid = np.arange(total, dtype=np.int64) // ws

    whole = (0, total)
    edge_t = _region_distinct(gid * edge_seg_span + edge_pos // line, whole)[0]
    attr_keys = gid * node_seg_span + dst // line
    if all_shared:
        attr_global_t = 0
        attr_shared_t = _region_distinct(attr_keys, whole)[0]
    elif resident_mask is not None:
        shared = resident_mask[dst]
        attr_global_t = _region_distinct(attr_keys, whole, ~shared)[0]
        attr_shared_t = _region_distinct(attr_keys, whole, shared)[0]
    else:
        attr_global_t = _region_distinct(attr_keys, whole)[0]
        attr_shared_t = 0

    # per-record source-attribute read, coalesced within each edge-warp
    src_t = _region_distinct(gid * node_seg_span + expansion.e_src // line, whole)[0]
    return _sweep_cost(
        device, serial, busy, idle, edge_t, attr_global_t, attr_shared_t, src_t,
        all_shared=all_shared,
    )
