"""Execution context: one simulated kernel stream over a graph.

Algorithms compute their values with honest vectorized numpy updates and
call :meth:`ExecutionContext.charge` once per kernel sweep (or
:meth:`~ExecutionContext.charge_batch` for a pass of them) so the cost
model accounts what that sweep *would* cost on the modeled GPU.  The
context is the only place a sweep is priced (:meth:`~ExecutionContext.price`,
:meth:`~ExecutionContext.price_batch`) and recorded
(:meth:`~ExecutionContext.record`).  A vertex-partitioned sweep is
priced by the cost model's one vertex pricer,
:func:`~repro.gpusim.costmodel.charge_vertex_sweeps`, whether it comes
alone (through :func:`~repro.gpusim.costmodel.charge_sweep`) or in a
batch.  It owns:

* the **processing order** — how node ids map to threads (Graffix's §4
  bucket sort changes this; everything else uses id order);
* the **residency mask** — which nodes' attributes live in simulated
  shared memory (§3's pinned clusters);
* the accumulating :class:`~repro.gpusim.metrics.SimMetrics` ledger;
* the **full-sweep memo** — a topology-driven sweep (``active=None``)
  costs the same every time it runs, because everything it depends on
  besides ``(subgraph, all_shared, partition)`` is fixed at construction
  (graph, device, processing order, resident mask; nothing may mutate
  them afterwards).  :meth:`~ExecutionContext.price` prices each such
  key once and hands back the same frozen
  :class:`~repro.gpusim.costmodel.SweepCost` thereafter, so the ledger
  is bit-identical to re-pricing while SSSP/WCC fixed points, PageRank,
  MST rounds and Baseline-I kernels stop paying the cost model on every
  iteration.  A substituted subgraph is keyed by its content
  (:meth:`~repro.graphs.csr.CSRGraph.fingerprint`), so the memo pins no
  graph.  The memo may outlive the context: the algorithm runner hands
  in its plan's memo for the device
  (:meth:`~repro.core.pipeline.ExecutionPlan.full_sweep_costs`), so each
  full sweep is priced once per plan and device, not once per solve.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..graphs.csr import CSRGraph
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .costmodel import (
    SweepCost,
    charge_sweep,
    charge_vertex_sweeps,
    checked_resident_mask,
)
from .device import DeviceConfig, K40C
from .metrics import SimMetrics

__all__ = ["ExecutionContext", "checked_order"]


def checked_order(order: np.ndarray, num_nodes: int) -> np.ndarray:
    """``order`` as int64; refuse one that is not a permutation of the
    ``num_nodes`` node ids."""
    order = np.asarray(order)
    if order.dtype.kind not in "iu":
        raise SimulationError(
            f"processing order must hold integer node ids, not {order.dtype}"
        )
    order = order.astype(np.int64, copy=False)
    if order.size != num_nodes:
        raise SimulationError("processing order must list every node once")
    if num_nodes and (order.min() < 0 or order.max() >= num_nodes):
        raise SimulationError(
            f"processing order names a node id outside [0, {num_nodes})"
        )
    seen = np.zeros(num_nodes, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise SimulationError("processing order must be a permutation")
    return order


class ExecutionContext:
    """A simulated kernel stream bound to one graph and one device.

    ``full_costs`` is a full-sweep memo to share.  Every context that
    shares one must be built with the same graph, device, processing
    order and resident mask (one :class:`~repro.core.pipeline.ExecutionPlan`
    on one device); without it the context keeps its own.  Two threads
    that miss the same key at once both price it and store equal frozen
    costs, so a shared memo needs no lock.
    """

    #: edge records per cost-model call in :meth:`price_batch`
    CHUNK_RECORDS = 32768

    def __init__(
        self,
        graph: CSRGraph,
        device: DeviceConfig = K40C,
        *,
        order: np.ndarray | None = None,
        resident_mask: np.ndarray | None = None,
        full_costs: dict[tuple, SweepCost] | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        n = graph.num_nodes
        self._identity_order = order is None
        if order is None:
            self._order = np.arange(n, dtype=np.int64)
        else:
            self._order = checked_order(order, n)
        # rank[v] = position of node v in the processing order
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self._order] = np.arange(n, dtype=np.int64)
        self.resident_mask = checked_resident_mask(resident_mask, n)
        self.metrics = SimMetrics(device=device)
        # full-sweep memo: (subgraph fingerprint or None, all_shared,
        # partition) -> cost
        self._full_costs = {} if full_costs is None else full_costs
        # cached instruments: record() runs once per sweep, so skip the
        # registry lookup on the hot path
        self._sweep_counter = obs_metrics.counter("solve.sweeps")
        self._cycle_counter = obs_metrics.counter("solve.sim_cycles")
        self._memo_hit = obs_metrics.counter("gpusim.full_sweep_memo.hit")
        self._memo_miss = obs_metrics.counter("gpusim.full_sweep_memo.miss")

    @property
    def order(self) -> np.ndarray:
        """The full processing order (a permutation of node ids)."""
        return self._order

    def ordered(self, active: np.ndarray | None) -> np.ndarray:
        """Active node ids sorted into processing order.

        ``active`` may be a boolean mask or an id array; ``None`` selects
        every node.  On a real GPU the frontier compaction preserves the
        numbering order, which is what this reproduces.
        """
        if active is None:
            return self._order
        active = np.asarray(active)
        if active.dtype == bool:
            if active.size != self.graph.num_nodes:
                raise SimulationError("active mask length must equal num_nodes")
            ids = np.nonzero(active)[0].astype(np.int64)
        else:
            ids = active.astype(np.int64)
        if self._identity_order:
            # rank == id, so the stable argsort below reduces to a plain
            # value sort; frontiers from np.nonzero are already sorted,
            # making this near-free on the per-sweep hot path
            return np.sort(ids)
        return ids[np.argsort(self._rank[ids], kind="stable")]

    def price(
        self,
        active: np.ndarray | None = None,
        *,
        all_shared: bool = False,
        subgraph: CSRGraph | None = None,
        expansion=None,
        partition: str = "vertex",
    ) -> SweepCost:
        """The :class:`SweepCost` of one sweep, without recording it.

        Every simulated charge is priced here (or in :meth:`price_batch`,
        which prices the same way).  A full sweep (``active=None``) is
        priced once per ``(subgraph, all_shared, partition)`` and the
        same frozen cost is returned on every later call: its inputs
        (graph, device, processing order, resident mask) are fixed when
        the context is built.  The memo is the context's own or the one
        handed in at construction; ``subgraph`` is keyed by its
        fingerprint.  Frontier sweeps are priced on every call.

        ``subgraph`` substitutes a different CSR structure (same node-id
        space) for this sweep — the §3 runner uses it to charge
        cluster-only iterations over the cluster edge set, and pull
        schedules use it to charge gathers over the reverse view
        (:class:`~repro.perf.edgeshare.PullEdgeView.rev`).

        ``expansion`` is an optional precomputed
        :class:`~repro.perf.gather.SweepExpansion` of ``active`` over
        the charged structure (``subgraph`` when given, else
        ``self.graph``); the cost model prices the solver's records
        instead of gathering them again (identical charges, less host
        work).  It is used only when the processing order is the
        identity — under a permuted order the expansion the cost model
        needs differs from the solver's and it is silently ignored.  A non-matching expansion
        raises, on a memoised full sweep too.

        ``partition`` selects vertex- or edge-balanced warp assignment
        for the cost model (see
        :func:`~repro.gpusim.costmodel.charge_sweep`); an unknown one
        raises on every call.
        """
        if active is not None:
            return self._price_sweep(active, all_shared, subgraph, expansion, partition)
        key = (
            None if subgraph is None else subgraph.fingerprint(),
            all_shared,
            partition,
        )
        cost = self._full_costs.get(key)
        if cost is None:
            cost = self._price_sweep(None, all_shared, subgraph, expansion, partition)
            self._full_costs[key] = cost
            self._memo_miss.inc()
            return cost
        self._usable_expansion(self._order, expansion)  # raises on a mismatch
        self._memo_hit.inc()
        return cost

    def _price_sweep(
        self,
        active: np.ndarray | None,
        all_shared: bool,
        subgraph: CSRGraph | None,
        expansion,
        partition: str,
    ) -> SweepCost:
        """Price one sweep with the cost model (:meth:`price` minus the memo).

        Subclasses that re-map sweeps onto another structure override
        this one method; the full-sweep memo in :meth:`price` then
        covers them too.
        """
        active_ids = self.ordered(active)
        expansion = self._usable_expansion(active_ids, expansion)
        if active is None and self._identity_order:
            active_ids = None  # every node in id order: the gather's shortcut
        return charge_sweep(
            subgraph if subgraph is not None else self.graph,
            self.device,
            active_ids,
            resident_mask=None if all_shared else self.resident_mask,
            all_shared=all_shared,
            expansion=expansion,
            partition=partition,
        )

    def _usable_expansion(self, active_ids: np.ndarray, expansion):
        """``expansion`` if the cost model may use it (checked against
        ``active_ids``), else ``None``."""
        if expansion is None or not self._identity_order:
            return None
        if not np.array_equal(active_ids, expansion.frontier):
            raise SimulationError("expansion does not match the active list")
        return expansion

    def price_batch(self, sweeps) -> list[SweepCost]:
        """The costs of many sweeps from their precomputed expansions.

        ``sweeps`` is a sequence of vertex-partitioned
        :class:`~repro.perf.gather.SweepExpansion` over ``self.graph``,
        one per sweep, each already in processing order.  Returns
        exactly the costs :meth:`price` would return sweep by sweep, by
        two rules:

        * with a non-identity processing order the expansions don't
          match the warp assignment, so every sweep goes through
          :meth:`price`;
        * otherwise the sweeps go to the one vertex pricer,
          :func:`~repro.gpusim.costmodel.charge_vertex_sweeps`, in
          chunks of about ``CHUNK_RECORDS`` edge records.  The pricer's
          dominant step is one key sort over every record in the call,
          and chunks that size keep it in cache instead of going
          superlinear.

        An edge-balanced sweep is charged on its own through
        :meth:`charge`.
        """
        if not self._identity_order:
            return [self.price(exp.frontier, expansion=exp) for exp in sweeps]
        costs: list[SweepCost] = []
        chunk: list = []
        records = 0
        last = len(sweeps) - 1
        for k, exp in enumerate(sweeps):
            chunk.append(exp)
            records += exp.epos.size
            if records >= self.CHUNK_RECORDS or k == last:
                costs += charge_vertex_sweeps(
                    self.graph, self.device, chunk, resident_mask=self.resident_mask
                )
                chunk = []
                records = 0
        return costs

    def record(self, costs) -> None:
        """Add priced sweeps to the ledger, in sequence order.

        The one ledger fold: :meth:`charge`, :meth:`charge_batch` and the
        batched lane engine's replay all end here, so the accumulated
        metrics and the ``solve.sweeps`` / ``solve.sim_cycles`` counters
        are bit-identical however the sweeps were priced.
        """
        self.metrics.add_all(costs)
        inc = self._cycle_counter.inc
        for cost in costs:
            # one increment per sweep keeps the counter's float bits
            inc(cost.cycles)
        self._sweep_counter.inc(len(costs))

    def charge(
        self,
        active: np.ndarray | None = None,
        *,
        all_shared: bool = False,
        subgraph: CSRGraph | None = None,
        expansion=None,
        partition: str = "vertex",
    ) -> SweepCost:
        """Price one sweep (:meth:`price`) and add it to the ledger."""
        with obs_trace.span("solve.sweep") as sp:
            cost = self.price(
                active,
                all_shared=all_shared,
                subgraph=subgraph,
                expansion=expansion,
                partition=partition,
            )
            if sp is not None:
                sp.set(
                    cycles=cost.cycles,
                    serial_steps=cost.serial_steps,
                    edge_transactions=cost.edge_transactions,
                    attr_global_transactions=cost.attr_global_transactions,
                    attr_shared_transactions=cost.attr_shared_transactions,
                    atomic_ops=cost.atomic_ops,
                    shared=bool(all_shared),
                )
        self.record((cost,))
        return cost

    def charge_batch(self, sweeps) -> None:
        """Price many sweeps (:meth:`price_batch`) and add them to the ledger.

        The ledger ends up exactly as if :meth:`charge` had been called
        once per sweep in sequence — same per-sweep costs, same
        accumulation order, so the same bit pattern of accumulated float
        cycles.
        """
        if not sweeps:
            return
        with obs_trace.span("solve.sweep_batch", sweeps=len(sweeps)):
            costs = self.price_batch(sweeps)
        self.record(costs)
