"""Shared machinery for vertex-centric algorithms on the simulator.

Every algorithm is expressed as a sequence of *sweeps*: honest vectorized
value updates over the plan's graph, each accompanied by a
:meth:`~repro.gpusim.kernel.ExecutionContext.charge` call so the cost
model accounts what the sweep would cost on the modeled GPU.
:meth:`Runner.advance` is the one frontier step behind the sweeps of
SSSP, WCC, BFS, PageRank and the Gunrock kernels: it takes the
schedule's push/pull decision, gathers the edges and charges them.  The
:class:`Runner` centralizes the three Graffix-specific behaviours so the
algorithms stay oblivious to which transform is active:

* **confluence** — replica groups are merged after every sweep (§2.4);
* **cluster iterations** — when a shared-memory plan is active, each
  global sweep is followed by ``t`` local sweeps over the intra-cluster
  edge set, charged at shared-memory rates (§3);
* **processing order** — warp formation follows the plan's order (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from ..core.confluence import merge_replicas
from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError, SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..gpusim.kernel import ExecutionContext
from ..gpusim.metrics import SimMetrics
from ..perf.edgeshare import EdgeView, shared_edge_view
from ..perf.gather import expand_frontier
from ..perf.schedule import Schedule, SweepDecision, schedule_for

__all__ = [
    "Advance",
    "AlgorithmResult",
    "Runner",
    "EdgeView",
    "check_source",
    "plan_for",
    "MAX_ITERATIONS",
]

#: safety valve for fixed-point loops (approximation can in principle
#: oscillate under mean-confluence; real deployments bound iterations too)
MAX_ITERATIONS = 10_000


@dataclass
class AlgorithmResult:
    """Values + cost of one simulated algorithm execution.

    ``values`` is in *original* node space (the runner lowers slot-space
    results); ``aux`` carries algorithm-specific extras (e.g. SCC labels,
    MST edge list).
    """

    values: np.ndarray
    metrics: SimMetrics
    iterations: int
    aux: dict[str, object] | None = None

    @property
    def cycles(self) -> float:
        return self.metrics.cycles

    @property
    def seconds(self) -> float:
        return self.metrics.seconds


def plan_for(graph_or_plan: CSRGraph | ExecutionPlan) -> ExecutionPlan:
    """Coerce a raw graph into an exact (identity) execution plan."""
    if isinstance(graph_or_plan, ExecutionPlan):
        return graph_or_plan
    return ExecutionPlan(
        technique="exact", graph=graph_or_plan, num_original=graph_or_plan.num_nodes
    )


def check_source(source, n: int) -> int:
    """``source`` as a node id in ``[0, n)``, or :class:`AlgorithmError`.

    Python and numpy integers pass; bools (which numpy would read as a
    mask), floats and strings do not, even when they name a valid id.
    """
    # bool is an Integral subclass; numpy's bool_ is not Integral at all
    if isinstance(source, bool) or not isinstance(source, Integral):
        raise AlgorithmError(f"source {source!r} is not an integer node id")
    if not 0 <= source < n:
        raise AlgorithmError(f"source {source} out of range for n={n}")
    return int(source)


class Advance:
    """One :meth:`Runner.advance`: the schedule's decision and the edges.

    ``src``, ``dst`` and ``eid`` are parallel arrays naming every
    gathered edge record by its forward source, forward destination and
    forward edge id (its position in the plan graph's CSR arrays, so
    ``weights[eid]`` is its weight).  ``decision`` is ``None`` when no
    schedule is installed.
    """

    __slots__ = ("decision", "src", "dst", "_eid")

    def __init__(
        self,
        decision: SweepDecision | None,
        src: np.ndarray,
        dst: np.ndarray,
        eid: np.ndarray | Callable[[], np.ndarray],
    ) -> None:
        self.decision = decision
        self.src = src
        self.dst = dst
        # a callable builds the ids on first use: most callers never
        # read them, and building them costs a pass over the records
        self._eid = eid

    @property
    def pull(self) -> bool:
        """Whether the step gathered over the reverse view."""
        return self.decision is not None and self.decision.direction == "pull"

    @property
    def eid(self) -> np.ndarray:
        if callable(self._eid):
            self._eid = self._eid()
        return self._eid


class Runner:
    """Drives sweeps over an :class:`ExecutionPlan` with cost accounting."""

    def __init__(self, plan: ExecutionPlan, device: DeviceConfig = K40C) -> None:
        self.plan = plan
        self.device = device
        self.ctx = ExecutionContext(
            plan.graph,
            device,
            order=plan.order,
            resident_mask=plan.resident_mask,
        )
        # flat edge arrays are shared across Runners on the same graph
        # (a harness sweep builds one Runner per algorithm × source)
        self.edges = shared_edge_view(plan.graph)
        self.cluster_edges = (
            shared_edge_view(plan.cluster_graph)
            if plan.cluster_graph is not None
            else None
        )
        if plan.resident_mask is not None:
            self._resident_nodes = np.nonzero(plan.resident_mask)[0].astype(np.int64)
        else:
            self._resident_nodes = np.empty(0, dtype=np.int64)
        # schedule layer (repro.perf.schedule): installed post-construction
        # via use_schedule() so Runner subclasses keep their signatures
        self.schedule: Schedule | None = None
        self._sched_prev: SweepDecision | None = None

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> SimMetrics:
        return self.ctx.metrics

    def use_schedule(self, schedule) -> "Runner":
        """Install a sweep schedule (name, :class:`Schedule`, or ``None``).

        ``None`` keeps the historical always-push behaviour.  Installing
        resets the hysteresis state, so a reused runner starts each
        solve from the policy's initial direction.  Returns ``self`` for
        chaining (``Runner(plan).use_schedule("pull")``).
        """
        self.schedule = schedule_for(schedule)
        self._sched_prev = None
        return self

    def keep_iterating(self, delta: float, tol: float) -> bool:
        """Whether a residual-driven loop (PageRank-style) should continue.

        The seam the adaptive controller (:mod:`repro.tune`) overrides
        to loosen the effective tolerance under its error budget; the
        base runner preserves the historical ``delta > tol`` check
        bit-for-bit.
        """
        return bool(delta > tol)

    def check_level(self) -> None:
        """Called at the start of every :meth:`advance` (so every
        :meth:`sweep`, BFS level and PageRank iteration) and once per
        level by BC, which drives its own lane-stacked levels; a no-op
        here, the seam where :class:`~repro.serve.deadline.DeadlineRunner`
        checks its request deadline."""

    def advance(
        self,
        frontier: np.ndarray | None,
        *,
        candidates: np.ndarray | None = None,
        unexplored_edges: int | None = None,
    ) -> Advance:
        """One frontier step: schedule decision, edge expansion, charge.

        Gunrock's advance primitive.  ``frontier`` (id array or mask) is
        the set of active sources; ``None`` is the full sweep over every
        node.  The installed schedule (:meth:`use_schedule`) decides the
        direction and partition through
        :meth:`~repro.perf.schedule.Schedule.step`, with
        ``unexplored_edges`` as Beamer's remaining-edge count when the
        caller tracks it; with no schedule the step pushes and the
        schedule is not consulted.

        * **push** expands the frontier's out-edges (every edge for the
          full sweep) and charges exactly that gather;
        * **pull** with ``candidates`` (id array or mask) gathers the
          candidates' in-edges from the reverse view and charges that
          gather (:meth:`pull_gather`) — BFS's bottom-up step, where
          unvisited nodes look for a parent;
        * **pull** without ``candidates`` scans the whole reverse view
          and keeps the records whose source is in the frontier (all of
          them for the full sweep); the charge is the full reverse scan
          a bottom-up kernel testing frontier membership performs.

        Returns an :class:`Advance`: the decision and the gathered
        records as forward ``(src, dst, eid)`` edges, in the order the
        executed direction reads them — CSR edge order per frontier node
        for push, pull order (destination, then source) for pull.
        Duplicate frontier ids are gathered once; an id outside
        ``[0, num_nodes)`` or a mask whose length is not ``num_nodes``
        raises :class:`~repro.errors.SimulationError`.
        """
        self.check_level()
        g = self.plan.graph
        if frontier is not None:
            frontier = self._node_ids(frontier)
        decision = None
        if self.schedule is not None:
            # the previous decision is threaded per runner, so one shared
            # Schedule can drive concurrent runners (its decide is pure)
            decision = self._sched_prev = self.schedule.step(
                g, frontier, unexplored_edges=unexplored_edges, prev=self._sched_prev
            )
        partition = "vertex" if decision is None else decision.partition
        if decision is None or decision.direction == "push":
            if frontier is None:
                self.ctx.charge(None, partition=partition)
                ev = self.edges
                return Advance(
                    decision,
                    ev.src,
                    ev.dst,
                    lambda: np.arange(ev.dst.size, dtype=np.int64),
                )
            exp = expand_frontier(g.offsets, g.indices, frontier)
            self.ctx.charge(frontier, expansion=exp, partition=partition)
            return Advance(decision, exp.e_src, exp.e_dst, exp.epos)
        if candidates is not None:
            step, charge = self.pull_gather(candidates, decision)
            self.ctx.charge(**charge)
            return step
        pv = self.edges.pull
        self.ctx.charge(None, subgraph=pv.rev, partition=partition)
        if frontier is None:
            return Advance(decision, pv.src, pv.dst, pv.fwd_eid)
        in_frontier = np.zeros(g.num_nodes, dtype=bool)
        in_frontier[frontier] = True
        rec = in_frontier[pv.src]
        return Advance(decision, pv.src[rec], pv.dst[rec], lambda: pv.fwd_eid[rec])

    def pull_gather(
        self, candidates: np.ndarray, decision: SweepDecision
    ) -> tuple[Advance, dict]:
        """The in-edges of ``candidates`` (id array or mask), gathered
        over the reverse view, uncharged.

        Returns the records as an :class:`Advance` (forward ``(src, dst,
        eid)`` edges in pull order) and the :meth:`ExecutionContext.charge
        <repro.gpusim.kernel.ExecutionContext.charge>` keyword arguments
        that price the gather.  :meth:`advance` charges them at once;
        BC's pull lanes log them and charge after both passes.
        """
        pv = self.edges.pull
        cand = self._node_ids(candidates)
        rexp = expand_frontier(pv.rev.offsets, pv.rev.indices, cand)
        charge = {
            "active": cand,
            "subgraph": pv.rev,
            "expansion": rexp,
            "partition": decision.partition,
        }
        # a reverse record runs from the gathering candidate to its
        # in-neighbor: swap back to the forward edge's ends
        step = Advance(
            decision, rexp.e_dst, rexp.e_src, lambda: pv.fwd_eid[rexp.epos]
        )
        return step, charge

    def _node_ids(self, nodes: np.ndarray) -> np.ndarray:
        """A mask or id array as sorted, distinct, in-range int64 ids."""
        ids = np.asarray(nodes)
        n = self.plan.graph.num_nodes
        if ids.dtype == bool:
            if ids.size != n:
                raise SimulationError("frontier mask length must equal num_nodes")
            return np.nonzero(ids)[0].astype(np.int64, copy=False)
        ids = ids.astype(np.int64, copy=False)
        if not (ids[1:] > ids[:-1]).all():
            ids = np.unique(ids)
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise SimulationError("frontier node id out of range")
        return ids

    def confluence(self, values: np.ndarray, operator: str | None = None) -> None:
        """Merge replica values (no-op for plans without replicas)."""
        if self.plan.graffix is not None:
            op = operator or self.plan.confluence_operator
            with obs_trace.span(
                "solve.confluence",
                operator=op,
                replicas=self.plan.graffix.num_replicas,
            ):
                merge_replicas(values, self.plan.graffix, op)
            obs_metrics.counter("solve.confluence_merges").inc()

    def sweep(
        self,
        values: np.ndarray,
        relax: Callable[[EdgeView, np.ndarray], bool],
        *,
        merge: bool = True,
    ) -> bool:
        """One global kernel sweep: advance over every edge, relax, confluence.

        ``relax`` mutates ``values`` in place over the given edge view and
        returns whether anything changed.

        When the installed schedule (:meth:`use_schedule`) picks
        ``direction="pull"``, the relax callback receives the edge
        view's :attr:`~repro.perf.edgeshare.EdgeView.pull` instead — the same
        edge multiset in destination-major order — and :meth:`advance`
        charges the reverse CSR, so the ledger reflects the gather a
        bottom-up kernel performs.  Order-insensitive relaxations
        (scatter-min, per-destination sums) produce byte-identical
        values either way; that equivalence is what
        ``tests/test_perf_schedule.py`` pins.
        """
        step = self.advance(None)
        changed = relax(self.edges.pull if step.pull else self.edges, values)
        if merge:
            self.confluence(values)
        return changed

    def cluster_rounds(
        self,
        values: np.ndarray,
        relax: Callable[[EdgeView, np.ndarray], bool],
    ) -> bool:
        """The §3 local iterations over pinned clusters (if any)."""
        if not self.plan.has_clusters or self.cluster_edges is None:
            return False
        with obs_trace.span(
            "solve.cluster_rounds", local_iterations=self.plan.local_iterations
        ):
            return self._cluster_rounds(values, relax)

    def _cluster_rounds(
        self,
        values: np.ndarray,
        relax: Callable[[EdgeView, np.ndarray], bool],
    ) -> bool:
        changed_any = False
        for _ in range(self.plan.local_iterations):
            self.ctx.charge(
                self._resident_nodes,
                all_shared=True,
                subgraph=self.plan.cluster_graph,
            )
            changed = relax(self.cluster_edges, values)
            self.confluence(values)
            changed_any |= changed
            if not changed:
                break
        return changed_any

    def fixed_point(
        self,
        values: np.ndarray,
        relax: Callable[[EdgeView, np.ndarray], bool],
        *,
        max_iterations: int = MAX_ITERATIONS,
        improvement_atol: float = 0.5,
        improvement_rtol: float = 0.1,
    ) -> int:
        """Iterate global sweep + cluster rounds until convergence.

        Returns the number of global sweeps executed.

        For exact plans (no replicas) convergence is bit-exact: stop when
        a sweep changes nothing — monotone relaxations terminate
        precisely.  The loop trusts the relax callback's returned changed
        flag (the :meth:`sweep` contract), so no per-iteration snapshot
        of the value array is taken; a relax that under-reports change
        would terminate early.

        For plans with replicas, a naive snapshot comparison never
        settles: mean-confluence raises a replica copy each merge, the
        next relax lowers it back, and the gap shrinks only geometrically
        (the copies chase each other forever).  The GPU host loop does not
        see that churn — its ``changed`` flag is set by ``atomicMin``
        improvements, and re-descending toward a value the slot has
        already held is not new work.  We reproduce that by tracking a
        monotone lower envelope (the best value each slot has ever held):
        the loop stops once no slot improves below its envelope by more
        than ``improvement_atol``.  The mean-merge drift left in ``values``
        at that point is exactly the approximation error the paper's
        inaccuracy metric measures.  An improvement only counts when it
        exceeds ``improvement_atol + improvement_rtol * |envelope|`` — the
        epsilon-convergence every float32 GPU kernel applies; the default
        ``improvement_atol`` of 0.5 is half the weight granularity of the
        integer-weighted input suite, and ``improvement_rtol`` of 10 % is
        the convergence epsilon (it bounds, and largely determines, the
        residual drift the inaccuracy metric reports).  Pass zeros to
        demand strict improvement.
        """
        if max_iterations < 1:
            raise AlgorithmError("max_iterations must be >= 1")
        with obs_trace.span(
            "solve.fixed_point",
            technique=self.plan.technique,
            approximate=self.plan.has_replicas,
        ) as sp:
            iterations = self._fixed_point(
                values,
                relax,
                max_iterations=max_iterations,
                improvement_atol=improvement_atol,
                improvement_rtol=improvement_rtol,
            )
        if sp is not None:
            sp.set(
                iterations=iterations,
                sim_cycles=self.metrics.cycles,
                num_sweeps=self.metrics.num_sweeps,
            )
        return iterations

    def _fixed_point(
        self,
        values: np.ndarray,
        relax: Callable[[EdgeView, np.ndarray], bool],
        *,
        max_iterations: int,
        improvement_atol: float,
        improvement_rtol: float,
    ) -> int:
        approximate = self.plan.has_replicas
        envelope = values.copy() if approximate else None
        iterations = 0
        while iterations < max_iterations:
            iterations += 1
            changed = self.sweep(values, relax, merge=False)
            if approximate:
                assert envelope is not None
                margin = improvement_atol + improvement_rtol * np.where(
                    np.isfinite(envelope), np.abs(envelope), 0.0
                )
                improved = values < envelope - margin
                np.minimum(envelope, values, out=envelope)
                self.confluence(values)
                np.minimum(envelope, values, out=envelope)
                if not improved.any():
                    break
            elif not changed:
                # exact plans trust the relax callback's changed flag —
                # no full-array snapshot/compare per iteration (monotone
                # relaxations report change exactly)
                break
            self.cluster_rounds(values, relax)
        return iterations
