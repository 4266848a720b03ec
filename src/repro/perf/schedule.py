"""Sweep schedules: direction and load balance.

GraphIt-style algorithm/schedule decoupling for the sweep-based kernels
(BFS, BC forward/backward, SSSP, PageRank and the Gunrock baselines):
the *algorithm* says what a sweep computes, the *schedule* says how the
simulated kernel executes it.  Each kernel consults its schedule once
per iteration (:meth:`Schedule.step`) and receives a
:class:`SweepDecision` fixing the two choices the cost model charges:

* ``direction`` — ``"push"`` expands the frontier's out-edges (the
  engine's historical behaviour); ``"pull"`` gathers over the reverse
  CSR view (:attr:`repro.perf.edgeshare.EdgeView.pull`), so the cost
  model charges the edges a bottom-up kernel would actually read;
* ``partition`` — ``"vertex"`` assigns one warp lane per active node
  (degree divergence, the classic vertex-balanced kernel),
  ``"edge"`` assigns one lane per edge record (perfectly load-balanced,
  extra per-edge source reads) — see
  :func:`repro.gpusim.costmodel.charge_sweep`.

Schedules never change algorithm *values*: a pull sweep gathers exactly
the push sweep's edge set from the reverse view and (where float
accumulation order matters) reorders it back into global CSR edge order
via the carried forward edge ids, so results stay byte-identical —
``tests/test_perf_schedule.py`` and the ``differential:schedules``
verify oracles hold that in place.  Only the *charges* differ, and they
stay bit-faithful per schedule: a pull sweep charges its actual
gathered (reverse) adjacency, an edge-balanced sweep its actual lane
assignment.

Policies
--------

:class:`FixedPush` is the do-nothing default (identical to passing no
schedule at all).  :class:`Explicit` pins a direction and partition —
what spec strings such as ``"pull"`` or ``"push:edge"`` parse to.  :class:`DirectionOptimizing` is Beamer's classic
direction-optimizing traversal: switch push→pull when the frontier's
out-edges exceed ``unexplored_edges / alpha``, and pull→push when the
frontier shrinks below ``num_nodes / beta`` (α=15, β=18 hysteresis —
the constants from the original BFS paper, which generations of GPU
frameworks inherited).

Decisions are pure functions of the sweep stats plus the *previous*
decision (the hysteresis state) — a ``Schedule`` object itself is
immutable and safe to share across threads and kernels; each kernel
threads its own ``prev`` through the loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = [
    "SweepDecision",
    "Schedule",
    "FixedPush",
    "Explicit",
    "DirectionOptimizing",
    "schedule_for",
    "DIRECTIONS",
    "PARTITIONS",
]

DIRECTIONS = ("push", "pull")
PARTITIONS = ("vertex", "edge")


class SweepDecision:
    """One sweep's resolved (direction, partition) pair.

    Instances are interned: each distinct pair exists once per process,
    so per-sweep decision churn allocates nothing and hysteresis
    comparisons are identity-cheap.
    """

    __slots__ = ("direction", "partition")
    _interned: dict[tuple[str, str], "SweepDecision"] = {}

    def __new__(
        cls, direction: str = "push", partition: str = "vertex"
    ) -> "SweepDecision":
        if direction not in DIRECTIONS:
            raise SimulationError(
                f"unknown direction {direction!r}; choose from {DIRECTIONS}"
            )
        if partition not in PARTITIONS:
            raise SimulationError(
                f"unknown partition {partition!r}; choose from {PARTITIONS}"
            )
        key = (direction, partition)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = super().__new__(cls)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "partition", partition)
        cls._interned[key] = self
        return self

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("SweepDecision is immutable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepDecision({self.direction}, {self.partition})"


class Schedule:
    """Base policy: maps per-sweep frontier stats to a decision.

    ``decide`` is pure — all hysteresis state lives in the ``prev``
    decision the caller threads through its own loop — so one schedule
    instance can drive any number of concurrent kernels.
    """

    def step(
        self,
        graph,
        frontier: np.ndarray | None,
        *,
        frontier_edges: int | None = None,
        unexplored_edges: int | None = None,
        prev: SweepDecision | None = None,
    ) -> SweepDecision:
        """The decision for one sweep of ``frontier`` over ``graph``.

        ``frontier`` is an array of distinct node ids, or ``None`` for
        the full sweep over every node; its size and forward out-edge
        count over ``graph`` (a CSR graph) are the stats :meth:`decide`
        is called with.  A caller that already summed the frontier's
        out-degrees (to maintain ``unexplored_edges``) hands the sum in
        as ``frontier_edges`` and the rows are not summed again.
        :meth:`repro.algorithms.common.Runner.advance` and BC's lanes
        decide through this one call.
        """
        if frontier is None:
            size, fedges = graph.num_nodes, graph.num_edges
        else:
            size = int(frontier.size)
            fedges = frontier_edges
            if fedges is None:
                offsets = graph.offsets
                fedges = int((offsets[frontier + 1] - offsets[frontier]).sum())
        return self.decide(
            frontier_size=size,
            frontier_edges=fedges,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            unexplored_edges=unexplored_edges,
            prev=prev,
        )

    def decide(
        self,
        *,
        frontier_size: int,
        frontier_edges: int,
        num_nodes: int,
        num_edges: int,
        unexplored_edges: int | None = None,
        prev: SweepDecision | None = None,
    ) -> SweepDecision:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FixedPush(Schedule):
    """Always push, vertex-balanced.

    Byte-for-byte the no-schedule behaviour; exists so bench rows and
    differential checks can name the baseline explicitly.
    """

    _DECISION = SweepDecision("push", "vertex")

    def decide(self, **_stats) -> SweepDecision:
        return self._DECISION


class Explicit(Schedule):
    """Pin both choices — the bench/tune building block.

    ``Explicit("pull")`` pins bottom-up sweeps, ``Explicit("push",
    partition="edge")`` pins edge-balanced top-down, etc.  The decision
    is constant, so pinned runs are exactly reproducible row specs.
    """

    def __init__(
        self, direction: str = "push", *, partition: str = "vertex"
    ) -> None:
        self._decision = SweepDecision(direction, partition)

    @property
    def decision(self) -> SweepDecision:
        return self._decision

    def decide(self, **_stats) -> SweepDecision:
        return self._decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Explicit({self._decision!r})"


class DirectionOptimizing(Schedule):
    """Beamer's α/β direction-optimizing policy.

    Top-down (push) until the frontier's out-edges exceed
    ``unexplored_edges / alpha`` — a dense frontier about to touch most
    of the remaining graph — then bottom-up (pull) until the frontier
    shrinks below ``num_nodes / beta``, then push again.  When the
    caller cannot cheaply track ``unexplored_edges`` it defaults to the
    total edge count, which only makes the switch more conservative.
    ``partition`` applies to every sweep either way.
    """

    def __init__(
        self,
        *,
        alpha: float = 15.0,
        beta: float = 18.0,
        partition: str = "vertex",
    ) -> None:
        if alpha <= 0 or beta <= 0:
            raise SimulationError("alpha and beta must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._push = SweepDecision("push", partition)
        self._pull = SweepDecision("pull", partition)

    def decide(
        self,
        *,
        frontier_size: int,
        frontier_edges: int,
        num_nodes: int,
        num_edges: int,
        unexplored_edges: int | None = None,
        prev: SweepDecision | None = None,
    ) -> SweepDecision:
        remaining = num_edges if unexplored_edges is None else unexplored_edges
        if prev is not None and prev.direction == "pull":
            # hysteresis: stay bottom-up until the frontier thins out
            if frontier_size < num_nodes / self.beta:
                return self._push
            return self._pull
        if frontier_edges > remaining / self.alpha:
            return self._pull
        return self._push

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DirectionOptimizing(alpha={self.alpha}, beta={self.beta}, "
            f"partition={self._push.partition!r})"
        )


#: the schedule semantics of passing ``schedule=None`` to a kernel
FIXED_PUSH = FixedPush()


def schedule_for(spec) -> "Schedule | None":
    """Parse a schedule spec (CLI/bench row syntax) into a policy.

    ``None`` and ``"fixed-push"``/``"push"`` mean the default push
    behaviour; ``"pull"`` pins bottom-up sweeps;
    ``"direction-optimizing"`` (aliases ``"do"``, ``"diropt"``) enables
    the α/β policy.  A partition joins with ``:`` — ``"push:edge"`` pins
    edge-balanced partitioning, ``"diropt:edge"`` edge-balanced
    direction optimizing.  A :class:`Schedule` instance passes through
    unchanged.
    """
    if spec is None or isinstance(spec, Schedule):
        return spec
    parts = [p for p in str(spec).strip().lower().split(":") if p]
    if not parts:
        raise SimulationError(f"empty schedule spec {spec!r}")
    head, mods = parts[0], parts[1:]
    partition = "vertex"
    for mod in mods:
        if mod not in PARTITIONS:
            raise SimulationError(
                f"unknown schedule modifier {mod!r} in {spec!r}"
            )
        partition = mod
    if head in ("push", "fixed-push"):
        if partition == "vertex":
            return FIXED_PUSH
        return Explicit("push", partition=partition)
    if head == "pull":
        return Explicit("pull", partition=partition)
    if head in ("direction-optimizing", "diropt", "do"):
        return DirectionOptimizing(partition=partition)
    raise SimulationError(
        f"unknown schedule {spec!r}; use push, pull, or direction-optimizing"
    )
