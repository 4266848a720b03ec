"""A Gunrock-style frontier-operator API on the simulated GPU.

Gunrock's programming model ("operates on frontiers of nodes or edges; a
filtering operation removes inactive items ... followed by application of
user-defined functors to the frontier in parallel", paper §6) reduced to
three primitives over our cost model:

* :meth:`OperatorContext.advance` — expand the frontier's out-edges and
  hand the edge arrays to a user functor, charging one frontier sweep;
* :meth:`OperatorContext.filter_` — compact a candidate mask into the
  next frontier (charged as a source-attribute pass over the candidates);
* :meth:`OperatorContext.compute` — apply a per-node functor to the
  frontier without touching edges.

The functors receive flat numpy arrays, so user code stays vectorized.
``examples``/tests build BFS and SSSP in a few lines each and verify they
match the dedicated implementations value-for-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..algorithms.common import check_source
from ..errors import AlgorithmError, SimulationError
from ..graphs.csr import CSRGraph
from ..gpusim.costmodel import charge_sweep
from ..gpusim.device import DeviceConfig, K40C
from ..gpusim.metrics import SimMetrics
from ..perf.gather import expand_frontier, scatter_min_changed

__all__ = ["Frontier", "OperatorContext", "bfs_operators", "sssp_operators"]


@dataclass(frozen=True)
class Frontier:
    """An ordered set of active node ids."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nodes", np.asarray(self.nodes, dtype=np.int64)
        )

    @classmethod
    def of(cls, *nodes: int) -> "Frontier":
        return cls(np.asarray(nodes, dtype=np.int64))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Frontier":
        return cls(np.nonzero(np.asarray(mask, dtype=bool))[0])

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def __bool__(self) -> bool:
        return self.size > 0

    def __len__(self) -> int:
        return self.size


#: advance functor signature: (e_src, e_dst, e_weight) -> candidate mask
AdvanceFunctor = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class OperatorContext:
    """Binds a graph + device and meters every operator invocation."""

    def __init__(self, graph: CSRGraph, device: DeviceConfig = K40C) -> None:
        self.graph = graph
        self.device = device
        self.metrics = SimMetrics(device=device)
        self._weights = graph.effective_weights()

    # ------------------------------------------------------------------
    def _expand(self, frontier: Frontier):
        g = self.graph
        ids = frontier.nodes
        if ids.size and (ids.min() < 0 or ids.max() >= g.num_nodes):
            raise SimulationError("frontier node id out of range")
        return expand_frontier(g.offsets, g.indices, ids)

    def advance(self, frontier: Frontier, functor: AdvanceFunctor) -> Frontier:
        """Expand the frontier's edges through ``functor``.

        The functor returns a boolean mask over the edge records marking
        destinations that become candidates; the returned frontier is the
        de-duplicated candidate set.  One frontier sweep is charged.
        """
        if not isinstance(frontier, Frontier):
            raise AlgorithmError("advance expects a Frontier")
        exp = self._expand(frontier)
        self.metrics.add(
            charge_sweep(self.graph, self.device, frontier.nodes, expansion=exp)
        )
        e_src, e_dst = exp.e_src, exp.e_dst
        if e_src.size == 0:
            return Frontier(np.empty(0, dtype=np.int64))
        e_w = self._weights[exp.epos]
        mask = np.asarray(functor(e_src, e_dst, e_w), dtype=bool)
        if mask.shape != e_dst.shape:
            raise AlgorithmError(
                "advance functor must return a mask parallel to the edges"
            )
        return Frontier(np.unique(e_dst[mask]))

    def filter_(
        self, frontier: Frontier, predicate: Callable[[np.ndarray], np.ndarray]
    ) -> Frontier:
        """Keep the frontier nodes satisfying ``predicate(ids)``.

        Charged as a coalesced pass over the candidates' own attributes
        (Gunrock's filter is a stream compaction).
        """
        ids = frontier.nodes
        if ids.size == 0:
            return frontier
        cost = charge_sweep(
            _edgeless_view(self.graph.num_nodes), self.device, ids
        )
        self.metrics.add(cost)
        keep = np.asarray(predicate(ids), dtype=bool)
        if keep.shape != ids.shape:
            raise AlgorithmError(
                "filter predicate must return a mask parallel to the frontier"
            )
        return Frontier(ids[keep])

    def compute(
        self, frontier: Frontier, fn: Callable[[np.ndarray], None]
    ) -> None:
        """Apply ``fn(ids)`` to the frontier (no edge expansion)."""
        ids = frontier.nodes
        if ids.size == 0:
            return
        self.metrics.add(
            charge_sweep(_edgeless_view(self.graph.num_nodes), self.device, ids)
        )
        fn(ids)


def _edgeless_view(n: int) -> CSRGraph:
    """A zero-edge graph used to charge node-only passes."""
    return CSRGraph(
        np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int32),
        validate=False,
    )


# ---------------------------------------------------------------------------
# reference algorithms expressed in the operator model
# ---------------------------------------------------------------------------
def bfs_operators(
    graph: CSRGraph, source: int, *, device: DeviceConfig = K40C
) -> tuple[np.ndarray, SimMetrics]:
    """Level-synchronous BFS in advance/filter form."""
    source = check_source(source, graph.num_nodes)
    ctx = OperatorContext(graph, device)
    level = np.full(graph.num_nodes, -1, dtype=np.int64)
    level[source] = 0
    frontier = Frontier.of(source)
    depth = 0
    while frontier:
        def visit(e_src, e_dst, e_w):
            fresh = level[e_dst] < 0
            level[e_dst[fresh]] = depth + 1
            return fresh

        candidates = ctx.advance(frontier, visit)
        frontier = ctx.filter_(
            candidates, lambda ids: level[ids] == depth + 1
        )
        depth += 1
    return level, ctx.metrics


def sssp_operators(
    graph: CSRGraph, source: int, *, device: DeviceConfig = K40C
) -> tuple[np.ndarray, SimMetrics]:
    """Frontier-driven Bellman-Ford in advance/filter form."""
    source = check_source(source, graph.num_nodes)
    ctx = OperatorContext(graph, device)
    dist = np.full(graph.num_nodes, np.inf)
    dist[source] = 0.0
    frontier = Frontier.of(source)
    while frontier:
        improved = np.zeros(graph.num_nodes, dtype=bool)

        def relax(e_src, e_dst, e_w):
            # snapshot only the touched destinations, not all of dist
            cand = dist[e_src] + e_w
            changed_dst = scatter_min_changed(dist, e_dst, cand)
            improved[e_dst[changed_dst]] = True
            return changed_dst

        candidates = ctx.advance(frontier, relax)
        frontier = ctx.filter_(candidates, lambda ids: improved[ids])
    return dist, ctx.metrics
