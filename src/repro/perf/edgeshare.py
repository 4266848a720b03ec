"""Flat edge arrays of one plan's graph, for vectorized relaxation.

Every :class:`~repro.algorithms.common.Runner` needs the graph's edges
in flat COO-ish form (``src``/``dst``/``weights``/``out_deg``) for
vectorized relaxation.  A harness sweep builds one Runner per
(algorithm × source) on the *same* plan, so the plan builds the
:class:`EdgeView` of its graph (and of its cluster graph) on first read
and keeps it (:attr:`repro.core.pipeline.ExecutionPlan.edges`): every
Runner on the plan shares one view, and dropping the plan frees it.

The arrays are read-only by convention (like :class:`CSRGraph` itself);
nothing in the solvers writes to an :class:`EdgeView`.  A view holds
its graph, never the plan that owns it.

:class:`PullEdgeView` is the bottom-up companion used by schedules that
pick ``direction="pull"`` (:mod:`repro.perf.schedule`): the reverse-CSR
view of the graph plus the flat edge arrays in *pull order* (sorted by
destination, then source) and the permutation mapping each pull record
back to its forward edge id.  Building it costs one lexsort, so each
:class:`EdgeView` builds its pull view on first read of
:attr:`EdgeView.pull` and keeps it.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph

__all__ = ["EdgeView", "PullEdgeView"]


class EdgeView:
    """Cached flat edge arrays of a CSR graph for vectorized relaxation."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.src = graph.edge_sources().astype(np.int64)
        self.dst = graph.indices.astype(np.int64)
        self.weights = graph.effective_weights()
        self.out_deg = graph.out_degrees().astype(np.float64)
        self._pull: PullEdgeView | None = None

    @property
    def pull(self) -> "PullEdgeView":
        """The graph's :class:`PullEdgeView`, built on first read.

        Two threads reading it first at once may each build one; the
        views are equal and the last one stays.
        """
        if self._pull is None:
            self._pull = PullEdgeView(self)
        return self._pull


class PullEdgeView:
    """Reverse-CSR view of a graph for bottom-up (pull) sweeps.

    Pull sweeps iterate destinations and gather from their in-neighbors,
    so the records here are the same edges as the forward
    :class:`EdgeView`, re-sorted into **pull order**: destination
    ascending, source ascending within a destination, original storage
    position breaking remaining ties (``np.lexsort`` is stable).  That
    is exactly the record order of ``graph.reverse()``, but built
    manually so the sort permutation survives as :attr:`fwd_eid` — the
    forward edge id of every pull record.  Kernels whose float scatter
    order matters (BC) sort gathered records by ``fwd_eid`` to recover
    the exact global CSR edge order of the push path, which is what
    makes pull results byte-identical to push on *any* graph, including
    ones whose adjacency lists are not neighbor-sorted.

    Built from the forward view, which keeps it (:attr:`EdgeView.pull`);
    it holds no reference back, so dropping the forward view frees both.

    Attributes
    ----------
    rev:
        the reverse graph as a :class:`CSRGraph` — node ``v``'s
        adjacency lists its in-neighbors — handed to
        ``ExecutionContext.charge(..., subgraph=rev)`` so the cost
        model charges the gather a pull kernel actually performs.
    src / dst / weights:
        flat edge arrays in pull order; ``src`` is the forward source
        (the gathered-from neighbor), ``dst`` the forward destination
        (the gathering node, ascending).
    fwd_eid:
        ``int64`` array mapping pull record ``i`` to its forward edge
        position.
    out_deg:
        *forward* out-degrees as ``float64`` (PageRank-style kernels
        divide by the source's out-degree regardless of direction).
    """

    def __init__(self, forward: EdgeView) -> None:
        graph = forward.graph
        self.graph = graph
        fsrc, fdst = forward.src, forward.dst
        # stable lexsort, primary key fdst: identical permutation to the
        # one CSRGraph.from_edges applies inside graph.reverse()
        perm = np.lexsort((fsrc, fdst))
        self.fwd_eid = perm.astype(np.int64, copy=False)
        self.src = fsrc[perm]
        self.dst = fdst[perm]
        self.weights = forward.weights[perm]
        self.out_deg = forward.out_deg
        n = graph.num_nodes
        counts = np.bincount(self.dst, minlength=n)
        offsets = np.zeros(n + 1, dtype=graph.offsets.dtype)
        np.cumsum(counts, out=offsets[1:])
        # already validated via the forward graph; skip the O(E) check
        self.rev = CSRGraph(
            offsets,
            self.src.astype(graph.indices.dtype),
            self.weights,
            validate=False,
        )

