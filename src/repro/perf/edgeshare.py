"""Flat edge arrays shared across Runners by graph fingerprint.

Every :class:`~repro.algorithms.common.Runner` needs the graph's edges
in flat COO-ish form (``src``/``dst``/``weights``/``out_deg``) for
vectorized relaxation.  A harness sweep builds one Runner per
(algorithm × source) on the *same* graph, and each used to rebuild these
arrays from scratch — an O(E) ``edge_sources().astype`` plus weight and
degree copies per run.  :func:`shared_edge_view` memoizes the views in a
small LRU keyed on the graph's content fingerprint, so rebuilding
happens once per distinct graph per process.

The arrays are read-only by convention (like :class:`CSRGraph` itself);
nothing in the solvers writes to an :class:`EdgeView`.  Hits and misses
are counted on ``perf.edgeview.{hit,miss}``.

:class:`PullEdgeView` is the bottom-up companion used by schedules that
pick ``direction="pull"`` (:mod:`repro.perf.schedule`): the reverse-CSR
view of the graph plus the flat edge arrays in *pull order* (sorted by
destination, then source) and the permutation mapping each pull record
back to its forward edge id.  Building it costs one lexsort, so each
:class:`EdgeView` builds its pull view on first read of
:attr:`EdgeView.pull` and keeps it: the one cache is the edge-view LRU.
"""

from __future__ import annotations

import numpy as np

from ..cache.lru import LRUCache
from ..graphs.csr import CSRGraph

__all__ = [
    "EdgeView",
    "PullEdgeView",
    "shared_edge_view",
    "edge_view_cache",
]


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


#: distinct graphs whose views stay resident; a table sweep touches a
#: handful of graphs × techniques, so a small bound is plenty
EDGE_VIEW_CACHE_SIZE = 32

_views = LRUCache(EDGE_VIEW_CACHE_SIZE, metric_prefix="perf.edgeview")


def edge_view_cache() -> LRUCache:
    """The process-wide EdgeView cache (exposed for tests/inspection)."""
    return _views


def shared_edge_view(graph: CSRGraph) -> EdgeView:
    """The memoized :class:`EdgeView` of ``graph``.

    Keyed on :meth:`CSRGraph.fingerprint` — content, not identity — so
    two equal graphs (e.g. a cached plan rebuilt from disk) share one
    view, and a reused ``id()`` can never alias a different graph.
    """
    key = graph.fingerprint()
    view = _views.get(key)
    if view is None:
        view = EdgeView(graph)
        _views.put(key, view)
    return view
