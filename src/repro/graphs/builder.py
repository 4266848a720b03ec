"""Graph conversion utilities and node relabelling.

Converts to and from :mod:`networkx` and :mod:`scipy.sparse` for the
exact reference implementations, and relabels nodes with :func:`permute`.
Both libraries are imported on first use: the commands themselves run on
numpy alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover
    import networkx
    import scipy.sparse as sp

__all__ = [
    "to_scipy",
    "from_scipy",
    "to_networkx",
    "from_networkx",
    "permute",
]


def to_scipy(graph: CSRGraph) -> "sp.csr_matrix":
    """Adjacency matrix of ``graph`` as a scipy CSR matrix.

    Unweighted edges get weight 1.0.  Parallel edges are summed by scipy's
    canonical format, so callers comparing edge counts should dedup first.

    The ``data`` array is a copy, never the graph's own ``weights`` buffer:
    scipy exposes ``data`` mutably (several callers rewrite it in place,
    e.g. ``mat.data[:] = 1.0`` to drop weights), and aliasing would let
    that silently corrupt the immutable-by-convention source graph — and
    invalidate its cached :meth:`~repro.graphs.csr.CSRGraph.fingerprint`.
    """
    import scipy.sparse as sp

    return sp.csr_matrix(
        (graph.effective_weights().copy(), graph.indices, graph.offsets),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def from_scipy(mat: "sp.spmatrix", weighted: bool = True) -> CSRGraph:
    """Build a :class:`CSRGraph` from any scipy sparse matrix."""
    import scipy.sparse as sp

    m = sp.csr_matrix(mat)
    m.sum_duplicates()
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise GraphFormatError("adjacency matrix must be square")
    return CSRGraph(
        m.indptr.astype(np.int64),
        m.indices.astype(np.int32),
        m.data.astype(np.float64) if weighted else None,
    )


def to_networkx(graph: CSRGraph) -> "networkx.DiGraph":
    """Convert to a networkx DiGraph (for the exact reference algorithms)."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    srcs = graph.edge_sources()
    w = graph.effective_weights()
    g.add_weighted_edges_from(
        zip(srcs.tolist(), graph.indices.tolist(), w.tolist())
    )
    return g


def from_networkx(g: "networkx.Graph", weighted: bool = False) -> CSRGraph:
    """Build a :class:`CSRGraph` from a networkx (di)graph.

    Node labels must be integers ``0..n-1``.  Undirected graphs are
    symmetrized (both edge directions emitted).
    """
    import networkx as nx

    n = g.number_of_nodes()
    if set(g.nodes) != set(range(n)):
        raise GraphFormatError("networkx nodes must be labelled 0..n-1")
    src, dst, w = [], [], []
    for u, v, data in g.edges(data=True):
        src.append(u)
        dst.append(v)
        w.append(float(data.get("weight", 1.0)))
    src_a = np.asarray(src, dtype=np.int64)
    dst_a = np.asarray(dst, dtype=np.int64)
    w_a = np.asarray(w, dtype=np.float64)
    if not isinstance(g, nx.DiGraph):
        src_a, dst_a = np.concatenate([src_a, dst_a]), np.concatenate([dst_a, src_a])
        w_a = np.concatenate([w_a, w_a])
    return CSRGraph.from_edges(
        n, src_a, dst_a, w_a if weighted else None, dedup=True
    )


def permute(graph: CSRGraph, new_id: np.ndarray) -> CSRGraph:
    """Relabel nodes: node ``v`` becomes ``new_id[v]``.

    ``new_id`` must be a permutation of ``0..n-1``.  Edge weights follow
    their edges.  This is the exact (approximation-free) part of the
    coalescing transform — the resulting graph is isomorphic to the input.
    """
    new_id = np.asarray(new_id, dtype=np.int64)
    n = graph.num_nodes
    if new_id.size != n:
        raise GraphFormatError("permutation length must equal num_nodes")
    if new_id.size and (new_id.min() < 0 or new_id.max() >= n):
        raise GraphFormatError("new_id must be a permutation of 0..n-1")
    seen = np.zeros(n, dtype=bool)
    seen[new_id] = True
    if not seen.all():
        raise GraphFormatError("new_id must be a permutation of 0..n-1")
    src = new_id[graph.edge_sources()]
    dst = new_id[graph.indices]
    return CSRGraph.from_edges(n, src, dst, graph.weights)
