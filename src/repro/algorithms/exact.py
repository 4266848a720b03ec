"""Independent exact reference implementations (scipy / networkx).

These never touch the simulator; the tests use them to certify that the
simulated kernels compute correct values on untransformed graphs, and the
evaluation harness uses them as the ground truth for the inaccuracy
metrics (equivalently it could use the exact baseline runs — both paths
are tested to agree).  scipy and networkx are imported inside each
oracle, so importing this module (as :mod:`repro.algorithms` does) costs
the commands nothing.
"""

from __future__ import annotations

import numpy as np

from ..graphs.builder import to_networkx, to_scipy
from ..graphs.csr import CSRGraph

__all__ = [
    "exact_sssp",
    "exact_pagerank",
    "exact_bc",
    "exact_scc_count",
    "exact_msf_weight",
]


def exact_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra distances from ``source`` (scipy); ``inf`` if unreachable."""
    import scipy.sparse.csgraph as csgraph

    mat = to_scipy(graph)
    return csgraph.dijkstra(mat, directed=True, indices=source)


def exact_pagerank(
    graph: CSRGraph, *, damping: float = 0.85, tol: float = 1e-12, max_iter: int = 500
) -> np.ndarray:
    """Power-iteration PageRank with uniform dangling redistribution."""
    n = graph.num_nodes
    mat = to_scipy(graph)
    mat.data[:] = 1.0  # PR uses the unweighted structure
    out_deg = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.zeros(n)
    nz = out_deg > 0
    inv[nz] = 1.0 / out_deg[nz]
    # column-stochastic transition on the transpose for push semantics
    mt = mat.T.tocsr()
    pr = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        dangling = damping * pr[~nz].sum() / n
        new = teleport + dangling + damping * (mt @ (pr * inv))
        if np.abs(new - pr).sum() < tol:
            pr = new
            break
        pr = new
    return pr


def exact_bc(graph: CSRGraph, sources: np.ndarray) -> np.ndarray:
    """Brandes BC restricted to the given source sample (pure python).

    Uses networkx's single-source shortest-path machinery per source so it
    is implementation-independent from the simulated kernels.
    """
    g = to_networkx(graph)
    n = graph.num_nodes
    bc = np.zeros(n)
    for s in np.asarray(sources, dtype=np.int64).tolist():
        # unweighted Brandes accumulation from this source
        S: list[int] = []
        pred: dict[int, list[int]] = {v: [] for v in g}
        sigma = dict.fromkeys(g, 0.0)
        dist = dict.fromkeys(g, -1)
        sigma[s] = 1.0
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            S.append(v)
            for w_ in g.successors(v):
                if dist[w_] < 0:
                    dist[w_] = dist[v] + 1
                    queue.append(w_)
                if dist[w_] == dist[v] + 1:
                    sigma[w_] += sigma[v]
                    pred[w_].append(v)
        delta = dict.fromkeys(g, 0.0)
        while S:
            w_ = S.pop()
            for v in pred[w_]:
                delta[v] += sigma[v] / sigma[w_] * (1.0 + delta[w_])
            if w_ != s:
                bc[w_] += delta[w_]
    return bc


def exact_scc_count(graph: CSRGraph) -> int:
    """Number of strongly connected components (scipy Tarjan)."""
    import scipy.sparse.csgraph as csgraph

    mat = to_scipy(graph)
    count, _labels = csgraph.connected_components(
        mat, directed=True, connection="strong"
    )
    return int(count)


def exact_msf_weight(graph: CSRGraph) -> float:
    """Minimum spanning forest weight on the symmetrized min-weight view."""
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    src = graph.edge_sources().astype(np.int64)
    dst = graph.indices.astype(np.int64)
    w = graph.effective_weights()
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * graph.num_nodes + hi
    order = np.lexsort((w, key))
    key, lo, hi, w = key[order], lo[order], hi[order], w[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    lo, hi, w = lo[first], hi[first], w[first]
    n = graph.num_nodes
    mat = sp.csr_matrix((w, (lo, hi)), shape=(n, n))
    tree = csgraph.minimum_spanning_tree(mat)
    return float(tree.sum())
