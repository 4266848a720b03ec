"""Structural analytics used by the Graffix transforms and the evaluation.

The shared-memory technique (paper §3) keys off per-node *clustering
coefficient*; the divergence technique (§4) keys off the degree
distribution; the renumbering (§2) needs BFS levels; Table 1 reports graph
statistics.  Everything here is vectorized numpy: triangles are counted
by checking each wedge of a degree-oriented edge list against the sorted
edge keys, BFS expands whole frontiers.

Each graph's analytics are computed once per process: the public entry
points memoize on the graph fingerprint in :mod:`repro.cache`'s memory
tier, which the ``analytics.*`` stages use even with caching off, and
return their arrays read-only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..cache import memoize_arrays, memoize_json
from .csr import CSRGraph

__all__ = [
    "clustering_coefficients",
    "coefficients_from_counts",
    "triangle_counts",
    "bfs_levels",
    "bfs_forest_levels",
    "estimate_diameter",
    "degree_histogram",
    "gini_of_degrees",
    "ragged_arange",
    "GraphStats",
    "graph_stats",
]


def clustering_coefficients(graph: CSRGraph) -> np.ndarray:
    """Per-node local clustering coefficient on the undirected view.

    ``cc[v] = triangles(v) / (deg(v) * (deg(v) - 1) / 2)``; nodes of degree
    < 2 get 0.  Derived from :func:`triangle_counts`.

    Memoized on the graph fingerprint (§3 keys the shared-memory transform
    off these coefficients, the knob guidelines reuse them, and they are
    identical across techniques); the array is read-only.
    """
    return memoize_arrays(
        "analytics.clustering_coefficients",
        graph,
        None,
        lambda: coefficients_from_counts(*triangle_counts(graph)),
        pack=lambda cc: {"cc": cc},
        unpack=lambda data: data["cc"],
    )


def triangle_counts(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(triangles, degrees)`` per node of the undirected view, as int64.

    The integer inputs of :func:`coefficients_from_counts`: the §3
    transform updates them after adding edges instead of recounting.
    Each triangle is found once, as a wedge of the edge list oriented by
    (degree, id) whose closing edge is present, and adds one to each of
    its corners.  Memoized on the graph fingerprint; read-only.
    """
    return memoize_arrays(
        "analytics.triangle_counts",
        graph,
        None,
        lambda: _triangle_counts(graph),
        pack=lambda td: {"triangles": td[0], "degrees": td[1]},
        unpack=lambda data: (data["triangles"], data["degrees"]),
    )


#: wedge records checked per block of :func:`_triangle_counts`; bounds the
#: temporary arrays (a few MB) however many wedges the graph has
_WEDGE_BLOCK = 1 << 16


def _triangle_counts(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    und = graph.to_undirected()
    n = und.num_nodes
    deg = np.diff(und.offsets).astype(np.int64)
    # orient every undirected edge from lower to higher (degree, id): each
    # triangle {u, v, w} with u < v < w in that order is then found once,
    # as the wedge u -> v -> w closed by the oriented edge u -> w
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n, dtype=np.int64)
    src = und.edge_sources().astype(np.int64)
    dst = und.indices.astype(np.int64)
    up = rank[src] < rank[dst]
    tail, head = src[up], dst[up]  # still sorted by (tail, head)
    keys = tail * n + head
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=out_off[1:])
    wedges = out_off[head + 1] - out_off[head]  # out(head) per edge
    ends = np.cumsum(wedges)
    triangles = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < tail.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, done + _WEDGE_BLOCK, "right")), lo + 1)
        count = wedges[lo:hi]
        u = np.repeat(tail[lo:hi], count)
        v = np.repeat(head[lo:hi], count)
        w = head[np.repeat(out_off[head[lo:hi]], count) + ragged_arange(count)]
        probe = u * n + w
        at = np.searchsorted(keys, probe)
        at[at == keys.size] = 0
        hit = keys[at] == probe
        triangles += np.bincount(
            np.concatenate([u[hit], v[hit], w[hit]]), minlength=n
        )
        lo = hi
    return triangles, deg


def coefficients_from_counts(triangles: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Clustering coefficients from integer triangle counts and degrees."""
    deg = degrees.astype(np.float64)
    denom = deg * (deg - 1) / 2.0
    cc = np.zeros(triangles.size, dtype=np.float64)
    ok = denom > 0
    cc[ok] = triangles[ok] / denom[ok]
    return np.clip(cc, 0.0, 1.0)


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS level of every node from ``source``; unreachable nodes get -1."""
    # function-local: repro.algorithms imports the transforms, which
    # import this module
    from ..algorithms.common import check_source

    n = graph.num_nodes
    source = check_source(source, n)
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    offsets, indices = graph.offsets, graph.indices
    while frontier.size:
        depth += 1
        starts = offsets[frontier]
        degs = offsets[frontier + 1] - starts
        total = int(degs.sum())
        if total == 0:
            break
        flat = indices[
            np.repeat(starts, degs) + ragged_arange(degs)
        ]
        nxt = np.unique(flat)
        nxt = nxt[level[nxt] < 0]
        if nxt.size == 0:
            break
        level[nxt] = depth
        frontier = nxt
    return level


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts: [0..c0-1, 0..c1-1, ...]."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    ends = np.cumsum(counts)[:-1]
    # wherever a later segment starts, jump back to 0; a marker lands at
    # position `ends[i]` only when segment i is non-empty (the reset size
    # is then segment i's length) and some positions remain after it
    # (trailing empty segments would index one past the end).
    mark = (counts[:-1] > 0) & (ends < total)
    out[ends[mark]] = 1 - counts[:-1][mark]
    return np.cumsum(out)


def bfs_forest_levels(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS forest levels per the Graffix renumbering (§2.2).

    Sources are chosen in decreasing out-degree order among unvisited
    nodes; later BFS traversals may *lower* the level of already-visited
    nodes ("the levels of the visited nodes are updated to a lower value,
    if possible").  Returns ``(levels, roots)`` where ``roots`` lists the
    BFS source nodes in the order used.

    Invariant (relied on by :func:`repro.core.renumber.renumber`, which
    numbers the level-0 block in decreasing-degree order): ``roots`` is
    exactly the set of level-0 nodes — every node that starts its own
    tree, including isolated nodes, appears in ``roots``, and BFS never
    assigns level 0 to a non-root (frontier expansion writes depths
    >= 1, and an existing root cannot be lowered below 0).

    Memoized on the graph fingerprint (the renumbering recomputes the
    same forest for every technique that includes coalescing); both
    arrays are read-only.
    """
    return memoize_arrays(
        "analytics.bfs_forest_levels",
        graph,
        None,
        lambda: _bfs_forest_levels(graph),
        pack=lambda lr: {"levels": lr[0], "roots": lr[1]},
        unpack=lambda data: (data["levels"], data["roots"]),
    )


def _bfs_forest_levels(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    n = graph.num_nodes
    level = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    order = np.argsort(-graph.out_degrees(), kind="stable")
    roots: list[int] = []
    maxint = np.iinfo(np.int64).max
    offsets, indices = graph.offsets, graph.indices
    for s in order:
        if level[s] != maxint:
            continue
        roots.append(int(s))
        level[s] = 0
        frontier = np.array([s], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            starts = offsets[frontier]
            degs = offsets[frontier + 1] - starts
            if int(degs.sum()) == 0:
                break
            flat = indices[np.repeat(starts, degs) + ragged_arange(degs)]
            nxt = np.unique(flat)
            nxt = nxt[level[nxt] > depth]  # visit fresh or improvable nodes
            if nxt.size == 0:
                break
            level[nxt] = depth
            frontier = nxt
    # Isolated leftovers become their own roots.  The scan above visits
    # every node, so nothing should be left unassigned — but if a node
    # ever were, silently giving it level 0 *without* listing it as a
    # root would break the documented roots == level-0-nodes invariant,
    # so the leftover handling appends to roots too.
    leftover = np.nonzero(level == maxint)[0]
    if leftover.size:  # pragma: no cover - defensive; order covers all nodes
        level[leftover] = 0
        roots.extend(int(s) for s in leftover)
    return level, np.asarray(roots, dtype=np.int64)


def estimate_diameter(graph: CSRGraph, *, num_probes: int = 4, seed: int = 0) -> int:
    """Lower-bound diameter estimate by double-sweep BFS from random probes.

    Used to pick the shared-memory iteration count ``t ~ 2 x diameter`` and
    to report Table-1 style statistics.  Operates on the undirected view so
    weakly-connected graphs still get a finite estimate.

    Memoized on ``(graph, num_probes, seed)`` — the double-sweep BFS
    probes dominate ``graph_stats`` time.
    """
    return memoize_json(
        "analytics.estimate_diameter",
        graph,
        {"num_probes": num_probes, "seed": seed},
        lambda: _estimate_diameter(graph, num_probes=num_probes, seed=seed),
        to_jsonable=int,
        from_jsonable=int,
    )


def _estimate_diameter(graph: CSRGraph, *, num_probes: int, seed: int) -> int:
    und = graph.to_undirected()
    n = und.num_nodes
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(num_probes):
        start = int(rng.integers(0, n))
        lv = bfs_levels(und, start)
        reach = lv >= 0
        if not reach.any():
            continue
        far = int(np.argmax(np.where(reach, lv, -1)))
        lv2 = bfs_levels(und, far)
        best = max(best, int(lv2.max()))
    return best


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of nodes with out-degree ``d``."""
    return np.bincount(graph.out_degrees())


def gini_of_degrees(graph: CSRGraph) -> float:
    """Gini coefficient of the out-degree distribution.

    A scalar skewness summary: ~0 for road networks (uniform degrees),
    > 0.5 for power-law graphs.  Used in the threshold guidelines.
    """
    d = np.sort(graph.out_degrees().astype(np.float64))
    n = d.size
    if n == 0 or d.sum() == 0:
        return 0.0
    cum = np.cumsum(d)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


@dataclass(frozen=True)
class GraphStats:
    """Table-1 style summary of a graph."""

    num_nodes: int
    num_edges: int
    mean_degree: float
    max_degree: int
    degree_gini: float
    mean_clustering: float
    diameter_estimate: int


def graph_stats(graph: CSRGraph, *, diameter_probes: int = 2) -> GraphStats:
    """Compute the summary row reported in the Table 1 reproduction.

    Memoized on ``(graph, diameter_probes)``; on the disk tier the record
    rides in the metadata sidecar, no array payload.
    """
    return memoize_json(
        "analytics.graph_stats",
        graph,
        {"diameter_probes": diameter_probes},
        lambda: _graph_stats(graph, diameter_probes=diameter_probes),
        to_jsonable=asdict,
        from_jsonable=lambda d: GraphStats(**d),
    )


def _graph_stats(graph: CSRGraph, *, diameter_probes: int) -> GraphStats:
    degs = graph.out_degrees()
    cc = clustering_coefficients(graph)
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        mean_degree=float(degs.mean()) if degs.size else 0.0,
        max_degree=int(degs.max()) if degs.size else 0,
        degree_gini=gini_of_degrees(graph),
        mean_clustering=float(cc.mean()) if cc.size else 0.0,
        diameter_estimate=estimate_diameter(graph, num_probes=diameter_probes),
    )
