"""§3: reducing memory latency via clustering-coefficient-guided shared memory.

Nodes with high clustering coefficient sit in well-connected clusters that
iterative algorithms revisit constantly; Graffix pins such nodes *and
their 1-hop neighbours* into shared memory and iterates each pinned
subgraph locally for ``t ~ 2 x subgraph diameter`` rounds before pushing
attributes back to global memory.

Approximation enters through edge addition, in two regimes:

1. nodes whose CC is *just below* the threshold get edges between 2-hop
   neighbour pairs that already share a common neighbour, lifting the CC
   over the bar so the cluster qualifies;
2. nodes already above the threshold get edges between their least
   inter-connected sibling pairs, thickening the cluster.

A global edge budget caps the total approximation (§3: "we maintain a
global limit for the number of edges added").

The coefficients of the output are not recounted: the transform adds
the triangles its new edges close to the input's memoized integer
counts (:func:`~repro.graphs.properties.triangle_counts`), so they are
bit-identical to a full recount at a fraction of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..graphs.properties import coefficients_from_counts, triangle_counts
from ..gpusim.device import DeviceConfig, K40C
from .knobs import SharedMemoryKnobs

__all__ = ["SharedMemoryPlan", "plan_shared_memory"]

# hubs with enormous degree never have high CC and would make the pairwise
# sibling analysis quadratic; skip them outright.
_MAX_ANALYZED_DEGREE = 64


@dataclass
class SharedMemoryPlan:
    """Outcome of the §3 transform.

    Attributes
    ----------
    graph:
        the graph with approximation edges added.
    resident_mask:
        boolean per node: True if the node is inside some pinned cluster
        (accesses to it are charged shared-memory latency).
    clusters:
        list of node-id arrays; each is one pinned subgraph (a high-CC
        center plus its 1-hop neighbours), sized to fit
        ``device.shared_mem_words``.
    cluster_graph:
        CSR over the same node-id space containing only intra-cluster
        edges — the edge set the local iterations run over.
    local_iterations:
        the ``t`` each cluster iterates inside shared memory.
    edges_added:
        directed arcs actually added to the CSR (each logical sibling
        connection contributes two, minus dedup collisions).
    cc:
        post-transform clustering coefficients (for inspection/tests).
    """

    graph: CSRGraph
    resident_mask: np.ndarray
    clusters: list[np.ndarray]
    cluster_graph: CSRGraph
    local_iterations: int
    edges_added: int
    cc: np.ndarray


def _undirected_adjacency(graph: CSRGraph) -> list[set[int]]:
    """Neighbor sets of the undirected view, for pairwise CC reasoning."""
    und = graph.to_undirected()
    offsets, indices = und.offsets.tolist(), und.indices.tolist()
    return [set(indices[offsets[v] : offsets[v + 1]]) for v in range(und.num_nodes)]


def _add_closed_triangles(
    triangles: np.ndarray, adj: list[set[int]], pairs: list[tuple[int, int]]
) -> None:
    """Add the triangles the new undirected ``pairs`` close, in place.

    ``adj`` is the final adjacency (with every pair in it).  A triangle
    with several new edges is counted once, at the first of them in
    ``pairs`` order.
    """
    rank: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(pairs):
        rank[a, b] = rank[b, a] = i
    corners: list[int] = []
    for i, (a, b) in enumerate(pairs):
        for c in adj[a] & adj[b]:
            if rank.get((a, c), i) < i or rank.get((b, c), i) < i:
                continue  # counted at an earlier new edge of this triangle
            corners.extend((a, b, c))
    if corners:
        triangles += np.bincount(corners, minlength=triangles.size)


def _sibling_links(adj: list[set[int]], v: int) -> int:
    """Edges among ``v``'s neighbours (adj is symmetric, loop-free: each
    linked pair is seen once from either end)."""
    nbrs = adj[v]
    return sum(len(nbrs & adj[a]) for a in nbrs) // 2


def plan_shared_memory(
    graph: CSRGraph,
    knobs: SharedMemoryKnobs | None = None,
    device: DeviceConfig = K40C,
) -> SharedMemoryPlan:
    """Apply the §3 transform and build the shared-memory residency plan."""
    knobs = knobs or SharedMemoryKnobs()
    n = graph.num_nodes
    if n == 0:
        raise TransformError("cannot plan shared memory for an empty graph")

    triangles, degrees = triangle_counts(graph)
    # the boost loop edits its own copy; the memoized counts stay shared
    cc = coefficients_from_counts(triangles, degrees)
    budget = int(knobs.edge_budget_fraction * graph.num_edges)
    adj = _undirected_adjacency(graph)

    new_src: list[int] = []
    new_dst: list[int] = []
    new_w: list[float] = []
    pairs: list[tuple[int, int]] = []
    weighted = graph.is_weighted
    offsets, indices, weights = graph.offsets, graph.indices, graph.weights

    def hop_weight(x: int, y: int) -> float:
        # the lightest x -> y arc of the directed graph, else the lightest
        # y -> x arc, else 1
        for s, d in ((x, y), (y, x)):
            row = slice(offsets[s], offsets[s + 1])
            hit = indices[row] == d
            if hit.any():
                return float(weights[row][hit].min())
        return 1.0

    def path_weight(a: int, mid: int, b: int) -> float:
        # §3 gives no weight rule for its added edges (§4's sum rule is
        # specific to the divergence transform, and the paper itself calls
        # the choice "often fuzzy").  We use the mean of the two hop
        # weights: the new sibling edge then genuinely perturbs weighted
        # algorithms (it can undercut the 2-hop path), which is the source
        # of this technique's higher measured inaccuracy.
        if not weighted:
            return 1.0  # unused: an unweighted output keeps no weights
        return (hop_weight(a, mid) + hop_weight(mid, b)) / 2.0

    def emit(a: int, b: int, weight: float) -> None:
        # one logical (undirected) addition = two directed arcs
        new_src.extend((a, b))
        new_dst.extend((b, a))
        if weighted:
            new_w.extend((weight, weight))
        pairs.append((a, b))
        adj[a].add(b)
        adj[b].add(a)

    added = 0
    lo = max(0.0, knobs.cc_threshold - knobs.boost_band)

    # ---- case 1: boost near-threshold nodes over the bar -------------------
    boost_order = np.argsort(-cc)
    for v in boost_order:
        if added >= budget:
            break
        v = int(v)
        if not (lo <= cc[v] < knobs.cc_threshold):
            continue
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        nbrs = sorted(adj[v])
        # each emitted pair links two of v's neighbours: v's coefficient
        # is tracked from its link count
        links = _sibling_links(adj, v)
        # candidate pairs: neighbours of v sharing a common neighbour, not
        # yet adjacent ("preferentially between those neighbors ... that
        # have common neighbors")
        done = False
        for i, a in enumerate(nbrs):
            if done:
                break
            for b in nbrs[i + 1 :]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                if not common:
                    continue
                mid = min(common)
                emit(a, b, path_weight(a, mid, b))
                added += 2
                links += 1
                cur = 2.0 * links / (len(nbrs) * (len(nbrs) - 1))
                cc[v] = cur
                if cur >= knobs.cc_threshold or added >= budget:
                    done = True
                    break

    # ---- case 2: thicken already-high clusters ------------------------------
    high = np.nonzero(cc >= knobs.cc_threshold)[0]
    for v in high[np.argsort(-cc[high])]:
        if added >= budget:
            break
        v = int(v)
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        nbrs = sorted(adj[v])
        # sibling with fewest edges to the other siblings
        sib_links = {
            a: sum(1 for b in nbrs if b != a and b in adj[a]) for a in nbrs
        }
        order = sorted(nbrs, key=lambda a: (sib_links[a], a))
        # connect the two least-connected siblings if they are a 2-hop pair
        for i, a in enumerate(order):
            if added >= budget:
                break
            for b in order[i + 1 :]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                if not common:
                    continue
                mid = min(common)
                emit(a, b, path_weight(a, mid, b))
                added += 2
                break
            else:
                continue
            break  # one new edge per high-CC node keeps the budget spread

    # ---- rebuild graph with the new (bidirectional) edges -------------------
    if new_src:
        src = np.concatenate(
            [graph.edge_sources().astype(np.int64), np.asarray(new_src, dtype=np.int64)]
        )
        dst = np.concatenate(
            [graph.indices.astype(np.int64), np.asarray(new_dst, dtype=np.int64)]
        )
        w = (
            np.concatenate([graph.weights, np.asarray(new_w)])
            if weighted
            else None
        )
        out_graph = CSRGraph.from_edges(n, src, dst, w, dedup=True)
        # report the *directed* arc delta actually landed in the CSR
        # (dedup may collapse a few collisions with pre-existing arcs)
        added = out_graph.num_edges - graph.num_edges
    else:
        out_graph = graph
        added = 0

    # ---- pick clusters under the shared-memory capacity ---------------------
    # adj is now the output's undirected view: update the input's counts
    # instead of recounting triangles on the output
    final_triangles = triangles.copy()
    _add_closed_triangles(final_triangles, adj, pairs)
    final_degrees = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    final_cc = coefficients_from_counts(final_triangles, final_degrees)
    capacity = device.shared_mem_words
    resident = np.zeros(n, dtype=bool)
    clusters: list[np.ndarray] = []
    for v in np.argsort(-final_cc):
        v = int(v)
        if final_cc[v] < knobs.cc_threshold:
            break
        if resident[v]:
            continue
        members = np.array(sorted(adj[v] | {v}), dtype=np.int64)
        if members.size > capacity:
            continue
        clusters.append(members)
        resident[members] = True

    # intra-cluster edge set (what the local iterations relax over)
    mask = out_graph.subgraph_edge_mask(resident)
    cluster_graph = CSRGraph.from_edges(
        n,
        out_graph.edge_sources()[mask].astype(np.int64),
        out_graph.indices[mask].astype(np.int64),
        out_graph.weights[mask] if weighted else None,
    )

    # each cluster is a center plus 1-hop neighbours: diameter <= 2 on its
    # own, so t ~ iterations_factor * 2 (§3's recommendation)
    t = max(1, int(round(knobs.iterations_factor * 2)))

    return SharedMemoryPlan(
        graph=out_graph,
        resident_mask=resident,
        clusters=clusters,
        cluster_graph=cluster_graph,
        local_iterations=t,
        edges_added=added,
        cc=final_cc,
    )
