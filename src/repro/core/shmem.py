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
        directed arcs added to the CSR (each linked sibling pair
        contributes two).
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


def _link(adj: list[set[int]], tri: list[int], a: int, b: int) -> None:
    """Link the new undirected pair ``(a, b)`` and add the triangles it
    closes (its ends' common neighbours) to ``tri``: a triangle with
    several new sides counts once, when its last side is linked."""
    common = adj[a] & adj[b]
    for c in common:
        tri[c] += 1
    tri[a] += len(common)
    tri[b] += len(common)
    adj[a].add(b)
    adj[b].add(a)


def _open_pairs(adj: list[set[int]], nbrs: list[int]):
    """Yield ``(a, mid, b)`` for each unlinked pair of ``nbrs``, in order,
    with a common neighbour (``mid``, the smallest); ``adj`` is read live,
    so a pair the caller links between yields counts as linked."""
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if b in adj[a]:
                continue
            common = adj[a] & adj[b]
            if common:
                yield a, min(common), b


def _hop_weights(graph: CSRGraph, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per hop ``x[i] - y[i]``: the lightest ``x -> y`` arc of ``graph``,
    else the lightest ``y -> x`` arc, else 1.

    Each arc ``u -> v`` has the key ``u * n + v``; sorted by key, then by
    weight, the first arc of a key is its lightest, and one binary search
    per hop finds it: O((E + H) log E) time and three E-sized arrays,
    whatever the degrees of the hop endpoints.
    """
    n = graph.num_nodes
    key = graph.edge_sources().astype(np.int64)
    key *= n
    key += graph.indices
    order = np.lexsort((graph.weights, key))
    key = key[order]
    out = np.ones(x.size)
    for s, d in ((y, x), (x, y)):  # the forward arcs, written last, win
        want = s * n + d
        at = np.searchsorted(key, want)
        hit = at < key.size
        hit[hit] = key[at[hit]] == want[hit]
        out[hit] = graph.weights[order[at[hit]]]
    return out


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
    # the boost loop edits its own copies; the memoized counts stay shared
    cc = coefficients_from_counts(triangles, degrees)
    tri = triangles.tolist()
    budget = int(knobs.edge_budget_fraction * graph.num_edges)
    adj = _undirected_adjacency(graph)
    # (a, mid, b) per linked pair; each is two directed arcs
    paths: list[tuple[int, int, int]] = []

    def link(a: int, mid: int, b: int) -> None:
        _link(adj, tri, a, b)
        paths.append((a, mid, b))

    lo = max(0.0, knobs.cc_threshold - knobs.boost_band)

    # ---- case 1: boost near-threshold nodes over the bar -------------------
    boost_order = np.argsort(-cc)
    for v in boost_order:
        if 2 * len(paths) >= budget:
            break
        v = int(v)
        if not (lo <= cc[v] < knobs.cc_threshold):
            continue
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        nbrs = sorted(adj[v])
        d = len(nbrs)
        # candidate pairs: neighbours of v sharing a common neighbour, not
        # yet adjacent ("preferentially between those neighbors ... that
        # have common neighbors")
        for a, mid, b in _open_pairs(adj, nbrs):
            link(a, mid, b)
            # each linked pair links two of v's neighbours: tri[v] is v's
            # sibling-link count
            cc[v] = 2.0 * tri[v] / (d * (d - 1))
            if cc[v] >= knobs.cc_threshold or 2 * len(paths) >= budget:
                break

    # ---- case 2: thicken already-high clusters ------------------------------
    high = np.nonzero(cc >= knobs.cc_threshold)[0]
    for v in high[np.argsort(-cc[high])]:
        if 2 * len(paths) >= budget:
            break
        v = int(v)
        if degrees[v] < 2 or degrees[v] > _MAX_ANALYZED_DEGREE:
            continue
        # siblings with the fewest edges to the other siblings first
        sibs = adj[v]
        order = sorted(sibs, key=lambda a: (len(adj[a] & sibs), a))
        # connect the two least-connected siblings that are a 2-hop pair;
        # one new edge per high-CC node keeps the budget spread
        path = next(_open_pairs(adj, order), None)
        if path is not None:
            link(*path)

    # ---- rebuild graph with the new (bidirectional) edges -------------------
    if paths:
        a, mid, b = np.array(paths, dtype=np.int64).T
        src = np.concatenate([graph.edge_sources(), np.column_stack([a, b]).ravel()])
        dst = np.concatenate([graph.indices, np.column_stack([b, a]).ravel()])
        w = None
        if graph.is_weighted:
            # §3 gives no weight rule for its added edges (§4's sum rule is
            # specific to the divergence transform, and the paper itself
            # calls the choice "often fuzzy").  We use the mean of the two
            # hop weights: the new sibling edge then genuinely perturbs
            # weighted algorithms (it can undercut the 2-hop path), which is
            # the source of this technique's higher measured inaccuracy.  A
            # hop over an edge the transform linked earlier weighs 1.
            x, y = np.concatenate([a, mid]), np.concatenate([mid, b])
            hop = _hop_weights(graph, x, y)
            mean = (hop[: a.size] + hop[a.size :]) / 2.0
            w = np.concatenate([graph.weights, np.repeat(mean, 2)])
        # no dedup: a linked pair was unlinked in the undirected view, so
        # its arcs collide with no input arc and no other added arc, and
        # the input's own parallel arcs stay
        out_graph = CSRGraph.from_edges(n, src, dst, w)
        added = 2 * len(paths)
    else:
        out_graph = graph
        added = 0

    # ---- pick clusters under the shared-memory capacity ---------------------
    # adj and tri now describe the output's undirected view: no recount
    final_degrees = np.fromiter(map(len, adj), dtype=np.int64, count=n)
    final_cc = coefficients_from_counts(np.array(tri, dtype=np.int64), final_degrees)
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
        out_graph.weights[mask] if graph.is_weighted else None,
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
