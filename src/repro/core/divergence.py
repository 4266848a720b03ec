"""§4: reducing thread divergence by degree bucketing + edge padding.

Full degree-sorting "is often an overkill, since having nearly-uniform
degrees only within each warp often suffices" — so Graffix bucket-sorts
nodes by degree, assigns buckets to warps in order, and then *pads* the
degree of deficient warp-nodes by adding edges to their 2-hop neighbours:

* a node qualifies for padding when its deficit
  ``degreeSim = 1 − deg / warpMaxDeg`` is positive but at most the
  threshold knob (it is "deficient but close");
* padded nodes are raised to ``target_fraction`` (85 %) of the warp max;
* new edges target 2-hop neighbours ("the information propagated to their
  2-hop neighbors is useful for the next iterations"), with weight =
  sum of the two hop weights for weighted graphs.

The result carries both the transformed graph and the bucket-sorted
*processing order* the simulator must use for warp formation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..perf.gather import expand_rows
from .knobs import DivergenceKnobs

__all__ = ["DivergencePlan", "bucket_order", "normalize_degrees", "degree_sim"]

# 2-hop records gathered per block of padded nodes: one pass over every
# node would hold all of a dense graph's 2-hop records at once
_BLOCK_RECORDS = 65_536


@dataclass
class DivergencePlan:
    """Outcome of the §4 transform.

    Attributes
    ----------
    graph:
        the graph with padding edges added.
    order:
        node ids in bucket-sorted processing order (feed this to
        :class:`~repro.gpusim.kernel.ExecutionContext`).
    edges_added:
        total padding edges inserted (the approximation volume).
    padded_nodes:
        ids of nodes that received padding edges.
    """

    graph: CSRGraph
    order: np.ndarray
    edges_added: int
    padded_nodes: np.ndarray


def bucket_order(graph: CSRGraph, bucket_count: int) -> np.ndarray:
    """Bucket-sort node ids by out-degree.

    Buckets are degree quantiles; inside a bucket the original id order is
    kept (a bucket sort, not a full sort — the paper is explicit that full
    degree sorting is unnecessary).
    """
    if bucket_count < 1:
        raise TransformError("bucket_count must be >= 1")
    degs = graph.out_degrees()
    if degs.size == 0:
        return np.empty(0, dtype=np.int64)
    qs = np.quantile(degs, np.linspace(0, 1, bucket_count + 1)[1:-1])
    bucket = np.searchsorted(qs, degs, side="right")
    return np.argsort(bucket, kind="stable").astype(np.int64)


def degree_sim(degrees: np.ndarray, warp_size: int) -> np.ndarray:
    """Per-node ``degreeSim`` under a given warp partition of the order.

    ``degrees`` must already be in processing order; returns the paper's
    ``1 - deg / warpMaxDeg`` for each position.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if degrees.size == 0:
        return degrees.copy()
    starts = np.arange(0, degrees.size, warp_size)
    warp_max = np.maximum.reduceat(degrees, starts)
    per_node_max = np.repeat(
        warp_max, np.diff(np.append(starts, degrees.size))
    )
    out = np.zeros_like(degrees)
    nz = per_node_max > 0
    out[nz] = 1.0 - degrees[nz] / per_node_max[nz]
    return out


def normalize_degrees(
    graph: CSRGraph,
    knobs: DivergenceKnobs | None = None,
    device: DeviceConfig = K40C,
) -> DivergencePlan:
    """Apply the §4 transform: bucket order + degree padding edges."""
    knobs = knobs or DivergenceKnobs()
    n = graph.num_nodes
    if n == 0:
        raise TransformError("cannot normalize degrees of an empty graph")

    order = bucket_order(graph, knobs.bucket_count)
    degs = graph.out_degrees().astype(np.int64)
    sim = degree_sim(degs[order], device.warp_size)

    starts = np.arange(0, n, device.warp_size)
    warp_max = np.maximum.reduceat(degs[order].astype(np.float64), starts)
    per_pos_max = np.repeat(warp_max, np.diff(np.append(starts, n)))

    # deficient-but-close nodes: 0 < degreeSim <= threshold, in position order
    pad = np.nonzero((sim > 0) & (sim <= knobs.degree_sim_threshold))[0]
    need = np.ceil(knobs.target_fraction * per_pos_max[pad]).astype(np.int64)
    need -= degs[order[pad]]
    nodes, need = order[pad][need > 0], need[need > 0]

    # each node's 2-hop record count (its neighbours' degrees summed); the
    # pass runs over blocks of nodes starting every _BLOCK_RECORDS records
    offsets, indices, weights = graph.offsets, graph.indices, graph.weights
    hops = np.concatenate([[0], np.cumsum(degs[indices])])
    records = hops[offsets[nodes + 1]] - hops[offsets[nodes]]
    cuts = np.flatnonzero(
        np.diff((np.cumsum(records) - records) // _BLOCK_RECORDS, prepend=-1)
    )
    new_src, new_dst, new_w = [], [], []
    for a, b in zip(cuts, np.append(cuts[1:], nodes.size)):
        block = nodes[a:b]
        hop1 = expand_rows(offsets, indices, block)
        hop2 = expand_rows(offsets, indices, hop1.e_dst)
        node1 = np.repeat(np.arange(block.size), hop1.degs)
        node2 = np.repeat(node1, hop2.degs)
        # padding may only *add* information: never duplicate an existing
        # edge of v, never target v itself
        keys = node2 * n + hop2.e_dst
        ok = ~np.isin(keys, node1 * n + hop1.e_dst) & (hop2.e_dst != block[node2])
        # first occurrence of each candidate in adjacency order, then the
        # node's first ``need`` of them
        _, first = np.unique(keys[ok], return_index=True)
        take = np.flatnonzero(ok)[np.sort(first)]
        owner = node2[take]
        rank = np.arange(take.size) - np.searchsorted(owner, owner)
        take = take[rank < need[a:b][owner]]
        new_src.append(block[node2[take]])
        new_dst.append(hop2.e_dst[take])
        if weights is not None:
            first_w = np.repeat(weights[hop1.epos], hop2.degs)[take]
            new_w.append(first_w + weights[hop2.epos[take]])
    added = np.concatenate(new_src) if new_src else np.empty(0, dtype=np.int64)

    if added.size:
        src = np.concatenate([graph.edge_sources().astype(np.int64), added])
        dst = np.concatenate([graph.indices.astype(np.int64)] + new_dst)
        w = np.concatenate([graph.weights] + new_w) if weights is not None else None
        # NOT dedup=True: the padding edges are already unique and disjoint
        # from v's existing edges, while a global dedup would silently drop
        # pre-existing parallel edges of the *original* graph — making the
        # approximate graph differ from the exact one by more than the
        # padding and falsifying edges_added
        out_graph = CSRGraph.from_edges(n, src, dst, w)
    else:
        out_graph = graph

    return DivergencePlan(
        graph=out_graph,
        order=order,
        edges_added=int(added.size),
        padded_nodes=nodes[np.isin(nodes, added)],
    )
