"""Competitor vertex reorderings, for comparing against Graffix's scheme.

The paper positions its renumbering against the reordering literature
(§6): Reverse Cuthill-McKee ("RCM performs level order traversal such
that nodes at a level are visited in order of their BFS parent's
placement"), RADAR-style degree sorting ("degree-sorting to assign
highly-connected hub vertices consecutive ids"), and the implicit
baseline of leaving the input order alone.  This module implements those
competitors as plain permutations so the reorder-comparison bench can put
all of them through the same cost model.

Every function returns ``new_id`` with ``new_id[old] -> new`` (the same
convention as :func:`repro.graphs.builder.permute`).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .builder import permute, to_scipy
from .csr import CSRGraph

__all__ = [
    "identity_order",
    "random_order",
    "degree_sort_order",
    "rcm_order",
    "bfs_order",
    "apply_reordering",
    "REORDERINGS",
]


def identity_order(graph: CSRGraph) -> np.ndarray:
    """No-op reordering (the input labeling)."""
    return np.arange(graph.num_nodes, dtype=np.int64)


def random_order(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """Uniformly random relabeling (the worst-case locality baseline)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_nodes).astype(np.int64)


def degree_sort_order(graph: CSRGraph, descending: bool = True) -> np.ndarray:
    """RADAR-style degree sort: hubs get consecutive (low) ids.

    Sorting key is the out-degree; ties keep the original id order so the
    permutation is deterministic.
    """
    degs = graph.out_degrees()
    key = -degs if descending else degs
    order = np.argsort(key, kind="stable")  # order[new] = old
    new_id = np.empty(graph.num_nodes, dtype=np.int64)
    new_id[order] = np.arange(graph.num_nodes, dtype=np.int64)
    return new_id


def rcm_order(graph: CSRGraph) -> np.ndarray:
    """Reverse Cuthill-McKee on the symmetrized structure (scipy)."""
    import scipy.sparse.csgraph as csgraph

    und = graph.to_undirected()
    mat = to_scipy(und)
    mat.data[:] = 1.0
    perm = csgraph.reverse_cuthill_mckee(mat.tocsr(), symmetric_mode=True)
    new_id = np.empty(graph.num_nodes, dtype=np.int64)
    new_id[np.asarray(perm, dtype=np.int64)] = np.arange(
        graph.num_nodes, dtype=np.int64
    )
    return new_id


def bfs_order(graph: CSRGraph) -> np.ndarray:
    """Plain BFS-forest order *without* Graffix's chunk alignment or
    round-robin child interleaving — the classic locality renumbering the
    paper argues is "ineffective when applied directly to improve
    coalescing" (§2.2)."""
    from .properties import bfs_forest_levels

    levels, _roots = bfs_forest_levels(graph)
    # stable sort by (level, old id): contiguous levels, no alignment
    order = np.lexsort((np.arange(graph.num_nodes), levels))
    new_id = np.empty(graph.num_nodes, dtype=np.int64)
    new_id[order] = np.arange(graph.num_nodes, dtype=np.int64)
    return new_id


def apply_reordering(graph: CSRGraph, new_id: np.ndarray) -> CSRGraph:
    """Relabel ``graph``; thin alias of :func:`repro.graphs.builder.permute`
    with the validation message framed for reorderings."""
    if np.asarray(new_id).shape != (graph.num_nodes,):
        raise GraphFormatError("reordering must assign every node a new id")
    return permute(graph, new_id)


#: name -> order function(graph) (seedless variants only)
REORDERINGS = {
    "identity": identity_order,
    "degree-sort": degree_sort_order,
    "rcm": rcm_order,
    "bfs": bfs_order,
}
