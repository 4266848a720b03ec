"""Graffix node replication (Algorithm 2, step 2).

After renumbering, the slot array is divided into chunks of ``k``.  A node
``n`` that is *well-connected* to a chunk ``C`` — i.e. ``connectedness =
edges(n -> C) / non_hole_nodes(C)`` reaches the threshold — earns a replica
``n'`` placed in a hole of the chunk at the previous BFS level (``C``'s
parent chunk region).  The replica takes over ``n``'s edges into ``C`` and
gains new edges to its 2-hop neighbours inside ``C`` (this is the
approximation: the new edges speed up propagation at a small accuracy
cost).  When candidates outnumber holes, higher edge-counts win (§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..graphs.properties import ragged_arange
from ..perf.gather import expand_rows
from .knobs import CoalescingKnobs
from .renumber import RenumberResult

__all__ = ["ReplicationResult", "replicate"]


@dataclass(frozen=True)
class ReplicationResult:
    """Outcome of filling renumbering holes with node replicas.

    Attributes
    ----------
    graph:
        the slot-space CSR graph *after* replication (``num_slots`` nodes;
        unfilled holes remain as isolated degree-0 slots).
    rep_of:
        ``rep_of[slot] -> original node id`` (-1 for an unfilled hole).
        Replica slots map to the node they duplicate.
    primary_slot:
        ``primary_slot[orig] -> slot`` of the node's principal copy.
    replicas:
        ``(slot, original)`` pairs for every replica created.
    edges_moved / edges_added:
        bookkeeping for the approximation report: moved edges are exact
        (just re-homed onto the replica); added 2-hop edges are the
        approximation.
    """

    graph: CSRGraph
    rep_of: np.ndarray
    primary_slot: np.ndarray
    replicas: np.ndarray
    edges_moved: int
    edges_added: int


def _slot_edges(
    graph: CSRGraph, ren: RenumberResult
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The graph's edges relabelled into slot space."""
    src = ren.new_id[graph.edge_sources()]
    dst = ren.new_id[graph.indices]
    return src.astype(np.int64), dst.astype(np.int64), graph.weights


def replicate(
    graph: CSRGraph, ren: RenumberResult, knobs: CoalescingKnobs
) -> ReplicationResult:
    """Run ``ReplicateVertex`` on a renumbered graph."""
    if ren.chunk_size != knobs.chunk_size:
        raise TransformError(
            f"renumbering used k={ren.chunk_size} but knobs say k={knobs.chunk_size}"
        )
    k = knobs.chunk_size
    num_slots = ren.num_slots
    # adjacency lists are sorted by *new* id: round-robin children of a
    # parent receive ascending ids in round order, so sorting preserves
    # the step-j alignment the renumbering creates while also keeping the
    # low-segment clustering that sorted CSR inputs give the baseline.
    slot_graph = CSRGraph.from_edges(num_slots, *_slot_edges(graph, ren))
    offsets, indices, w = slot_graph.offsets, slot_graph.indices, slot_graph.weights
    src = slot_graph.edge_sources().astype(np.int64)

    chunk_of = np.arange(num_slots, dtype=np.int64) // k
    num_chunks = num_slots // k
    slot_levels = ren.slot_levels()
    rep_of = ren.rep_of.copy()
    non_hole = rep_of >= 0
    non_hole_per_chunk = np.bincount(
        chunk_of[non_hole], minlength=num_chunks
    ).astype(np.int64)

    # --- group edges by (src slot, destination chunk) ----------------------
    # rows are sorted by destination, so the keys are already sorted and
    # each group is one contiguous slice of its source's row
    edge_key = src * num_chunks + chunk_of[indices]
    uniq_keys, key_starts, key_counts = np.unique(
        edge_key, return_index=True, return_counts=True
    )
    cand_src = (uniq_keys // num_chunks).astype(np.int64)
    cand_chunk = (uniq_keys % num_chunks).astype(np.int64)

    # chunks eligible as replication targets: level >= 1 and their parent
    # level block contains at least one hole
    chunk_level = slot_levels[np.arange(num_chunks) * k]
    holes_by_level: dict[int, list[int]] = {}
    for slot in ren.holes():
        holes_by_level.setdefault(int(slot_levels[slot]), []).append(int(slot))

    denom = non_hole_per_chunk[cand_chunk].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        connectedness = np.where(denom > 0, key_counts / denom, 0.0)
    eligible = (
        (connectedness >= knobs.connectedness_threshold)
        & (chunk_level[cand_chunk] >= 1)
        & non_hole[np.minimum(cand_src, num_slots - 1)]
    )
    # prioritize higher raw edge counts (§2.3), ties by connectedness
    order = np.lexsort((-connectedness, -key_counts))
    order = order[eligible[order]]

    # --- greedy pick: the hole pool and the per-node cap are order-dependent
    replicas_per_node: dict[int, int] = {}
    picks: list[tuple[int, int, int]] = []  # (candidate, hole, original)
    for idx in order:
        lev = int(chunk_level[cand_chunk[idx]])
        pool = holes_by_level.get(lev - 1)
        orig = int(rep_of[cand_src[idx]])
        if not pool or orig < 0:
            continue
        if replicas_per_node.get(orig, 0) >= knobs.max_replicas_per_node:
            continue
        hole = pool.pop(0)
        rep_of[hole] = orig
        replicas_per_node[orig] = replicas_per_node.get(orig, 0) + 1
        picks.append((int(idx), hole, orig))
    pick_idx, holes, origs = np.array(picks, dtype=np.int64).reshape(-1, 3).T
    us, cs = cand_src[pick_idx], cand_chunk[pick_idx]

    # move u's edges into chunk c onto the replica
    moved = np.repeat(key_starts[pick_idx], key_counts[pick_idx])
    moved += ragged_arange(key_counts[pick_idx])
    src[moved] = np.repeat(holes, key_counts[pick_idx])

    # add edges replica -> 2-hop neighbours of u inside chunk c: each
    # direct neighbour's targets in chunk c are one slice of its row
    hop1 = expand_rows(offsets, indices, us)
    pick1 = np.repeat(np.arange(holes.size), hop1.degs)
    mid_key = hop1.e_dst * num_chunks + cs[pick1]
    lo = np.searchsorted(edge_key, mid_key, side="left")
    counts = np.searchsorted(edge_key, mid_key, side="right") - lo
    pos2 = np.repeat(lo, counts) + ragged_arange(counts)
    pick2 = np.repeat(pick1, counts)
    # drop existing direct targets and self references
    keys = pick2 * num_slots + indices[pos2]
    keep = ~np.isin(keys, pick1 * num_slots + hop1.e_dst)
    keep &= indices[pos2] != us[pick2]
    keys = keys[keep]
    if w is not None:
        # keep the minimum-weight path per (replica, target)
        hop_w = (np.repeat(w[hop1.epos], counts) + w[pos2])[keep]
        o2 = np.lexsort((hop_w, keys))
        keys, hop_w = keys[o2], hop_w[o2]
        firsts = np.ones(keys.size, dtype=bool)
        firsts[1:] = keys[1:] != keys[:-1]
        keys, w = keys[firsts], np.concatenate([w, hop_w[firsts]])
    else:
        keys = np.unique(keys)

    # no dedup here: the construction above cannot introduce duplicates
    # (added targets exclude existing direct edges; one replica per
    # (node, chunk); distinct replicas have distinct source slots), and a
    # dedup pass would re-sort adjacencies.
    final = CSRGraph.from_edges(
        num_slots,
        np.concatenate([src, holes[keys // num_slots]]),
        np.concatenate([indices, keys % num_slots]),
        w,
    )

    primary_slot = ren.new_id.copy()
    replicas = np.stack([holes, origs], axis=1)
    return ReplicationResult(
        graph=final,
        rep_of=rep_of,
        primary_slot=primary_slot,
        replicas=replicas,
        edges_moved=int(moved.size),
        edges_added=int(keys.size),
    )
