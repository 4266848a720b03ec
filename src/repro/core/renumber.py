"""Graffix vertex renumbering (Algorithm 2, step 1).

The scheme builds a BFS forest from highest-out-degree roots, then assigns
new ids level by level.  Two properties distinguish it from classic
locality renumbering (RCM, degree sort):

1. **round-robin child order** — within a level, ids go to "the first
   neighbor of each of the parents from the previous level … followed by
   all the second-neighbors, and so on", so the nodes that a warp's lanes
   touch *at the same step j* receive adjacent ids; and
2. **chunk-aligned levels** — each level's ids start at a multiple of the
   chunk size ``k``, which leaves *holes* (unassigned slots) at the end of
   each level block.  The holes are the real estate that step 2
   (replication) later fills.

The output is exact: ignoring holes, the renumbered graph is isomorphic to
the input (tests certify this via
:func:`repro.graphs.validate.assert_isomorphic_relabelling`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..graphs.properties import bfs_forest_levels, ragged_arange

__all__ = ["RenumberResult", "renumber"]


@dataclass(frozen=True)
class RenumberResult:
    """Outcome of the Graffix renumbering.

    Attributes
    ----------
    new_id:
        ``new_id[old] -> slot``; slots are the ids in the renumbered
        (hole-padded) space.
    rep_of:
        ``rep_of[slot] -> old`` node id, or ``-1`` for a hole.
    levels:
        BFS-forest level of each *old* node.
    level_starts:
        slot where each level's block begins; ``level_starts[i+1] -
        level_starts[i]`` is the block width (a multiple of ``k`` except
        possibly the last).
    num_slots:
        total slots (``>= num_nodes``, a multiple of ``k``).
    chunk_size:
        the ``k`` used.
    """

    new_id: np.ndarray
    rep_of: np.ndarray
    levels: np.ndarray
    level_starts: np.ndarray
    num_slots: int
    chunk_size: int

    @property
    def num_holes(self) -> int:
        return int(np.count_nonzero(self.rep_of < 0))

    @property
    def num_levels(self) -> int:
        return int(self.level_starts.size - 1)

    def holes(self) -> np.ndarray:
        """Slot ids of all holes, ascending."""
        return np.nonzero(self.rep_of < 0)[0].astype(np.int64)

    def level_of_slot(self, slot: int) -> int:
        """BFS level whose block contains ``slot``."""
        return int(np.searchsorted(self.level_starts, slot, side="right") - 1)

    def slot_levels(self) -> np.ndarray:
        """Level of every slot (vectorized form of :meth:`level_of_slot`)."""
        return (
            np.searchsorted(
                self.level_starts, np.arange(self.num_slots), side="right"
            )
            - 1
        ).astype(np.int64)


def _round_up(value: int, k: int) -> int:
    return -(-value // k) * k


def renumber(graph: CSRGraph, chunk_size: int = 16) -> RenumberResult:
    """Run the Graffix renumbering on ``graph``.

    Implements ``RenumberVertex`` of Algorithm 2: level-0 nodes (BFS forest
    roots and their co-level peers) are numbered in decreasing-degree
    order; each subsequent level is numbered round-robin over parents'
    neighbor positions; each level's ids start at the next multiple of
    ``chunk_size``.
    """
    if chunk_size < 1:
        raise TransformError(f"chunk_size must be >= 1, got {chunk_size}")
    n = graph.num_nodes
    if n == 0:
        raise TransformError("cannot renumber an empty graph")

    levels, _roots = bfs_forest_levels(graph)
    num_levels = int(levels.max()) + 1
    out_deg = graph.out_degrees()

    new_id = np.full(n, -1, dtype=np.int64)
    level_starts = np.zeros(num_levels + 1, dtype=np.int64)

    # ---- level 0: decreasing degree, ties by old id ---------------------
    level_nodes = np.nonzero(levels == 0)[0]
    order0 = level_nodes[np.lexsort((level_nodes, -out_deg[level_nodes]))]
    new_id[order0] = np.arange(order0.size, dtype=np.int64)
    g_id = int(order0.size)

    offsets, indices = graph.offsets, graph.indices
    prev_level_nodes_by_rank = order0  # already in new-id order

    for lev in range(1, num_levels):
        g_id = _round_up(g_id, chunk_size)
        level_starts[lev] = g_id

        parents = prev_level_nodes_by_rank
        # expand all parent edges with their neighbor position j
        degs = (offsets[parents + 1] - offsets[parents]).astype(np.int64)
        total = int(degs.sum())
        assigned_order: list[np.ndarray] = []
        if total:
            j = ragged_arange(degs)
            parent_rank = np.repeat(
                np.arange(parents.size, dtype=np.int64), degs
            )
            child = indices[
                np.repeat(offsets[parents].astype(np.int64), degs) + j
            ].astype(np.int64)
            pick = levels[child] == lev
            j, parent_rank, child = j[pick], parent_rank[pick], child[pick]
            if child.size:
                # round-robin: order by (j, parent_rank), keep the first
                # occurrence of each child
                order = np.lexsort((parent_rank, j))
                child_sorted = child[order]
                # vectorized "first occurrence in this ordering": sort by
                # (child, position-in-ordering) and keep rank-0 entries.
                first = np.zeros(child_sorted.size, dtype=bool)
                pos = np.arange(child_sorted.size, dtype=np.int64)
                by_child = np.lexsort((pos, child_sorted))
                cs = child_sorted[by_child]
                first_of_child = np.ones(cs.size, dtype=bool)
                first_of_child[1:] = cs[1:] != cs[:-1]
                first[by_child[first_of_child]] = True
                uniq_children = child_sorted[first]
                assigned_order.append(uniq_children)

        enumerated = (
            assigned_order[0] if assigned_order else np.empty(0, dtype=np.int64)
        )
        # fallback: any level-`lev` node not reachable as a parent's listed
        # neighbor (shouldn't happen for proper BFS forests, but guards
        # level-lowering corner cases) is appended in old-id order.
        lev_nodes = np.nonzero(levels == lev)[0]
        missing_mask = np.ones(n, dtype=bool)
        missing_mask[enumerated] = False
        missing = lev_nodes[missing_mask[lev_nodes]]
        full_order = (
            np.concatenate([enumerated, missing]) if missing.size else enumerated
        )
        new_id[full_order] = g_id + np.arange(full_order.size, dtype=np.int64)
        g_id += int(full_order.size)
        prev_level_nodes_by_rank = full_order

    num_slots = _round_up(g_id, chunk_size)
    level_starts[num_levels] = num_slots

    if np.any(new_id < 0):
        raise TransformError("renumbering failed to assign every node an id")

    rep_of = np.full(num_slots, -1, dtype=np.int64)
    rep_of[new_id] = np.arange(n, dtype=np.int64)

    return RenumberResult(
        new_id=new_id,
        rep_of=rep_of,
        levels=levels,
        level_starts=level_starts,
        num_slots=num_slots,
        chunk_size=chunk_size,
    )
