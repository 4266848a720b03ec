"""Driver for the §2 coalescing transform: renumber + replicate.

``transform_graph`` is the paper's ``TransformGraph()``: it produces a
:class:`GraffixGraph` — a slot-space CSR graph (holes included) together
with the bookkeeping needed to run any vertex-centric algorithm on it and
map the results back to original node ids:

* ``lift`` copies an original-space attribute vector into slot space
  (each replica starts with its original's value, holes get a fill);
* ``lower`` reads results back out of the primary slots;
* ``replica_groups`` feeds the per-iteration confluence merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..obs import trace as obs_trace
from .knobs import CoalescingKnobs
from .renumber import RenumberResult, renumber
from .replicate import ReplicationResult, replicate

__all__ = ["GraffixGraph", "transform_graph"]


@dataclass
class GraffixGraph:
    """A coalescing-transformed graph plus original-space mappings.

    Attributes
    ----------
    graph:
        slot-space CSR graph (``num_slots`` nodes; unfilled holes are
        isolated degree-0 slots, exactly as they waste lanes on a GPU).
    rep_of:
        ``slot -> original`` node id, -1 for unfilled holes.
    primary_slot:
        ``original -> slot`` of the principal copy.
    num_original:
        node count of the pre-transform graph.
    chunk_size:
        the ``k`` used for level alignment and chunking.
    renumbering / replication:
        the intermediate results, kept for inspection and tests.
    """

    graph: CSRGraph
    rep_of: np.ndarray
    primary_slot: np.ndarray
    num_original: int
    chunk_size: int
    renumbering: RenumberResult
    replication: ReplicationResult
    _groups: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self.graph.num_nodes

    @property
    def num_replicas(self) -> int:
        return int(self.replication.replicas.shape[0])

    @property
    def num_holes(self) -> int:
        return int(np.count_nonzero(self.rep_of < 0))

    @property
    def edges_added(self) -> int:
        return self.replication.edges_added

    def extra_space_fraction(self, original: CSRGraph) -> float:
        """Additional memory of the transformed CSR vs. the original, as a
        fraction (the paper's Table 5 'Additional space' column)."""
        orig_words = original.num_nodes + 1 + original.num_edges * (
            2 if original.is_weighted else 1
        )
        new_words = self.num_slots + 1 + self.graph.num_edges * (
            2 if self.graph.is_weighted else 1
        )
        return (new_words - orig_words) / orig_words

    # ------------------------------------------------------------------
    def lift(self, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Expand an original-space attribute vector into slot space."""
        values = np.asarray(values, dtype=np.float64)
        if values.size != self.num_original:
            raise TransformError(
                f"expected {self.num_original} values, got {values.size}"
            )
        out = np.full(self.num_slots, fill, dtype=np.float64)
        occupied = self.rep_of >= 0
        out[occupied] = values[self.rep_of[occupied]]
        return out

    def lower(self, slot_values: np.ndarray) -> np.ndarray:
        """Read an attribute vector back into original-node space."""
        slot_values = np.asarray(slot_values, dtype=np.float64)
        if slot_values.size != self.num_slots:
            raise TransformError(
                f"expected {self.num_slots} slot values, got {slot_values.size}"
            )
        return slot_values[self.primary_slot]

    def replica_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (slots, group_ids, group_sizes) arrays for confluence.

        Only originals with >= 2 copies appear.  ``slots`` concatenates the
        member slots of every group; ``group_ids`` is parallel to it;
        ``group_sizes[g]`` is the member count of group ``g``.
        """
        if self._groups is None:
            occupied = np.nonzero(self.rep_of >= 0)[0]
            owners = self.rep_of[occupied]
            order = np.argsort(owners, kind="stable")
            occ_sorted = occupied[order]
            own_sorted = owners[order]
            uniq, starts, counts = np.unique(
                own_sorted, return_index=True, return_counts=True
            )
            multi = counts >= 2
            slots_list: list[np.ndarray] = []
            gid_list: list[np.ndarray] = []
            sizes: list[int] = []
            g = 0
            for s, c in zip(starts[multi], counts[multi]):
                slots_list.append(occ_sorted[s : s + c])
                gid_list.append(np.full(c, g, dtype=np.int64))
                sizes.append(int(c))
                g += 1
            if slots_list:
                self._groups = (
                    np.concatenate(slots_list),
                    np.concatenate(gid_list),
                    np.asarray(sizes, dtype=np.int64),
                )
            else:
                empty = np.empty(0, dtype=np.int64)
                self._groups = (empty, empty, empty)
        return self._groups

    def replica_group_firsts(self) -> np.ndarray:
        """The first member slot of each entry's group, parallel to the
        ``slots`` array of :meth:`replica_groups`."""
        slots, gids, _sizes = self.replica_groups()
        _, starts = np.unique(gids, return_index=True)
        return slots[starts][gids]


def transform_graph(
    graph: CSRGraph, knobs: CoalescingKnobs | None = None
) -> GraffixGraph:
    """Apply the full §2 coalescing transform.

    With ``connectedness_threshold = 1.0`` and a graph where no chunk
    reaches full connectedness, this degenerates to the *exact*
    renumbering (no replicas, no added edges) — a property the tests use.
    """
    knobs = knobs or CoalescingKnobs()
    with obs_trace.span("transform.renumber", chunk_size=knobs.chunk_size):
        ren = renumber(graph, knobs.chunk_size)
    with obs_trace.span("transform.replicate") as sp:
        rep = replicate(graph, ren, knobs)
        if sp is not None:
            sp.set(num_slots=rep.graph.num_nodes, edges_added=rep.edges_added)
    return GraffixGraph(
        graph=rep.graph,
        rep_of=rep.rep_of,
        primary_slot=rep.primary_slot,
        num_original=graph.num_nodes,
        chunk_size=knobs.chunk_size,
        renumbering=ren,
        replication=rep,
    )
