"""Persisting execution plans: the amortization story, operationalized.

The paper justifies its preprocessing cost by amortization over many
runs; for that to work across *processes* the whole plan — not just the
transformed CSR — must round-trip to disk: replica bookkeeping,
residency masks, cluster edges, processing order, and the knob
provenance.  Everything is numpy arrays plus a small JSON header, stored
in one ``.npz``.

`GraffixGraph` intermediates (`RenumberResult`/`ReplicationResult`) are
*not* persisted — they are inspection artifacts; a loaded plan carries a
reconstructed `GraffixGraph` with everything execution needs (slot graph,
`rep_of`, `primary_slot`, replica groups).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import SimulationError, TransformError
from ..graphs.csr import CSRGraph
from ..gpusim.costmodel import checked_resident_mask
from ..gpusim.kernel import checked_order
from .coalesce import GraffixGraph
from .pipeline import TECHNIQUES, ExecutionPlan

__all__ = ["save_plan", "load_plan"]

_FORMAT_VERSION = 1


def _pack_graph(prefix: str, graph: CSRGraph, arrays: dict) -> None:
    arrays[f"{prefix}_offsets"] = graph.offsets
    arrays[f"{prefix}_indices"] = graph.indices
    if graph.weights is not None:
        arrays[f"{prefix}_weights"] = graph.weights


def _unpack_graph(prefix: str, data) -> CSRGraph:
    return CSRGraph(
        data[f"{prefix}_offsets"],
        data[f"{prefix}_indices"],
        data[f"{prefix}_weights"] if f"{prefix}_weights" in data else None,
    )


def save_plan(plan: ExecutionPlan, path: str | Path) -> None:
    """Persist an :class:`ExecutionPlan` to ``path`` (.npz)."""
    header = {
        "format_version": _FORMAT_VERSION,
        "technique": plan.technique,
        "num_original": plan.num_original,
        "confluence_operator": plan.confluence_operator,
        "edges_added": plan.edges_added,
        "preprocess_seconds": plan.preprocess_seconds,
        "local_iterations": plan.local_iterations,
        "has_graffix": plan.graffix is not None,
        "chunk_size": plan.graffix.chunk_size if plan.graffix else 0,
    }
    arrays: dict = {"header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    _pack_graph("graph", plan.graph, arrays)
    if plan.order is not None:
        arrays["order"] = plan.order
    if plan.resident_mask is not None:
        arrays["resident_mask"] = plan.resident_mask
    if plan.cluster_graph is not None:
        _pack_graph("cluster", plan.cluster_graph, arrays)
    if plan.graffix is not None:
        arrays["rep_of"] = plan.graffix.rep_of
        arrays["primary_slot"] = plan.graffix.primary_slot
    with Path(path).open("wb") as fh:
        np.savez_compressed(fh, **arrays)


def load_plan(path: str | Path) -> ExecutionPlan:
    """Load a plan persisted by :func:`save_plan`."""
    with np.load(Path(path)) as data:
        if "header" not in data:
            raise TransformError(f"{path}: not a saved execution plan")
        header = json.loads(bytes(data["header"]).decode())
        if header.get("format_version") != _FORMAT_VERSION:
            raise TransformError(
                f"{path}: unsupported plan format {header.get('format_version')}"
            )
        if header["technique"] not in TECHNIQUES:
            raise TransformError(f"{path}: unknown technique in header")
        graph = _unpack_graph("graph", data)
        order = data["order"] if "order" in data else None
        resident = data["resident_mask"] if "resident_mask" in data else None
        try:
            if order is not None:
                checked_order(order, graph.num_nodes)
            checked_resident_mask(resident, graph.num_nodes)
        except SimulationError as exc:
            raise TransformError(f"{path}: {exc}") from None
        cluster = (
            _unpack_graph("cluster", data) if "cluster_offsets" in data else None
        )
        graffix = None
        if header["has_graffix"]:
            from .renumber import RenumberResult
            from .replicate import ReplicationResult

            rep_of = data["rep_of"]
            primary = data["primary_slot"]
            # minimal intermediates: enough for execution (lift/lower/
            # replica_groups); renumbering internals are reconstructed as
            # degenerate placeholders and flagged as such.
            ren = RenumberResult(
                new_id=primary.copy(),
                rep_of=rep_of.copy(),
                levels=np.zeros(header["num_original"], dtype=np.int64),
                level_starts=np.array([0, graph.num_nodes], dtype=np.int64),
                num_slots=graph.num_nodes,
                chunk_size=max(1, int(header["chunk_size"])),
            )
            occupied = rep_of >= 0
            replica_mask = occupied.copy()
            replica_mask[primary] = False
            replica_slots = np.nonzero(replica_mask)[0]
            rep = ReplicationResult(
                graph=graph,
                rep_of=rep_of,
                primary_slot=primary,
                replicas=np.stack(
                    [replica_slots, rep_of[replica_slots]], axis=1
                ).astype(np.int64)
                if replica_slots.size
                else np.empty((0, 2), dtype=np.int64),
                edges_moved=0,
                edges_added=int(header["edges_added"]),
            )
            graffix = GraffixGraph(
                graph=graph,
                rep_of=rep_of,
                primary_slot=primary,
                num_original=int(header["num_original"]),
                chunk_size=max(1, int(header["chunk_size"])),
                renumbering=ren,
                replication=rep,
            )
        return ExecutionPlan(
            technique=header["technique"],
            graph=graph,
            num_original=int(header["num_original"]),
            order=order,
            resident_mask=resident,
            cluster_graph=cluster,
            local_iterations=int(header["local_iterations"]),
            graffix=graffix,
            confluence_operator=header["confluence_operator"],
            edges_added=int(header["edges_added"]),
            preprocess_seconds=float(header["preprocess_seconds"]),
        )
