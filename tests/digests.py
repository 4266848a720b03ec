"""Digest helpers shared by the golden-pin tests.

A golden pin records a run's outputs as plain JSON: array bytes as
sha256, floats as ``float.hex`` (so the low bits are pinned too), and
every field of the :class:`~repro.gpusim.metrics.SimMetrics` ledger.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def metrics_digest(metrics) -> dict:
    """Every ``SimMetrics`` field, exact: ints as ints, cycles as hex."""
    t = metrics.total
    return {
        "num_sweeps": int(metrics.num_sweeps),
        "serial_steps": int(t.serial_steps),
        "busy_lane_steps": int(t.busy_lane_steps),
        "idle_lane_steps": int(t.idle_lane_steps),
        "edge_transactions": int(t.edge_transactions),
        "attr_global_transactions": int(t.attr_global_transactions),
        "attr_shared_transactions": int(t.attr_shared_transactions),
        "src_transactions": int(t.src_transactions),
        "atomic_ops": int(t.atomic_ops),
        "cycles": float(t.cycles).hex(),
    }


def write_golden(path, table: dict) -> None:
    """One key per line, sorted, so a re-record diffs cell by cell."""
    lines = [
        f" {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
