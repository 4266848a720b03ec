"""Digest helpers shared by the golden-pin tests.

A golden pin records a run's outputs as plain JSON: array bytes as
sha256, floats as ``float.hex`` (so the low bits are pinned too), and
every field of the :class:`~repro.gpusim.metrics.SimMetrics` ledger.

Each pin module declares ``golden = golden_fixture(GOLDEN)`` and ends
with ``record_main(GOLDEN, _table)``, so it refreshes its file with::

    PYTHONPATH=src python tests/<pin module>.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np
import pytest


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


def golden_fixture(path):
    """A module-scoped ``golden`` fixture loading the pin at ``path``."""

    @pytest.fixture(scope="module")
    def golden() -> dict:
        return json.loads(path.read_text())

    return golden


def record_main(path, table) -> None:
    """The ``--record`` entry point: write ``table()`` to ``path``."""
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    write_golden(path, table())
