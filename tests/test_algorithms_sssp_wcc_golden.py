"""Golden pin for SSSP and WCC: recorded truth, not a preserved copy of old code.

``sssp_wcc_golden.json`` holds, for every graph of the tiny paper suite
under exact, coalescing, shared-memory and divergence plans, and for
every way the min-relax solvers are driven — topology-driven ``sssp``
under push, pull, direction-optimizing and edge-balanced push schedules,
Gunrock's frontier-driven ``sssp_frontier`` under push, pull and
direction-optimizing, ``sssp`` from 4 sources in turn, and ``wcc``: a
sha256 of the ``values`` bytes, the iteration count(s), and every
``SimMetrics`` field (per source, too, for the multi-source run, whose
total ledger folds the 4 runs through one shared ``Runner``).  Any change to
the distances' or labels' bits, to when a sweep reports a change, or to
what each sweep charges shows up here.

With :func:`repro.algorithms.exact.exact_sssp` and scipy's component
count (independent oracles, checked in ``tests/test_algorithms_sssp.py``
and ``tests/test_algorithms_wcc.py``) this pin is the reference the SSSP
and WCC tests compare against.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_algorithms_sssp_wcc_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.bc import pick_sources
from repro.algorithms.common import Runner, plan_for
from repro.algorithms.sssp import sssp
from repro.algorithms.wcc import wcc
from repro.baselines.gunrock import sssp_frontier
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite

GOLDEN = Path(__file__).with_name("sssp_wcc_golden.json")
TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")
#: mode -> (solver, schedule)
MODES = {
    "sssp-push": ("sssp", "push"),
    "sssp-pull": ("sssp", "pull"),
    "sssp-diropt": ("sssp", "direction-optimizing"),
    "sssp-push-edge": ("sssp", "push:edge"),
    "gunrock-push": ("gunrock", "push"),
    "gunrock-pull": ("gunrock", "pull"),
    "gunrock-diropt": ("gunrock", "direction-optimizing"),
    "multi-source": ("multi-source", None),
    "wcc": ("wcc", None),
}
NUM_SOURCES = 4
SEED = 1
CELLS = [
    (name, technique, mode)
    for name in PAPER_GRAPH_NAMES
    for technique in TECHNIQUES
    for mode in MODES
]


def _source(graph) -> int:
    """The busiest node, so every graph's run reaches most of it."""
    return int(np.argmax(graph.out_degrees()))


def _digest(graph, technique: str, mode: str) -> dict:
    target = graph if technique == "exact" else build_plan(graph, technique)
    solver, schedule = MODES[mode]
    if solver == "multi-source":
        sources = [int(x) for x in pick_sources(graph.num_nodes, NUM_SOURCES, SEED)]
        runs = [sssp(target, x) for x in sources]
        shared = Runner(plan_for(target))
        for x in sources:
            sssp(target, x, runner_factory=lambda p, d: shared)
        return {
            "values_sha256": sha256(np.stack([r.values for r in runs])),
            "iterations": [int(r.iterations) for r in runs],
            "metrics": metrics_digest(shared.metrics),
            "lane_metrics": [metrics_digest(r.metrics) for r in runs],
        }
    if solver == "wcc":
        res = wcc(target)
    elif solver == "gunrock":
        res = sssp_frontier(target, _source(graph), schedule=schedule)
    else:
        res = sssp(target, _source(graph), schedule=schedule)
    return {
        "values_sha256": sha256(res.values),
        "iterations": int(res.iterations),
        "metrics": metrics_digest(res.metrics),
    }


def _key(name: str, technique: str, mode: str) -> str:
    return f"{name}/{technique}/{mode}"


@pytest.fixture(scope="module")
def suite() -> dict:
    return paper_suite("tiny", seed=7)


golden = golden_fixture(GOLDEN)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_key(*cell) for cell in CELLS)


@pytest.mark.parametrize("name,technique,mode", CELLS)
def test_matches_golden(golden, suite, name, technique, mode):
    got = _digest(suite[name], technique, mode)
    assert got == golden[_key(name, technique, mode)]


def _table() -> dict:
    suite = paper_suite("tiny", seed=7)
    return {_key(n, t, m): _digest(suite[n], t, m) for n, t, m in CELLS}


if __name__ == "__main__":
    record_main(GOLDEN, _table)
