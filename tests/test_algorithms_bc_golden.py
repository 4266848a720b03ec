"""Golden pin for BC: recorded truth, not a preserved copy of old code.

``bc_golden.json`` holds, for every graph of the tiny paper suite under
exact, coalescing, shared-memory and divergence plans, and for every way
BC is driven — inner-parallel push, direction-optimizing, pull,
edge-balanced push, the outer-parallel strategy, the topology-driven
Baseline-I kernel — plus Tigr's virtual-split runner on exact plans: a
sha256 of the ``values`` bytes, the level count, and every
``SimMetrics`` field.  Any change to the scores' bits, the per-level
charges or the order they are summed in shows up here.

With :func:`repro.algorithms.exact.exact_bc` (an independent networkx
oracle, checked in ``tests/test_algorithms_bc.py``) this pin is the
reference the BC tests compare against.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_algorithms_bc_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.bc import betweenness_centrality
from repro.baselines import gunrock, tigr
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite

GOLDEN = Path(__file__).with_name("bc_golden.json")
TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")
#: mode -> keyword arguments of ``betweenness_centrality``
MODES = {
    "inner": {},
    "diropt": {"schedule": "direction-optimizing"},
    "pull": {"schedule": "pull"},
    "push-edge": {"schedule": "push:edge"},
    "outer": {"strategy": "outer"},
    "topology": {"topology_driven": True},
}
NUM_SOURCES = 4
SEED = 1
CELLS = [
    (name, technique, mode)
    for name in PAPER_GRAPH_NAMES
    for technique in TECHNIQUES
    for mode in MODES
] + [(name, "exact", "tigr") for name in PAPER_GRAPH_NAMES]


def _run(graph, technique: str, mode: str):
    target = graph if technique == "exact" else build_plan(graph, technique)
    if mode == "tigr":
        return tigr.run("bc", target, num_bc_sources=NUM_SOURCES, seed=SEED)
    return betweenness_centrality(
        target, num_sources=NUM_SOURCES, seed=SEED, **MODES[mode]
    )


def _digest(res) -> dict:
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
def test_bc_matches_golden(golden, suite, name, technique, mode):
    got = _digest(_run(suite[name], technique, mode))
    assert got == golden[_key(name, technique, mode)]


#: Gunrock's ``schedule`` argument -> the mode cell that pins it
GUNROCK_MODES = {None: "inner", "pull": "pull", "direction-optimizing": "diropt"}


@pytest.mark.parametrize("schedule,mode", list(GUNROCK_MODES.items()))
def test_gunrock_bc_matches_golden(golden, suite, schedule, mode):
    """Gunrock's BC is the inner-parallel engine under a schedule: it
    must reproduce the committed cells of that schedule bit for bit."""
    for name in PAPER_GRAPH_NAMES:
        for technique in TECHNIQUES:
            graph = suite[name]
            target = graph if technique == "exact" else build_plan(graph, technique)
            res = gunrock.run(
                "bc", target, num_bc_sources=NUM_SOURCES, seed=SEED, schedule=schedule
            )
            assert _digest(res) == golden[_key(name, technique, mode)], (name, technique)


def _table() -> dict:
    suite = paper_suite("tiny", seed=7)
    return {_key(n, t, m): _digest(_run(suite[n], t, m)) for n, t, m in CELLS}


if __name__ == "__main__":
    record_main(GOLDEN, _table)
