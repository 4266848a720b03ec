"""Golden pin for the frontier-driven solvers: BFS, PageRank, Gunrock PR, Tigr.

``frontier_golden.json`` holds, for every graph of the tiny paper suite
under exact, coalescing, shared-memory and divergence plans, and for
every way these solvers are driven — ``bfs`` under push, pull,
direction-optimizing and edge-balanced push schedules and as the
topology-driven Baseline-I kernel, ``pagerank`` under push,
pull, direction-optimizing and edge-balanced push, Gunrock's
``pagerank_delta`` under push, pull and direction-optimizing, and
Tigr's SSSP and PR (whose virtual-split context re-prices every sweep):
a sha256 of the ``values`` bytes, the iteration count, and every
``SimMetrics`` field.  Any change to the values' bits, to the number of
levels or iterations, or to what each sweep charges shows up here.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_algorithms_frontier_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.baselines import tigr
from repro.baselines.gunrock import pagerank_delta
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite

GOLDEN = Path(__file__).with_name("frontier_golden.json")
TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")
#: mode -> (solver, schedule)
MODES = {
    "bfs-push": ("bfs", "push"),
    "bfs-pull": ("bfs", "pull"),
    "bfs-diropt": ("bfs", "direction-optimizing"),
    "bfs-push-edge": ("bfs", "push:edge"),
    "bfs-topology": ("bfs-topology", None),
    "pr-push": ("pr", "push"),
    "pr-pull": ("pr", "pull"),
    "pr-diropt": ("pr", "direction-optimizing"),
    "pr-push-edge": ("pr", "push:edge"),
    "gunrock-pr-push": ("gunrock-pr", "push"),
    "gunrock-pr-pull": ("gunrock-pr", "pull"),
    "gunrock-pr-diropt": ("gunrock-pr", "direction-optimizing"),
    "tigr-sssp": ("tigr-sssp", None),
    "tigr-pr": ("tigr-pr", None),
}
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
    if solver == "bfs":
        res = bfs(target, _source(graph), schedule=schedule)
    elif solver == "bfs-topology":
        res = bfs(target, _source(graph), topology_driven=True)
    elif solver == "pr":
        res = pagerank(target, schedule=schedule)
    elif solver == "gunrock-pr":
        res = pagerank_delta(target, schedule=schedule)
    elif solver == "tigr-sssp":
        res = tigr.run("sssp", target, source=_source(graph))
    else:
        res = tigr.run("pr", target)
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
