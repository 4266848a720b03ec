"""Golden pin for MST: recorded truth, not a preserved copy of old code.

``mst_golden.json`` holds, for every graph of the tiny paper suite
(weighted; unweighted, so that edge ids break most weight ties; and with
fractional weights, so that the order of the forest-weight sum shows in
the low bits) under exact, coalescing, shared-memory and divergence
plans: the forest weight
as ``float.hex``, the round count, sha256 digests of the ``edges`` and
``values`` bytes, and every ``SimMetrics`` field.  Any change to which
edges Borůvka picks, in what order, or what each round charges shows up
here bit for bit.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_algorithms_mst_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.mst import mst
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite

GOLDEN = Path(__file__).with_name("mst_golden.json")
TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")
WEIGHTINGS = ("weighted", "unweighted", "fractional")
CELLS = [
    (weighting, name, technique)
    for weighting in WEIGHTINGS
    for name in PAPER_GRAPH_NAMES
    for technique in TECHNIQUES
]


def _digest(graph, technique: str) -> dict:
    res = mst(graph if technique == "exact" else build_plan(graph, technique))
    return {
        "weight": float(res.aux["weight"]).hex(),
        "rounds": int(res.aux["rounds"]),
        "iterations": int(res.iterations),
        "edges_sha256": sha256(res.aux["edges"]),
        "num_edges": int(res.aux["edges"].shape[0]),
        "values_sha256": sha256(res.values),
        "metrics": metrics_digest(res.metrics),
    }


def _key(weighting: str, name: str, technique: str) -> str:
    return f"{weighting}/{name}/{technique}"


def _suites() -> dict[str, dict]:
    suites = {
        weighting: paper_suite("tiny", seed=7, weighted=weighting != "unweighted")
        for weighting in WEIGHTINGS
    }
    rng = np.random.default_rng(11)
    suites["fractional"] = {
        name: g.with_weights(rng.uniform(0.5, 10.0, g.num_edges))
        for name, g in suites["fractional"].items()
    }
    return suites


@pytest.fixture(scope="module")
def suites() -> dict[str, dict]:
    return _suites()


golden = golden_fixture(GOLDEN)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_key(*cell) for cell in CELLS)


@pytest.mark.parametrize("weighting,name,technique", CELLS)
def test_mst_matches_golden(golden, suites, weighting, name, technique):
    got = _digest(suites[weighting][name], technique)
    assert got == golden[_key(weighting, name, technique)]


def _table() -> dict:
    suites = _suites()
    return {_key(w, n, t): _digest(suites[w][n], t) for w, n, t in CELLS}


if __name__ == "__main__":
    record_main(GOLDEN, _table)
