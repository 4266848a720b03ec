"""Golden pin for the offline transforms: the plans they build.

``plan_golden.json`` holds, for every graph of the tiny paper suite
under the coalescing, shared-memory, divergence and combined plans:
sha256 digests of the plan graph's CSR offsets, indices and weights, of
the processing ``order``, the ``resident_mask``, the cluster graph's
CSR, and the replica maps ``rep_of`` and ``primary_slot``, plus
``local_iterations`` and ``edges_added``.  A field the plan leaves
unset is recorded as ``null``.  Per graph it also pins the analytics
the transforms are keyed off: ``clustering_coefficients``,
``bfs_forest_levels`` (levels and roots) and ``graph_stats`` (floats as
``float.hex``).  Any change to which edges a transform adds, which
nodes it pins or how it numbers them shows up here bit for bit.

Beyond the default knobs it pins every plan the tuner builds: each
threshold of ``repro.tune.search._candidates`` for coalescing and
shared memory, and divergence at 0.1/0.3/0.5, built exactly as the
search builds them (``_plan_with_threshold`` on the K40c).

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_core_plan_golden.py --record
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import pytest
from digests import golden_fixture, record_main, sha256

from repro.core.pipeline import build_plan
from repro.gpusim.device import K40C
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite
from repro.graphs.properties import (
    bfs_forest_levels,
    clustering_coefficients,
    graph_stats,
)
from repro.tune.search import TECHNIQUES_SEARCHED, _candidates, _plan_with_threshold

GOLDEN = Path(__file__).with_name("plan_golden.json")
TECHNIQUES = ("coalescing", "shmem", "divergence", "combined")
PLAN_CELLS = [(name, technique) for name in PAPER_GRAPH_NAMES for technique in TECHNIQUES]


def _opt_sha(arr) -> str | None:
    return None if arr is None else sha256(arr)


def _csr(graph) -> dict | None:
    if graph is None:
        return None
    return {
        "offsets_sha256": sha256(graph.offsets),
        "indices_sha256": sha256(graph.indices),
        "weights_sha256": _opt_sha(graph.weights),
    }


def _plan_digest(graph, technique: str) -> dict:
    return _digest_of(build_plan(graph, technique))


def _knob_plan_digest(graph, technique: str, thr: float) -> dict:
    return _digest_of(_plan_with_threshold(graph, technique, thr, K40C))


def _digest_of(plan) -> dict:
    graffix = plan.graffix
    return {
        "graph": _csr(plan.graph),
        "order_sha256": _opt_sha(plan.order),
        "resident_mask_sha256": _opt_sha(plan.resident_mask),
        "cluster_graph": _csr(plan.cluster_graph),
        "rep_of_sha256": None if graffix is None else sha256(graffix.rep_of),
        "primary_slot_sha256": (
            None if graffix is None else sha256(graffix.primary_slot)
        ),
        "local_iterations": int(plan.local_iterations),
        "edges_added": int(plan.edges_added),
    }


def _graph_digest(graph) -> dict:
    levels, roots = bfs_forest_levels(graph)
    stats = {
        k: v.hex() if isinstance(v, float) else v
        for k, v in asdict(graph_stats(graph)).items()
    }
    return {
        "clustering_coefficients_sha256": sha256(clustering_coefficients(graph)),
        "bfs_forest_levels_sha256": sha256(levels),
        "bfs_forest_roots_sha256": sha256(roots),
        "graph_stats": stats,
    }


def _plan_key(name: str, technique: str) -> str:
    return f"plan/{name}/{technique}"


def _graph_key(name: str) -> str:
    return f"graph/{name}"


def _knob_key(name: str, technique: str, thr: float) -> str:
    return f"knob/{name}/{technique}@{thr!r}"


def _knob_cells(suite: dict) -> list[tuple[str, str, float]]:
    return [
        (name, technique, thr)
        for name in PAPER_GRAPH_NAMES
        for technique in TECHNIQUES_SEARCHED
        for thr in _candidates(suite[name], technique)
    ]


@pytest.fixture(scope="module")
def suite() -> dict:
    return paper_suite("tiny", seed=7)


golden = golden_fixture(GOLDEN)


def test_golden_covers_every_cell(golden):
    keys = [_plan_key(*cell) for cell in PLAN_CELLS]
    keys += [_graph_key(name) for name in PAPER_GRAPH_NAMES]
    keys += [_knob_key(*cell) for cell in _knob_cells(paper_suite("tiny", seed=7))]
    assert sorted(golden) == sorted(keys)


@pytest.mark.parametrize("name,technique", PLAN_CELLS)
def test_plan_matches_golden(golden, suite, name, technique):
    got = _plan_digest(suite[name], technique)
    assert got == golden[_plan_key(name, technique)]


@pytest.mark.parametrize("name", PAPER_GRAPH_NAMES)
def test_graph_analytics_match_golden(golden, suite, name):
    assert _graph_digest(suite[name]) == golden[_graph_key(name)]


def test_knob_plans_match_golden(golden, suite):
    for name, technique, thr in _knob_cells(suite):
        got = _knob_plan_digest(suite[name], technique, thr)
        assert got == golden[_knob_key(name, technique, thr)], (name, technique, thr)


def _table() -> dict:
    suite = paper_suite("tiny", seed=7)
    table = {_plan_key(n, t): _plan_digest(suite[n], t) for n, t in PLAN_CELLS}
    table.update({_graph_key(n): _graph_digest(suite[n]) for n in PAPER_GRAPH_NAMES})
    table.update(
        {_knob_key(*cell): _knob_plan_digest(suite[cell[0]], *cell[1:])
         for cell in _knob_cells(suite)}
    )
    return table


if __name__ == "__main__":
    record_main(GOLDEN, _table)
