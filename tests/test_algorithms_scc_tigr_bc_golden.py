"""Golden pin for SCC and Tigr-style BC.

``scc_tigr_bc_golden.json`` holds, for every graph of the tiny paper
suite under exact, coalescing, shared-memory and divergence plans:

* ``scc``: a sha256 of the label bytes, ``num_components``, the
  iteration count and every ``SimMetrics`` field (SCC charges each trim
  round and each reachability level without handing over an expansion,
  so the cost model gathers those sweeps itself);
* ``tigr.run("bc")``: a sha256 of the ``values`` bytes, the iteration
  count and every ``SimMetrics`` field (Tigr prices BC's lanes over its
  virtual split, one sweep at a time).

Any change to the values' bits, to the number of levels or components,
or to what each sweep charges shows up here.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_algorithms_scc_tigr_bc_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.scc import scc
from repro.baselines import tigr
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite

GOLDEN = Path(__file__).with_name("scc_tigr_bc_golden.json")
TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")
MODES = ("scc", "tigr-bc")
CELLS = [
    (name, technique, mode)
    for name in PAPER_GRAPH_NAMES
    for technique in TECHNIQUES
    for mode in MODES
]


def _digest(graph, technique: str, mode: str) -> dict:
    target = graph if technique == "exact" else build_plan(graph, technique)
    if mode == "scc":
        res = scc(target)
        extra = {"num_components": int(res.aux["num_components"])}
    else:
        res = tigr.run("bc", target)
        extra = {}
    return {
        "values_sha256": sha256(res.values),
        "iterations": int(res.iterations),
        "metrics": metrics_digest(res.metrics),
        **extra,
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
