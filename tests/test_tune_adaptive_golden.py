"""Golden pin for the adaptive controller: what each finite budget does.

``tune_adaptive_golden.json`` holds, for every graph of the tiny paper
suite under coalescing, shared-memory, divergence and combined plans,
for SSSP and PageRank, and for six error budgets (20 % with the default
gains, each of the tuner's three controller-grid gain sets at 20 %, 1 %,
and 1 % probing every sweep): a sha256 of the ``values`` bytes, the
iteration count, every ``SimMetrics`` field, the controller's
intervention counts and its final envelope-margin scale.  Every run
passes the original graph as ``exact_graph``, so the exact-sweep probe
and rectification take part where the plan's value space allows.  Any
change to what the controller observes, when it steers or stops, or
what it charges shows up here.

``tests/test_tune_equivalence.py`` pins the other half of the
contract: with an infinite budget the controller is the static runner.

Refresh (only when a change is meant to move these numbers, and say why
in the commit)::

    PYTHONPATH=src python tests/test_tune_adaptive_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from digests import golden_fixture, metrics_digest, record_main, sha256

from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite
from repro.tune import AdaptiveController, ErrorBudget

GOLDEN = Path(__file__).with_name("tune_adaptive_golden.json")
TECHNIQUES = ("coalescing", "shmem", "divergence", "combined")
ALGORITHMS = ("sssp", "pagerank")
#: the tuner's controller-grid gain sets (``repro.tune.search``)
_GRID = (
    {"sample_every": 0, "stop_fraction": 0.25,
     "max_margin_scale": 4.0, "extra_local_rounds": 0},
    {"sample_every": 6, "stop_fraction": 0.25,
     "max_margin_scale": 4.0, "extra_local_rounds": 1},
    {"sample_every": 0, "stop_fraction": 0.5,
     "max_margin_scale": 8.0, "extra_local_rounds": 1},
)
BUDGETS = {
    "20": {"target_percent": 20.0},
    **{f"20-grid{i}": {"target_percent": 20.0, **g} for i, g in enumerate(_GRID)},
    "1": {"target_percent": 1.0},
    "1-probe-every-sweep": {"target_percent": 1.0, "sample_every": 1},
}
INTERVENTIONS = ("loosen", "tighten", "early_stop", "exact_samples", "rectify")
CELLS = [
    (name, technique, algo, budget)
    for name in PAPER_GRAPH_NAMES
    for technique in TECHNIQUES
    for algo in ALGORITHMS
    for budget in BUDGETS
]


def _digest(graph, technique: str, algo: str, budget: str) -> dict:
    plan = build_plan(graph, technique)
    controller = AdaptiveController(
        plan, budget=ErrorBudget(**BUDGETS[budget]), exact_graph=graph
    )
    factory = lambda p, d: controller  # noqa: E731
    if algo == "sssp":
        src = int(np.argmax(graph.out_degrees()))
        res = sssp(plan, src, runner_factory=factory)
    else:
        res = pagerank(plan, runner_factory=factory)
    return {
        "values_sha256": sha256(res.values),
        "iterations": int(res.iterations),
        "metrics": metrics_digest(res.metrics),
        "interventions": {k: controller.interventions[k] for k in INTERVENTIONS},
        "margin_scale": float(controller.margin_scale).hex(),
    }


def _key(name: str, technique: str, algo: str, budget: str) -> str:
    return f"{name}/{technique}/{algo}/{budget}"


@pytest.fixture(scope="module")
def suite() -> dict:
    return paper_suite("tiny", seed=7)


golden = golden_fixture(GOLDEN)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(_key(*cell) for cell in CELLS)


def test_every_lever_fires_somewhere(golden):
    # the pin would hold vacuously if a lever never fired on the grid
    for lever in INTERVENTIONS:
        assert any(cell["interventions"][lever] for cell in golden.values()), lever


@pytest.mark.parametrize("name,technique,algo,budget", CELLS)
def test_matches_golden(golden, suite, name, technique, algo, budget):
    got = _digest(suite[name], technique, algo, budget)
    assert got == golden[_key(name, technique, algo, budget)]


def _table() -> dict:
    suite = paper_suite("tiny", seed=7)
    return {_key(*cell): _digest(suite[cell[0]], *cell[1:]) for cell in CELLS}


if __name__ == "__main__":
    record_main(GOLDEN, _table)
