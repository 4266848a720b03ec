"""The paper's three exact baseline framework styles.

* Baseline-I  — :mod:`.lonestar` (LonestarGPU family, topology-driven)
* Baseline-II — :mod:`.tigr` (virtual-node splitting)
* Baseline-III — :mod:`.gunrock` (frontier-driven)

Each module exposes ``run(algorithm, graph_or_plan, **params)``; passing a
Graffix :class:`~repro.core.pipeline.ExecutionPlan` instead of a raw graph
yields the corresponding "approximate Graffix inside this framework" run.
"""

from . import gunrock, lonestar, tigr

BASELINES = {
    "baseline1": lonestar,
    "tigr": tigr,
    "gunrock": gunrock,
}

#: algorithms each baseline supports (paper Tables 2-4)
BASELINE_ALGORITHMS = {
    "baseline1": lonestar.SUPPORTED,
    "tigr": tigr.SUPPORTED,
    "gunrock": gunrock.SUPPORTED,
}

__all__ = ["BASELINES", "BASELINE_ALGORITHMS", "gunrock", "lonestar", "tigr"]
