"""Graffix reproduction: approximate graph transforms for GPU-style execution.

Reproduces Singh & Nasre, *"Graffix: Efficient Graph Processing with a
Tinge of GPU-Specific Approximations"* (ICPP 2020) in pure Python:

* :mod:`repro.graphs`  — CSR graph substrate + synthetic input suite
* :mod:`repro.gpusim`  — warp-level GPU execution simulator (cost model)
* :mod:`repro.core`    — the paper's three approximate transforms
* :mod:`repro.algorithms` — SSSP, MST, SCC, PR, BC on the simulator
* :mod:`repro.baselines`  — LonestarGPU- / Tigr- / Gunrock-style kernels
* :mod:`repro.eval`    — inaccuracy metrics, harness, Tables 1-14, Figs 7-9
* :mod:`repro.resilience` — checkpoint journal, worker retry, fault injection
* :mod:`repro.cache`   — content-addressed transform/analytics artifact cache
* :mod:`repro.verify`  — structural/metamorphic/differential/golden oracles

Quickstart::

    from repro import graphs, core, algorithms, eval as ev

    g = graphs.rmat(10, edge_factor=8, seed=1)
    plan = core.build_plan(g, "coalescing")
    approx = algorithms.sssp(plan, source=0)
    exact = algorithms.sssp(g, source=0)
    print(exact.cycles / approx.cycles,           # simulated speedup
          ev.attribute_inaccuracy(exact.values, approx.values))
"""

import importlib

from .errors import (
    AlgorithmError,
    CacheError,
    DegradedResult,
    FaultInjected,
    GraphFormatError,
    KnobError,
    ReproError,
    ResilienceError,
    SimulationError,
    TransformError,
    VerificationError,
    WorkerTimeout,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmError",
    "CacheError",
    "DegradedResult",
    "FaultInjected",
    "GraphFormatError",
    "KnobError",
    "ReproError",
    "ResilienceError",
    "SimulationError",
    "TransformError",
    "VerificationError",
    "WorkerTimeout",
    "algorithms",
    "baselines",
    "cache",
    "core",
    "eval",
    "graphs",
    "gpusim",
    "resilience",
    "verify",
]


def __getattr__(name: str):
    # The subpackages in __all__ load on first use (PEP 562), so
    # ``import repro.tune`` loads only what the tuner imports, not
    # ``repro.verify``; the exception names are bound above.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
