"""Adaptive correction: runtime error control + the offline knob tuner.

Graffix fixes its three approximation knobs offline; GraphGuess
(PAPERS.md) shows the aggressiveness can instead be adapted *during*
execution against a runtime error budget, and Hong et al. motivate
keeping a cheap exact signal alive alongside the approximate sweeps.
This package supplies both halves:

* :mod:`repro.tune.proxies` — the cheap per-iteration error proxies
  (residual mass and frontier mismatch against a sampled exact sweep,
  which the controller reads, and replica disagreement);
* :mod:`repro.tune.controller` — :class:`AdaptiveController`, a
  :class:`~repro.algorithms.common.Runner` that steers the knobs'
  runtime counterparts against an :class:`ErrorBudget` through the
  runner's own fixed-point seams, plugged into every algorithm through
  the existing ``runner_factory`` seam;
* :mod:`repro.tune.search` — the offline auto-tuner behind
  ``python -m repro tune``: per graph family it searches the
  knob × schedule space, layers the controller on the winner, caches
  winning configs through :mod:`repro.cache` and emits
  ``BENCH_TUNE.json``;
* :mod:`repro.tune.cli` — the CLI entry point.

See ``docs/tuning.md`` for the controller design and budget semantics.
"""

from .controller import AdaptiveController, ErrorBudget, adaptive_runner_factory
from .proxies import ProxyReadings, frontier_mismatch, replica_disagreement, residual_mass
from .search import run_tune, serve_overrides, tune_family

__all__ = [
    "AdaptiveController",
    "ErrorBudget",
    "ProxyReadings",
    "adaptive_runner_factory",
    "frontier_mismatch",
    "replica_disagreement",
    "residual_mass",
    "run_tune",
    "serve_overrides",
    "tune_family",
]
