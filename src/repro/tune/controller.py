"""The per-iteration adaptive controller over the Graffix knobs.

:class:`AdaptiveController` is a :class:`~repro.algorithms.common.Runner`
that monitors the :mod:`~repro.tune.proxies` during a solve and
tightens/loosens the *runtime counterparts* of the paper's three knobs
against an :class:`ErrorBudget`:

* **coalescing aggressiveness** → the confluence operator.  The paper's
  mean-confluence is where replica drift enters (§2.4); when the
  disagreement/mismatch pressure exceeds the budget the controller
  merges with the budget's ``safe_operator`` (``min`` for the
  distance-like monotone solves it fires on) instead — replicas resolve
  instead of averaging, which can only remove drift.
* **shmem clustering** → the §3 local iteration count.  While the
  proxies run far below budget the controller appends extra local
  cluster rounds after each global sweep: intra-cluster convergence at
  shared-memory rates displaces expensive global sweeps.
* **divergence normalization** → rectification by exact signal.  Every
  ``sample_every`` iterations the controller charges and runs one sweep
  over the *original* graph's edges (the frontier-mismatch probe); if
  the mismatch exceeds the budget, the exact sweep's relaxations are
  folded into the solve — the cheap exact signal Hong et al. keep alive
  alongside the approximate one.

The generic *loosen* lever is early termination: the envelope margins of
:meth:`~repro.algorithms.common.Runner.fixed_point` widen geometrically
while pressure stays low, and the solve stops outright once the residual
mass stays below ``stop_fraction × target`` for ``patience`` sweeps.
For PageRank the same rule arrives through the
:meth:`~repro.algorithms.common.Runner.keep_iterating` seam as a
loosened effective tolerance.

**The infinite-budget contract**: with ``target_percent = inf`` (the
default) the controller is *disabled* — every override delegates
straight to :class:`Runner`, no proxy is computed, nothing extra is
charged, and the run is byte-identical to a static-knob run (values,
iterations, charged cycles).  There is no error signal to steer against,
so neither tightening nor loosening ever fires.
``tests/test_tune_equivalence.py`` pins this bit-for-bit.

BFS and BC accept the controller through the same ``runner_factory``
seam but execute statically under it.  BFS steps its levels through
:meth:`~repro.algorithms.common.Runner.advance` and BC charges its
lane-stacked Brandes passes on :attr:`Runner.ctx`; neither reaches the
three seams the controller overrides (``_fixed_point``, ``confluence``
and ``keep_iterating``).  Their tuned degradation path is the serve
ladder's knob overrides instead (``docs/tuning.md`` documents the reach
of each lever).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..algorithms.common import Runner
from ..core.confluence import CONFLUENCE_OPERATORS
from ..core.pipeline import ExecutionPlan
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.edgeshare import shared_edge_view
from . import proxies

__all__ = ["ErrorBudget", "AdaptiveController", "adaptive_runner_factory"]


@dataclass(frozen=True)
class ErrorBudget:
    """Target inaccuracy budget + controller gains.

    ``target_percent`` is in the units of the paper's inaccuracy metric
    (percent).  ``inf`` disables the controller entirely (see the
    infinite-budget contract above).  Every threshold scales with the
    target, so a tighter budget can only intervene more conservatively:
    stop later, loosen less, rectify and safe-merge more.
    """

    target_percent: float = math.inf
    #: run the charged exact-sweep probe every N global sweeps (0 = never)
    sample_every: int = 4
    #: early-stop once residual mass ≤ stop_fraction × target …
    stop_fraction: float = 0.25
    #: … for this many consecutive sweeps
    patience: int = 2
    #: pressure (error proxy / target) below which the margins loosen
    loosen_pressure: float = 0.5
    #: pressure at or above which the controller tightens
    tighten_pressure: float = 1.0
    #: cap and growth rate of the envelope-margin loosening
    max_margin_scale: float = 4.0
    margin_growth: float = 2.0
    #: extra §3 local round batches per loosened sweep (0 = lever off)
    extra_local_rounds: int = 1
    #: confluence operator substituted while tightened (monotone solves)
    safe_operator: str = "min"

    def __post_init__(self) -> None:
        if not self.target_percent > 0:
            raise ValueError("target_percent must be positive (inf disables)")
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        if not 0.0 < self.stop_fraction <= 1.0:
            raise ValueError("stop_fraction must be in (0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.loosen_pressure <= self.tighten_pressure:
            raise ValueError(
                "need 0 < loosen_pressure <= tighten_pressure"
            )
        if self.max_margin_scale < 1.0:
            raise ValueError("max_margin_scale must be >= 1")
        if self.margin_growth < 1.0:
            raise ValueError("margin_growth must be >= 1")
        if self.extra_local_rounds < 0:
            raise ValueError("extra_local_rounds must be >= 0")
        if self.safe_operator not in CONFLUENCE_OPERATORS:
            raise ValueError(
                f"unknown safe_operator {self.safe_operator!r}; choose from"
                f" {sorted(CONFLUENCE_OPERATORS)}"
            )

    @property
    def enabled(self) -> bool:
        """Finite budgets steer; an infinite budget is the identity."""
        return math.isfinite(self.target_percent)


class AdaptiveController(Runner):
    """A Runner that steers the knobs' runtime levers against a budget."""

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceConfig = K40C,
        *,
        budget: ErrorBudget | None = None,
        exact_graph: CSRGraph | None = None,
    ) -> None:
        super().__init__(plan, device)
        self.budget = budget if budget is not None else ErrorBudget()
        self.enabled = self.budget.enabled
        # the exact-sweep probe needs the original graph in the same
        # value space as the plan (replica renumbering breaks that, and
        # an exact plan's edges ARE the exact edges — nothing to probe)
        if (
            exact_graph is not None
            and plan.technique != "exact"
            and plan.graph.num_nodes == exact_graph.num_nodes
        ):
            self._exact_graph: CSRGraph | None = exact_graph
        else:
            self._exact_graph = None
        self._exact_edges = None
        self._margin_scale = 1.0
        self._tightened = False
        self._loosened = False
        self._monotone_solve = False
        #: per-run intervention tally (also mirrored to obs counters)
        self.interventions: dict[str, int] = {
            "loosen": 0,
            "tighten": 0,
            "early_stop": 0,
            "safe_merges": 0,
            "exact_samples": 0,
            "rectify": 0,
        }

    # ------------------------------------------------------------------
    def _exact_edge_view(self):
        if self._exact_graph is None:
            return None
        if self._exact_edges is None:
            self._exact_edges = shared_edge_view(self._exact_graph)
        return self._exact_edges

    def _bump(self, what: str) -> None:
        self.interventions[what] += 1
        obs_metrics.counter(f"tune.controller.{what}").inc()

    # ------------------------------------------------------------------
    # lever 1: coalescing aggressiveness (the confluence operator)
    # ------------------------------------------------------------------
    def confluence(self, values: np.ndarray, operator: str | None = None) -> None:
        if (
            self.enabled
            and self._tightened
            and self._monotone_solve
            and operator is None
            and self.plan.graffix is not None
        ):
            self._bump("safe_merges")
            super().confluence(values, operator=self.budget.safe_operator)
            return
        super().confluence(values, operator=operator)

    # ------------------------------------------------------------------
    # the monitored fixed point (SSSP-style monotone solves)
    # ------------------------------------------------------------------
    def _fixed_point(
        self,
        values: np.ndarray,
        relax,
        *,
        max_iterations: int,
        improvement_atol: float,
        improvement_rtol: float,
    ) -> int:
        if not self.enabled:
            return super()._fixed_point(
                values,
                relax,
                max_iterations=max_iterations,
                improvement_atol=improvement_atol,
                improvement_rtol=improvement_rtol,
            )
        return self._adaptive_fixed_point(
            values,
            relax,
            max_iterations=max_iterations,
            improvement_atol=improvement_atol,
            improvement_rtol=improvement_rtol,
        )

    def _adaptive_fixed_point(
        self,
        values: np.ndarray,
        relax,
        *,
        max_iterations: int,
        improvement_atol: float,
        improvement_rtol: float,
    ) -> int:
        b = self.budget
        approximate = self.plan.has_replicas
        envelope = values.copy() if approximate else None
        prev = values.copy()
        calm = 0
        iterations = 0
        self._monotone_solve = True
        try:
            with obs_trace.span(
                "tune.adaptive", technique=self.plan.technique,
                target_percent=b.target_percent,
            ):
                while iterations < max_iterations:
                    iterations += 1
                    changed = self.sweep(values, relax, merge=False)
                    improved_any = True
                    if approximate:
                        assert envelope is not None
                        margin = (
                            improvement_atol
                            + improvement_rtol
                            * np.where(
                                np.isfinite(envelope), np.abs(envelope), 0.0
                            )
                        ) * self._margin_scale
                        improved_any = bool((values < envelope - margin).any())
                        np.minimum(envelope, values, out=envelope)
                        self.confluence(values)
                        np.minimum(envelope, values, out=envelope)
                    reading = self._observe(
                        prev, values, relax, iterations, envelope
                    )
                    np.copyto(prev, values)
                    self._steer(reading)
                    # budget-certified early stop: the residual says the
                    # solve is only polishing within the error envelope
                    if (
                        iterations >= 2
                        and reading.residual_percent
                        <= b.stop_fraction * b.target_percent
                    ):
                        calm += 1
                        if calm >= b.patience:
                            self._bump("early_stop")
                            break
                    else:
                        calm = 0
                    if approximate:
                        if not improved_any:
                            break
                    elif not changed:
                        break
                    self.cluster_rounds(values, relax)
                    if (
                        self._loosened
                        and b.extra_local_rounds
                        and self.plan.has_clusters
                        and reading.residual_percent
                        > b.stop_fraction * b.target_percent
                    ):
                        # loosened shmem knob: extra local rounds at
                        # shared rates displace global sweeps — only
                        # while the solve is still converging (polishing
                        # inside the calm zone would be pure overhead)
                        self._bump("loosen")
                        for _ in range(b.extra_local_rounds):
                            self.cluster_rounds(values, relax)
        finally:
            self._monotone_solve = False
        return iterations

    # ------------------------------------------------------------------
    def _observe(
        self,
        prev: np.ndarray,
        values: np.ndarray,
        relax,
        iteration: int,
        envelope: np.ndarray | None,
    ) -> proxies.ProxyReadings:
        b = self.budget
        residual = proxies.residual_mass(prev, values)
        disagreement = (
            proxies.replica_disagreement(values, self.plan.graffix)
            if self.plan.graffix is not None
            else 0.0
        )
        mismatch: float | None = None
        if b.sample_every and iteration % b.sample_every == 0:
            exact = self._exact_edge_view()
            if exact is not None:
                # the probe is an honest exact sweep: charge it like one
                self.ctx.charge(None, subgraph=self._exact_graph)
                self._bump("exact_samples")
                mismatch = proxies.frontier_mismatch(
                    values, self.edges, exact, relax
                )
                obs_metrics.gauge("tune.proxy.mismatch").set(mismatch)
                if mismatch > b.target_percent:
                    # rectification (lever 3): fold the exact sweep in —
                    # relaxations over real edges only remove drift
                    relax(exact, values)
                    if envelope is not None:
                        np.minimum(envelope, values, out=envelope)
                    self._bump("rectify")
        obs_metrics.gauge("tune.proxy.residual").set(residual)
        obs_metrics.gauge("tune.proxy.disagreement").set(disagreement)
        return proxies.ProxyReadings(
            residual_percent=residual,
            disagreement_percent=disagreement,
            mismatch_percent=mismatch,
        )

    def _steer(self, reading: proxies.ProxyReadings) -> None:
        b = self.budget
        pressure = reading.error_percent() / b.target_percent
        if pressure >= b.tighten_pressure:
            if not self._tightened or self._margin_scale != 1.0:
                self._bump("tighten")
            self._tightened = True
            self._loosened = False
            self._margin_scale = 1.0
        elif pressure <= b.loosen_pressure:
            self._tightened = False
            self._loosened = True
            self._margin_scale = min(
                b.max_margin_scale, self._margin_scale * b.margin_growth
            )
        obs_metrics.gauge("tune.controller.margin_scale").set(self._margin_scale)

    # ------------------------------------------------------------------
    # residual-driven loops (PageRank): the loosened effective tolerance
    # ------------------------------------------------------------------
    def keep_iterating(self, delta: float, tol: float) -> bool:
        if not self.enabled:
            return super().keep_iterating(delta, tol)
        b = self.budget
        # PageRank mass sums to ~1, so the L1 delta *is* the residual
        # mass fraction; the budget maps onto it as an effective tol
        obs_metrics.gauge("tune.proxy.residual").set(100.0 * delta)
        effective_tol = max(tol, b.stop_fraction * b.target_percent / 100.0)
        cont = bool(delta > effective_tol)
        if not cont and delta > tol:
            self._bump("early_stop")
        return cont


def adaptive_runner_factory(
    budget: ErrorBudget | None = None,
    *,
    exact_graph: CSRGraph | None = None,
):
    """A ``runner_factory`` building :class:`AdaptiveController` runners.

    Mirrors :func:`repro.serve.deadline.deadline_runner_factory` — pass
    the result to any algorithm's ``runner_factory=`` parameter.
    ``exact_graph`` (the untransformed original) enables the
    frontier-mismatch probe and rectification.
    """

    def factory(plan: ExecutionPlan, device: DeviceConfig) -> AdaptiveController:
        return AdaptiveController(
            plan, device, budget=budget, exact_graph=exact_graph
        )

    return factory
