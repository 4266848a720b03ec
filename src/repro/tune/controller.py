"""The per-iteration adaptive controller over the Graffix knobs.

:class:`AdaptiveController` is a :class:`~repro.algorithms.common.Runner`
that monitors the :mod:`~repro.tune.proxies` during a solve and
tightens/loosens the *runtime counterparts* of the paper's knobs
against an :class:`ErrorBudget`.  It runs no loop of its own: it steers
:meth:`~repro.algorithms.common.Runner.fixed_point` through that loop's
two seams (:attr:`~repro.algorithms.common.Runner.margin_scale` and
:meth:`~repro.algorithms.common.Runner.after_sweep`) and appends its
extra local rounds through
:meth:`~repro.algorithms.common.Runner.cluster_rounds`:

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
:meth:`~repro.algorithms.common.Runner.fixed_point` grow by
:data:`MARGIN_GROWTH` per sweep (up to ``max_margin_scale``) while the
error pressure stays at or below :data:`LOOSEN_PRESSURE`, reset once it
reaches :data:`TIGHTEN_PRESSURE`, and the solve stops outright once the
residual mass stays below ``stop_fraction × target`` for
:data:`PATIENCE` sweeps.  For PageRank the same rule arrives through the
:meth:`~repro.algorithms.common.Runner.keep_iterating` seam as a
loosened effective tolerance.

Error pressure comes from the exact-sweep probe alone.  The probe needs
the plan's value space to be the original graph's, so it is off on
plans with replica slots (coalescing, combined): there the controller
only loosens.

**The infinite-budget contract**: with ``target_percent = inf`` (the
default) the controller is *disabled* — every override delegates
straight to :class:`Runner`, no proxy is computed, nothing extra is
charged, and the run is byte-identical to a static-knob run (values,
iterations, charged cycles).  There is no error signal to steer against,
so neither tightening nor loosening ever fires.
``tests/test_tune_equivalence.py`` pins this bit-for-bit, and
``tests/test_tune_adaptive_golden.py`` pins what finite budgets do.

BFS and BC accept the controller through the same ``runner_factory``
seam but execute statically under it.  BFS steps its levels through
:meth:`~repro.algorithms.common.Runner.advance` and BC charges its
lane-stacked Brandes passes on :attr:`Runner.ctx`; neither reaches the
seams the controller overrides (``fixed_point``'s, ``cluster_rounds``
and ``keep_iterating``).  Their tuned degradation path is the serve
ladder's knob overrides instead (``docs/tuning.md`` documents the reach
of each lever).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..algorithms.common import Runner, plan_for
from ..core.pipeline import ExecutionPlan
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import proxies

__all__ = ["ErrorBudget", "AdaptiveController", "adaptive_runner_factory"]

#: consecutive calm sweeps (residual under the stop threshold) before
#: the early stop
PATIENCE = 2
#: pressure (error proxy / target) at or below which the margins loosen
LOOSEN_PRESSURE = 0.5
#: pressure at or above which the controller tightens
TIGHTEN_PRESSURE = 1.0
#: per-sweep growth of the loosened envelope margin
MARGIN_GROWTH = 2.0


@dataclass(frozen=True)
class ErrorBudget:
    """Target inaccuracy budget + the controller gains the tuner searches.

    ``target_percent`` is in the units of the paper's inaccuracy metric
    (percent).  ``inf`` disables the controller entirely (see the
    infinite-budget contract above).  Every threshold scales with the
    target, so a tighter budget can only intervene more conservatively:
    stop later, loosen less, rectify more.
    """

    target_percent: float = math.inf
    #: run the charged exact-sweep probe every N global sweeps (0 = never)
    sample_every: int = 4
    #: early-stop once residual mass ≤ stop_fraction × target
    stop_fraction: float = 0.25
    #: cap of the envelope-margin loosening
    max_margin_scale: float = 4.0
    #: extra §3 local round batches per loosened sweep (0 = lever off)
    extra_local_rounds: int = 1

    def __post_init__(self) -> None:
        if not self.target_percent > 0:
            raise ValueError("target_percent must be positive (inf disables)")
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        if not 0.0 < self.stop_fraction <= 1.0:
            raise ValueError("stop_fraction must be in (0, 1]")
        if self.max_margin_scale < 1.0:
            raise ValueError("max_margin_scale must be >= 1")
        if self.extra_local_rounds < 0:
            raise ValueError("extra_local_rounds must be >= 0")

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
        exact_graph: CSRGraph | ExecutionPlan | None = None,
    ) -> None:
        super().__init__(plan, device)
        self.budget = budget if budget is not None else ErrorBudget()
        self.enabled = self.budget.enabled
        # the exact-sweep probe needs the original graph in the same
        # value space as the plan (replica renumbering breaks that, and
        # an exact plan's edges ARE the exact edges — nothing to probe);
        # a factory hands every runner one exact plan of that graph
        exact = plan_for(exact_graph) if exact_graph is not None else None
        if (
            exact is not None
            and plan.technique != "exact"
            and plan.graph.num_nodes == exact.graph.num_nodes
        ):
            self._exact: ExecutionPlan | None = exact
        else:
            self._exact = None
        self.margin_scale = 1.0
        self._tightened = False
        self._loosened = False
        # per-solve state of the monitored fixed point: the previous
        # sweep's values (None outside it), the calm-sweep run and
        # whether the next cluster_rounds call owes the loosened rounds
        self._prev: np.ndarray | None = None
        self._calm = 0
        self._extra_rounds_due = False
        #: per-run intervention tally (also mirrored to obs counters)
        self.interventions: dict[str, int] = {
            "loosen": 0,
            "tighten": 0,
            "early_stop": 0,
            "exact_samples": 0,
            "rectify": 0,
        }

    # ------------------------------------------------------------------
    def _bump(self, what: str) -> None:
        self.interventions[what] += 1
        obs_metrics.counter(f"tune.controller.{what}").inc()

    # ------------------------------------------------------------------
    # the monitored fixed point (SSSP-style monotone solves)
    # ------------------------------------------------------------------
    def _fixed_point(self, values: np.ndarray, relax, **kwargs) -> int:
        if not self.enabled:
            return super()._fixed_point(values, relax, **kwargs)
        self._prev = values.copy()
        self._calm = 0
        try:
            with obs_trace.span(
                "tune.adaptive", technique=self.plan.technique,
                target_percent=self.budget.target_percent,
            ):
                return super()._fixed_point(values, relax, **kwargs)
        finally:
            self._prev = None
            self._extra_rounds_due = False

    def after_sweep(
        self,
        values: np.ndarray,
        relax,
        iteration: int,
        envelope: np.ndarray | None,
    ) -> bool:
        if self._prev is None:
            return False
        b = self.budget
        reading = self._observe(self._prev, values, relax, iteration, envelope)
        np.copyto(self._prev, values)
        self._steer(reading)
        stop_at = b.stop_fraction * b.target_percent
        # budget-certified early stop: the residual says the solve is
        # only polishing within the error envelope
        if iteration >= 2 and reading.residual_percent <= stop_at:
            self._calm += 1
            if self._calm >= PATIENCE:
                self._bump("early_stop")
                return True
        else:
            self._calm = 0
        # loosened shmem knob: extra local rounds at shared rates displace
        # global sweeps — only while the solve is still converging
        # (polishing inside the calm zone would be pure overhead)
        self._extra_rounds_due = bool(
            self._loosened
            and b.extra_local_rounds
            and self.plan.has_clusters
            and reading.residual_percent > stop_at
        )
        return False

    def cluster_rounds(self, values: np.ndarray, relax) -> bool:
        changed = super().cluster_rounds(values, relax)
        if self._extra_rounds_due:
            self._extra_rounds_due = False
            self._bump("loosen")
            for _ in range(self.budget.extra_local_rounds):
                super().cluster_rounds(values, relax)
        return changed

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
        mismatch: float | None = None
        if b.sample_every and iteration % b.sample_every == 0:
            if self._exact is not None:
                exact = self._exact.edges
                # the probe is an honest exact sweep: charge it like one
                self.ctx.charge(None, subgraph=self._exact.graph)
                self._bump("exact_samples")
                mismatch = proxies.frontier_mismatch(
                    values, self.edges, exact, relax
                )
                obs_metrics.gauge("tune.proxy.mismatch").set(mismatch)
                if mismatch > b.target_percent:
                    # rectification: fold the exact sweep in —
                    # relaxations over real edges only remove drift
                    relax(exact, values)
                    if envelope is not None:
                        np.minimum(envelope, values, out=envelope)
                    self._bump("rectify")
        obs_metrics.gauge("tune.proxy.residual").set(residual)
        return proxies.ProxyReadings(
            residual_percent=residual, mismatch_percent=mismatch
        )

    def _steer(self, reading: proxies.ProxyReadings) -> None:
        b = self.budget
        pressure = reading.error_percent() / b.target_percent
        if pressure >= TIGHTEN_PRESSURE:
            if not self._tightened or self.margin_scale != 1.0:
                self._bump("tighten")
            self._tightened = True
            self._loosened = False
            self.margin_scale = 1.0
        elif pressure <= LOOSEN_PRESSURE:
            self._tightened = False
            self._loosened = True
            self.margin_scale = min(
                b.max_margin_scale, self.margin_scale * MARGIN_GROWTH
            )
        obs_metrics.gauge("tune.controller.margin_scale").set(self.margin_scale)

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
    exact_graph: CSRGraph | ExecutionPlan | None = None,
):
    """A ``runner_factory`` building :class:`AdaptiveController` runners.

    Mirrors :func:`repro.serve.deadline.deadline_runner_factory` — pass
    the result to any algorithm's ``runner_factory=`` parameter.
    ``exact_graph`` (the untransformed original) enables the
    frontier-mismatch probe and rectification.  Its runners share one
    exact plan, so the factory builds the exact edge view at most once.
    """
    exact = plan_for(exact_graph) if exact_graph is not None else None

    def factory(plan: ExecutionPlan, device: DeviceConfig) -> AdaptiveController:
        return AdaptiveController(plan, device, budget=budget, exact_graph=exact)

    return factory
