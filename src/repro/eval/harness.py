"""Exact-vs-approximate comparison harness.

One :func:`run_experiment` call reproduces one cell of the paper's Tables
6–14: run the chosen baseline's exact kernel on the original graph, run
the same kernel on the Graffix-transformed graph, and report

* **speedup** — exact simulated cycles / approximate simulated cycles
  (kernel time only, excluding preprocessing — matching the paper's
  measurement protocol, which amortizes the one-time transform), and
* **inaccuracy** — the paper's per-algorithm attribute metric.

Exact runs are memoized per (graph, algorithm, baseline, params) so a
table sweep does not recompute its baseline column for every technique.
They all run on one exact plan per graph, so the five algorithms share
that plan's full-sweep prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms.bc import pick_sources
from ..algorithms.common import plan_for
from ..baselines import BASELINES
from ..cache.keys import params_fingerprint
from ..cache.lru import LRUCache
from ..core.knobs import CoalescingKnobs, DivergenceKnobs, SharedMemoryKnobs
from ..core.pipeline import ExecutionPlan, build_plan
from ..errors import AlgorithmError, DegradedResult, ReproError, TransformError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..resilience.faults import fault_point
from .accuracy import attribute_inaccuracy, mst_inaccuracy, scc_inaccuracy

logger = get_logger("eval.harness")

__all__ = ["ExperimentResult", "Harness", "run_experiment"]


@dataclass(frozen=True)
class ExperimentResult:
    """One table cell: technique x algorithm x graph x baseline.

    ``degraded`` marks a cell whose approximation step failed and which
    fell back to the exact baseline (speedup 1.0, inaccuracy 0.0);
    ``degraded_reason`` records why, so tables can footnote the gap.
    """

    algorithm: str
    technique: str
    baseline: str
    speedup: float
    inaccuracy_percent: float
    exact_cycles: float
    approx_cycles: float
    exact_seconds: float
    approx_seconds: float
    preprocess_seconds: float
    extra_space_percent: float
    edges_added: int
    exact_iterations: int
    approx_iterations: int
    degraded: bool = False
    degraded_reason: str = ""


@dataclass
class Harness:
    """Caches exact baseline runs across experiments on the same graph.

    The cache is a small LRU (``exact_cache_size`` entries): a long sweep
    over many graphs would otherwise pin every exact result — values,
    aux arrays, metrics — in memory for the whole run.  Hits and misses
    are counted on the ``harness.exact_cache.{hit,miss}`` metrics (and
    ``...evict`` when the bound trims the oldest entry).  Exact runs
    share one exact plan per graph fingerprint (:meth:`exact_plan`),
    kept in an LRU of the same bound.
    """

    device: DeviceConfig = K40C
    source: int | None = None
    num_bc_sources: int = 4
    seed: int = 0
    exact_cache_size: int = 64
    _exact_cache: LRUCache = field(default=None, repr=False)  # type: ignore[assignment]
    _exact_plans: LRUCache = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._exact_cache is None:
            self._exact_cache = LRUCache(
                self.exact_cache_size, metric_prefix="harness.exact_cache"
            )
        if self._exact_plans is None:
            self._exact_plans = LRUCache(self.exact_cache_size)

    # ------------------------------------------------------------------
    def _source_for(self, graph: CSRGraph) -> int:
        """SSSP source: highest out-degree node unless pinned.

        GPU graph papers traverse from a well-connected source so the
        computation touches most of the graph; a random source in a
        directed graph can reach almost nothing and measure noise.
        """
        if self.source is not None:
            return self.source
        return int(np.argmax(graph.out_degrees()))

    def _baseline_params(self, graph: CSRGraph) -> dict:
        return {
            "source": self._source_for(graph),
            "bc_sources": pick_sources(
                graph.num_nodes, self.num_bc_sources, self.seed
            ),
            "seed": self.seed,
            "device": self.device,
        }

    def _exact_key(
        self, graph: CSRGraph, algorithm: str, baseline: str
    ) -> tuple:
        """Cache identity of one exact baseline run.

        Includes every :meth:`_baseline_params` input — resolved source,
        BC sources, seed, and the device model — so mutating a harness
        field between runs can never silently return a stale exact
        result computed under the old parameters.
        """
        return (
            graph.fingerprint(),
            algorithm,
            baseline,
            params_fingerprint(self._baseline_params(graph)),
        )

    def exact_plan(self, graph: CSRGraph) -> ExecutionPlan:
        """The exact (identity) plan every exact run on ``graph`` shares.

        One per graph fingerprint, so the baselines' solves on it reuse
        the plan's full-sweep memo instead of each pricing a fresh plan.
        """
        key = graph.fingerprint()
        plan = self._exact_plans.get(key)
        if plan is None:
            plan = plan_for(graph)
            self._exact_plans.put(key, plan)
        return plan

    def exact_run(self, graph: CSRGraph, algorithm: str, baseline: str):
        """Memoized exact baseline execution.

        Keyed on the graph's content fingerprint, not ``id(graph)`` — an
        id can be reused after GC, which would silently return a stale
        exact result for a different graph — plus the baseline params
        (see :meth:`_exact_key`).
        """
        key = self._exact_key(graph, algorithm, baseline)
        cached = self._exact_cache.get(key)
        if cached is not None:
            return cached
        module = BASELINES[baseline]
        if algorithm not in module.SUPPORTED:
            raise AlgorithmError(
                f"{baseline} does not support {algorithm!r}"
            )
        fault_point("baseline", f"{baseline}:{algorithm}")
        with obs_trace.span(
            "solve.exact_run", algorithm=algorithm, baseline=baseline
        ) as sp:
            result = module.run(
                algorithm, self.exact_plan(graph), **self._baseline_params(graph)
            )
        if sp is not None:
            sp.set(
                sim_cycles=result.metrics.cycles, iterations=result.iterations
            )
        self._exact_cache.put(key, result)
        return result

    def degraded_result(
        self, graph: CSRGraph, algorithm: str, baseline: str, *, reason: str
    ) -> ExperimentResult:
        """The graceful-degradation fallback for one failed cell.

        Degrading to ``technique="exact"`` means the cell reports the
        exact baseline against itself: speedup 1.0, inaccuracy 0.0, no
        preprocessing or extra space — an honest "no benefit here", with
        the flag and reason preserved for the table footnote.
        """
        obs_metrics.counter("harness.degraded").inc()
        logger.warning(
            "degrading %s/%s cell to exact: %s", algorithm, baseline, reason,
            extra={"algorithm": algorithm, "baseline": baseline},
        )
        obs_trace.add_attributes(degraded=True, degraded_reason=reason)
        exact = self.exact_run(graph, algorithm, baseline)
        cycles = exact.metrics.cycles
        return ExperimentResult(
            algorithm=algorithm,
            technique="exact",
            baseline=baseline,
            speedup=1.0,
            inaccuracy_percent=0.0,
            exact_cycles=cycles,
            approx_cycles=cycles,
            exact_seconds=exact.metrics.seconds,
            approx_seconds=exact.metrics.seconds,
            preprocess_seconds=0.0,
            extra_space_percent=0.0,
            edges_added=0,
            exact_iterations=exact.iterations,
            approx_iterations=exact.iterations,
            degraded=True,
            degraded_reason=reason,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        algorithm: str,
        technique: str,
        *,
        baseline: str = "baseline1",
        coalescing: CoalescingKnobs | None = None,
        shmem: SharedMemoryKnobs | None = None,
        divergence: DivergenceKnobs | None = None,
        plan: ExecutionPlan | None = None,
        degrade: bool = False,
    ) -> ExperimentResult:
        """One exact-vs-approximate comparison.

        ``plan`` short-circuits transform construction (useful when one
        transformed graph is reused across the five algorithms, which is
        the paper's amortization argument in action).

        With ``degrade=True`` a failed approximation step — the transform
        raising :class:`TransformError`/:class:`MemoryError`, or the
        approximate run reporting zero cycles — falls back to
        :meth:`degraded_result` instead of propagating, so a table sweep
        renders complete with footnoted gaps.
        """
        if baseline not in BASELINES:
            raise ReproError(
                f"unknown baseline {baseline!r}; choose from {sorted(BASELINES)}"
            )
        with obs_trace.span(
            "harness.run",
            algorithm=algorithm,
            technique=technique,
            baseline=baseline,
        ) as sp:
            result = self._run_cell(
                graph,
                algorithm,
                technique,
                baseline=baseline,
                coalescing=coalescing,
                shmem=shmem,
                divergence=divergence,
                plan=plan,
                degrade=degrade,
            )
        if sp is not None:
            sp.set(
                speedup=result.speedup,
                inaccuracy_percent=result.inaccuracy_percent,
                exact_cycles=result.exact_cycles,
                approx_cycles=result.approx_cycles,
                degraded=result.degraded,
            )
        obs_metrics.counter("harness.cells").inc()
        return result

    def _run_cell(
        self,
        graph: CSRGraph,
        algorithm: str,
        technique: str,
        *,
        baseline: str,
        coalescing: CoalescingKnobs | None,
        shmem: SharedMemoryKnobs | None,
        divergence: DivergenceKnobs | None,
        plan: ExecutionPlan | None,
        degrade: bool,
    ) -> ExperimentResult:
        module = BASELINES[baseline]
        exact = self.exact_run(graph, algorithm, baseline)

        try:
            if plan is None:
                plan = build_plan(
                    graph,
                    technique,
                    device=self.device,
                    coalescing=coalescing,
                    shmem=shmem,
                    divergence=divergence,
                )
            with obs_trace.span(
                "solve.approx_run",
                algorithm=algorithm,
                technique=technique,
                baseline=baseline,
            ) as sp:
                approx = module.run(
                    algorithm, plan, **self._baseline_params(graph)
                )
            if sp is not None:
                sp.set(
                    sim_cycles=approx.metrics.cycles,
                    iterations=approx.iterations,
                )
        except (TransformError, MemoryError) as exc:
            if not degrade:
                raise
            return self.degraded_result(
                graph, algorithm, baseline,
                reason=f"{type(exc).__name__}: {exc}",
            )

        inaccuracy = self._inaccuracy(algorithm, exact, approx)
        extra_space = self._extra_space_percent(graph, plan)
        exact_cycles = exact.metrics.cycles
        approx_cycles = approx.metrics.cycles
        if approx_cycles <= 0:
            # never emit an infinite speedup into tables/exports
            reason = "approximate run reported zero simulated cycles"
            if not degrade:
                raise DegradedResult(
                    f"{algorithm}/{technique}/{baseline}: {reason}"
                )
            return self.degraded_result(graph, algorithm, baseline, reason=reason)
        return ExperimentResult(
            algorithm=algorithm,
            technique=technique,
            baseline=baseline,
            speedup=exact_cycles / approx_cycles,
            inaccuracy_percent=inaccuracy,
            exact_cycles=exact_cycles,
            approx_cycles=approx_cycles,
            exact_seconds=exact.metrics.seconds,
            approx_seconds=approx.metrics.seconds,
            preprocess_seconds=plan.preprocess_seconds,
            extra_space_percent=extra_space,
            edges_added=plan.edges_added,
            exact_iterations=exact.iterations,
            approx_iterations=approx.iterations,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _inaccuracy(algorithm: str, exact, approx) -> float:
        if algorithm == "scc":
            assert exact.aux is not None and approx.aux is not None
            return scc_inaccuracy(
                int(exact.aux["num_components"]), int(approx.aux["num_components"])
            )
        if algorithm == "mst":
            assert exact.aux is not None and approx.aux is not None
            return mst_inaccuracy(
                float(exact.aux["weight"]), float(approx.aux["weight"])
            )
        return attribute_inaccuracy(exact.values, approx.values)

    @staticmethod
    def _extra_space_percent(graph: CSRGraph, plan: ExecutionPlan) -> float:
        if plan.technique == "exact":
            return 0.0
        if plan.graffix is not None:
            return 100.0 * plan.graffix.extra_space_fraction(graph)
        orig_words = graph.num_nodes + 1 + graph.num_edges * (
            2 if graph.is_weighted else 1
        )
        new_words = plan.graph.num_nodes + 1 + plan.graph.num_edges * (
            2 if plan.graph.is_weighted else 1
        )
        if plan.cluster_graph is not None:
            # the shared-memory staging copies occupy extra device memory
            new_words += plan.cluster_graph.num_edges
        return 100.0 * (new_words - orig_words) / orig_words


def run_experiment(
    graph: CSRGraph,
    algorithm: str,
    technique: str,
    *,
    baseline: str = "baseline1",
    device: DeviceConfig = K40C,
    **kwargs,
) -> ExperimentResult:
    """One-shot convenience wrapper around :class:`Harness`."""
    return Harness(device=device).run(
        graph, algorithm, technique, baseline=baseline, **kwargs
    )
