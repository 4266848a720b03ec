"""Regeneration of every table in the paper's evaluation (§5).

Each ``tableN`` function returns ``(rows, text)``: the raw row dicts and a
formatted table whose layout mirrors the paper's.  A :class:`TableRunner`
holds the graph suite plus caches (exact baseline runs, per-technique
transformed plans) so regenerating all thirteen tables transforms each
graph at most once per technique — the paper's amortization argument,
operationalized.

Absolute numbers are simulator cycles/sim-seconds and will not match the
paper's K40C wall-clock; the *shape* (which technique helps which
algorithm/graph, by roughly what factor, at what accuracy cost) is the
reproduction target.  See EXPERIMENTS.md for the side-by-side record.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from .. import cache as repro_cache
from ..core.knobs import (
    CoalescingKnobs,
    DivergenceKnobs,
    SharedMemoryKnobs,
    recommended_cc_threshold,
    recommended_connectedness,
)
from ..core.pipeline import TECHNIQUES, ExecutionPlan, build_plan
from ..errors import TransformError
from ..graphs.csr import CSRGraph
from ..graphs.generators import paper_suite
from ..graphs.properties import clustering_coefficients, gini_of_degrees, graph_stats
from ..gpusim.device import DeviceConfig, K40C
from ..resilience.journal import RunJournal, cell_key, exact_row_key
from .harness import Harness
from .reporting import format_speedup_table, format_table

__all__ = [
    "TableRunner",
    "table1_graphs",
    "table2_baseline1_exact",
    "table3_tigr_exact",
    "table4_gunrock_exact",
    "table5_preprocessing",
    "table6_coalescing",
    "table7_shmem",
    "table8_divergence",
    "table9_coalescing_vs_tigr",
    "table10_shmem_vs_tigr",
    "table11_divergence_vs_tigr",
    "table12_coalescing_vs_gunrock",
    "table13_shmem_vs_gunrock",
    "table14_divergence_vs_gunrock",
    "table_combined",
    "ALL_ALGOS",
    "TIGR_GUNROCK_ALGOS",
]

ALL_ALGOS = ("sssp", "mst", "scc", "pr", "bc")
TIGR_GUNROCK_ALGOS = ("sssp", "pr", "bc")

#: timed builds per Table 5 cell; the cell reports their median
TABLE5_SAMPLES = 3


@dataclass
class TableRunner:
    """Shared state for regenerating the paper's tables on one suite.

    The resilience fields make a sweep survivable: ``journal`` checkpoints
    each completed cell (so ``--resume`` skips finished work), ``degrade``
    lets a failed transform fall back to the exact baseline with a
    footnoted ``degraded`` flag instead of aborting the run, and the
    ``parallel``/``max_retries``/``worker_timeout`` knobs route technique
    sweeps through the fault-tolerant process pool in
    :mod:`repro.eval.parallel`.  Every degraded or failed cell is appended
    to ``failures`` for the end-of-run summary.
    """

    scale: str = "tiny"
    seed: int = 7
    device: DeviceConfig = K40C
    num_bc_sources: int = 3
    suite: dict[str, CSRGraph] = field(default_factory=dict)
    harness: Harness = field(default=None)  # type: ignore[assignment]
    degrade: bool = True
    journal: RunJournal | None = None
    failures: list[dict] = field(default_factory=list)
    parallel: bool = False
    max_workers: int | None = None
    max_retries: int = 2
    worker_timeout: float | None = None
    cache_dir: str | None = None
    _plans: dict[tuple[str, str], ExecutionPlan] = field(default_factory=dict)
    _knob_cache: dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            # share transform/analytics artifacts across runs and workers
            # (see docs/caching.md); idempotent for a repeated directory
            repro_cache.configure(cache_dir=self.cache_dir)
        if not self.suite:
            self.suite = paper_suite(self.scale, seed=self.seed)
        if self.harness is None:
            self.harness = Harness(
                device=self.device, num_bc_sources=self.num_bc_sources, seed=self.seed
            )

    # ------------------------------------------------------------------
    def knobs_for(self, name: str) -> dict:
        """Per-graph knob defaults following the paper's guidelines:
        connectedness 0.6 for scale-free / 0.4 for road (§5.2), CC cut-off
        scaled to the graph's mean clustering (§5.3), degreeSim 0.3 (§5.4).
        """
        if name not in self._knob_cache:
            g = self.suite[name]
            gini = gini_of_degrees(g)
            cc = clustering_coefficients(g)
            self._knob_cache[name] = {
                "coalescing": CoalescingKnobs(
                    connectedness_threshold=recommended_connectedness(gini)
                ),
                "shmem": SharedMemoryKnobs(
                    cc_threshold=recommended_cc_threshold(cc)
                ),
                "divergence": DivergenceKnobs(),
            }
        return self._knob_cache[name]

    def plan_for(self, name: str, technique: str) -> ExecutionPlan:
        """Build (and cache) one graph's transformed plan.

        A transform failure is cached too — as the exception, re-raised on
        every lookup — so a degrading sweep does not rebuild a doomed plan
        once per algorithm.
        """
        key = (name, technique)
        if key not in self._plans:
            knobs = self.knobs_for(name)
            try:
                self._plans[key] = build_plan(
                    self.suite[name],
                    technique,
                    device=self.device,
                    coalescing=knobs["coalescing"],
                    shmem=knobs["shmem"],
                    divergence=knobs["divergence"],
                )
            except (TransformError, MemoryError) as exc:
                self._plans[key] = exc
        cached = self._plans[key]
        if isinstance(cached, BaseException):
            raise cached
        return cached

    # ------------------------------------------------------------------
    def cell_row(
        self, name: str, algo: str, technique: str, baseline: str
    ) -> dict:
        """One table cell as a flat row dict, degrading on transform failure."""
        graph = self.suite[name]
        try:
            plan = self.plan_for(name, technique)
            res = self.harness.run(
                graph, algo, technique, baseline=baseline, plan=plan,
                degrade=self.degrade,
            )
        except (TransformError, MemoryError) as exc:
            if not self.degrade:
                raise
            res = self.harness.degraded_result(
                graph, algo, baseline, reason=f"{type(exc).__name__}: {exc}"
            )
        row = {
            "algorithm": algo,
            "graph": name,
            "speedup": res.speedup,
            "inaccuracy_percent": res.inaccuracy_percent,
            "exact_cycles": res.exact_cycles,
            "approx_cycles": res.approx_cycles,
        }
        if res.degraded:
            row["degraded"] = True
            row["degraded_reason"] = res.degraded_reason
        return row

    def _note_failure(self, technique: str, baseline: str, row: dict) -> None:
        if row.get("degraded") or row.get("failed"):
            self.failures.append(
                {
                    "kind": "failed" if row.get("failed") else "degraded",
                    "technique": technique,
                    "baseline": baseline,
                    "algorithm": row["algorithm"],
                    "graph": row["graph"],
                    "reason": row.get("degraded_reason") or row.get("error", ""),
                }
            )

    def _technique_rows(
        self, technique: str, baseline: str, algorithms: tuple[str, ...]
    ) -> list[dict]:
        # validate upfront: degradation must never paper over a typo'd
        # technique name by silently rendering an all-exact table
        if technique not in TECHNIQUES:
            raise TransformError(
                f"unknown technique {technique!r}; choose from {TECHNIQUES}"
            )
        if self.parallel:
            from .parallel import parallel_technique_rows

            return parallel_technique_rows(
                technique,
                baseline=baseline,
                algorithms=algorithms,
                scale=self.scale,
                seed=self.seed,
                num_bc_sources=self.num_bc_sources,
                max_workers=self.max_workers,
                max_retries=self.max_retries,
                worker_timeout=self.worker_timeout,
                journal=self.journal,
                failures=self.failures,
                degrade=self.degrade,
                cache_dir=self.cache_dir,
            )
        rows = []
        for algo in algorithms:
            for name in self.suite:
                key = cell_key(
                    technique, baseline, algo, name,
                    self.scale, self.seed, self.num_bc_sources,
                )
                cached = self.journal.get("cell", key) if self.journal else None
                if cached is not None:
                    rows.append(cached)
                    continue
                row = self.cell_row(name, algo, technique, baseline)
                if self.journal is not None:
                    self.journal.record("cell", key, row)
                self._note_failure(technique, baseline, row)
                rows.append(row)
        return rows


# --------------------------------------------------------------------------
# Table 1: input graphs
# --------------------------------------------------------------------------
def table1_graphs(runner: TableRunner) -> tuple[list[dict], str]:
    rows = []
    for name, graph in runner.suite.items():
        st = graph_stats(graph)
        rows.append(
            {
                "graph": name,
                "nodes": st.num_nodes,
                "edges": st.num_edges,
                "mean_degree": st.mean_degree,
                "max_degree": st.max_degree,
                "degree_gini": st.degree_gini,
                "mean_cc": st.mean_clustering,
                "diameter_est": st.diameter_estimate,
            }
        )
    text = format_table(
        rows,
        [
            "graph",
            "nodes",
            "edges",
            "mean_degree",
            "max_degree",
            "degree_gini",
            "mean_cc",
            "diameter_est",
        ],
        title="Table 1: input graphs (scaled stand-ins, see DESIGN.md)",
    )
    return rows, text


# --------------------------------------------------------------------------
# Tables 2-4: exact baseline execution times
# --------------------------------------------------------------------------
def _exact_table(
    runner: TableRunner, baseline: str, algorithms: tuple[str, ...], title: str
) -> tuple[list[dict], str]:
    rows = []
    for name, graph in runner.suite.items():
        key = exact_row_key(
            baseline, name, algorithms,
            runner.scale, runner.seed, runner.num_bc_sources,
        )
        cached = runner.journal.get("exact_row", key) if runner.journal else None
        if cached is not None:
            rows.append(cached)
            continue
        row: dict = {"graph": name}
        for algo in algorithms:
            res = runner.harness.exact_run(graph, algo, baseline)
            row[f"{algo}_cycles"] = res.metrics.cycles
            row[f"{algo}_sim_seconds"] = res.metrics.seconds
        if runner.journal is not None:
            runner.journal.record("exact_row", key, row)
        rows.append(row)
    cols = ["graph"] + [f"{a}_sim_seconds" for a in algorithms]
    text = format_table(rows, cols, title=title, floatfmt="{:.6f}")
    return rows, text


def table2_baseline1_exact(runner: TableRunner) -> tuple[list[dict], str]:
    return _exact_table(
        runner,
        "baseline1",
        ALL_ALGOS,
        "Table 2: Baseline-I exact execution (sim seconds)",
    )


def table3_tigr_exact(runner: TableRunner) -> tuple[list[dict], str]:
    return _exact_table(
        runner,
        "tigr",
        TIGR_GUNROCK_ALGOS,
        "Table 3: Baseline-II (Tigr) exact execution (sim seconds)",
    )


def table4_gunrock_exact(runner: TableRunner) -> tuple[list[dict], str]:
    return _exact_table(
        runner,
        "gunrock",
        TIGR_GUNROCK_ALGOS,
        "Table 4: Baseline-III (Gunrock) exact execution (sim seconds)",
    )


# --------------------------------------------------------------------------
# Table 5: preprocessing overhead
# --------------------------------------------------------------------------
def table5_preprocessing(runner: TableRunner) -> tuple[list[dict], str]:
    """Each transform's offline cost, including the analytics it keys off.

    A cell is the median process-CPU time of :data:`TABLE5_SAMPLES`
    builds of the plan (:func:`_build_cpu_seconds`), each from a cold
    memo: one sample is too noisy to show a change in a transform.  The
    runner's own plan supplies the extra space and the degradation path.
    """
    rows = []
    for technique, label in (
        ("coalescing", "Improving coalescing"),
        ("shmem", "Reducing latency"),
        ("divergence", "Reducing thread divergence"),
    ):
        for name, graph in runner.suite.items():
            try:
                plan = runner.plan_for(name, technique)
            except (TransformError, MemoryError) as exc:
                if not runner.degrade:
                    raise
                rows.append(
                    {
                        "technique": label,
                        "graph": name,
                        "time_seconds": 0.0,
                        "extra_space_percent": 0.0,
                        "degraded": True,
                        "degraded_reason": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            rows.append(
                {
                    "technique": label,
                    "graph": name,
                    "time_seconds": _build_cpu_seconds(runner, name, technique),
                    "extra_space_percent": Harness._extra_space_percent(graph, plan),
                }
            )
    text = format_table(
        rows,
        ["technique", "graph", "time_seconds", "extra_space_percent"],
        title=(
            "Table 5: preprocessing overhead (process-CPU seconds of our "
            f"transforms, median of {TABLE5_SAMPLES} builds, each from a cold "
            "analytics memo)"
        ),
        floatfmt="{:.4f}",
    )
    return rows, text


def _build_cpu_seconds(runner: TableRunner, name: str, technique: str) -> float:
    """Median process-CPU seconds of :data:`TABLE5_SAMPLES` builds of one
    plan with the runner's knobs.

    The builds run under a scoped memory-only cache that is emptied before
    each one, so no sample reuses a plan or an analytics pass (the knob
    guidelines have just memoized the coefficients) and a configured
    artifact cache is neither read nor written.
    """
    knobs = runner.knobs_for(name)
    samples = []
    with repro_cache.memo.enabled() as cold:
        for _ in range(TABLE5_SAMPLES):
            cold.memory.clear()
            t0 = time.process_time()
            build_plan(
                runner.suite[name],
                technique,
                device=runner.device,
                coalescing=knobs["coalescing"],
                shmem=knobs["shmem"],
                divergence=knobs["divergence"],
            )
            samples.append(time.process_time() - t0)
    return statistics.median(samples)


# --------------------------------------------------------------------------
# Tables 6-8: techniques vs Baseline-I
# --------------------------------------------------------------------------
def table6_coalescing(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("coalescing", "baseline1", ALL_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 6: effect of memory coalescing (vs Baseline-I)"
    )


def table7_shmem(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("shmem", "baseline1", ALL_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 7: effect of shared memory (vs Baseline-I)"
    )


def table8_divergence(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("divergence", "baseline1", ALL_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 8: effect of thread divergence (vs Baseline-I)"
    )


def table_combined(runner: TableRunner) -> tuple[list[dict], str]:
    """Extension table (no paper counterpart): all three techniques
    composed, vs Baseline-I — quantifying §1's claim that the techniques
    "can be combined for improved benefits"."""
    rows = runner._technique_rows("combined", "baseline1", ALL_ALGOS)
    return rows, format_speedup_table(
        rows,
        title="Extension: combined coalescing+shmem+divergence (vs Baseline-I)",
    )


# --------------------------------------------------------------------------
# Tables 9-11: techniques vs Tigr
# --------------------------------------------------------------------------
def table9_coalescing_vs_tigr(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("coalescing", "tigr", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 9: effect of memory coalescing (vs Tigr)"
    )


def table10_shmem_vs_tigr(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("shmem", "tigr", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 10: effect of shared memory (vs Tigr)"
    )


def table11_divergence_vs_tigr(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("divergence", "tigr", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 11: effect of thread divergence (vs Tigr)"
    )


# --------------------------------------------------------------------------
# Tables 12-14: techniques vs Gunrock
# --------------------------------------------------------------------------
def table12_coalescing_vs_gunrock(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("coalescing", "gunrock", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 12: effect of memory coalescing (vs Gunrock)"
    )


def table13_shmem_vs_gunrock(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("shmem", "gunrock", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 13: effect of shared memory (vs Gunrock)"
    )


def table14_divergence_vs_gunrock(runner: TableRunner) -> tuple[list[dict], str]:
    rows = runner._technique_rows("divergence", "gunrock", TIGR_GUNROCK_ALGOS)
    return rows, format_speedup_table(
        rows, title="Table 14: effect of thread divergence (vs Gunrock)"
    )
