"""Differential (cross-implementation) checks.

Two independent paths to the same answer must agree *byte for byte* —
both in solver values and in the simulated cost charges — or one of them
is wrong:

* :func:`check_bc_oracle` — BC scores on an exact plan against the
  independent networkx Brandes oracle
  (:func:`repro.algorithms.exact.exact_bc`);
* :func:`check_cache_differential` — an uncached plan build against a
  cold-store build and a warm disk-tier reload (``--cache-dir``);
* :func:`check_serial_parallel` — ``TableRunner``'s in-process sweep
  against the fault-tolerant process pool in :mod:`repro.eval.parallel`;
* :func:`check_schedules` — push-pinned, pull-pinned and
  direction-optimizing sweep schedules against the unscheduled kernels
  (values and iterations byte-equal everywhere; push-pinned charges
  additionally bit-identical to no schedule at all);
* :func:`check_batched` — BC's stacked multi-source sweep
  (:mod:`repro.perf.batched`) against per-source loops: an S-source run
  must equal its sources run one by one on a shared runner — values,
  iteration count and cost-model charges — over adversarial source sets
  (single source, pairs, duplicates, more than half the graph).

``preprocess_seconds`` is the one field deliberately excluded from plan
comparisons: it is wall-clock and legitimately differs between runs.
"""

from __future__ import annotations

import numpy as np

from ..algorithms.bc import betweenness_centrality, pick_sources
from ..algorithms.common import AlgorithmResult, Runner, plan_for
from ..algorithms.sssp import sssp
from ..cache import memo
from ..core.pipeline import ExecutionPlan, build_plan
from ..eval.parallel import parallel_technique_rows
from ..eval.tables import TableRunner
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from .invariants import Violation

__all__ = [
    "check_batched",
    "check_bc_lanes",
    "check_bc_oracle",
    "check_cache_differential",
    "check_schedules",
    "check_serial_parallel",
    "plans_identical",
]


def _arrays_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def _graphs_identical(a: CSRGraph | None, b: CSRGraph | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return (
        a.num_nodes == b.num_nodes
        and _arrays_equal(a.offsets, b.offsets)
        and _arrays_equal(a.indices, b.indices)
        and _arrays_equal(a.weights, b.weights)
    )


def plans_identical(a: ExecutionPlan, b: ExecutionPlan) -> list[str]:
    """Field-by-field byte comparison of two plans' *execution* state.

    Transform intermediates (``_shmem``/``_divergence``, the renumbering
    details inside ``graffix``) are not compared: the disk tier round-trips
    plans through :mod:`repro.core.serialize`, which keeps everything a
    runner reads but reconstructs those provenance records degenerately.
    ``preprocess_seconds`` is wall-clock and excluded by design.
    """
    diffs: list[str] = []
    if a.technique != b.technique:
        diffs.append("technique")
    if a.num_original != b.num_original:
        diffs.append("num_original")
    if a.edges_added != b.edges_added:
        diffs.append("edges_added")
    if a.confluence_operator != b.confluence_operator:
        diffs.append("confluence_operator")
    if a.local_iterations != b.local_iterations:
        diffs.append("local_iterations")
    if not _graphs_identical(a.graph, b.graph):
        diffs.append("graph")
    if not _arrays_equal(a.order, b.order):
        diffs.append("order")
    if not _arrays_equal(a.resident_mask, b.resident_mask):
        diffs.append("resident_mask")
    if not _graphs_identical(a.cluster_graph, b.cluster_graph):
        diffs.append("cluster_graph")
    ga, gb = a.graffix, b.graffix
    if (ga is None) != (gb is None):
        diffs.append("graffix")
    elif ga is not None and gb is not None:
        if (
            ga.num_original != gb.num_original
            or ga.chunk_size != gb.chunk_size
            or not _arrays_equal(ga.rep_of, gb.rep_of)
            or not _arrays_equal(ga.primary_slot, gb.primary_slot)
        ):
            diffs.append("graffix")
    return diffs


def _results_identical(a, b, what: str) -> list[Violation]:
    v: list[Violation] = []
    if not np.array_equal(a.values, b.values):
        v.append(
            Violation(f"differential.{what}", "solver values are not byte-equal")
        )
    if a.iterations != b.iterations:
        v.append(
            Violation(
                f"differential.{what}",
                f"iteration counts differ ({a.iterations} vs {b.iterations})",
            )
        )
    sa, sb = a.metrics.summary(), b.metrics.summary()
    if sa != sb:
        keys = sorted(k for k in set(sa) | set(sb) if sa.get(k) != sb.get(k))
        v.append(
            Violation(
                f"differential.{what}",
                f"simulated charges differ on {keys}",
            )
        )
    if a.metrics.num_sweeps != b.metrics.num_sweeps:
        v.append(
            Violation(
                f"differential.{what}",
                f"sweep counts differ ({a.metrics.num_sweeps} vs"
                f" {b.metrics.num_sweeps})",
            )
        )
    return v


# ---------------------------------------------------------------------------
def check_bc_oracle(
    graph: CSRGraph,
    *,
    seed: int = 0,
    device: DeviceConfig = K40C,
) -> list[Violation]:
    """Exact-plan BC scores must match networkx-based Brandes.

    :func:`~repro.algorithms.exact.exact_bc` shares no code with the
    stacked kernel; the scores agree to float reassociation.
    """
    from ..algorithms.exact import exact_bc

    sources = pick_sources(graph.num_nodes, min(4, graph.num_nodes), seed)
    got = betweenness_centrality(graph, sources=sources, device=device).values
    want = exact_bc(graph, sources)
    if np.allclose(got, want, rtol=1e-9, atol=1e-9):
        return []
    worst = int(np.argmax(np.abs(got - want)))
    return [
        Violation(
            "oracle.bc",
            f"node {worst}: kernel {got[worst]!r} vs oracle {want[worst]!r}",
        )
    ]


# ---------------------------------------------------------------------------
def check_schedules(
    graph: CSRGraph,
    *,
    technique: str = "exact",
    seed: int = 0,
    device: DeviceConfig = K40C,
) -> list[Violation]:
    """Sweep schedules must never change what a kernel computes.

    Runs BFS, SSSP, PageRank, BC and Gunrock's frontier-driven SSSP and
    PageRank-delta under push-pinned, pull-pinned and
    direction-optimizing schedules and diffs values + iteration counts
    against the unscheduled run; the push-pinned run must additionally
    reproduce the unscheduled charges bit-for-bit (it is the same code
    path by contract).
    """
    from ..algorithms.bfs import bfs
    from ..algorithms.pagerank import pagerank
    from ..baselines.gunrock import pagerank_delta, sssp_frontier

    target: CSRGraph | ExecutionPlan = graph
    if technique != "exact":
        target = build_plan(graph, technique, device=device)
    source = int(np.argmax(graph.out_degrees()))
    sources = pick_sources(graph.num_nodes, min(3, graph.num_nodes), seed)
    kernels = {
        "bfs": lambda s: bfs(target, source, device=device, schedule=s),
        "sssp": lambda s: sssp(target, source, device=device, schedule=s),
        "pagerank": lambda s: pagerank(target, device=device, schedule=s),
        "bc": lambda s: betweenness_centrality(
            target, sources=sources, device=device, schedule=s
        ),
        "sssp_frontier": lambda s: sssp_frontier(
            target, source, device=device, schedule=s
        ),
        "pagerank_delta": lambda s: pagerank_delta(
            target, device=device, schedule=s
        ),
    }
    v: list[Violation] = []
    for kname, run in kernels.items():
        base = run(None)
        for spec in ("push", "pull", "direction-optimizing"):
            res = run(spec)
            what = f"schedules.{technique}.{kname}.{spec}"
            if (
                res.values.dtype != base.values.dtype
                or res.values.tobytes() != base.values.tobytes()
            ):
                v.append(
                    Violation(
                        f"differential.{what}",
                        "scheduled values are not byte-equal to unscheduled",
                    )
                )
            if res.iterations != base.iterations:
                v.append(
                    Violation(
                        f"differential.{what}",
                        f"iteration counts differ ({res.iterations} vs"
                        f" {base.iterations})",
                    )
                )
            if spec == "push":
                v += _results_identical(res, base, what)
    return v


# ---------------------------------------------------------------------------
def check_batched(
    graph: CSRGraph,
    *,
    technique: str = "exact",
    seed: int = 0,
    device: DeviceConfig = K40C,
) -> list[Violation]:
    """BC's stacked multi-source sweep must decompose into its looped runs.

    An S-source BC run must equal the same sources run one by one
    (:func:`check_bc_lanes`) — values, iteration count, *and* the
    cost-model charges — with and without the direction-optimizing
    schedule.  Source sets are chosen adversarially: a single source, a
    pair, a set with duplicate sources, and one covering more than half
    the graph.
    """
    target: CSRGraph | ExecutionPlan = graph
    if technique != "exact":
        target = build_plan(graph, technique, device=device)
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    hub = int(np.argmax(graph.out_degrees()))
    source_sets = [
        ("single", [hub]),
        ("pair", sorted({hub, int(rng.integers(n))})),
        ("dup", [hub, hub]),
        ("wide", rng.choice(n, size=min(n, n // 2 + 1), replace=False).tolist()),
    ]

    v: list[Violation] = []
    for schedule in (None, "direction-optimizing"):
        sched_tag = schedule or "none"
        for set_name, srcs in source_sets:
            v += check_bc_lanes(
                target, srcs, device=device, schedule=schedule,
                what=f"batched.{technique}.{sched_tag}.{set_name}.bc",
            )
    return v


def check_bc_lanes(
    target: CSRGraph | ExecutionPlan,
    sources,
    *,
    device: DeviceConfig = K40C,
    what: str = "bc_lanes",
    **bc_kwargs,
) -> list[Violation]:
    """An S-source BC run against its sources run one by one.

    The solo runs share one runner, so its ledger folds their charges in
    source order — the S-lane run's ledger must match it bit for bit.
    Scores are per-source dependency sums added in source order, so the
    running sum of the solo scores must match byte for byte too.
    ``bc_kwargs`` (``schedule``, ``topology_driven``) go to every run.
    """
    plan = plan_for(target)
    stacked = betweenness_centrality(
        plan, sources=sources, device=device, **bc_kwargs
    )
    shared = Runner(plan, device)
    values = np.zeros(plan.num_original)
    iterations = 0
    for s in sources:
        solo = betweenness_centrality(
            plan, sources=[int(s)], device=device,
            runner_factory=lambda p, d: shared, **bc_kwargs,
        )
        values += solo.values
        iterations += solo.iterations
    looped = AlgorithmResult(values, shared.metrics, iterations)
    return _results_identical(stacked, looped, what)


# ---------------------------------------------------------------------------
def check_cache_differential(
    graph: CSRGraph,
    technique: str,
    cache_dir: str,
    *,
    device: DeviceConfig = K40C,
) -> list[Violation]:
    """Uncached, cold-store, and warm-reload plans must be interchangeable.

    Three builds: one with the cache disabled, one that populates
    ``cache_dir`` (cold), and one in a *fresh* cache config over the same
    directory — so the memory tier is empty and the plan must round-trip
    through the disk store.  All three must execute identically.
    """
    v: list[Violation] = []
    with memo.enabled(None):  # force-disable any ambient cache config
        memo.disable()
        uncached = build_plan(graph, technique, device=device)
    with memo.enabled(cache_dir):
        cold = build_plan(graph, technique, device=device)
    with memo.enabled(cache_dir):
        warm = build_plan(graph, technique, device=device)

    for name, other in (("cold", cold), ("warm", warm)):
        diffs = plans_identical(uncached, other)
        if diffs:
            v.append(
                Violation(
                    "differential.cache.plan",
                    f"{name} {technique} plan differs from uncached on"
                    f" fields {diffs}",
                )
            )
    if v:
        return v

    source = int(np.argmax(graph.out_degrees()))
    runs = [sssp(p, source, device=device) for p in (uncached, cold, warm)]
    for name, run in zip(("cold", "warm"), runs[1:]):
        v += [
            Violation(x.oracle.replace("differential.", "differential.cache."), x.message)
            for x in _results_identical(runs[0], run, f"{name}.{technique}")
        ]
    return v


# ---------------------------------------------------------------------------
def check_serial_parallel(
    *,
    technique: str = "divergence",
    scale: str = "tiny",
    seed: int = 7,
    baseline: str = "baseline1",
    algorithms: tuple[str, ...] = ("sssp", "pr"),
) -> list[Violation]:
    """The process-pool sweep must reproduce the serial rows byte-for-byte."""
    runner = TableRunner(scale=scale, seed=seed, parallel=False, degrade=True)
    serial = runner._technique_rows(technique, baseline, algorithms)
    parallel = parallel_technique_rows(
        technique,
        baseline=baseline,
        algorithms=algorithms,
        scale=scale,
        seed=seed,
        num_bc_sources=runner.num_bc_sources,
        degrade=True,
    )
    key = lambda r: (r["algorithm"], r["graph"])  # noqa: E731
    serial = sorted(serial, key=key)
    parallel = sorted(parallel, key=key)
    v: list[Violation] = []
    if [key(r) for r in serial] != [key(r) for r in parallel]:
        v.append(
            Violation(
                "differential.parallel",
                "serial and parallel sweeps produced different cell sets",
            )
        )
        return v
    for s, p in zip(serial, parallel):
        fields = sorted(
            f for f in set(s) | set(p) if s.get(f) != p.get(f)
        )
        if fields:
            v.append(
                Violation(
                    "differential.parallel",
                    f"cell {key(s)} differs on {fields}",
                )
            )
    return v
