"""``python -m repro perf``: host-kernel wall-clock benchmark.

Times the solver hot paths per algorithm × graph at a fixed suite scale
and emits a JSON report (``BENCH_PR4.json`` by convention) — the
repo's tracked perf trajectory.

Regression gating (the redisbench-style committed-baseline pattern)::

    python -m repro perf --scale small --out BENCH_PR4.json \
        --check benchmarks/results/perf_baseline_ci.json --max-regression 2.0

``--check`` compares each kernel's measured seconds against the
committed baseline and exits non-zero on any kernel slower than
``max-regression`` times its baseline; ``--min-bc-speedup`` additionally
gates BC's best per-graph ``bc@batched`` speedup over the same sources
run one call at a time.

Each row also carries its raw per-repeat ``samples`` (so ``python -m
repro obs diff`` can derive noise-aware thresholds from the actual
spread instead of a fixed ratio) and per-sweep efficiency metrics from
the simulator's charged ledger: ``sweeps``, ``sim_seconds`` (charged
SweepCost converted to device seconds, against the measured wall-clock),
``sim_cycles_per_second`` (charged throughput), and
``frontier_occupancy`` (busy lane-steps over total — the paper's warp
efficiency, 1 − divergence).

Every row names its sweep ``schedule`` (``fixed-push`` unless
``--schedule`` pins another — see :mod:`repro.perf.schedule`), and two
comparison rows per graph, ``bfs@diropt`` and ``bc@diropt``, run the
direction-optimizing policy against the fixed-push base rows; their
``speedup_vs_fixed_push`` is the paper-style win from switching to
bottom-up sweeps once frontiers densify.  Two more comparison rows,
``bc@batched`` and ``sssp@batched``, stack ``--batch-sources`` sources
into one multi-source sweep (:mod:`repro.perf.batched`) and time the
same sources as one single-source call each; ``speedup_vs_looped`` is
the batching win, with answers and charges proven bit-identical by
``differential:batched``.

Two more comparison rows, ``sssp@tuned`` and ``pagerank@tuned``, run
the same workload under the adaptive controller
(:mod:`repro.tune`, budget ``--tune-budget`` percent); their
``speedup_vs_static`` is the controller's win over the static-knob base
row on the same schedule — the runtime counterpart of the offline
``python -m repro tune`` search.

``--record-trajectory`` appends the report, with commit and config
provenance, to ``benchmarks/results/TRAJECTORY.json`` — the committed
perf history that CI's ``obs diff`` gate compares fresh runs against.
``--profile PREFIX`` samples the run (see :mod:`repro.obs.prof`).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable

from ..graphs.csr import CSRGraph
from ..graphs.generators import paper_suite
from ..obs import trace as obs_trace

__all__ = [
    "run_bench",
    "best_speedup",
    "check_regressions",
    "record_trajectory",
    "main",
]

#: the committed perf-trajectory file (see ``--record-trajectory``)
TRAJECTORY_PATH = Path("benchmarks/results/TRAJECTORY.json")

SCHEMA_VERSION = 1

#: sources per run of the ``bc`` and ``bc@diropt`` rows
_BC_SOURCES = 4


def _bench_source(graph: CSRGraph) -> int:
    import numpy as np

    return int(np.argmax(graph.out_degrees()))


def _kernels(
    schedule: str | None = None,
    batch_sources: int = 8,
    tune_budget: float = 20.0,
) -> list[dict]:
    from ..algorithms.bc import betweenness_centrality, pick_sources
    from ..algorithms.bfs import bfs
    from ..algorithms.pagerank import pagerank
    from ..algorithms.sssp import sssp
    from ..algorithms.wcc import wcc
    from ..baselines.gunrock import sssp_frontier
    from ..tune import ErrorBudget, adaptive_runner_factory
    from .batched import sssp_batched
    from .schedule import schedule_for

    tune_factory = lambda g: adaptive_runner_factory(  # noqa: E731
        ErrorBudget(target_percent=tune_budget), exact_graph=g
    )

    def bc(g, sched=None, num_sources=_BC_SOURCES):
        return betweenness_centrality(
            g, num_sources=num_sources, seed=0, schedule=sched
        )

    def batch_srcs(g):
        return pick_sources(g.num_nodes, min(batch_sources, g.num_nodes), 0)

    def looped(kernel):
        def run(g):
            last = None
            for s in batch_srcs(g):
                last = kernel(g, int(s))
            return last

        return run

    parsed = schedule_for(schedule)
    label = parsed.name if parsed is not None else "fixed-push"
    specs = [
        {
            "kernel": "bc",
            "schedule": label,
            "run": lambda g: bc(g, schedule),
        },
        {
            "kernel": "sssp",
            "schedule": label,
            "run": lambda g: sssp(g, _bench_source(g), schedule=schedule),
        },
        {
            # WCC's label propagation is symmetric — no pull direction to
            # schedule, so the row never takes ``--schedule``
            "kernel": "wcc",
            "schedule": None,
            "run": lambda g: wcc(g),
        },
        {
            "kernel": "bfs",
            "schedule": label,
            "run": lambda g: bfs(g, _bench_source(g), schedule=schedule),
        },
        {
            "kernel": "pagerank",
            "schedule": label,
            "run": lambda g: pagerank(g, schedule=schedule),
        },
        {
            "kernel": "gunrock_sssp",
            "schedule": label,
            "run": lambda g: sssp_frontier(g, _bench_source(g), schedule=schedule),
        },
        # fixed-push vs direction-optimizing comparison rows (distinct
        # kernel names so trajectory/obs-diff keys never collide with the
        # base rows); ``speedup_vs_fixed_push`` is derived post-run from
        # the matching base row
        {
            "kernel": "bfs@diropt",
            "schedule": "direction-optimizing",
            "run": lambda g: bfs(
                g, _bench_source(g), schedule="direction-optimizing"
            ),
        },
        {
            "kernel": "bc@diropt",
            "schedule": "direction-optimizing",
            "run": lambda g: bc(g, "direction-optimizing"),
        },
        # batched multi-source rows: one stacked sweep over
        # ``batch_sources`` lanes vs the same sources run back to back,
        # one single-source call each; ``speedup_vs_looped`` is the
        # batching win (bit-identical answers — differential:batched)
        {
            "kernel": "bc@batched",
            "schedule": None,
            "run": lambda g: betweenness_centrality(g, sources=batch_srcs(g)),
            "looped": looped(
                lambda g, s: betweenness_centrality(g, sources=[s])
            ),
        },
        {
            "kernel": "sssp@batched",
            "schedule": None,
            "run": lambda g: sssp_batched(g, batch_srcs(g)),
            "looped": looped(sssp),
        },
        # adaptive-controller rows: identical workload + schedule to the
        # base rows, but run through repro.tune's runner factory under a
        # finite error budget; ``speedup_vs_static`` is derived post-run
        # from the matching base row
        {
            "kernel": "sssp@tuned",
            "schedule": label,
            "run": lambda g: sssp(
                g, _bench_source(g), schedule=schedule,
                runner_factory=tune_factory(g),
            ),
        },
        {
            "kernel": "pagerank@tuned",
            "schedule": label,
            "run": lambda g: pagerank(
                g, schedule=schedule, runner_factory=tune_factory(g)
            ),
        },
    ]
    return specs


def _time(fn: Callable[[], object], repeats: int) -> tuple[float, object, list[float]]:
    """Best-of-``repeats`` wall-clock; the first run warms shared views.

    Also returns every repeat's raw timing — the spread is what makes
    ``obs diff`` verdicts noise-aware rather than fixed-ratio.
    """
    samples: list[float] = []
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return min(samples), result, samples


def run_bench(
    scale: str = "small",
    *,
    repeats: int = 3,
    seed: int = 7,
    graphs: list[str] | None = None,
    schedule: str | None = None,
    batch_sources: int = 8,
    tune_budget: float = 20.0,
) -> dict:
    """Time every kernel on every suite graph; returns the report dict.

    ``schedule`` pins a sweep schedule on every schedulable base row
    (the ``@diropt`` comparison rows always run direction-optimizing);
    ``batch_sources`` sets how many lanes the ``@batched`` rows stack;
    ``tune_budget`` is the ``@tuned`` rows' inaccuracy budget (percent).
    """
    with obs_trace.span("perf.bench.suite", scale=scale):
        suite = paper_suite(scale, seed=seed)
    if graphs:
        unknown = sorted(set(graphs) - set(suite))
        if unknown:
            raise SystemExit(f"unknown graphs {unknown}; suite has {sorted(suite)}")
        suite = {name: suite[name] for name in graphs}
    rows: list[dict] = []
    for name, graph in suite.items():
        for spec in _kernels(schedule, batch_sources, tune_budget):
            with obs_trace.span(
                "perf.bench.kernel", kernel=spec["kernel"], graph=name
            ):
                seconds, result, samples = _time(lambda: spec["run"](graph), repeats)
            row = {
                "kernel": spec["kernel"],
                "graph": name,
                "schedule": spec["schedule"],
                "seconds": seconds,
                "samples": [round(s, 6) for s in samples],
                "iterations": getattr(result, "iterations", None),
                "sim_cycles": getattr(result, "metrics", None)
                and result.metrics.cycles,
            }
            sim = getattr(result, "metrics", None)
            if sim is not None and sim.num_sweeps:
                # charged-cost efficiency: how the simulator's ledger
                # relates to the host wall-clock that paid for it
                busy = sim.total.busy_lane_steps
                idle = sim.total.idle_lane_steps
                row["sweeps"] = sim.num_sweeps
                row["sim_seconds"] = round(sim.seconds, 6)
                row["sim_cycles_per_second"] = (
                    round(sim.cycles / seconds, 3) if seconds > 0 else None
                )
                row["frontier_occupancy"] = (
                    round(busy / (busy + idle), 6) if busy + idle else None
                )
            if spec.get("looped") is not None:
                row["batch_sources"] = batch_sources
                with obs_trace.span(
                    "perf.bench.looped", kernel=spec["kernel"], graph=name
                ):
                    looped_seconds, _, looped_samples = _time(
                        lambda: spec["looped"](graph), repeats
                    )
                row["looped_seconds"] = looped_seconds
                row["looped_samples"] = [round(s, 6) for s in looped_samples]
                row["speedup_vs_looped"] = (
                    looped_seconds / seconds if seconds > 0 else float("inf")
                )
            rows.append(row)
    # derive fixed-push vs direction-optimizing ratios for the @diropt rows
    by_key = {(r["kernel"], r["graph"]): r for r in rows}
    for row in rows:
        kernel = row["kernel"]
        if "@" not in kernel or kernel.endswith("@batched"):
            # @batched rows compare against their own looped runs (often
            # a different source count than the base row), not fixed-push
            continue
        if kernel.endswith("@tuned"):
            # @tuned rows compare against the base row on the *same*
            # schedule: the pair differs only by the adaptive controller
            base = by_key.get((kernel.split("@", 1)[0], row["graph"]))
            if base is not None and base["schedule"] == row["schedule"]:
                row["static_seconds"] = base["seconds"]
                row["tune_budget_percent"] = tune_budget
                row["speedup_vs_static"] = (
                    base["seconds"] / row["seconds"]
                    if row["seconds"] > 0
                    else float("inf")
                )
            continue
        base = by_key.get((kernel.split("@", 1)[0], row["graph"]))
        if base is None or base["schedule"] != "fixed-push":
            continue
        row["fixed_push_seconds"] = base["seconds"]
        row["speedup_vs_fixed_push"] = (
            base["seconds"] / row["seconds"] if row["seconds"] > 0 else float("inf")
        )
    return {
        "schema": SCHEMA_VERSION,
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "generated_unix": time.time(),
        "graphs": {
            name: {"nodes": g.num_nodes, "edges": g.num_edges}
            for name, g in suite.items()
        },
        "kernels": rows,
    }


def best_speedup(report: dict, kernel: str, field: str) -> float | None:
    """Max per-graph ``field`` speedup for ``kernel`` (None if no row has it)."""
    speedups = [
        r[field]
        for r in report["kernels"]
        if r["kernel"] == kernel and field in r
    ]
    return max(speedups) if speedups else None


def check_regressions(
    current: dict, baseline: dict, *, max_regression: float
) -> list[str]:
    """Kernels slower than ``max_regression`` × their committed baseline."""
    base = {
        (r["kernel"], r["graph"]): r["seconds"] for r in baseline["kernels"]
    }
    failures = []
    for row in current["kernels"]:
        key = (row["kernel"], row["graph"])
        if key not in base or base[key] <= 0:
            continue
        ratio = row["seconds"] / base[key]
        if ratio > max_regression:
            failures.append(
                f"{row['kernel']}/{row['graph']}: {row['seconds']:.4f}s is "
                f"{ratio:.2f}x the baseline {base[key]:.4f}s "
                f"(limit {max_regression:.2f}x)"
            )
    return failures


def _git_commit() -> str:
    """Short commit hash of the working tree, or ``unknown`` outside git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown" if out.returncode == 0 else "unknown"


def record_trajectory(report: dict, path: str | Path = TRAJECTORY_PATH) -> dict:
    """Append ``report`` (with provenance) to the perf-trajectory file.

    The file is ``{"schema": 1, "entries": [...]}``; each entry carries
    the commit the run was taken at and the bench config, so a future
    ``obs diff`` verdict can always be traced to what was measured
    where.  Returns the appended entry.
    """
    path = Path(path)
    if path.exists():
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or "entries" not in doc:
            raise ValueError(f"{path} is not a trajectory file")
    else:
        doc = {"schema": 1, "entries": []}
    entry = {
        "recorded_unix": report.get("generated_unix", time.time()),
        "commit": _git_commit(),
        "config": {
            "scale": report.get("scale"),
            "repeats": report.get("repeats"),
            "seed": report.get("seed"),
        },
        "report": report,
    }
    doc["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return entry


def _format_report(report: dict) -> str:
    lines = [
        f"repro perf — scale={report['scale']} repeats={report['repeats']}",
        f"{'kernel':<16}{'graph':<14}{'schedule':<22}{'seconds':>10}",
    ]
    for r in report["kernels"]:
        sched = r.get("schedule") or "—"
        lines.append(
            f"{r['kernel']:<16}{r['graph']:<14}{sched:<22}{r['seconds']:>10.4f}"
        )
    do_rows = [r for r in report["kernels"] if "speedup_vs_fixed_push" in r]
    if do_rows:
        lines.append("direction-optimizing vs fixed-push:")
        for r in do_rows:
            lines.append(
                f"  {r['kernel']:<14}{r['graph']:<14}"
                f"{r['speedup_vs_fixed_push']:.2f}x"
            )
    batched_rows = [r for r in report["kernels"] if "speedup_vs_looped" in r]
    if batched_rows:
        lines.append(
            f"batched stacked sweep vs per-source loop "
            f"({batched_rows[0].get('batch_sources', '?')} sources):"
        )
        for r in batched_rows:
            lines.append(
                f"  {r['kernel']:<14}{r['graph']:<14}"
                f"{r['speedup_vs_looped']:.2f}x "
                f"({r['looped_seconds']:.4f}s -> {r['seconds']:.4f}s)"
            )
    tuned_rows = [r for r in report["kernels"] if "speedup_vs_static" in r]
    if tuned_rows:
        lines.append(
            f"adaptive controller vs static knobs "
            f"(budget {tuned_rows[0].get('tune_budget_percent', '?')}%):"
        )
        for r in tuned_rows:
            lines.append(
                f"  {r['kernel']:<16}{r['graph']:<14}"
                f"{r['speedup_vs_static']:.2f}x "
                f"({r['static_seconds']:.4f}s -> {r['seconds']:.4f}s)"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Time solver kernels and emit/check the perf baseline.",
    )
    parser.add_argument("--scale", default="small", help="suite scale (tiny/small/medium)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--graphs", default=None, help="comma-separated suite graph subset"
    )
    parser.add_argument(
        "--schedule", default=None, metavar="SPEC",
        help="pin a sweep schedule on every schedulable kernel row "
        "(push, pull, direction-optimizing, plus :sparse/:dense/:edge "
        "modifiers — see docs/performance.md)",
    )
    parser.add_argument(
        "--batch-sources", type=int, default=8, metavar="S",
        help="lanes the @batched rows stack into one multi-source sweep "
        "(default 8; the looped comparison runs the same S sources)",
    )
    parser.add_argument(
        "--tune-budget", type=float, default=20.0, metavar="PCT",
        help="inaccuracy budget (percent) for the @tuned adaptive rows "
        "(default 20; see docs/tuning.md)",
    )
    parser.add_argument("--out", default="BENCH_PR4.json", help="report JSON path")
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="committed baseline JSON to gate regressions against",
    )
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument(
        "--min-bc-speedup", type=float, default=0.0,
        help="fail unless the best per-graph bc@batched speedup over the "
        "same sources run one call at a time meets this",
    )
    parser.add_argument(
        "--record-trajectory", nargs="?", const=str(TRAJECTORY_PATH),
        default=None, metavar="PATH",
        help=f"append this run to the perf trajectory (default {TRAJECTORY_PATH})",
    )
    parser.add_argument(
        "--profile", default=None, metavar="PREFIX",
        help="sample the run: writes PREFIX.collapsed + PREFIX.json "
        "(REPRO_PROFILE env works too; see docs/observability.md)",
    )
    args = parser.parse_args(argv)

    from ..obs import prof as obs_prof

    profiler, profile_prefix = obs_prof.start_from_cli(args.profile)
    graphs = args.graphs.split(",") if args.graphs else None
    with obs_trace.span("perf.bench.run", scale=args.scale):
        report = run_bench(
            args.scale,
            repeats=args.repeats,
            seed=args.seed,
            graphs=graphs,
            schedule=args.schedule,
            batch_sources=args.batch_sources,
            tune_budget=args.tune_budget,
        )
    if profiler is not None:
        obs_prof.write_outputs(profiler, profile_prefix)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(_format_report(report))
    print(f"wrote {args.out}")
    if args.record_trajectory:
        entry = record_trajectory(report, args.record_trajectory)
        print(
            f"recorded trajectory point (commit {entry['commit']}) "
            f"in {args.record_trajectory}"
        )

    status = 0
    if args.min_bc_speedup > 0:
        best = best_speedup(report, "bc@batched", "speedup_vs_looped") or 0.0
        if best < args.min_bc_speedup:
            print(
                f"FAIL: best per-graph bc@batched speedup {best:.2f}x is "
                f"below the required {args.min_bc_speedup:.2f}x"
            )
            status = 1
        else:
            print(
                f"best per-graph bc@batched speedup {best:.2f}x meets the "
                f"{args.min_bc_speedup:.2f}x floor"
            )
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check_regressions(
            report, baseline, max_regression=args.max_regression
        )
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            status = 1
        else:
            print(
                f"no kernel regressed beyond {args.max_regression:.2f}x of "
                f"{args.check}"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
