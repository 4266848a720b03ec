"""Command-line evaluation suite: regenerate any paper table or figure.

Usage (also reachable as ``python -m repro``)::

    python -m repro --list
    python -m repro --scale tiny table6 figure9
    python -m repro --scale small all --output-dir results/
    python -m repro --scale small all --output-dir results/ --resume

Each target prints its rendered table/series; ``--output-dir`` also
persists them as text files (the same format the benchmark harness
emits) plus a ``journal.jsonl`` checkpoint of every completed cell.
``--resume`` replays the journal, skipping finished cells byte-for-byte
and re-running only the gaps; ``--parallel`` routes technique sweeps
through the fault-tolerant worker pool (``--max-retries``,
``--worker-timeout``).  A failure summary of every degraded or failed
cell is logged at the end and lands in ``failures.txt``.

Telemetry (see ``docs/observability.md``):

* ``--trace-out trace.json`` records spans for the whole run — Chrome
  ``trace_event`` JSON for a ``.json`` suffix (load in
  ``chrome://tracing`` / Perfetto), JSONL otherwise (feed to
  ``python -m repro stats``);
* ``--metrics-out metrics.json`` writes the aggregated counter/gauge/
  histogram snapshot, including metrics merged back from ``--parallel``
  workers;
* ``--log-level debug`` (or ``REPRO_LOG=debug``) surfaces status,
  retry, and degradation chatter on stderr; tables stay on stdout;
* ``--profile PREFIX`` (or ``REPRO_PROFILE=PREFIX``) samples the run
  with :mod:`repro.obs.prof`: ``PREFIX.collapsed`` is flamegraph input,
  ``PREFIX.json`` the per-span self-time report.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Callable

from .. import cache as repro_cache
from ..gpusim.device import K40C
from ..graphs.generators import SUITE_SIZES
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger, setup_logging
from ..resilience.journal import RunJournal
from . import figures, tables
from .reporting import format_failure_summary

__all__ = ["TARGETS", "run_targets", "main"]

logger = get_logger("eval.suite")


def _figure(fn, graph_name: str):
    def runner_fn(runner: tables.TableRunner):
        return fn(runner.suite[graph_name])

    return runner_fn


def _agreement_target(runner: tables.TableRunner):
    """Run Tables 6-14 and score them against the paper's numbers."""
    from .agreement import agreement_report

    fns = {
        "table6": tables.table6_coalescing,
        "table7": tables.table7_shmem,
        "table8": tables.table8_divergence,
        "table9": tables.table9_coalescing_vs_tigr,
        "table10": tables.table10_shmem_vs_tigr,
        "table11": tables.table11_divergence_vs_tigr,
        "table12": tables.table12_coalescing_vs_gunrock,
        "table13": tables.table13_shmem_vs_gunrock,
        "table14": tables.table14_divergence_vs_gunrock,
    }
    results = {name: fn(runner)[0] for name, fn in fns.items()}
    return results, agreement_report(results)


#: target name -> callable(TableRunner) -> (rows_or_points, rendered text)
TARGETS: dict[str, Callable] = {
    "table1": tables.table1_graphs,
    "table2": tables.table2_baseline1_exact,
    "table3": tables.table3_tigr_exact,
    "table4": tables.table4_gunrock_exact,
    "table5": tables.table5_preprocessing,
    "table6": tables.table6_coalescing,
    "table7": tables.table7_shmem,
    "table8": tables.table8_divergence,
    "table9": tables.table9_coalescing_vs_tigr,
    "table10": tables.table10_shmem_vs_tigr,
    "table11": tables.table11_divergence_vs_tigr,
    "table12": tables.table12_coalescing_vs_gunrock,
    "table13": tables.table13_shmem_vs_gunrock,
    "table14": tables.table14_divergence_vs_gunrock,
    "combined": tables.table_combined,
    "figure7": _figure(figures.figure7_connectedness, "livejournal"),
    "figure8": _figure(figures.figure8_cc_threshold, "rmat"),
    "figure9": _figure(figures.figure9_degree_sim, "rmat"),
    "agreement": _agreement_target,
}


def run_targets(
    names: list[str],
    *,
    scale: str = "tiny",
    seed: int = 7,
    output_dir: str | Path | None = None,
    resume: bool = False,
    parallel: bool = False,
    max_workers: int | None = None,
    max_retries: int = 2,
    worker_timeout: float | None = None,
    failures: list[dict] | None = None,
    cache_dir: str | None = None,
) -> dict[str, str]:
    """Run the named targets; returns ``{name: rendered text}``.

    With ``output_dir`` set, every completed table cell is checkpointed to
    ``<output_dir>/journal.jsonl``; ``resume=True`` replays that journal
    (skipping finished cells) instead of starting fresh.  Pass a list as
    ``failures`` to receive one entry per degraded/failed cell.

    ``cache_dir`` enables the content-addressed artifact cache
    (``docs/caching.md``): transforms and analytics memoize to that
    directory, so a repeated or resumed sweep skips them entirely, and
    parallel workers share the store.
    """
    if "all" in names:
        names = list(TARGETS)
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        raise KeyError(
            f"unknown targets {unknown}; available: {sorted(TARGETS)} or 'all'"
        )
    journal = None
    if output_dir is not None:
        path = Path(output_dir)
        path.mkdir(parents=True, exist_ok=True)
        journal = RunJournal(
            path / "journal.jsonl",
            resume=resume,
            meta={"scale": scale, "seed": seed},
        )
    runner = tables.TableRunner(
        scale=scale,
        seed=seed,
        device=K40C,
        journal=journal,
        parallel=parallel,
        max_workers=max_workers,
        max_retries=max_retries,
        worker_timeout=worker_timeout,
        cache_dir=cache_dir,
    )
    if failures is not None:
        runner.failures = failures
    out: dict[str, str] = {}
    for name in names:
        logger.info("running target %s (scale=%s)", name, scale)
        with obs_trace.span("harness.target", target=name, scale=scale):
            _rows, text = TARGETS[name](runner)
        out[name] = text
        if output_dir is not None:
            with obs_trace.span("report.write", target=name):
                (Path(output_dir) / f"{name}.txt").write_text(text + "\n")
    if output_dir is not None and runner.failures:
        (Path(output_dir) / "failures.txt").write_text(
            format_failure_summary(runner.failures) + "\n"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Graffix paper's tables and figures "
        "on the synthetic suite (simulated GPU).",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        help="table1..table14, figure7..figure9, or 'all' (default)",
    )
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=tuple(SUITE_SIZES),
        help="input-suite scale (default tiny)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay <output-dir>/journal.jsonl, re-running only missing cells",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="run technique sweeps on the fault-tolerant worker pool",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker processes for --parallel (default: cpu count)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per failed/timed-out worker before marking cells failed",
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        help="per-worker deadline in seconds (--parallel; default: none)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get(repro_cache.ENV_VAR),
        help="enable the content-addressed artifact cache at this "
        "directory: transforms/analytics are memoized across runs and "
        "shared by parallel workers (default: $REPRO_CACHE_DIR; "
        "see docs/caching.md and `python -m repro cache`)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="record spans for the run: Chrome trace_event JSON for a "
        ".json path (chrome://tracing / Perfetto), JSONL otherwise "
        "(python -m repro stats)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the aggregated metrics snapshot (counters/gauges/"
        "histograms, workers included) as JSON",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="logging level for status/failure chatter on stderr "
        "(overrides REPRO_LOG; default warning)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PREFIX",
        help="sample the run: writes PREFIX.collapsed (flamegraph input) "
        "+ PREFIX.json (per-span report); REPRO_PROFILE env works too",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available targets and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in TARGETS:
            print(name)
        return 0
    if args.resume and args.output_dir is None:
        parser.error("--resume requires --output-dir (the journal lives there)")

    setup_logging(args.log_level)
    tracer = obs_trace.install_tracer() if args.trace_out else None

    from ..obs import prof as obs_prof

    profiler, profile_prefix = obs_prof.start_from_cli(args.profile)
    failures: list[dict] = []
    try:
        results = run_targets(
            args.targets or ["all"],
            scale=args.scale,
            seed=args.seed,
            output_dir=args.output_dir,
            resume=args.resume,
            parallel=args.parallel,
            max_workers=args.max_workers,
            max_retries=args.max_retries,
            worker_timeout=args.worker_timeout,
            failures=failures,
            cache_dir=args.cache_dir,
        )
    finally:
        if profiler is not None:
            obs_prof.write_outputs(profiler, profile_prefix)
        if tracer is not None:
            obs_trace.uninstall_tracer()
            path = Path(args.trace_out)
            if path.suffix == ".json":
                tracer.export_chrome(path)
            else:
                tracer.export_jsonl(path)
            logger.info(
                "wrote %d spans to %s (%d dropped)",
                len(tracer.spans), path, tracer.dropped,
            )
        if args.metrics_out:
            snap = obs_metrics.snapshot()
            Path(args.metrics_out).write_text(json.dumps(snap, indent=2) + "\n")
            logger.info("wrote metrics snapshot to %s", args.metrics_out)

    for name, text in results.items():
        print(text)
        print()
    summary = format_failure_summary(failures)
    if failures:
        logger.warning("%s", summary)
    else:
        logger.info("%s", summary)
    return 0
