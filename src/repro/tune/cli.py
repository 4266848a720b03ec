"""``python -m repro tune`` — the offline knob auto-tuner CLI.

Runs :func:`repro.tune.search.run_tune` over the paper suite, prints a
per-family table, writes ``benchmarks/results/BENCH_TUNE.json`` and
(optionally) appends to the tune trajectory so ``repro obs diff`` can
gate drift.  Exit code is 1 when ``--min-speedup`` is set and no family
reaches it, or when any family's tuned config blows the budget — the
contract the ``tune-smoke`` CI job relies on — and 2, before any
search, when ``--record-trajectory`` names a file that is not a
trajectory, or when ``--scale``, ``--budget`` or ``--families`` is
not one the search accepts.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import time
from pathlib import Path

from ..cache import memo
from ..graphs.generators import PAPER_GRAPH_NAMES, SUITE_SIZES
from ..obs import metrics as obs_metrics
from .search import DEFAULT_BUDGET_PERCENT, run_tune

__all__ = ["main", "record_trajectory"]

TUNE_REPORT_PATH = "benchmarks/results/BENCH_TUNE.json"
TRAJECTORY_PATH = "benchmarks/results/TRAJECTORY_TUNE.json"


def _git_commit() -> str:
    """Short commit hash of the working tree, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown" if out.returncode == 0 else "unknown"


def _load_trajectory(path: Path) -> dict:
    """The ``{"entries": [...]}`` envelope at ``path`` (empty if absent)."""
    if not path.exists():
        return {"schema": 1, "entries": []}
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        doc = None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError(f"{path} is not a trajectory file")
    return doc


def record_trajectory(report: dict, path: str | Path = TRAJECTORY_PATH) -> dict:
    """Append ``report`` (with provenance) to the trajectory file.

    The file is ``{"schema": 1, "entries": [...]}``; each entry carries
    the commit the run was taken at and the search config, so a future
    ``obs diff`` verdict can always be traced to what was measured
    where.  Returns the appended entry.
    """
    path = Path(path)
    doc = _load_trajectory(path)
    entry = {
        "recorded_unix": report.get("generated_unix", time.time()),
        "commit": _git_commit(),
        "config": {
            key: report.get(key)
            for key in ("scale", "seed", "budget_percent", "quick")
        },
        "report": report,
    }
    doc["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return entry


def _budget(text: str) -> float:
    """``--budget``: a positive, finite percentage (as ``run_tune`` needs)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}"
        )
    return value


def _format_report(report: dict) -> str:
    lines = [
        f"repro tune — scale={report['scale']} "
        f"budget={report['budget_percent']:.1f}% "
        f"{'(quick)' if report['quick'] else ''}".rstrip(),
        f"{'family':<12}{'technique':<12}{'schedule':<22}"
        f"{'static cyc':>12}{'tuned cyc':>12}{'vs static':>10}{'inacc %':>9}",
    ]
    for name, rec in sorted(report["families"].items()):
        sched = rec["schedule"] or "fixed-push"
        flag = "" if rec["within_budget"] else " !over-budget"
        lines.append(
            f"{name:<12}{rec['technique']:<12}{sched:<22}"
            f"{rec['static']['cycles']:>12.0f}"
            f"{rec['tuned']['cycles']:>12.0f}"
            f"{rec['speedup_vs_static']:>9.2f}x"
            f"{rec['tuned']['inaccuracy_percent']:>9.2f}{flag}"
        )
    agg = report.get("aggregate_speedup_vs_static")
    if agg is not None:
        lines.append(
            f"aggregate speedup vs best static: {agg:.2f}x "
            f"(best family {report['best_family']}: "
            f"{report['best_speedup_vs_static']:.2f}x)"
        )
    serve = report.get("serve", {})
    if serve:
        lines.append(
            f"serve level-2 overrides: bc num_sources="
            f"{serve['bc_node']['num_sources']}, "
            f"pr tol={serve['pr_topk']['tol']:.4g} "
            f"(probed on {report.get('serve_probe_family')})"
        )
    cache = report.get("cache", {})
    lines.append(
        f"cache: {cache.get('hits', 0)} hits, "
        f"{cache.get('misses', 0)} misses"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="offline knob auto-tuner (adaptive controller search)",
    )
    parser.add_argument(
        "--scale", default="tiny", choices=tuple(SUITE_SIZES), help="suite scale"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET_PERCENT,
        help="target inaccuracy budget in percent",
    )
    parser.add_argument(
        "--families",
        nargs="+",
        default=None,
        choices=PAPER_GRAPH_NAMES,
        metavar="FAMILY",
        help=f"restrict to these suite families ({', '.join(PAPER_GRAPH_NAMES)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="SSSP-only probes and a smaller controller grid",
    )
    parser.add_argument("--out", default=TUNE_REPORT_PATH)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory (enables warm reuse across runs)",
    )
    parser.add_argument(
        "--record-trajectory",
        nargs="?",
        const=TRAJECTORY_PATH,
        default=None,
        help="append this run to the tune trajectory file",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless some family's speedup_vs_static reaches this",
    )
    args = parser.parse_args(argv)
    if args.record_trajectory:
        # refuse a bad trajectory path before the search, not after it
        try:
            _load_trajectory(Path(args.record_trajectory))
        except ValueError as exc:
            parser.error(str(exc))

    if args.cache_dir:
        memo.configure(cache_dir=args.cache_dir)

    report = run_tune(
        scale=args.scale,
        seed=args.seed,
        budget_percent=args.budget,
        families=args.families,
        quick=args.quick,
    )
    report["generated_unix"] = time.time()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(_format_report(report))
    print(f"wrote {out}")

    if args.record_trajectory:
        entry = record_trajectory(report, args.record_trajectory)
        print(
            f"recorded trajectory entry at commit {entry['commit']} "
            f"in {args.record_trajectory}"
        )

    obs_metrics.counter("tune.cli.runs")
    failures = []
    over = [n for n, r in report["families"].items() if not r["within_budget"]]
    if over:
        failures.append(f"families over budget: {', '.join(sorted(over))}")
    if args.min_speedup is not None:
        best = report.get("best_speedup_vs_static") or 0.0
        if best < args.min_speedup:
            failures.append(
                f"best speedup_vs_static {best:.2f}x "
                f"< required {args.min_speedup:.2f}x"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0
