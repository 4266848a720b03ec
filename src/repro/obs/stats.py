"""``python -m repro stats <trace-or-metrics>``: profile-style reports.

Reads either a trace exported by :mod:`repro.obs.trace` — the native
JSONL (one span per line) or the Chrome ``trace_event`` JSON — or a
merged metrics snapshot (the ``--metrics-out`` JSON of a run or a
drained server), auto-detected by shape.

For traces it prints where the wall-clock went:

* **top spans by cumulative time** — per span name: call count, total
  time, *self* time (total minus time spent in child spans, so nested
  categories don't double-count), and share of the traced run;
* **category split** — self time rolled up by the naming convention's
  leading category (``io`` / ``transform`` / ``solve`` / ``serve`` /
  ``report`` / …), the "transform vs solve vs io" number the tables'
  speedup claims should be read against.

For metrics snapshots it prints the counter/gauge inventory plus a
dedicated **serve** section — request outcomes, shed/degraded/timeout
counts, query-batching outcomes (shared solves, lanes per solve, window
waits), admission-wait and per-stage latency quantiles (estimated from
the histogram buckets), queue depth, pressure level, and breaker state
— the post-mortem view of a drained ``python -m repro serve`` run, plus
a **perf** section for the engine counters (``perf.batched.*`` etc.).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Mapping, Sequence

from .trace import Span

__all__ = [
    "load_trace",
    "span_stats",
    "category_split",
    "format_stats",
    "histogram_quantile",
    "format_metrics",
    "main",
]

#: span-name prefixes rolled up in the category split (order = display order)
CATEGORIES = (
    "io", "transform", "solve", "perf", "serve", "harness", "parallel", "report",
)


def load_trace(path: str | Path) -> list[Span]:
    """Load spans from a JSONL or Chrome ``trace_event`` trace file.

    A truncated *final* JSONL line (the usual shape of a crash or a
    ``kill -9`` mid-write) is dropped with a warning rather than failing
    the whole report; corruption anywhere else still raises
    ``ValueError`` with the offending line number — silently skipping
    interior lines would misreport where the time went.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        try:
            return _from_chrome(json.loads(text).get("traceEvents", []))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt Chrome trace JSON: {exc}") from exc
    if stripped.startswith("["):
        try:
            return _from_chrome(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt Chrome trace JSON: {exc}") from exc
    spans = []
    lines = text.splitlines()
    last_content = 0
    for i, line in enumerate(lines, start=1):
        if line.strip():
            last_content = i
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            if i == last_content:
                import warnings

                warnings.warn(
                    f"{path}: dropping truncated final line {i} ({exc})",
                    stacklevel=2,
                )
                break
            raise ValueError(f"{path}: corrupt span on line {i}: {exc}") from exc
    return spans


def _from_chrome(events: Sequence[dict]) -> list[Span]:
    spans = []
    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue  # only complete duration events carry a self-time story
        spans.append(
            Span(
                name=str(ev.get("name", "?")),
                span_id=i + 1,
                parent_id=None,  # chrome events carry no explicit nesting
                start=float(ev.get("ts", 0.0)) / 1e6,
                duration=float(ev.get("dur", 0.0)) / 1e6,
                attributes=dict(ev.get("args") or {}),
                thread=str(ev.get("tid", "0")),
            )
        )
    # reconstruct nesting per thread from interval containment so self
    # times stay meaningful for chrome-format input too
    by_thread: dict[str, list[Span]] = {}
    for sp in spans:
        by_thread.setdefault(sp.thread, []).append(sp)
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start, -s.duration))
        stack: list[Span] = []
        for sp in group:
            while stack and sp.start >= stack[-1].start + stack[-1].duration:
                stack.pop()
            if stack:
                sp.parent_id = stack[-1].span_id
            stack.append(sp)
    return spans


# ---------------------------------------------------------------------------
def _self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per-span self time: duration minus direct children's durations."""
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_time[sp.parent_id] = child_time.get(sp.parent_id, 0.0) + sp.duration
    return {
        sp.span_id: max(0.0, sp.duration - child_time.get(sp.span_id, 0.0))
        for sp in spans
    }


def span_stats(spans: Sequence[Span]) -> list[dict]:
    """Aggregate by span name: count, cumulative, self; sorted by cumulative."""
    selfs = _self_times(spans)
    agg: dict[str, dict] = {}
    for sp in spans:
        row = agg.setdefault(
            sp.name, {"name": sp.name, "count": 0, "total": 0.0, "self": 0.0}
        )
        row["count"] += 1
        row["total"] += sp.duration
        row["self"] += selfs[sp.span_id]
    return sorted(agg.values(), key=lambda r: (-r["total"], r["name"]))


def category_split(spans: Sequence[Span]) -> dict[str, float]:
    """Self time per leading-name category (sums to total traced time)."""
    selfs = _self_times(spans)
    split = {c: 0.0 for c in CATEGORIES}
    split["other"] = 0.0
    for sp in spans:
        cat = sp.name.split(".", 1)[0]
        split[cat if cat in split else "other"] += selfs[sp.span_id]
    return split


def format_stats(spans: Sequence[Span], *, top: int = 20, title: str = "trace stats") -> str:
    """Render the profile-style report the CLI prints."""
    lines = [title, "-" * len(title)]
    if not spans:
        lines.append("(empty trace)")
        return "\n".join(lines)
    rows = span_stats(spans)
    traced_total = sum(r["self"] for r in rows) or 1.0
    lines.append(f"{len(spans)} spans, {len(rows)} distinct names, "
                 f"{traced_total:.4f}s traced")
    lines.append("")
    lines.append(f"{'span':40s} {'count':>7s} {'total s':>10s} {'self s':>10s} {'self %':>7s}")
    for row in rows[:top]:
        lines.append(
            f"{row['name'][:40]:40s} {row['count']:7d} "
            f"{row['total']:10.4f} {row['self']:10.4f} "
            f"{row['self'] / traced_total:6.1%}"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more span names")
    lines.append("")
    split = category_split(spans)
    shown = {k: v for k, v in split.items() if v > 0.0}
    lines.append("time split (self time by category):")
    for cat, secs in sorted(shown.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {cat:10s} {secs:10.4f}s  {secs / traced_total:6.1%}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# metrics-snapshot reports (the `serve` category's post-mortem view)
# ---------------------------------------------------------------------------
def histogram_quantile(
    buckets: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    Linear interpolation inside the winning bucket (lower bound = the
    previous bucket's bound, 0 for the first); observations in the
    overflow bucket answer the last bound (a conservative *lower*
    estimate — the report marks these with ``>``).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= target and c > 0:
            if i >= len(buckets):  # overflow bucket: unbounded above
                return float(buckets[-1])
            lo = float(buckets[i - 1]) if i > 0 else 0.0
            hi = float(buckets[i])
            frac = (target - (cumulative - c)) / c
            return lo + frac * (hi - lo)
    return float(buckets[-1])


def _is_metrics_snapshot(obj: object) -> bool:
    return isinstance(obj, Mapping) and (
        "counters" in obj or "gauges" in obj or "histograms" in obj
    )


def _fmt_hist_line(name: str, h: Mapping) -> str:
    q50 = histogram_quantile(h["buckets"], h["counts"], 0.50) * 1000.0
    q99 = histogram_quantile(h["buckets"], h["counts"], 0.99) * 1000.0
    overflow = int(h["counts"][-1]) if len(h["counts"]) > len(h["buckets"]) else 0
    mark = ">" if overflow else "~"
    mean = (h["total"] / h["count"] * 1000.0) if h["count"] else 0.0
    return (
        f"  {name:32s} {int(h['count']):8d}  mean {mean:8.2f}ms"
        f"  q50 {mark}{q50:8.2f}ms  q99 {mark}{q99:8.2f}ms"
    )


def format_metrics(snap: Mapping, *, title: str = "metrics snapshot") -> str:
    """Render a merged metrics snapshot, with a serve section if present."""
    counters = dict(snap.get("counters") or {})
    gauges = dict(snap.get("gauges") or {})
    histograms = dict(snap.get("histograms") or {})
    lines = [title, "-" * len(title)]
    lines.append(
        f"{len(counters)} counters, {len(gauges)} gauges, "
        f"{len(histograms)} histograms"
    )

    serve_counters = {k: v for k, v in counters.items() if k.startswith("serve.")}
    if serve_counters or any(k.startswith("serve.") for k in histograms):
        lines.append("")
        lines.append("serve: request outcomes")
        order = (
            "total", "ok", "error", "timeout", "overloaded",
            "shutting_down", "degraded",
        )
        for key in order:
            value = counters.get(f"serve.requests.{key}")
            if value is not None:
                lines.append(f"  {key:14s} {int(value):8d}")
        shed = counters.get("serve.admission.shed", 0)
        admitted = counters.get("serve.admission.admitted", 0)
        expired = counters.get("serve.admission.expired", 0)
        lines.append(
            f"  admission: {int(admitted)} admitted, {int(shed)} shed, "
            f"{int(expired)} expired waiting"
        )
        expiries = {
            k.rsplit(".", 1)[-1]: int(v)
            for k, v in counters.items()
            if k.startswith("serve.deadline.expired.")
        }
        if expiries:
            parts = ", ".join(f"{st}={n}" for st, n in sorted(expiries.items()))
            lines.append(f"  deadline expiries by stage: {parts}")
        steps = (
            int(counters.get("serve.degrade.step_up", 0)),
            int(counters.get("serve.degrade.step_down", 0)),
        )
        if any(steps):
            lines.append(
                f"  degradation ladder: {steps[0]} step-up(s), "
                f"{steps[1]} step-down(s)"
            )
        groups = counters.get("serve.batch.groups")
        lanes_hist = histograms.get("serve.batch.lanes")
        if groups is not None or lanes_hist is not None or any(
            k.startswith("serve.batch.") for k in counters
        ):
            lines.append("")
            lines.append("serve: query batching")
            lines.append(
                f"  shared solves: {int(counters.get('serve.batch.groups', 0))} "
                f"group(s) answered "
                f"{int(counters.get('serve.batch.requests', 0))} request(s); "
                f"{int(counters.get('serve.batch.solo', 0))} solo window(s), "
                f"{int(counters.get('serve.batch.fallback', 0))} fallback(s)"
            )
            if lanes_hist is not None and lanes_hist["count"]:
                mean_lanes = lanes_hist["total"] / lanes_hist["count"]
                q50 = histogram_quantile(
                    lanes_hist["buckets"], lanes_hist["counts"], 0.50
                )
                lines.append(
                    f"  lanes per solve: mean {mean_lanes:.1f}, q50 ~{q50:.1f}"
                )
        lines.append("")
        lines.append("serve: latency (histogram estimates)")
        for name in sorted(histograms):
            if name.startswith(("serve.admission.wait", "serve.stage.",
                                "serve.request.time", "serve.batch.window")):
                lines.append(_fmt_hist_line(name, histograms[name]))
        serve_gauges = {
            k: v for k, v in gauges.items() if k.startswith(("serve.", "cache."))
        }
        if serve_gauges:
            lines.append("")
            lines.append("serve: gauges (last observed)")
            for name in sorted(serve_gauges):
                lines.append(f"  {name:32s} {serve_gauges[name]:10.3f}")

    perf_counters = {k: v for k, v in counters.items() if k.startswith("perf.")}
    if perf_counters:
        lines.append("")
        lines.append("perf: engine counters")
        for name in sorted(perf_counters):
            lines.append(f"  {name:40s} {perf_counters[name]:12.0f}")

    other = {
        k: v
        for k, v in counters.items()
        if not k.startswith(("serve.", "perf."))
    }
    if other:
        lines.append("")
        lines.append("other counters")
        for name in sorted(other):
            lines.append(f"  {name:40s} {other[name]:12.0f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Profile-style breakdown of a --trace-out trace (JSONL "
        "or Chrome trace_event JSON) or a --metrics-out metrics snapshot "
        "(auto-detected; snapshots get the serve request summary).",
    )
    parser.add_argument("trace", help="path to trace.jsonl / trace.json / metrics.json")
    parser.add_argument(
        "--top", type=int, default=20, help="span names to list (default 20)"
    )
    args = parser.parse_args(argv)
    path = Path(args.trace)
    try:
        text = path.read_text()
    except FileNotFoundError:
        print(f"repro stats: no such file: {path}")
        return 2
    except IsADirectoryError:
        print(f"repro stats: {path} is a directory, expected a trace/metrics file")
        return 2
    if not text.strip():
        print(f"repro stats: {path} is empty (run produced no spans/metrics?)")
        return 2
    stripped = text.lstrip()
    report: str | None = None
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
        if _is_metrics_snapshot(obj):
            report = format_metrics(obj, title=f"metrics stats: {args.trace}")
    if report is None:
        try:
            spans = load_trace(args.trace)
        except ValueError as exc:
            print(f"repro stats: {exc}")
            return 2
        report = format_stats(spans, top=args.top, title=f"trace stats: {args.trace}")
    try:
        print(report)
    except BrokenPipeError:  # e.g. `repro stats trace | head`
        import os
        import sys

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0
