"""``python -m repro obs diff A B``: noise-aware performance comparison.

Every pair of values is compared against one relative noise band,
``--noise``: a candidate must move further than that from its baseline
before the pair gets a verdict.  The verdict per pair is one of
``improved`` / ``regressed`` / ``neutral`` (plus ``below-floor`` for
values too small to compare meaningfully and ``added``/``removed`` for
asymmetric keys), and the run's exit status is non-zero iff anything
regressed.

Comparable inputs (auto-detected by shape):

* **tune reports** (``benchmarks/results/BENCH_TUNE.json`` from
  ``python -m repro tune``) — per family tuned cycles, inverse speedup
  over the best static knobs and inaccuracy;
* **trajectory files** (``benchmarks/results/TRAJECTORY_TUNE.json``) —
  the last recorded entry's report is compared (``--entry`` picks
  another);
* **metrics snapshots** (``--metrics-out`` JSON) — histogram means and
  time-like gauges;
* **verify reports** (``--report`` of ``python -m repro verify``) — the
  embedded per-check timing gauges, so verification-time regressions
  gate like kernel ones;
* **trace files** (JSONL or Chrome ``trace_event``) — per-span-name
  self-time seconds;
* **profiler reports** (``PREFIX.json`` of ``--profile``) — per-span
  sampled seconds.

The verdict math, for lower-is-better values ``a`` (baseline) and ``b``
(candidate): ``b/a > 1 + noise`` ⇒ regressed, ``b/a < 1/(1 + noise)``
⇒ improved, else neutral.  An input of none of these shapes, or one
missing a field its kind needs, raises ``ValueError`` (exit 2).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "load_comparable",
    "extract_series",
    "compare_series",
    "diff_files",
    "format_diff",
    "main",
]

SCHEMA_VERSION = 1

#: default relative noise band around a baseline value
DEFAULT_NOISE = 0.25

#: seconds below which a pair is not compared at all (timer granularity
#: and interpreter jitter dominate); both sides must clear it
DEFAULT_MIN_VALUE = 0.0005

#: gauge-name suffixes treated as lower-is-better timings
_TIME_GAUGE_MARKERS = (".seconds", ".time", "_seconds", ".wait", ".ms")

VERDICTS = ("improved", "regressed", "neutral", "below-floor", "added", "removed")


# ---------------------------------------------------------------------------
# input loading / kind detection
# ---------------------------------------------------------------------------
def load_comparable(path: str | Path, *, entry: int = -1) -> tuple[str, Any]:
    """Load one input file; returns ``(kind, payload)``.

    ``kind`` is one of ``tune`` / ``metrics`` / ``verify`` / ``profile``
    / ``trace``.  Trajectory files resolve to the report of their
    ``entry``-th recorded point (default: the last), re-detecting the
    embedded report's kind.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    text = path.read_text()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path} is empty")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            # multi-line {...} input: a JSONL trace, not broken JSON
            if "\n" in stripped.strip():
                return "trace", _trace_spans(path)
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        if "span_id" in obj and "duration" in obj:
            return "trace", _trace_spans(path)  # one-span JSONL trace
        if "traceEvents" in obj:
            return "trace", _trace_spans(path)
        if isinstance(obj.get("entries"), list):
            obj = _trajectory_report(path, obj["entries"], entry)
        kind = _mapping_kind(obj)
        if kind is not None:
            return kind, obj
    raise ValueError(f"{path}: unrecognized report shape")


def _trajectory_report(path: Path, entries: list, entry: int) -> Mapping:
    """The ``report`` of a trajectory's ``entry``-th recorded point."""
    if not entries:
        raise ValueError(f"trajectory {path} has no entries")
    try:
        picked = entries[entry]
    except IndexError:
        raise ValueError(
            f"trajectory {path} has {len(entries)} entries; "
            f"--entry {entry} is out of range"
        ) from None
    report = picked.get("report") if isinstance(picked, Mapping) else None
    if not isinstance(report, Mapping):
        raise ValueError(f"trajectory {path} entry {entry} has no report")
    return report


def _mapping_kind(obj: Mapping) -> str | None:
    """Shape-detect a mapping report's kind (``None`` if unrecognized)."""
    if "families" in obj:
        return "tune"
    if "checks" in obj:
        return "verify"
    if "spans" in obj and "samples" in obj:
        return "profile"
    if "counters" in obj or "histograms" in obj or "gauges" in obj:
        return "metrics"
    return None


def _trace_spans(path: Path):
    from .stats import load_trace

    return load_trace(path)


# ---------------------------------------------------------------------------
# series extraction: kind-specific -> {key: value}
# ---------------------------------------------------------------------------
def extract_series(kind: str, payload: Any) -> dict[str, float]:
    """Flatten one loaded input into comparable lower-is-better series."""
    if kind == "tune":
        # all series lower-is-better: charged cycles are deterministic,
        # so losing the tuned win or gaining inaccuracy trips the diff
        out = {}
        for family, rec in (payload.get("families") or {}).items():
            out[f"tune:{family}:tuned_cycles"] = float(rec["tuned"]["cycles"])
            spd = float(rec.get("speedup_vs_static") or 0.0)
            if spd > 0:
                out[f"tune:{family}:inv_speedup_vs_static"] = 1.0 / spd
            out[f"tune:{family}:inaccuracy_percent"] = float(
                rec["tuned"]["inaccuracy_percent"]
            )
        return out
    if kind == "verify":
        gauges = ((payload.get("metrics") or {}).get("gauges")) or {}
        return {
            f"verify:{name.removeprefix('verify.check.seconds.')}": float(v)
            for name, v in gauges.items()
            if name.startswith("verify.check.seconds.")
        }
    if kind == "profile":
        return {
            f"profile:{row['span']}:seconds": float(row["seconds"])
            for row in payload.get("spans", [])
        }
    if kind == "trace":
        from .stats import span_stats

        return {
            f"trace:{row['name']}:self_seconds": float(row["self"])
            for row in span_stats(payload)
        }
    if kind == "metrics":
        out = {}
        for name, h in (payload.get("histograms") or {}).items():
            count = int(h.get("count", 0))
            if count:
                out[f"metrics:{name}:mean"] = float(h["total"]) / count
        for name, v in (payload.get("gauges") or {}).items():
            if name.endswith(_TIME_GAUGE_MARKERS) or ".seconds." in name:
                out[f"metrics:{name}"] = float(v)
        return out
    raise ValueError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------------------
# the noise-aware comparison
# ---------------------------------------------------------------------------
def compare_series(
    a: dict[str, float],
    b: dict[str, float],
    *,
    noise: float = DEFAULT_NOISE,
    min_value: float = DEFAULT_MIN_VALUE,
) -> list[dict]:
    """Pair up two series dicts and attach a verdict to every key."""
    pairs: list[dict] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        pair: dict[str, Any] = {"key": key, "a": va, "b": vb}
        pairs.append(pair)
        if va is None or vb is None:
            pair["verdict"] = "added" if va is None else "removed"
        elif va < min_value and vb < min_value:
            pair["verdict"] = "below-floor"
        elif va <= 0.0:
            pair["ratio"] = None
            pair["verdict"] = "regressed" if vb > min_value else "neutral"
        else:
            ratio = vb / va
            pair["ratio"] = round(ratio, 6)
            if ratio > 1.0 + noise:
                pair["verdict"] = "regressed"
            elif ratio < 1.0 / (1.0 + noise):
                pair["verdict"] = "improved"
            else:
                pair["verdict"] = "neutral"
    return pairs


def _load_series(path: str | Path, entry: int) -> tuple[str, dict[str, float]]:
    """Load one input and flatten it; a missing field is a ``ValueError``."""
    kind, payload = load_comparable(path, entry=entry)
    try:
        return kind, extract_series(kind, payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: malformed {kind} report ({type(exc).__name__}: {exc})"
        ) from None


def diff_files(
    path_a: str | Path,
    path_b: str | Path,
    *,
    noise: float = DEFAULT_NOISE,
    min_value: float = DEFAULT_MIN_VALUE,
    entry_a: int = -1,
    entry_b: int = -1,
) -> dict:
    """Compare two report files; returns the machine-readable diff."""
    kind_a, series_a = _load_series(path_a, entry_a)
    kind_b, series_b = _load_series(path_b, entry_b)
    if kind_a != kind_b:
        raise ValueError(
            f"cannot diff a {kind_a} report against a {kind_b} report "
            f"({path_a} vs {path_b})"
        )
    pairs = compare_series(series_a, series_b, noise=noise, min_value=min_value)
    summary = {v: 0 for v in VERDICTS}
    for p in pairs:
        summary[p["verdict"]] += 1
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind_a,
        "a": str(path_a),
        "b": str(path_b),
        "noise_floor": noise,
        "min_value": min_value,
        "pairs": pairs,
        "summary": summary,
        "regressed": summary["regressed"] > 0,
    }


def format_diff(report: dict, *, verbose: bool = False) -> str:
    """Render the diff for the terminal (non-neutral pairs + summary)."""
    lines = [
        f"obs diff ({report['kind']}): {report['a']} -> {report['b']} "
        f"(noise floor {report['noise_floor']:.0%})"
    ]
    shown = 0
    for p in report["pairs"]:
        if not verbose and p["verdict"] in ("neutral", "below-floor"):
            continue
        shown += 1
        a = "—" if p["a"] is None else f"{p['a']:.6g}"
        b = "—" if p["b"] is None else f"{p['b']:.6g}"
        ratio = p.get("ratio")
        extra = "" if ratio is None else f"  x{ratio:.3f}"
        lines.append(f"  {p['verdict'].upper():10s} {p['key']}: {a} -> {b}{extra}")
    if not shown:
        lines.append("  (all pairs neutral)")
    s = report["summary"]
    lines.append(
        f"  {s['improved']} improved, {s['regressed']} regressed, "
        f"{s['neutral']} neutral, {s['below-floor']} below floor, "
        f"{s['added']} added, {s['removed']} removed"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs diff",
        description="Noise-aware comparison of two tune/metrics/verify/"
        "profile/trace reports; exits non-zero on regressions "
        "(see docs/observability.md for the cookbook).",
    )
    parser.add_argument("a", help="baseline report (or a trajectory file)")
    parser.add_argument("b", help="candidate report (or a trajectory file)")
    parser.add_argument(
        "--noise", type=float, default=DEFAULT_NOISE,
        help="relative noise band a ratio must clear to count as a "
        f"regression or improvement (default {DEFAULT_NOISE})",
    )
    parser.add_argument(
        "--min-value", type=float, default=DEFAULT_MIN_VALUE,
        help="skip pairs where both sides are below this (timer noise)",
    )
    parser.add_argument(
        "--entry", type=int, default=-1,
        help="trajectory entry to use when an input is a trajectory file "
        "(default -1: the last recorded point)",
    )
    parser.add_argument("--out", default=None, help="write the JSON diff here")
    parser.add_argument(
        "--verbose", action="store_true", help="list neutral pairs too"
    )
    parser.add_argument(
        "--no-fail", action="store_true",
        help="always exit 0 (report-only mode)",
    )
    args = parser.parse_args(argv)

    try:
        report = diff_files(
            args.a, args.b,
            noise=args.noise,
            min_value=args.min_value,
            entry_a=args.entry,
            entry_b=args.entry,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"obs diff: {exc}")
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(format_diff(report, verbose=args.verbose))
    if args.out:
        print(f"wrote {args.out}")
    if report["regressed"] and not args.no_fail:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    raise SystemExit(main())
