"""A low-overhead sampling profiler attributing time to trace spans.

The tracer (:mod:`repro.obs.trace`) answers "how long did each
instrumented region take"; this module answers the complementary
question "*where inside* those regions did the wall-clock actually go" —
without instrumenting anything.  A background thread wakes every
``interval`` seconds, grabs every thread's current Python stack via
:func:`sys._current_frames`, and records

* the **collapsed call stack** (``root;caller;callee`` — the
  Brendan-Gregg flamegraph input format, render with ``flamegraph.pl``
  or paste into https://www.speedscope.app), and
* the **innermost open trace span** of the sampled thread, read from the
  active :class:`~repro.obs.trace.Tracer` — so every sample lands in the
  span taxonomy the rest of the repo reports in (``solve.sweep``,
  ``transform.coalesce``, ``serve.execute`` …).

Overhead is bounded by construction: sampling costs one
``sys._current_frames()`` call plus a bounded stack walk per live
thread, paid ``1/interval`` times per second regardless of how hot the
profiled code is.  At the default 5 ms interval the measured overhead on
a small kernel workload is well under the documented 5 % bound
(asserted by ``tests/test_obs_prof.py``, not just claimed here).

Memory attribution is opt-in (``memory=True``): :mod:`tracemalloc` is
started and each sample also records the process-wide traced high-water
against every span open at that instant.  tracemalloc itself costs far
more than the sampler (it hooks every allocation), which is why it is
not part of the default profile and excluded from the overhead bound.

CLI integration: ``--profile PREFIX`` (or ``REPRO_PROFILE=PREFIX``) on
``python -m repro`` (suite) and ``python -m repro serve`` writes
``PREFIX.collapsed`` (flamegraph input) and ``PREFIX.json`` (the
machine-readable span report, diffable with ``python -m repro obs
diff``).  ``REPRO_PROFILE_INTERVAL_MS`` overrides
the sampling interval.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from . import trace as obs_trace
from .log import get_logger

__all__ = [
    "SamplingProfiler",
    "profiling",
    "profile_prefix_from_env",
    "start_from_cli",
    "write_outputs",
    "ENV_VAR",
    "ENV_INTERVAL_MS",
]

logger = get_logger("obs.prof")

ENV_VAR = "REPRO_PROFILE"
ENV_INTERVAL_MS = "REPRO_PROFILE_INTERVAL_MS"

#: default sampling interval (seconds): 200 Hz keeps the sampler cost
#: negligible while resolving millisecond-scale spans
DEFAULT_INTERVAL = 0.005

#: frames kept per sampled stack; deeper stacks are truncated at the root
MAX_STACK_DEPTH = 64

#: span bucket for samples taken while the thread had no open span
UNATTRIBUTED = "(no span)"


def _frame_label(frame) -> str:
    """``module.function`` for one stack frame (module trimmed to leaf)."""
    mod = frame.f_globals.get("__name__", "?")
    return f"{mod.rsplit('.', 1)[-1]}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Samples every thread's stack and span on a timer thread.

    Thread-safe to start/stop once; results accumulate in

    * :attr:`span_samples` — samples per innermost-open-span name,
    * :attr:`stacks` — samples per collapsed call stack,
    * :attr:`thread_samples` — samples per thread name,
    * :attr:`memory_high_water` — (``memory=True`` only) max traced
      bytes observed per span name while that span was open.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        *,
        tracer: obs_trace.Tracer | None = None,
        memory: bool = False,
        max_stack_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.interval = float(interval)
        self.memory = bool(memory)
        self.max_stack_depth = int(max_stack_depth)
        self._tracer = tracer
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at = 0.0
        self._stopped_at = 0.0
        self._mem_started_here = False
        self.samples = 0
        self.attributed = 0
        self.span_samples: dict[str, int] = {}
        self.stacks: dict[str, int] = {}
        self.thread_samples: dict[str, int] = {}
        self.memory_high_water: dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._mem_started_here = True
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._stopped_at = time.perf_counter()
        if self._mem_started_here:
            import tracemalloc

            tracemalloc.stop()
            self._mem_started_here = False
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _run(self) -> None:
        my_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            try:
                self._sample(my_ident)
            except Exception:  # noqa: BLE001 - a bad sample must not kill the run
                pass

    def _sample(self, my_ident: int) -> None:
        tracer = self._tracer if self._tracer is not None else obs_trace.get_tracer()
        open_spans = tracer.open_spans() if tracer is not None else {}
        names = {t.ident: t.name for t in threading.enumerate()}
        mem_now = 0
        if self.memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                mem_now = tracemalloc.get_traced_memory()[0]
        for ident, frame in sys._current_frames().items():
            if ident == my_ident:
                continue
            self.samples += 1
            tname = names.get(ident, str(ident))
            self.thread_samples[tname] = self.thread_samples.get(tname, 0) + 1
            span = open_spans.get(ident)
            span_name = span.name if span is not None else UNATTRIBUTED
            if span is not None:
                self.attributed += 1
            self.span_samples[span_name] = self.span_samples.get(span_name, 0) + 1
            if self.memory and span is not None:
                prev = self.memory_high_water.get(span_name, 0)
                if mem_now > prev:
                    self.memory_high_water[span_name] = mem_now
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_stack_depth:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()
            key = ";".join(stack) if stack else "(empty)"
            self.stacks[key] = self.stacks.get(key, 0) + 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Profiled wall-clock (start to stop, or to now while running)."""
        end = self._stopped_at if self._stopped_at else time.perf_counter()
        return max(0.0, end - self._started_at) if self._started_at else 0.0

    @property
    def attributed_fraction(self) -> float:
        """Fraction of samples that landed inside an open trace span."""
        return self.attributed / self.samples if self.samples else 0.0

    def report(self) -> dict:
        """Machine-readable profile: per-span samples, seconds, shares."""
        total = self.samples or 1
        spans = [
            {
                "span": name,
                "samples": count,
                "seconds": round(count * self.interval, 6),
                "share": round(count / total, 6),
            }
            for name, count in sorted(
                self.span_samples.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        out = {
            "schema": 1,
            "interval_seconds": self.interval,
            "duration_seconds": round(self.duration, 6),
            "samples": self.samples,
            "attributed": self.attributed,
            "attributed_fraction": round(self.attributed_fraction, 6),
            "spans": spans,
            "threads": dict(sorted(self.thread_samples.items())),
        }
        if self.memory:
            out["memory_high_water_bytes"] = dict(
                sorted(self.memory_high_water.items())
            )
        return out

    def format_report(self, *, top: int = 15) -> str:
        """Human-readable per-span summary (goes through the logger)."""
        rep = self.report()
        lines = [
            f"profile: {rep['samples']} samples @ {self.interval * 1000:.1f}ms "
            f"over {rep['duration_seconds']:.3f}s "
            f"({rep['attributed_fraction']:.1%} attributed to spans)"
        ]
        for row in rep["spans"][:top]:
            lines.append(
                f"  {row['span']:40s} {row['samples']:6d} samples "
                f"~{row['seconds']:8.3f}s  {row['share']:6.1%}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_collapsed(self, path: str | Path) -> Path:
        """Write collapsed stacks (``frame;frame;frame count`` per line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for stack, count in sorted(self.stacks.items()):
                fh.write(f"{stack} {count}\n")
        return path

    def export_report(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.report(), indent=2, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# CLI plumbing shared by suite / perf / serve
# ---------------------------------------------------------------------------
def profile_prefix_from_env() -> str | None:
    """The ``REPRO_PROFILE`` output prefix, or ``None`` when unset."""
    prefix = os.environ.get(ENV_VAR, "").strip()
    return prefix or None


def _env_interval() -> float:
    raw = os.environ.get(ENV_INTERVAL_MS, "").strip()
    if not raw:
        return DEFAULT_INTERVAL
    try:
        ms = float(raw)
    except ValueError:
        logger.warning("ignoring bad %s=%r", ENV_INTERVAL_MS, raw)
        return DEFAULT_INTERVAL
    return ms / 1000.0 if ms > 0 else DEFAULT_INTERVAL


def start_from_cli(flag_prefix: str | None, *, memory: bool = False):
    """Start a profiler for a CLI run if ``--profile`` or the env asks.

    Returns ``(profiler, prefix)`` — both ``None`` when profiling is
    off.  Installs a tracer as a side effect when none is active, since
    span attribution is the profiler's whole point.
    """
    prefix = flag_prefix or profile_prefix_from_env()
    if not prefix:
        return None, None
    if obs_trace.get_tracer() is None:
        obs_trace.install_tracer()
    prof = SamplingProfiler(_env_interval(), memory=memory)
    prof.start()
    logger.info(
        "sampling profiler on (%.1fms interval) -> %s.collapsed / %s.json",
        prof.interval * 1000.0, prefix, prefix,
    )
    return prof, prefix


def write_outputs(prof: "SamplingProfiler", prefix: str) -> tuple[Path, Path]:
    """Stop ``prof`` and write ``<prefix>.collapsed`` + ``<prefix>.json``."""
    prof.stop()
    collapsed = prof.export_collapsed(f"{prefix}.collapsed")
    report = prof.export_report(f"{prefix}.json")
    logger.info("%s", prof.format_report())
    logger.info("wrote %s and %s", collapsed, report)
    return collapsed, report


@contextmanager
def profiling(
    interval: float = DEFAULT_INTERVAL,
    *,
    tracer: obs_trace.Tracer | None = None,
    memory: bool = False,
) -> Iterator[SamplingProfiler]:
    """``with profiling() as prof:`` — start/stop around a block."""
    prof = SamplingProfiler(interval, tracer=tracer, memory=memory)
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
