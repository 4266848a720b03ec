"""Self-time accounting around calls into the program's layers.

The program is not modified: :func:`install` wraps the public entry
point of each layer *where it is looked up*.  Functions imported by
name (``from ..perf.gather import expand_frontier``) live on in every
importing module's namespace, so a wrapper is swapped into every loaded
``repro.*`` module that holds the original object; methods are swapped
on their class.  The package ``__init__`` of ``repro.algorithms`` and
``repro.core`` re-export functions under the names of their submodules
(``repro.algorithms.sssp`` is the function there), so originals are
resolved through ``sys.modules``.

A span's *self time* is its duration minus the time covered by wrapped
calls made inside it, so the per-layer times add up to the covered
time without double counting.  The clock is a parameter: the workers
use per-thread CPU time, which a busy host cannot inflate.  Stacks are per thread, which keeps
the accounting right under the server's worker threads.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable


class SelfTimer:
    """Per-name self-time and call-count accumulator over nested spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list]] = []
        self.counts: dict[str, float] = {}

    def _state(self) -> tuple[list, dict]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local.stack, local.table

    def enter(self, name: str) -> list:
        stack, _ = self._state()
        frame = [name, self._clock(), 0.0]  # name, start, child time
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        stack, table = self._state()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = self._clock() - frame[1]
        entry = table.setdefault(frame[0], [0.0, 0])
        entry[0] += duration - frame[2]
        entry[1] += 1
        if stack:
            stack[-1][2] += duration

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        on_result: Callable | None = None,
    ) -> Callable:
        """``fn`` timed under ``name`` (or ``name(*args, **kwargs)``)."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def totals(self) -> dict[str, tuple[float, int]]:
        """Merged ``{name: (self_seconds, calls)}`` across threads."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (secs, calls) in list(table.items()):
                entry = merged.setdefault(name, [0.0, 0])
                entry[0] += secs
                entry[1] += calls
        return {k: (v[0], v[1]) for k, v in merged.items()}


# ---------------------------------------------------------------------------
# the layer map: which entry points are wrapped, under which span name
# ---------------------------------------------------------------------------
#: every span the layer map can produce, in report order
SPANS = (
    "gpusim.charge_full",
    "gpusim.charge_frontier",
    "gpusim.charge_batch",
    "core.build_plan",
    "core.transform.coalesce",
    "core.transform.shmem",
    "core.transform.divergence",
    "core.confluence",
    "algorithms.mst_self",
    "algorithms.scc_self",
    "algorithms.bc_self",
    "algorithms.pagerank_self",
    "algorithms.sssp_self",
    "algorithms.sssp_relax",
    "algorithms.cluster_rounds",
    "perf.expand_frontier",
    "perf.schedule.decide",
    "eval.exact_run",
    "eval.accuracy",
    "tune.family",
    "serve.protocol.encode",
    "serve.protocol.decode",
    "serve.protocol.parse",
    "verify.self_check",
    "graphs.generate",
    "graphs.properties",
)


def _patch_everywhere(original: Callable, wrapped: Callable) -> int:
    """Swap ``wrapped`` for every module-level reference to ``original``."""
    swapped = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapped)
                swapped += 1
    return swapped


def _patch_method(cls: type, attr: str, timer: SelfTimer, name) -> None:
    setattr(cls, attr, timer.wrap(cls.__dict__[attr], name))


def _charge_span(ctx, active=None, **_kwargs) -> str:
    return "gpusim.charge_full" if active is None else "gpusim.charge_frontier"


def install(timer: SelfTimer) -> None:
    """Wrap every layer entry point of the program.

    The defining module is patched along with every module that already
    imported the name, so a module imported later binds the wrapper too.
    """
    import importlib

    mods = {
        name: importlib.import_module(f"repro.{name}")
        for name in (
            "algorithms.bc", "algorithms.common", "algorithms.mst",
            "algorithms.pagerank", "algorithms.scc", "algorithms.sssp",
            "core.coalesce", "core.confluence", "core.divergence",
            "core.pipeline", "core.shmem", "eval.accuracy", "eval.harness",
            "graphs.generators", "graphs.properties", "gpusim.kernel",
            "perf.gather", "perf.schedule", "serve.protocol", "serve.service",
            "tune.search",
        )
    }

    def iterations(result) -> None:
        timer.count("algorithms.iterations", int(result.iterations))

    def trials(record) -> None:
        timer.count(
            "tune.trials", int(record["static_trials"]) + int(record["tuned_trials"])
        )

    functions = [
        ("core.pipeline", "build_plan", "core.build_plan", None),
        ("core.coalesce", "transform_graph", "core.transform.coalesce", None),
        ("core.shmem", "plan_shared_memory", "core.transform.shmem", None),
        ("core.divergence", "normalize_degrees", "core.transform.divergence", None),
        ("core.confluence", "merge_replicas", "core.confluence", None),
        ("algorithms.mst", "mst", "algorithms.mst_self", iterations),
        ("algorithms.scc", "scc", "algorithms.scc_self", iterations),
        ("algorithms.bc", "betweenness_centrality", "algorithms.bc_self", iterations),
        ("algorithms.pagerank", "pagerank", "algorithms.pagerank_self", iterations),
        ("algorithms.sssp", "sssp", "algorithms.sssp_self", iterations),
        ("algorithms.sssp", "sssp_relax", "algorithms.sssp_relax", None),
        ("perf.gather", "expand_frontier", "perf.expand_frontier", None),
        ("eval.accuracy", "attribute_inaccuracy", "eval.accuracy", None),
        ("eval.accuracy", "scc_inaccuracy", "eval.accuracy", None),
        ("eval.accuracy", "mst_inaccuracy", "eval.accuracy", None),
        ("tune.search", "tune_family", "tune.family", trials),
        ("serve.protocol", "encode", "serve.protocol.encode", None),
        ("serve.protocol", "decode_line", "serve.protocol.decode", None),
        ("serve.protocol", "parse_request", "serve.protocol.parse", None),
        ("graphs.generators", "paper_suite", "graphs.generate", None),
    ] + [
        ("graphs.properties", fn, "graphs.properties", None)
        for fn in (
            "clustering_coefficients", "bfs_forest_levels", "bfs_levels",
            "estimate_diameter", "gini_of_degrees", "graph_stats",
        )
    ]
    for mod, attr, span, hook in functions:
        original = getattr(mods[mod], attr)
        _patch_everywhere(original, timer.wrap(original, span, hook))

    kernel = mods["gpusim.kernel"]
    _patch_method(kernel.ExecutionContext, "charge", timer, _charge_span)
    _patch_method(kernel.ExecutionContext, "charge_batch", timer, "gpusim.charge_batch")
    _patch_method(
        mods["algorithms.common"].Runner, "cluster_rounds", timer,
        "algorithms.cluster_rounds",
    )
    _patch_method(mods["eval.harness"].Harness, "exact_run", timer, "eval.exact_run")
    _patch_method(
        mods["serve.service"].GraphService, "self_check", timer, "verify.self_check"
    )
    schedule = mods["perf.schedule"]
    for cls in (schedule.FixedPush, schedule.Explicit, schedule.DirectionOptimizing):
        if "decide" in cls.__dict__:
            _patch_method(cls, "decide", timer, "perf.schedule.decide")


# ---------------------------------------------------------------------------
# program counters read around the traced region
# ---------------------------------------------------------------------------
COUNTERS = (
    "solve.sweeps",
    "solve.sim_cycles",
    "harness.exact_cache.hit",
    "harness.exact_cache.miss",
)


def read_counters() -> dict[str, float]:
    from repro.obs import metrics as obs_metrics

    counters = obs_metrics.snapshot().get("counters", {})
    return {name: float(counters.get(name, 0.0)) for name in COUNTERS}


def layer_metrics(
    timer: SelfTimer, before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Per-layer figures (without units) from one traced region."""
    totals = timer.totals()
    out: dict[str, float] = {}
    for span in SPANS:
        secs, calls = totals.get(span, (0.0, 0))
        out[f"{span}_s"] = secs
        out[f"{span}_calls"] = calls
    delta = {k: after[k] - before[k] for k in COUNTERS}
    charge_s = sum(out[f"gpusim.charge_{k}_s"] for k in ("full", "frontier", "batch"))
    out["gpusim.charge_calls"] = sum(
        out[f"gpusim.charge_{k}_calls"] for k in ("full", "frontier", "batch")
    )
    out["gpusim.sim_sweeps"] = delta["solve.sweeps"]
    out["gpusim.sim_cycles"] = delta["solve.sim_cycles"]
    out["gpusim.us_per_sweep"] = (
        1e6 * charge_s / delta["solve.sweeps"] if delta["solve.sweeps"] else 0.0
    )
    lookups = delta["harness.exact_cache.hit"] + delta["harness.exact_cache.miss"]
    out["eval.exact_cache_hit_ratio"] = (
        delta["harness.exact_cache.hit"] / lookups if lookups else 0.0
    )
    out["algorithms.iterations"] = timer.counts.get("algorithms.iterations", 0)
    out["tune.trials"] = timer.counts.get("tune.trials", 0)
    out["attributed_s"] = sum(totals.get(s, (0.0, 0))[0] for s in SPANS)
    return out
