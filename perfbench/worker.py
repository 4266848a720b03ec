"""One cold pass of a workload, run in its own process by ``run.py``.

Usage: ``python3 perfbench/worker.py <pass> '<json config>'``; the last
line of standard output is the pass's JSON result.  Each pass starts
from a fresh interpreter, so every pass pays what a user pays on every
command: imports, suite generation and the one-time transforms.

Passes:

* ``paper-tables`` — Tables 6-8 vs Baseline-I on a prepared TableRunner;
* ``tune-search`` — ``repro.tune.search.run_tune`` cold;
* ``startup`` — import the tuner and exit (process start-up only);
* ``serve-replay`` — an in-process server answering a request list
  closed-loop, once untraced and once traced (per-layer attribution).

With ``"trace": true`` the layer entry points are wrapped (see
``tracer.py``) before any work starts.

Times are CPU seconds (process or thread), not wall-clock: Linux leaves
time a hypervisor steals out of a task's CPU time, so a pass's cost
reads the same whether or not a neighbouring VM was busy.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import stats  # noqa: E402

TECHNIQUES = ("coalescing", "shmem", "divergence")


def _start_trace(trace: bool):
    if not trace:
        return None, None
    import tracer

    timer = tracer.SelfTimer(clock=time.thread_time)
    tracer.install(timer)
    return timer, tracer.read_counters()


def _layers(timer, before, cpu_s: float) -> dict | None:
    """Per-layer figures; ``cpu_s`` is the traced region's process CPU time."""
    if timer is None:
        return None
    import tracer

    layers = tracer.layer_metrics(timer, before, tracer.read_counters())
    layers["unattributed_s"] = cpu_s - layers.pop("attributed_s")
    return layers


# ---------------------------------------------------------------------------
# paper-tables
# ---------------------------------------------------------------------------
def paper_tables(cfg: dict) -> dict:
    import numpy as np

    from repro.eval import tables
    from repro.errors import TransformError
    from repro.eval.harness import Harness
    from repro.graphs import generators
    from repro.gpusim.device import K40C

    class RecordingHarness(Harness):
        """Keeps each cell's full result and every exact baseline run."""

        def __post_init__(self) -> None:
            super().__post_init__()
            self.last = None
            self.exact_results: dict = {}

        def run(self, *args, **kwargs):
            self.last = super().run(*args, **kwargs)
            return self.last

        def exact_run(self, graph, algorithm, baseline):
            res = super().exact_run(graph, algorithm, baseline)
            self.exact_results[(id(graph), algorithm)] = res
            return res

    class Runner(tables.TableRunner):
        def __post_init__(self) -> None:
            super().__post_init__()
            self.cells: list = []

        def cell_row(self, name, algo, technique, baseline):
            self.harness.last = None
            t0 = time.thread_time()
            row = super().cell_row(name, algo, technique, baseline)
            elapsed = time.thread_time() - t0
            self.cells.append((technique, algo, name, row, self.harness.last, elapsed))
            return row

    timer, before = _start_trace(cfg["trace"])
    suite = generators.paper_suite(common.SCALE, seed=common.SUITE_SEED)
    runner = Runner(
        scale=common.SCALE,
        seed=common.SUITE_SEED,
        suite={name: suite[name] for name in cfg["order"]},
        harness=RecordingHarness(
            device=K40C, num_bc_sources=common.NUM_BC_SOURCES, seed=common.SUITE_SEED
        ),
    )
    for name in runner.suite:
        runner.knobs_for(name)
        for technique in TECHNIQUES:
            try:
                runner.plan_for(name, technique)
            except (TransformError, MemoryError):
                pass  # plan_for caches the failure; the cell degrades
    setup_cpu = time.process_time()

    t0, c0 = time.perf_counter(), time.process_time()
    tables.table6_coalescing(runner)
    tables.table7_shmem(runner)
    tables.table8_divergence(runner)
    tables_wall = time.perf_counter() - t0
    tables_cpu = time.process_time() - c0
    cpu_s = time.process_time()
    layers = _layers(timer, before, cpu_s)

    # --- correctness, outside the timed window -------------------------
    expected = common.load_expected().get("paper-tables", {})
    ledger = stats.FailureLedger()
    fingerprints = {}
    for technique, algo, name, row, res, _ in runner.cells:
        key = f"{technique}/{algo}/{name}"
        if row.get("degraded") or res is None:
            ledger.record(False, f"{key}: degraded ({row.get('degraded_reason')})")
            continue
        got = fingerprints[key] = common.cell_fingerprint(res)
        ledger.record(
            got == expected.get(key), f"{key}: cycles/accuracy {got} != {expected.get(key)}"
        )
    if cfg["oracles"]:
        from repro.algorithms import exact
        from repro.algorithms.bc import pick_sources

        by_id = {id(g): n for n, g in runner.suite.items()}
        results = {
            (by_id[gid], algo): res
            for (gid, algo), res in runner.harness.exact_results.items()
        }
        for name, graph in runner.suite.items():
            source = int(np.argmax(graph.out_degrees()))
            bc_sources = pick_sources(
                graph.num_nodes, common.NUM_BC_SOURCES, common.SUITE_SEED
            )
            for algo, ok in common.oracle_checks(
                exact, graph, source, bc_sources,
                {a: results.get((name, a)) for a in ("sssp", "mst", "scc", "pr", "bc")},
            ):
                ledger.record(ok, f"oracle {algo}/{name}")

    return {
        "setup_cpu": setup_cpu,
        "work_cpu": tables_cpu,
        "work_wall": tables_wall,
        "cpu_s": cpu_s,
        "op_ms": [c[5] * 1000.0 for c in runner.cells],
        "rss_mb": common.peak_rss_mb(),
        "ledger": ledger.as_dict(),
        "fingerprints": fingerprints,
        "layers": layers,
    }


# ---------------------------------------------------------------------------
# tune-search
# ---------------------------------------------------------------------------
def tune_search(cfg: dict) -> dict:
    from repro.tune import search

    probe_ms: list[float] = []
    probe = search._probe

    def timed_probe(*args, **kwargs):
        t0 = time.thread_time()
        try:
            return probe(*args, **kwargs)
        finally:
            probe_ms.append((time.thread_time() - t0) * 1000.0)

    search._probe = timed_probe
    timer, before = _start_trace(cfg["trace"])
    setup_cpu = time.process_time()

    t0, c0 = time.perf_counter(), time.process_time()
    report = search.run_tune(
        scale=common.SCALE,
        seed=common.SUITE_SEED,
        quick=False,
        budget_percent=common.TUNE_BUDGET_PERCENT,
        families=cfg["order"],
    )
    tune_wall = time.perf_counter() - t0
    tune_cpu = time.process_time() - c0
    cpu_s = time.process_time()
    layers = _layers(timer, before, cpu_s)

    expected = common.load_expected().get("tune-search", {})
    ledger = stats.FailureLedger()
    fingerprints = {}
    over_budget = []
    for name in cfg["order"]:
        rec = report["families"].get(name)
        if rec is None:
            ledger.record(False, f"family {name}: missing")
            continue
        budget_ok = rec["within_budget"] == (
            rec["tuned"]["inaccuracy_percent"] <= report["budget_percent"]
        )
        got = fingerprints[name] = common.family_fingerprint(rec)
        ok = ledger.record(
            budget_ok and got == expected.get(name),
            f"family {name}: within_budget/cycles {got} != {expected.get(name)}",
        )
        if ok and not rec["within_budget"]:
            over_budget.append(name)
    quality = {
        "speedup_x": report["aggregate_speedup_vs_static"],
        "over_budget": over_budget,
    }
    return {
        "setup_cpu": setup_cpu,
        "work_cpu": tune_cpu,
        "work_wall": tune_wall,
        "cpu_s": cpu_s,
        "op_ms": probe_ms,
        "rss_mb": common.peak_rss_mb(),
        "ledger": ledger.as_dict(),
        "quality": quality,
        "fingerprints": fingerprints,
        "layers": layers,
    }


def startup(cfg: dict) -> dict:
    from repro.tune import search  # noqa: F401 - the import is the work

    return {"setup_cpu": time.process_time()}


# ---------------------------------------------------------------------------
# serve-replay
# ---------------------------------------------------------------------------
def serve_replay(cfg: dict) -> dict:
    import loadgen
    from repro.serve.server import ReproServer
    from repro.serve import service as serve_service

    config = common.serve_config()
    stream = cfg["stream"]
    server = ReproServer(config)
    port = server.start()
    try:
        loadgen.warm_up(config.host, port, stream)
        c0 = time.process_time()
        loadgen.closed_loop(config.host, port, stream, cfg["connections"])
        untraced_cpu = time.process_time() - c0

        timer, before = _start_trace(True)
        c0 = time.process_time()
        serve_service.GraphService(config)  # traced start-up: plans + self-check
        c1 = time.process_time()
        records, _ = loadgen.closed_loop(config.host, port, stream, cfg["connections"])
        c2 = time.process_time()
    finally:
        server.stop()
    layers = _layers(timer, before, c2 - c0)
    layers["trace.overhead_s"] = (c2 - c1) - untraced_cpu
    ok = sum(1 for r in records if r["status"] == "ok")
    return {"layers": layers, "ok": ok, "attempted": len(records)}


PASSES = {
    "paper-tables": paper_tables,
    "tune-search": tune_search,
    "startup": startup,
    "serve-replay": serve_replay,
}


def main(argv: list[str]) -> int:
    name, cfg = argv[0], json.loads(argv[1])
    common.use_program()
    result = PASSES[name](cfg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
