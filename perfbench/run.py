"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, measured with nothing wrapped;
``--trace 1`` reports the per-layer metrics of a separately traced pass
(see ``tracer.py``) plus the tracing overhead.  Human-readable detail
goes to the lines before it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

GRAPHS = ("rmat", "random", "livejournal", "usa-road", "twitter")

TABLE_PASSES = 3  # cold passes per paper-tables run (medians reported)
TUNE_STARTUPS = 3  # process start-ups per tune-search run (one runs the search)
SERVE_STARTUPS = 3  # server start-ups per serve-mixed run (the last one serves)
SERVE_RATE_QPS = 13.0  # open-loop rate: a quarter of the quiet-host capacity
OPEN_CONNECTIONS = 1
CLOSED_REQUESTS = 250
LATE_MS = 250.0
PASS_TIMEOUT_S = 170.0
STARTUP_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in tracer.SPANS:
        units[f"{span}_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update(
        {
            "gpusim.charge_calls": "count",
            "gpusim.sim_sweeps": "count",
            "gpusim.sim_cycles": "cycles",
            "gpusim.us_per_sweep": "us",
            "eval.exact_cache_hit_ratio": "ratio",
            "algorithms.iterations": "count",
            "tune.trials": "count",
            "tune.speedup_x": "x",
            "tune.over_budget": "count",
            "serve.admission.wait_ms": "ms",
            "serve.stage.plan_ms": "ms",
            "serve.stage.solve_ms": "ms",
            "serve.request_ms": "ms",
            "serve.overhead_ms": "ms",
            "serve.latency_p50_ms": "ms",
            "serve.latency_tail_ms": "ms",
            "serve.late_fraction": "ratio",
            "serve.capacity_qps": "q/s",
            "loadgen.max_lag_ms": "ms",
            "unattributed_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


PER_LAYER = _per_layer_units()


def say(msg: str) -> None:
    print(msg, flush=True)


def seeded_order(seed: int) -> list[str]:
    """The suite's graphs in a seed-determined processing order."""
    order = list(GRAPHS)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# worker passes
# ---------------------------------------------------------------------------
def run_pass(name: str, cfg: dict) -> dict:
    """Run one worker pass; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "worker.py"), name, json.dumps(cfg)],
        cwd=common.ROOT,
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RuntimeError(f"{name} pass exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _secs(values: list[float]) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def latency_summary(latencies_ms: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile) with >= 10 samples beyond the tail."""
    pct = stats.tail_percentile(len(latencies_ms))
    return (
        stats.percentile(latencies_ms, 50.0),
        stats.percentile(latencies_ms, pct),
        pct,
    )


def traced_pair(name: str, cfg: dict) -> tuple[dict, dict]:
    """An untraced and a traced pass; layers carry the tracing overhead."""
    plain = run_pass(name, dict(cfg, trace=False))
    traced = run_pass(name, dict(cfg, trace=True))
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
    return plain, traced


# ---------------------------------------------------------------------------
# paper-tables
# ---------------------------------------------------------------------------
def paper_tables(seed: int, seconds: int, trace: bool, ledger) -> dict:
    cfg = {"order": seeded_order(seed), "trace": False}
    if trace:
        plain, traced = traced_pair("paper-tables", dict(cfg, oracles=False))
        for out in (plain, traced):
            ledger.absorb(**out["ledger"])
        return traced["layers"]

    setups, works, walls, rss, ops = [], [], [], [], []
    for i in range(TABLE_PASSES):
        out = run_pass("paper-tables", dict(cfg, oracles=i == 0))
        ledger.absorb(**out["ledger"])
        setups.append(out["setup_cpu"])
        works.append(out["work_cpu"])
        walls.append(out["work_wall"])
        rss.append(out["rss_mb"])
        ops.extend(out["op_ms"])
    p50, tail, pct = latency_summary(ops)
    say(
        f"paper-tables: {TABLE_PASSES} cold passes, tables 6-8 CPU "
        f"{_secs(works)} s (wall {_secs(walls)} s), set-up CPU {_secs(setups)} s; "
        f"{len(ops)} cells: p50 {p50:.1f} ms, p{pct:g} {tail:.1f} ms CPU"
    )
    return {
        "setup_s": statistics.median(setups),
        "work_s": statistics.median(works),
        "p50_ms": p50,
        "tail_ms": tail,
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------------------
# tune-search
# ---------------------------------------------------------------------------
def tune_search(seed: int, seconds: int, trace: bool, ledger) -> dict:
    # the search's only input is the fixed suite; permuting the family
    # order (the one thing a seed could vary) moves peak RSS by 15%
    # through allocation order, which is noise, not a property of the search
    cfg = {"order": list(GRAPHS), "trace": False}
    if trace:
        plain, traced = traced_pair("tune-search", cfg)
        for out in (plain, traced):
            ledger.absorb(**out["ledger"])
        quality = plain["quality"]
        layers = traced["layers"]
        layers["tune.speedup_x"] = quality["speedup_x"]
        layers["tune.over_budget"] = len(quality["over_budget"])
        return layers

    out = run_pass("tune-search", cfg)
    ledger.absorb(**out["ledger"])
    setups = [out["setup_cpu"]]
    for _ in range(TUNE_STARTUPS - 1):
        setups.append(run_pass("startup", {})["setup_cpu"])
    quality = out["quality"]
    p50, tail, pct = latency_summary(out["op_ms"])
    say(
        f"tune-search: run_tune CPU {out['work_cpu']:.3f} s (wall "
        f"{out['work_wall']:.3f} s), start-up CPU {_secs(setups)} s; "
        f"{len(out['op_ms'])} probes: p50 {p50:.1f} ms, p{pct:g} {tail:.1f} ms CPU; "
        f"tuned-vs-static speedup "
        f"{quality['speedup_x']:.4f}x; over the {common.TUNE_BUDGET_PERCENT:g}% "
        f"budget: {len(quality['over_budget'])} {quality['over_budget']}"
    )
    return {
        "setup_s": statistics.median(setups),
        "work_s": out["work_cpu"],
        "p50_ms": p50,
        "tail_ms": tail,
        "peak_rss_mb": out["rss_mb"],
    }


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` in a subprocess, timed to its listening line."""

    def __init__(self) -> None:
        spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *common.SERVE_ARGS],
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.clock_tick = os.sysconf("SC_CLK_TCK")
        lines: queue.Queue = queue.Queue()
        threading.Thread(
            target=lambda: lines.put(self.proc.stdout.readline()), daemon=True
        ).start()
        try:
            line = lines.get(timeout=STARTUP_TIMEOUT_S)
        except queue.Empty:
            line = ""
        self.startup_wall = time.monotonic() - spawn
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.startup_cpu = self.cpu_s()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server, all threads, so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self.clock_tick

    def connection_thread_cpu(self):
        """A clock of the CPU seconds of the thread serving the next connection.

        The server runs one thread per connection, which does the
        request's work; the clock finds that thread as the one task
        that appears after this call, on its first reading.
        """
        tasks = Path(f"/proc/{self.proc.pid}/task")
        known = set(os.listdir(tasks))
        tid: list[str] = []

        def clock() -> float:
            if not tid:
                deadline = time.monotonic() + 5.0
                while not (new := set(os.listdir(tasks)) - known):
                    if time.monotonic() > deadline:
                        raise RuntimeError("no server thread for the connection")
                    time.sleep(0.001)
                if len(new) != 1:
                    raise RuntimeError(f"ambiguous server threads {sorted(new)}")
                tid.append(new.pop())
            return int((tasks / tid[0] / "schedstat").read_text().split()[0]) / 1e9

        return clock

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _hist_mean_ms(snapshot: dict, name: str) -> float:
    h = (snapshot.get("histograms") or {}).get(name)
    return 1000.0 * h["total"] / h["count"] if h and h["count"] else 0.0


def serve_mixed(seed: int, seconds: int, trace: bool, ledger) -> dict:
    import loadgen
    from repro.serve.protocol import ServeClient

    connections = common.SERVE_WORKERS
    startups, startup_walls = [], []
    server = None
    try:
        for _ in range(1 if trace else SERVE_STARTUPS):
            if server is not None:
                server.stop()
            server = ServerProcess()
            startups.append(server.startup_cpu)
            startup_walls.append(server.startup_wall)
        with ServeClient(server.host, server.port) as admin:
            info = admin.request({"op": "graphs"})["result"]
        nodes = {name: g["nodes"] for name, g in info.items()}
        n_open = math.ceil(SERVE_RATE_QPS * seconds)
        open_stream = loadgen.make_stream(seed, 0, n_open, nodes)
        closed_stream = loadgen.make_stream(seed, 1, CLOSED_REQUESTS, nodes)

        loadgen.warm_up(server.host, server.port, open_stream)
        cpu0 = server.cpu_s()
        open_recs, max_lag_ms = loadgen.open_loop(
            server.host, server.port, open_stream, SERVE_RATE_QPS, OPEN_CONNECTIONS,
            server_cpu=server.connection_thread_cpu(),
        )
        open_cpu = server.cpu_s() - cpu0
        cpu0 = server.cpu_s()
        closed_recs, closed_wall = loadgen.closed_loop(
            server.host, server.port, closed_stream, connections
        )
        closed_cpu = server.cpu_s() - cpu0
        with ServeClient(server.host, server.port) as admin:
            snapshot = admin.request({"op": "stats"})["result"]
        rss_mb = common.peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    # --- correctness, after the timed phases and with the server gone ----
    reference = loadgen.Reference(common.SCALE, common.SUITE_SEED)
    for req, rec in list(zip(open_stream, open_recs)) + list(zip(closed_stream, closed_recs)):
        if rec["status"] != "ok":
            ledger.record(False, f"{req['op']}/{req['graph']}: {rec['status']}")
        else:
            ledger.record(
                not rec["degraded"] and reference.matches(req, rec["result"]),
                f"{req['op']}/{req['graph']}: wrong answer {rec['result']}",
            )

    ok = [r for r in open_recs if r["status"] == "ok"]
    late = sum(1 for r in open_recs if r["status"] != "ok" or r["latency_ms"] > LATE_MS)
    lat_p50, lat_tail, pct = latency_summary([r["latency_ms"] for r in ok])
    p50, tail, _ = latency_summary([r["server_cpu_ms"] for r in ok])
    capacity = len(closed_recs) / closed_wall
    say(
        f"serve-mixed: open loop {len(open_recs)} queries at {SERVE_RATE_QPS:g} q/s "
        f"over {OPEN_CONNECTIONS} connection: latency from due time p50 "
        f"{lat_p50:.2f} ms, p{pct:g} {lat_tail:.2f} ms "
        f"({stats.samples_beyond(len(ok), pct):.1f} samples beyond); server CPU "
        f"per query p50 {p50:.2f} ms, p{pct:g} {tail:.2f} ms; late "
        f"(> {LATE_MS:g} ms or failed) {late}/{len(open_recs)}; max feeder lag "
        f"{max_lag_ms:.2f} ms; server CPU {open_cpu:.2f} s"
    )
    by_kind: dict[str, list[float]] = {}
    for req, rec in zip(open_stream, open_recs):
        if rec["status"] == "ok":
            by_kind.setdefault(f"{req['op']}/{req['graph']}", []).append(rec["server_cpu_ms"])
    say(
        "serve-mixed: server CPU per query by kind, median ms (count): "
        + ", ".join(
            f"{kind} {statistics.median(v):.2f} ({len(v)})" for kind, v in sorted(by_kind.items())
        )
    )
    say(
        f"serve-mixed: closed loop {len(closed_recs)} queries over {connections} "
        f"connections in {closed_wall:.3f} s = {capacity:.1f} q/s, server CPU "
        f"{closed_cpu:.3f} s; server start-up CPU {_secs(startups)} s "
        f"(wall {_secs(startup_walls)} s)"
    )
    if trace:
        replay = run_pass(
            "serve-replay", {"stream": closed_stream, "connections": 1}
        )
        layers = replay["layers"]
        ledger.record(
            replay["ok"] == replay["attempted"],
            f"replay: {replay['attempted'] - replay['ok']} queries not ok",
        )
        overhead = [r["rtt_ms"] - r["server_ms"] for r in ok]
        layers.update(
            {
                "serve.admission.wait_ms": _hist_mean_ms(snapshot, "serve.admission.wait"),
                "serve.stage.plan_ms": _hist_mean_ms(snapshot, "serve.stage.plan"),
                "serve.stage.solve_ms": _hist_mean_ms(snapshot, "serve.stage.solve"),
                "serve.request_ms": _hist_mean_ms(snapshot, "serve.request.time"),
                "serve.overhead_ms": sum(overhead) / len(overhead),
                "serve.latency_p50_ms": lat_p50,
                "serve.latency_tail_ms": lat_tail,
                "serve.late_fraction": late / len(open_recs),
                "serve.capacity_qps": capacity,
                "loadgen.max_lag_ms": max_lag_ms,
            }
        )
        return layers
    return {
        "setup_s": statistics.median(startups),
        "work_s": open_cpu,
        "p50_ms": p50,
        "tail_ms": tail,
        "peak_rss_mb": rss_mb,
    }


RUNNERS = {
    "paper-tables": paper_tables,
    "serve-mixed": serve_mixed,
    "tune-search": tune_search,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        common.use_program()
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ledger = stats.FailureLedger()
    values = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), ledger)
    units = PER_LAYER if args.trace else END_TO_END
    for reason in ledger.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    say(
        f"{args.workload}: {ledger.failed}/{ledger.attempted} operations failed "
        f"(fail fraction {ledger.fail_fraction:.4f})"
    )
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
