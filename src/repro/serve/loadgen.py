"""Declarative load generation + KPI gating for the serve layer.

Modeled on redisbench-admin's benchmark definitions (SNIPPETS.md
Snippet 2): a YAML spec names the workload — N client threads, a total
request count, a seeded query mix with per-query ratios — and a
``kpis:`` block of ``le:``/``ge:`` clauses that turn the run into a
pass/fail gate.  ``python -m repro bench serve --spec <yml>`` runs it
and emits ``BENCH_SERVE.json``.

Spec schema::

    name: serve-smoke
    server:                    # in-process server to spawn (omit when
      scale: tiny              # targeting a live one via `connect:`)
      seed: 7
      workers: 4
      max_queue_depth: 16
    connect: {host: ..., port: ...}   # optional: external server
    clients: 4                 # client threads
    requests: 400              # total requests across clients
    seed: 12345                # request-stream RNG seed
    deadline_ms: 2000          # per-request budget
    verify: true               # compare answers with exact-plan runs
    queries:
      - {op: sssp,    graph: rmat,     ratio: 0.5}
      - {op: sssp,    graph: rmat,     ratio: 0.0, source: 0}  # pinned
      - {op: pr_topk, graph: rmat,     ratio: 0.3, k: 8}
      - {op: bc_node, graph: usa-road, ratio: 0.2, num_sources: 4}
    kpis:
      - le: {q50_ms: 100}
      - ge: {qps: 20}
      - le: {shed_rate: 0.0}
      - le: {degraded_rate: 0.0}
    server_kpis:               # optional: gate on the server's own
      - ge: {serve.batch.groups: 1}     # counters after the drive (the
      - le: {serve.batch.fallback: 0}   # batching-window burst specs)
    slo:                       # optional: gate on server-side SLOs
      - name: latency          # evaluated from the drained server's
        indicator: serve.request.time     # own metrics registry via
        threshold_ms: 250      # the admin `stats` op (repro.obs.slo)
        target: 0.95
        max_burn_rate: 8.0     # optional: also gate lifetime burn
    chaos:                     # optional fault window mid-run
      faults: "delay:serve:30"                  # REPRO_FAULTS spec
      start_fraction: 0.3      # arm after 30 % of requests issued
      stop_fraction: 0.6       # disarm after 60 %
      kpis:                    # evaluated on the recovery phase only
        - le: {q50_ms: 100}

KPI metric names: ``q50_ms``/``q90_ms``/``q99_ms`` (latency quantiles
over completed analytics responses), ``qps`` (completed responses per
second of wall-clock), ``shed_rate``/``timeout_rate``/``error_rate``/
``degraded_rate``/``ok_rate`` (fractions of issued requests),
``batched``/``batched_rate`` (responses footnoted ``batched: true`` —
answered from a shared batching-window solve), and ``wrong``
(verified-mismatch count — with ``verify: true`` the gate implicitly
requires 0).  A ``server_kpis:`` block applies the same ``le:``/``ge:``
clauses to the server's own counter snapshot (pulled via the admin
``stats`` op), e.g. ``serve.batch.groups`` to assert shared solves
actually ran server-side.

Queries may pin ``source:`` (sssp) or ``node:`` (bc_node) instead of
drawing them per-request — a pinned burst lands every client on the
same batch key, which is how the burst specs exercise the batching
window deterministically.

An ``slo:`` block lists :func:`repro.obs.slo.slo_from_spec` mappings;
after the drive the loadgen pulls the server's own metrics snapshot
(admin ``stats`` op) and gates ``compliance >= target`` per objective
(plus ``burn_rate <= max_burn_rate`` when the spec sets one) — the
server-side view, so admission waits and shed requests the client never
timed still count.  Against an external ``connect:`` server the
snapshot is cumulative since that server started, not just this run.

With ``verify: true`` the loadgen rebuilds the server's graph suite
from the spec's ``server:`` scale and seed (it refuses to start when the
server's graphs differ) and compares every completed, *non-degraded*
``ok`` answer whole with :meth:`ExactAnswers.expected`: each field,
``iterations`` and ``technique: exact`` included, must be ``==`` —
only the ``batched``/``batch_lanes`` footnotes of a shared solve are
left out.  Degraded answers are only required to carry the footnote.
This is the chaos-mode oracle: under injected faults the server may
shed, time out, error, or degrade — it may never return a wrong answer
silently.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path

import numpy as np

from ..algorithms.bc import betweenness_centrality
from ..algorithms.pagerank import pagerank
from ..algorithms.sssp import sssp
from ..core.pipeline import build_plan
from ..errors import ProtocolError, ServeError
from ..graphs.generators import paper_suite
from ..obs.log import get_logger
from .protocol import ServeClient
from .server import ReproServer
from .service import ServeConfig

__all__ = ["ExactAnswers", "load_spec", "run_spec", "evaluate_kpis", "main"]

logger = get_logger("serve.loadgen")

PHASES = ("before", "fault", "recovery")


# ---------------------------------------------------------------------------
# spec loading
# ---------------------------------------------------------------------------
def load_spec(path: str | Path) -> dict:
    """Parse and sanity-check one YAML load spec."""
    import yaml

    try:
        spec = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ServeError(f"cannot read load spec {path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ServeError(f"load spec {path} is not valid YAML{where}") from exc
    if not isinstance(spec, dict):
        raise ServeError(f"load spec {path} must be a YAML mapping")
    queries = spec.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ServeError("load spec needs a non-empty queries: list")
    total_ratio = sum(float(q.get("ratio", 0.0)) for q in queries)
    if total_ratio <= 0.0:
        raise ServeError("query ratios must sum to a positive value")
    for q in queries:
        if q.get("op") not in ("sssp", "pr_topk", "bc_node"):
            raise ServeError(f"unknown query op {q.get('op')!r} in spec")
        if "graph" not in q:
            raise ServeError(f"query {q} is missing graph:")
    spec.setdefault("clients", 4)
    spec.setdefault("requests", 200)
    spec.setdefault("seed", 12345)
    spec.setdefault("deadline_ms", 2000.0)
    spec.setdefault("verify", True)
    return spec


def _server_config(spec: dict, *, allow_chaos: bool) -> ServeConfig:
    s = dict(spec.get("server") or {})
    techniques = tuple(s.pop("techniques", ("exact", "coalescing")))
    return ServeConfig(
        techniques=techniques, allow_chaos=allow_chaos, **s
    )


# ---------------------------------------------------------------------------
# the exact answers
# ---------------------------------------------------------------------------
class ExactAnswers:
    """The whole result a correct, non-degraded server sends per request.

    The suite is deterministic in (scale, seed), so rebuilding it client-
    side yields bit-identical graphs; exact-plan runs of the same solvers
    then yield the server's answers bit for bit.
    """

    def __init__(self, scale: str, seed: int):
        self.graphs = dict(paper_suite(scale, seed=seed))
        self.plans = {name: build_plan(g, "exact") for name, g in self.graphs.items()}
        self._memo: dict[tuple, object] = {}

    def _solve(self, key: tuple, compute):
        # no lock: client threads that race on a key compute the same
        # deterministic value, so either store is correct
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def expected(self, req: dict) -> dict:
        """The result for any request :func:`run_spec` issues."""
        op, graph = req["op"], req["graph"]
        plan = self.plans[graph]
        if op == "sssp":
            res = self._solve((op, graph, req["source"]), lambda: sssp(plan, req["source"]))
            d = float(res.values[req["target"]])
            reachable = bool(np.isfinite(d))
            out = {"source": req["source"], "iterations": int(res.iterations),
                   "target": req["target"], "reachable": reachable,
                   "distance": d if reachable else None}
        elif op == "pr_topk":
            res = self._solve((op, graph), lambda: pagerank(plan))
            ranks = res.values
            # the server's order: rank descending, node id ascending on ties
            order = np.lexsort((np.arange(ranks.size), -ranks))[: req["k"]]
            out = {"k": int(order.size), "iterations": int(res.iterations),
                   "top": [[int(i), float(ranks[i])] for i in order]}
        else:
            num_sources, seed = req["num_sources"], req["seed"]
            res = self._solve(
                (op, graph, num_sources, seed),
                lambda: betweenness_centrality(plan, num_sources=num_sources, seed=seed),
            )
            out = {"node": req["node"], "num_sources": num_sources, "seed": seed,
                   "score": float(res.values[req["node"]])}
        out["technique"] = "exact"
        return out

    def matches(self, req: dict, result: dict | None) -> bool:
        """True iff ``result`` equals ``expected(req)``, aside from the
        ``batched``/``batch_lanes`` footnotes of a shared solve."""
        footnotes = ("batched", "batch_lanes")
        got = {k: v for k, v in (result or {}).items() if k not in footnotes}
        return got == self.expected(req)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def run_spec(
    spec: dict,
    *,
    host: str | None = None,
    port: int | None = None,
) -> dict:
    """Execute one load spec; returns the BENCH_SERVE report dict.

    ``host``/``port`` override the spec's ``connect:`` block; with
    neither, an in-process server is spawned from the ``server:`` block.
    """
    chaos = spec.get("chaos") or None
    connect = spec.get("connect") or {}
    if host is None:
        host = connect.get("host")
    if port is None:
        port = connect.get("port")

    server: ReproServer | None = None
    if host is None or port is None:
        server = ReproServer(_server_config(spec, allow_chaos=chaos is not None))
        port = server.start()
        host = server.config.host

    try:
        return _drive(spec, host=host, port=int(port), server=server)
    finally:
        if server is not None:
            server.stop()


def _drive(spec: dict, *, host: str, port: int, server: ReproServer | None) -> dict:
    clients = int(spec["clients"])
    total = int(spec["requests"])
    deadline_ms = float(spec["deadline_ms"])
    chaos = spec.get("chaos") or None
    queries = spec["queries"]
    ratios = np.array([float(q.get("ratio", 0.0)) for q in queries])
    ratios = ratios / ratios.sum()

    with ServeClient(host, port) as admin:
        info = admin.request({"op": "graphs"})
        if info["status"] != "ok":
            raise ServeError(f"graphs op failed: {info}")
        served = info["result"]
    for q in queries:
        if q["graph"] not in served:
            raise ServeError(
                f"spec queries graph {q['graph']!r} not loaded on the server"
            )

    answers = None
    if spec.get("verify", True):
        srv_spec = spec.get("server") or {}
        scale, seed = srv_spec.get("scale", "tiny"), int(srv_spec.get("seed", 7))
        answers = ExactAnswers(scale, seed)
        # a server built at another scale or seed would fail every check
        for name in {q["graph"] for q in queries}:
            g = answers.graphs.get(name)
            want = None if g is None else (g.num_nodes, g.num_edges)
            got = (served[name]["nodes"], served[name]["edges"])
            if got != want:
                raise ServeError(
                    f"server's {name!r} has (nodes, edges) {got}, but the "
                    f"spec's server: block (scale {scale}, seed {seed}) "
                    f"builds {want}; set it to the live server's scale and seed"
                )

    issued = [0]
    issued_lock = threading.Lock()
    phase = ["before" if chaos else "recovery"]
    records: list[dict] = []
    records_lock = threading.Lock()
    per_client = [total // clients] * clients
    for i in range(total % clients):
        per_client[i] += 1

    def make_request(rng: np.random.Generator) -> dict:
        q = queries[int(rng.choice(len(queries), p=ratios))]
        req: dict = {
            "op": q["op"],
            "graph": q["graph"],
            "deadline_ms": deadline_ms,
        }
        n = served[q["graph"]]["nodes"]
        if q["op"] == "sssp":
            # a pinned source: makes every client hit the same batch key
            # (the batching-window burst specs); targets stay random —
            # they are answered from the shared distance row
            req["source"] = (
                int(q["source"]) if "source" in q else int(rng.integers(n))
            )
            req["target"] = int(rng.integers(n))
        elif q["op"] == "pr_topk":
            req["k"] = int(q.get("k", 10))
        elif q["op"] == "bc_node":
            req["node"] = (
                int(q["node"]) if "node" in q else int(rng.integers(n))
            )
            req["num_sources"] = int(q.get("num_sources", 4))
            req["seed"] = int(q.get("seed", 0))
        return req

    def client_main(idx: int, count: int) -> None:
        rng = np.random.default_rng(int(spec["seed"]) + idx)
        with ServeClient(host, port, timeout=max(30.0, deadline_ms / 250.0)) as c:
            for _ in range(count):
                req = make_request(rng)
                with issued_lock:
                    issued[0] += 1
                t0 = time.perf_counter()
                try:
                    resp = c.request(req)
                except ProtocolError:
                    resp = {"status": "error", "error": "connection lost"}
                latency_ms = (time.perf_counter() - t0) * 1000.0
                rec = {
                    "op": req["op"],
                    "graph": req["graph"],
                    "status": resp.get("status", "error"),
                    "degraded": bool(resp.get("degraded")),
                    "batched": bool(
                        (resp.get("result") or {}).get("batched")
                    ),
                    "latency_ms": latency_ms,
                    "phase": phase[0],
                }
                if (
                    answers is not None
                    and rec["status"] == "ok"
                    and not rec["degraded"]
                ):
                    rec["correct"] = answers.matches(req, resp.get("result"))
                with records_lock:
                    records.append(rec)

    def chaos_main() -> None:
        start_at = int(float(chaos.get("start_fraction", 0.3)) * total)
        stop_at = int(float(chaos.get("stop_fraction", 0.6)) * total)
        with ServeClient(host, port) as c:
            while issued[0] < start_at:
                time.sleep(0.005)
            phase[0] = "fault"
            resp = c.request({"op": "chaos", "spec": chaos["faults"]})
            if resp["status"] != "ok":
                raise ServeError(f"failed to arm chaos: {resp}")
            logger.info("chaos window open (%s)", chaos["faults"])
            while issued[0] < stop_at:
                time.sleep(0.005)
            resp = c.request({"op": "chaos", "spec": ""})
            phase[0] = "recovery"
            logger.info("chaos window closed")

    threads = [
        threading.Thread(target=client_main, args=(i, per_client[i]), daemon=True)
        for i in range(clients)
    ]
    controller = (
        threading.Thread(target=chaos_main, daemon=True) if chaos else None
    )
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    if controller is not None:
        controller.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if controller is not None:
        controller.join(timeout=5.0)

    server_snapshot = None
    if spec.get("slo") or spec.get("server_kpis"):
        with ServeClient(host, port) as admin:
            resp = admin.request({"op": "stats"})
            if resp["status"] != "ok":
                raise ServeError(f"stats op failed: {resp}")
            server_snapshot = resp["result"]

    report = _report(spec, records, wall, server_snapshot=server_snapshot)
    return report


# ---------------------------------------------------------------------------
# metrics + KPI gating
# ---------------------------------------------------------------------------
def _phase_metrics(records: list[dict], wall_seconds: float | None) -> dict:
    n = len(records)
    by_status: dict[str, int] = {}
    for r in records:
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
    completed = [r for r in records if r["status"] == "ok"]
    lat = np.array([r["latency_ms"] for r in completed]) if completed else None
    degraded = sum(1 for r in completed if r["degraded"])
    batched = sum(1 for r in completed if r.get("batched"))
    wrong = sum(1 for r in records if r.get("correct") is False)
    verified = sum(1 for r in records if "correct" in r)
    out = {
        "requests": n,
        "ok": len(completed),
        "statuses": by_status,
        "ok_rate": len(completed) / n if n else 0.0,
        "shed_rate": by_status.get("overloaded", 0) / n if n else 0.0,
        "timeout_rate": by_status.get("timeout", 0) / n if n else 0.0,
        "error_rate": by_status.get("error", 0) / n if n else 0.0,
        "degraded": degraded,
        "degraded_rate": degraded / len(completed) if completed else 0.0,
        "batched": batched,
        "batched_rate": batched / len(completed) if completed else 0.0,
        "verified": verified,
        "wrong": wrong,
        "q50_ms": float(np.percentile(lat, 50)) if lat is not None else None,
        "q90_ms": float(np.percentile(lat, 90)) if lat is not None else None,
        "q99_ms": float(np.percentile(lat, 99)) if lat is not None else None,
        "mean_ms": float(lat.mean()) if lat is not None else None,
    }
    if wall_seconds is not None:
        out["wall_seconds"] = round(wall_seconds, 4)
        out["qps"] = len(completed) / wall_seconds if wall_seconds > 0 else 0.0
    return out


def evaluate_kpis(kpis: list, metrics: dict) -> list[dict]:
    """Evaluate ``le:``/``ge:`` clauses against a metrics dict."""
    results = []
    for clause in kpis or []:
        if not isinstance(clause, dict) or len(clause) != 1:
            raise ServeError(f"malformed kpi clause {clause!r}")
        op, body = next(iter(clause.items()))
        if op not in ("le", "ge") or not isinstance(body, dict) or len(body) != 1:
            raise ServeError(f"malformed kpi clause {clause!r}")
        metric, threshold = next(iter(body.items()))
        value = metrics.get(metric)
        if value is None:
            ok = False
        elif op == "le":
            ok = value <= float(threshold)
        else:
            ok = value >= float(threshold)
        results.append(
            {
                "metric": metric,
                "op": op,
                "threshold": float(threshold),
                "value": None if value is None else round(float(value), 6),
                "pass": bool(ok),
            }
        )
    return results


def _slo_gates(spec: dict, snapshot: dict | None) -> tuple[list[dict], list[dict]]:
    """(kpi gates, slo statuses) from the spec's ``slo:`` block."""
    from ..obs.slo import slo_from_spec

    gates: list[dict] = []
    statuses: list[dict] = []
    for raw in spec.get("slo") or []:
        slo = slo_from_spec(raw)
        st = slo.evaluate(snapshot or {})
        statuses.append(st)
        gates.append(
            {
                "metric": f"slo:{slo.name}:compliance",
                "op": "ge",
                "threshold": slo.target,
                "value": round(st["compliance"], 6),
                "pass": bool(st["ok"]),
            }
        )
        if raw.get("max_burn_rate") is not None:
            gates.append(
                {
                    "metric": f"slo:{slo.name}:burn_rate",
                    "op": "le",
                    "threshold": float(raw["max_burn_rate"]),
                    "value": st["burn_rate"],
                    "pass": st["burn_rate"] <= float(raw["max_burn_rate"]),
                }
            )
    return gates, statuses


def _report(
    spec: dict,
    records: list[dict],
    wall: float,
    *,
    server_snapshot: dict | None = None,
) -> dict:
    chaos = spec.get("chaos") or None
    overall = _phase_metrics(records, wall)
    report: dict = {
        "name": spec.get("name", "serve-load"),
        "created": time.time(),
        "clients": int(spec["clients"]),
        "requests": int(spec["requests"]),
        "seed": int(spec["seed"]),
        "deadline_ms": float(spec["deadline_ms"]),
        "chaos": bool(chaos),
        "overall": overall,
    }
    gates = evaluate_kpis(spec.get("kpis") or [], overall)
    if chaos:
        phases = {
            ph: _phase_metrics([r for r in records if r["phase"] == ph], None)
            for ph in PHASES
        }
        report["phases"] = phases
        gates += [
            dict(g, phase="recovery")
            for g in evaluate_kpis(chaos.get("kpis") or [], phases["recovery"])
        ]
    if spec.get("verify", True):
        gates.append(
            {
                "metric": "wrong",
                "op": "le",
                "threshold": 0.0,
                "value": overall["wrong"],
                "pass": overall["wrong"] == 0,
            }
        )
    if spec.get("slo"):
        slo_gates, slo_statuses = _slo_gates(spec, server_snapshot)
        gates += slo_gates
        report["slo"] = slo_statuses
    if spec.get("server_kpis"):
        # gate directly on the drained server's own counters (the
        # batching-window burst specs assert serve.batch.* this way); a
        # counter the server never bumped reads as 0, not as missing
        server_counters = dict((server_snapshot or {}).get("counters") or {})
        for clause in spec["server_kpis"]:
            if isinstance(clause, dict) and len(clause) == 1:
                body = next(iter(clause.values()))
                if isinstance(body, dict) and len(body) == 1:
                    server_counters.setdefault(next(iter(body)), 0.0)
        gates += [
            dict(g, scope="server")
            for g in evaluate_kpis(spec["server_kpis"], server_counters)
        ]
    report["kpis"] = gates
    report["ok"] = all(g["pass"] for g in gates)
    return report


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench serve",
        description="Run a YAML load spec against the analytics server and "
        "gate on its kpis: block (redisbench-admin style).",
    )
    parser.add_argument("--spec", required=True, help="path to the YAML load spec")
    parser.add_argument(
        "--out", default="BENCH_SERVE.json", help="report path (default BENCH_SERVE.json)"
    )
    parser.add_argument("--host", default=None, help="target a live server instead")
    parser.add_argument("--port", default=None, type=int)
    args = parser.parse_args(argv)

    # a bad spec, or a spec the server does not match (a graph it does not
    # load, a connect: server of another scale or seed), is one error line
    try:
        report = run_spec(load_spec(args.spec), host=args.host, port=args.port)
    except ServeError as exc:
        parser.error(str(exc))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    o = report["overall"]
    print(f"serve bench: {report['name']} — {o['requests']} requests, "
          f"{o['ok']} ok, qps {o.get('qps', 0.0):.1f}")
    if o["q50_ms"] is not None:
        print(f"  latency q50 {o['q50_ms']:.2f}ms  q90 {o['q90_ms']:.2f}ms  "
              f"q99 {o['q99_ms']:.2f}ms")
    print(f"  shed {o['shed_rate']:.1%}  timeout {o['timeout_rate']:.1%}  "
          f"degraded {o['degraded_rate']:.1%}  wrong {o['wrong']}")
    for g in report["kpis"]:
        mark = "PASS" if g["pass"] else "FAIL"
        scope = f" [{g['phase']}]" if "phase" in g else ""
        print(f"  {mark} {g['metric']} {g['op']} {g['threshold']}"
              f" (value {g['value']}){scope}")
    print(f"report written to {args.out}")
    return 0 if report["ok"] else 1
