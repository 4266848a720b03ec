"""Seeded request streams and the open/closed-loop serve clients.

One process drives the server: an open loop has one feeder thread that
releases requests on a fixed schedule into a queue drained by at most
``nproc`` connection threads; a closed loop lets each connection send
its next request only after the previous answer.  Open-loop latency is
timed from each request's *due* time, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

#: the six-query mix of benchmarks/serve/smoke.yml: (op, graph, share)
MIX = (
    ("sssp", "rmat", 0.4),
    ("sssp", "usa-road", 0.1),
    ("pr_topk", "rmat", 0.2),
    ("pr_topk", "twitter", 0.1),
    ("bc_node", "usa-road", 0.1),
    ("bc_node", "random", 0.1),
)
PR_K = 8
BC_SOURCES = 4
BC_SEED = 0
DEADLINE_MS = 5000.0


def apportion(count: int, shares: list[float]) -> list[int]:
    """Largest-remainder split of ``count`` by ``shares`` (sums to ``count``)."""
    total = sum(shares)
    raw = [count * s / total for s in shares]
    out = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (out[i] - raw[i], i))
    for i in by_remainder[: count - sum(out)]:
        out[i] += 1
    return out


def make_stream(seed: int, phase: int, count: int, nodes: dict[str, int]) -> list[dict]:
    """``count`` requests in the exact mix proportions, seeded order/params."""
    rng = np.random.default_rng([seed, phase])
    kinds = np.repeat(np.arange(len(MIX)), apportion(count, [m[2] for m in MIX]))
    rng.shuffle(kinds)
    stream = []
    for k in kinds.tolist():
        op, graph, _ = MIX[k]
        n = nodes[graph]
        req = {"op": op, "graph": graph, "deadline_ms": DEADLINE_MS}
        if op == "sssp":
            req["source"] = int(rng.integers(n))
            req["target"] = int(rng.integers(n))
        elif op == "pr_topk":
            req["k"] = PR_K
        else:
            req["node"] = int(rng.integers(n))
            req["num_sources"] = BC_SOURCES
            req["seed"] = BC_SEED
        stream.append(req)
    return stream


def _client(host: str, port: int):
    from repro.serve.protocol import ServeClient

    return ServeClient(host, port, timeout=60.0)


def _ask(client, req: dict) -> dict:
    from repro.errors import ProtocolError

    if client is None:
        return {"status": "error", "error": "could not connect"}
    try:
        return client.request(req)
    except (ProtocolError, OSError) as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _run_connections(
    host, port, connections: int, work: queue.Queue, handle, before_close=None
) -> None:
    """Drain ``work`` over ``connections`` sockets until each reads ``None``.

    A connection that cannot be opened answers its share with errors, so
    the requests count as failed instead of vanishing from the tally.
    """
    errors: list[BaseException] = []

    def main() -> None:
        try:
            client = _client(host, port)
        except OSError:
            client = None
        try:
            while (item := work.get()) is not None:
                handle(client, item)
            if before_close is not None:
                before_close()
        except BaseException as exc:  # a bug: re-raised after the join
            errors.append(exc)
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=main, daemon=True) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def warm_up(host: str, port: int, stream: list[dict]) -> None:
    """One request of each kind, so lazy per-plan state is built untimed."""
    seen = set()
    with _client(host, port) as client:
        for req in stream:
            key = (req["op"], req["graph"])
            if key in seen:
                continue
            seen.add(key)
            resp = _ask(client, req)
            if resp.get("status") != "ok":
                raise RuntimeError(f"warm-up {key} failed: {resp}")


def open_loop(
    host: str,
    port: int,
    stream: list[dict],
    rate: float,
    connections: int,
    server_cpu=None,
) -> tuple[list[dict], float]:
    """Release ``stream`` at ``rate`` q/s; returns (records, max feeder lag ms).

    With one connection, ``server_cpu()`` (CPU seconds of the server
    thread serving it) is read before each send; each record's
    ``server_cpu_ms`` is the CPU that thread spent until the next send,
    so work the server does after answering is charged to its query.
    """
    if server_cpu is not None and connections != 1:
        raise ValueError("per-query server CPU needs exactly one connection")
    work: queue.Queue = queue.Queue()
    records: list[dict | None] = [None] * len(stream)
    cpu_marks: list[tuple[int, float]] = []
    lag = [0.0]

    def feeder() -> None:
        start = time.perf_counter() + 0.05
        for i in range(len(stream)):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag[0] = max(lag[0], time.perf_counter() - due)
            work.put((i, due))
        for _ in range(connections):
            work.put(None)

    def handle(client, item) -> None:
        i, due = item
        if server_cpu is not None:
            cpu_marks.append((i, server_cpu()))
        sent = time.perf_counter()
        resp = _ask(client, stream[i])
        done = time.perf_counter()
        records[i] = _record(resp, (done - due) * 1000.0, (done - sent) * 1000.0)

    def last_mark() -> None:
        if server_cpu is not None:
            cpu_marks.append((-1, server_cpu()))

    feed = threading.Thread(target=feeder, daemon=True)
    feed.start()
    try:
        _run_connections(host, port, connections, work, handle, last_mark)
    finally:
        feed.join()
    if server_cpu is not None:
        for (i, c0), (_, c1) in zip(cpu_marks, cpu_marks[1:]):
            if records[i] is not None:
                records[i]["server_cpu_ms"] = (c1 - c0) * 1000.0
    return _fill(records), lag[0] * 1000.0


def closed_loop(
    host: str, port: int, stream: list[dict], connections: int
) -> tuple[list[dict], float]:
    """Answer all of ``stream`` back to back; returns (records, wall seconds)."""
    work: queue.Queue = queue.Queue()
    for i in range(len(stream)):
        work.put(i)
    for _ in range(connections):
        work.put(None)
    records: list[dict | None] = [None] * len(stream)

    def handle(client, i) -> None:
        sent = time.perf_counter()
        resp = _ask(client, stream[i])
        rtt = (time.perf_counter() - sent) * 1000.0
        records[i] = _record(resp, rtt, rtt)

    t0 = time.perf_counter()
    _run_connections(host, port, connections, work, handle)
    wall = time.perf_counter() - t0
    return _fill(records), wall


def _fill(records: list[dict | None]) -> list[dict]:
    """Unanswered requests become failed records with infinite latency."""
    lost = {"status": "error", "error": "no answer"}
    return [r or _record(lost, float("inf"), float("inf")) for r in records]


def _record(resp: dict, latency_ms: float, rtt_ms: float) -> dict:
    return {
        "status": resp.get("status", "error"),
        "degraded": bool(resp.get("degraded")),
        "result": resp.get("result"),
        "latency_ms": latency_ms,
        "rtt_ms": rtt_ms,
        "server_ms": resp.get("server_ms"),
    }


class Reference:
    """Exact-plan answers for the served queries, computed after the run.

    The client rebuilds the server's suite (deterministic in scale and
    seed) and runs the same solvers on exact plans, so a correct ``ok``
    answer matches bit for bit.
    """

    def __init__(self, scale: str, seed: int) -> None:
        from repro.core.pipeline import build_plan
        from repro.graphs.generators import paper_suite

        self.plans = {
            name: build_plan(g, "exact") for name, g in paper_suite(scale, seed=seed).items()
        }
        self._memo: dict = {}

    def _solve(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def expected(self, req: dict) -> dict:
        """The result fields a correct server returns for ``req``."""
        from repro.algorithms.bc import betweenness_centrality
        from repro.algorithms.pagerank import pagerank
        from repro.algorithms.sssp import sssp

        op, graph = req["op"], req["graph"]
        plan = self.plans[graph]
        if op == "sssp":
            res = self._solve((op, graph, req["source"]), lambda: sssp(plan, req["source"]))
            d = float(res.values[req["target"]])
            finite = bool(np.isfinite(d))
            return {
                "source": req["source"],
                "iterations": int(res.iterations),
                "target": req["target"],
                "reachable": finite,
                "distance": d if finite else None,
            }
        if op == "pr_topk":
            res = self._solve((op, graph), lambda: pagerank(plan))
            ranks = res.values
            order = np.lexsort((np.arange(ranks.size), -ranks))[: req["k"]]
            return {
                "k": int(req["k"]),
                "iterations": int(res.iterations),
                "top": [[int(i), float(ranks[i])] for i in order],
            }
        res = self._solve(
            (op, graph, req["num_sources"], req["seed"]),
            lambda: betweenness_centrality(
                plan, num_sources=req["num_sources"], seed=req["seed"]
            ),
        )
        return {
            "node": req["node"],
            "num_sources": req["num_sources"],
            "seed": req["seed"],
            "score": float(res.values[req["node"]]),
        }

    def matches(self, req: dict, result: dict | None) -> bool:
        if result is None:
            return False
        got = {k: v for k, v in result.items() if k != "technique"}
        return result.get("technique") == "exact" and got == self.expected(req)
