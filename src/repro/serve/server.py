"""The long-lived TCP server wrapping :class:`GraphService`.

Architecture: one acceptor thread, one handler thread per connection,
and a shared :class:`~repro.serve.admission.AdmissionGate` sized to the
configured worker count — so however many connections are open, at most
``workers`` queries execute concurrently, at most ``max_queue_depth``
wait, and everything beyond that is shed with an explicit
``overloaded`` response.  Admin ops (``ping``/``health``/``graphs``/
``stats``/``metrics``/``slo``/``chaos``) bypass admission entirely: a
health probe must answer even when the query queue is saturated.

The server owns an :class:`~repro.obs.slo.SLOTracker` over the standing
serve objectives (``default_serve_slos``): every handled request ticks
it (rate-limited internally), and the resulting fast-window burn rate
feeds the degradation ladder alongside admission wait and queue
occupancy — so budget-burning failure modes trigger degradation even
when the queue looks healthy.  ``metrics`` answers the live registry in
Prometheus text exposition; ``slo`` answers full objective status.

Failure mapping (one request can never take the connection down):

=====================================  ======================
raised by the pipeline                 response ``status``
=====================================  ======================
:class:`~repro.errors.Overloaded`      ``overloaded`` (+ retry_after_ms)
:class:`~repro.errors.DeadlineExceeded`  ``timeout``
:class:`~repro.errors.ProtocolError`   ``error``
any other exception                    ``error`` (counted on
                                       ``serve.requests.error``)
=====================================  ======================

Lifecycle: :meth:`start` binds and reports ready only after the service
finished its startup self-check; :meth:`stop` (the SIGTERM path) drains
gracefully — new queries answer ``shutting_down``, in-flight queries
finish (bounded by ``drain_seconds``), then metrics/trace sinks are
flushed and sockets closed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

from ..errors import DeadlineExceeded, Overloaded, ProtocolError, ReproError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..obs.slo import SLOTracker, default_serve_slos
from ..resilience import faults
from .admission import AdmissionGate
from .deadline import Deadline
from .protocol import (
    ADMIN_OPS,
    decode_line,
    encode,
    error_response,
    parse_request,
    response,
)
from .service import GraphService, ServeConfig, STAGE_BUCKETS

__all__ = ["ReproServer"]

logger = get_logger("serve.server")


class ReproServer:
    """Accepts line-protocol connections and serves analytics queries."""

    def __init__(
        self, config: ServeConfig | None = None, *, service: GraphService | None = None
    ) -> None:
        if service is not None:
            self.service = service
            self.config = service.config
        else:
            self.config = config or ServeConfig()
            self.service = GraphService(self.config)
        cfg = self.config
        self.gate = AdmissionGate(cfg.workers, cfg.max_queue_depth)
        self.slo_tracker = SLOTracker(default_serve_slos())
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._started_at = 0.0
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind, listen, and start accepting; returns the bound port."""
        if self._listener is not None:
            raise ReproError("server already started")
        cfg = self.config
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((cfg.host, cfg.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._started_at = time.monotonic()
        acceptor = threading.Thread(
            target=self._accept_loop, name="serve-acceptor", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        logger.info("listening on %s:%d (%d workers)", cfg.host, self.port, cfg.workers)
        return self.port

    def run(self) -> None:
        """Block until :meth:`stop` completes (the CLI foreground path)."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: reject new work, finish in-flight, flush."""
        if self._stopped.is_set():
            return
        self._draining.set()
        logger.info("draining: rejecting new queries, finishing in-flight")
        if drain:
            deadline = time.monotonic() + self.config.drain_seconds
            while time.monotonic() < deadline:
                if self.gate.active == 0 and self.gate.queue_depth == 0:
                    break
                time.sleep(0.01)
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._flush_observability()
        self._stopped.set()
        logger.info("server stopped")

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _flush_observability(self) -> None:
        cfg = self.config
        if cfg.metrics_out:
            snap = obs_metrics.snapshot()
            Path(cfg.metrics_out).write_text(json.dumps(snap, indent=2) + "\n")
            logger.info("flushed metrics snapshot to %s", cfg.metrics_out)
        if cfg.trace_out:
            tracer = obs_trace.get_tracer()
            if tracer is not None:
                tracer.export_jsonl(cfg.trace_out)
                logger.info("flushed trace to %s", cfg.trace_out)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._draining.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                self._conns.add(conn)
            t = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            t.start()
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rb") as reader:
                for line in reader:
                    line = line.strip()
                    if not line:
                        continue
                    resp = self.handle_line(line)
                    try:
                        conn.sendall(encode(resp))
                    except OSError:
                        return
        except OSError:
            pass
        finally:
            with self._conn_lock:
                self._conns.discard(conn)

    # ------------------------------------------------------------------
    # request dispatch (also the in-process entry point for tests)
    # ------------------------------------------------------------------
    def handle_line(self, line: bytes) -> dict:
        """Decode, dispatch, and answer one protocol line."""
        obs_metrics.counter("serve.requests.total").inc()
        try:
            req = parse_request(decode_line(line))
        except ProtocolError as exc:
            obs_metrics.counter("serve.requests.error").inc()
            return error_response(None, "error", str(exc))
        return self.handle_request(req)

    def handle_request(self, req: dict) -> dict:
        op = req["op"]
        if op in ADMIN_OPS:
            return self._handle_admin(req)
        # queries get their own denominator: serve.requests.total counts
        # every protocol line (admin probes included), which would make
        # an availability objective treat each health check as a failure.
        # It is bumped with the outcome counter, never on arrival: an SLO
        # tick must not read another client's in-flight query as a failure
        if self._draining.is_set():
            obs_metrics.counter("serve.queries.total").inc()
            obs_metrics.counter("serve.requests.shutting_down").inc()
            return error_response(req, "shutting_down", "server is draining")
        deadline = Deadline.from_ms(
            req.get("deadline_ms", self.config.default_deadline_ms)
        )
        t0 = time.perf_counter()
        status = "ok"
        try:
            with obs_trace.span("serve.request", op=op) as sp:
                with self.gate.admit(deadline) as wait:
                    self.service.ladder.observe(
                        wait, self.gate.occupancy(), self.slo_tracker.burn_rate
                    )
                    resp = self.service.execute(req, deadline)
                if sp is not None:
                    sp.set(
                        status=resp["status"],
                        degraded=bool(resp.get("degraded")),
                        wait_ms=wait * 1000.0,
                    )
        except Overloaded as exc:
            status = "overloaded"
            resp = error_response(
                req, status, str(exc), retry_after_ms=exc.retry_after_ms
            )
        except DeadlineExceeded as exc:
            status = "timeout"
            resp = error_response(req, status, str(exc))
        except ProtocolError as exc:
            status = "error"
            resp = error_response(req, status, str(exc))
        except Exception as exc:  # a request must never kill its worker
            status = "error"
            logger.warning("query %s failed: %s", op, exc)
            resp = error_response(req, status, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        obs_metrics.counter("serve.queries.total").inc()
        obs_metrics.counter(f"serve.requests.{status}").inc()
        obs_metrics.histogram("serve.request.time", STAGE_BUCKETS).observe(elapsed)
        # tick after the outcome counters land, so the burn the *next*
        # request hands the ladder already reflects this one
        self.slo_tracker.observe()
        resp["server_ms"] = round(elapsed * 1000.0, 3)
        return resp

    # ------------------------------------------------------------------
    def _handle_admin(self, req: dict) -> dict:
        op = req["op"]
        if op == "ping":
            return response(req, "ok", result={"pong": True})
        if op == "health":
            return response(req, "ok", result=self.health())
        if op == "graphs":
            return response(req, "ok", result=self.service.graphs_info())
        if op == "stats":
            return response(req, "ok", result=obs_metrics.snapshot())
        if op == "metrics":
            return response(
                req, "ok",
                result={
                    "content_type": "text/plain; version=0.0.4",
                    "text": obs_metrics.prometheus_text(),
                },
            )
        if op == "slo":
            return response(req, "ok", result=self.slo_tracker.status())
        if op == "chaos":
            return self._handle_chaos(req)
        raise ProtocolError(f"unhandled admin op {op!r}")  # pragma: no cover

    def health(self) -> dict:
        """Readiness + pressure snapshot (the ``health`` admin op)."""
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "ready": self._listener is not None,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "queue_depth": self.gate.queue_depth,
            "active_workers": self.gate.active,
            "max_workers": self.gate.max_concurrency,
            "pressure_level": self.service.ladder.level,
            "pressure_ewma_wait_ms": round(
                self.service.ladder.pressure * 1000.0, 3
            ),
            "slo_burn_rate": round(self.slo_tracker.burn_rate, 6),
            "breaker": self.service.breaker.state,
        }

    def _handle_chaos(self, req: dict) -> dict:
        if not self.config.allow_chaos:
            obs_metrics.counter("serve.requests.error").inc()
            return error_response(
                req, "error", "chaos op disabled (start with allow_chaos)"
            )
        spec = req.get("spec", "")
        if not isinstance(spec, str):
            return error_response(req, "error", "chaos spec must be a string")
        if spec:
            injector = faults.install(spec)
            armed = len(injector.rules)
            logger.warning("chaos armed: %d fault rule(s) (%s)", armed, spec)
        else:
            faults.reset()
            armed = 0
            logger.warning("chaos disarmed")
        obs_metrics.counter("serve.chaos.toggles").inc()
        return response(req, "ok", result={"armed_rules": armed})
