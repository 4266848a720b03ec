"""End-to-end socket tests for the analytics server.

One module-scoped server (tiny suite, self-check on) backs the query
tests; lifecycle tests (drain, flush) start their own short-lived
instances so they can stop them.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ServeClient,
    decode_line,
    encode,
    parse_request,
)
from repro.serve.server import ReproServer
from repro.serve.service import GraphService, ServeConfig


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(ServeConfig(scale="tiny", seed=7, workers=2))
    srv.start()
    yield srv
    srv.stop(drain=False)


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        line = encode({"op": "ping", "id": 7})
        assert line.endswith(b"\n")
        assert decode_line(line.strip()) == {"op": "ping", "id": 7}

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"hello world")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1,2,3]")

    def test_decode_rejects_oversized_line(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_parse_request_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"op": "drop_tables"})

    def test_parse_request_rejects_bad_deadline(self):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_request({"op": "sssp", "deadline_ms": -5})
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_request({"op": "sssp", "deadline_ms": "soon"})


class TestAdminOps:
    def test_ping(self, client):
        resp = client.request({"op": "ping"})
        assert resp["status"] == "ok" and resp["result"]["pong"] is True

    def test_health_shape(self, client):
        resp = client.request({"op": "health"})
        assert resp["status"] == "ok"
        h = resp["result"]
        assert h["status"] == "ok" and h["ready"] is True
        assert h["max_workers"] == 2
        assert h["breaker"] == "closed"
        assert h["pressure_level"] == 0
        assert h["uptime_seconds"] >= 0.0

    def test_graphs_inventory(self, client, suite_tiny):
        resp = client.request({"op": "graphs"})
        assert resp["status"] == "ok"
        assert set(resp["result"]) == set(suite_tiny)
        for name, g in suite_tiny.items():
            assert resp["result"][name]["nodes"] == g.num_nodes

    def test_stats_snapshot(self, client):
        client.request({"op": "ping"})
        resp = client.request({"op": "stats"})
        assert resp["status"] == "ok"
        assert resp["result"]["counters"]["serve.requests.total"] >= 1

    def test_chaos_disabled_by_default(self, client):
        resp = client.request({"op": "chaos", "spec": "error:serve"})
        assert resp["status"] == "error"
        assert "chaos" in resp["error"]

    def test_id_echoed(self, client):
        resp = client.request({"op": "ping", "id": "abc-123"})
        assert resp["id"] == "abc-123"


class TestQueries:
    def test_sssp_matches_direct_run(self, client, suite_tiny):
        resp = client.request({"op": "sssp", "graph": "rmat", "source": 0})
        assert resp["status"] == "ok"
        result = resp["result"]
        plan = build_plan(suite_tiny["rmat"], "exact")
        import numpy as np

        dist = sssp(plan, 0).values
        finite = np.isfinite(dist)
        assert result["reached"] == int(finite.sum())
        assert result["total_distance"] == pytest.approx(
            float(dist[finite].sum()), rel=1e-12
        )
        assert result["technique"] == "exact"
        assert "degraded" not in resp

    def test_sssp_with_target(self, client, suite_tiny):
        resp = client.request(
            {"op": "sssp", "graph": "rmat", "source": 0, "target": 1}
        )
        assert resp["status"] == "ok"
        result = resp["result"]
        dist = sssp(build_plan(suite_tiny["rmat"], "exact"), 0).values
        import numpy as np

        if np.isfinite(dist[1]):
            assert result["reachable"] is True
            assert result["distance"] == pytest.approx(float(dist[1]), rel=1e-12)
        else:
            assert result["reachable"] is False and result["distance"] is None

    def test_pr_topk_matches_direct_run(self, client, suite_tiny):
        resp = client.request({"op": "pr_topk", "graph": "rmat", "k": 5})
        assert resp["status"] == "ok"
        top = resp["result"]["top"]
        assert len(top) == 5
        ranks = pagerank(build_plan(suite_tiny["rmat"], "exact")).values
        for node, rank in top:
            assert rank == pytest.approx(float(ranks[node]), rel=1e-12)
        # descending rank order
        values = [rank for _n, rank in top]
        assert values == sorted(values, reverse=True)

    def test_bc_node(self, client):
        resp = client.request(
            {"op": "bc_node", "graph": "rmat", "node": 3, "num_sources": 4}
        )
        assert resp["status"] == "ok"
        assert resp["result"]["node"] == 3
        assert resp["result"]["score"] >= 0.0

    def test_requested_technique_served(self, client):
        resp = client.request(
            {"op": "sssp", "graph": "rmat", "source": 0, "technique": "coalescing"}
        )
        assert resp["status"] == "ok"
        assert resp["result"]["technique"] == "coalescing"

    def test_unknown_graph_is_error(self, client):
        resp = client.request({"op": "sssp", "graph": "nope", "source": 0})
        assert resp["status"] == "error"
        assert "unknown graph" in resp["error"]

    def test_missing_param_is_error(self, client):
        resp = client.request({"op": "sssp", "graph": "rmat"})
        assert resp["status"] == "error"
        assert "source" in resp["error"]

    def test_out_of_range_source_is_error(self, client):
        resp = client.request({"op": "sssp", "graph": "rmat", "source": 10**9})
        assert resp["status"] == "error"

    def test_malformed_line_answers_error(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as s:
            s.sendall(b"this is not json\n")
            resp = json.loads(s.makefile("rb").readline())
        assert resp["status"] == "error"

    def test_tiny_deadline_times_out(self, client):
        resp = client.request(
            {"op": "sssp", "graph": "rmat", "source": 0, "deadline_ms": 0.001}
        )
        assert resp["status"] == "timeout"
        assert "deadline exceeded" in resp["error"]
        # the connection and server survive
        assert client.request({"op": "ping"})["status"] == "ok"

    def test_pipelined_requests_answer_in_order(self, client):
        for i in range(5):
            resp = client.request({"op": "ping", "id": i})
            assert resp["id"] == i

    def test_server_ms_reported(self, client):
        resp = client.request({"op": "sssp", "graph": "rmat", "source": 0})
        assert resp["server_ms"] >= 0.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "techniques",
        [("exact",), ("coalescing", "shmem"), ("exact", "coalescing", "bogus")],
        ids=["no-approximate", "no-exact", "unknown"],
    )
    def test_techniques_checked(self, techniques):
        # requests default to the exact plan and degrade to coalescing
        with pytest.raises(ServeError):
            ServeConfig(techniques=techniques)


class TestLifecycle:
    def _config(self, **kw):
        kw.setdefault("scale", "tiny")
        kw.setdefault("seed", 7)
        kw.setdefault("workers", 2)
        kw.setdefault("self_check", False)
        kw.setdefault("drain_seconds", 5.0)
        return ServeConfig(**kw)

    def test_draining_rejects_queries_answers_admin(self):
        srv = ReproServer(self._config())
        port = srv.start()
        try:
            with ServeClient("127.0.0.1", port) as c:
                srv._draining.set()  # enter drain without closing sockets yet
                resp = c.request({"op": "sssp", "graph": "rmat", "source": 0})
                assert resp["status"] == "shutting_down"
                health = c.request({"op": "health"})
                assert health["status"] == "ok"
                assert health["result"]["status"] == "draining"
        finally:
            srv.stop(drain=False)

    def test_stop_is_idempotent_and_context_manager_works(self):
        with ReproServer(self._config()) as srv:
            assert srv.port is not None
        srv.stop()  # second stop is a no-op
        assert srv._stopped.is_set()

    def test_graceful_stop_waits_for_in_flight(self):
        """stop() lets an admitted slow query finish before closing."""
        srv = ReproServer(self._config(workers=1))
        port = srv.start()
        results = {}

        def slow_query():
            with ServeClient("127.0.0.1", port, timeout=30.0) as c:
                results["resp"] = c.request(
                    {"op": "bc_node", "graph": "usa-road", "node": 0,
                     "num_sources": 8}
                )

        t = threading.Thread(target=slow_query, daemon=True)
        t.start()
        while srv.gate.active == 0 and t.is_alive():
            time.sleep(0.001)
        srv.stop()  # drain: must wait for the in-flight bc_node
        t.join(timeout=10.0)
        assert results["resp"]["status"] == "ok"

    def test_metrics_flushed_on_stop(self, tmp_path):
        out = tmp_path / "metrics.json"
        srv = ReproServer(self._config(metrics_out=str(out)))
        port = srv.start()
        with ServeClient("127.0.0.1", port) as c:
            c.request({"op": "sssp", "graph": "rmat", "source": 0})
        srv.stop()
        snap = json.loads(out.read_text())
        assert snap["counters"]["serve.requests.ok"] >= 1
        assert "serve.request.time" in snap["histograms"]

    def test_startup_self_check_runs(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset()
        service = GraphService(self._config(self_check=True))
        snap = obs_metrics.snapshot()
        assert snap["counters"]["serve.self_check.plans"] == len(service._plans)

    def test_cli_rejects_unknown_scale_before_loading(self, capsys, monkeypatch):
        from repro.serve import cli as serve_cli

        def no_server(*_args, **_kwargs):
            raise AssertionError("a server was built for a bad --scale")

        monkeypatch.setattr(serve_cli, "ReproServer", no_server)
        with pytest.raises(SystemExit) as exc:
            serve_cli.main(["--scale", "huge"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale: invalid choice: 'huge'" in err
        assert "Traceback" not in err
