"""Serve-layer SLO observatory: admin ops, burn-driven degradation,
and `bench serve` slo: gating."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.slo import SLOTracker, default_serve_slos
from repro.serve.degrade import DegradationLadder
from repro.serve.protocol import ADMIN_OPS, ServeClient, encode
from repro.serve.server import ReproServer
from repro.serve.service import ServeConfig


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


class TestMetricsOp:
    def test_metrics_is_admin(self):
        assert "metrics" in ADMIN_OPS and "slo" in ADMIN_OPS

    def test_prometheus_exposition_over_the_wire(self, client):
        # drive at least one analytics request so histograms exist
        client.request({"op": "pr_topk", "graph": "rmat", "k": 3})
        resp = client.request({"op": "metrics"})
        assert resp["status"] == "ok"
        assert resp["result"]["content_type"].startswith("text/plain")
        text = resp["result"]["text"]
        from test_obs_slo import parse_prometheus

        samples = parse_prometheus(text)
        assert samples["serve_requests_total"] >= 1
        assert any(
            k.startswith("serve_request_time_bucket") for k in samples
        )
        inf_key = 'serve_request_time_bucket{le="+Inf"}'
        assert samples[inf_key] == samples["serve_request_time_count"]

    def test_slo_op_shape(self, client):
        client.request({"op": "pr_topk", "graph": "rmat", "k": 3})
        resp = client.request({"op": "slo"})
        assert resp["status"] == "ok"
        status = resp["result"]
        assert {s["name"] for s in status["slos"]} == {"latency", "availability"}
        assert "burn_rate" in status
        for s in status["slos"]:
            assert "windows" in s and "burning" in s

    def test_health_reports_burn(self, client):
        resp = client.request({"op": "health"})
        assert "slo_burn_rate" in resp["result"]


class TestBurnDrivesLadder:
    def test_burn_rate_steps_ladder_up(self):
        ladder = DegradationLadder(
            level1_wait_seconds=0.05, level2_wait_seconds=0.2,
            level2_burn_rate=8.0, ewma_alpha=1.0,
        )
        # no wait, empty queue — but burning budget 16x: full level-2
        # pressure (16/8 * 0.2s = 0.4s signal)
        assert ladder.observe(0.0, 0.0, burn_rate=16.0) == 2

    def test_half_burn_reaches_level_one(self):
        ladder = DegradationLadder(
            level1_wait_seconds=0.05, level2_wait_seconds=0.2,
            level2_burn_rate=8.0, ewma_alpha=1.0,
        )
        # burn 4 of 8 -> signal 0.1s: above level1, below level2
        assert ladder.observe(0.0, 0.0, burn_rate=4.0) == 1

    def test_zero_burn_is_backward_compatible(self):
        ladder = DegradationLadder(ewma_alpha=1.0)
        assert ladder.observe(0.0, 0.0) == 0

    def test_bad_burn_threshold_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder(level2_burn_rate=0.0)

    def test_failing_requests_raise_server_burn(self):
        """End-to-end: errors move the tracker, tracker feeds health."""
        import time

        srv = ReproServer(
            ServeConfig(scale="tiny", seed=7, workers=2, self_check=False)
        )
        srv.start()
        try:
            with ServeClient("127.0.0.1", srv.port) as c:
                c.request({"op": "pr_topk", "graph": "rmat", "k": 3})
                time.sleep(srv.slo_tracker.tick_seconds + 0.05)
                for _ in range(20):
                    # unknown graph -> error status -> availability burn
                    c.request({"op": "pr_topk", "graph": "nope", "k": 3})
                time.sleep(srv.slo_tracker.tick_seconds + 0.05)
                c.request({"op": "pr_topk", "graph": "rmat", "k": 3})
                health = c.request({"op": "health"})["result"]
            assert health["slo_burn_rate"] > 1.0
        finally:
            srv.stop(drain=False)

    def test_in_flight_query_is_not_an_availability_failure(
        self, server, monkeypatch
    ):
        """A tracker tick that lands while a query is still running must
        not count it as a failure: the query total is bumped with the
        outcome, so the burn the ladder reads stays at zero."""
        now = [0.0]
        tracker = SLOTracker(default_serve_slos(), clock=lambda: now[0])
        monkeypatch.setattr(server, "slo_tracker", tracker)

        def availability_burn() -> float:
            (slo,) = [s for s in tracker.status()["slos"] if s["name"] == "availability"]
            return slo["windows"]["10s"]

        execute = server.service.execute
        in_flight = []

        def tick_mid_query(req, deadline):
            now[0] += 1.0
            tracker.observe()
            in_flight.append(availability_burn())
            return execute(req, deadline)

        monkeypatch.setattr(server.service, "execute", tick_mid_query)
        tracker.observe()
        resp = server.handle_line(encode({"op": "pr_topk", "graph": "rmat", "k": 3}))
        assert resp["status"] == "ok"
        assert in_flight == [0.0]
        now[0] += 1.0
        assert tracker.observe() == 0.0

    def test_draining_query_counts_in_total_and_outcome(self):
        """A query refused while draining lands in the query total and in
        its outcome counter together, so the availability ratio sees it."""
        srv = ReproServer(
            ServeConfig(scale="tiny", seed=7, workers=2, self_check=False)
        )
        srv.start()
        try:
            total = obs_metrics.counter("serve.queries.total")
            refused = obs_metrics.counter("serve.requests.shutting_down")
            before = (total.value, refused.value)
            srv._draining.set()
            resp = srv.handle_line(encode({"op": "pr_topk", "graph": "rmat", "k": 3}))
            assert resp["status"] == "shutting_down"
            assert (total.value, refused.value) == (before[0] + 1, before[1] + 1)
        finally:
            srv.stop(drain=False)


class TestLoadgenSLOGating:
    def _spec(self, slo_block):
        return {
            "name": "slo-gate-test",
            "server": {"scale": "tiny", "seed": 7, "workers": 2,
                       "self_check": False},
            "clients": 2,
            "requests": 20,
            "seed": 99,
            "deadline_ms": 5000.0,
            "verify": False,
            "queries": [{"op": "pr_topk", "graph": "rmat", "ratio": 1.0, "k": 3}],
            "kpis": [],
            "slo": slo_block,
        }

    def test_passing_slo_gates(self):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [
                    {"name": "availability", "target": 0.5,
                     "good_counter": "serve.requests.ok",
                     "total_counter": "serve.queries.total"},
                ]
            )
        )
        gates = {g["metric"]: g for g in report["kpis"]}
        gate = gates["slo:availability:compliance"]
        assert gate["pass"] is True
        assert report["slo"][0]["name"] == "availability"
        assert report["ok"] is True

    def test_unmeetable_slo_fails_the_run(self):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [
                    # nothing is faster than 1ms at q=99.9%: must fail
                    {"name": "latency", "indicator": "serve.request.time",
                     "threshold_ms": 0.0001, "target": 0.999,
                     "max_burn_rate": 0.001},
                ]
            )
        )
        gates = {g["metric"]: g for g in report["kpis"]}
        assert gates["slo:latency:compliance"]["pass"] is False
        assert gates["slo:latency:burn_rate"]["pass"] is False
        assert report["ok"] is False

    def test_slo_block_survives_report_json(self, tmp_path):
        from repro.serve.loadgen import run_spec

        obs_metrics.reset()
        report = run_spec(
            self._spec(
                [{"name": "availability", "target": 0.5,
                  "good_counter": "serve.requests.ok",
                  "total_counter": "serve.queries.total"}]
            )
        )
        out = tmp_path / "BENCH_SERVE.json"
        out.write_text(json.dumps(report, indent=2))
        doc = json.loads(out.read_text())
        assert doc["slo"][0]["compliance"] >= 0.5
