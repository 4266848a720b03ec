"""The serve-side batching window (``repro.serve.batching``).

Unit tests drive :class:`BatchWindow` directly with synthetic solve
functions; the end-to-end tests run a real server with the window
enabled and fire bursts at it: identical queries share one solve
(``batch_lanes > 1``), distinct sources run solo, and every answer is
byte-equal to an unbatched server's.  The validation regressions at the
bottom pin the parameter-checking fixes that rode along (bool/NaN
deadlines, bool/fractional ints, non-finite ``tol``, negative ``seed``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, ProtocolError, ServeError
from repro.obs import metrics as obs_metrics
from repro.serve.batching import BatchWindow
from repro.serve.deadline import Deadline
from repro.serve.protocol import ServeClient, parse_request
from repro.serve.server import ReproServer
from repro.serve.service import GraphService, ServeConfig, _int_param


def _run_burst(window, keys, deadline_ms, solve):
    """Fire one thread per key; returns ``([(key, (value, lanes))], errors)``."""
    out = []
    errors = []

    def worker(key):
        try:
            out.append((key, window.run(key, Deadline.from_ms(deadline_ms), solve)))
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            errors.append((key, exc))

    threads = [threading.Thread(target=worker, args=(k,)) for k in keys]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, errors


class _CountingSolve:
    """A solve that records each call's deadline and returns ``value``."""

    def __init__(self, value=42) -> None:
        self.value = value
        self.calls: list[Deadline] = []
        self._lock = threading.Lock()

    def __call__(self, deadline: Deadline):
        with self._lock:
            self.calls.append(deadline)
        return self.value


class TestBatchWindow:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BatchWindow(0.0, 4)
        with pytest.raises(ValueError):
            BatchWindow(0.01, 0)

    def test_same_key_burst_shares_one_batch(self):
        window = BatchWindow(0.2, 8)
        solve = _CountingSolve()
        out, errors = _run_burst(window, ["k"] * 4, 2000, solve)
        assert not errors
        assert len(solve.calls) == 1
        assert [res for _, res in out] == [(42, 4)] * 4

    def test_shared_solve_runs_under_earliest_deadline(self):
        window = BatchWindow(0.2, 2)
        solve = _CountingSolve()
        tight, loose = Deadline.from_ms(1000), Deadline.from_ms(20000)
        threads = [
            threading.Thread(target=window.run, args=("k", d, solve))
            for d in (loose, tight)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert solve.calls == [tight]

    def test_different_keys_never_mix(self):
        window = BatchWindow(0.05, 8)
        solves = {"a": _CountingSolve("A"), "b": _CountingSolve("B")}
        out = []

        def worker(key):
            out.append(
                (key, window.run(key, Deadline.from_ms(2000), solves[key]))
            )

        threads = [threading.Thread(target=worker, args=(k,)) for k in "aab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # key "b" had a single member: answered solo by its own solve
        assert sorted(out) == [("a", ("A", 2)), ("a", ("A", 2)), ("b", ("B", 1))]
        assert len(solves["a"].calls) == 1 and len(solves["b"].calls) == 1

    def test_single_member_window_runs_solo(self):
        window = BatchWindow(0.01, 8)
        deadline = Deadline.from_ms(1000)
        solve = _CountingSolve(8)
        assert window.run("k", deadline, solve) == (8, 1)
        assert solve.calls == [deadline]

    def test_full_group_seals_early(self):
        # max_lanes reached => the leader does not sleep the whole window
        window = BatchWindow(5.0, 2)
        t0 = time.perf_counter()
        out, errors = _run_burst(window, ["k", "k"], 20000, _CountingSolve())
        assert not errors
        assert time.perf_counter() - t0 < 2.0
        assert all(lanes == 2 for _, (_, lanes) in out)

    def test_batch_failure_falls_back_solo(self):
        window = BatchWindow(0.2, 8)
        calls = []

        def solve(deadline):
            calls.append(deadline)
            if len(calls) == 1:
                raise RuntimeError("solve exploded")
            return 3

        out, errors = _run_burst(window, ["k", "k"], 2000, solve)
        assert not errors
        # one failed shared solve, then one solo solve per member
        assert len(calls) == 3
        assert [res for _, res in out] == [(3, 1), (3, 1)]

    def test_leader_wait_capped_by_tight_deadline(self):
        # a 10 s window must not hold a 100 ms-budget request hostage
        window = BatchWindow(10.0, 8)
        t0 = time.perf_counter()
        assert window.run("k", Deadline.from_ms(100), lambda d: 1) == (1, 1)
        assert time.perf_counter() - t0 < 1.0


class _ExpiresInSolver(Deadline):
    """An expired budget that the service's own stage checks let through,
    so only the solver's checks can reject the request."""

    def check(self, stage: str) -> None:
        if stage not in ("plan", "solve"):
            super().check(stage)


class TestServiceBatching:
    @pytest.fixture(scope="class")
    def batched_service(self):
        return GraphService(
            ServeConfig(
                scale="tiny",
                seed=7,
                batch_window_ms=50.0,
                batch_max_lanes=8,
                self_check=False,
            )
        )

    @pytest.fixture(scope="class")
    def solo_service(self):
        return GraphService(
            ServeConfig(scale="tiny", seed=7, self_check=False)
        )

    @staticmethod
    def _burst(service, requests):
        """Execute ``requests`` concurrently; results in request order."""
        got = [None] * len(requests)
        errors = []

        def worker(i):
            try:
                got[i] = service.execute(
                    requests[i], Deadline.from_ms(10000)
                )["result"]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(requests))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        return got

    def test_sssp_burst_batches_with_identical_answers(
        self, batched_service, solo_service
    ):
        """Identical queries share one solve; each still projects its own
        ``target`` off the shared distances."""
        g = sorted(batched_service.graphs)[0]
        requests = [
            {"op": "sssp", "graph": g, "source": 2, "target": t}
            for t in range(5)
        ]
        expect = [
            solo_service.execute(dict(r), Deadline.from_ms(10000))["result"]
            for r in requests
        ]
        got = self._burst(batched_service, requests)
        for want, res in zip(expect, got):
            for key in ("source", "iterations", "target", "distance"):
                assert res[key] == want[key], f"target {want['target']}, {key}"
        lanes = [res.get("batch_lanes", 1) for res in got]
        assert max(lanes) > 1, "burst never shared a solve"
        assert all(res["batched"] for res, n in zip(got, lanes) if n > 1)

    def test_distinct_source_burst_answers_solo(
        self, batched_service, solo_service
    ):
        g = sorted(batched_service.graphs)[0]
        requests = [{"op": "sssp", "graph": g, "source": s} for s in range(5)]
        expect = [
            solo_service.execute(dict(r), Deadline.from_ms(10000))["result"]
            for r in requests
        ]
        assert self._burst(batched_service, requests) == expect

    def test_bc_node_burst_batches(self, batched_service, solo_service):
        g = sorted(batched_service.graphs)[0]
        nodes = [0, 1, 2, 3]
        req = lambda nd: {  # noqa: E731
            "op": "bc_node", "graph": g, "node": nd,
            "num_sources": 4, "seed": 1,
        }
        expect = {
            nd: solo_service.execute(req(nd), Deadline.from_ms(10000))["result"]
            for nd in nodes
        }
        got = {}

        def worker(nd):
            got[nd] = batched_service.execute(
                req(nd), Deadline.from_ms(10000)
            )["result"]

        threads = [threading.Thread(target=worker, args=(nd,)) for nd in nodes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert any(got[nd].get("batched") for nd in nodes)
        for nd in nodes:
            assert got[nd]["score"] == expect[nd]["score"], f"node {nd}"

    @pytest.mark.parametrize("which", ["solo", "batched"])
    def test_bc_node_past_deadline_times_out_in_the_solver(
        self, batched_service, solo_service, which
    ):
        """A ``bc_node`` whose budget runs out once solving has begun
        gets the deadline error from BC's own level check."""
        service = batched_service if which == "batched" else solo_service
        g = sorted(service.graphs)[0]
        with pytest.raises(DeadlineExceeded, match="at sweep"):
            service.execute(
                {"op": "bc_node", "graph": g, "node": 0, "num_sources": 4},
                _ExpiresInSolver(0.0),
            )

    def test_window_disabled_by_default(self, solo_service):
        assert solo_service.batcher is None

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ServeConfig(scale="tiny", batch_window_ms=-1.0)
        with pytest.raises(ServeError):
            ServeConfig(scale="tiny", batch_max_lanes=0)

    def test_batch_counters_surface(self, batched_service):
        snap = obs_metrics.snapshot()
        assert snap["counters"].get("serve.batch.groups", 0) >= 1
        assert "serve.batch.lanes" in snap["histograms"]


class TestServerBurst:
    """Socket-level burst through a window-enabled server."""

    @pytest.fixture(scope="class")
    def server(self):
        srv = ReproServer(
            ServeConfig(
                scale="tiny",
                seed=7,
                workers=8,
                max_queue_depth=32,
                batch_window_ms=50.0,
                self_check=False,
            )
        )
        srv.start()
        yield srv
        srv.stop(drain=False)

    def test_concurrent_same_source_burst(self, server):
        g = "livejournal"
        responses = {}

        def worker(i):
            with ServeClient("127.0.0.1", server.port) as c:
                responses[i] = c.request(
                    {"op": "sssp", "graph": g, "source": 0, "id": i,
                     "deadline_ms": 20000}
                )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        base = None
        batched = 0
        for i, resp in responses.items():
            assert resp["status"] == "ok", resp
            res = resp["result"]
            if base is None:
                base = (res["reached"], res["total_distance"], res["iterations"])
            assert (
                res["reached"], res["total_distance"], res["iterations"]
            ) == base, f"request {i} got a different answer"
            if res.get("batched"):
                batched += 1
                assert res["batch_lanes"] > 1
        assert batched > 0, "server burst never shared a solve"


class TestValidationRegressions:
    """Parameter validation must reject bools, non-integral floats, NaN."""

    def test_deadline_ms_rejects_bool_and_nan(self):
        for bad in (True, False, float("nan"), float("inf"), -1, 0, "soon"):
            with pytest.raises(ProtocolError, match="deadline_ms"):
                parse_request({"op": "sssp", "deadline_ms": bad})
        assert parse_request({"op": "sssp", "deadline_ms": 250})

    def test_int_param_rejects_bool(self):
        with pytest.raises(ProtocolError, match="integer"):
            _int_param({"source": True}, "source", required=True)
        with pytest.raises(ProtocolError, match="integer"):
            _int_param({"k": False}, "k", required=False)

    def test_int_param_rejects_fractional_float(self):
        with pytest.raises(ProtocolError, match="integer"):
            _int_param({"node": 1.5}, "node", required=True)
        assert _int_param({"node": 3.0}, "node", required=True) == 3

    def test_int_param_rejects_strings_and_missing(self):
        with pytest.raises(ProtocolError, match="integer"):
            _int_param({"source": "0"}, "source", required=True)
        with pytest.raises(ProtocolError, match="missing"):
            _int_param({}, "source", required=True)
        assert _int_param({}, "k", required=False) is None

    @pytest.fixture(scope="class")
    def service(self):
        return GraphService(
            ServeConfig(scale="tiny", seed=7, self_check=False)
        )

    def _execute(self, service, req):
        return service.execute(req, Deadline.from_ms(10000))

    def test_pr_topk_rejects_bad_tol(self, service):
        g = sorted(service.graphs)[0]
        for bad in (True, float("nan"), float("inf"), "tight", 0.0, -1e-9):
            with pytest.raises(ProtocolError):
                self._execute(
                    service, {"op": "pr_topk", "graph": g, "tol": bad}
                )
        ok = self._execute(service, {"op": "pr_topk", "graph": g, "k": 3})
        assert ok["status"] == "ok"

    def test_bc_node_rejects_negative_seed(self, service):
        g = sorted(service.graphs)[0]
        with pytest.raises(ProtocolError, match="seed"):
            self._execute(
                service,
                {"op": "bc_node", "graph": g, "node": 0, "seed": -1},
            )

    def test_sssp_rejects_bool_source(self, service):
        g = sorted(service.graphs)[0]
        with pytest.raises(ProtocolError, match="integer"):
            self._execute(service, {"op": "sssp", "graph": g, "source": True})

    def test_sssp_validates_target_before_solving(self, service):
        g = sorted(service.graphs)[0]
        n = service.graphs[g].num_nodes
        with pytest.raises(ProtocolError, match="target"):
            self._execute(
                service, {"op": "sssp", "graph": g, "source": 0, "target": n}
            )


class TestTunedDegradation:
    """Tuned level-2 answers stay footnoted and never share a batch lane
    with exact answers: the ladder rewrites technique/params *before*
    the batch key is built, so the key itself separates the groups."""

    TUNED = {"bc_node": {"num_sources": 3}, "pr_topk": {"tol": 0.05}}

    @pytest.fixture()
    def tuned_service(self, tmp_path):
        import json

        cfg = tmp_path / "BENCH_TUNE.json"
        cfg.write_text(json.dumps({"serve": self.TUNED}))
        return GraphService(
            ServeConfig(
                scale="tiny",
                seed=7,
                batch_window_ms=50.0,
                batch_max_lanes=8,
                self_check=False,
                tune_config=str(cfg),
            )
        )

    def _spy_keys(self, service, monkeypatch):
        keys = []
        real = service.batcher.run

        def spy(key, deadline, solve):
            keys.append(key)
            return real(key, deadline, solve)

        monkeypatch.setattr(service.batcher, "run", spy)
        return keys

    def test_config_loads_overrides(self, tuned_service):
        assert tuned_service.ladder.tuned_overrides == self.TUNED

    def test_bad_tune_config_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"serve": {"bc_node": {"num_sources": 0}}}')
        with pytest.raises(ServeError, match="bad tune config"):
            GraphService(
                ServeConfig(scale="tiny", seed=7, tune_config=str(cfg))
            )

    def test_tuned_bc_footnoted_and_lane_isolated(
        self, tuned_service, monkeypatch
    ):
        keys = self._spy_keys(tuned_service, monkeypatch)
        g = sorted(tuned_service.graphs)[0]
        req = {
            "op": "bc_node", "graph": g, "node": 0,
            "num_sources": 8, "seed": 1,
        }
        exact = tuned_service.execute(dict(req), Deadline.from_ms(10000))
        assert "degraded" not in exact
        tuned_service.ladder._level = 2  # force sustained pressure
        degraded = tuned_service.execute(dict(req), Deadline.from_ms(10000))
        assert degraded["degraded"] is True
        assert "num_sources=3(tuned)" in degraded["degraded_reason"]
        assert degraded["result"]["num_sources"] == 3
        # the tuned lane's key differs in technique AND num_sources, so a
        # degraded request can never join an exact batch group
        assert keys == [
            ("bc_node", g, "exact", 8, 1),
            ("bc_node", g, "coalescing", 3, 1),
        ]

    def test_tuned_sssp_lane_isolated_from_exact(
        self, tuned_service, monkeypatch
    ):
        keys = self._spy_keys(tuned_service, monkeypatch)
        g = sorted(tuned_service.graphs)[0]
        req = {"op": "sssp", "graph": g, "source": 0}
        tuned_service.execute(dict(req), Deadline.from_ms(10000))
        tuned_service.ladder._level = 2
        out = tuned_service.execute(dict(req), Deadline.from_ms(10000))
        assert out["degraded"] is True
        assert keys == [
            ("sssp", g, "exact", 0),
            ("sssp", g, "coalescing", 0),
        ]

    def test_tuned_pr_tolerance_footnoted(self, tuned_service):
        g = sorted(tuned_service.graphs)[0]
        tuned_service.ladder._level = 2
        out = tuned_service.execute(
            {"op": "pr_topk", "graph": g, "k": 3, "tol": 1e-8},
            Deadline.from_ms(10000),
        )
        assert out["degraded"] is True
        assert "tol=0.05(tuned)" in out["degraded_reason"]
