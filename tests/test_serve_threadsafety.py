"""Thread-safety regression hammers for the state the serve layer shares.

The server multiplexes one process-wide memory cache tier and the
shared edge-view caches across N worker threads; these tests hold the
audited concurrency contracts in place:

* :class:`repro.cache.lru.LRUCache` — fully lock-guarded: concurrent
  get/put/iterate/len/clear must never corrupt the OrderedDict or raise,
  and the bound must hold at every observation;
* the solvers — concurrent runs over shared views must each get the
  exact sequential answer, and a relax re-entered mid-sweep must not
  disturb the outer sweep's change detection.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cache.lru import LRUCache

N_THREADS = 8
OPS_PER_THREAD = 2000


def run_hammer(n_threads, worker):
    """Run ``worker(idx)`` on N threads, re-raising the first failure."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def wrapped(idx):
        try:
            barrier.wait(timeout=30.0)
            worker(idx)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "hammer thread hung"
    if errors:
        raise errors[0]


class TestLRUCacheHammer:
    def test_concurrent_mixed_operations(self):
        cache = LRUCache(max_entries=32)

        def worker(idx):
            rng = np.random.default_rng(idx)
            for i in range(OPS_PER_THREAD):
                key = int(rng.integers(64))
                op = i % 5
                if op == 0:
                    cache.put(key, (idx, i))
                elif op == 1:
                    value = cache.get(key)
                    if value is not None:
                        assert isinstance(value, tuple)
                elif op == 2:
                    key in cache  # noqa: B015 - exercising __contains__
                elif op == 3:
                    assert len(cache) <= 32  # bound holds at every observation
                else:
                    for _k in cache:  # snapshot iteration mustn't raise
                        pass

        run_hammer(N_THREADS, worker)
        assert len(cache) <= 32

    def test_concurrent_put_with_clear(self):
        cache = LRUCache(max_entries=16)
        stop = threading.Event()

        def clearer(_idx):
            while not stop.is_set():
                cache.clear()

        def putter(idx):
            try:
                for i in range(OPS_PER_THREAD):
                    cache.put((idx, i % 40), i)
                    cache.get((idx, (i * 7) % 40))
            finally:
                stop.set()

        def worker(idx):
            (clearer if idx == 0 else putter)(idx)

        run_hammer(4, worker)
        assert len(cache) <= 16

    def test_eviction_metrics_consistent_under_contention(self):
        """Evictions from many threads never push the cache over bound."""
        cache = LRUCache(max_entries=8, metric_prefix="test.hammer")

        def worker(idx):
            for i in range(OPS_PER_THREAD):
                cache.put((idx, i), i)

        run_hammer(N_THREADS, worker)
        assert len(cache) <= 8


class TestRelaxReentrancy:
    """A relax re-entered through a nested runner (serve handlers can
    call back into solvers) must not disturb the outer sweep."""

    def test_reentrant_sssp_relax_preserves_outer_snapshot(self):
        """sssp_relax re-entered mid-sweep (here, from the outer sweep's
        first read of ``edges.src``) must not invalidate the outer
        sweep's change detection."""
        from repro.algorithms.sssp import sssp_relax
        from repro.graphs.csr import CSRGraph
        from repro.perf.edgeshare import EdgeView

        n = 8
        src = np.arange(n, dtype=np.int64)
        graph = CSRGraph.from_edges(n, src, (src + 1) % n, np.ones(n))
        edges = EdgeView(graph)

        class ReentrantEdges:
            """Duck-typed EdgeView whose first access re-enters a relax."""

            def __init__(self):
                self.fired = False
                self.out_deg = edges.out_deg

            @property
            def src(self):
                if not self.fired:
                    self.fired = True
                    inner = np.full(n, np.inf)
                    inner[0] = 0.0
                    while sssp_relax(edges, inner):
                        pass
                return edges.src

            dst = property(lambda self: edges.dst)
            weights = property(lambda self: edges.weights)

        dist = np.full(n, np.inf)
        dist[0] = 0.0
        sweeps = 0
        while sssp_relax(ReentrantEdges(), dist) and sweeps < 4 * n:
            sweeps += 1
        assert np.array_equal(dist, np.arange(n, dtype=np.float64))


class TestSolverThreadHammer:
    """Concurrent solver runs share the edge-view and pull-view caches;
    every thread must get the exact sequential answer."""

    def test_threaded_sssp_and_gunrock_consistent(self):
        from repro.algorithms.sssp import sssp
        from repro.baselines.gunrock import pagerank_delta, sssp_frontier
        from repro.graphs.generators import rmat

        graph = rmat(scale=7, edge_factor=6, seed=11, weighted=True)
        expected_sssp = sssp(graph, 0).values
        expected_gr = sssp_frontier(graph, 0).values
        expected_pr = pagerank_delta(graph).values

        def worker(idx):
            for spec in (None, "push", "pull", "direction-optimizing"):
                r = sssp(graph, 0, schedule=spec)
                assert r.values.tobytes() == expected_sssp.tobytes()
                r = sssp_frontier(graph, 0, schedule=spec)
                assert r.values.tobytes() == expected_gr.tobytes()
                r = pagerank_delta(graph, schedule=spec)
                assert r.values.tobytes() == expected_pr.tobytes()

        run_hammer(N_THREADS, worker)


def test_server_worker_threads_share_safely():
    """N connections hammering one server: every answer is consistent.

    This is the integration face of the two hammers above — the serve
    worker threads share the memory cache tier and the edge-view caches
    underneath the solvers.
    """
    from repro.serve.protocol import ServeClient
    from repro.serve.server import ReproServer
    from repro.serve.service import ServeConfig

    srv = ReproServer(
        ServeConfig(scale="tiny", seed=7, workers=4, self_check=False)
    )
    port = srv.start()
    answers: list[dict] = []
    lock = threading.Lock()

    def client_main(idx):
        with ServeClient("127.0.0.1", port, timeout=30.0) as c:
            for _ in range(10):
                resp = c.request({"op": "sssp", "graph": "rmat", "source": 0})
                assert resp["status"] == "ok"
                with lock:
                    answers.append(resp["result"])

    try:
        run_hammer(6, client_main)
    finally:
        srv.stop(drain=False)
    assert len(answers) == 60
    # identical query, identical answer, from every thread every time
    first = answers[0]
    for a in answers[1:]:
        assert a["reached"] == first["reached"]
        assert a["total_distance"] == pytest.approx(
            first["total_distance"], rel=1e-12
        )
