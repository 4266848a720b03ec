"""Tests for the sampling profiler (repro.obs.prof).

The two acceptance bounds from the observability issue live here and
are *measured*, not asserted by fiat: on a kernel-benchmark-shaped workload
the profiler must attribute >= 90 % of samples to known spans, and at
the default interval its overhead on that workload must stay under the
documented 5 % bound.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.obs import prof as obs_prof
from repro.obs import trace as obs_trace
from repro.obs.prof import UNATTRIBUTED, SamplingProfiler, profiling


@pytest.fixture()
def tracer():
    t = obs_trace.install_tracer()
    yield t
    obs_trace.uninstall_tracer()


def _spin(seconds: float) -> int:
    """A CPU-bound workload with a recognizable stack frame."""
    end = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < end:
        acc += sum(i * i for i in range(200))
    return acc


class TestSampling:
    def test_attributes_samples_to_open_span(self, tracer):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("solve.sweep"):
                _spin(0.25)
        assert prof.samples > 20
        assert prof.span_samples.get("solve.sweep", 0) > 0
        assert prof.attributed_fraction >= 0.9

    def test_innermost_span_wins(self, tracer):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("harness.target"):
                with obs_trace.span("solve.sweep"):
                    _spin(0.2)
        inner = prof.span_samples.get("solve.sweep", 0)
        outer = prof.span_samples.get("harness.target", 0)
        assert inner > outer

    def test_unattributed_without_spans(self, tracer):
        with profiling(interval=0.002) as prof:
            _spin(0.1)
        assert prof.span_samples.get(UNATTRIBUTED, 0) > 0
        assert prof.attributed == 0

    def test_collapsed_stacks_have_workload_frame(self, tracer):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("solve.sweep"):
                _spin(0.2)
        assert any("_spin" in stack for stack in prof.stacks)
        # collapsed format: semicolon-joined frames, root first
        stack = max(prof.stacks, key=prof.stacks.get)
        assert ";" in stack

    def test_worker_thread_samples_attributed(self, tracer):
        import threading

        def worker():
            with obs_trace.span("serve.execute"):
                _spin(0.2)

        t = threading.Thread(target=worker, name="serve-worker")
        with profiling(interval=0.002) as prof:
            t.start()
            t.join()
        assert prof.span_samples.get("serve.execute", 0) > 0
        assert any("serve-worker" in name for name in prof.thread_samples)

    def test_start_twice_raises(self):
        prof = SamplingProfiler(0.01)
        prof.start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0.0)


class TestReportAndExport:
    def test_report_schema(self, tracer):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("solve.sweep"):
                _spin(0.15)
        rep = prof.report()
        assert rep["schema"] == 1
        assert rep["samples"] == sum(r["samples"] for r in rep["spans"])
        top = rep["spans"][0]
        assert top["span"] == "solve.sweep"
        assert top["seconds"] == pytest.approx(
            top["samples"] * prof.interval, rel=1e-6
        )
        assert 0.0 < top["share"] <= 1.0
        assert rep["attributed_fraction"] >= 0.9

    def test_export_files(self, tracer, tmp_path):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("solve.sweep"):
                _spin(0.1)
        collapsed = prof.export_collapsed(tmp_path / "p.collapsed")
        report = prof.export_report(tmp_path / "p.json")
        lines = collapsed.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) > 0
        import json

        rep = json.loads(report.read_text())
        assert rep["spans"]

    def test_format_report_mentions_top_span(self, tracer):
        with profiling(interval=0.002) as prof:
            with obs_trace.span("solve.sweep"):
                _spin(0.1)
        text = prof.format_report()
        assert "solve.sweep" in text
        assert "attributed" in text

    def test_memory_mode_records_high_water(self, tracer):
        with profiling(interval=0.002, memory=True) as prof:
            with obs_trace.span("transform.coalesce"):
                blobs = [bytearray(1 << 16) for _ in range(200)]
                _spin(0.1)
                del blobs
        rep = prof.report()
        assert "memory_high_water_bytes" in rep
        assert rep["memory_high_water_bytes"].get("transform.coalesce", 0) > 0


class TestCliPlumbing:
    def test_env_prefix(self, monkeypatch):
        monkeypatch.delenv(obs_prof.ENV_VAR, raising=False)
        assert obs_prof.profile_prefix_from_env() is None
        monkeypatch.setenv(obs_prof.ENV_VAR, "out/prof")
        assert obs_prof.profile_prefix_from_env() == "out/prof"

    def test_start_from_cli_off(self, monkeypatch):
        monkeypatch.delenv(obs_prof.ENV_VAR, raising=False)
        prof, prefix = obs_prof.start_from_cli(None)
        assert prof is None and prefix is None

    def test_start_from_cli_installs_tracer_and_writes(self, tmp_path, monkeypatch):
        monkeypatch.delenv(obs_prof.ENV_VAR, raising=False)
        assert obs_trace.get_tracer() is None
        prof, prefix = obs_prof.start_from_cli(str(tmp_path / "run"))
        try:
            assert prof is not None
            assert obs_trace.get_tracer() is not None
            with obs_trace.span("solve.sweep"):
                _spin(0.05)
        finally:
            obs_prof.write_outputs(prof, prefix)
            obs_trace.uninstall_tracer()
        assert (tmp_path / "run.collapsed").exists()
        assert (tmp_path / "run.json").exists()

    def test_env_interval_override(self, monkeypatch):
        monkeypatch.setenv(obs_prof.ENV_INTERVAL_MS, "20")
        prof, _ = obs_prof.start_from_cli("x")
        try:
            assert prof.interval == pytest.approx(0.02)
        finally:
            prof.stop()
            obs_trace.uninstall_tracer()

    def test_env_interval_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv(obs_prof.ENV_INTERVAL_MS, "nope")
        assert obs_prof._env_interval() == obs_prof.DEFAULT_INTERVAL


class TestAcceptanceBounds:
    """The documented bounds, measured on a kernel-benchmark-shaped workload."""

    def _bench_workload(self):
        """A miniature kernel benchmark: repeated solves under spans."""
        from repro.graphs.generators import paper_suite

        with obs_trace.span("bench.run"):
            with obs_trace.span("bench.suite"):
                suite = paper_suite("tiny", seed=7)
            from repro.algorithms.bfs import bfs
            from repro.algorithms.pagerank import pagerank

            for _ in range(4):  # repeats, like a benchmark's best-of-N
                for name, graph in suite.items():
                    with obs_trace.span(
                        "bench.kernel", kernel="bfs", graph=name
                    ):
                        bfs(graph, 0)
                    with obs_trace.span(
                        "bench.kernel", kernel="pagerank", graph=name
                    ):
                        pagerank(graph)

    def test_attribution_at_least_90_percent(self, tracer):
        prof = SamplingProfiler(0.002)
        prof.start()
        try:
            self._bench_workload()
        finally:
            prof.stop()
        assert prof.samples > 10
        assert prof.attributed_fraction >= 0.90
        # every attributed sample landed in the repo's span taxonomy —
        # innermost wins, so expect solve.*/transform.*/perf.* names,
        # dotted category-first per the naming convention
        for name, n in prof.span_samples.items():
            if name == UNATTRIBUTED:
                continue
            assert "." in name, f"sample in unnamed span {name!r} (x{n})"

    @pytest.mark.skipif(
        os.environ.get("CI") == "true" and os.cpu_count() and os.cpu_count() < 2,
        reason="overhead bound needs a core for the sampler thread",
    )
    def test_overhead_under_documented_bound(self, tracer):
        """Default-interval sampling costs < 5 % on the smoke workload.

        The workload is *work*-bounded (fixed iterations), not
        time-bounded — a wall-clock-bounded loop would absorb any
        overhead invisibly.  Min-of-N on both sides so scheduler noise
        cancels; a small absolute slack absorbs timer granularity.
        """

        def timed() -> float:
            t0 = time.perf_counter()
            acc = 0
            for i in range(150_000):
                acc += i * i
            assert acc > 0
            return time.perf_counter() - t0

        bare = min(timed() for _ in range(3))
        prof = SamplingProfiler()  # documented default interval
        prof.start()
        try:
            profiled = min(timed() for _ in range(3))
        finally:
            prof.stop()
        assert profiled <= bare * 1.05 + 0.010, (
            f"profiled {profiled:.4f}s vs bare {bare:.4f}s "
            f"({profiled / bare - 1.0:+.1%} overhead)"
        )
