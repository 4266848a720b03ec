"""End-to-end artifact-cache behaviour across sweeps and worker pools."""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache as repro_cache
from repro.cache import artifact_key
from repro.eval.parallel import parallel_technique_rows
from repro.eval.suite import run_targets
from repro.obs import metrics as obs_metrics
from repro.resilience import faults
from repro.resilience.journal import RunJournal, cell_key


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(repro_cache.ENV_VAR, raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    repro_cache.disable()
    obs_metrics.reset()
    yield
    repro_cache.disable()
    obs_metrics.reset()


def _counters(prefix: str) -> dict[str, float]:
    return {
        k: v
        for k, v in obs_metrics.snapshot()["counters"].items()
        if k.startswith(prefix)
    }


class TestWarmSweep:
    """ISSUE acceptance: with the cache on, a repeated sweep performs each
    build_plan exactly once per (graph, technique, knobs) and the analytics
    once per graph — shown by the obs counters — with byte-identical
    rendered tables."""

    def test_cold_then_warm_is_byte_identical_and_computes_once(self, tmp_path):
        targets = ["table1", "table8"]
        kwargs = dict(scale="tiny", cache_dir=str(tmp_path / "cache"))
        try:
            cold = run_targets(targets, **kwargs)
            cold_counters = _counters("cache.")
            obs_metrics.reset()
            warm = run_targets(targets, **kwargs)
            warm_counters = _counters("cache.")
        finally:
            repro_cache.disable()

        # byte-identical rendered output
        assert cold == warm

        # table8 sweeps one technique over the 5 suite graphs: the cold
        # pass transforms each graph exactly once...
        assert cold_counters["cache.transform.build_plan.miss"] == 5
        assert cold_counters["cache.transform.build_plan.store"] == 5
        # ...and table1's per-graph analytics compute exactly once too
        assert cold_counters["cache.analytics.graph_stats.miss"] == 5
        assert cold_counters["cache.analytics.clustering_coefficients.miss"] == 5

        # the warm pass recomputes nothing: every lookup is a hit
        assert warm_counters["cache.transform.build_plan.hit"] == 5
        assert warm_counters.get("cache.transform.build_plan.miss", 0) == 0
        assert warm_counters["cache.analytics.graph_stats.hit"] == 5
        assert warm_counters.get("cache.analytics.graph_stats.miss", 0) == 0
        assert warm_counters.get("cache.disk.corrupt", 0) == 0

    def test_warm_sweep_survives_corrupted_entries(self, tmp_path):
        """Truncating every stored payload degrades the warm pass to a
        recompute — same bytes out, corruption counted, never an error."""
        cache_dir = tmp_path / "cache"
        kwargs = dict(scale="tiny", cache_dir=str(cache_dir))
        try:
            cold = run_targets(["table8"], **kwargs)
            for payload in cache_dir.rglob("*.npz"):
                payload.write_bytes(payload.read_bytes()[:10])
            obs_metrics.reset()
            repro_cache.disable()  # drop the warm memory tier as well
            warm = run_targets(["table8"], **kwargs)
            counters = _counters("cache.")
        finally:
            repro_cache.disable()
        assert cold == warm
        assert counters["cache.disk.corrupt"] >= 5
        assert counters["cache.transform.build_plan.miss"] == 5


class TestParallelWorkersShareStore:
    def _sweep(self, cache_dir, **kw):
        defaults = dict(
            baseline="baseline1",
            algorithms=("sssp",),
            scale="tiny",
            num_bc_sources=2,
            max_workers=2,
            backoff_base=0.01,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
        defaults.update(kw)
        return parallel_technique_rows("divergence", **defaults)

    def test_workers_populate_and_reuse_shared_store(self, tmp_path):
        cache_dir = tmp_path / "cache"
        rows = self._sweep(cache_dir)
        assert len(rows) == 5 and not any(r.get("failed") for r in rows)
        from repro.cache.store import DiskStore

        stats = DiskStore(cache_dir).stats()
        assert stats["stages"]["transform.build_plan"]["entries"] == 5

        # second pool run: worker metrics merged back into this process
        # must show the store being read, and the rows must agree
        obs_metrics.reset()
        rows2 = self._sweep(cache_dir)
        merged = _counters("cache.")
        assert merged["cache.transform.build_plan.hit"] == 5
        assert merged.get("cache.transform.build_plan.miss", 0) == 0
        for r1, r2 in zip(rows, rows2):
            assert r1 == r2

    def test_journal_records_cache_provenance(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self._sweep(cache_dir)  # populate

        journal = RunJournal(tmp_path / "journal.jsonl")
        self._sweep(cache_dir, journal=journal)
        key = cell_key("divergence", "baseline1", "sssp", "rmat", "tiny", 7, 2)
        prov = journal.get("cache", key)
        assert prov is not None
        assert prov.get("cache.transform.build_plan.hit", 0) >= 1

    def test_no_cache_dir_means_no_provenance(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        self._sweep(None, journal=journal)
        key = cell_key("divergence", "baseline1", "sssp", "rmat", "tiny", 7, 2)
        assert journal.get("cache", key) is None
        assert journal.get("cell", key) is not None


class TestCachedPlanFidelity:
    def test_disk_loaded_plan_produces_identical_rows(self, tmp_path):
        """A table cell computed from a disk-cached plan must match the
        cell computed from a freshly built plan, field for field."""
        from repro.eval.tables import TableRunner

        fresh = TableRunner(scale="tiny", num_bc_sources=2)
        baseline_row = fresh.cell_row("rmat", "sssp", "divergence", "baseline1")

        try:
            warmer = TableRunner(
                scale="tiny", num_bc_sources=2, cache_dir=str(tmp_path)
            )
            warmer.cell_row("rmat", "sssp", "divergence", "baseline1")
            # new runner + fresh config: memory tier empty, disk tier warm
            repro_cache.disable()
            cached = TableRunner(
                scale="tiny", num_bc_sources=2, cache_dir=str(tmp_path)
            )
            cached_row = cached.cell_row("rmat", "sssp", "divergence", "baseline1")
        finally:
            repro_cache.disable()
        assert cached_row == baseline_row

    def test_analytics_identical_from_cache(self, tmp_path, rmat_small):
        from repro.graphs.properties import clustering_coefficients, graph_stats

        cc_fresh = clustering_coefficients(rmat_small)
        stats_fresh = graph_stats(rmat_small)
        with repro_cache.enabled(cache_dir=tmp_path):
            clustering_coefficients(rmat_small)
            graph_stats(rmat_small)
        with repro_cache.enabled(cache_dir=tmp_path):
            cc_warm = clustering_coefficients(rmat_small)
            stats_warm = graph_stats(rmat_small)
        assert np.array_equal(cc_fresh, cc_warm)
        assert stats_fresh == stats_warm

    def test_key_isolation_between_knob_settings(self, rmat_small):
        """Different knobs must never alias to one cached plan."""
        from repro.core.knobs import DivergenceKnobs
        from repro.core.pipeline import build_plan

        with repro_cache.enabled():
            p1 = build_plan(
                rmat_small,
                "divergence",
                divergence=DivergenceKnobs(degree_sim_threshold=0.1),
            )
            p2 = build_plan(
                rmat_small,
                "divergence",
                divergence=DivergenceKnobs(degree_sim_threshold=0.9),
            )
        assert p1.edges_added != p2.edges_added

    def test_default_knobs_and_none_share_a_key(self, rmat_small):
        from repro.core.knobs import DivergenceKnobs
        from repro.core.pipeline import build_plan

        with repro_cache.enabled():
            p1 = build_plan(rmat_small, "divergence")
            p2 = build_plan(
                rmat_small, "divergence", divergence=DivergenceKnobs()
            )
        assert p1 is p2


class TestAnalyticsNotAliased:
    """The shared-memory transform edits clustering coefficients while it
    boosts nodes; it must edit its own copy, never the array the memory
    tier hands every caller, or later plans read corrupted values."""

    @staticmethod
    def _shmem_digest(graph, knobs) -> tuple:
        from repro.core.pipeline import build_plan

        plan = build_plan(graph, "shmem", shmem=knobs)
        return (
            plan.edges_added,
            plan.graph.fingerprint(),
            plan.resident_mask.tobytes(),
            plan.cluster_graph.fingerprint(),
        )

    def test_plans_and_tuning_match_the_uncached_run(self, suite_tiny):
        from repro.core.knobs import SharedMemoryKnobs
        from repro.tune.search import tune_family

        graph = suite_tiny["usa-road"]
        knobs = (
            SharedMemoryKnobs(cc_threshold=0.5),
            SharedMemoryKnobs(cc_threshold=0.5, boost_band=0.1),
        )

        def run() -> tuple:
            plans = tuple(self._shmem_digest(graph, k) for k in knobs)
            return plans, tune_family("random", suite_tiny["random"], quick=True)

        uncached = run()
        with repro_cache.enabled():
            cached = run()
        assert cached == uncached


class TestFaultInjectionUnaffected:
    def test_disabled_cache_preserves_fault_semantics(self, rmat_small):
        """With caching off (the default), every build_plan still reaches
        its fault point — the resilience suite's assumption."""
        from repro.core.pipeline import build_plan
        from repro.errors import TransformError

        faults.install("site=transform,mode=transform-error,match=divergence")
        try:
            with pytest.raises(TransformError):
                build_plan(rmat_small, "divergence")
        finally:
            faults.reset()
