"""Unit tests for the ``repro.perf`` kernel engine primitives."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.algorithms.common import Runner, plan_for
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.core.serialize import load_plan, save_plan
from repro.perf.gather import expand_frontier, expand_rows, scatter_min_changed


@pytest.fixture()
def chain_graph():
    # 0->1,0->2, 1->3, 2 has no out-edges, 3->0
    return CSRGraph.from_edges(4, [0, 0, 1, 3], [1, 2, 3, 0], [1.0, 2.0, 3.0, 4.0])


class TestFrontierEdges:
    def test_matches_full_edge_mask(self, rmat_small):
        g = rmat_small
        src_all = g.edge_sources()
        frontier = np.arange(0, g.num_nodes, 3, dtype=np.int64)
        exp = expand_frontier(g.offsets, g.indices, frontier)
        mask = np.isin(src_all, frontier)
        assert np.array_equal(exp.e_src, src_all[mask])
        assert np.array_equal(exp.e_dst, g.indices[mask])
        # epos is the global edge position: indexes any parallel attribute
        assert np.array_equal(exp.epos, np.nonzero(mask)[0])
        assert np.array_equal(g.effective_weights()[exp.epos],
                              g.effective_weights()[mask])

    def test_sorted_frontier_yields_global_edge_order(self, rmat_small):
        g = rmat_small
        frontier = np.unique(
            np.random.default_rng(0).integers(0, g.num_nodes, 20)
        )
        epos = expand_frontier(g.offsets, g.indices, frontier).epos
        assert np.all(np.diff(epos) > 0)

    def test_empty_and_degree_zero(self, chain_graph):
        exp = expand_frontier(
            chain_graph.offsets, chain_graph.indices, np.empty(0, np.int64)
        )
        assert exp.e_src.size == exp.e_dst.size == exp.epos.size == 0
        # node 2 has no out-edges
        exp = expand_frontier(
            chain_graph.offsets, chain_graph.indices, np.array([2], np.int64)
        )
        assert exp.e_src.size == 0

    def test_counters(self, chain_graph):
        calls = obs_metrics.counter("perf.gather.calls").value
        edges = obs_metrics.counter("perf.gather.edges").value
        expand_frontier(
            chain_graph.offsets, chain_graph.indices, np.array([0, 1], np.int64)
        )
        assert obs_metrics.counter("perf.gather.calls").value == calls + 1
        assert obs_metrics.counter("perf.gather.edges").value == edges + 3


class TestExpandRows:
    def test_all_nodes_shortcut_matches_generic_gather(self, rmat_small):
        g = rmat_small
        fast = expand_rows(g.offsets, g.indices, None)
        slow = expand_rows(
            g.offsets, g.indices, np.arange(g.num_nodes, dtype=np.int64)
        )
        for field in ("frontier", "degs", "step", "epos", "e_dst", "e_src"):
            a, b = getattr(fast, field), getattr(slow, field)
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b), field

    def test_uncounted(self, chain_graph):
        calls = obs_metrics.counter("perf.gather.calls").value
        expand_rows(chain_graph.offsets, chain_graph.indices, None)
        expand_rows(
            chain_graph.offsets, chain_graph.indices, np.array([0], np.int64)
        )
        assert obs_metrics.counter("perf.gather.calls").value == calls


class TestScatterMinChanged:
    def test_matches_snapshot_semantics(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 10, 50)
        idx = rng.integers(0, 50, 200)
        cand = rng.uniform(0, 10, 200)
        snapshot = values.copy()
        changed = scatter_min_changed(values, idx, cand)
        ref = snapshot.copy()
        np.minimum.at(ref, idx, cand)
        assert np.array_equal(values, ref)
        # mask == "this record's destination strictly improved", exactly
        # what the full-snapshot idiom derived at O(V) per sweep
        assert np.array_equal(changed, values[idx] < snapshot[idx])

    def test_mask_marks_all_records_of_improved_dst(self):
        values = np.array([5.0, 5.0])
        idx = np.array([0, 0, 1])
        cand = np.array([7.0, 3.0, 9.0])
        changed = scatter_min_changed(values, idx, cand)
        # dst 0 improved (3 < 5): both records touching 0 are marked
        assert changed[0] and changed[1]
        assert not changed[2]
        assert np.array_equal(values, [3.0, 5.0])

    def test_empty(self):
        values = np.array([1.0])
        changed = scatter_min_changed(values, np.empty(0, np.int64), np.empty(0))
        assert changed.size == 0


class TestSharedEdgeView:
    """A plan builds the EdgeViews of its graphs on first read, shares
    them across its runners and frees them with itself."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        """The graphs a plan builds an EdgeView of, in order."""
        from repro.core import pipeline

        built = []

        class Counted(pipeline.EdgeView):
            def __init__(self, graph):
                built.append(graph)
                super().__init__(graph)

        monkeypatch.setattr(pipeline, "EdgeView", Counted)
        return built

    @staticmethod
    def fresh_plan(graph, technique):
        # a copy, so no artifact cache can hand out a plan already run
        return dataclasses.replace(build_plan(graph, technique))

    def test_distinct_content_distinct_views(self, rmat_small, er_small):
        assert plan_for(rmat_small).edges is not plan_for(er_small).edges

    def test_view_consistency(self, rmat_small):
        plan = plan_for(rmat_small)
        view = plan.edges
        assert np.array_equal(view.src, rmat_small.edge_sources())
        assert np.array_equal(view.dst, rmat_small.indices)
        assert np.array_equal(view.weights, rmat_small.effective_weights())
        assert view.src.size == rmat_small.num_edges
        assert plan.edges is view
        assert plan.cluster_edges is None

    def test_runners_on_one_plan_share_one_view(self, rmat_small, builds):
        plan = self.fresh_plan(rmat_small, "shmem")
        assert plan.cluster_graph is not None
        assert builds == []  # a plan that never runs builds none
        a, b = Runner(plan), Runner(plan)
        assert a.edges is b.edges is plan.edges
        assert a.cluster_edges is b.cluster_edges is plan.cluster_edges
        assert builds == [plan.graph, plan.cluster_graph]
        sssp(plan, 0)
        assert len(builds) == 2

    def test_copies_start_empty_and_compare_equal(
        self, rmat_small, tmp_path, builds
    ):
        plan = self.fresh_plan(rmat_small, "exact")
        sssp(plan, 0)
        save_plan(plan, tmp_path / "plan.npz")
        copies = [dataclasses.replace(plan), load_plan(tmp_path / "plan.npz")]
        assert len(builds) == 1
        for copy in copies:
            assert copy == plan
            assert copy.edges is not plan.edges
        assert len(builds) == 3

    def test_view_dies_with_its_plan(self, rmat_small):
        plan = self.fresh_plan(rmat_small, "shmem")
        sssp(plan, 0, schedule="pull")
        views = [
            weakref.ref(v)
            for v in (plan.edges, plan.edges.pull, plan.cluster_edges)
        ]
        gc.disable()  # freed by reference counting alone, no collection
        try:
            del plan
            assert [v() for v in views] == [None, None, None]
        finally:
            gc.enable()
