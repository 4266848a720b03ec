"""Unit tests for SSSP (exactness, cost accounting, approximation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.exact import exact_sssp
from repro.algorithms.sssp import sssp, sssp_relax
from repro.core.pipeline import build_plan
from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph
from repro.perf.edgeshare import EdgeView

from strategies import multigraphs, random_graphs


def _agree_with_dijkstra(graph, source):
    res = sssp(graph, source)
    ref = exact_sssp(graph, source)
    assert np.array_equal(np.isfinite(res.values), np.isfinite(ref))
    finite = np.isfinite(ref)
    assert np.allclose(res.values[finite], ref[finite])
    return res


class TestExactness:
    def test_matches_dijkstra_all_structures(self, all_structures):
        for g in all_structures.values():
            _agree_with_dijkstra(g, int(np.argmax(g.out_degrees())))

    def test_unweighted_graph(self, tiny_graph):
        res = _agree_with_dijkstra(tiny_graph, 0)
        assert res.values[0] == 0.0

    def test_unreachable_inf(self):
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(3, [0], [1], [2.0])
        res = sssp(g, 0)
        assert res.values[2] == np.inf

    def test_source_distance_zero(self, weighted_graph):
        for s in range(weighted_graph.num_nodes):
            assert sssp(weighted_graph, s).values[s] == 0.0

    def test_bad_source(self, weighted_graph):
        with pytest.raises(AlgorithmError):
            sssp(weighted_graph, -1)
        with pytest.raises(AlgorithmError):
            sssp(weighted_graph, 99)

    @settings(max_examples=40)
    @given(graph=random_graphs(max_nodes=24, max_edges=120, weighted=True))
    def test_matches_dijkstra_fuzz(self, graph):
        _agree_with_dijkstra(graph, int(np.argmax(graph.out_degrees())))

    @settings(max_examples=20)
    @given(graph=multigraphs(max_nodes=16, max_edges=60, weighted=True))
    def test_matches_dijkstra_on_multigraphs(self, graph):
        source = int(np.argmax(graph.out_degrees()))
        _agree_with_dijkstra(graph, source)
        # the oracle itself keeps the lighter of parallel edges: it
        # agrees with Dijkstra on the graph deduplicated to its lightest
        # copies (from_edges' dedup keeps the first of a stable sort)
        src, dst = graph.edge_sources(), graph.indices
        order = np.argsort(graph.weights, kind="stable")
        lightest = CSRGraph.from_edges(
            graph.num_nodes, src[order], dst[order], graph.weights[order],
            dedup=True,
        )
        assert np.array_equal(
            exact_sssp(graph, source), exact_sssp(lightest, source)
        )

    @pytest.mark.parametrize("dup", [1, 5, 26, 40])
    def test_lightest_parallel_edge_wins(self, dup):
        """Two hops 0 -> 1 -> 2, each repeated ``dup`` times with its own
        weights: the distance takes the lightest copy of each hop."""
        src = np.repeat(np.array([0, 1], dtype=np.int64), dup)
        dst = np.repeat(np.array([1, 2], dtype=np.int64), dup)
        w = np.random.default_rng(dup).uniform(0.5, 5.0, size=src.size)
        graph = CSRGraph.from_edges(3, src, dst, w, dedup=False)
        res = _agree_with_dijkstra(graph, 0)
        assert res.values[1] == w[:dup].min()
        assert res.values[2] == w[:dup].min() + w[dup:].min()


class TestRelax:
    def test_changed_flag(self):
        """The flag is raised exactly when some distance improves."""
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 2, 3, 3])
        w = np.array([1.0, 4.0, 1.0, 1.0])
        edges = EdgeView(CSRGraph.from_edges(4, src, dst, w))
        dist = np.array([0.0, np.inf, np.inf, np.inf])
        assert sssp_relax(edges, dist)
        assert dist.tolist() == [0.0, 1.0, 4.0, np.inf]
        assert sssp_relax(edges, dist)
        assert dist.tolist() == [0.0, 1.0, 4.0, 2.0]
        assert not sssp_relax(edges, dist)  # already optimal
        assert dist.tolist() == [0.0, 1.0, 4.0, 2.0]


class TestCostAccounting:
    def test_iterations_bounded_by_longest_path(self, road_small):
        src = int(np.argmax(road_small.out_degrees()))
        res = sssp(road_small, src)
        assert 1 <= res.iterations <= road_small.num_nodes + 1

    def test_cycles_positive_and_scale(self, rmat_small, road_small):
        a = sssp(rmat_small, 0)
        assert a.cycles > 0
        assert a.seconds > 0
        # a denser graph sweep costs more per iteration
        per_sweep_rmat = a.cycles / a.iterations
        b = sssp(road_small, 0)
        per_sweep_road = b.cycles / b.iterations
        assert per_sweep_rmat > per_sweep_road

    def test_metrics_sweeps_match_iterations(self, rmat_small):
        res = sssp(rmat_small, 0)
        assert res.metrics.num_sweeps == res.iterations


class TestApproximate:
    @pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
    def test_technique_result_sane(self, rmat_small, technique):
        src = int(np.argmax(rmat_small.out_degrees()))
        plan = build_plan(rmat_small, technique)
        exact = sssp(rmat_small, src)
        approx = sssp(plan, src)
        assert approx.values.size == rmat_small.num_nodes
        assert approx.values[src] == 0.0
        # structural edits only add reachability
        reached_exact = np.isfinite(exact.values)
        assert np.isfinite(approx.values[reached_exact]).all()
        # distances are bounded below by the true distances for the
        # sum-weighted divergence edges; mean-drift can raise but errors
        # stay bounded
        finite = reached_exact
        rel = np.abs(approx.values[finite] - exact.values[finite]) / np.maximum(
            exact.values[finite], 1.0
        )
        assert rel.mean() < 0.5

    def test_divergence_padding_exact_values(self, weighted_graph):
        """Sum-weighted 2-hop padding never changes SSSP values."""
        plan = build_plan(weighted_graph, "divergence")
        exact = sssp(weighted_graph, 0)
        approx = sssp(plan, 0)
        assert np.allclose(exact.values, approx.values)

    def test_confluence_operator_min_is_lossless(self, social_small):
        """Algorithm-aware min-confluence (ablation D1) removes the drift."""
        from repro.core.knobs import CoalescingKnobs

        src = int(np.argmax(social_small.out_degrees()))
        plan = build_plan(
            social_small,
            "coalescing",
            coalescing=CoalescingKnobs(connectedness_threshold=0.3),
            confluence_operator="min",
        )
        exact = sssp(social_small, src)
        approx = sssp(plan, src)
        finite = np.isfinite(exact.values)
        assert np.allclose(approx.values[finite], exact.values[finite])

    def test_mean_confluence_never_undershoots(self, social_small):
        """Replica edges are path-sums and merges average real distances,
        so the approximate distance cannot drop below the true one."""
        from repro.core.knobs import CoalescingKnobs

        src = int(np.argmax(social_small.out_degrees()))
        plan = build_plan(
            social_small,
            "coalescing",
            coalescing=CoalescingKnobs(connectedness_threshold=0.3),
        )
        exact = sssp(social_small, src)
        approx = sssp(plan, src)
        finite = np.isfinite(exact.values) & np.isfinite(approx.values)
        assert (approx.values[finite] >= exact.values[finite] - 1e-9).all()
