"""Unit tests for the shared Runner / fixed-point machinery and source checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.bfs import bfs
from repro.algorithms.common import EdgeView, Runner, check_source, plan_for
from repro.algorithms.sssp import sssp, sssp_relax
from repro.baselines import gunrock, operators
from repro.core.pipeline import ExecutionPlan, build_plan
from repro.errors import AlgorithmError
from repro.graphs.properties import bfs_levels
from repro.related.landmarks import build_landmark_index


class TestPlanFor:
    def test_wraps_graph(self, tiny_graph):
        plan = plan_for(tiny_graph)
        assert isinstance(plan, ExecutionPlan)
        assert plan.technique == "exact"
        assert plan.graph is tiny_graph

    def test_passthrough_plan(self, coalesced_plan):
        assert plan_for(coalesced_plan) is coalesced_plan


class TestCheckSource:
    @pytest.mark.parametrize("source", [0, 7, np.int32(3), np.int64(7)])
    def test_accepts_integers(self, source):
        got = check_source(source, 8)
        assert type(got) is int and got == int(source)

    @pytest.mark.parametrize(
        "source", [True, False, np.bool_(True), 1.5, 2.0, np.float64(1.0), "2", None]
    )
    def test_rejects_non_integers(self, source):
        with pytest.raises(AlgorithmError, match="not an integer node id"):
            check_source(source, 8)

    @pytest.mark.parametrize("source", [-1, 8, np.int64(99)])
    def test_rejects_out_of_range(self, source):
        with pytest.raises(AlgorithmError, match="out of range"):
            check_source(source, 8)


#: every entry point that takes a source node id
_SOURCE_ENTRY_POINTS = {
    "sssp": sssp,
    "bfs": bfs,
    "gunrock.sssp_frontier": gunrock.sssp_frontier,
    "operators.bfs_operators": operators.bfs_operators,
    "operators.sssp_operators": operators.sssp_operators,
    "graphs.bfs_levels": bfs_levels,
    "bc": lambda g, s: betweenness_centrality(g, sources=[s]),
    "landmarks.estimate_from": lambda g, s: build_landmark_index(
        g, 2
    ).estimate_from(s),
}


@pytest.mark.parametrize("entry", sorted(_SOURCE_ENTRY_POINTS))
@pytest.mark.parametrize("source", [True, 1.5, "2", -1, 8])
def test_entry_points_reject_bad_sources(weighted_graph, entry, source):
    """Left to numpy, a bool indexes as a mask (every node a source),
    a float or string fails with an untyped error, and an explicit BC
    source list casts to the wrong int; each entry point must raise
    AlgorithmError."""
    with pytest.raises(AlgorithmError):
        _SOURCE_ENTRY_POINTS[entry](weighted_graph, source)


class TestEdgeView:
    def test_arrays_parallel(self, weighted_graph):
        ev = EdgeView(weighted_graph)
        assert ev.src.size == ev.dst.size == ev.weights.size
        assert ev.out_deg.size == weighted_graph.num_nodes

    def test_unweighted_defaults_one(self, tiny_graph):
        assert (EdgeView(tiny_graph).weights == 1.0).all()


class TestRunnerSweeps:
    def test_sweep_charges_and_relaxes(self, weighted_graph):
        runner = Runner(plan_for(weighted_graph))
        dist = np.full(weighted_graph.num_nodes, np.inf)
        dist[0] = 0.0
        changed = runner.sweep(dist, sssp_relax)
        assert changed
        assert runner.metrics.num_sweeps == 1
        assert np.isfinite(dist[1])

    def test_fixed_point_terminates_exact(self, weighted_graph):
        runner = Runner(plan_for(weighted_graph))
        dist = np.full(weighted_graph.num_nodes, np.inf)
        dist[0] = 0.0
        iters = runner.fixed_point(dist, sssp_relax)
        from repro.algorithms.exact import exact_sssp

        ref = exact_sssp(weighted_graph, 0)
        finite = np.isfinite(ref)
        assert np.allclose(dist[finite], ref[finite])
        assert iters <= weighted_graph.num_nodes + 1

    def test_fixed_point_max_iterations(self, weighted_graph):
        runner = Runner(plan_for(weighted_graph))
        dist = np.full(weighted_graph.num_nodes, np.inf)
        dist[0] = 0.0
        assert runner.fixed_point(dist, sssp_relax, max_iterations=2) == 2

    def test_fixed_point_validation(self, weighted_graph):
        runner = Runner(plan_for(weighted_graph))
        with pytest.raises(AlgorithmError):
            runner.fixed_point(np.zeros(8), sssp_relax, max_iterations=0)

    def test_fixed_point_terminates_with_replicas(self, social_small):
        """The monotone-envelope criterion must stop despite merge churn."""
        from repro.core.knobs import CoalescingKnobs

        plan = build_plan(
            social_small,
            "coalescing",
            coalescing=CoalescingKnobs(connectedness_threshold=0.2),
        )
        if not plan.has_replicas:
            pytest.skip("no replicas")
        runner = Runner(plan)
        src = int(np.argmax(social_small.out_degrees()))
        init = np.full(plan.num_original, np.inf)
        init[src] = 0.0
        dist = plan.lift(init, fill=np.inf)
        iters = runner.fixed_point(dist, sssp_relax)
        assert iters < 4 * social_small.num_nodes

    def test_confluence_noop_without_replicas(self, tiny_graph):
        runner = Runner(plan_for(tiny_graph))
        vals = np.arange(tiny_graph.num_nodes, dtype=np.float64)
        before = vals.copy()
        runner.confluence(vals)
        assert np.array_equal(vals, before)

    def test_cluster_rounds_noop_without_clusters(self, tiny_graph):
        runner = Runner(plan_for(tiny_graph))
        vals = np.zeros(tiny_graph.num_nodes)
        assert runner.cluster_rounds(vals, sssp_relax) is False
        assert runner.metrics.num_sweeps == 0

    def test_cluster_rounds_charge_shared(self, rmat_small):
        plan = build_plan(rmat_small, "shmem")
        if not plan.has_clusters:
            pytest.skip("no clusters")
        runner = Runner(plan)
        dist = np.full(rmat_small.num_nodes, np.inf)
        dist[int(np.argmax(rmat_small.out_degrees()))] = 0.0
        runner.cluster_rounds(dist, sssp_relax)
        assert runner.metrics.total.attr_shared_transactions > 0
        assert runner.metrics.total.attr_global_transactions == 0

    def test_cluster_rounds_stop_when_stable(self, rmat_small):
        plan = build_plan(rmat_small, "shmem")
        if not plan.has_clusters:
            pytest.skip("no clusters")
        runner = Runner(plan)
        # already-converged values: the first local round changes nothing,
        # so the loop must break early rather than burn all t rounds
        from repro.algorithms.exact import exact_sssp

        ref = exact_sssp(plan.graph, 0)
        vals = np.where(np.isfinite(ref), ref, np.inf)
        runner.cluster_rounds(vals, sssp_relax)
        assert runner.metrics.num_sweeps <= plan.local_iterations
