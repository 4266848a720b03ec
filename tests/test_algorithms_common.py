"""Unit tests for the shared Runner / fixed-point machinery and source checks."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.algorithms import common
from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.bfs import bfs
from repro.algorithms.common import EdgeView, Runner, check_source, plan_for
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp, sssp_relax
from repro.baselines import gunrock
from repro.core.pipeline import ExecutionPlan, build_plan
from repro.errors import AlgorithmError, SimulationError
from repro.graphs.generators import road_network
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


def _records(step) -> set:
    return set(zip(step.src.tolist(), step.dst.tolist(), step.eid.tolist()))


class TestRunnerAdvance:
    def test_advance_expands_and_charges(self, tiny_graph):
        runner = Runner(plan_for(tiny_graph))
        step = runner.advance(np.array([0]))
        assert step.decision is None and not step.pull
        assert step.dst.tolist() == tiny_graph.neighbors(0).tolist()
        assert (step.src == 0).all()
        assert (tiny_graph.indices[step.eid] == step.dst).all()
        assert runner.metrics.num_sweeps == 1
        assert runner.metrics.cycles > 0

    def test_advance_empty_frontier(self, tiny_graph):
        runner = Runner(plan_for(tiny_graph))
        step = runner.advance(np.empty(0, dtype=np.int64))
        assert step.src.size == step.dst.size == step.eid.size == 0
        assert runner.metrics.cycles == 0

    @pytest.mark.parametrize("bad", [[999], [-1], [0, 20]])
    def test_advance_range_check(self, tiny_graph, bad):
        with pytest.raises(SimulationError, match="out of range"):
            Runner(plan_for(tiny_graph)).advance(np.array(bad))

    def test_advance_dedups_frontier(self, tiny_graph):
        once, twice = Runner(plan_for(tiny_graph)), Runner(plan_for(tiny_graph))
        a = once.advance(np.array([0, 1]))
        b = twice.advance(np.array([1, 0, 1]))
        assert a.eid.tolist() == b.eid.tolist()
        assert once.metrics.cycles == twice.metrics.cycles

    @pytest.mark.parametrize("short_by", [3, -1])
    def test_frontier_mask_length_checked(self, short_by):
        g = road_network(8)
        mask = np.ones(g.num_nodes - short_by, dtype=bool)
        with pytest.raises(SimulationError, match="mask length"):
            Runner(plan_for(g)).advance(mask)

    @pytest.mark.parametrize("short_by", [3, -1])
    def test_candidates_mask_length_checked(self, short_by):
        g = road_network(8)
        mask = np.ones(g.num_nodes - short_by, dtype=bool)
        runner = Runner(plan_for(g)).use_schedule("pull")
        with pytest.raises(SimulationError, match="mask length"):
            runner.advance(np.array([0]), candidates=mask)

    def test_mask_frontier_matches_ids(self, tiny_graph):
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[[2, 4]] = True
        a = Runner(plan_for(tiny_graph)).advance(mask)
        b = Runner(plan_for(tiny_graph)).advance(np.array([2, 4]))
        assert a.eid.tolist() == b.eid.tolist()

    @pytest.mark.parametrize("frontier", [None, [0, 3, 5]])
    def test_push_and_pull_gather_the_same_records(self, rmat_small, frontier):
        ids = None if frontier is None else np.array(frontier)
        push = Runner(plan_for(rmat_small)).use_schedule("push").advance(ids)
        pull = Runner(plan_for(rmat_small)).use_schedule("pull").advance(ids)
        assert not push.pull and pull.pull
        assert _records(push) == _records(pull)
        # push reads CSR edge order, pull reads destination-major order
        assert (np.diff(push.eid) > 0).all()
        assert (np.diff(pull.dst) >= 0).all()

    def test_pull_candidates_gather_their_in_edges(self, rmat_small):
        cands = np.array([1, 2, 7])
        runner = Runner(plan_for(rmat_small)).use_schedule("pull")
        step = runner.advance(np.array([0]), candidates=cands)
        ev = runner.edges
        want = np.nonzero(np.isin(ev.dst, cands))[0]
        assert _records(step) == set(
            zip(ev.src[want].tolist(), ev.dst[want].tolist(), want.tolist())
        )

    @pytest.mark.parametrize("spec", ["pull", "pull:edge"])
    def test_pull_gather_prices_what_advance_charges(self, rmat_small, spec):
        """``pull_gather`` charges nothing itself; charging its keyword
        arguments bills exactly what ``advance(candidates=…)`` bills."""
        cands = np.array([1, 2, 7])
        charged = Runner(plan_for(rmat_small)).use_schedule(spec)
        step = charged.advance(np.array([0]), candidates=cands)
        deferred = Runner(plan_for(rmat_small)).use_schedule(spec)
        logged, charge = deferred.pull_gather(cands, step.decision)
        assert deferred.metrics.num_sweeps == 0
        assert logged.decision is step.decision
        assert _records(logged) == _records(step)
        deferred.ctx.charge(**charge)
        assert deferred.metrics.num_sweeps == charged.metrics.num_sweeps == 1
        assert deferred.metrics.total == charged.metrics.total

    @pytest.mark.parametrize(
        "solve,gathers",
        [
            (lambda g: pagerank(g, schedule="pull"), False),
            (lambda g: sssp(g, 0, schedule="pull"), False),
            (lambda g: bfs(g, 0, schedule="pull"), True),
        ],
        ids=["pagerank", "sssp", "bfs"],
    )
    def test_full_pull_sweeps_call_no_solver_gather(self, monkeypatch, solve, gathers):
        """A full pull sweep charges the reverse view through the
        full-sweep memo, so it never reaches the solver's frontier
        gather; BFS's bottom-up steps gather their candidates."""
        calls = []
        original = common.expand_frontier

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # imported by name, the gather lives on in every importing module
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and (
                getattr(module, "expand_frontier", None) is original
            ):
                monkeypatch.setattr(module, "expand_frontier", counting)
        solve(road_network(8, seed=1))
        assert bool(calls) is gathers

    def test_unscheduled_pushes_and_checks_the_level(self, tiny_graph):
        levels = []

        class Counting(Runner):
            def check_level(self):
                levels.append(1)

        runner = Counting(plan_for(tiny_graph))
        step = runner.advance(None, candidates=np.array([3]))
        assert levels == [1]
        assert step.decision is None
        assert step.eid.tolist() == list(range(tiny_graph.num_edges))


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
