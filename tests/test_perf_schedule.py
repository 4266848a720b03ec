"""The schedule layer's contract: schedules never change values.

Push-pinned, pull-pinned and direction-optimizing runs of every
sweep-based kernel must produce **byte-identical** ``values`` and
identical iteration counts — and a push-pinned schedule must charge the
exact same ``SimMetrics`` as passing no schedule at all.  Pull and
edge-balanced runs charge differently *by design* (that is the point of
the layer), but each charge stream is bit-faithful to its schedule:
forced twice, it reproduces exactly.

Also covered here: the :class:`SweepDecision`/policy unit surface, the
``schedule_for`` spec parser, the :class:`PullEdgeView` ≡
``graph.reverse()`` equivalence, and the edge-balanced cost-model arm.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.bfs import bfs
from repro.algorithms.common import Runner, plan_for
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.errors import AlgorithmError, SimulationError
from repro.graphs.csr import CSRGraph
from repro.gpusim.device import K40C
from repro.gpusim.costmodel import charge_sweep
from repro.perf.edgeshare import EdgeView
from repro.perf.schedule import (
    DIRECTIONS,
    FIXED_PUSH,
    DirectionOptimizing,
    Explicit,
    FixedPush,
    Schedule,
    SweepDecision,
    schedule_for,
)

from strategies import adversarial_graphs

SCHEDULES = ("push", "pull", "direction-optimizing")
KERNELS = {
    "bfs": lambda t, s: bfs(t, 0, schedule=s),
    "sssp": lambda t, s: sssp(t, 0, schedule=s),
    "pagerank": lambda t, s: pagerank(t, schedule=s),
    "bc": lambda t, s: betweenness_centrality(
        t, num_sources=3, seed=1, schedule=s
    ),
}


class TestSweepDecision:
    def test_interned_identity(self):
        a = SweepDecision("push", "vertex")
        b = SweepDecision("push", "vertex")
        assert a is b
        assert a is not SweepDecision("pull", "vertex")

    def test_immutable(self):
        d = SweepDecision("push", "vertex")
        with pytest.raises(AttributeError):
            d.direction = "pull"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"direction": "sideways"},
            {"partition": "diagonal"},
            # frontier forms are not a schedule choice in either slot
            {"direction": "sparse"},
            {"partition": "dense"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SimulationError):
            SweepDecision(**kwargs)


class TestPolicies:
    def test_fixed_push_constant(self):
        d = FixedPush().decide(
            frontier_size=10**6,
            frontier_edges=10**9,
            num_nodes=10,
            num_edges=10,
        )
        assert d is SweepDecision("push", "vertex")

    def test_explicit_pins(self):
        s = Explicit("pull", partition="edge")
        assert s.decision is s.decide(
            frontier_size=1, frontier_edges=1, num_nodes=2, num_edges=2
        )
        assert s.decision is SweepDecision("pull", "edge")

    def test_no_frontier_axis(self):
        """A decision is direction × partition; nothing pins a frontier
        form."""
        assert SweepDecision.__slots__ == ("direction", "partition")
        with pytest.raises(TypeError):
            Explicit("pull", frontier="dense")
        with pytest.raises(TypeError):
            SweepDecision("push", "vertex", "sparse")

    def test_step_decides_on_the_frontier_stats(self, rmat_small):
        """``step`` hands ``decide`` the frontier's size and forward
        out-edge count; ``None`` is the full sweep."""
        g = rmat_small
        seen = []

        class Recording(Schedule):
            def decide(self, **stats):
                seen.append(stats)
                return FIXED_PUSH.decide()

        frontier = np.array([0, 3, 5], dtype=np.int64)
        Recording().step(g, frontier, unexplored_edges=7, prev=None)
        Recording().step(g, None)
        degs = g.out_degrees()
        common = {"num_nodes": g.num_nodes, "num_edges": g.num_edges}
        assert seen == [
            dict(
                common,
                frontier_size=3,
                frontier_edges=int(degs[frontier].sum()),
                unexplored_edges=7,
                prev=None,
            ),
            dict(
                common,
                frontier_size=g.num_nodes,
                frontier_edges=g.num_edges,
                unexplored_edges=None,
                prev=None,
            ),
        ]

    def test_step_takes_the_callers_frontier_edges(self, rmat_small):
        """A count the caller already holds reaches ``decide`` as is:
        ``step`` does not sum the frontier's rows again."""
        seen = []

        class Recording(Schedule):
            def decide(self, **stats):
                seen.append(stats["frontier_edges"])
                return FIXED_PUSH.decide()

        frontier = np.array([0, 3, 5], dtype=np.int64)
        Recording().step(rmat_small, frontier, frontier_edges=123)
        assert seen == [123]

    @pytest.mark.parametrize("kernel", ["bfs", "bc"])
    def test_solvers_hand_step_the_true_frontier_edges(self, rmat_small, kernel):
        """BFS and BC sum each scheduled frontier's out-degrees once and
        hand that sum to ``step``; it must be the frontier's real
        out-edge count on every decision of both BC passes."""
        degs = rmat_small.out_degrees()
        seen = []

        class Checking(DirectionOptimizing):
            def step(self, graph, frontier, *, frontier_edges=None, **kw):
                assert frontier_edges is not None
                seen.append(frontier_edges == int(degs[frontier].sum()))
                return super().step(
                    graph, frontier, frontier_edges=frontier_edges, **kw
                )

        src = int(np.argmax(degs))
        if kernel == "bfs":
            bfs(rmat_small, src, schedule=Checking())
        else:
            betweenness_centrality(rmat_small, sources=[src, 0], schedule=Checking())
        assert seen and all(seen)

    def test_direction_optimizing_hysteresis(self):
        do = DirectionOptimizing(alpha=15.0, beta=18.0)
        n, m = 1800, 20_000
        # small frontier, few edges: push
        d1 = do.decide(
            frontier_size=5, frontier_edges=40, num_nodes=n, num_edges=m,
            unexplored_edges=m, prev=None,
        )
        assert d1.direction == "push"
        # frontier edges exceed remaining/alpha: switch to pull
        d2 = do.decide(
            frontier_size=400, frontier_edges=4000, num_nodes=n, num_edges=m,
            unexplored_edges=12_000, prev=d1,
        )
        assert d2.direction == "pull"
        # hysteresis: stays pull while the frontier is still ≥ n/beta,
        # even though the alpha test alone would say push
        d3 = do.decide(
            frontier_size=200, frontier_edges=300, num_nodes=n, num_edges=m,
            unexplored_edges=8_000, prev=d2,
        )
        assert d3.direction == "pull"
        # frontier below n/beta: back to push
        d4 = do.decide(
            frontier_size=50, frontier_edges=300, num_nodes=n, num_edges=m,
            unexplored_edges=8_000, prev=d3,
        )
        assert d4.direction == "push"

    def test_direction_optimizing_validates(self):
        with pytest.raises(SimulationError):
            DirectionOptimizing(alpha=0)
        with pytest.raises(SimulationError):
            DirectionOptimizing(beta=-1)

    def test_decide_is_pure(self):
        """Same stats + same prev → same interned decision object."""
        do = DirectionOptimizing()
        stats = dict(
            frontier_size=9, frontier_edges=90, num_nodes=100, num_edges=900
        )
        assert do.decide(**stats, prev=None) is do.decide(**stats, prev=None)


class TestScheduleFor:
    def test_passthrough(self):
        assert schedule_for(None) is None
        s = DirectionOptimizing()
        assert schedule_for(s) is s

    def test_push_aliases_share_singleton(self):
        assert schedule_for("push") is FIXED_PUSH
        assert schedule_for("fixed-push") is FIXED_PUSH

    @pytest.mark.parametrize("alias", ["direction-optimizing", "diropt", "do"])
    def test_do_aliases(self, alias):
        assert isinstance(schedule_for(alias), DirectionOptimizing)

    def test_modifiers(self):
        s = schedule_for("pull:edge")
        assert s.decision.direction == "pull"
        assert s.decision.partition == "edge"
        assert schedule_for("push:edge").decision.partition == "edge"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "warp9",
            "push:diagonal",
            "do:dense",
            "pull:sparse",
            "push:dense",
            "pull:dense",
            "push:sparse",
            "diropt:sparse",
            "pull:edge:dense",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SimulationError):
            schedule_for(bad)


class TestPullEdgeView:
    def test_matches_graph_reverse(self, rmat_small):
        pv = EdgeView(rmat_small).pull
        rev = rmat_small.reverse()
        assert pv.rev.offsets.tobytes() == rev.offsets.tobytes()
        assert np.array_equal(
            pv.rev.indices.astype(np.int64), rev.indices.astype(np.int64)
        )

    def test_matches_reverse_on_unsorted_multigraph(self):
        rng = np.random.default_rng(2)
        n = 50
        src = rng.integers(0, n, 400)
        dst = rng.integers(0, n, 400)
        w = rng.random(400)
        g = CSRGraph.from_edges(n, src, dst, w, sort_neighbors=False)
        pv = EdgeView(g).pull
        rev = g.reverse()
        assert pv.rev.offsets.tobytes() == rev.offsets.tobytes()
        assert np.array_equal(
            pv.rev.indices.astype(np.int64), rev.indices.astype(np.int64)
        )

    def test_fwd_eid_roundtrip(self, rmat_small):
        """fwd_eid maps every pull record back to its forward edge."""
        fwd = EdgeView(rmat_small)
        pv = fwd.pull
        assert np.array_equal(fwd.src[pv.fwd_eid], pv.src)
        assert np.array_equal(fwd.dst[pv.fwd_eid], pv.dst)
        assert np.array_equal(np.sort(pv.fwd_eid), np.arange(pv.src.size))

    def test_pull_view_built_once_per_edge_view(self, rmat_small):
        plan = plan_for(rmat_small)
        pv = plan.edges.pull
        assert pv is plan.edges.pull
        assert Runner(plan).edges.pull is pv
        other = CSRGraph.from_edges(3, [0, 1], [1, 2])
        assert plan_for(other).edges.pull is not pv


class TestEdgePartitionCostModel:
    def test_busy_lanes_equal_edges(self, rmat_small):
        g = rmat_small
        vert = charge_sweep(g, K40C, None)
        edge = charge_sweep(g, K40C, None, partition="edge")
        ws = K40C.warp_size
        m = g.num_edges
        assert edge.busy_lane_steps == m
        assert edge.serial_steps == -(-m // ws)
        assert edge.idle_lane_steps == -(-m // ws) * ws - m
        # vertex-balanced pays degree divergence; edge-balanced cannot
        assert edge.serial_steps <= vert.serial_steps

    def test_skewed_graph_edge_balance_wins(self):
        # a star: vertex partitioning serializes the hub's whole degree
        n = 200
        src = np.zeros(n - 1, dtype=np.int64)
        dst = np.arange(1, n, dtype=np.int64)
        g = CSRGraph.from_edges(n, src, dst)
        vert = charge_sweep(g, K40C, None)
        edge = charge_sweep(g, K40C, None, partition="edge")
        assert edge.serial_steps < vert.serial_steps
        assert edge.cycles < vert.cycles

    def test_partition_validated(self, rmat_small):
        with pytest.raises(SimulationError):
            charge_sweep(rmat_small, K40C, None, partition="diagonal")

    def test_deterministic(self, rmat_small):
        a = charge_sweep(rmat_small, K40C, None, partition="edge")
        b = charge_sweep(rmat_small, K40C, None, partition="edge")
        assert a == b


class TestKernelScheduleInvariance:
    """Values and iterations are schedule-invariant on real corpora,
    and push-pinned charges are bit-identical to no schedule."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize(
        "technique", [None, "coalescing", "shmem", "divergence"]
    )
    def test_fixture_corpus(self, rmat_small, kernel, technique):
        target = (
            rmat_small if technique is None else build_plan(rmat_small, technique)
        )
        run = KERNELS[kernel]
        base = run(target, None)
        for spec in SCHEDULES + ("pull:edge", "push:edge"):
            res = run(target, spec)
            assert res.values.dtype == base.values.dtype, (kernel, spec)
            assert res.values.tobytes() == base.values.tobytes(), (kernel, spec)
            assert res.iterations == base.iterations, (kernel, spec)
        pinned = run(target, "push")
        assert pinned.metrics.num_sweeps == base.metrics.num_sweeps
        assert pinned.metrics.total == base.metrics.total

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_road_graph(self, road_small, kernel):
        """High diameter: DO genuinely flips direction mid-traversal."""
        run = KERNELS[kernel]
        base = run(road_small, None)
        for spec in SCHEDULES:
            res = run(road_small, spec)
            assert res.values.tobytes() == base.values.tobytes(), (kernel, spec)

    def test_charges_bit_faithful_per_schedule(self, rmat_small):
        """The same pinned schedule, run twice, charges identically —
        approximation charges are deterministic per schedule."""
        for spec in ("pull", "direction-optimizing", "pull:edge"):
            a = bfs(rmat_small, 0, schedule=spec)
            b = bfs(rmat_small, 0, schedule=spec)
            assert a.metrics.total == b.metrics.total, spec
            assert a.metrics.num_sweeps == b.metrics.num_sweeps, spec

    def test_pull_charges_differ_from_push(self, social_small):
        """Pull must charge the gathered (reverse) adjacency, not the
        push adjacency — on a skewed graph the two differ."""
        push = bfs(social_small, 0, schedule="push")
        pull = bfs(social_small, 0, schedule="pull")
        assert push.values.tobytes() == pull.values.tobytes()
        assert push.metrics.total != pull.metrics.total

    def test_schedule_rejected_where_meaningless(self, rmat_small):
        with pytest.raises(AlgorithmError):
            bfs(rmat_small, 0, topology_driven=True, schedule="pull")
        with pytest.raises(AlgorithmError):
            betweenness_centrality(
                rmat_small, num_sources=1, topology_driven=True, schedule="pull"
            )
        with pytest.raises(AlgorithmError):
            betweenness_centrality(
                rmat_small, num_sources=1, strategy="outer", schedule="pull"
            )


@settings(max_examples=25, deadline=None)
@given(graph=adversarial_graphs())
def test_schedule_invariance_fuzz(graph):
    """Hypothesis sweep over the adversarial corpus: multigraphs, self
    loops, disconnected pieces, zero weights, stars, chains — push,
    pull and direction-optimizing agree byte-for-byte everywhere."""
    base_bfs = bfs(graph, 0)
    base_sssp = sssp(graph, 0)
    base_pr = pagerank(graph)
    for spec in SCHEDULES:
        r = bfs(graph, 0, schedule=spec)
        assert r.values.tobytes() == base_bfs.values.tobytes(), spec
        assert r.iterations == base_bfs.iterations, spec
        r = sssp(graph, 0, schedule=spec)
        assert r.values.tobytes() == base_sssp.values.tobytes(), spec
        assert r.iterations == base_sssp.iterations, spec
        r = pagerank(graph, schedule=spec)
        assert r.values.tobytes() == base_pr.values.tobytes(), spec
        assert r.iterations == base_pr.iterations, spec
    # the no-schedule fast path and the pinned-push path share charges
    assert bfs(graph, 0, schedule="push").metrics.total == base_bfs.metrics.total
    assert sssp(graph, 0, schedule="push").metrics.total == base_sssp.metrics.total


@settings(max_examples=10, deadline=None)
@given(graph=adversarial_graphs())
def test_schedule_invariance_fuzz_with_replicas(graph):
    """Same invariance through a Graffix plan (replica groups, mean
    confluence) — the hard case for pull bit-identity."""
    try:
        plan = build_plan(graph, "coalescing")
    except Exception:
        return  # some degenerate shapes reject planning; not under test
    base = sssp(plan, 0)
    for spec in SCHEDULES:
        r = sssp(plan, 0, schedule=spec)
        assert r.values.tobytes() == base.values.tobytes(), spec
        assert r.iterations == base.iterations, spec
