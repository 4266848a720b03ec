"""Property-based tests for the Graffix transforms and the simulator."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import transform_graph
from repro.core.divergence import normalize_degrees
from repro.core.knobs import CoalescingKnobs, DivergenceKnobs
from repro.core.knobs import SharedMemoryKnobs
from repro.core.renumber import renumber
from repro.core.shmem import _link, _undirected_adjacency, plan_shared_memory
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import _triangle_counts, coefficients_from_counts
from repro.gpusim.device import DeviceConfig
from repro.gpusim.memory import count_transactions

from strategies import adversarial_graphs, random_graphs


class TestRenumberProperties:
    @given(random_graphs(max_nodes=30, max_edges=120), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_bijection_and_alignment(self, g, k):
        ren = renumber(g, k)
        # bijection over original nodes
        assert np.unique(ren.new_id).size == g.num_nodes
        # slot space is chunk aligned and covers all nodes
        assert ren.num_slots % k == 0
        assert ren.num_slots >= g.num_nodes
        # every level block start (except level 0) is k-aligned
        for s in ren.level_starts[1:-1]:
            assert s % k == 0
        # rep_of and new_id are mutually inverse
        occ = ren.rep_of >= 0
        assert occ.sum() == g.num_nodes
        assert np.array_equal(ren.new_id[ren.rep_of[occ]], np.nonzero(occ)[0])

    @given(random_graphs(max_nodes=30, max_edges=120))
    @settings(max_examples=30, deadline=None)
    def test_levels_respect_bfs_forest(self, g):
        ren = renumber(g, 4)
        # any edge can skip at most one level downward
        srcs = g.edge_sources()
        lv = ren.levels
        for e in range(g.num_edges):
            u, v = int(srcs[e]), int(g.indices[e])
            assert lv[v] <= lv[u] + 1


class TestTransformProperties:
    @given(
        random_graphs(max_nodes=30, max_edges=150, weighted=True),
        st.sampled_from([0.2, 0.5, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_coalescing_conserves_logical_graph(self, g, thr):
        gg = transform_graph(g, CoalescingKnobs(connectedness_threshold=thr))
        # node bookkeeping adds up
        assert gg.num_original + gg.num_replicas + gg.num_holes == gg.num_slots
        # edges: originals conserved, only 2-hop additions are new
        assert gg.graph.num_edges == g.num_edges + gg.edges_added
        # lift/lower is the identity on original values
        vals = np.arange(g.num_nodes, dtype=np.float64)
        assert np.array_equal(gg.lower(gg.lift(vals)), vals)

    @given(
        random_graphs(max_nodes=30, max_edges=150, weighted=True),
        st.sampled_from([0.1, 0.4, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_divergence_padding_never_shrinks_degrees(self, g, thr):
        plan = normalize_degrees(
            g, DivergenceKnobs(degree_sim_threshold=thr), DeviceConfig(warp_size=8)
        )
        assert (plan.graph.out_degrees() >= g.out_degrees()).all()
        assert np.array_equal(np.sort(plan.order), np.arange(g.num_nodes))

    @given(random_graphs(max_nodes=25, max_edges=100, weighted=True))
    @settings(max_examples=20, deadline=None)
    def test_divergence_preserves_sssp_values(self, g):
        """Sum-weighted 2-hop edges never alter shortest-path distances."""
        from repro.algorithms.exact import exact_sssp

        plan = normalize_degrees(
            g, DivergenceKnobs(degree_sim_threshold=0.9), DeviceConfig(warp_size=8)
        )
        before = exact_sssp(g, 0)
        after = exact_sssp(plan.graph, 0)
        finite = np.isfinite(before)
        assert np.array_equal(finite, np.isfinite(after))
        assert np.allclose(before[finite], after[finite])


def _recount(graph: CSRGraph) -> np.ndarray:
    """The full, uncached clustering-coefficient recount."""
    return coefficients_from_counts(*_triangle_counts(graph))


def _with_pairs(graph: CSRGraph, pairs) -> CSRGraph:
    """``graph`` plus both arcs of every pair, keeping parallel edges."""
    new = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([graph.edge_sources().astype(np.int64), new[:, 0], new[:, 1]])
    dst = np.concatenate([graph.indices.astype(np.int64), new[:, 1], new[:, 0]])
    w = None
    if graph.is_weighted:
        w = np.concatenate([graph.weights, np.ones(2 * len(new))])
    return CSRGraph.from_edges(graph.num_nodes, src, dst, w, dedup=False)


def _incremental(graph: CSRGraph, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The §3 update: the input's counts plus the triangles ``pairs`` close,
    each pair linked in order."""
    adj = _undirected_adjacency(graph)
    triangles = _triangle_counts(graph)[0].tolist()
    for a, b in pairs:
        _link(adj, triangles, a, b)
    return (
        np.array(triangles, dtype=np.int64),
        np.array([len(s) for s in adj], dtype=np.int64),
    )


def _assert_update_equals_recount(graph: CSRGraph, pairs) -> np.ndarray:
    triangles, degrees = _incremental(graph, pairs)
    out = _with_pairs(graph, pairs)
    want_triangles, want_degrees = _triangle_counts(out)
    assert np.array_equal(triangles, want_triangles)
    assert np.array_equal(degrees, want_degrees)
    got = coefficients_from_counts(triangles, degrees)
    assert got.tobytes() == _recount(out).tobytes()
    return triangles


@st.composite
def graphs_with_new_pairs(draw):
    """An adversarial graph and an ordered set of undirected pairs it lacks.

    Pairs are drawn from a small node pool, so several new edges often
    share a triangle (two or three of its sides new).
    """
    g = draw(adversarial_graphs())
    present = set(zip(g.edge_sources().tolist(), g.indices.tolist()))
    pool = draw(
        st.lists(st.integers(0, g.num_nodes - 1), min_size=0, max_size=6, unique=True)
    )
    candidates = [
        (a, b)
        for i, a in enumerate(pool)
        for b in pool[i + 1 :]
        if (a, b) not in present and (b, a) not in present
    ]
    chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    return g, chosen


class TestIncrementalClustering:
    """The §3 transform updates the coefficients of its output from the
    input's triangle counts; the result must be byte-equal to a recount."""

    @given(graphs_with_new_pairs())
    @settings(max_examples=80, deadline=None)
    def test_update_equals_recount(self, drawn):
        _assert_update_equals_recount(*drawn)

    def test_triangle_closed_by_two_and_three_new_edges(self):
        # 0-1 exists: (1,2) and (0,2) close one triangle with two new sides;
        # 3, 4, 5 are isolated: three new sides close the second
        g = CSRGraph.from_edges(6, np.array([0]), np.array([1]))
        pairs = [(1, 2), (3, 4), (0, 2), (4, 5), (3, 5)]
        triangles = _assert_update_equals_recount(g, pairs)
        assert np.array_equal(triangles, np.ones(6))

    @given(adversarial_graphs(), st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_shmem_plan_coefficients_equal_recount(self, g, thr):
        knobs = SharedMemoryKnobs(
            cc_threshold=thr, boost_band=0.5, edge_budget_fraction=1.0
        )
        plan = plan_shared_memory(g, knobs)
        assert plan.cc.tobytes() == _recount(plan.graph).tobytes()


class TestSimulatorProperties:
    @given(
        st.integers(1, 6).map(lambda w: 2**w),
        st.lists(st.integers(0, 4000), min_size=1, max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_transactions_bounds(self, line_words, addresses):
        addr = np.asarray(addresses, dtype=np.int64)
        warp = np.zeros(addr.size, dtype=np.int64)
        step = np.zeros(addr.size, dtype=np.int64)
        tc = count_transactions(warp, step, addr, line_words)
        unique_words = np.unique(addr).size
        # between 1 and min(accesses, distinct segments needed)
        assert 1 <= tc.transactions <= addr.size
        assert tc.transactions <= unique_words
        assert tc.transactions >= np.unique(addr // line_words).size

    @given(random_graphs(max_nodes=40, max_edges=200))
    @settings(max_examples=25, deadline=None)
    def test_charge_monotone_in_active_set(self, g):
        """Charging a superset of nodes can never cost less."""
        from repro.gpusim.costmodel import charge_sweep
        from repro.gpusim.device import K40C

        half = np.arange(g.num_nodes // 2 + 1, dtype=np.int64)
        full_cost = charge_sweep(g, K40C)
        half_cost = charge_sweep(g, K40C, half)
        assert half_cost.cycles <= full_cost.cycles
        assert half_cost.atomic_ops <= full_cost.atomic_ops

    @given(random_graphs(max_nodes=40, max_edges=200))
    @settings(max_examples=25, deadline=None)
    def test_shared_never_costlier(self, g):
        from repro.gpusim.costmodel import charge_sweep
        from repro.gpusim.device import K40C

        all_global = charge_sweep(g, K40C)
        all_shared = charge_sweep(g, K40C, all_shared=True)
        assert all_shared.cycles <= all_global.cycles
