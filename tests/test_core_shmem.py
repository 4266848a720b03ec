"""Unit tests for the §3 shared-memory / clustering-coefficient transform."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import shmem
from repro.core.knobs import SharedMemoryKnobs
from repro.core.shmem import plan_shared_memory
from repro.errors import TransformError
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import clustering_coefficients
from repro.graphs.validate import assert_valid
from repro.gpusim.device import DeviceConfig
from repro.graphs.generators import PAPER_GRAPH_NAMES, SUITE_SIZES, heavy_tail_social
from repro.tune.search import _candidates


class TestPlanStructure:
    def test_empty_graph_rejected(self):
        with pytest.raises(TransformError):
            plan_shared_memory(CSRGraph.empty(0))

    def test_clusters_are_center_plus_neighbors(self, rmat_small):
        plan = plan_shared_memory(rmat_small, SharedMemoryKnobs(cc_threshold=0.6))
        und = plan.graph.to_undirected()
        for members in plan.clusters:
            # at least one member's 1-hop ball covers the whole cluster
            covered = any(
                set(members.tolist())
                <= set(und.neighbors(int(v)).tolist()) | {int(v)}
                for v in members
            )
            assert covered

    def test_resident_mask_is_cluster_union(self, rmat_small):
        plan = plan_shared_memory(rmat_small, SharedMemoryKnobs(cc_threshold=0.6))
        expected = np.zeros(rmat_small.num_nodes, dtype=bool)
        for members in plan.clusters:
            expected[members] = True
        assert np.array_equal(plan.resident_mask, expected)

    def test_cluster_graph_edges_internal(self, rmat_small):
        plan = plan_shared_memory(rmat_small, SharedMemoryKnobs(cc_threshold=0.6))
        srcs = plan.cluster_graph.edge_sources()
        assert plan.resident_mask[srcs].all()
        assert plan.resident_mask[plan.cluster_graph.indices].all()

    def test_capacity_respected(self, rmat_small):
        device = DeviceConfig(shared_mem_words=8)
        plan = plan_shared_memory(
            rmat_small, SharedMemoryKnobs(cc_threshold=0.5), device
        )
        for members in plan.clusters:
            assert members.size <= 8

    def test_local_iterations_follow_factor(self, rmat_small):
        p1 = plan_shared_memory(rmat_small, SharedMemoryKnobs(iterations_factor=1.0))
        p3 = plan_shared_memory(rmat_small, SharedMemoryKnobs(iterations_factor=3.0))
        assert p3.local_iterations > p1.local_iterations
        assert p1.local_iterations >= 1

    def test_output_graph_valid(self, all_structures):
        for g in all_structures.values():
            plan = plan_shared_memory(g, SharedMemoryKnobs(cc_threshold=0.5))
            assert_valid(plan.graph, allow_duplicates=True)


class TestEdgeAddition:
    def test_budget_respected(self, social_small):
        knobs = SharedMemoryKnobs(cc_threshold=0.5, edge_budget_fraction=0.01)
        plan = plan_shared_memory(social_small, knobs)
        assert plan.edges_added <= int(0.01 * social_small.num_edges)

    def test_zero_budget_adds_nothing(self, social_small):
        knobs = SharedMemoryKnobs(cc_threshold=0.5, edge_budget_fraction=0.0)
        plan = plan_shared_memory(social_small, knobs)
        assert plan.edges_added == 0
        assert plan.graph.num_edges == social_small.num_edges

    def test_added_edges_are_symmetric_pairs(self, rmat_small):
        knobs = SharedMemoryKnobs(cc_threshold=0.6, edge_budget_fraction=0.05)
        plan = plan_shared_memory(rmat_small, knobs)
        if plan.edges_added == 0:
            pytest.skip("no edges added")
        # the count tracks logical (undirected) additions; the graph gains
        # two directed arcs per addition, minus dedup collisions
        assert plan.graph.num_edges > rmat_small.num_edges

    def test_boosting_raises_cc(self):
        """A near-threshold node with common-neighbor sibling pairs gets
        boosted over the bar."""
        # wheel-ish graph: center 0, ring of 5 partially connected
        src = [0, 0, 0, 0, 0, 1, 2, 3, 4]
        dst = [1, 2, 3, 4, 5, 2, 3, 4, 5]
        g = CSRGraph.from_edges(
            6,
            np.array(src + dst),
            np.array(dst + src),
        )
        before = clustering_coefficients(g)[0]
        knobs = SharedMemoryKnobs(
            cc_threshold=min(0.9, before + 0.1),
            boost_band=0.5,
            edge_budget_fraction=1.0,
        )
        plan = plan_shared_memory(g, knobs)
        assert plan.cc[0] >= before

    def test_high_threshold_fewer_clusters(self, rmat_small):
        lo = plan_shared_memory(rmat_small, SharedMemoryKnobs(cc_threshold=0.5))
        hi = plan_shared_memory(rmat_small, SharedMemoryKnobs(cc_threshold=0.95))
        assert len(hi.clusters) <= len(lo.clusters)


def _plan_and_link_order(monkeypatch, graph, knobs):
    """The plan, and its new undirected pairs in the order they were linked.

    The rebuild hands ``CSRGraph.from_edges`` the input's arcs followed
    by both arcs of each new pair in link order; a spy on the module's
    ``CSRGraph`` reads that order off the call.  The last call builds the
    cluster graph, so a rebuild is any call before it.
    """
    calls = []

    def from_edges(*args, **kwargs):
        calls.append((args, kwargs))
        return CSRGraph.from_edges(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(shmem, "CSRGraph", SimpleNamespace(from_edges=from_edges))
        plan = plan_shared_memory(graph, knobs)
    rebuilds = [args for args, _ in calls[:-1]]
    if not rebuilds:
        return plan, []
    (_, src, dst, _), = rebuilds
    m = graph.num_edges
    return plan, list(zip(src[m::2].tolist(), dst[m::2].tolist()))


def _hop_oracle(graph: CSRGraph):
    """The weight of a hop ``x - y`` from a dict of each arc's minimum:
    the lightest ``x -> y`` arc, else the lightest ``y -> x`` one, else 1."""
    lightest: dict[tuple[int, int], float] = {}
    arcs = zip(graph.edge_sources().tolist(), graph.indices.tolist(), graph.weights)
    for x, y, w in arcs:
        lightest[x, y] = min(float(w), lightest.get((x, y), math.inf))

    def hop(x: int, y: int) -> float:
        return lightest.get((x, y), lightest.get((y, x), 1.0))

    return hop


def _mean_rule_oracle(graph: CSRGraph, pairs) -> dict[tuple[int, int], float]:
    """The §3 weight of each new pair, replayed in link order with dicts.

    A pair ``a - b`` linked via ``mid`` (the smallest common neighbour at
    that moment) weighs the mean of its two hops; a hop weighs as the
    lightest ``x -> y`` input arc, else the lightest ``y -> x`` one, else 1.
    """
    hop = _hop_oracle(graph)
    adj: dict[int, set[int]] = {v: set() for v in range(graph.num_nodes)}
    for x, y in zip(graph.edge_sources().tolist(), graph.indices.tolist()):
        if x != y:
            adj[x].add(y)
            adj[y].add(x)

    weights = {}
    for a, b in pairs:
        mid = min(adj[a] & adj[b])
        weights[a, b] = weights[b, a] = (hop(a, mid) + hop(mid, b)) / 2.0
        adj[a].add(b)
        adj[b].add(a)
    return weights


def _added_arc_weights(graph: CSRGraph, out: CSRGraph) -> dict[tuple[int, int], float]:
    """Weight per arc of ``out`` whose endpoints ``graph`` does not link."""
    present = set(zip(graph.edge_sources().tolist(), graph.indices.tolist()))
    arcs = zip(out.edge_sources().tolist(), out.indices.tolist(), out.weights.tolist())
    return {(x, y): w for x, y, w in arcs if (x, y) not in present}


class TestWeightedEdges:
    def test_new_edge_weights_are_hop_means(self, suite_tiny):
        g = suite_tiny["rmat"]
        knobs = SharedMemoryKnobs(cc_threshold=0.6, edge_budget_fraction=0.05)
        plan = plan_shared_memory(g, knobs)
        if plan.edges_added == 0:
            pytest.skip("no edges added")
        assert plan.graph.is_weighted
        # new weights are means of two original weights: within range
        assert plan.graph.weights.min() >= g.weights.min()
        assert plan.graph.weights.max() <= g.weights.max()

    def _check(self, monkeypatch, graph, knobs):
        # every added arc weighs exactly what the §3 mean rule gives
        plan, pairs = _plan_and_link_order(monkeypatch, graph, knobs)
        want = _mean_rule_oracle(graph, pairs)
        assert _added_arc_weights(graph, plan.graph) == want
        return plan, want

    def test_added_weights_follow_mean_rule_on_hand_built_hops(self, monkeypatch):
        # centre 9 with neighbours 1, 2, 3 and the sibling edge 1-2.
        # (1, 3) is linked via 9: hop 1->9 has parallel arcs 5 and 3 (and
        # a reverse arc 4), hop 9->3 exists only as 3->9.  (2, 3) is then
        # linked via 1: hop 2->1 exists only as 1->2, and hop 1->3 runs
        # over the edge just linked, which no input arc holds.
        src = [1, 1, 9, 3, 9, 1]
        dst = [9, 9, 1, 9, 2, 2]
        w = [5.0, 3.0, 4.0, 6.0, 8.0, 2.0]
        g = CSRGraph.from_edges(10, np.array(src), np.array(dst), np.array(w))
        knobs = SharedMemoryKnobs(
            cc_threshold=0.9, boost_band=1.0, edge_budget_fraction=1.0
        )
        plan, want = self._check(monkeypatch, g, knobs)
        assert want == {
            (1, 3): (3.0 + 6.0) / 2, (3, 1): (3.0 + 6.0) / 2,
            (2, 3): (2.0 + 1.0) / 2, (3, 2): (2.0 + 1.0) / 2,
        }
        # the input's own parallel arcs survive the rebuild, and each
        # linked pair adds exactly its two arcs
        assert plan.edges_added == 4
        assert plan.graph.num_edges == g.num_edges + 4
        arcs = zip(
            plan.graph.edge_sources().tolist(),
            plan.graph.indices.tolist(),
            plan.graph.weights.tolist(),
        )
        assert sorted(w for x, y, w in arcs if (x, y) == (1, 9)) == [3.0, 5.0]

    @pytest.mark.parametrize("name", PAPER_GRAPH_NAMES)
    def test_added_weights_follow_mean_rule_on_tiny_suite(
        self, monkeypatch, suite_tiny, name
    ):
        g = suite_tiny[name]
        assert g.is_weighted
        self._check(monkeypatch, g, SharedMemoryKnobs())
        for thr in _candidates(g, "shmem"):
            self._check(monkeypatch, g, SharedMemoryKnobs(cc_threshold=thr))


@st.composite
def _hop_cases(draw):
    """A small weighted multigraph, stored sorted or not, and hops over it.

    Few nodes and few distinct weights make parallel arcs (tied and not),
    self-loops, hops with no arc either way and edgeless graphs common.
    """
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 40))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ids), draw(ids)
    w = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25]), min_size=m, max_size=m))
    graph = CSRGraph.from_edges(
        n,
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
        np.array(w, dtype=np.float64),
        sort_neighbors=draw(st.booleans()),
    )
    h = draw(st.integers(1, 20))
    hops = st.lists(st.integers(0, n - 1), min_size=h, max_size=h)
    x, y = np.array(draw(hops), dtype=np.int64), np.array(draw(hops), dtype=np.int64)
    return graph, x, y


class TestHopWeights:
    """``_hop_weights`` against a dict of each arc's minimum weight."""

    @staticmethod
    def _oracle(graph: CSRGraph, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        hop = _hop_oracle(graph)
        return np.array([hop(a, b) for a, b in zip(x.tolist(), y.tolist())])

    @settings(max_examples=200, deadline=None)
    @given(_hop_cases())
    def test_matches_lightest_arc_oracle(self, case):
        graph, x, y = case
        assert np.array_equal(shmem._hop_weights(graph, x, y), self._oracle(graph, x, y))

    def test_hand_built_hops(self):
        # parallel 0->1 arcs (4.0, 2.5) and a lighter reverse 1->0 (1.0);
        # a self-loop on 2; 3 has no arc; 4->2 exists only backwards.
        # Rows are left unsorted so the lookup cannot lean on their order.
        src = np.array([0, 1, 0, 2, 4, 2], dtype=np.int64)
        dst = np.array([1, 0, 1, 2, 2, 2], dtype=np.int64)
        w = np.array([4.0, 1.0, 2.5, 6.0, 7.5, 3.0])
        g = CSRGraph.from_edges(5, src, dst, w, sort_neighbors=False)
        x = np.array([0, 1, 2, 3, 2, 4], dtype=np.int64)
        y = np.array([1, 0, 2, 0, 4, 2], dtype=np.int64)
        got = shmem._hop_weights(g, x, y)
        assert got.tolist() == [2.5, 1.0, 3.0, 1.0, 7.5, 7.5]

    def test_edgeless_graph_weighs_every_hop_one(self):
        g = CSRGraph.from_edges(
            4, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        )
        x = np.array([0, 3, 1], dtype=np.int64)
        y = np.array([3, 3, 2], dtype=np.int64)
        assert shmem._hop_weights(g, x, y).tolist() == [1.0, 1.0, 1.0]


def test_medium_twitter_build_peak_memory():
    """The default shmem build of the medium twitter graph (the largest
    transient in the program while hop weights came from expanding whole
    rows: 380-400 MB) stays under 100 MB of traced Python allocations."""
    size = SUITE_SIZES["medium"]["tw_n"]
    graph = heavy_tail_social(size, seed=7 + 4)  # paper_suite("medium")["twitter"]
    tracemalloc.start()
    try:
        plan = plan_shared_memory(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.edges_added > 0
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"
