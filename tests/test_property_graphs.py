"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builder import permute
from repro.graphs.csr import CSRGraph
from repro.graphs.io import dumps, loads
from repro.graphs.properties import bfs_levels, ragged_arange
from repro.graphs.validate import edge_set

from strategies import random_graphs


class TestCSRProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_invariants_always_hold(self, g):
        g.check()
        assert g.offsets[-1] == g.num_edges
        assert int(g.out_degrees().sum()) == g.num_edges
        assert int(g.in_degrees().sum()) == g.num_edges

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_reverse_is_involution(self, g):
        assert g.reverse().reverse() == g

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_reverse_preserves_edge_count(self, g):
        assert g.reverse().num_edges == g.num_edges

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_undirected_is_symmetric_superset(self, g):
        from repro.graphs.validate import is_symmetric

        und = g.to_undirected()
        assert is_symmetric(und)
        loops = {(u, v) for u, v in edge_set(g) if u == v}
        assert edge_set(g) - loops <= edge_set(und)

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_from_edges_roundtrip(self, g):
        rebuilt = CSRGraph.from_edges(
            g.num_nodes, g.edge_sources(), g.indices, g.weights,
            sort_neighbors=False,
        )
        assert rebuilt == g

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_io_roundtrip(self, g):
        assert loads(dumps(g)) == g

    @given(random_graphs(), st.integers(0, 1_000_000))
    @settings(max_examples=40, deadline=None)
    def test_permutation_preserves_structure(self, g, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(g.num_nodes)
        pg = permute(g, perm)
        assert pg.num_edges == g.num_edges
        assert sorted(pg.out_degrees().tolist()) == sorted(
            g.out_degrees().tolist()
        )


class TestBfsProperties:
    @given(random_graphs(weighted=False))
    @settings(max_examples=40, deadline=None)
    def test_bfs_levels_are_shortest_hops(self, g):
        lv = bfs_levels(g, 0)
        # triangle property: an edge can shorten a level by at most 1
        srcs = g.edge_sources()
        for e in range(g.num_edges):
            u, v = int(srcs[e]), int(g.indices[e])
            if lv[u] >= 0:
                assert lv[v] != -1
                assert lv[v] <= lv[u] + 1

    @given(random_graphs(weighted=False))
    @settings(max_examples=30, deadline=None)
    def test_bfs_source_level_zero(self, g):
        assert bfs_levels(g, 0)[0] == 0


class TestRaggedArange:
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, counts):
        counts_arr = np.asarray(counts, dtype=np.int64)
        expected = np.concatenate(
            [np.arange(c) for c in counts] or [np.empty(0, dtype=np.int64)]
        )
        got = ragged_arange(counts_arr)
        assert np.array_equal(got, expected)
