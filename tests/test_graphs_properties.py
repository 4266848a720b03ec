"""Unit tests for graph analytics (CC, BFS levels, diameter, stats)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlgorithmError
from repro.graphs.builder import to_networkx
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import (
    bfs_forest_levels,
    bfs_levels,
    clustering_coefficients,
    degree_histogram,
    estimate_diameter,
    gini_of_degrees,
    graph_stats,
    triangle_counts,
)


@st.composite
def multigraphs(draw):
    """Arc lists as loaders see them before any dedup: self-loops,
    parallel arcs in both directions, isolated nodes, plus an optional
    clique and star so dense corners and hubs occur often."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=80))
    if arcs:
        back = draw(st.lists(st.sampled_from(arcs), max_size=20))
        arcs += [(v, u) for u, v in back]
    clique = draw(st.lists(node, max_size=8, unique=True))
    arcs += [(u, v) for u in clique for v in clique if u < v]
    hub = draw(node)
    arcs += [(hub, v) for v in draw(st.lists(node, max_size=12))]
    src = np.array([u for u, _ in arcs], dtype=np.int64)
    dst = np.array([v for _, v in arcs], dtype=np.int64)
    return CSRGraph.from_edges(n, src, dst)


class TestTriangleCountsOracle:
    @given(g=multigraphs())
    def test_matches_networkx_triangles(self, g):
        und = nx.Graph()
        und.add_nodes_from(range(g.num_nodes))
        und.add_edges_from(zip(g.edge_sources().tolist(), g.indices.tolist()))
        triangles, degrees = triangle_counts(g)
        theirs = nx.triangles(und)
        assert triangles.dtype == degrees.dtype == np.int64
        assert triangles.tolist() == [theirs[v] for v in range(g.num_nodes)]
        assert degrees.tolist() == [
            len(set(und[v]) - {v}) for v in range(g.num_nodes)
        ]

    def test_clique_and_star(self):
        k5 = [(u, v) for u in range(5) for v in range(5) if u != v]
        spokes = [(5, v) for v in range(6, 10)]
        src, dst = zip(*(k5 + spokes))
        triangles, degrees = triangle_counts(CSRGraph.from_edges(11, src, dst))
        assert triangles.tolist() == [6] * 5 + [0] * 6
        assert degrees.tolist() == [4] * 5 + [4, 1, 1, 1, 1, 0]


class TestClusteringCoefficients:
    def test_triangle(self):
        g = CSRGraph.from_edges(3, [0, 1, 2], [1, 2, 0])
        cc = clustering_coefficients(g)
        assert np.allclose(cc, 1.0)

    def test_star_has_zero_clustering(self):
        g = CSRGraph.from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])
        cc = clustering_coefficients(g)
        assert np.allclose(cc, 0.0)

    def test_matches_networkx(self, rmat_small):
        ours = clustering_coefficients(rmat_small)
        und = nx.Graph()
        und.add_nodes_from(range(rmat_small.num_nodes))
        for u, v, _ in rmat_small.iter_edges():
            if u != v:
                und.add_edge(u, v)
        theirs = nx.clustering(und)
        ref = np.array([theirs[v] for v in range(rmat_small.num_nodes)])
        assert np.allclose(ours, ref, atol=1e-9)

    def test_degree_one_nodes_zero(self):
        g = CSRGraph.from_edges(3, [0], [1])
        assert np.allclose(clustering_coefficients(g), 0.0)


class TestBfsLevels:
    def test_path_graph(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3])
        assert list(bfs_levels(g, 0)) == [0, 1, 2, 3]

    def test_unreachable_marked(self):
        g = CSRGraph.from_edges(4, [0], [1])
        lv = bfs_levels(g, 0)
        assert lv[0] == 0 and lv[1] == 1
        assert lv[2] == -1 and lv[3] == -1

    def test_follows_direction(self):
        g = CSRGraph.from_edges(3, [1, 2], [0, 1])
        lv = bfs_levels(g, 0)
        assert lv[1] == -1  # edges point toward 0, not away

    def test_matches_networkx(self, er_small):
        lv = bfs_levels(er_small, 0)
        ref = nx.single_source_shortest_path_length(to_networkx(er_small), 0)
        for v in range(er_small.num_nodes):
            if v in ref:
                assert lv[v] == ref[v]
            else:
                assert lv[v] == -1

    def test_bad_source(self, tiny_graph):
        with pytest.raises(AlgorithmError):
            bfs_levels(tiny_graph, 99)


class TestBfsForestLevels:
    def test_paper_style_forest(self, tiny_graph):
        """§2.2 semantics on the Figure-1-style fixture: the four roots sit
        at level 0 (picked in decreasing out-degree), later traversals
        lower reachable nodes, and only 2-hop-deep nodes stay at level 2."""
        levels, roots = bfs_forest_levels(tiny_graph)
        level0 = set(np.nonzero(levels == 0)[0].tolist())
        assert level0 == {0, 1, 2, 3}
        assert set(np.unique(levels).tolist()) <= {0, 1, 2}
        assert roots[0] == 0  # highest out-degree starts

    def test_level_lowering_across_traversals(self):
        """A node first seen deep in one BFS is lowered when a later root
        reaches it directly (the paper's example lowers nodes 15 and 17)."""
        # root 0 (deg 3) reaches d at depth 2; root 1 (deg 2) reaches d at 1
        g = CSRGraph.from_edges(
            6, [0, 0, 0, 4, 1, 1], [2, 3, 4, 5, 5, 2]
        )
        levels, roots = bfs_forest_levels(g)
        assert levels[5] == 1  # lowered by the BFS from node 1

    def test_every_node_assigned(self, rmat_small):
        levels, _ = bfs_forest_levels(rmat_small)
        assert (levels >= 0).all()
        assert levels.max() < rmat_small.num_nodes

    def test_level_invariant(self, er_small):
        """Every non-root node has an in-neighbor exactly one level up."""
        levels, roots = bfs_forest_levels(er_small)
        srcs = er_small.edge_sources()
        dsts = er_small.indices
        root_set = set(roots.tolist())
        has_parent = np.zeros(er_small.num_nodes, dtype=bool)
        parent_ok = levels[srcs] == levels[dsts] - 1
        has_parent[dsts[parent_ok]] = True
        for v in range(er_small.num_nodes):
            if levels[v] > 0:
                assert has_parent[v], f"node {v} at level {levels[v]} orphaned"

    def test_isolated_nodes_are_roots(self):
        g = CSRGraph.from_edges(4, [0], [1])
        levels, roots = bfs_forest_levels(g)
        assert levels[2] == 0 and levels[3] == 0
        # regression: isolated nodes must not just get level 0, they must
        # be *listed as roots* — renumbering numbers the level-0 block and
        # assumes roots == level-0 nodes
        assert {2, 3} <= set(roots.tolist())

    def test_roots_are_exactly_level0(self, all_structures):
        """The documented invariant renumbering relies on: the roots list
        and the set of level-0 nodes coincide, with no duplicates."""
        for name, g in all_structures.items():
            levels, roots = bfs_forest_levels(g)
            level0 = set(np.nonzero(levels == 0)[0].tolist())
            assert len(set(roots.tolist())) == roots.size, name
            assert set(roots.tolist()) == level0, name

    def test_many_isolated_nodes(self):
        """A mostly-isolated graph: every isolated node is its own root."""
        g = CSRGraph.from_edges(10, [0, 1], [1, 2])
        levels, roots = bfs_forest_levels(g)
        assert set(roots.tolist()) == {0} | set(range(3, 10))
        assert set(np.nonzero(levels == 0)[0].tolist()) == set(roots.tolist())


class TestDiameterAndStats:
    def test_path_diameter(self):
        g = CSRGraph.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
        assert estimate_diameter(g, num_probes=4) == 5

    def test_diameter_lower_bound(self, road_small):
        est = estimate_diameter(road_small, num_probes=2, seed=1)
        better = estimate_diameter(road_small, num_probes=6, seed=1)
        assert better >= est >= 1

    def test_degree_histogram(self):
        g = CSRGraph.from_edges(3, [0, 0], [1, 2])
        hist = degree_histogram(g)
        assert hist[0] == 2 and hist[2] == 1

    def test_gini_bounds(self, all_structures):
        for g in all_structures.values():
            assert 0.0 <= gini_of_degrees(g) <= 1.0

    def test_gini_uniform_is_zero(self):
        g = CSRGraph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
        assert gini_of_degrees(g) == pytest.approx(0.0)

    def test_graph_stats_fields(self, rmat_small):
        st = graph_stats(rmat_small)
        assert st.num_nodes == rmat_small.num_nodes
        assert st.num_edges == rmat_small.num_edges
        assert st.max_degree == int(rmat_small.out_degrees().max())
        assert st.mean_degree == pytest.approx(
            rmat_small.num_edges / rmat_small.num_nodes
        )
        assert st.diameter_estimate >= 1
