"""Unit tests for the graph conversion utilities and ``permute``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.builder import (
    from_networkx,
    from_scipy,
    permute,
    to_networkx,
    to_scipy,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.validate import edge_set


class TestScipyConversion:
    def test_roundtrip(self, weighted_graph):
        mat = to_scipy(weighted_graph)
        g = from_scipy(mat)
        assert edge_set(g) == edge_set(weighted_graph)
        assert np.allclose(
            sorted(g.weights.tolist()), sorted(weighted_graph.weights.tolist())
        )

    def test_unweighted_conversion(self, tiny_graph):
        g = from_scipy(to_scipy(tiny_graph), weighted=False)
        assert not g.is_weighted
        assert edge_set(g) == edge_set(tiny_graph)

    def test_non_square_rejected(self):
        import scipy.sparse as sp

        with pytest.raises(GraphFormatError):
            from_scipy(sp.csr_matrix((2, 3)))


class TestNetworkxConversion:
    def test_roundtrip_digraph(self, weighted_graph):
        nxg = to_networkx(weighted_graph)
        g = from_networkx(nxg, weighted=True)
        assert edge_set(g) == edge_set(weighted_graph)

    def test_undirected_symmetrized(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(3))
        nxg.add_edge(0, 1)
        g = from_networkx(nxg)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_bad_labels_rejected(self):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_edge("a", "b")
        with pytest.raises(GraphFormatError):
            from_networkx(nxg)


class TestPermute:
    def test_identity(self, weighted_graph):
        g = permute(weighted_graph, np.arange(weighted_graph.num_nodes))
        assert g == weighted_graph

    def test_relabels_edges(self, tiny_graph):
        n = tiny_graph.num_nodes
        rng = np.random.default_rng(0)
        perm = rng.permutation(n)
        g = permute(tiny_graph, perm)
        expected = {(int(perm[u]), int(perm[v])) for u, v in edge_set(tiny_graph)}
        assert edge_set(g) == expected

    def test_preserves_weights(self, weighted_graph):
        perm = np.roll(np.arange(weighted_graph.num_nodes), 1)
        g = permute(weighted_graph, perm)
        assert sorted(g.weights.tolist()) == sorted(weighted_graph.weights.tolist())

    def test_non_permutation_rejected(self, tiny_graph):
        bad = np.zeros(tiny_graph.num_nodes, dtype=np.int64)
        with pytest.raises(GraphFormatError):
            permute(tiny_graph, bad)

    def test_wrong_length_rejected(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            permute(tiny_graph, np.arange(3))

    def test_out_of_range_id_rejected(self, tiny_graph):
        bad = np.arange(tiny_graph.num_nodes)
        bad[-1] = tiny_graph.num_nodes
        with pytest.raises(GraphFormatError):
            permute(tiny_graph, bad)

    def test_negative_id_rejected_on_isolated_node(self):
        # -1 would index the last slot and pass a pure coverage check;
        # node 2 has no edges, so no endpoint check downstream catches it
        g = CSRGraph.from_edges(3, [0], [1])
        with pytest.raises(GraphFormatError):
            permute(g, [0, 1, -1])
