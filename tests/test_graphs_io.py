"""Unit tests for graph (de)serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph
from repro.graphs.io import (
    dumps,
    load_npz,
    loads,
    read_edge_list,
    save_npz,
    write_edge_list,
)


class TestEdgeList:
    def test_roundtrip_unweighted(self, tiny_graph, tmp_path):
        p = tmp_path / "g.txt"
        write_edge_list(tiny_graph, p)
        g = read_edge_list(p)
        assert g == tiny_graph

    def test_roundtrip_weighted(self, weighted_graph, tmp_path):
        p = tmp_path / "g.txt"
        write_edge_list(weighted_graph, p)
        g = read_edge_list(p)
        assert g == weighted_graph

    def test_roundtrip_keeps_weight_bits(self, tmp_path):
        # == compares weights with allclose; the bits must survive too
        p = tmp_path / "g.txt"
        w = np.array([0.1234567891, 3.0])
        g = CSRGraph.from_edges(2, np.array([0, 1]), np.array([1, 0]), w)
        write_edge_list(g, p)
        assert "1 0 3\n" in p.read_text()  # integral weights stay integers
        assert np.array_equal(read_edge_list(p).weights, g.weights)

    def test_header_nodes_respected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# nodes: 10\n0 1\n")
        assert read_edge_list(p).num_nodes == 10

    def test_nodes_inferred_without_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 7\n")
        assert read_edge_list(p).num_nodes == 8

    def test_explicit_num_nodes_wins(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        assert read_edge_list(p, num_nodes=42).num_nodes == 42

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n\n0 1\n# another\n1 0\n")
        assert read_edge_list(p).num_edges == 2

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

    def test_mixed_weighting_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2.5\n1 0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

    def test_bad_endpoint_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("zero 1\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# nodes: many\n0 1\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("")
        g = read_edge_list(p)
        assert g.num_nodes == 0 and g.num_edges == 0


class TestEdgeListErrorPaths:
    """Malformed inputs must raise GraphFormatError, never IndexError/KeyError."""

    def test_out_of_range_endpoint_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# nodes: 3\n0 1\n2 7\n")
        with pytest.raises(GraphFormatError, match="num_nodes"):
            read_edge_list(p)

    def test_out_of_range_vs_explicit_num_nodes(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 5\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(p, num_nodes=3)

    def test_negative_endpoint_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("-1 2\n")
        with pytest.raises(GraphFormatError, match="non-negative"):
            read_edge_list(p)

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 -2.5\n")
        with pytest.raises(GraphFormatError, match="negative weight"):
            read_edge_list(p)

    def test_non_numeric_weight_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 heavy\n")
        with pytest.raises(GraphFormatError, match="bad weight"):
            read_edge_list(p)

    def test_missing_nodes_header_rejected_when_required(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 0\n")
        with pytest.raises(GraphFormatError, match="nodes"):
            read_edge_list(p, require_nodes_header=True)

    def test_header_satisfies_requirement(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# nodes: 4\n0 1\n")
        assert read_edge_list(p, require_nodes_header=True).num_nodes == 4

    def test_negative_dimacs_weight_rejected(self, tmp_path):
        from repro.graphs.io import read_dimacs

        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\na 1 2 -3\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_dimacs(p)


class TestEdgeListBoundaries:
    """Counts past the int32 node limit and non-finite weights are
    rejected at their line, before anything of their size is allocated."""

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0 100000000000000\n", "n=100000000000001 exceeds"),
            ("0 99999999999999999999\n", "node limit of int32"),
            ("# nodes: 99999999999999999999\n", "node limit of int32"),
            ("# nodes: -3\n", "negative node count"),
            ("0 1 nan\n", "non-finite weight"),
            ("0 1 inf\n", "non-finite weight"),
        ],
        ids=[
            "huge-endpoint",
            "endpoint-past-int64",
            "header-past-int64",
            "negative-header",
            "nan-weight",
            "inf-weight",
        ],
    )
    def test_rejected_with_location(self, tmp_path, text, match):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n" + text)
        with pytest.raises(GraphFormatError, match=match) as info:
            read_edge_list(p)
        assert str(info.value).startswith(f"{p}:2: ")


class TestNpz:
    def test_roundtrip(self, weighted_graph, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(weighted_graph, p)
        assert load_npz(p) == weighted_graph

    def test_roundtrip_unweighted(self, tiny_graph, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(tiny_graph, p)
        g = load_npz(p)
        assert g == tiny_graph
        assert g.weights is None

    def test_not_a_graph_archive(self, tmp_path):
        p = tmp_path / "bogus.npz"
        np.savez(p, foo=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_npz(p)

    def test_in_memory_roundtrip(self, weighted_graph):
        assert loads(dumps(weighted_graph)) == weighted_graph

    def test_truncated_archive_rejected(self, weighted_graph, tmp_path):
        """A crash mid-save leaves a torn file; loading it must be a
        GraphFormatError, not a zipfile traceback."""
        p = tmp_path / "g.npz"
        save_npz(weighted_graph, p)
        blob = p.read_bytes()
        for cut in (1, len(blob) // 2, len(blob) - 4):
            torn = tmp_path / f"torn{cut}.npz"
            torn.write_bytes(blob[:cut])
            with pytest.raises(GraphFormatError):
                load_npz(torn)

    def test_non_archive_bytes_rejected(self, tmp_path):
        p = tmp_path / "noise.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(GraphFormatError):
            load_npz(p)

    def test_truncated_blob_rejected(self, weighted_graph):
        blob = dumps(weighted_graph)
        with pytest.raises(GraphFormatError):
            loads(blob[: len(blob) // 2])


class TestCachingWorkflow:
    def test_transform_cache_roundtrip(self, rmat_small, tmp_path):
        """The amortization story: transform once, cache, reload, reuse."""
        from repro.core.coalesce import transform_graph

        gg = transform_graph(rmat_small)
        p = tmp_path / "transformed.npz"
        save_npz(gg.graph, p)
        reloaded = load_npz(p)
        assert reloaded == gg.graph
