"""Unit tests for the DIMACS shortest-path format support."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph
from repro.graphs.io import read_dimacs, write_dimacs


class TestDimacs:
    def test_roundtrip(self, weighted_graph, tmp_path):
        p = tmp_path / "g.gr"
        write_dimacs(weighted_graph, p, comment="roundtrip test")
        assert read_dimacs(p) == weighted_graph
        # == compares weights with allclose; the bits must survive too
        w = np.array([0.1234567891, 3.0])
        g = CSRGraph.from_edges(2, np.array([0, 1]), np.array([1, 0]), w)
        write_dimacs(g, p)
        assert "a 2 1 3\n" in p.read_text()  # integral weights stay integers
        assert np.array_equal(read_dimacs(p).weights, g.weights)

    def test_roundtrip_road(self, road_small, tmp_path):
        p = tmp_path / "road.gr"
        write_dimacs(road_small, p)
        g = read_dimacs(p)
        assert g == road_small

    def test_unweighted_writes_ones(self, tiny_graph, tmp_path):
        p = tmp_path / "g.gr"
        write_dimacs(tiny_graph, p)
        g = read_dimacs(p)
        assert g.is_weighted
        assert (g.weights == 1.0).all()

    def test_one_indexed(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 3 1\na 1 3 7\n")
        g = read_dimacs(p)
        assert g.has_edge(0, 2)
        assert g.weights[0] == 7.0

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c USA-road-d.NY style header\np sp 2 1\nc mid comment\na 1 2 3\n")
        assert read_dimacs(p).num_edges == 1

    def test_missing_header(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("a 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p max 3 1\na 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)

    def test_bad_arc(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 3 1\na 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 3 1\na 0 2 5\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)

    def test_unknown_record(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\nx 1 2 3\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)

    def test_malformed_numbers(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p sp 2 1\na one 2 3\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(p)


class TestDimacsHeaderErrors:
    """Malformed headers and arc counts raise GraphFormatError naming the
    offending ``path:line``, never a bare ValueError or a silent load."""

    @pytest.mark.parametrize(
        "text, line, match",
        [
            ("p sp x 2\na 1 2 3\n", 1, "integers"),
            ("p sp -3 0\n", 1, "negative count"),
            ("p sp 2 5\na 1 2 3\n", 1, "declares 5 arcs, file has 1"),
            ("p sp 2 1\np sp 3 1\na 1 2 3\n", 2, "second 'p' line"),
            ("a 1 2 3\np sp 2 1\n", 1, "arc before"),
            ("p sp 2 1\na 1 2 nan\n", 2, "non-finite"),
            ("p sp 2 1\na 1 2 inf\n", 2, "non-finite"),
            ("c header\np sp 2 1\na 1 3 1\n", 3, "exceeds n=2"),
            # rejected at the header, before anything is allocated
            ("p sp 100000000000000 0\n", 1, "node limit of int32"),
            ("p sp 2147483649 0\n", 1, "node limit of int32"),
        ],
        ids=[
            "non-integer-n",
            "negative-n",
            "arc-count-mismatch",
            "second-header",
            "arc-before-header",
            "nan-weight",
            "inf-weight",
            "endpoint-beyond-n",
            "huge-n",
            "n-past-int32-ids",
        ],
    )
    def test_rejected_with_location(self, tmp_path, text, line, match):
        p = tmp_path / "g.gr"
        p.write_text(text)
        with pytest.raises(GraphFormatError, match=match) as info:
            read_dimacs(p)
        assert str(info.value).startswith(f"{p}:{line}: ")
