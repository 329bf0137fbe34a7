"""Unit tests for Matrix Market I/O."""

import pytest

from repro.graph.io import read_matrix_market, write_matrix_market
from repro.utils.errors import GraphFormatError


class TestMatrixMarket:
    def test_roundtrip(self, loops_graph, tmp_path):
        path = tmp_path / "g.mtx"
        write_matrix_market(loops_graph, path)
        assert read_matrix_market(path) == loops_graph

    def test_roundtrip_karate(self, karate, tmp_path):
        path = tmp_path / "k.mtx"
        write_matrix_market(karate, path)
        assert read_matrix_market(path) == karate

    def test_pattern_symmetric(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n3 2\n"
        )
        g = read_matrix_market(path)
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_general_with_both_triangles(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 3.5\n2 1 3.5\n"
        )
        g = read_matrix_market(path)
        assert g.edge_weight(0, 1) == 3.5

    def test_general_conflicting_weights(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 1.0\n2 1 2.0\n"
        )
        with pytest.raises(GraphFormatError, match="asymmetric"):
            read_matrix_market(path)
        assert read_matrix_market(path, combine="max").edge_weight(0, 1) == 2.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(GraphFormatError):
            read_matrix_market(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError, match="square"):
            read_matrix_market(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 1.0\n"
        )
        with pytest.raises(GraphFormatError, match="declares 2"):
            read_matrix_market(path)

    def test_comment_lines_between(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n2 2 1\n% another\n2 1 4.0\n"
        )
        assert read_matrix_market(path).edge_weight(0, 1) == 4.0

    def test_diagonal_entries_become_loops(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 2.0\n2 1 1.0\n"
        )
        g = read_matrix_market(path)
        assert g.self_loop_weight(0) == 2.0
