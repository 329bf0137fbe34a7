"""Unit tests for graph file formats."""

import gzip
import warnings
import zipfile

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.io import (
    detect_format,
    load_csrz,
    read_edge_list,
    read_matrix_market,
    read_graph,
    read_metis,
    save_csrz,
    write_edge_list,
    write_metis,
)
from repro.utils.errors import GraphFormatError


class TestEdgeList:
    def test_roundtrip_weighted(self, loops_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(loops_graph, path)
        g2 = read_edge_list(path)
        assert g2 == loops_graph

    def test_roundtrip_unweighted(self, karate, tmp_path):
        path = tmp_path / "k.txt"
        write_edge_list(karate, path, write_weights=False)
        assert read_edge_list(path) == karate

    def test_gzip_roundtrip(self, karate, tmp_path):
        path = tmp_path / "k.txt.gz"
        write_edge_list(karate, path)
        assert read_edge_list(path) == karate
        # File really is gzip-compressed.
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("#")

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\n% other comment\n0 1\n1 2 2.5\n")
        g = read_edge_list(path)
        assert g.num_edges == 2
        assert g.edge_weight(1, 2) == 2.5

    def test_one_indexed(self, tmp_path):
        path = tmp_path / "o.txt"
        path.write_text("1 2\n2 3\n")
        g = read_edge_list(path, zero_indexed=False)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path, num_vertices=10).num_vertices == 10

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match="bad token"):
            read_edge_list(path)

    def test_bad_arity(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_edge_list(path).num_vertices == 0

    def test_negative_after_shift(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_edge_list(path, zero_indexed=False)


class TestNonAsciiComments:
    """Regression: the ascii codec crashed on non-ASCII comment bytes."""

    def test_edge_list_utf8_comment(self, tmp_path):
        path = tmp_path / "cafe.txt"
        path.write_text("# café graph\n0 1\n1 2\n", encoding="utf-8")
        assert read_edge_list(path).num_edges == 2

    def test_edge_list_utf8_comment_gzip(self, tmp_path):
        path = tmp_path / "cafe.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# café graph\n0 1\n1 2\n")
        assert read_edge_list(path).num_edges == 2

    def test_edge_list_undecodable_bytes_in_comment(self, tmp_path):
        # Latin-1 comment bytes that are invalid UTF-8 must not crash
        # the reader; they only ever occur in comment lines.
        path = tmp_path / "latin1.txt"
        path.write_bytes("# caf\xe9 graph\n0 1\n".encode("latin-1"))
        assert read_edge_list(path).num_edges == 1

    def test_matrix_market_utf8_comment(self, tmp_path):
        path = tmp_path / "cafe.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% café graph — résumé of a network\n"
            "3 3 2\n2 1 1.0\n3 2 1.0\n",
            encoding="utf-8",
        )
        assert read_matrix_market(path).num_edges == 2


class TestMetis:
    def test_roundtrip_weighted(self, loops_graph, tmp_path):
        path = tmp_path / "g.metis"
        write_metis(loops_graph, path)
        assert read_metis(path) == loops_graph

    def test_roundtrip_unweighted(self, karate, tmp_path):
        path = tmp_path / "k.metis"
        write_metis(karate, path, write_weights=False)
        assert read_metis(path) == karate

    def test_hand_written_file(self, tmp_path):
        # Triangle in DIMACS10/METIS format (1-indexed, symmetric lists).
        path = tmp_path / "t.metis"
        path.write_text("3 3 0\n2 3\n1 3\n1 2\n")
        g = read_metis(path)
        assert g.num_edges == 3
        assert g.has_edge(0, 2)

    def test_comment_lines(self, tmp_path):
        path = tmp_path / "c.metis"
        path.write_text("% header comment\n2 1 0\n2\n1\n")
        assert read_metis(path).num_edges == 1

    def test_wrong_vertex_count(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("3 1 0\n2\n1\n")
        with pytest.raises(GraphFormatError, match="vertex lines"):
            read_metis(path)

    def test_wrong_edge_count(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 5 0\n2\n1\n")
        with pytest.raises(GraphFormatError, match="declares m="):
            read_metis(path)

    def test_vertex_id_out_of_range(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 1 0\n3\n1\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            read_metis(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.metis"
        path.write_text("")
        with pytest.raises(GraphFormatError, match="empty"):
            read_metis(path)

    def test_vertex_weights_unsupported(self, tmp_path):
        path = tmp_path / "vw.metis"
        path.write_text("2 1 11\n1 2\n1 1\n")
        with pytest.raises(GraphFormatError, match="unsupported"):
            read_metis(path)

    def test_odd_tokens_in_weighted(self, tmp_path):
        path = tmp_path / "odd.metis"
        path.write_text("2 1 1\n2 1.0 3\n1 1.0\n")
        with pytest.raises(GraphFormatError, match="odd token"):
            read_metis(path)


class TestMetisWeightSpec:
    """METIS requires positive integer weights; write_metis must not
    silently emit fractional ones (spec violation, breaks DIMACS10
    tooling interchange)."""

    @staticmethod
    def _fractional():
        return CSRGraph.from_edges(
            3, [(0, 1), (1, 2), (0, 2)], [0.5, 2.0, 1.5]
        )

    def test_integral_weights_written_as_integers(self, loops_graph,
                                                  tmp_path):
        path = tmp_path / "int.metis"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_metis(loops_graph, path)
        body = path.read_text().splitlines()[1:]
        for line in body:
            for tok in line.split():
                assert "." not in tok
        assert read_metis(path) == loops_graph

    def test_fractional_weights_warn_and_roundtrip(self, tmp_path):
        g = self._fractional()
        path = tmp_path / "frac.metis"
        with pytest.warns(UserWarning, match="METIS spec"):
            write_metis(g, path)
        # Non-strict output keeps exact weights: our reader round-trips.
        assert read_metis(path) == g

    def test_strict_scales_to_integers(self, tmp_path):
        g = self._fractional()
        path = tmp_path / "strict.metis"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_metis(g, path, strict=True)
        g2 = read_metis(path)
        # Weights scaled by 10: 0.5 -> 5, 2.0 -> 20, 1.5 -> 15.
        np.testing.assert_array_equal(g2.weights, g.weights * 10)

    def test_strict_unscalable_raises(self, tmp_path):
        g = CSRGraph.from_edges(2, [(0, 1)], [1.0 / 3.0])
        with pytest.raises(GraphFormatError, match="power-of-ten"):
            write_metis(g, tmp_path / "bad.metis", strict=True)


class TestNonFiniteWeights:
    """Every text reader rejects inf/nan weights at the parse site with
    a file:line diagnostic, instead of letting them poison total_weight
    downstream (CSRGraph itself also rejects them as a backstop)."""

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_edge_list(self, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1 {token}\n")
        with pytest.raises(GraphFormatError, match="non-finite"):
            read_edge_list(path)

    def test_edge_list_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 1.0\n1 2 inf\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:2"):
            read_edge_list(path)

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_metis_weighted(self, tmp_path, token):
        path = tmp_path / "bad.metis"
        path.write_text(f"2 1 1\n2 {token}\n1 {token}\n")
        with pytest.raises(GraphFormatError, match="non-finite"):
            read_metis(path)

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_matrix_market(self, tmp_path, token):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            f"2 2 1\n2 1 {token}\n"
        )
        with pytest.raises(GraphFormatError, match="non-finite"):
            read_matrix_market(path)


class TestCsrz:
    def test_roundtrip(self, loops_graph, tmp_path):
        path = tmp_path / "g.csrz.npz"
        save_csrz(loops_graph, path)
        assert load_csrz(path) == loops_graph

    def test_roundtrip_large(self, planted, tmp_path):
        path = tmp_path / "p.csrz.npz"
        save_csrz(planted, path)
        assert load_csrz(path) == planted

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(GraphFormatError, match="not a csrz"):
            load_csrz(path)

    @pytest.mark.parametrize("name", ["g.csrz", "g.npz"])
    def test_writes_exactly_the_given_path(self, loops_graph, tmp_path, name):
        path = tmp_path / name
        save_csrz(loops_graph, path)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert load_csrz(path) == loops_graph
        assert load_csrz(str(path)) == loops_graph

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "g.csrz"
        path.write_bytes(b"definitely not an archive\n" * 8)
        with pytest.raises(GraphFormatError, match="not a csrz") as info:
            load_csrz(path)
        assert isinstance(info.value.__cause__, ValueError)

    def test_truncated_archive(self, planted, tmp_path):
        path = tmp_path / "g.csrz"
        save_csrz(planted, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphFormatError, match="not a csrz") as info:
            load_csrz(path)
        assert isinstance(info.value.__cause__, zipfile.BadZipFile)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "g.npz"
        np.savez(path, indptr=np.zeros(1, np.int64),
                 indices=np.zeros(0, np.int64),
                 format_version=np.asarray([1], dtype=np.int64))
        with pytest.raises(GraphFormatError, match="weights") as info:
            load_csrz(path)
        assert isinstance(info.value.__cause__, KeyError)


class TestFormatDispatch:
    @pytest.mark.parametrize("name, fmt", [
        ("g.npz", "csrz"), ("G.CSRZ", "csrz"), ("g.metis", "metis"),
        ("g.graph", "metis"), ("g.mtx", "mtx"), ("g.mtx.gz", "mtx"),
        ("g.txt", "edgelist"), ("g.edges.gz", "edgelist"), ("g", "edgelist"),
    ])
    def test_detect_format(self, name, fmt):
        assert detect_format(name) == fmt

    def test_read_graph_dispatches_on_suffix(self, planted, tmp_path):
        for name, write in (("g.npz", save_csrz), ("g.metis", write_metis),
                            ("g.txt", write_edge_list)):
            path = tmp_path / name
            write(planted, path)
            assert read_graph(path) == planted
        # An explicit format overrides the suffix.
        assert read_graph(tmp_path / "g.txt", "edgelist") == planted

    def test_unknown_format(self, tmp_path):
        with pytest.raises(GraphFormatError, match="unknown graph format"):
            read_graph(tmp_path / "g.txt", "parquet")
