"""Differential and fuzz tests for the text readers.

The byte-scanning readers in :mod:`repro.graph.io` must return the same
graph, bit for bit, as the per-token readers they replaced (kept in
``io_oracles``), and reject what those rejected — as
:class:`GraphFormatError`.  Files come from the writers and from a
generator that varies the formatting; a fuzz pass mutates their bytes.
Every case also runs with tiny parse blocks, so the cuts between blocks
land everywhere, ``\\r\\n`` pairs included.
"""

from __future__ import annotations

import gzip
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import io
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    read_edge_list,
    read_matrix_market,
    read_metis,
    write_edge_list,
    write_matrix_market,
    write_metis,
)
from repro.utils.errors import GraphFormatError, GraphStructureError
from tests.graph.io_oracles import (
    oracle_edge_list,
    oracle_matrix_market,
    oracle_metis,
)
from tests.properties.strategies import graphs

SETTINGS = dict(max_examples=60, deadline=None)
#: Parse block sizes: 1 byte cuts after every line break.
BLOCK_SIZES = st.sampled_from([1, 2, 3, 7, 64, 1 << 20])

#: Inputs only Python's ``int``/``float``/``str.split`` accept: the new
#: token grammar is ASCII-only, so these are GraphFormatError now.
DIVERGENCES = [
    ("underscore in an id", "edges.txt", "1_0 2\n"),
    ("underscore in a weight", "edges.txt", "0 1 2_5.0\n"),
    ("non-ASCII digit", "edges.txt", "0 \u0661\n"),
    ("non-ASCII whitespace separator", "edges.txt", "0\u00a01\n"),
    ("non-ASCII whitespace before a comment", "edges.txt",
     "\u3000# comment\n0 1\n"),
    ("non-ASCII whitespace line in METIS", "g.metis", "2 1\n2\n1\n\u00a0\n"),
    ("underscore in a METIS id", "g.metis", "2 1\n0_2\n1\n"),
    ("non-ASCII digit in Matrix Market", "g.mtx",
     "%%MatrixMarket matrix coordinate real general\n2 2 1\n\u0662 1 1.0\n"),
]

READERS = {".txt": (read_edge_list, oracle_edge_list),
           ".metis": (read_metis, oracle_metis),
           ".mtx": (read_matrix_market, oracle_matrix_market)}


def _readers(path):
    suffix = path.suffixes[0] if path.suffix == ".gz" else path.suffix
    return READERS[suffix]


def _assert_same(path, block_size, **kwargs):
    new, old = _readers(path)
    expected = old(path, **kwargs)
    with mock.patch.object(io, "_BLOCK_BYTES", block_size):
        got = new(path, **kwargs)
    assert got == expected
    assert got.weights.dtype == expected.weights.dtype
    return got


def _write(path, text: str):
    data = text.encode("utf-8")
    if path.suffix == ".gz":
        data = gzip.compress(data)
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# Hand-varied formatting
# ---------------------------------------------------------------------------
COMMENTS = ["", " note", " café — résumé", "%", " 1 2 3"]
SPACES = [" ", "\t", "  ", " \t", "\x0b", "\x0c", "\x1f"]
INDENTS = ["", " ", "\t", " \t "]
NEWLINES = ["\n", "\r\n", "\r"]


def _id(draw, value: int) -> str:
    return draw(st.sampled_from(
        [str(value), f"+{value}", f"0{value}", f"00{value}"]))


def _weight(draw, w: float) -> str:
    options = [f"{w:.17g}", f"{w:.17e}", f"+{w:.17g}", f"{w:.17E}"]
    if w == int(w) and abs(w) < 1e15:
        k = int(w)
        options += [str(k), f"{k}.", f"{k}.0", f"{k}e0", f"+{k}"]
    if 0 < w < 1:
        options.append(f"{w:.17g}".lstrip("0"))  # ".5"
    return draw(st.sampled_from(options))


def _join(draw, tokens) -> str:
    line = draw(st.sampled_from(INDENTS))
    for i, token in enumerate(tokens):
        line += (draw(st.sampled_from(SPACES)) if i else "") + token
    return line + draw(st.sampled_from(["", " ", "\t"]))


def _noise(draw, lines, markers, blank_ok=True):
    """Insert comment (and blank) lines anywhere in ``lines``."""
    out = []
    for line in lines + [None]:
        for _ in range(draw(st.integers(0, 1))):
            marker = draw(st.sampled_from(markers))
            choices = [draw(st.sampled_from(INDENTS)) + marker
                       + draw(st.sampled_from(COMMENTS))]
            if blank_ok:
                choices += ["", draw(st.sampled_from(INDENTS))]
            out.append(draw(st.sampled_from(choices)))
        if line is not None:
            out.append(line)
    return out


def _text(draw, lines, final_newline=False) -> str:
    newline = draw(st.sampled_from(NEWLINES))
    end = newline if final_newline else draw(st.sampled_from(["", newline]))
    return newline.join(lines) + (end if lines else "")


@st.composite
def edge_list_files(draw):
    g = draw(graphs(max_vertices=12, max_extra_edges=20))
    u, v, w = g.edge_arrays()
    one_based = draw(st.booleans())
    lines = []
    for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
        if draw(st.booleans()):
            a, b = b, a
        tokens = [_id(draw, a + one_based), _id(draw, b + one_based)]
        if c != 1.0 or draw(st.booleans()):
            tokens.append(_weight(draw, c))
        lines.append(_join(draw, tokens))
    lines = _noise(draw, lines, ["#", "%"])
    kwargs = {"zero_indexed": not one_based}
    if draw(st.booleans()):
        kwargs["num_vertices"] = g.num_vertices
    return _text(draw, lines), kwargs


@st.composite
def metis_files(draw):
    g = draw(graphs(max_vertices=12, max_extra_edges=20))
    weighted = draw(st.booleans())
    fmt = draw(st.sampled_from(["1", "001"] if weighted else ["0", "00", None]))
    head = [str(g.num_vertices), str(g.num_edges)] + ([fmt] if fmt else [])
    body = []
    for i in range(g.num_vertices):
        nbrs, ws = g.neighbors(i)
        order = draw(st.permutations(range(nbrs.size)))
        tokens = []
        for k in order:
            tokens.append(_id(draw, int(nbrs[k]) + 1))
            if weighted:
                tokens.append(_weight(draw, float(ws[k])))
        body.append(_join(draw, tokens))
    before = [draw(st.sampled_from(["", " ", "% lead"]))
              for _ in range(draw(st.integers(0, 2)))]
    body = _noise(draw, body, ["%"], blank_ok=False)
    after = [draw(st.sampled_from(["", "\t", "% tail"]))
             for _ in range(draw(st.integers(0, 2)))]
    # The final newline keeps a blank last vertex line (an isolated
    # vertex) in the file.
    text = _text(draw, before + [_join(draw, head)] + body + after,
                 final_newline=True)
    return text, {}


@st.composite
def matrix_market_files(draw):
    g = draw(graphs(max_vertices=12, max_extra_edges=20))
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    banner = draw(st.sampled_from(
        ["%%MatrixMarket", "%%matrixmarket", "%%MATRIXMARKET"]))
    u, v, w = g.edge_arrays()
    if field == "integer":
        w = np.ceil(w)
    entries = []
    for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
        rows = [(b, a)]
        if symmetry == "general" and a != b and draw(st.booleans()):
            rows.append((a, b))  # both triangles stored
        for i, j in rows:
            tokens = [_id(draw, i + 1), _id(draw, j + 1)]
            if field != "pattern":
                sign = draw(st.sampled_from(["", "-"]))  # |w| is read
                tokens.append(sign + _weight(draw, c).lstrip("+"))
            elif draw(st.booleans()):
                tokens.append("7")  # ignored by pattern files
            entries.append(_join(draw, tokens))
    entries = draw(st.permutations(entries))
    n = g.num_vertices
    size = _join(draw, [str(n), str(n), str(len(entries))])
    lines = [f"{banner} matrix coordinate {field} {symmetry}"]
    lines += _noise(draw, [size] + entries, ["%"])
    return _text(draw, lines), {"combine": draw(
        st.sampled_from(["error", "sum", "min", "max"]))}


FILES = {"edges.txt": edge_list_files(), "g.metis": metis_files(),
         "g.mtx": matrix_market_files()}


@pytest.mark.parametrize("name", ["edges.txt", "edges.txt.gz", "g.metis",
                                  "g.metis.gz", "g.mtx", "g.mtx.gz"])
@settings(**SETTINGS)
@given(data=st.data(), block_size=BLOCK_SIZES)
def test_formatted_files_match_oracle(tmp_path_factory, name, data,
                                      block_size):
    text, kwargs = data.draw(FILES[name.removesuffix(".gz")])
    path = tmp_path_factory.mktemp("fmt") / name
    _write(path, text)
    _assert_same(path, block_size, **kwargs)


# ---------------------------------------------------------------------------
# Writer round trips
# ---------------------------------------------------------------------------
@settings(**SETTINGS)
@given(g=graphs(max_vertices=16, max_extra_edges=30), weights=st.booleans(),
       block_size=BLOCK_SIZES)
def test_writers_match_oracle(tmp_path_factory, g, weights, block_size):
    tmp = tmp_path_factory.mktemp("writers")
    write_edge_list(g, tmp / "g.txt", write_weights=weights)
    _assert_same(tmp / "g.txt", block_size, num_vertices=g.num_vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # fractional METIS
        write_metis(g, tmp / "g.metis", write_weights=weights)
    got = _assert_same(tmp / "g.metis", block_size)
    if weights:
        assert got == g
    write_matrix_market(g, tmp / "g.mtx")
    assert _assert_same(tmp / "g.mtx", block_size) == g


# ---------------------------------------------------------------------------
# Byte-mutation fuzz
# ---------------------------------------------------------------------------
MUTATION_BYTES = b"0123456789 \t\n\r-+.eE#%x_\x00\xc3\xa9"


@st.composite
def mutated(draw, files):
    text, kwargs = draw(files)
    data = bytearray(text.encode("utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data), kwargs


def _outcome(reader, path, **kwargs):
    try:
        return reader(path, **kwargs)
    except (ValueError, GraphStructureError) as exc:
        # The old readers also raised bare ValueError and leaked
        # GraphStructureError; both are rejections.
        return exc


@pytest.mark.parametrize("name", ["edges.txt", "g.metis", "g.mtx"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), block_size=BLOCK_SIZES)
def test_mutated_files(tmp_path_factory, name, data, block_size):
    content, kwargs = data.draw(mutated(FILES[name]))
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(content)
    new, old = _readers(path)
    with mock.patch.object(io, "_BLOCK_BYTES", block_size):
        got = _outcome(new, path, **kwargs)
    if isinstance(got, Exception):
        assert type(got) is GraphFormatError, repr(got)
    else:
        assert isinstance(got, CSRGraph)
    if b"_" in content:
        return  # a listed divergence: only the old reader may accept
    expected = _outcome(old, path, **kwargs)
    if isinstance(expected, Exception):
        assert isinstance(got, Exception), (content, expected)
    else:
        assert got == expected, content


# ---------------------------------------------------------------------------
# Divergences and error classes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("what,name,text", DIVERGENCES,
                         ids=[d[0] for d in DIVERGENCES])
def test_known_divergences(tmp_path, what, name, text):
    path = tmp_path / name
    _write(path, text)
    new, old = _readers(path)
    old(path)  # Python's parsing accepts it ...
    with pytest.raises(GraphFormatError):  # ... the token grammar does not
        new(path)


@pytest.mark.parametrize("token", ["1.5", "x", "1e3", "0x10", "--1", "#"])
def test_metis_bad_token_is_format_error(tmp_path, token):
    path = tmp_path / "bad.metis"
    path.write_text(f"% header next\n2 1\n2 {token}\n1\n")
    with pytest.raises(GraphFormatError, match=r"bad\.metis:3"):
        read_metis(path)


def test_metis_bad_token_reports_line(tmp_path):
    path = tmp_path / "bad.metis"
    path.write_text("2 1\n2\n1.5\n")
    with pytest.raises(GraphFormatError, match=r"bad\.metis:3: bad token '1\.5'"):
        read_metis(path)


@pytest.mark.parametrize("lines", [
    "2 2 1\n1.0 1 1.0\n",  # row
    "2 2 1\n2 x 1.0\n",  # column
])
def test_matrix_market_bad_index_is_format_error(tmp_path, lines):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n" + lines)
    with pytest.raises(GraphFormatError, match=r"bad\.mtx:3: bad token"):
        read_matrix_market(path)


@pytest.mark.parametrize("size", ["2 2.0 1", "x 2 1", "2 2", "-1 -1 0"])
def test_matrix_market_bad_size_line(tmp_path, size):
    path = tmp_path / "bad.mtx"
    path.write_text(
        f"%%MatrixMarket matrix coordinate real general\n% c\n{size}\n")
    with pytest.raises(GraphFormatError, match=r"bad\.mtx:3: bad size line"):
        read_matrix_market(path)


@pytest.mark.parametrize("name,text", [
    ("multi.txt", "0 1\n1 0\n"),
    ("neg.txt", "0 1 -2.0\n"),
    ("zero.txt", "0 1 0\n"),
    ("multi.metis", "2 2\n2 2\n1 1\n"),
    ("sym.mtx", "%%MatrixMarket matrix coordinate real symmetric\n"
                "2 2 2\n2 1 1.0\n1 2 1.0\n"),
])
def test_graph_model_violations_name_the_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    new, _ = _readers(path)
    with pytest.raises(GraphFormatError, match=name.replace(".", r"\.")) as info:
        new(path)
    assert isinstance(info.value.__cause__, GraphStructureError)


def test_lone_cr_and_crlf_count_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\r1 2\r\n\r2 x\n")
    with pytest.raises(GraphFormatError, match=r"bad\.txt:4: bad token 'x'"):
        read_edge_list(path)


def test_metis_vertex_count_checked_before_tokens(tmp_path):
    # As before: a file with the wrong number of vertex lines reports the
    # count, even when a vertex line also holds a bad token.
    path = tmp_path / "bad.metis"
    path.write_text("3 1\n2 x\n1\n")
    with pytest.raises(GraphFormatError, match="vertex lines"):
        read_metis(path)


@pytest.mark.parametrize("name,text", [
    ("big.txt", "99999999999999999999 1\n"),
    ("big.txt", "-99999999999999999999 1\n"),
    ("big.txt", "4000000000 1\n"),  # n beyond the CSR sort key
    ("big.metis", "2 1\n99999999999999999999\n1\n"),
    ("big.mtx", "%%MatrixMarket matrix coordinate pattern general\n"
                "2 2 1\n99999999999999999999 1\n"),
])
def test_huge_ids_are_format_errors(tmp_path, name, text):
    # The old edge-list reader crashed here with OverflowError or tried
    # to allocate a multi-gigabyte indptr.
    path = tmp_path / name
    path.write_text(text)
    new, _ = _readers(path)
    with pytest.raises(GraphFormatError):
        new(path)
