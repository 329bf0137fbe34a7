"""Graph file formats: edge lists, METIS, and a compact binary format.

The paper sources its inputs from the DIMACS10 challenge and the University
of Florida sparse matrix collection, which distribute graphs as METIS files
and matrix-market edge lists.  This module implements readers/writers for:

* **edge list** — one ``u v [w]`` triple per line, ``#``/``%`` comments,
  optional gzip (used by SNAP-style downloads such as Soc-LiveJournal1);
* **METIS** — the DIMACS10 distribution format: a header line
  ``n m [fmt]`` followed by one adjacency line per vertex (1-indexed),
  with ``fmt`` ∈ {0/blank: unweighted, 1: edge-weighted};
* **csrz** — a compact ``.npz``-based binary round-trip format for fast
  reload of generated benchmark inputs.
"""

from __future__ import annotations

import gzip
import math
import re
import warnings
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.graph.build import from_edge_array, from_scipy_sparse
from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphFormatError, GraphStructureError

__all__ = [
    "detect_format",
    "read_edge_list",
    "read_graph",
    "read_matrix_market",
    "read_metis",
    "load_csrz",
    "save_csrz",
    "write_edge_list",
    "write_matrix_market",
    "write_metis",
]


def _open_text(path, mode: str):
    # Writers only: the readers scan bytes (see ``_TextBlock``).
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


# ---------------------------------------------------------------------------
# Tokenizer shared by the text readers
# ---------------------------------------------------------------------------
#: Bytes read per parse block.  Blocks are cut at line boundaries, so every
#: per-byte scratch array is bounded by the block (or the longest line),
#: never by the file.
_BLOCK_BYTES = 1 << 20


def _byte_table(members) -> bytes:
    """A ``bytes.translate`` table mapping ``members`` to 1, the rest to 0."""
    table = bytearray(256)
    for b in members:
        table[b] = 1
    return bytes(table)


#: The ASCII bytes ``str.split()`` treats as whitespace.
_WHITESPACE = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32)
_IS_SPACE = _byte_table(_WHITESPACE)
#: Bytes a token may hold besides digits (signs, '.', 'e'/'E') or that make
#: it invalid; a token without them is a plain run of digits.
_IS_NON_DIGIT = _byte_table(set(range(256)) - set(_WHITESPACE)
                            - set(b"0123456789"))
#: Every whitespace byte as a space, for NumPy's text conversion.
_TO_SPACE = bytes(32 if b in _WHITESPACE else b for b in range(256))

#: The token grammar (ASCII only; see docs/io_formats.md#parsing).  The
#: vectorized checks in :meth:`_TextBlock.parse` implement exactly these;
#: the regexes word the error for the one token being reported.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_FLOAT_TOKEN = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_NONFINITE_TOKEN = re.compile(r"[+-]?(?:inf|infinity|nan)", re.IGNORECASE)
#: Digit runs up to this length convert exactly through int64 to float64.
_EXACT_DIGITS = 15

#: Token kinds for :meth:`_TextBlock.parse`.
_SKIP, _INT, _FLOAT = 0, 1, 2


def _blocks(path):
    """Yield ``path``'s bytes in blocks, each cut after a line break (gzip
    decompressed when the suffix is ``.gz``).

    Line breaks are ``\\n``, ``\\r\\n`` and a lone ``\\r``, as in Python's
    universal newlines; a cut never splits ``\\r\\n``.
    """
    opener = gzip.open if Path(path).suffix == ".gz" else open
    pending: list[bytes] = []  # a line longer than one read
    with opener(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                # Only lone '\r' breaks, if any: one that is not the last
                # byte cannot be the first half of '\r\n'.
                cut = chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
            if not cut:
                pending.append(chunk)
                continue
            yield b"".join(pending + [chunk[:cut]])
            pending = [chunk[cut:]]
    if any(pending):
        yield b"".join(pending)


def _text_blocks(path, comments: bytes):
    lineno = 1
    for data in _blocks(path):
        block = _TextBlock(data, lineno, comments)
        yield block
        lineno += block.breaks.size


class _TextBlock:
    """One block of a text file, split into lines and tokens by byte scans.

    *Content lines* are the lines that are not comments (a comment line's
    first token starts with one of ``comments``); blank lines are content
    lines with no tokens.  Per content line ``k``: ``lineno[k]`` (1-based,
    in the file), ``count[k]`` tokens starting at token ``first[k]``.  Per
    token ``t``: bytes ``data[starts[t]:ends[t]]`` on content line
    ``line[t]``.
    """

    def __init__(self, data: bytes, first_lineno: int, comments: bytes):
        a = np.frombuffer(data, dtype=np.uint8)
        breaks = a == 10
        cr = a == 13
        if cr.any():
            breaks |= cr
            breaks[:-1] &= ~(cr[:-1] & (a[1:] == 10))
        self.breaks = np.flatnonzero(breaks)
        num_lines = self.breaks.size + int(
            a.size > 0 and (self.breaks.size == 0 or self.breaks[-1] != a.size - 1)
        )
        # Token boundaries are the whitespace/non-whitespace flips.
        space = np.frombuffer(data.translate(_IS_SPACE), dtype=bool)
        flips = np.flatnonzero(np.diff(space, prepend=True, append=True))
        starts, ends = flips[0::2], flips[1::2]
        per_line = np.diff(np.searchsorted(starts, self.breaks), prepend=0,
                           append=starts.size)[:num_lines]
        line = np.repeat(np.arange(num_lines), per_line)
        lead = np.ones(starts.size, dtype=bool)
        lead[1:] = line[1:] != line[:-1]
        comment = np.zeros(num_lines, dtype=bool)
        comment[line[lead][np.isin(a[starts[lead]], list(comments))]] = True
        if comment.any():
            keep = ~comment[line]
            starts, ends, line = starts[keep], ends[keep], line[keep]

        self.data, self.bytes, self.first_lineno = data, a, first_lineno
        self.comment_lines = np.flatnonzero(comment)
        self.starts, self.ends = starts, ends
        self.line = (np.cumsum(~comment) - 1)[line]
        self.lineno = first_lineno + np.flatnonzero(~comment)
        self.count = np.bincount(self.line, minlength=self.lineno.size)
        self.first = np.cumsum(self.count) - self.count

    def position(self) -> np.ndarray:
        """Each token's index within its line."""
        return np.arange(self.starts.size) - self.first[self.line]

    def parse(self, kind: np.ndarray):
        """Check and convert the tokens; ``kind[t]`` is ``_INT``, ``_FLOAT``
        or ``_SKIP``.

        Returns ``(bad, ints, floats)`` over all tokens: ``bad`` marks the
        tokens outside their kind's grammar; the others of each kind hold
        their value in ``ints`` or ``floats``.  An integer beyond int64
        reads as the int64 maximum, which every id and size check rejects.
        """
        a, starts, ends = self.bytes, self.starts, self.ends
        ntok = starts.size
        length = ends - starts
        # Every non-digit byte inside a token, with its token.
        pos = np.flatnonzero(np.frombuffer(
            self.data.translate(_IS_NON_DIGIT), dtype=bool))
        owner = np.searchsorted(starts, pos, side="right") - 1
        inside = owner >= 0
        inside[inside] = pos[inside] < ends[owner[inside]]
        pos, owner = pos[inside], owner[inside]
        digits_only = np.ones(ntok, dtype=bool)
        digits_only[owner] = False
        checked = kind[owner] != _SKIP
        pos, owner = pos[checked], owner[checked]
        bad = np.zeros(ntok, dtype=bool)
        if pos.size:
            bad[self._bad_non_digits(kind, pos, owner)] = True

        # Plain digit runs convert through the (much faster) int parser.
        as_int = ((kind == _INT)
                  | ((kind == _FLOAT) & digits_only & (length <= _EXACT_DIGITS)))
        as_int &= ~bad
        ints = self._convert(as_int, np.int64)
        floats = self._convert((kind == _FLOAT) & ~as_int & ~bad, np.float64)
        exact = as_int & (kind == _FLOAT)
        floats[exact] = ints[exact]
        return bad, ints, floats

    def _bad_non_digits(self, kind, pos, owner) -> np.ndarray:
        """The tokens whose non-digit bytes (at ``pos``, in tokens
        ``owner``, both ascending) break their kind's grammar."""
        tokens, group = np.unique(owner, return_index=True)
        size = np.diff(group, append=owner.size)
        byte = self.bytes[pos]
        rel = pos - self.starts[owner]
        length = (self.ends - self.starts)[tokens]
        is_float = kind[tokens] == _FLOAT
        sign = (byte == ord("+")) | (byte == ord("-"))
        lead_sign = sign & (rel == 0)
        dot = byte == ord(".")
        exp = (byte == ord("e")) | (byte == ord("E"))
        # An int token's only non-digit is a leading sign before a digit.
        int_ok = np.logical_and.reduceat(lead_sign, group) & (length > 1)
        # A float token: [sign] mantissa [e [sign] digits], where the
        # mantissa has at most one '.' and at least one digit.
        exp_at = np.maximum.reduceat(np.where(exp, rel, -1), group)
        dot_at = np.maximum.reduceat(np.where(dot, rel, -1), group)
        exp_sign = sign & (rel == np.repeat(exp_at, size) + 1) \
            & (np.repeat(exp_at, size) >= 0)
        n_exp = np.add.reduceat(exp, group)
        n_dot = np.add.reduceat(dot, group)
        mantissa = (np.where(n_exp > 0, exp_at, length) - n_dot
                    - np.add.reduceat(lead_sign, group))
        exponent = np.where(n_exp > 0, length - exp_at - 1
                            - np.add.reduceat(exp_sign, group), 1)
        float_ok = (
            np.logical_and.reduceat(lead_sign | exp_sign | dot | exp, group)
            & (n_exp <= 1) & (n_dot <= 1) & (mantissa >= 1) & (exponent >= 1)
            & ((n_dot == 0) | (n_exp == 0) | (dot_at < exp_at))
        )
        return tokens[~np.where(is_float, float_ok, int_ok)]

    def _convert(self, select: np.ndarray, dtype) -> np.ndarray:
        """The values of the selected (grammar-checked) tokens, zero
        elsewhere: NumPy's C conversion of the block, every other byte
        blanked."""
        out = np.zeros(self.starts.size, dtype=dtype)
        if not select.any():
            return out
        text = self.data.translate(_TO_SPACE)
        if self.comment_lines.size or not select.all():
            # Blank the unselected tokens and the comment lines.
            line_end = np.append(self.breaks, self.bytes.size)
            line_start = np.append(0, self.breaks + 1)
            span_start = np.concatenate(
                [self.starts[~select], line_start[self.comment_lines]])
            span_end = np.concatenate(
                [self.ends[~select], line_end[self.comment_lines]])
            size = span_end - span_start
            blank = np.repeat(span_start - np.cumsum(size) + size, size) \
                + np.arange(size.sum())
            buf = np.frombuffer(text, dtype=np.uint8).copy()
            buf[blank] = 32
            text = buf.tobytes()
        out[select] = np.fromstring(text.decode("ascii"), dtype=dtype, sep=" ")
        return out

    def token(self, t: int) -> str:
        """Token ``t`` as text."""
        return self.data[self.starts[t]:self.ends[t]].decode("utf-8", "replace")

    def tokens(self, k: int) -> list:
        """The tokens of content line ``k`` as text (for header lines)."""
        first = int(self.first[k])
        return [self.token(t) for t in range(first, first + int(self.count[k]))]

    def text(self, k: int) -> str:
        """Content line ``k`` as text, stripped."""
        return self.physical_text(int(self.lineno[k] - self.first_lineno))

    def physical_text(self, p: int) -> str:
        """The block's ``p``-th line as text, stripped."""
        start = int(self.breaks[p - 1]) + 1 if p else 0
        end = int(self.breaks[p]) if p < self.breaks.size else len(self.data)
        return self.data[start:end].decode("utf-8", "replace").strip()


def _line_error(path, block: _TextBlock, k: int, message: str):
    return GraphFormatError(f"{path}:{int(block.lineno[k])}: {message}")


def _token_message(block: _TextBlock, bad, kind, k: int, what: str):
    """The message for the first bad token on content line ``k`` (its
    tokens are contiguous), or ``None`` when it has none."""
    first = int(block.first[k])
    on_line = np.flatnonzero(bad[first:first + int(block.count[k])])
    if not on_line.size:
        return None
    t = first + int(on_line[0])
    token = block.token(t)
    if kind[t] == _INT:
        if _INT_TOKEN.fullmatch(token):
            return f"vertex id {token} out of range"
    elif _NONFINITE_TOKEN.fullmatch(token) or (
        _FLOAT_TOKEN.fullmatch(token) and not math.isfinite(float(token))
    ):
        # inf/nan parse as floats but would poison total_weight.
        return f"non-finite {what} {token!r}"
    return f"bad token {token!r}"


@contextmanager
def _graph_model_errors(path):
    """Name ``path`` when the file's content breaks the graph model
    (multi-edges, non-positive weights, ids): the structure error becomes
    the cause of a :class:`GraphFormatError`."""
    try:
        yield
    except GraphStructureError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------
def read_edge_list(
    path,
    *,
    num_vertices: int | None = None,
    combine: str = "error",
    zero_indexed: bool = True,
) -> CSRGraph:
    """Read an edge-list file into a :class:`CSRGraph`.

    Each non-comment line is ``u v`` or ``u v w``.  Lines starting with ``#``
    or ``%`` are comments.  ``.gz`` paths are decompressed transparently.

    Parameters
    ----------
    num_vertices:
        Override the vertex count (default: ``max id + 1``).
    combine:
        Duplicate-edge policy, as in :meth:`CSRGraph.from_edges`.
    zero_indexed:
        If false, ids in the file are 1-based and shifted down.
    """
    us, vs, ws = [], [], []
    saw_weight = False
    for block in _text_blocks(path, b"#%"):
        count = block.count
        arity = (count == 1) | (count > 3)
        kind = np.where(block.position() < 2, _INT, _FLOAT).astype(np.int8)
        kind[arity[block.line]] = _SKIP
        bad, ints, floats = block.parse(kind)
        bad |= (kind == _FLOAT) & ~np.isfinite(floats)
        bad_lines = arity.copy()
        bad_lines[block.line[bad]] = True
        if bad_lines.any():
            k = int(np.argmax(bad_lines))
            if arity[k]:
                message = f"expected 'u v [w]', got {block.text(k)!r}"
            else:
                message = _token_message(block, bad, kind, k, "edge weight")
            raise _line_error(path, block, k, message)
        first = block.first[count > 0]
        weighted = count[count > 0] == 3
        w = np.ones(first.size, dtype=np.float64)
        w[weighted] = floats[first[weighted] + 2]
        us.append(ints[first])
        vs.append(ints[first + 1])
        ws.append(w)
        saw_weight = saw_weight or bool(weighted.any())
    edges = np.column_stack([np.concatenate(us), np.concatenate(vs)]) \
        if us else np.zeros((0, 2), np.int64)
    if not edges.size:
        return CSRGraph.empty(num_vertices or 0)
    if not zero_indexed:
        edges -= 1
    if edges.min() < 0:
        raise GraphFormatError(f"{path}: negative vertex id after indexing shift")
    n = num_vertices if num_vertices is not None else int(edges.max()) + 1
    weights = np.concatenate(ws) if saw_weight else None
    with _graph_model_errors(path):
        return from_edge_array(n, edges, weights, combine=combine)


def write_edge_list(graph: CSRGraph, path, *, write_weights: bool = True) -> None:
    """Write ``graph`` as an edge list (one undirected edge per line)."""
    u, v, w = graph.edge_arrays()
    with _open_text(path, "w") as fh:
        fh.write(f"# repro edge list: n={graph.num_vertices} M={graph.num_edges}\n")
        if write_weights:
            for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()):
                fh.write(f"{a} {b} {c:.17g}\n")
        else:
            for a, b in zip(u.tolist(), v.tolist()):
                fh.write(f"{a} {b}\n")


# ---------------------------------------------------------------------------
# METIS
# ---------------------------------------------------------------------------
def read_metis(path, *, combine: str = "error") -> CSRGraph:
    """Read a METIS/DIMACS10 graph file.

    Header: ``n m [fmt]``; ``fmt`` 0/blank = unweighted, 1 = edge weights
    interleaved in the adjacency lines (``v1 w1 v2 w2 ...``).  Vertex ids in
    the file are 1-based.  Self-loops are allowed; METIS files list each
    non-loop edge in both endpoint lines.  Lines starting with ``%`` are
    comments.  Blank lines before the header are skipped; after it, a blank
    line is an isolated vertex, and trailing blank lines beyond ``n`` are
    ignored.
    """
    n = m_decl = None
    weighted = False
    vertex_lines = 0
    last_nonblank = -1  # vertex index of the last non-blank vertex line
    error = None  # the first vertex-line error; the n check comes first
    us, vs, ws = [], [], []
    for block in _text_blocks(path, b"%"):
        body = 0
        if n is None:
            nonblank = np.flatnonzero(block.count)
            if not nonblank.size:
                continue
            body = int(nonblank[0]) + 1
            n, m_decl, weighted = _metis_header(path, block, body - 1)
        vertex = np.full(block.count.size, -1, dtype=np.int64)
        vertex[body:] = vertex_lines + np.arange(block.count.size - body)
        if np.any(block.count[body:]):
            last_nonblank = int(vertex[np.flatnonzero(block.count)[-1]])
        vertex_lines += block.count.size - body
        if error is None:
            error = _metis_lines(path, block, vertex, n, weighted, us, vs, ws)
    if n is None:
        raise GraphFormatError(f"{path}: empty METIS file")
    found = vertex_lines if vertex_lines <= n else max(n, last_nonblank + 1)
    if found != n:
        raise GraphFormatError(
            f"{path}: header declares n={n} but file has {found} vertex lines"
        )
    if error is not None:
        raise error
    edges = np.column_stack([np.concatenate(us), np.concatenate(vs)])
    with _graph_model_errors(path):
        g = from_edge_array(n, edges, np.concatenate(ws), combine=combine)
    if g.num_edges != m_decl:
        raise GraphFormatError(
            f"{path}: header declares m={m_decl} edges but adjacency lists "
            f"contain {g.num_edges}"
        )
    return g


def _metis_header(path, block: _TextBlock, k: int):
    """``(n, m, weighted)`` from the header on content line ``k``."""
    head = block.tokens(k) if block.count[k] in (2, 3) else []
    if not head or not all(_INT_TOKEN.fullmatch(t) for t in head[:2]):
        raise _line_error(path, block, k,
                          f"bad METIS header {block.text(k)!r}")
    fmt = head[2] if len(head) == 3 else "0"
    if fmt not in ("0", "00", "1", "001"):
        raise _line_error(
            path, block, k,
            f"unsupported METIS fmt {fmt!r} (vertex weights not supported)")
    return int(head[0]), int(head[1]), fmt in ("1", "001")


def _metis_lines(path, block, vertex, n, weighted, us, vs, ws):
    """Parse the vertex lines of ``block`` (``vertex[k]`` is line ``k``'s
    vertex, -1 before the header) into ``us``/``vs``/``ws``.  Returns the
    first line's error instead, if any.  Lines past vertex ``n`` are left
    to the n check."""
    line = block.line
    parsed = (vertex >= 0) & (vertex < n)
    odd = parsed & (block.count % 2 != 0) & weighted
    is_weight = (block.position() % 2 == 1) & weighted
    kind = np.where(is_weight, _FLOAT, _INT).astype(np.int8)
    kind[~parsed[line] | odd[line]] = _SKIP
    bad, ints, floats = block.parse(kind)
    ids = np.flatnonzero(kind == _INT)
    v = ints[ids] - 1
    bad[ids[(v < 0) | (v >= n)]] = True
    if weighted:
        bad |= (kind == _FLOAT) & ~np.isfinite(floats)
    bad_lines = odd.copy()
    bad_lines[line[bad]] = True
    if bad_lines.any():
        k = int(np.argmax(bad_lines))
        if odd[k]:
            message = (f"vertex {int(vertex[k]) + 1} has odd token count "
                       "in weighted file")
        else:
            message = _token_message(block, bad, kind, k, "edge weight")
        return _line_error(path, block, k, message)
    # Keep each undirected edge once, from its lower endpoint (self-loops
    # once).
    u = vertex[line[ids]]
    w = floats[ids + 1] if weighted else np.ones(u.size, np.float64)
    keep = u <= v
    us.append(u[keep])
    vs.append(v[keep])
    ws.append(w[keep])
    return None


def write_metis(
    graph: CSRGraph, path, *, write_weights: bool = True, strict: bool = False
) -> None:
    """Write ``graph`` in METIS format (1-indexed, fmt=1 when weighted).

    The METIS specification requires *positive integer* edge weights.
    Integral weights are emitted as integers.  Fractional weights are, by
    default, written as-is with a :class:`UserWarning` — our own
    :func:`read_metis` accepts them, but standard METIS/DIMACS10 tooling
    will not.  With ``strict=True``, fractional weights are scaled by the
    smallest power of ten (up to ``1e6``) that makes every weight
    integral; if no such scale exists a :class:`GraphFormatError` is
    raised.  Scaling multiplies every weight uniformly, which leaves
    modularity (and hence community structure) unchanged but means the
    file does *not* round-trip to the original weights — see
    ``docs/io_formats.md``.
    """
    n = graph.num_vertices
    fmt = "1" if write_weights else "0"
    scale = 1.0
    integral = True
    if write_weights and graph.num_edges:
        w_all = graph.weights
        integral = bool(np.all(w_all == np.rint(w_all)))
        if not integral:
            if strict:
                for s in (10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
                    scaled = w_all * s
                    if np.allclose(scaled, np.rint(scaled), rtol=0.0,
                                   atol=1e-6):
                        scale, integral = s, True
                        break
                else:
                    raise GraphFormatError(
                        f"{path}: edge weights cannot be made integral by "
                        "a power-of-ten scale <= 1e6 (METIS requires "
                        "positive integer weights)"
                    )
            else:
                warnings.warn(
                    "write_metis: fractional edge weights violate the "
                    "METIS spec (positive integers); the file is readable "
                    "by repro.graph.io.read_metis but not by standard "
                    "METIS tooling. Pass strict=True to scale weights to "
                    "integers.",
                    UserWarning,
                    stacklevel=2,
                )
    with _open_text(path, "w") as fh:
        fh.write(f"{n} {graph.num_edges} {fmt}\n")
        for i in range(n):
            nbrs, ws = graph.neighbors(i)
            if write_weights:
                tokens = []
                for v, w in zip(nbrs.tolist(), ws.tolist()):
                    if integral:
                        tokens.append(f"{v + 1} {int(round(w * scale))}")
                    else:
                        tokens.append(f"{v + 1} {w:.17g}")
                fh.write(" ".join(tokens) + "\n")
            else:
                fh.write(" ".join(str(v + 1) for v in nbrs.tolist()) + "\n")


# ---------------------------------------------------------------------------
# Matrix Market (University of Florida sparse matrix collection format)
# ---------------------------------------------------------------------------
def read_matrix_market(path, *, combine: str = "error") -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    The UFL sparse matrix collection (the paper's source for
    Soc-LiveJournal1 and NLPKKT240) ships ``.mtx`` coordinate files.
    Supported headers: ``matrix coordinate (real|integer|pattern)
    (symmetric|general)``.  For ``general`` matrices the two triangles must
    agree (or pass ``combine`` to merge).  Entries are 1-indexed; diagonal
    entries become self-loops.
    """
    pattern = symmetry = rows = nnz = None
    us, vs, ws = [], [], []
    for block in _text_blocks(path, b"%"):
        entries = block.count > 0
        if symmetry is None:
            pattern, symmetry = _mm_header(path, block)
            entries &= block.lineno != 1
        if rows is None:
            size = np.flatnonzero(entries)
            if not size.size:
                continue
            k = int(size[0])
            rows, nnz = _mm_size(path, block, k)
            entries[:k + 1] = False
        line = block.line
        expected = 2 if pattern else 3
        arity = entries & (block.count < expected)
        pos = block.position()
        kind = np.full(pos.size, _SKIP, dtype=np.int8)
        kind[pos < 2] = _INT
        if not pattern:
            kind[pos == 2] = _FLOAT
        kind[~entries[line] | arity[line]] = _SKIP
        bad, ints, floats = block.parse(kind)
        bad |= (kind == _FLOAT) & ~np.isfinite(floats)
        outside = (kind == _INT) & ~bad & ((ints < 1) | (ints > rows))
        bad_lines = arity.copy()
        bad_lines[line[bad | outside]] = True
        if bad_lines.any():
            k = int(np.argmax(bad_lines))
            first = int(block.first[k])
            if arity[k]:
                message = f"bad entry line {block.text(k)!r}"
            else:
                message = _token_message(block, bad, kind, k, "matrix entry") \
                    or f"entry ({ints[first]}, {ints[first + 1]}) out of range"
            raise _line_error(path, block, k, message)
        first = block.first[entries]
        us.append(ints[first] - 1)
        vs.append(ints[first + 1] - 1)
        w = np.ones(first.size, np.float64) if pattern else np.abs(floats[first + 2])
        ws.append(w)
    if symmetry is None:
        raise GraphFormatError(f"{path}: not a MatrixMarket coordinate file")
    if rows is None:
        raise GraphFormatError(f"{path}: missing size line")
    u = np.concatenate(us) if us else np.zeros(0, np.int64)
    if u.size != nnz:
        raise GraphFormatError(
            f"{path}: header declares {nnz} entries, file has {u.size}"
        )
    if not u.size:
        return CSRGraph.empty(rows)
    v = np.concatenate(vs)
    w = np.concatenate(ws)
    keep = w > 0
    u, v, w = u[keep], v[keep], w[keep]
    with _graph_model_errors(path):
        if symmetry == "general":
            # Merge the two stored triangles into undirected edges.
            import scipy.sparse as sp

            matrix = sp.coo_array((w, (u, v)), shape=(rows, rows))
            return from_scipy_sparse(matrix, combine=combine)
        return from_edge_array(rows, np.column_stack([u, v]), w,
                               combine=combine)


def _mm_header(path, block: _TextBlock):
    """``(pattern, symmetry)`` from the banner on the file's first line."""
    header = block.physical_text(0).lower().split()
    if (len(header) < 5 or header[0] != "%%matrixmarket"
            or header[1] != "matrix" or header[2] != "coordinate"):
        raise GraphFormatError(f"{path}: not a MatrixMarket coordinate file")
    field, symmetry = header[3], header[4]
    if field not in ("real", "integer", "pattern"):
        raise GraphFormatError(f"{path}: unsupported field {field!r}")
    if symmetry not in ("symmetric", "general"):
        raise GraphFormatError(f"{path}: unsupported symmetry {symmetry!r}")
    return field == "pattern", symmetry


def _mm_size(path, block: _TextBlock, k: int):
    """``(rows, nnz)`` from the size line on content line ``k``."""
    parts = block.tokens(k) if block.count[k] == 3 else []
    if not parts or not all(_INT_TOKEN.fullmatch(t) for t in parts) \
            or int(parts[0]) < 0:
        raise _line_error(path, block, k, f"bad size line {block.text(k)!r}")
    rows, cols, nnz = (int(t) for t in parts)
    if rows != cols:
        raise _line_error(
            path, block, k, f"adjacency matrix must be square ({rows}x{cols})")
    return rows, nnz


def write_matrix_market(graph: CSRGraph, path) -> None:
    """Write ``graph`` as a symmetric real MatrixMarket coordinate file."""
    u, v, w = graph.edge_arrays()
    with _open_text(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"% repro graph: n={graph.num_vertices} M={graph.num_edges}\n")
        fh.write(f"{graph.num_vertices} {graph.num_vertices} {u.size}\n")
        # Symmetric format stores the lower triangle: row >= column.
        for a, b, c in zip(v.tolist(), u.tolist(), w.tolist()):
            fh.write(f"{a + 1} {b + 1} {c:.17g}\n")


# ---------------------------------------------------------------------------
# Binary round-trip
# ---------------------------------------------------------------------------
def save_csrz(graph: CSRGraph, path) -> None:
    """Save ``graph`` to a compressed ``.npz`` container at exactly ``path``.

    The archive is written through an open handle: given a bare path,
    :func:`numpy.savez_compressed` would append ``.npz`` to any other
    suffix (``g.csrz`` would land at ``g.csrz.npz``).
    """
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            indptr=graph.indptr,
            indices=graph.indices,
            weights=graph.weights,
            format_version=np.asarray([1], dtype=np.int64),
        )


def load_csrz(path) -> CSRGraph:
    """Load a graph previously written by :func:`save_csrz`.

    A file that is not an intact csrz archive — foreign bytes, a
    truncated or corrupt zip, missing arrays — raises
    :class:`GraphFormatError`.
    """
    # NumPy leaks the file it opened when the zip is unreadable; owning the
    # handle here closes it on every path.
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                version = int(data["format_version"][0])
                indptr = data["indptr"]
                indices = data["indices"]
                weights = data["weights"]
        except (ValueError, KeyError, IndexError, EOFError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise GraphFormatError(
                f"{path}: not a csrz container ({exc})"
            ) from exc
    if version != 1:
        raise GraphFormatError(f"{path}: unsupported csrz version {version}")
    return CSRGraph(indptr, indices, weights, validate=True)


# ---------------------------------------------------------------------------
# Format dispatch
# ---------------------------------------------------------------------------
def detect_format(path) -> str:
    """The format a file's suffix names: ``"csrz"`` (``.npz``/``.csrz``),
    ``"metis"`` (``.metis``/``.graph``), ``"mtx"`` (``.mtx``/``.mtx.gz``),
    else ``"edgelist"``."""
    lowered = str(path).lower()
    if lowered.endswith((".npz", ".csrz")):
        return "csrz"
    if lowered.endswith((".metis", ".graph")):
        return "metis"
    if lowered.endswith((".mtx", ".mtx.gz")):
        return "mtx"
    return "edgelist"


def read_graph(path, fmt: str = "auto") -> CSRGraph:
    """Read a graph file with the reader of ``fmt`` (by default the one
    :func:`detect_format` picks from the suffix)."""
    fmt = detect_format(path) if fmt == "auto" else fmt
    if fmt == "csrz":
        return load_csrz(path)
    if fmt == "metis":
        return read_metis(path)
    if fmt == "mtx":
        return read_matrix_market(path)
    if fmt == "edgelist":
        return read_edge_list(path)
    raise GraphFormatError(f"unknown graph format {fmt!r}")
