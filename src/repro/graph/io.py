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
import io as _io
import math
import warnings
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphFormatError

__all__ = [
    "read_edge_list",
    "read_matrix_market",
    "read_metis",
    "load_csrz",
    "save_csrz",
    "write_edge_list",
    "write_matrix_market",
    "write_metis",
]


def _open_text(path, mode: str):
    path = Path(path)
    # Read tolerantly: real-world Matrix Market / SNAP headers carry
    # non-ASCII comment text (author names, accented dataset titles), and
    # the old ascii codec crashed on the first such byte.  Undecodable
    # bytes only ever appear in comments, so replacement is lossless for
    # the numeric payload.  Writes stay strict UTF-8.
    errors = "replace" if "r" in mode else "strict"
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", errors=errors)
    return open(path, mode, encoding="utf-8", errors=errors)


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
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    saw_weight = False
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v [w]', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad token ({exc})") from exc
            if not math.isfinite(w):
                # "inf"/"nan" parse as valid floats but would poison
                # total_weight; reject at the source with the line number.
                raise GraphFormatError(
                    f"{path}:{lineno}: non-finite edge weight {parts[2]!r}"
                )
            if len(parts) == 3:
                saw_weight = True
            if not zero_indexed:
                u -= 1
                v -= 1
            us.append(u)
            vs.append(v)
            ws.append(w)
    if not us:
        return CSRGraph.empty(num_vertices or 0)
    edges = np.column_stack([np.asarray(us, np.int64), np.asarray(vs, np.int64)])
    if edges.min() < 0:
        raise GraphFormatError(f"{path}: negative vertex id after indexing shift")
    n = num_vertices if num_vertices is not None else int(edges.max()) + 1
    weights = np.asarray(ws, np.float64) if saw_weight else None
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
    non-loop edge in both endpoint lines.
    """
    with _open_text(path, "r") as fh:
        header = None
        lines: list[str] = []
        for raw in fh:
            stripped = raw.strip()
            if stripped.startswith("%"):
                continue
            if header is None:
                # Blank lines are only skippable before the header; after
                # it, an empty line is an isolated vertex's adjacency.
                if not stripped:
                    continue
                header = stripped
            else:
                lines.append(stripped)
    if header is None:
        raise GraphFormatError(f"{path}: empty METIS file")
    # A trailing newline produces one spurious empty tail line; drop only
    # genuinely trailing blanks beyond the declared vertex count later.
    head = header.split()
    if len(head) not in (2, 3):
        raise GraphFormatError(f"{path}: bad METIS header {header!r}")
    try:
        n, m_decl = int(head[0]), int(head[1])
        fmt = head[2] if len(head) == 3 else "0"
    except ValueError as exc:
        raise GraphFormatError(f"{path}: bad METIS header ({exc})") from exc
    if fmt not in ("0", "00", "1", "001"):
        raise GraphFormatError(
            f"{path}: unsupported METIS fmt {fmt!r} (vertex weights not supported)"
        )
    weighted = fmt in ("1", "001")
    while len(lines) > n and not lines[-1]:
        lines.pop()
    if len(lines) != n:
        raise GraphFormatError(
            f"{path}: header declares n={n} but file has {len(lines)} vertex lines"
        )

    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if weighted:
            if len(tokens) % 2 != 0:
                raise GraphFormatError(
                    f"{path}: vertex {i + 1} has odd token count in weighted file"
                )
            pairs = zip(tokens[0::2], tokens[1::2])
            for vtok, wtok in pairs:
                v = int(vtok) - 1
                if v < 0 or v >= n:
                    raise GraphFormatError(f"{path}: vertex id {vtok} out of range")
                # Keep each undirected edge once (from its lower endpoint;
                # self-loops once).
                w = float(wtok)
                if not math.isfinite(w):
                    raise GraphFormatError(
                        f"{path}: vertex {i + 1} has non-finite edge "
                        f"weight {wtok!r}"
                    )
                if i <= v:
                    us.append(i)
                    vs.append(v)
                    ws.append(w)
        else:
            for vtok in tokens:
                v = int(vtok) - 1
                if v < 0 or v >= n:
                    raise GraphFormatError(f"{path}: vertex id {vtok} out of range")
                if i <= v:
                    us.append(i)
                    vs.append(v)
                    ws.append(1.0)
    edges = np.column_stack(
        [np.asarray(us, np.int64), np.asarray(vs, np.int64)]
    ) if us else np.zeros((0, 2), np.int64)
    g = from_edge_array(n, edges, np.asarray(ws, np.float64), combine=combine)
    if g.num_edges != m_decl:
        raise GraphFormatError(
            f"{path}: header declares m={m_decl} edges but adjacency lists "
            f"contain {g.num_edges}"
        )
    return g


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
    with _open_text(path, "r") as fh:
        header = fh.readline().strip().lower().split()
        if (len(header) < 5 or header[0] != "%%matrixmarket"
                or header[1] != "matrix" or header[2] != "coordinate"):
            raise GraphFormatError(
                f"{path}: not a MatrixMarket coordinate file"
            )
        field, symmetry = header[3], header[4]
        if field not in ("real", "integer", "pattern"):
            raise GraphFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("symmetric", "general"):
            raise GraphFormatError(
                f"{path}: unsupported symmetry {symmetry!r}"
            )
        size_line = None
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise GraphFormatError(f"{path}: missing size line")
        parts = size_line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"{path}: bad size line {size_line!r}")
        rows, cols, nnz = (int(p) for p in parts)
        if rows != cols:
            raise GraphFormatError(
                f"{path}: adjacency matrix must be square ({rows}x{cols})"
            )
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        count = 0
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            tokens = stripped.split()
            expected = 2 if field == "pattern" else 3
            if len(tokens) < expected:
                raise GraphFormatError(
                    f"{path}: bad entry line {stripped!r}"
                )
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            w = 1.0 if field == "pattern" else float(tokens[2])
            if not math.isfinite(w):
                raise GraphFormatError(
                    f"{path}:{lineno}: non-finite matrix entry "
                    f"{tokens[2]!r}"
                )
            if not (0 <= i < rows and 0 <= j < rows):
                raise GraphFormatError(
                    f"{path}: entry ({i + 1}, {j + 1}) out of range"
                )
            us.append(i)
            vs.append(j)
            ws.append(abs(w) if w != 0 else 0.0)
            count += 1
        if count != nnz:
            raise GraphFormatError(
                f"{path}: header declares {nnz} entries, file has {count}"
            )
    if not us:
        return CSRGraph.empty(rows)
    u = np.asarray(us, np.int64)
    v = np.asarray(vs, np.int64)
    w = np.asarray(ws, np.float64)
    keep = w > 0
    u, v, w = u[keep], v[keep], w[keep]
    if symmetry == "general":
        # Merge the two stored triangles into undirected edges.
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        dup = np.zeros(lo.size, dtype=bool)
        dup[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        starts = np.flatnonzero(~dup)
        if combine == "error":
            counts = np.diff(np.append(starts, lo.size))
            if np.any(counts > 2):
                raise GraphFormatError(
                    f"{path}: an entry is stored more than twice"
                )
            second = starts + 1
            twice = counts == 2
            if np.any(twice) and not np.array_equal(
                w[starts][twice], w[second[twice]]
            ):
                raise GraphFormatError(
                    f"{path}: asymmetric weights (pass combine= to merge)"
                )
            u, v, w = lo[starts], hi[starts], w[starts]
        else:
            from repro.graph.build import _COMBINERS

            merged = _COMBINERS[combine].reduceat(w, starts)
            u, v, w = lo[starts], hi[starts], merged
    edges = np.column_stack([u, v])
    return from_edge_array(rows, edges, w, combine=combine)


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
