"""The per-token text readers the byte-scanning readers in
:mod:`repro.graph.io` replaced, kept verbatim as test oracles.

They read the file as text (universal newlines, UTF-8 with replacement),
split every line with ``str.split`` and convert every token with
``int``/``float``.  Known divergences from the new readers are listed in
``test_io_differential.DIVERGENCES``.
"""

from __future__ import annotations

import gzip
import math
from pathlib import Path

import numpy as np

from repro.graph.build import _COMBINERS, from_edge_array
from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphFormatError


def _open_text(path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", errors="replace")
    return open(path, mode, encoding="utf-8", errors="replace")


def oracle_edge_list(
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


def oracle_metis(path, *, combine: str = "error") -> CSRGraph:
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


def oracle_matrix_market(path, *, combine: str = "error") -> CSRGraph:
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
            merged = _COMBINERS[combine].reduceat(w, starts)
            u, v, w = lo[starts], hi[starts], merged
    edges = np.column_stack([u, v])
    return from_edge_array(rows, edges, w, combine=combine)
