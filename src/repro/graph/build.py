"""Graph construction: edge-list ingestion, incremental builder, converters.

The paper's input model (§2) allows self-loops but forbids multi-edges, so
all builders either reject duplicate ``{u, v}`` pairs or merge them with an
explicit ``combine`` policy.  Symmetrization, deduplication and CSR assembly
are one vectorized pass: a single stable ``argsort`` of the directed
entries on the key ``src * n + dst`` orders every row and brings duplicate
entries together, with no per-edge Python loop.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import GraphStructureError

__all__ = [
    "GraphBuilder",
    "from_edge_array",
    "from_networkx_graph",
    "from_scipy_sparse",
]

_COMBINERS = {"sum": np.add, "min": np.minimum, "max": np.maximum}

#: Largest vertex count whose sort key ``src * n + dst`` fits in int64.
#: Its ``indptr`` alone would take 24 GB, so nothing larger is a real input.
MAX_VERTICES = math.isqrt(int(np.iinfo(np.int64).max))


def _assemble_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    combine: str,
) -> CSRGraph:
    """Assemble a validated CSR graph from *directed* entry triples.

    ``src``/``dst``/``w`` must already contain both orientations of every
    non-loop edge and exactly one entry per self-loop.  Duplicate ``(src,
    dst)`` entries are merged per ``combine`` (or rejected for
    ``combine='error'``).
    """
    if combine != "error" and combine not in _COMBINERS:
        raise ValueError(f"unknown combine policy: {combine!r}")
    if num_vertices > MAX_VERTICES:
        raise GraphStructureError(
            f"num_vertices={num_vertices} exceeds the supported maximum "
            f"{MAX_VERTICES}"
        )

    if src.size == 0:
        return CSRGraph.empty(num_vertices)

    if src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= num_vertices:
        raise GraphStructureError(
            f"edge endpoints out of range [0, {num_vertices})"
        )
    if not np.all(w > 0):
        raise GraphStructureError("edge weights must be strictly positive")

    # One stable sort on the row-major key: rows come out sorted, and the
    # entries of a duplicate run keep their input order, so a 'sum' merge
    # adds them in the same order every time.
    order = np.argsort(src * num_vertices + dst, kind="stable")
    src, dst, w = src[order], dst[order], w[order]

    dup = np.zeros(src.size, dtype=bool)
    dup[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if dup.any():
        if combine == "error":
            e = int(np.flatnonzero(dup)[0])
            raise GraphStructureError(
                f"multi-edge detected between {int(src[e])} and {int(dst[e])} "
                "(pass combine='sum'/'min'/'max' to merge)"
            )
        # Collapse duplicate runs with the requested ufunc.
        starts = np.flatnonzero(~dup)
        merged_w = _COMBINERS[combine].reduceat(w, starts)
        src, dst, w = src[starts], dst[starts], merged_w

    counts = np.bincount(src, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst, w, validate=True)


def from_edge_array(
    num_vertices: int,
    edges,
    weights=None,
    *,
    combine: str = "error",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an undirected edge list.

    See :meth:`CSRGraph.from_edges` for parameter semantics.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphStructureError("edges must be an (M, 2) array of pairs")
    m = edges.shape[0]
    if weights is None:
        w = np.ones(m, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise GraphStructureError(
                f"weights must have shape ({m},), got {w.shape}"
            )

    u, v = edges[:, 0], edges[:, 1]
    # Canonicalize pair orientation before duplicate detection so (u, v) and
    # (v, u) in the input are recognized as the same undirected edge.
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    loops = lo == hi
    # Directed expansion: both orientations of non-loops, loops once.
    src = np.concatenate([lo, hi[~loops]])
    dst = np.concatenate([hi, lo[~loops]])
    ww = np.concatenate([w, w[~loops]])
    # A duplicated undirected pair duplicates its directed entries too, and
    # the first duplicate in (src, dst) order is the first in (lo, hi)
    # order, so the assembly's duplicate check names the same pair.
    return _assemble_csr(num_vertices, src, dst, ww, combine)


def from_scipy_sparse(matrix, *, combine: str = "error") -> CSRGraph:
    """Build from a SciPy sparse matrix.

    A symmetric matrix is taken as-is (upper triangle + diagonal define the
    edges).  An asymmetric matrix is symmetrized by keeping every stored
    ``(i, j)`` entry as an undirected edge and merging conflicting weights
    per ``combine`` (``'error'`` rejects conflicts).
    """
    import scipy.sparse as sp

    mat = sp.coo_array(matrix)
    if mat.shape[0] != mat.shape[1]:
        raise GraphStructureError("adjacency matrix must be square")
    n = mat.shape[0]
    i, j, w = mat.row.astype(np.int64), mat.col.astype(np.int64), mat.data.astype(np.float64)
    keep = w != 0
    i, j, w = i[keep], j[keep], w[keep]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # Merge the two triangles: a symmetric matrix yields each edge twice with
    # equal weight; 'error' tolerates exact duplicates but rejects conflicts.
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    dup = np.zeros(lo.size, dtype=bool)
    dup[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    starts = np.flatnonzero(~dup)
    if combine == "error":
        counts = np.diff(np.append(starts, lo.size))
        if np.any(counts > 2):
            raise GraphStructureError("matrix stores an edge more than twice")
        first_w = w[starts]
        # For pairs stored twice the weights must agree.
        second = starts + 1
        twice = counts == 2
        if np.any(twice) and not np.allclose(
            first_w[twice], w[second[twice]], rtol=0, atol=0
        ):
            raise GraphStructureError(
                "asymmetric weights in matrix (pass combine= to merge)"
            )
        lo, hi, w = lo[starts], hi[starts], first_w
    else:
        ufunc = _COMBINERS[combine]
        merged = ufunc.reduceat(w, starts)
        lo, hi, w = lo[starts], hi[starts], merged

    loops = lo == hi
    src = np.concatenate([lo, hi[~loops]])
    dst = np.concatenate([hi, lo[~loops]])
    ww = np.concatenate([w, w[~loops]])
    return _assemble_csr(n, src, dst, ww, "sum")


def from_networkx_graph(graph, *, weight: str = "weight") -> CSRGraph:
    """Build from an undirected :class:`networkx.Graph`.

    Nodes are relabeled to ``0..n-1`` in ``graph.nodes`` iteration order;
    missing ``weight`` attributes default to 1.0.
    """
    nodes = list(graph.nodes)
    index = {node: k for k, node in enumerate(nodes)}
    m = graph.number_of_edges()
    edges = np.empty((m, 2), dtype=np.int64)
    w = np.empty(m, dtype=np.float64)
    for e, (u, v, data) in enumerate(graph.edges(data=True)):
        edges[e, 0] = index[u]
        edges[e, 1] = index[v]
        w[e] = float(data.get(weight, 1.0))
    return from_edge_array(len(nodes), edges, w, combine="error")


class GraphBuilder:
    """Incrementally accumulate edges, then assemble a :class:`CSRGraph`.

    The builder buffers edges in Python lists (amortized O(1) appends) and
    defers all symmetrization/deduplication to one vectorized pass in
    :meth:`build`.

    Parameters
    ----------
    num_vertices:
        Fixed vertex count, or ``None`` to size the graph to
        ``max endpoint + 1`` at build time.

    Examples
    --------
    >>> b = GraphBuilder(4)
    >>> b.add_edge(0, 1).add_edge(1, 2, 2.5).add_edge(3, 3)
    GraphBuilder(n=4, buffered_edges=3)
    >>> g = b.build()
    >>> g.num_edges
    3
    """

    def __init__(self, num_vertices: int | None = None):
        if num_vertices is not None and num_vertices < 0:
            raise GraphStructureError("num_vertices must be non-negative")
        self._n = num_vertices
        self._us: list[int] = []
        self._vs: list[int] = []
        self._ws: list[float] = []

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> "GraphBuilder":
        """Buffer one undirected edge ``{u, v}`` (``u == v`` is a self-loop)."""
        if u < 0 or v < 0:
            raise GraphStructureError("vertex ids must be non-negative")
        if weight <= 0:
            raise GraphStructureError("edge weights must be strictly positive")
        self._us.append(int(u))
        self._vs.append(int(v))
        self._ws.append(float(weight))
        return self

    def add_edges(
        self,
        pairs: Iterable[tuple[int, int]],
        weights: "Sequence[float] | None" = None,
    ) -> "GraphBuilder":
        """Buffer many edges at once."""
        pairs = list(pairs)
        if weights is None:
            for u, v in pairs:
                self.add_edge(u, v)
        else:
            weights = list(weights)
            if len(weights) != len(pairs):
                raise GraphStructureError("weights length must match pairs length")
            for (u, v), w in zip(pairs, weights):
                self.add_edge(u, v, w)
        return self

    @property
    def buffered_edges(self) -> int:
        """Number of edges buffered so far."""
        return len(self._us)

    def build(self, *, combine: str = "error") -> CSRGraph:
        """Assemble the buffered edges into a validated :class:`CSRGraph`."""
        if self.buffered_edges == 0:
            return CSRGraph.empty(self._n or 0)
        edges = np.column_stack(
            [np.asarray(self._us, dtype=np.int64), np.asarray(self._vs, dtype=np.int64)]
        )
        n = self._n if self._n is not None else int(edges.max()) + 1
        return from_edge_array(
            n, edges, np.asarray(self._ws, dtype=np.float64), combine=combine
        )

    def __repr__(self) -> str:
        n = self._n if self._n is not None else "?"
        return f"GraphBuilder(n={n}, buffered_edges={self.buffered_edges})"
