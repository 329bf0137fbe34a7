"""Compressed-sparse-row storage for undirected weighted graphs.

This is the substrate every algorithm in the package runs on.  It mirrors
the storage the paper describes in §5.5: all adjacency lists live in one
contiguous pair of arrays (``indices``, ``weights``) with a per-vertex
pointer array (``indptr``), enabling cache-friendly neighborhood scans and
fully vectorized per-edge kernels.

Conventions (following §2 of the paper exactly):

* The graph is undirected and weighted with strictly positive weights; an
  unweighted input is treated as all-ones.
* Self-loops ``(i, i)`` are allowed; multi-edges are not (builders either
  reject or merge them, see :mod:`repro.graph.build`).
* Each undirected edge ``{i, j}`` with ``i != j`` is stored twice (once in
  each endpoint's row); a self-loop is stored once, in its own row.
* The weighted degree ``k_i`` is the row sum, so a self-loop's weight counts
  **once** in ``k_i`` — this is the paper's ``k_i = sum_{j in Γ(i)} ω(i,j)``
  with ``Γ(i)`` containing ``i`` itself at most once.
* ``m = (1/2) * sum_i k_i`` is the total edge-weight normalizer of Eq. 3.

Rows are kept sorted by neighbor id, which makes edge lookup a binary
search, equality comparison trivial, and all derived quantities
deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.utils.errors import GraphStructureError

__all__ = ["CSRGraph", "gather_rows"]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64
#: Weight dtypes preserved as-is; anything else is coerced to float64.
_ALLOWED_WEIGHT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


class CSRGraph:
    """An immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``(n + 1,)`` int array; row ``i`` occupies ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``(nnz,)`` int array of neighbor ids.  Each undirected non-loop edge
        appears in both endpoint rows; a self-loop appears once.
    weights:
        ``(nnz,)`` float array of strictly positive edge weights, aligned
        with ``indices``.  ``None`` means unweighted (all ones).
    validate:
        When true (the default), check structural invariants: monotone
        ``indptr``, ids in range, positive weights, sorted duplicate-free
        rows, and symmetry of both adjacency and weights.

    Notes
    -----
    Instances are treated as immutable: the underlying arrays are set
    read-only so accidental in-place mutation by algorithm code fails loudly
    instead of corrupting shared state across phases.
    """

    __slots__ = ("indptr", "indices", "weights", "_degrees", "_m",
                 "_num_self_loops", "_row_view")

    def __init__(self, indptr, indices, weights=None, *, validate: bool = True):
        indptr = np.ascontiguousarray(indptr, dtype=_INDEX_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=_INDEX_DTYPE)
        if weights is None:
            weights = np.ones(indices.shape[0], dtype=_WEIGHT_DTYPE)
        else:
            # float32 is preserved (the sweep kernels' scratch follows the
            # weight dtype, halving accumulator traffic); everything else
            # is coerced to the canonical float64.
            weights = np.ascontiguousarray(weights)
            if weights.dtype not in _ALLOWED_WEIGHT_DTYPES:
                weights = np.ascontiguousarray(weights, dtype=_WEIGHT_DTYPE)

        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphStructureError("indptr must be a 1-D array of length n+1 >= 1")
        if indices.ndim != 1 or weights.ndim != 1:
            raise GraphStructureError("indices and weights must be 1-D arrays")
        if indices.shape != weights.shape:
            raise GraphStructureError(
                f"indices ({indices.shape[0]}) and weights ({weights.shape[0]}) "
                "must have equal length"
            )

        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._degrees: np.ndarray | None = None
        self._m: float | None = None
        self._num_self_loops: int | None = None
        self._row_view = None

        if validate:
            self._validate()

        for arr in (self.indptr, self.indices, self.weights):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: "Sequence[tuple[int, int]] | np.ndarray",
        weights: "Sequence[float] | np.ndarray | None" = None,
        *,
        combine: str = "error",
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Parameters
        ----------
        num_vertices:
            Number of vertices ``n``; edge endpoints must lie in ``[0, n)``.
        edges:
            Sequence of ``(u, v)`` pairs or an ``(M, 2)`` integer array.
            Order within a pair is irrelevant; the graph is symmetrized.
        weights:
            Optional per-edge weights (default: all ones).
        combine:
            What to do with duplicate ``{u, v}`` pairs: ``"error"`` (reject,
            the paper disallows multi-edges), ``"sum"``, ``"min"``, or
            ``"max"`` (merge them).

        Examples
        --------
        >>> g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        >>> g.num_vertices, g.num_edges
        (3, 2)
        """
        from repro.graph.build import from_edge_array  # local import: avoid cycle

        return from_edge_array(num_vertices, edges, weights, combine=combine)

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        if num_vertices < 0:
            raise GraphStructureError("num_vertices must be non-negative")
        return cls(
            np.zeros(num_vertices + 1, dtype=_INDEX_DTYPE),
            np.zeros(0, dtype=_INDEX_DTYPE),
            np.zeros(0, dtype=_WEIGHT_DTYPE),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_vertices
        indptr, indices, weights = self.indptr, self.indices, self.weights

        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise GraphStructureError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for nnz={indices.shape[0]})"
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphStructureError("indptr must be non-decreasing")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise GraphStructureError("neighbor ids out of range [0, n)")
            if not np.all(np.isfinite(weights)):
                # Checked before the sign: np.inf passes `> 0`, then
                # total_weight goes inf and modularity NaN downstream.
                raise GraphStructureError(
                    "edge weights must be finite (NaN/inf would poison "
                    "total_weight and every modularity computation)"
                )
            if not np.all(weights > 0):
                raise GraphStructureError(
                    "edge weights must be strictly positive (paper §2)"
                )
        # Rows sorted, no duplicates within a row.
        row_of = self.row_of_entry()
        if indices.size:
            same_row = row_of[1:] == row_of[:-1]
            if np.any(same_row & (indices[1:] <= indices[:-1])):
                raise GraphStructureError(
                    "adjacency rows must be strictly increasing "
                    "(sorted, duplicate-free neighbor lists)"
                )
        # Symmetry of structure and weights.  Rows are sorted and
        # duplicate-free, so the transpose (SciPy's CSR->CSC conversion, a
        # counting pass in C whose columns come out sorted) is the same CSR
        # triple iff the graph is symmetric: O(n + E), no sort.
        import scipy.sparse as sp

        transpose = sp.csr_array((weights, indices, indptr), shape=(n, n)).tocsc()
        if not (
            np.array_equal(transpose.indptr, indptr)
            and np.array_equal(transpose.indices, indices)
            and np.array_equal(transpose.data, weights)
        ):
            raise GraphStructureError(
                "adjacency (or its weights) is not symmetric"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.shape[0] - 1)

    @property
    def num_entries(self) -> int:
        """Number of stored CSR entries (non-loop edges count twice)."""
        return int(self.indices.shape[0])

    @property
    def num_self_loops(self) -> int:
        """Number of self-loop edges."""
        if self._num_self_loops is None:
            self._num_self_loops = int(
                np.count_nonzero(self.indices == self.row_of_entry())
            )
        return self._num_self_loops

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``M`` (self-loops count once)."""
        return (self.num_entries - self.num_self_loops) // 2 + self.num_self_loops

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degrees ``k_i`` (row sums; self-loop weight counted once).

        The array follows the weight dtype (``np.bincount`` accumulates in
        float64 either way, so float32 degrees are the rounded exact sums).
        """
        if self._degrees is None:
            self._degrees = np.bincount(
                self.row_of_entry(),
                weights=self.weights,
                minlength=self.num_vertices,
            ).astype(self.weights.dtype)
            self._degrees.setflags(write=False)
        return self._degrees

    @property
    def unweighted_degrees(self) -> np.ndarray:
        """Number of adjacency entries per row (self-loop counts once)."""
        return np.diff(self.indptr)

    @property
    def total_weight(self) -> float:
        """``m = (1/2) * sum_i k_i``, the normalizer of Eq. 3."""
        if self._m is None:
            self._m = float(self.weights.sum()) / 2.0
        return self._m

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def row_of_entry(self) -> np.ndarray:
        """For each CSR entry, the vertex whose row it belongs to.

        This is the standard "expand indptr" trick: an ``(nnz,)`` array ``r``
        with ``r[e] = i`` iff ``indptr[i] <= e < indptr[i+1]``.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=_INDEX_DTYPE),
            np.diff(self.indptr),
        )

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views for vertex ``v``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def degree(self, v: int) -> float:
        """Weighted degree of a single vertex."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return float(self.weights[lo:hi].sum())

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``, or ``0.0`` if absent."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        row = self.indices[lo:hi]
        pos = int(np.searchsorted(row, v))
        if pos < row.size and row[pos] == v:
            return float(self.weights[lo + pos])
        return 0.0

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` exists."""
        return self.edge_weight(u, v) > 0.0

    def self_loop_weight(self, v: int) -> float:
        """Weight of the self-loop at ``v`` (0.0 if none)."""
        return self.edge_weight(v, v)

    def self_loop_weights(self) -> np.ndarray:
        """Per-vertex self-loop weights as an ``(n,)`` array."""
        out = np.zeros(self.num_vertices, dtype=self.weights.dtype)
        loops = self.indices == self.row_of_entry()
        np.add.at(out, self.indices[loops], self.weights[loops])
        return out

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate undirected edges once each as ``(u, v, w)`` with ``u <= v``."""
        row_of = self.row_of_entry()
        keep = row_of <= self.indices
        for u, v, w in zip(
            row_of[keep].tolist(), self.indices[keep].tolist(), self.weights[keep].tolist()
        ):
            yield u, v, w

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list as arrays ``(u, v, w)`` with ``u <= v``."""
        row_of = self.row_of_entry()
        keep = row_of <= self.indices
        return row_of[keep], self.indices[keep], self.weights[keep]

    @property
    def row_view(self):
        """The adjacency as a ``scipy.sparse.csr_matrix``, for row gathers.

        ``graph.row_view[vertices]`` is SciPy's C row gather
        (``csr_row_index``): a ``(len(vertices), n)`` CSR block whose
        ``indices``/``data`` are the rows of ``vertices``, in that order,
        entry for entry as stored here (self-loops included), with an
        ``indptr`` over the rows.  The gather releases the GIL.

        Built on first use and cached: ``data`` shares :attr:`weights`,
        SciPy keeps its own index copies (int32 wherever they fit), and
        every array is read-only.  Concurrent first calls may each build
        a view; they are identical and the last one is kept.  The view is
        neither pickled nor compared.
        """
        view = self._row_view
        if view is None:
            import scipy.sparse as sp

            n = self.num_vertices
            view = sp.csr_matrix((self.weights, self.indices, self.indptr),
                                 shape=(n, n))
            view.indices.setflags(write=False)
            view.indptr.setflags(write=False)
            self._row_view = view
        return view

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Return the adjacency as a ``scipy.sparse.csr_array``.

        Self-loops keep their stored (single-count) weight on the diagonal.
        """
        import scipy.sparse as sp

        return sp.csr_array(
            (self.weights.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    @classmethod
    def from_scipy(cls, matrix, *, combine: str = "error") -> "CSRGraph":
        """Build from any SciPy sparse matrix (symmetrized if needed)."""
        from repro.graph.build import from_scipy_sparse

        return from_scipy_sparse(matrix, combine=combine)

    def to_networkx(self):
        """Return a :class:`networkx.Graph` with ``weight`` edge attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_weighted_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, graph, *, weight: str = "weight") -> "CSRGraph":
        """Build from a :class:`networkx.Graph` (nodes are relabeled 0..n-1)."""
        from repro.graph.build import from_networkx_graph

        return from_networkx_graph(graph, weight=weight)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_vertices}, M={self.num_edges}, "
            f"m={self.total_weight:g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __getstate__(self):
        # The row view is a cache rebuilt on demand; pickling it would
        # ship a second copy of the index arrays.
        return None, {slot: getattr(self, slot) for slot in self.__slots__
                      if slot != "_row_view"}

    def __setstate__(self, state):
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self._row_view = None

    def __hash__(self) -> int:  # immutable by convention, but arrays aren't hashable
        return hash((self.num_vertices, self.num_entries, self.total_weight))

    @property
    def nbytes(self) -> int:
        """Bytes held by the three CSR arrays — the O(m + n) storage of
        §5.6 (cached degree arrays excluded; they are recomputable)."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes
        )

    def is_isolated(self, v: int) -> bool:
        """True when ``v`` has no incident edges (not even a self-loop)."""
        return self.indptr[v] == self.indptr[v + 1]

    def isolated_vertices(self) -> np.ndarray:
        """Ids of all isolated vertices."""
        return np.flatnonzero(self.unweighted_degrees == 0)


def gather_rows(graph: CSRGraph, vertices: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Entry positions of all CSR rows in ``vertices``.

    Returns ``(positions, owner)`` where ``positions`` indexes
    ``graph.indices``/``graph.weights`` and ``owner[e]`` is the index into
    ``vertices`` owning entry ``e``.
    """
    indptr = graph.indptr
    starts = indptr[vertices]
    lengths = (indptr[vertices + 1] - starts).astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    owner = np.repeat(np.arange(len(vertices), dtype=np.int64), lengths)
    ends = np.cumsum(lengths)
    local = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    positions = np.repeat(starts, lengths) + local
    return positions, owner
