"""Reusable sweep workspaces and the e_{v→C} aggregation paths.

The inner loop of every phase repeats two structural computations:

* **row gathering** — cutting the active vertices' rows out of the graph.
  A :class:`GatherPlan` is one CSR row block, :func:`row_block` of
  ``rows`` (SciPy's C ``csr_row_index``, called directly), where
  ``rows`` is the graph's row view without self-loops
  (:func:`loop_free_rows`).  The workspace builds
  that view once per phase — for a loop-free graph it is the graph's
  cached :attr:`~repro.graph.csr.CSRGraph.row_view` itself, otherwise
  one O(E) compress — so no plan strips loops.  It also caches the plan
  per swept set, so a set that repeats (full sweeps, the color sets of
  §5.2) is gathered once per phase;
* **neighbor-weight aggregation** — reducing the block's entries into the
  per-(vertex, community) totals ``e_{v→C}`` of Eq. 4.

The seed kernel paid an ``O(E log E)`` ``argsort`` for the aggregation on
every sweep.  This module provides two ``O(E)`` alternatives and picks
between the three automatically:

``"bincount"``
    One :func:`numpy.bincount` over the compact key ``owner·(n+1) + C``.
    Linear in the key range, so it is only chosen when
    ``|active|·(n+1)`` is within a small constant of the active edge
    count (dense small graphs, shrunken frontiers, coarse phases).
``"matmul"``
    The §5.5 pre-aggregation as a sparse matrix product: with ``A`` the
    plan's row block and ``S`` the one-hot community indicator, ``A @ S``
    *is* the ``e_{v→C}`` table.  SciPy's SMMP kernel runs in ``O(n + E)``
    with a dense scatter-accumulator in C — the vectorized equivalent of
    the paper's per-thread hash accumulation.  It is one call to SciPy's
    private C ``csr_matmat``, the routine ``@`` runs after a sizing pass
    this path skips: each row of ``S`` holds one entry, so ``nnz(A)``
    bounds the product.
``"sort"``
    The seed ``argsort`` + segmented-reduction path, kept as the
    differential-testing baseline.

All three return the same pair set in one format, a CSR-style block over
the active vertices (see :func:`aggregate_pairs`), from whose
``pair_indptr`` the sweep kernel's gain and selection tail expands each
pair's owner; the kernels are exchangeable and differentially tested
against ``compute_targets_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse as _sparse
from scipy.sparse._sparsetools import csr_matmat as _csr_matmat
from scipy.sparse._sparsetools import csr_row_index as _csr_row_index

from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.arrays import run_boundaries
from repro.utils.errors import ValidationError

__all__ = [
    "AGGREGATIONS",
    "GatherPlan",
    "RowBlock",
    "SweepWorkspace",
    "aggregate_pairs",
    "build_plan",
    "loop_free_rows",
    "row_block",
]

#: Recognized aggregation modes (``"auto"`` resolves per call).
AGGREGATIONS = ("auto", "sort", "bincount", "matmul")


class RowBlock(NamedTuple):
    """Rows cut out of a CSR matrix by :func:`row_block`: the arrays and
    shape of SciPy's CSR row block, without its constructor's checks."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


def row_block(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
              vertices: np.ndarray, num_cols: int) -> RowBlock:
    """Rows ``vertices`` of the CSR triple ``(indptr, indices, data)``.

    One call to SciPy's C ``csr_row_index``, the routine behind
    ``matrix[vertices]``: the same entries in the same order, in the
    triple's index dtype, for a fraction of the fancy index's fixed cost
    (about 7 µs against 42 µs for ten rows).  The C routine copies rows
    without bounds checks, so ``vertices`` must be row ids, and
    ``indptr`` and ``indices`` share one index dtype.
    """
    vertices = vertices.astype(indptr.dtype, copy=False)
    block_indptr = np.zeros(vertices.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr.take(vertices + 1) - indptr.take(vertices),
              out=block_indptr[1:])
    nnz = int(block_indptr[-1])
    cols = np.empty(nnz, dtype=indptr.dtype)
    vals = np.empty(nnz, dtype=data.dtype)
    _csr_row_index(vertices.size, vertices, indptr, indices, data,
                   cols, vals)
    return RowBlock(block_indptr, cols, vals, (vertices.size, num_cols))


@dataclass
class GatherPlan:
    """Static per-vertex-set structure reused across a phase's sweeps.

    Everything here depends only on the graph and the vertex set — not on
    the community state — so one plan serves every iteration that sweeps
    the same set.  The rows are a CSR block cut from the graph's
    :func:`loop_free_rows` (a self-loop moves with its vertex and cancels
    in Eq. 4).
    """

    #: The vertex set the plan was built for (used to validate cache hits).
    vertices: np.ndarray
    #: ``(|vertices|, n)`` row block — a :class:`RowBlock`, or for the
    #: full vertex range the loop-free view itself: row ``i`` holds the
    #: non-loop entries of ``vertices[i]`` in CSR order.
    block: object
    #: Weighted degree of each vertex in ``vertices``.
    degrees: np.ndarray
    #: Total CSR entries of the gathered rows (loops included) — the
    #: per-iteration edge-work counter of §5.6.
    num_entries: int
    #: Lazily built :attr:`owner` and :attr:`dst` (the matmul path reads
    #: the block itself and never needs them).
    _owner: "np.ndarray | None" = field(default=None, repr=False)
    _dst: "np.ndarray | None" = field(default=None, repr=False)

    @property
    def owner(self) -> np.ndarray:
        """Index into ``vertices`` owning each block entry (int64)."""
        if self._owner is None:
            self._owner = np.repeat(
                np.arange(self.vertices.size, dtype=np.int64),
                np.diff(self.block.indptr),
            )
        return self._owner

    @property
    def dst(self) -> np.ndarray:
        """Neighbor vertex of each block entry (int64: NumPy indexes with
        int32 arrays several times slower than with intp ones)."""
        if self._dst is None:
            self._dst = self.block.indices.astype(np.int64)
        return self._dst

    @property
    def weights(self) -> np.ndarray:
        """Weight of each block entry."""
        return self.block.data


def loop_free_rows(graph: CSRGraph):
    """``graph.row_view`` without its self-loops: the rows plans gather from.

    A self-loop moves with its vertex and cancels in Eq. 4, so the sweep
    never reads one.  A loop-free graph's view is ``graph.row_view``
    itself; otherwise one O(E) index compress builds a read-only copy.
    The copy belongs to its caller — a :class:`SweepWorkspace` holds it
    for one phase — and is never cached on the graph, which a result can
    keep alive long after its phase.
    """
    view = graph.row_view
    if not graph.num_self_loops:
        return view
    # Rows are duplicate-free, so each row loses at most its one loop:
    # the loops before a row start shift that start back.
    loop = view.indices == graph.row_of_entry()
    loops = np.flatnonzero(loop)
    keep = np.flatnonzero(~loop)
    indptr = view.indptr - np.searchsorted(loops, view.indptr).astype(
        view.indptr.dtype)
    rows = _sparse.csr_matrix(
        (view.data.take(keep), view.indices.take(keep), indptr),
        shape=view.shape)
    for arr in (rows.data, rows.indices, rows.indptr):
        arr.setflags(write=False)
    return rows


@snapshot_kernel("graph")
def build_plan(graph: CSRGraph, vertices: np.ndarray,
               rows=None) -> GatherPlan:
    """Build the gather plan for one vertex set: one :func:`row_block`
    of ``rows``, the graph's :func:`loop_free_rows` (built here when not
    given — callers that plan repeatedly pass the one they hold).  The
    full vertex range needs no gather: its block is ``rows`` itself, so
    a full sweep holds no second copy of the adjacency."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if rows is None:
        rows = loop_free_rows(graph)
    n = graph.num_vertices
    if vertices.size == n and np.array_equal(
            vertices, np.arange(n, dtype=np.int64)):
        block = rows
    else:
        block = row_block(rows.indptr, rows.indices, rows.data, vertices, n)
    num_entries = block.nnz
    if graph.num_self_loops:
        indptr = graph.indptr
        num_entries = int((indptr[vertices + 1] - indptr[vertices]).sum())
    return GatherPlan(
        vertices=vertices,
        block=block,
        degrees=graph.degrees[vertices],
        num_entries=num_entries,
    )


def resolve_aggregation(mode: str, num_active: int, n: int,
                        num_pairs: int) -> str:
    """Pick the concrete aggregation path for one sweep of ``num_active``
    vertices with ``num_pairs`` loop-free entries.

    The bincount path costs O(key range); it is linear overall only when
    ``num_active·(n+1)`` stays within a small multiple of the entry count,
    which holds for small/coarse graphs and shrunken frontiers.  Otherwise
    the sparse-matmul path is O(n + E).
    """
    if mode != "auto":
        return mode
    key_range = num_active * (n + 1)
    if key_range <= max(1 << 16, 8 * num_pairs):
        return "bincount"
    return "matmul"


def _smmp_pairs(block, comm: np.ndarray, n: int,
                workspace: "SweepWorkspace | None" = None):
    """``A @ S`` as one ``csr_matmat`` call (see :func:`aggregate_pairs`).

    The C routine indexes ``S``'s rows and a dense length-``n``
    accumulator without bounds checks, so the shapes and the label range
    are checked here first.  ``S``'s row pointers and unit data do not
    depend on the labels: a ``workspace`` builds them once.
    """
    if block.shape[1] != n or comm.shape != (n,):
        raise ValidationError("comm must label the block's n columns")
    if workspace is not None and workspace.graph.num_vertices != n:
        raise ValidationError("the workspace must serve the block's graph")
    if n and (comm.min() < 0 or comm.max() >= n):
        raise ValidationError("community labels must lie in [0, n)")
    nnz = block.nnz
    idx = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    num_rows = block.shape[0]
    indptr = np.empty(num_rows + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz, dtype=np.float64)
    s_indptr, s_data = (workspace.indicator(idx) if workspace is not None
                        else _indicator(n, idx))
    _csr_matmat(
        num_rows, n,
        np.asarray(block.indptr, dtype=idx),
        np.asarray(block.indices, dtype=idx), block.data,
        s_indptr, comm.astype(idx), s_data,
        indptr, indices, data,
    )
    size = int(indptr[-1])
    return indptr, indices[:size].astype(np.int64), data[:size]


def _indicator(n: int, idx) -> tuple[np.ndarray, np.ndarray]:
    """The label-free arrays of the one-hot indicator ``S``: its row
    pointers ``0..n`` and its unit data."""
    return np.arange(n + 1, dtype=idx), np.ones(n, dtype=np.float64)


@snapshot_kernel("plan", "comm")
def aggregate_pairs(
    plan: GatherPlan,
    comm: np.ndarray,
    n: int,
    mode: str = "auto",
    workspace: "SweepWorkspace | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Aggregate ``e_{v→C}`` over the plan's entries.

    Returns ``(pair_indptr, pair_comm, e, mode_used)``, a CSR-style block
    over the active vertices: the pairs of ``plan.vertices[i]`` are
    ``pair_indptr[i]:pair_indptr[i+1]``, and ``e[j]`` is the total weight
    from that vertex into community ``pair_comm[j]``.  Each community
    appears at most once per vertex (bincount/sort list them in ascending
    order, matmul in SMMP's order); a vertex without non-loop entries
    has an empty segment.

    The matmul path calls SciPy's private C entry point
    ``scipy.sparse._sparsetools.csr_matmat`` once, with output buffers of
    ``plan.block.nnz`` entries: row ``j`` of the one-hot indicator ``S``
    holds only ``1.0`` at column ``comm[j]``, so row ``i`` of the product
    has at most ``nnz(A_i)`` entries.  It is exact: the generic
    ``plan.block @ S`` first sizes its output with
    ``csr_matmat_maxnnz``, then runs this same routine on the same
    arguments (one index dtype, int32 where it fits; the block's data as
    stored; float64 output), which accumulates ``sums[comm[j]] += w`` in
    entry order.  ``tests/core/test_sweep_differential.py`` checks the
    pairs bitwise against ``@``.  A ``workspace`` over the plan's graph
    supplies ``S``'s label-free arrays.
    """
    if mode not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {mode!r}")
    num_active = plan.vertices.size
    mode = resolve_aggregation(mode, num_active, n, plan.block.nnz)

    if mode == "matmul":
        return (*_smmp_pairs(plan.block, comm, n, workspace), mode)

    # Keys are owner·(n+1) + community, so owner i's pairs are the keys in
    # [i·(n+1), (i+1)·(n+1)).  Python-int stride: owner is int64, so the
    # product dtype is unchanged.
    bounds = np.arange(num_active + 1, dtype=np.int64) * (n + 1)
    key = plan.owner * (n + 1) + np.take(comm, plan.dst)
    if mode == "bincount":
        totals = np.bincount(key, weights=plan.weights,
                             minlength=num_active * (n + 1))
        pairs = np.flatnonzero(totals)
        return (np.searchsorted(pairs, bounds), pairs % (n + 1),
                np.take(totals, pairs), mode)

    # Seed path: sort (owner, community) keys, segment-sum the weights.
    order = np.argsort(key, kind="stable")
    key_s = np.take(key, order)
    starts = run_boundaries(key_s)
    e = np.add.reduceat(np.take(plan.weights, order), starts)
    pairs = np.take(key_s, starts)
    return np.searchsorted(pairs, bounds), pairs % (n + 1), e, "sort"


class SweepWorkspace:
    """Reusable per-graph buffers and gather-plan cache for sweep kernels.

    One workspace serves one graph (one phase of the pipeline).  It caches:

    * a :class:`GatherPlan` per swept vertex set, keyed either by array
      identity (the phase loop re-sweeps the same set objects) or by an
      explicit ``key`` naming the set's slot (a color set, a process
      worker's chunk) — a keyed hit is verified against the stored
      vertex array, and a miss replaces the slot's plan, so changing
      frontiers never reuse a stale plan and hold at most one plan per
      slot;
    * the graph's loop-free row view, :attr:`rows`, built once (every
      plan is one row gather from it; the thread backend's chunks share
      it read-only);
    * full-size ``bool`` scratch masks that the commit slices per sweep
      instead of reallocating;
    * the label-free arrays of the matmul path's indicator ``S``.

    Not thread-safe: concurrent chunk evaluation must either share nothing
    (each worker owns a workspace, as the process backend does) or pass
    ``workspace=None`` (as the thread backend's chunk map does; its
    chunks share only :attr:`rows`, which is read-only).
    """

    def __init__(self, graph: CSRGraph, aggregation: str = "auto"):
        if aggregation not in AGGREGATIONS:
            raise ValidationError(f"unknown aggregation {aggregation!r}")
        self.graph = graph
        self.aggregation = aggregation
        #: The graph's :func:`loop_free_rows`, for this workspace's life.
        self.rows = loop_free_rows(graph)
        self._plans: dict[object, GatherPlan] = {}
        self._bool: dict[str, np.ndarray] = {}
        self._indicator: dict[object, tuple[np.ndarray, np.ndarray]] = {}

    # -- plan cache -----------------------------------------------------
    def plan(self, vertices: np.ndarray, key: object = None) -> GatherPlan:
        """Return the (possibly cached) gather plan for ``vertices``."""
        cache_key = key if key is not None else id(vertices)
        entry = self._plans.get(cache_key)
        if entry is not None and (
            entry.vertices is vertices
            or (key is not None
                and np.array_equal(entry.vertices, vertices))
        ):
            return entry
        entry = build_plan(self.graph, vertices, self.rows)
        self._plans[cache_key] = entry
        return entry

    @property
    def num_cached_plans(self) -> int:
        return len(self._plans)

    # -- scratch buffers ------------------------------------------------
    def zeros_bool(self, name: str, size: int) -> np.ndarray:
        """A bool scratch view of ``size``; caller must reset set bits."""
        buf = self._bool.get(name)
        if buf is None or buf.size < size:
            buf = np.zeros(max(size, self.graph.num_vertices), dtype=bool)
            self._bool[name] = buf
        return buf[:size]

    def indicator(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """``S``'s row pointers and unit data at index dtype ``idx``,
        built on first use (read-only, shared by every sweep)."""
        arrays = self._indicator.get(idx)
        if arrays is None:
            arrays = _indicator(self.graph.num_vertices, idx)
            for arr in arrays:
                arr.setflags(write=False)
            self._indicator[idx] = arrays
        return arrays

    def __repr__(self) -> str:
        return (
            f"SweepWorkspace(n={self.graph.num_vertices}, "
            f"aggregation={self.aggregation!r}, plans={len(self._plans)})"
        )
