"""Reusable sweep workspaces and the e_{v→C} aggregation paths.

The inner loop of every phase repeats the same two structural computations
over and over:

* **row gathering** — expanding the active vertex set into the flat list of
  its CSR entries (``positions``/``owner``/non-loop mask).  The vertex sets
  a phase sweeps are fixed for the whole phase (the full vertex range, or
  the color sets of §5.2), so the gather plan can be built once and reused
  across every iteration;
* **neighbor-weight aggregation** — reducing the gathered entries into the
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
    (cached) active-rows adjacency and ``S`` the one-hot community
    indicator, ``A @ S`` *is* the ``e_{v→C}`` table.  SciPy's SMMP kernel
    runs in ``O(n + E)`` with a dense scatter-accumulator in C — the
    vectorized equivalent of the paper's per-thread hash accumulation.
``"sort"``
    The seed ``argsort`` + segmented-reduction path, kept as the fallback
    (and as the differential-testing baseline).

All three produce the same (owner, community, weight) pair set, grouped by
owner (see :func:`aggregate_pairs` for the exact ordering contract the
sweep kernel's ``reduceat`` segment reductions rely on), so the kernels
are exchangeable and differentially tested against
``compute_targets_reference``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import ArrayOps, get_ops, numpy_ops
from repro.graph.csr import CSRGraph, gather_rows
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.errors import ValidationError

__all__ = [
    "AGGREGATIONS",
    "GatherPlan",
    "SweepWorkspace",
    "aggregate_pairs",
    "build_plan",
    "gather_rows",
]

#: Recognized aggregation modes (``"auto"`` resolves per call).
AGGREGATIONS = ("auto", "sort", "bincount", "matmul")

try:  # SciPy is a declared dependency, but stay importable without it.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _sparse = None


@dataclass
class GatherPlan:
    """Static per-vertex-set structure reused across a phase's sweeps.

    Everything here depends only on the graph and the vertex set — not on
    the community state — so one plan serves every iteration that sweeps
    the same set.  Entries are pre-filtered to non-loops (a self-loop moves
    with its vertex and cancels in Eq. 4).
    """

    #: The vertex set the plan was built for (used to validate cache hits).
    vertices: np.ndarray
    #: Index into ``vertices`` owning each kept (non-loop) entry.
    owner: np.ndarray
    #: Neighbor vertex of each kept entry.
    dst: np.ndarray
    #: Weight of each kept entry.
    weights: np.ndarray
    #: Weighted degree of each vertex in ``vertices``.
    degrees: np.ndarray
    #: Total CSR entries of the gathered rows (loops included) — the
    #: per-iteration edge-work counter of §5.6.
    num_entries: int
    #: Lazily built active-rows sparse adjacency for the matmul path.
    _matrix: "object | None" = field(default=None, repr=False)
    #: Per-backend device copies of (owner, dst, weights, degrees), keyed
    #: by backend name — built once per plan, reused every sweep.
    _device: dict = field(default_factory=dict, repr=False)

    def matrix(self, n: int):
        """The (|vertices|, n) CSR adjacency of the active rows (cached)."""
        if self._matrix is None:
            counts = numpy_ops.bincount(self.owner, minlength=self.vertices.size)
            indptr = numpy_ops.zeros(self.vertices.size + 1, dtype=np.int64)
            numpy_ops.cumsum(counts, out=indptr[1:])
            self._matrix = _sparse.csr_matrix(
                (self.weights, self.dst, indptr),
                shape=(self.vertices.size, n),
            )
        return self._matrix

    def device(self, ops: ArrayOps):
        """``(owner, dst, weights, degrees)`` on ``ops``' backend (cached)."""
        if ops.is_numpy:
            return self.owner, self.dst, self.weights, self.degrees
        cached = self._device.get(ops.name)
        if cached is None:
            cached = tuple(
                ops.from_numpy(a)
                for a in (self.owner, self.dst, self.weights, self.degrees)
            )
            self._device[ops.name] = cached
        return cached


@snapshot_kernel("graph")
def build_plan(graph: CSRGraph, vertices: np.ndarray) -> GatherPlan:
    """Build the gather plan for one vertex set (one O(E_active) pass)."""
    vertices = numpy_ops.asarray(vertices, dtype=np.int64)
    positions, owner = gather_rows(graph, vertices)
    num_entries = positions.size
    dst = graph.indices[positions]
    non_loop = dst != vertices[owner]
    if not non_loop.all():
        owner = owner[non_loop]
        dst = dst[non_loop]
        weights = graph.weights[positions[non_loop]]
    else:
        weights = graph.weights[positions]
    return GatherPlan(
        vertices=vertices,
        owner=owner,
        dst=dst,
        weights=weights,
        degrees=graph.degrees[vertices],
        num_entries=int(num_entries),
    )


def _resolve_mode(mode: str, num_active: int, n: int, num_pairs: int,
                  ops: ArrayOps = numpy_ops) -> str:
    """Pick the concrete aggregation path for one sweep.

    The bincount path costs O(key range); it is linear overall only when
    ``num_active·(n+1)`` stays within a small multiple of the entry count,
    which holds for small/coarse graphs and shrunken frontiers.  Otherwise
    the sparse-matmul path is O(n + E); the sort path is the last resort.
    SciPy's SMMP kernel is host-only, so on non-NumPy backends the matmul
    path resolves away exactly as it does on SciPy-less installs.
    """
    if mode != "auto":
        return mode
    key_range = num_active * (n + 1)
    if key_range <= max(1 << 16, 8 * num_pairs):
        return "bincount"
    if _sparse is not None and ops.is_numpy:
        return "matmul"
    return "sort"


@snapshot_kernel("plan", "comm")
def aggregate_pairs(
    plan: GatherPlan,
    comm: np.ndarray,
    n: int,
    mode: str = "auto",
    ops: ArrayOps = numpy_ops,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Aggregate ``e_{v→C}`` over the plan's entries.

    Returns ``(pair_owner, pair_comm, e, mode_used)`` where the first three
    arrays are aligned: ``e[i]`` is the total weight from active vertex
    ``plan.vertices[pair_owner[i]]`` into community ``pair_comm[i]``.
    The arrays live on ``ops``' backend (NumPy by default).

    Ordering guarantee: pairs are **grouped by owner in ascending order**
    (bincount/sort additionally sort by community within an owner; matmul
    does not).  Consumers may rely on the grouping — it is what lets the
    kernel use contiguous ``reduceat`` segment reductions instead of the
    much slower ``ufunc.at`` scatter reductions — but not on within-owner
    community order.
    """
    if mode not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {mode!r}")
    num_active = plan.vertices.size
    mode = _resolve_mode(mode, num_active, n, plan.owner.size, ops)
    if mode == "matmul" and (_sparse is None or not ops.is_numpy):
        mode = "sort"

    owner, dst, weights, _ = plan.device(ops)
    comm = ops.asarray(comm)

    # Python-int stride: owner/dst are int64, so the product dtype is
    # unchanged, and backend arrays accept python scalars where they may
    # reject NumPy scalar types.
    if mode == "bincount":
        key = owner * (n + 1) + ops.take(comm, dst)
        totals = ops.bincount(key, weights=weights,
                              minlength=num_active * (n + 1))
        pairs = ops.flatnonzero(totals)
        pair_owner = pairs // (n + 1)
        pair_comm = pairs - pair_owner * (n + 1)
        return pair_owner, pair_comm, ops.take(totals, pairs), mode

    if mode == "matmul":
        indicator = _sparse.csr_matrix(
            (numpy_ops.ones(n, dtype=np.float64), comm,
             numpy_ops.arange(n + 1, dtype=np.int64)),
            shape=(n, n),
        )
        product = plan.matrix(n) @ indicator
        pair_owner = numpy_ops.repeat(
            numpy_ops.arange(num_active, dtype=np.int64),
            numpy_ops.diff(product.indptr),
        )
        return (pair_owner, numpy_ops.astype(product.indices, np.int64),
                product.data, mode)

    # Seed path: sort (owner, community) keys, segment-sum the weights.
    dst_comm = ops.take(comm, dst)
    key = owner * (n + 1) + dst_comm
    order = ops.argsort_stable(key)
    key_s = ops.take(key, order)
    starts = ops.run_boundaries(key_s)
    e = ops.add_reduceat(ops.take(weights, order), starts)
    pair_owner = ops.take(ops.take(owner, order), starts)
    pair_comm = ops.take(ops.take(dst_comm, order), starts)
    return pair_owner, pair_comm, e, "sort"


class SweepWorkspace:
    """Reusable per-graph buffers and gather-plan cache for sweep kernels.

    One workspace serves one graph (one phase of the pipeline).  It caches:

    * a :class:`GatherPlan` per swept vertex set, keyed either by array
      identity (the phase loop re-sweeps the same set objects) or by an
      explicit ``key`` (backends sweeping shared-memory slices whose
      object identity is not stable) — a keyed hit is verified against the
      stored vertex array, so changing frontiers can never reuse a stale
      plan;
    * full-size scratch arrays (weight-dtype float/``int64``/``bool``) that
      the kernels slice per sweep instead of reallocating.

    ``array_backend`` selects the :class:`~repro.backends.ArrayOps`
    namespace the sweep kernels run against (``None`` follows
    ``REPRO_ARRAY_BACKEND``, default NumPy); the resolved object is exposed
    as ``self.ops``.  Scratch pools are host-side NumPy — non-NumPy kernels
    allocate their sweep arrays on-device instead of borrowing them.

    Not thread-safe: concurrent chunk evaluation must either share nothing
    (each worker owns a workspace, as the process backend does) or pass
    ``workspace=None`` (as the thread backend's chunk map does).
    """

    def __init__(self, graph: CSRGraph, aggregation: str = "auto",
                 array_backend: "str | None" = None):
        if aggregation not in AGGREGATIONS:
            raise ValidationError(f"unknown aggregation {aggregation!r}")
        self.graph = graph
        self.aggregation = aggregation
        #: Resolved array-API backend for this workspace's sweeps.
        self.ops: ArrayOps = get_ops(array_backend)
        #: Aggregation path the most recent sweep actually used.
        self.last_aggregation: str | None = None
        self._plans: dict[object, GatherPlan] = {}
        self._float: dict[str, np.ndarray] = {}
        self._i64: dict[str, np.ndarray] = {}
        self._bool: dict[str, np.ndarray] = {}

    # -- plan cache -----------------------------------------------------
    def plan(self, vertices: np.ndarray, key: object = None) -> GatherPlan:
        """Return the (possibly cached) gather plan for ``vertices``."""
        cache_key = key if key is not None else id(vertices)
        entry = self._plans.get(cache_key)
        if entry is not None and (
            entry.vertices is vertices
            or (key is not None
                and numpy_ops.array_equal(entry.vertices, vertices))
        ):
            return entry
        entry = build_plan(self.graph, vertices)
        self._plans[cache_key] = entry
        return entry

    @property
    def num_cached_plans(self) -> int:
        return len(self._plans)

    # -- scratch buffers ------------------------------------------------
    def _scratch(self, pool: dict, name: str, size: int, dtype) -> np.ndarray:
        buf = pool.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = numpy_ops.empty(max(size, self.graph.num_vertices),
                                  dtype=dtype)
            pool[name] = buf
        return buf[:size]

    def fweight(self, name: str, size: int, dtype=None) -> np.ndarray:
        """A float scratch view of ``size`` in the graph's weight dtype.

        Following the weight dtype (rather than hardcoding float64) halves
        the accumulator memory traffic on float32 graphs; float64 graphs
        get the exact pre-existing float64 buffers.  ``dtype`` overrides
        the weight dtype for accumulators that must be wider (a dtype
        change reallocates the named buffer).
        """
        return self._scratch(self._float, name, size,
                             dtype if dtype is not None
                             else self.graph.weights.dtype)

    def f64(self, name: str, size: int) -> np.ndarray:
        """A float64 scratch view of ``size`` (contents unspecified)."""
        return self._scratch(self._float, name, size, np.float64)

    def i64(self, name: str, size: int) -> np.ndarray:
        """An int64 scratch view of ``size`` (contents unspecified)."""
        return self._scratch(self._i64, name, size, np.int64)

    def zeros_bool(self, name: str, size: int) -> np.ndarray:
        """A bool scratch view of ``size``; caller must reset set bits."""
        buf = self._bool.get(name)
        if buf is None or buf.size < size:
            buf = numpy_ops.zeros(max(size, self.graph.num_vertices),
                                  dtype=bool)
            self._bool[name] = buf
        return buf[:size]

    def __repr__(self) -> str:
        return (
            f"SweepWorkspace(n={self.graph.num_vertices}, "
            f"aggregation={self.aggregation!r}, plans={len(self._plans)})"
        )
