"""One parallel Louvain iteration (Algorithm 1, lines 7–14).

Semantics
---------
The paper's parallel sweep is *Jacobi-style*: every vertex evaluates its
candidate moves against the community information "available from the
previous iteration" (§5.4), with no locks.  We implement that literally:

1. snapshot the community assignment, community degrees and community
   sizes at the start of the sweep;
2. compute, for every active vertex independently, the best destination
   community per Eq. 4/Eq. 5 with the minimum-label heuristics of §5.1;
3. apply all moves at once and update the aggregates.

Because step 2 only reads the snapshot, the outcome is independent of how
the active set is chunked across workers — the stability property the
paper claims for its algorithm (everything except coloring order is
deterministic).

Minimum-label heuristics (§5.1)
-------------------------------
* *Generalized*: when several neighboring communities tie for the maximum
  gain, pick the one with the smallest label.
* *Singlet*: a vertex alone in its community may move into another
  single-vertex community only if the destination label is smaller —
  breaking the two-singlet swap cycle of Fig. 2 case 1.

Kernels
-------
``compute_targets_reference``
    Direct per-vertex Python loop; the executable specification.
``compute_targets_vectorized``
    The production kernel, one pass of gather → aggregate → select with
    no per-vertex Python work: the active rows are a CSR row block cut
    by SciPy's C row gather from the graph's loop-free row view (one per
    phase, held by the :class:`~repro.core.workspace.SweepWorkspace`,
    which also caches the block per swept set); the e_{v→C} aggregation
    (:mod:`repro.core.workspace`: ``argsort``, bincount or one-pass
    sparse matmul, picked automatically) returns its pairs as a
    CSR-style block; the tail evaluates Eq. 4 over that block and selects
    among the positive non-own pairs only, the sole candidates to win:
    a scatter-max gives each vertex its best gain, a scatter-min (a
    scatter-max for the ablation) its label tie-break.
``apply_moves_tracked``
    The commit, reading the movers' rows from the graph's row view.
Every compress is an index compress, ``x.take(flatnonzero(mask))``: the
same elements in the same order as ``x[mask]``, without the boolean
compress's mispredicted branch per element.  All paths produce identical
targets (differentially tested); the vectorized kernel optionally fans
chunks out over an execution backend, and SciPy's row gather and SMMP
product release the GIL inside each chunk.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.workspace import (
    SweepWorkspace,
    aggregate_pairs,
    build_plan,
    loop_free_rows,
)
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import frozen_snapshot, resolve_sanitize, snapshot_kernel
from repro.obs.trace import get_tracer
from repro.parallel.backends import ExecutionBackend, SerialBackend
from repro.parallel.chunking import edge_balanced_partition
from repro.utils.errors import ValidationError

__all__ = [
    "MoveResult",
    "SweepState",
    "apply_moves",
    "apply_moves_tracked",
    "compute_targets",
    "compute_targets_reference",
    "compute_targets_vectorized",
    "init_state",
    "sweep",
]


@dataclass
class SweepState:
    """Mutable community state shared across iterations of one phase.

    Labels live in ``[0, n)`` (a community keeps the label it started with;
    labels of emptied communities are simply never reused), so label order
    is well-defined for the minimum-label heuristic.
    """

    #: (n,) community label of each vertex.
    comm: np.ndarray
    #: (n,) community degree ``a_C`` indexed by label.
    comm_degree: np.ndarray
    #: (n,) member count indexed by label.
    comm_size: np.ndarray

    def copy(self) -> "SweepState":
        return SweepState(
            self.comm.copy(), self.comm_degree.copy(), self.comm_size.copy()
        )

    def num_communities(self) -> int:
        return int(np.count_nonzero(self.comm_size))


def init_state(graph: CSRGraph, initial=None) -> SweepState:
    """Initial state: each vertex in its own community (or ``initial``).

    ``initial`` may be any integer assignment with labels in ``[0, n)``;
    the paper's ``C_init`` input of Algorithm 1.
    """
    n = graph.num_vertices
    if initial is None:
        comm = np.arange(n, dtype=np.int64)
    else:
        comm = np.asarray(initial, dtype=np.int64).copy()
        if comm.shape != (n,):
            raise ValidationError(f"initial assignment must have shape ({n},)")
        if n and (comm.min() < 0 or comm.max() >= n):
            raise ValidationError("initial labels must lie in [0, n)")
    comm_degree = np.bincount(comm, weights=graph.degrees, minlength=n)
    comm_size = np.bincount(comm, minlength=n)
    return SweepState(comm, comm_degree, comm_size.astype(np.int64))


# ---------------------------------------------------------------------------
# Reference kernel
# ---------------------------------------------------------------------------
@snapshot_kernel("graph", "state")
def compute_targets_reference(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    *,
    use_min_label: bool = True,
    resolution: float = 1.0,
) -> np.ndarray:
    """Per-vertex Python implementation of lines 9–14 of Algorithm 1.

    Returns the destination community for every vertex in ``vertices``
    (its current community when it should not move).
    """
    m = graph.total_weight
    if m <= 0:
        return state.comm[np.asarray(vertices, dtype=np.int64)].copy()
    two_m_sq = (2.0 * m) ** 2
    comm = state.comm
    a = state.comm_degree
    size = state.comm_size
    degrees = graph.degrees

    targets = np.empty(len(vertices), dtype=np.int64)
    for out_idx, v in enumerate(np.asarray(vertices, dtype=np.int64)):
        cur = int(comm[v])
        nbrs, ws = graph.neighbors(v)
        k_v = float(degrees[v])
        # e_{v→C} per neighboring community, self-loop excluded (it moves
        # with the vertex and cancels in Eq. 4).
        e_to: dict[int, float] = {}
        for u, w in zip(nbrs.tolist(), ws.tolist()):
            if u == v:
                continue
            cu = int(comm[u])
            e_to[cu] = e_to.get(cu, 0.0) + float(w)
        e_cur = e_to.get(cur, 0.0)
        a_cur_excl = float(a[cur]) - k_v

        best_gain = 0.0
        best_comm = cur
        for target in sorted(e_to):
            if target == cur:
                continue
            gain = (e_to[target] - e_cur) / m + resolution * (
                2.0 * k_v * (a_cur_excl - float(a[target]))
            ) / two_m_sq
            if gain > best_gain:
                best_gain = gain
                best_comm = target
            elif gain == best_gain and best_gain > 0.0:
                # Tie on the maximum: generalized minimum-label keeps the
                # smaller label (already held, since targets are scanned in
                # ascending label order); the ablation keeps the larger.
                if not use_min_label:
                    best_comm = target
        if best_comm != cur and use_min_label:
            # Singlet minimum-label rule (§5.1).
            if size[cur] == 1 and size[best_comm] == 1 and best_comm > cur:
                best_comm = cur
        targets[out_idx] = best_comm
    return targets


# ---------------------------------------------------------------------------
# Vectorized kernel
# ---------------------------------------------------------------------------
@snapshot_kernel("graph", "state")
def compute_targets_vectorized(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    *,
    use_min_label: bool = True,
    resolution: float = 1.0,
    workspace: "SweepWorkspace | None" = None,
    aggregation: "str | None" = None,
    plan_key: object = None,
    m_v: "np.ndarray | None" = None,
    two_m_sq_v: "np.ndarray | None" = None,
    rows=None,
) -> np.ndarray:
    """Vectorized implementation of lines 9–14 of Algorithm 1.

    One e_{v→C} aggregation over the active CSR entries plus scatter
    reductions; no per-vertex Python loop.  Produces exactly the targets of
    :func:`compute_targets_reference` for every aggregation path.

    Parameters
    ----------
    workspace:
        Optional :class:`~repro.core.workspace.SweepWorkspace`; when given,
        the gather plan for ``vertices`` is cached (keyed by ``plan_key``
        or array identity) and scratch buffers are reused across calls.
    aggregation:
        ``"auto"`` (default), ``"sort"``, ``"bincount"`` or ``"matmul"``;
        ``None`` inherits the workspace's mode (or ``"auto"``).
    m_v, two_m_sq_v:
        Optional per-active-vertex ``m`` and ``(2m)²`` (both aligned with
        ``vertices``, both required together) — the multi-graph hook: a
        block-diagonal batch normalizes every vertex by its own graph's
        edge weight (:mod:`repro.core.batch`).  Each entry must be the
        python-float ``m`` / ``(2.0*m)**2`` of the vertex's graph, which
        makes the elementwise gain bitwise identical to the scalar path
        run per graph.  All entries must be positive (zero-weight graphs
        are the caller's early-out).
    rows:
        Without a workspace, the graph's
        :func:`~repro.core.workspace.loop_free_rows` to gather from
        (built per call when omitted); a workspace brings its own.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    m = graph.total_weight
    cur = state.comm[vertices]
    if vertices.size == 0 or (m_v is None and m <= 0):
        return cur.copy()
    if (m_v is None) != (two_m_sq_v is None):
        raise ValidationError("m_v and two_m_sq_v must be given together")
    if m_v is not None and m_v.shape != vertices.shape:
        raise ValidationError("m_v must be aligned with vertices")
    n = graph.num_vertices

    if workspace is not None:
        plan = workspace.plan(vertices, key=plan_key)
        mode = aggregation if aggregation is not None else workspace.aggregation
    else:
        plan = build_plan(graph, vertices, rows)
        mode = aggregation if aggregation is not None else "auto"
    if plan.block.nnz == 0:
        return cur.copy()

    pair_indptr, pair_comm, e, mode_used = aggregate_pairs(
        plan, state.comm, n, mode
    )
    if workspace is not None:
        workspace.last_aggregation = mode_used

    num_active = vertices.size
    k_v = plan.degrees
    pair_owner = np.repeat(np.arange(num_active, dtype=np.int64),
                           np.diff(pair_indptr))

    # e_{v→C(v)\{v}} per active vertex (0 when no same-community neighbor).
    # The accumulator follows the graph's weight dtype (float32 graphs
    # halve its traffic; float64 graphs are bit-unchanged).
    e_cur = np.zeros(num_active, dtype=k_v.dtype)
    own = np.flatnonzero(pair_comm == np.take(cur, pair_owner))
    e_cur[np.take(pair_owner, own)] = np.take(e, own)

    # Eq. 4 gain of every pair, with the exact operation order of the
    # reference kernel (bitwise-identical rounding is what makes the
    # kernels differentially testable for *equality*), evaluated in place.
    # The only rewrites are exact: ``(2k)[owner]`` for ``2·k[owner]``, the
    # operands of a commutative ``*``/``+`` swapped, and ``resolution·x``
    # skipped at resolution 1.  ``comm_degree`` is float64, so the penalty
    # buffer already has the dtype of the full sum.
    gain = e - np.take(e_cur, pair_owner)
    if m_v is None:
        gain /= m
    else:
        gain = gain / np.take(m_v, pair_owner)
    a_cur_excl = np.take(state.comm_degree, cur) - k_v
    penalty = np.take(a_cur_excl, pair_owner)
    penalty -= np.take(state.comm_degree, pair_comm)
    penalty *= np.take(2.0 * k_v, pair_owner)
    if resolution != 1.0:
        penalty *= resolution
    if m_v is None:
        penalty /= (2.0 * m) ** 2
    else:
        penalty /= np.take(two_m_sq_v, pair_owner)
    penalty += gain
    gain = penalty

    # Only a pair with a strictly positive gain can win (the reference
    # moves on ``gain > best_gain`` from 0.0), and the maximum and its tie
    # set over those pairs equal the ones over all pairs whenever the
    # maximum is positive — so the selection reads the positive non-own
    # pairs alone.  Own pairs are dropped explicitly, by zeroing their
    # gain: at ``resolution ≤ 0`` it can be ≥ 0.  On a first sweep from
    # singletons every pair qualifies, and the pair arrays are used as
    # they are.
    gain[own] = 0.0
    pos = np.flatnonzero(gain > 0.0)
    if pos.size == 0:
        return cur.copy()
    if pos.size < gain.size:
        gain = np.take(gain, pos)
        pair_owner = np.take(pair_owner, pos)
        pair_comm = np.take(pair_comm, pos)
    # Per-owner maximum gain by scatter-max from 0.0, so an owner without
    # a positive pair keeps 0.0 and no other does; then, among the pairs
    # at their owner's maximum, the minimum (or, for the ablation,
    # maximum) community label by scatter-min (-max) from a sentinel.
    best = np.zeros(num_active, dtype=gain.dtype)
    np.maximum.at(best, pair_owner, gain)
    win = np.flatnonzero(gain == np.take(best, pair_owner))
    chosen = np.full(num_active, n if use_min_label else -1,
                     dtype=pair_comm.dtype)
    pick = np.minimum if use_min_label else np.maximum
    pick.at(chosen, np.take(pair_owner, win), np.take(pair_comm, win))
    movers = np.flatnonzero(best)
    dest = chosen.take(movers)

    if use_min_label:
        # Singlet rule: both source and destination singlets → only allow a
        # move toward a smaller label.  Every winner is a non-own pair, so
        # the movers are exactly the vertices whose target differs.
        src = cur.take(movers)
        size = state.comm_size
        stay = (size.take(src) == 1) & (size.take(dest) == 1) & (dest > src)
        np.copyto(dest, src, where=stay)
    targets = cur.copy()
    targets[movers] = dest
    return targets


@snapshot_kernel("graph", "state")
def compute_targets(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    *,
    kernel: str = "vectorized",
    use_min_label: bool = True,
    backend: ExecutionBackend | None = None,
    resolution: float = 1.0,
    workspace: "SweepWorkspace | None" = None,
    aggregation: "str | None" = None,
    plan_key: object = None,
    sanitize: "bool | None" = None,
) -> np.ndarray:
    """Dispatch to a kernel, optionally chunking over a backend.

    With a multi-worker backend the active set is split into edge-balanced
    chunks evaluated concurrently; because every chunk reads the same
    snapshot the concatenated result is identical to a single-chunk run.
    The workspace's plans serve only the single-threaded path — chunk
    workers either own a private workspace (process backend) or run
    workspace-free (thread backend), since plan caches are not
    shareable between concurrent chunks.  Its read-only loop-free
    :attr:`~repro.core.workspace.SweepWorkspace.rows` is shared: thread
    chunks and the process backend's in-process fallback gather from it.

    ``sanitize`` (``None`` = the ``REPRO_SANITIZE`` default) freezes the
    state arrays for the duration of the target computation: a stray
    in-place write anywhere in the kernel stack raises instead of
    corrupting the Jacobi snapshot (:mod:`repro.lint.sanitizer`).  The
    guard changes no results — target computation is read-only by
    contract — and costs O(1) flag flips per sweep.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    sanitize = resolve_sanitize(sanitize)
    guard = frozen_snapshot(state) if sanitize else nullcontext()
    span = get_tracer().span(
        "compute_targets", vertices=int(vertices.size), kernel=kernel,
    )
    with span, guard:
        if kernel == "reference":
            return compute_targets_reference(
                graph, state, vertices, use_min_label=use_min_label,
                resolution=resolution,
            )
        if kernel != "vectorized":
            raise ValidationError(f"unknown kernel {kernel!r}")
        sweep_targets = getattr(backend, "sweep_targets", None)
        if sweep_targets is not None:
            # Process-style backends own the whole sweep (shared-memory
            # state scatter + chunked workers) rather than a generic chunk
            # map.  The parent-side freeze above does not reach the
            # workers' shared-memory views, so the flag is forwarded and
            # each worker freezes its own views around its kernel call.
            return sweep_targets(
                graph, state, vertices,
                use_min_label=use_min_label, resolution=resolution,
                aggregation=aggregation, sanitize=sanitize,
                rows=workspace.rows if workspace is not None else None,
            )
        if backend is None or backend.num_workers <= 1 or vertices.size < 2:
            return compute_targets_vectorized(
                graph, state, vertices, use_min_label=use_min_label,
                resolution=resolution, workspace=workspace,
                aggregation=aggregation, plan_key=plan_key,
            )
        chunks = edge_balanced_partition(
            vertices, graph.indptr, backend.num_workers
        )
        # Every chunk gathers from the same read-only loop-free view.
        rows = (workspace.rows if workspace is not None
                else loop_free_rows(graph))
        results = backend.map(
            lambda chunk: compute_targets_vectorized(
                graph, state, chunk, use_min_label=use_min_label,
                resolution=resolution, aggregation=aggregation, rows=rows,
            ),
            chunks,
        )
        return np.concat(results) if results else np.zeros(0, np.int64)


@dataclass(frozen=True)
class MoveResult:
    """Outcome of one committed sweep, with the incremental-update data.

    ``delta_intra``/``delta_degree_sq`` are the exact changes to the two
    modularity ingredients (Eq. 3's ``Σ_i e_{i→C(i)}`` and ``Σ_C a_C²``)
    caused by this batch of moves, computed in O(edges touched by movers) —
    the §5.5 pre-aggregation idea applied to the Q recount, which lets
    :func:`repro.core.phase.run_phase` track modularity incrementally
    instead of recounting O(M) per iteration.  ``frontier`` is the moved
    vertices plus their neighbors — exactly the vertices whose candidate
    moves may have changed locally, the active set of the next pruned
    sweep.
    """

    #: Vertices that changed community.
    moved: np.ndarray
    #: Exact change of ``Σ_i e_{i→C(i)}``.
    delta_intra: float
    #: Exact change of ``Σ_C a_C²``.
    delta_degree_sq: float
    #: Moved vertices plus their neighbors (sorted, unique) — empty when
    #: the caller passed ``frontier_out`` (the frontier was OR-ed into the
    #: mask instead, skipping an edge-sized sort+unique).
    frontier: np.ndarray

    @property
    def num_moved(self) -> int:
        return int(self.moved.size)


_NO_MOVES = None  # lazily built empty MoveResult


def _empty_move_result() -> MoveResult:
    global _NO_MOVES
    if _NO_MOVES is None:
        empty = np.zeros(0, dtype=np.int64)
        _NO_MOVES = MoveResult(empty, 0.0, 0.0, empty)
    return _NO_MOVES


def _intra_sums(w: np.ndarray, both_moved: np.ndarray,
                intra: np.ndarray) -> tuple[float, float]:
    """``(S, P)`` of :func:`apply_moves_tracked`: the weight of the
    ``intra`` entries, and of those whose neighbor also moved.  Index
    compresses keep the entries of ``w[intra]`` and ``w[intra &
    both_moved]`` in the same order, so the sums are the same bits; the
    second compress runs over the intra entries only."""
    i_idx = np.flatnonzero(intra)
    wi = w.take(i_idx)
    both = np.flatnonzero(both_moved.take(i_idx))
    return float(wi.sum()), float(wi.take(both).sum())


def apply_moves_tracked(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    targets: np.ndarray,
    *,
    workspace: "SweepWorkspace | None" = None,
    frontier_out: "np.ndarray | None" = None,
) -> MoveResult:
    """Commit moves like :func:`apply_moves`, returning incremental data.

    The extra cost over :func:`apply_moves` is one row gather over the
    movers, ``graph.row_view[movers]`` (SciPy's C ``csr_row_index``, self
    loops included) — O(edges incident to movers), which shrinks with the
    frontier as a phase converges.  The gathered neighbors and weights are
    the movers' CSR entries in storage order.  ``S`` and ``P`` below are
    sums over ``w.take(idx)`` for index compresses ``idx``; the ``P``
    compress runs over the already-compressed intra entries.  Each sum
    adds the same values in the same order as the boolean compress
    ``w[mask]`` and as a per-row scan, so the deltas are the same bits.

    ``frontier_out`` — optional (n,) bool mask; when given, the frontier
    (movers + their neighbors) is OR-ed into it and the returned
    ``frontier`` array is left empty.  The mask form is O(edges touched)
    with no sort, where materializing the unique array costs an
    O(E log E) sort+unique over an edge-sized scratch — the dominant cost
    of the whole commit on large sweeps.

    Derivation of ``delta_intra``: only entries incident to a mover can
    change their intra/inter status.  Let ``S`` be the indicator-weighted
    sum over the movers' *own* rows and ``P`` its restriction to entries
    whose neighbor also moved.  Every mover↔non-mover entry appears once in
    ``S`` but twice in the full Eq. 3 sum (once per direction), while a
    mover↔mover entry appears twice in ``S`` (and twice in ``P``), so
    ``Δintra = 2·ΔS − ΔP`` counts each direction exactly once.  Self-loops
    sit in both ``S`` and ``P`` and are always intra, so they cancel.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if vertices.shape != targets.shape:
        raise ValidationError("vertices and targets must be aligned")
    cur = state.comm[vertices]
    idx = np.flatnonzero(targets != cur)
    if idx.size == 0:
        return _empty_move_result()
    mv = vertices.take(idx)
    src = cur.take(idx)
    dst_comm = targets.take(idx)
    k = graph.degrees[mv]
    n = graph.num_vertices

    rows = graph.row_view[mv]
    # int64 copy: NumPy fancy-indexes several times faster with intp
    # arrays than with SciPy's int32 ones, and ``nbr`` indexes four times.
    nbr = rows.indices.astype(np.int64)
    w = rows.data
    counts = np.diff(rows.indptr)

    if workspace is not None:
        mover_mask = workspace.zeros_bool("mover_mask", n)
    else:
        mover_mask = np.zeros(n, dtype=bool)
    mover_mask[mv] = True
    both_moved = mover_mask[nbr]

    # Fancy indexing copies: ``nbr_comm`` is the pre-move snapshot.
    nbr_comm = state.comm[nbr]
    s_before, p_before = _intra_sums(
        w, both_moved, nbr_comm == np.repeat(src, counts))

    # Commit, snapshotting the affected community degrees around the
    # update.  Affected labels are collected through an O(n) mask rather
    # than a sort-based unique over the mover-sized label arrays.
    if workspace is not None:
        affected_mask = workspace.zeros_bool("affected_mask", n)
    else:
        affected_mask = np.zeros(n, dtype=bool)
    affected_mask[src] = True
    affected_mask[dst_comm] = True
    affected = np.flatnonzero(affected_mask)
    affected_mask[affected] = False  # reset the scratch for the next call
    a_before = state.comm_degree[affected].copy()
    state.comm[mv] = dst_comm
    np.subtract.at(state.comm_degree, src, k)
    np.add.at(state.comm_degree, dst_comm, k)
    np.subtract.at(state.comm_size, src, 1)
    np.add.at(state.comm_size, dst_comm, 1)
    a_after = state.comm_degree[affected]
    delta_degree_sq = float((a_after * a_after - a_before * a_before).sum())

    s_after, p_after = _intra_sums(
        w, both_moved, state.comm[nbr] == np.repeat(dst_comm, counts))
    delta_intra = 2.0 * (s_after - s_before) - (p_after - p_before)

    mover_mask[mv] = False  # reset the scratch for the next call
    if frontier_out is not None:
        frontier_out[mv] = True
        frontier_out[nbr] = True
        frontier = mv[:0]
    else:
        frontier = np.unique(np.concat((mv, nbr)))
    return MoveResult(mv, delta_intra, delta_degree_sq, frontier)


def apply_moves(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    targets: np.ndarray,
) -> int:
    """Commit the computed moves, updating degrees and sizes in place.

    Returns the number of vertices that changed community.  The updates are
    plain commutative adds — the deterministic equivalent of the paper's
    atomic fetch-and-add bookkeeping (see :mod:`repro.parallel.atomic`).
    Use :func:`apply_moves_tracked` when the caller also needs the
    incremental-modularity deltas and the pruning frontier.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if vertices.shape != targets.shape:
        raise ValidationError("vertices and targets must be aligned")
    cur = state.comm[vertices]
    idx = np.flatnonzero(targets != cur)
    if idx.size == 0:
        return 0
    mv = vertices.take(idx)
    src = cur.take(idx)
    dst = targets.take(idx)
    k = graph.degrees[mv]
    state.comm[mv] = dst
    np.subtract.at(state.comm_degree, src, k)
    np.add.at(state.comm_degree, dst, k)
    np.subtract.at(state.comm_size, src, 1)
    np.add.at(state.comm_size, dst, 1)
    return int(idx.size)


def sweep(
    graph: CSRGraph,
    state: SweepState,
    vertices: np.ndarray,
    *,
    kernel: str = "vectorized",
    use_min_label: bool = True,
    backend: ExecutionBackend | None = None,
    resolution: float = 1.0,
    workspace: "SweepWorkspace | None" = None,
    aggregation: "str | None" = None,
    sanitize: "bool | None" = None,
) -> int:
    """Compute and apply one parallel sweep over ``vertices``; return #moved."""
    targets = compute_targets(
        graph, state, vertices,
        kernel=kernel, use_min_label=use_min_label, backend=backend,
        resolution=resolution, workspace=workspace, aggregation=aggregation,
        sanitize=sanitize,
    )
    return apply_moves(graph, state, vertices, targets)
