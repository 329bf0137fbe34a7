"""Batched multi-graph Louvain: one kernel invocation per sweep, B graphs.

Running :func:`repro.core.driver.louvain` in a loop over many small graphs
(generator ensembles, per-snapshot dynamic inputs, benchmark suites) pays
the vectorized kernel's fixed dispatch overhead once *per graph per
iteration*.  :func:`louvain_batch` instead packs the inputs into their
block-diagonal union (:mod:`repro.graph.batch`) and sweeps **all** graphs
with a single :func:`~repro.core.sweep.compute_targets_vectorized` call
per iteration, amortizing the fixed costs over the whole batch.

The batched run is *equivalent*, not merely close: for every input graph
the final communities, modularity trajectory, phase count, and iteration
count are identical to a standalone :func:`~repro.core.driver.louvain`
run under the same configuration.  The ingredients:

* **Disconnected union.**  The packed graph has no edges between blocks,
  community labels start per block and candidate moves only ever point at
  neighboring (same-block) communities, so per-graph state never mixes.
* **Per-vertex normalization.**  The one global quantity in the gain
  formula is the graph's total edge weight ``m``; the batched sweep passes
  per-vertex ``m_v``/``two_m_sq_v`` arrays (python-float-derived, one
  value per block) to the kernel, whose elementwise division is bitwise
  identical to the standalone scalar division.
* **Per-graph commits and reductions.**  Moves are committed one block at
  a time via :func:`~repro.core.sweep.apply_moves_tracked` — its
  incremental Q deltas are contiguous-slice float reductions over exactly
  the standalone run's arrays, hence bitwise identical (NumPy's pairwise
  summation depends on the operand array, which is the same).
* **Per-graph convergence masking.**  Each graph keeps its own
  ``q_prev``/best-seen/frontier/converged state and drops out of the
  packed active set when its own Algorithm-1 stopping rule fires; batch
  iteration ``i`` sweeps a graph if and only if the standalone run's
  iteration ``i`` would (both start at 0 and apply the same per-iteration
  rule).  Finished graphs are likewise dropped from the union between
  phases — a re-pack of the survivors' coarse graphs.

Scope: the batch path supports the paper's *baseline* heuristic under the
serial execution backend (``use_vf=False``, ``use_coloring=False``,
``kernel="vectorized"``, ``backend="serial"``, no fault injection, no
warm starts / checkpointing).  Everything else — pruning, incremental
modularity, aggregation modes, min-label ablation, resolution, budgets,
tracing, sanitizing, float32 graphs — composes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.config import LouvainConfig
from repro.core.modularity import intra_community_weight, modularity
from repro.core.pipeline import run_scope
from repro.core.sweep import (
    SweepState,
    apply_moves,
    apply_moves_tracked,
    compute_targets_vectorized,
    init_state,
)
from repro.core.workspace import SweepWorkspace
from repro.graph.batch import GraphBatch, pack_graphs
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import frozen_snapshot, resolve_sanitize
from repro.obs.trace import Tracer, get_tracer
from repro.robust.budget import get_budget
from repro.utils.arrays import renumber_labels
from repro.utils.errors import ValidationError

__all__ = [
    "BatchGraphResult",
    "BatchPhaseOutcome",
    "louvain_batch",
    "run_phase_batch",
]


@dataclass
class BatchGraphResult:
    """Per-graph outcome of :func:`louvain_batch` (a light LouvainResult).

    ``communities``/``modularity``/``num_phases``/``total_iterations``
    match the standalone :func:`~repro.core.driver.louvain` run of the
    same graph exactly.  ``converged`` mirrors the driver's stopping
    test (last phase gain below ``final_threshold``); a graph stopped by
    the no-progress rule or a cap reports ``converged=False``.
    """

    communities: np.ndarray
    modularity: float
    num_phases: int
    total_iterations: int
    converged: bool
    interrupted: bool = False

    @property
    def num_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0

    def __repr__(self) -> str:
        return (
            f"BatchGraphResult(Q={self.modularity:.6f}, "
            f"communities={self.num_communities}, phases={self.num_phases}, "
            f"iterations={self.total_iterations})"
        )


@dataclass(frozen=True)
class BatchPhaseOutcome:
    """One batched phase: the union state plus per-graph outcome arrays."""

    state: SweepState
    #: ``(B,)`` exact modularity of each graph at the phase start/end.
    start_modularity: np.ndarray
    end_modularity: np.ndarray
    #: ``(B,)`` iterations each graph was swept.
    iterations: np.ndarray
    #: ``(B,)`` per-graph Algorithm-1 convergence (False on the cap).
    converged: np.ndarray
    #: Budget stop: every still-unconverged graph was cut off.
    interrupted: bool = False


def _block_state_modularity(sub: CSRGraph, comm_local, comm_degree_block,
                            *, m: float, resolution: float) -> float:
    """Exact Eq. 3 modularity of one block — the standalone
    :func:`~repro.core.phase.state_modularity` computed from the block's
    slices (same arrays element-for-element, hence the same float)."""
    if m <= 0:
        return 0.0
    intra = intra_community_weight(sub, comm_local)
    return intra / (2.0 * m) - resolution * float(
        np.square(comm_degree_block / (2.0 * m)).sum()
    )


def run_phase_batch(
    batch: GraphBatch,
    state: SweepState,
    *,
    threshold: float,
    phase_index: int = 0,
    use_min_label: bool = True,
    max_iterations: int = 1000,
    resolution: float = 1.0,
    workspace: "SweepWorkspace | None" = None,
    aggregation: str = "auto",
    prune: bool = True,
    incremental: bool = True,
    sanitize: "bool | None" = None,
) -> BatchPhaseOutcome:
    """One Louvain phase over every graph of ``batch`` simultaneously.

    Mirrors :func:`repro.core.phase.run_phase` (uncolored, serial) with
    all per-phase control state — ``q_prev``, best-seen assignment,
    frontier, full-sweep verification, convergence — kept **per graph**,
    while each iteration's target computation is one kernel invocation
    over the concatenated active sets.  A graph whose stopping rule fires
    leaves the packed active set; the iteration loop ends when every
    graph has converged (or the cap / budget fires).

    Graphs with zero edge weight are marked converged immediately with
    zero iterations (the standalone phase would no-op sweep them once;
    :func:`louvain_batch` never packs them).
    """
    union = batch.graph
    B = batch.num_graphs
    n = union.num_vertices
    sanitize = resolve_sanitize(sanitize)
    track = incremental or prune

    subs = [batch.subgraph(g) for g in range(B)]
    ms = [sub.total_weight for sub in subs]
    offs = [batch.block(g).start for g in range(B)]
    sizes = [batch.num_vertices_of(g) for g in range(B)]

    # Per-vertex normalizers for the batched kernel.  ``m_v`` follows the
    # weight dtype so the kernel's elementwise ``e / m_v`` rounds exactly
    # like the standalone ``e / m`` scalar division (NumPy casts a python
    # float down to the array dtype); the (2m)^2 divisor hits the always-
    # float64 penalty term, so it stays float64.
    m_v_full = batch.per_vertex(ms).astype(union.weights.dtype)
    tmsq_full = batch.per_vertex([(2.0 * m) ** 2 for m in ms])

    def comm_local(g: int) -> np.ndarray:
        vs = batch.block(g)
        return state.comm[vs] - offs[g]

    # Exact per-graph Q ingredients at the phase start (the incremental
    # tracking baseline; also the non-incremental recount inputs).
    intra = [intra_community_weight(subs[g], comm_local(g)) for g in range(B)]
    degree_sq = [
        float(np.square(state.comm_degree[batch.block(g)]).sum())
        for g in range(B)
    ]

    def incremental_q(g: int) -> float:
        two_m = 2.0 * ms[g]
        return (intra[g] / two_m
                - resolution * degree_sq[g] / (two_m * two_m))

    def exact_q(g: int) -> float:
        vs = batch.block(g)
        return _block_state_modularity(
            subs[g], comm_local(g), state.comm_degree[vs],
            m=ms[g], resolution=resolution,
        )

    def q_of(g: int) -> float:
        return incremental_q(g) if incremental else exact_q(g)

    converged = np.zeros(B, dtype=bool)
    iters = np.zeros(B, dtype=np.int64)
    start_q = np.zeros(B, dtype=np.float64)
    end_q = np.zeros(B, dtype=np.float64)
    q_prev = [-1.0] * B          # Algorithm 1 line 4, per graph.
    last_q = [0.0] * B
    best_q = [0.0] * B
    for g in range(B):
        if ms[g] <= 0:
            converged[g] = True
            continue
        start_q[g] = q_of(g)
        best_q[g] = last_q[g] = start_q[g]

    # Best-seen state per graph (Lemma 1: parallel sweeps can lose Q);
    # blocks are disjoint, so one union-sized copy serves every graph.
    best_comm = state.comm.copy()
    best_degree = state.comm_degree.copy()
    best_size = state.comm_size.copy()

    active: list[np.ndarray] = [
        np.arange(offs[g], offs[g] + sizes[g], dtype=np.int64)
        for g in range(B)
    ]
    frontier_mask = np.zeros(n, dtype=bool) if track else None
    moved = [0] * B
    interrupted = False
    tracer = get_tracer()
    budget = get_budget()

    for iteration in range(max_iterations):
        running = [g for g in range(B) if not converged[g]]
        if not running:
            break
        if budget.should_stop():
            interrupted = True
            break
        full_sweep = [active[g].size == sizes[g] for g in range(B)]
        packed = np.concat([active[g] for g in running])
        with tracer.span("batch_iteration", phase=phase_index,
                         iteration=iteration, graphs=len(running),
                         vertices=int(packed.size)):
            # The one batched kernel invocation of this iteration.  The
            # standalone sweep's snapshot guard lives in compute_targets;
            # here it wraps the direct kernel call the same way.
            guard = frozen_snapshot(state) if sanitize else nullcontext()
            with guard:
                targets = compute_targets_vectorized(
                    union, state, packed,
                    use_min_label=use_min_label, resolution=resolution,
                    workspace=workspace, aggregation=aggregation,
                    plan_key=("batch", 0),
                    m_v=m_v_full[packed], two_m_sq_v=tmsq_full[packed],
                )
            # Commit block by block: the per-graph tracked deltas are the
            # standalone run's contiguous-slice reductions, bitwise.
            bounds = np.searchsorted(packed, batch.vertex_offsets)
            for g in running:
                lo, hi = int(bounds[g]), int(bounds[g + 1])
                if track:
                    result = apply_moves_tracked(
                        union, state, packed[lo:hi], targets[lo:hi],
                        workspace=workspace, frontier_out=frontier_mask,
                    )
                    moved[g] = result.num_moved
                    intra[g] += result.delta_intra
                    degree_sq[g] += result.delta_degree_sq
                else:
                    moved[g] = apply_moves(
                        union, state, packed[lo:hi], targets[lo:hi]
                    )

        # Per-graph bookkeeping and convergence — run_phase's loop tail,
        # applied to each graph independently.
        total_moved = 0
        for g in running:
            iters[g] += 1
            total_moved += moved[g]
            q_curr = q_of(g)
            if q_curr > best_q[g]:
                best_q[g] = q_curr
                vs = batch.block(g)
                best_comm[vs] = state.comm[vs]
                best_degree[vs] = state.comm_degree[vs]
                best_size[vs] = state.comm_size[vs]
            last_q[g] = q_curr
            if moved[g] == 0:
                if prune and not full_sweep[g]:
                    # Pruned fixed point: verify with one full sweep
                    # before declaring this graph converged.
                    active[g] = np.arange(
                        offs[g], offs[g] + sizes[g], dtype=np.int64
                    )
                    q_prev[g] = q_curr
                    continue
                converged[g] = True
                continue
            if (q_curr - q_prev[g]) < threshold * abs(q_prev[g]):
                converged[g] = True
                continue
            q_prev[g] = q_curr
            if prune:
                vs = batch.block(g)
                active[g] = (
                    np.flatnonzero(frontier_mask[vs]) + offs[g]
                )
        if prune:
            frontier_mask[:] = False
        if tracer.enabled:
            tracer.count("sweep.moves", total_moved)
            tracer.observe("batch.running_graphs", len(running))
        budget.note_iteration()

    # Phase boundary, per graph: restore the best-seen block if the
    # trajectory ended below it, then recount Q exactly (drift guard).
    for g in range(B):
        if ms[g] <= 0:
            continue
        ref = last_q[g] if iters[g] else start_q[g]
        if best_q[g] > ref:
            vs = batch.block(g)
            state.comm[vs] = best_comm[vs]
            state.comm_degree[vs] = best_degree[vs]
            state.comm_size[vs] = best_size[vs]
        end_q[g] = exact_q(g)
    return BatchPhaseOutcome(
        state=state,
        start_modularity=start_q,
        end_modularity=end_q,
        iterations=iters,
        converged=converged,
        interrupted=interrupted,
    )


def _validate_batch_config(cfg: LouvainConfig) -> None:
    unsupported = []
    if cfg.use_vf:
        unsupported.append("use_vf")
    if cfg.use_coloring:
        unsupported.append("use_coloring")
    if cfg.kernel != "vectorized":
        unsupported.append(f"kernel={cfg.kernel!r}")
    if cfg.backend != "serial":
        unsupported.append(f"backend={cfg.backend!r}")
    if cfg.fault_plan is not None:
        unsupported.append("fault_plan")
    if unsupported:
        raise ValidationError(
            "louvain_batch supports the baseline heuristic under the "
            "serial backend only; unsupported settings: "
            + ", ".join(unsupported)
            + " (run repro.louvain per graph for these)"
        )


class _Running:
    """Multi-phase bookkeeping for one still-running graph."""

    __slots__ = ("index", "graph", "mapping", "phases", "iterations")

    def __init__(self, index: int, graph: CSRGraph):
        self.index = index
        self.graph = graph
        self.mapping = np.arange(graph.num_vertices, dtype=np.int64)
        self.phases = 0
        self.iterations = 0


def louvain_batch(
    graphs: "list[CSRGraph]",
    config: "LouvainConfig | None" = None,
    **overrides,
) -> "list[BatchGraphResult]":
    """Run baseline Louvain on many graphs as one batched computation.

    Packs ``graphs`` into their block-diagonal union and executes the
    multi-phase pipeline with one kernel invocation per sweep iteration
    (see the module docstring).  Per graph, the returned communities,
    modularity, phase count, and iteration count equal the standalone
    :func:`repro.louvain` run under the same configuration — the batch
    changes throughput, never results.

    Parameters
    ----------
    graphs:
        The input graphs (any mix of sizes and weight dtypes).
    config:
        :class:`~repro.core.config.LouvainConfig`; defaults to the
        baseline defaults.  Must keep ``use_vf``/``use_coloring`` off,
        ``kernel="vectorized"``, ``backend="serial"``, and no fault
        plan — :class:`~repro.utils.errors.ValidationError` otherwise.
    **overrides:
        Individual config fields to override.

    Returns
    -------
    list[BatchGraphResult]
        One entry per input graph, in input order.

    Examples
    --------
    >>> from repro.graph.generators import two_cliques_bridge
    >>> results = louvain_batch([two_cliques_bridge(3),
    ...                          two_cliques_bridge(5)])
    >>> [r.num_communities for r in results]
    [2, 2]
    """
    cfg = (config or LouvainConfig())
    if overrides:
        cfg = cfg.with_(**overrides)
    _validate_batch_config(cfg)
    for g in graphs:
        if not isinstance(g, CSRGraph):
            raise ValidationError("louvain_batch takes CSRGraph instances")

    results: "list[BatchGraphResult | None]" = [None] * len(graphs)
    work: "list[_Running]" = []
    for i, g in enumerate(graphs):
        if g.num_vertices == 0:
            results[i] = BatchGraphResult(
                communities=np.zeros(0, dtype=np.int64),
                modularity=0.0, num_phases=0, total_iterations=0,
                converged=True,
            )
        elif g.total_weight <= 0:
            # Edgeless: the standalone run sweeps once (nobody moves) and
            # stops on the no-progress rule after one phase.
            results[i] = BatchGraphResult(
                communities=np.arange(g.num_vertices, dtype=np.int64),
                modularity=0.0, num_phases=1, total_iterations=1,
                converged=True,
            )
        else:
            work.append(_Running(i, g))

    tracer = Tracer(enabled=cfg.trace)
    finished: "list[tuple[_Running, bool, bool]]" = []  # (w, converged, interrupted)
    with run_scope(tracer, "louvain_batch", budget=cfg.budget,
                   graphs=len(work)) as (controller, _):
        for phase_index in range(cfg.max_phases):
            if not work:
                break
            if controller.stop_reason() is not None:
                finished.extend((w, False, True) for w in work)
                work = []
                break
            batch = pack_graphs([w.graph for w in work])
            state = init_state(batch.graph)
            # One workspace per phase, like the driver: plans, the
            # loop-free row view and scratch are graph-bound and each phase
            # re-packs a new union.  Released before the rebuild.
            workspace = SweepWorkspace(batch.graph,
                                       aggregation=cfg.aggregation)
            with tracer.step("clustering", phase=phase_index):
                outcome = run_phase_batch(
                    batch, state,
                    threshold=cfg.final_threshold,
                    phase_index=phase_index,
                    use_min_label=cfg.use_min_label,
                    max_iterations=cfg.max_iterations_per_phase,
                    resolution=cfg.resolution,
                    workspace=workspace,
                    aggregation=cfg.aggregation,
                    prune=cfg.prune,
                    incremental=cfg.incremental_modularity,
                    sanitize=cfg.sanitize,
                )
            del workspace
            if outcome.interrupted and not int(outcome.iterations.max()):
                # Cut off before any iteration ran: nothing to fold (the
                # driver likewise drops a record-less interrupted phase).
                finished.extend((w, False, True) for w in work)
                work = []
                break

            # One union coarsen; blocks stay contiguous under the dense
            # renumbering (each block's labels occupy a disjoint ordered
            # range), so the coarse union is itself a GraphBatch and the
            # per-graph coarse subgraphs are block slices of it.
            with tracer.step("rebuild", phase=phase_index):
                rebuild = coarsen(batch.graph, state.comm)
            dense = rebuild.vertex_to_meta
            meta_offsets = np.zeros(len(work) + 1, dtype=np.int64)
            for i in range(len(work)):
                meta_offsets[i + 1] = int(dense[batch.block(i)].max()) + 1
            coarse = GraphBatch(
                graph=rebuild.graph,
                vertex_offsets=meta_offsets,
                entry_offsets=rebuild.graph.indptr[meta_offsets],
            )

            next_work: "list[_Running]" = []
            for i, w in enumerate(work):
                w.phases += 1
                w.iterations += int(outcome.iterations[i])
                vs = batch.block(i)
                moff = int(meta_offsets[i])
                w.mapping = dense[vs.start + w.mapping] - moff
                gain = float(outcome.end_modularity[i]
                             - outcome.start_modularity[i])
                num_comms = int(meta_offsets[i + 1]) - moff
                made_progress = num_comms < batch.num_vertices_of(i)
                if outcome.interrupted and not outcome.converged[i]:
                    finished.append((w, False, True))
                elif gain < cfg.final_threshold:
                    finished.append((w, True, False))
                elif not made_progress:
                    finished.append((w, False, False))
                else:
                    w.graph = coarse.subgraph(i)
                    next_work.append(w)
            tracer.instant("batch_phase_end", phase=phase_index,
                           running=len(next_work))
            if outcome.interrupted:
                finished.extend((w, False, True) for w in next_work)
                next_work = []
            else:
                controller.note_phase()
            work = next_work
        # Phase cap exhausted with graphs still running.
        finished.extend((w, False, False) for w in work)

    for w, conv, intr in finished:
        communities, _ = renumber_labels(w.mapping)
        results[w.index] = BatchGraphResult(
            communities=communities,
            modularity=modularity(graphs[w.index], communities,
                                  resolution=cfg.resolution),
            num_phases=w.phases,
            total_iterations=w.iterations,
            converged=conv,
            interrupted=intr,
        )
    return results
