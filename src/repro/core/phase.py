"""One phase of the parallel Louvain algorithm (Algorithm 1's outer loop).

A phase repeatedly sweeps the vertices until the relative modularity gain
between consecutive iterations falls below the threshold θ (line 18).
Without coloring, one iteration is a single Jacobi sweep of all vertices;
with coloring, one iteration processes the color sets in ascending color
order, committing community state between sets (so later sets see the
"community information from the previous coloring stages", §5.4 step 3).

Hot-path structure (see docs/algorithms.md §9):

* a :class:`~repro.core.workspace.SweepWorkspace` caches the gather plans
  and scratch buffers the vectorized kernel needs, so per-iteration setup
  work is paid once per vertex set instead of once per sweep;
* **frontier pruning** (Staudt & Meyerhenke's active-vertex strategy,
  composable with our snapshot semantics): after a sweep, only vertices
  adjacent to a mover — plus the movers themselves — can have locally
  changed candidate moves, so only they are re-evaluated next iteration.
  Because distant moves can still shift community degrees ``a_C``, a
  pruned run that reaches a fixed point is re-verified with one full
  sweep before the phase reports convergence — the returned partition is
  a genuine full-sweep fixed point;
* **incremental modularity**: :func:`repro.core.sweep.apply_moves_tracked`
  returns the exact change of both Eq. 3 ingredients in O(edges touched
  by movers), so the per-iteration Q needs no O(M) recount.  An exact
  recount still runs once at the phase boundary as a drift guard (and is
  what ``end_modularity`` reports);
* the phase keeps the **best-seen state**: parallel sweeps can lose
  modularity (Lemma 1's caveat), so the returned state is the highest-Q
  assignment observed — never worse than the phase's input, which makes
  warm starts monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.history import IterationRecord
from repro.core.modularity import intra_community_weight
from repro.core.sweep import (
    SweepState,
    apply_moves,
    apply_moves_tracked,
    compute_targets,
)
from repro.core.workspace import SweepWorkspace, resolve_aggregation
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import resolve_sanitize
from repro.obs.trace import get_tracer
from repro.parallel.backends import ExecutionBackend
from repro.robust.budget import get_budget
from repro.robust.faults import get_injector

__all__ = ["PhaseOutcome", "run_phase", "state_modularity"]


@dataclass(frozen=True)
class PhaseOutcome:
    """Result of one phase: final state plus its iteration records.

    ``state`` is the *best-seen* assignment of the phase (recounted
    exactly), not necessarily the last sweep's — see the module docstring.
    """

    state: SweepState
    records: list[IterationRecord]
    start_modularity: float
    end_modularity: float
    converged: bool
    #: True when the ambient :class:`~repro.robust.budget.BudgetController`
    #: requested a stop mid-phase (deadline/cap/signal).  The state is
    #: still the best-seen, exactly-recounted assignment; ``converged``
    #: stays False.
    interrupted: bool = False


def state_modularity(graph: CSRGraph, state: SweepState,
                     *, resolution: float = 1.0) -> float:
    """Eq. 3 modularity of the current sweep state (vectorized O(M))."""
    m = graph.total_weight
    if m <= 0:
        return 0.0
    intra = intra_community_weight(graph, state.comm)
    a = state.comm_degree
    return intra / (2.0 * m) - resolution * float(
        np.square(a / (2.0 * m)).sum()
    )


def _color_set_edge_counts(graph: CSRGraph, sets: list[np.ndarray]) -> list[int]:
    deg = graph.unweighted_degrees
    return [int(deg[s].sum()) for s in sets]


def run_phase(
    graph: CSRGraph,
    state: SweepState,
    *,
    threshold: float,
    phase_index: int = 0,
    color_sets: "list[np.ndarray] | None" = None,
    kernel: str = "vectorized",
    use_min_label: bool = True,
    backend: ExecutionBackend | None = None,
    max_iterations: int = 1000,
    resolution: float = 1.0,
    workspace: "SweepWorkspace | None" = None,
    aggregation: str = "auto",
    prune: bool = True,
    incremental: bool = True,
    sanitize: "bool | None" = None,
) -> PhaseOutcome:
    """Iterate sweeps until the relative modularity gain drops below θ.

    Parameters
    ----------
    threshold:
        θ of Algorithm 1 line 18: the phase ends when
        ``|Q_curr - Q_prev| / |Q_prev| < θ``.
    color_sets:
        Optional color-based partition of the vertices; ``None`` means a
        single set containing every vertex (Algorithm 1's note on line 2).
    max_iterations:
        Safety cap; parallel sweeps lack the serial monotonicity guarantee
        (Lemma 1), so a hard stop bounds the worst case.
    workspace:
        Reusable :class:`~repro.core.workspace.SweepWorkspace` for this
        graph; created on the fly when ``None`` and the vectorized kernel
        is in use.
    aggregation:
        e_{v→C} aggregation path for the vectorized kernel (``"auto"``,
        ``"sort"``, ``"bincount"``, ``"matmul"``).
    prune:
        Frontier pruning: re-evaluate only vertices adjacent to the
        previous iteration's movers.  A pruned fixed point is verified
        with one full sweep before the phase reports convergence, so the
        returned partition is always a full-sweep fixed point.  Set False
        to sweep every vertex every iteration (the seed behavior).
    incremental:
        Track modularity via the per-sweep deltas of
        :func:`~repro.core.sweep.apply_moves_tracked` instead of an O(M)
        recount per iteration.  The phase-boundary recount runs either way.
    sanitize:
        Freeze the community/degree/size snapshot arrays while each
        sweep's targets are computed, so an accidental in-place write in
        any kernel raises immediately (:mod:`repro.lint.sanitizer`).
        ``None`` defers to the ``REPRO_SANITIZE`` environment default
        (on in the test-suite, off in benchmarks); results are bitwise
        identical either way.

    Returns
    -------
    PhaseOutcome
        ``converged`` is False only when the iteration cap fired.
    """
    n = graph.num_vertices
    m = graph.total_weight
    all_vertices = np.arange(n, dtype=np.int64)
    if color_sets is None:
        sets = [all_vertices]
    else:
        sets = [np.asarray(s, dtype=np.int64) for s in color_sets if len(s)]
    set_vertex_counts = tuple(int(s.size) for s in sets)
    set_edge_counts = tuple(_color_set_edge_counts(graph, sets))

    if workspace is None and kernel == "vectorized":
        workspace = SweepWorkspace(graph, aggregation=aggregation)

    sanitize = resolve_sanitize(sanitize)
    track = incremental or prune

    # Incremental Q ingredients (exact O(M) once at the phase start).
    two_m = 2.0 * m
    intra = intra_community_weight(graph, state.comm)
    degree_sq = float(np.square(state.comm_degree).sum())

    def current_q() -> float:
        if m <= 0:
            return 0.0
        return intra / two_m - resolution * degree_sq / (two_m * two_m)

    start_q = (current_q() if incremental
               else state_modularity(graph, state, resolution=resolution))

    # Best-seen state (Lemma 1: parallel sweeps can lose Q, so the phase
    # must never end below its own input — the warm-start monotonicity fix).
    best_q = start_q
    best_comm = state.comm.copy()
    best_degree = state.comm_degree.copy()
    best_size = state.comm_size.copy()

    # Per-set active subsets (full sets until pruning shrinks them).
    active_sets: list[np.ndarray] = list(sets)
    unweighted_deg = graph.unweighted_degrees
    # Loop-free entries per vertex: each swept set's aggregation path is
    # resolved from the whole set, as the in-process kernel resolves it,
    # before dispatch — thread chunks, process workers and ranks each
    # sweep only a part of it, so the history reads the same on every
    # backend.
    if kernel != "vectorized" or m <= 0:
        loop_free_deg = None
    elif graph.num_self_loops:
        loop_free_deg = np.diff(workspace.rows.indptr)
    else:
        loop_free_deg = unweighted_deg
    # One mask for the whole phase; apply_moves_tracked ORs each sweep's
    # frontier into it (O(edges touched), no edge-sized sort+unique).
    frontier_mask = np.zeros(n, dtype=bool) if track else None

    q_prev = -1.0  # Algorithm 1 line 4.
    records: list[IterationRecord] = []
    converged = False
    interrupted = False
    tracer = get_tracer()
    injector = get_injector()
    budget = get_budget()

    for iteration in range(max_iterations):
        # Cooperative cancellation: iteration boundaries are the finest
        # granularity at which the phase state is a valid snapshot.
        if budget.should_stop():
            interrupted = True
            break
        injector.on_sweep(phase_index, iteration)
        moved = 0
        active_vertices = 0
        active_edges = 0
        mode = ""
        full_sweep = all(
            act.size == full.size for act, full in zip(active_sets, sets)
        )
        with tracer.span("iteration", phase=phase_index, iteration=iteration):
            for set_index, act in enumerate(active_sets):
                if act.size == 0:
                    continue
                # Sweep boundary: community state is committed between
                # color sets (§5.4 step 3), so stopping here is as safe
                # as stopping between iterations.  Skip set 0 — an empty
                # iteration would record nothing new.
                if set_index and budget.should_stop():
                    interrupted = True
                    break
                active_vertices += int(act.size)
                entries = int(unweighted_deg[act].sum())
                active_edges += entries
                if loop_free_deg is not None:
                    num_pairs = (entries if loop_free_deg is unweighted_deg
                                 else int(loop_free_deg[act].sum()))
                    if num_pairs:
                        mode = resolve_aggregation(aggregation, int(act.size),
                                                   n, num_pairs)
                with tracer.span("sweep", set=set_index, vertices=int(act.size)):
                    targets = compute_targets(
                        graph, state, act,
                        kernel=kernel, use_min_label=use_min_label,
                        backend=backend,
                        resolution=resolution, workspace=workspace,
                        aggregation=aggregation, plan_key=("set", set_index),
                        sanitize=sanitize,
                    )
                    if track:
                        result = apply_moves_tracked(
                            graph, state, act, targets, workspace=workspace,
                            frontier_out=frontier_mask,
                        )
                        moved += result.num_moved
                        intra += result.delta_intra
                        degree_sq += result.delta_degree_sq
                    else:
                        moved += apply_moves(graph, state, act, targets)

        q_curr = (current_q() if incremental
                  else state_modularity(graph, state, resolution=resolution))
        if tracer.enabled:
            tracer.count("sweep.moves", moved)
            tracer.observe("iteration.moves", moved)
            tracer.observe("iteration.active_vertices", active_vertices)
            if mode:
                tracer.count(f"aggregation.{mode}")
        records.append(
            IterationRecord(
                phase=phase_index,
                iteration=iteration,
                modularity=q_curr,
                vertices_moved=moved,
                num_communities=state.num_communities(),
                color_set_vertices=set_vertex_counts,
                color_set_edges=set_edge_counts,
                active_vertices=active_vertices,
                active_edges=active_edges,
                aggregation=mode,
            )
        )
        if q_curr > best_q:
            best_q = q_curr
            np.copyto(best_comm, state.comm)
            np.copyto(best_degree, state.comm_degree)
            np.copyto(best_size, state.comm_size)
        budget.note_iteration()

        if interrupted:
            # A partial iteration's ``moved`` only covers the sets that
            # ran — not a convergence signal.  The record and best-seen
            # update above still stand (the state is committed/valid).
            break
        if moved == 0:
            if prune and not full_sweep:
                # A pruned fixed point: distant moves may still have opened
                # gains for inactive vertices (a_C shifts globally), so
                # verify with one full sweep before declaring convergence.
                active_sets = list(sets)
                q_prev = q_curr
                continue
            converged = True
            break
        # Line 18 of Algorithm 1 with the *signed* gain: a negligible — or
        # negative (Lemma 1: parallel sweeps can lose modularity) — gain
        # ends the phase.  This is what bounds oscillating sweeps.
        if (q_curr - q_prev) < threshold * abs(q_prev):
            converged = True
            break
        q_prev = q_curr

        if prune:
            active_sets = [s.take(np.flatnonzero(frontier_mask[s]))
                           for s in sets]
            frontier_mask[:] = False

    # Phase boundary: restore the best-seen state if the trajectory ended
    # below it, then recount Q exactly (the incremental-tracking drift
    # guard) — what the caller coarsens and reports.
    if best_q > (records[-1].modularity if records else start_q):
        np.copyto(state.comm, best_comm)
        np.copyto(state.comm_degree, best_degree)
        np.copyto(state.comm_size, best_size)
    end_q = state_modularity(graph, state, resolution=resolution)
    return PhaseOutcome(
        state=state,
        records=records,
        start_modularity=start_q,
        end_modularity=end_q,
        converged=converged,
        interrupted=interrupted,
    )
