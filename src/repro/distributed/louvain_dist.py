"""Distributed-memory parallel Louvain (bulk-synchronous, MPI-style).

The same pipeline as :mod:`repro.core.driver` — VF preprocessing, optional
multi-phase coloring, Jacobi sweeps with the minimum-label heuristics,
threshold schedule, graph rebuilds — organized as a BSP program over a
vertex-partitioned graph:

Per iteration (per color set):

1. **local compute** — every rank evaluates Eq. 4 targets for its *owned*
   active vertices against the snapshot (ghost labels arrived in the
   previous halo exchange; community degrees are replicated);
2. **apply + delta** — ranks apply their local moves and form sparse
   community-degree deltas;
3. **halo exchange** — each rank sends the changed labels of its boundary
   vertices to the ranks that ghost them;
4. **allreduce** — degree/size deltas and the moved count are summed so
   every rank holds consistent aggregates; modularity follows from an
   allreduce of per-rank intra-weight partials.

Between phases the (much smaller) community assignment is allgathered and
the coarse graph rebuilt replicated on every rank — the standard practice
for multilevel distributed graph algorithms once the graph has collapsed.

The multilevel loop — VF, the coloring schedule, checkpoints and resume,
budget cancellation, the rebuild and the records — is
:func:`repro.core.pipeline.run_pipeline`, shared with the driver.  This
module supplies its phase (the supersteps above, on a fresh rank
partition of each phase graph) and its assignment step (the allgather).

Because every superstep applies exactly the shared-memory Jacobi update,
the distributed run returns **bitwise identical communities** to
:func:`repro.core.driver.louvain` under the same configuration, for any
rank count and partition scheme — verified by the test-suite.  What
*changes* with the rank count is the communication volume, which the
:class:`~repro.distributed.cluster.TrafficLog` captures and the α–β model
prices.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LouvainConfig
from repro.core.history import ConvergenceHistory, IterationRecord
from repro.core.phase import PhaseOutcome, state_modularity
from repro.core.pipeline import PhaseExecutor, run_pipeline
from repro.core.sweep import SweepState, compute_targets_vectorized
from repro.core.workspace import SweepWorkspace
from repro.distributed.cluster import NetworkModel, SimCluster, TrafficLog
from repro.distributed.partition import RankPartition, partition_vertices
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import frozen_snapshot, resolve_sanitize, snapshot_kernel
from repro.obs.trace import Tracer, get_tracer, resolve_trace
from repro.robust.budget import BudgetOutcome, RunBudget, get_budget
from repro.robust.faults import get_injector
from repro.utils.errors import ValidationError

__all__ = ["DistributedResult", "distributed_louvain"]


@snapshot_kernel("graph", "state")
def _rank_local_targets(
    graph: CSRGraph,
    state: SweepState,
    active: np.ndarray,
    *,
    use_min_label: bool,
    resolution: float,
    workspace: SweepWorkspace,
    plan_key: object,
) -> np.ndarray:
    """Superstep 1 kernel: Eq. 4 targets for one rank's owned vertices.

    Reads only the replicated snapshot (labels from the previous halo
    exchange, replicated community degrees) — the BSP equivalent of the
    shared-memory Jacobi sweep, and the region the snapshot sanitizer
    freezes when ``sanitize`` is on.  ``workspace`` is the phase's; a
    rank's share of a vertex set is the same every iteration, so its plan
    (under ``plan_key``) is gathered once per phase.
    """
    return compute_targets_vectorized(
        graph, state, active,
        use_min_label=use_min_label, resolution=resolution,
        workspace=workspace, plan_key=plan_key,
    )


@dataclass
class DistributedResult:
    """Output of one distributed run."""

    communities: np.ndarray
    modularity: float
    history: ConvergenceHistory
    traffic: TrafficLog
    num_ranks: int
    #: Per-phase (cut_edges, replication_factor) of the rank partition.
    partition_stats: list = field(default_factory=list)
    #: The run's tracer when tracing was enabled (``None`` otherwise).
    trace: "Tracer | None" = None
    #: What the run's :class:`~repro.robust.budget.RunBudget` did
    #: (``None`` for unbudgeted runs).
    budget_outcome: "BudgetOutcome | None" = None

    @property
    def num_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0

    def communication_time(self, network: NetworkModel | None = None) -> float:
        """Simulated communication time under an α–β network model."""
        return (network or NetworkModel()).time(self.traffic)


def _distributed_phase(
    graph: CSRGraph,
    cluster: SimCluster,
    part: RankPartition,
    state: SweepState,
    *,
    threshold: float,
    phase_index: int,
    color_sets,
    use_min_label: bool,
    max_iterations: int,
    resolution: float,
    aggregation: str,
    sanitize: bool = False,
) -> PhaseOutcome:
    """One phase as supersteps; mirrors :func:`repro.core.phase.run_phase`.

    ``interrupted`` is set when the ambient budget controller requested a
    stop at a superstep boundary (the committed state is still consistent
    across ranks).  Unlike ``run_phase`` the BSP loop keeps no best-seen
    state: ``state`` is the last superstep's.
    """
    n = graph.num_vertices
    p = cluster.num_ranks
    all_vertices = np.arange(n, dtype=np.int64)
    sets = ([all_vertices] if color_sets is None
            else [np.asarray(s, dtype=np.int64) for s in color_sets if len(s)])
    set_vertex_counts = tuple(int(s.size) for s in sets)
    deg = graph.unweighted_degrees
    set_edge_counts = tuple(int(deg[s].sum()) for s in sets)
    in_rank = [np.zeros(n, dtype=bool) for _ in range(p)]
    for r in range(p):
        in_rank[r][part.owned[r]] = True
    workspace = SweepWorkspace(graph)

    q_prev = -1.0
    start_q = state_modularity(graph, state, resolution=resolution)
    records: list[IterationRecord] = []
    converged = False
    interrupted = False
    tracer = get_tracer()
    injector = get_injector()
    budget = get_budget()

    for iteration in range(max_iterations):
        if budget.should_stop():
            interrupted = True
            break
        injector.on_sweep(phase_index, iteration)
        moved_total = 0
        for set_index, vertex_set in enumerate(sets):
            # Superstep boundary: the previous set's moves are fully
            # applied and allreduced, so stopping here leaves every rank
            # with the same consistent state.
            if set_index and budget.should_stop():
                interrupted = True
                break
            # -- superstep: local compute on every rank -------------------
            # Every rank reads the same snapshot; freezing it for the
            # whole superstep asserts exactly that (no rank may see
            # another rank's in-flight writes before the halo exchange).
            targets_by_rank = []
            active_by_rank = []
            guard = frozen_snapshot(state) if sanitize else nullcontext()
            compute_span = tracer.span(
                "local_compute", phase=phase_index, iteration=iteration,
                set=set_index,
            )
            with compute_span, guard:
                for r in range(p):
                    active = vertex_set.take(
                        np.flatnonzero(in_rank[r][vertex_set]))
                    active_by_rank.append(active)
                    targets_by_rank.append(
                        _rank_local_targets(
                            graph, state, active,
                            use_min_label=use_min_label,
                            resolution=resolution,
                            workspace=workspace, plan_key=(r, set_index),
                        )
                    )
            # -- apply local moves, build deltas ---------------------------
            sparse_idx = []
            sparse_deg = []
            sparse_size = []
            moved_counts = []
            changed_by_rank = []
            k_arr = graph.degrees
            for r in range(p):
                active = active_by_rank[r]
                targets = targets_by_rank[r]
                cur = state.comm[active]
                moved = np.flatnonzero(targets != cur)
                mv, src, dst = (active.take(moved), cur.take(moved),
                                targets.take(moved))
                if mv.size:
                    state.comm[mv] = dst
                # Sparse (index, delta) pairs: -k at the source community,
                # +k at the destination.
                idx = np.concatenate([src, dst])
                d_deg = np.concatenate([-k_arr[mv], k_arr[mv]])
                d_size = np.concatenate([
                    -np.ones(mv.size), np.ones(mv.size)
                ])
                sparse_idx.append(idx)
                sparse_deg.append(d_deg)
                sparse_size.append(d_size)
                moved_counts.append(np.asarray([mv.size], dtype=np.int64))
                changed_by_rank.append(set(mv.tolist()))
            # -- halo exchange of changed boundary labels ------------------
            sends: dict[tuple[int, int], np.ndarray] = {}
            for r in range(p):
                if not changed_by_rank[r]:
                    continue
                for s in range(p):
                    if s == r:
                        continue
                    boundary = part.boundary_to[r][s]
                    if boundary.size == 0:
                        continue
                    changed = np.asarray(
                        [v for v in boundary.tolist()
                         if v in changed_by_rank[r]],
                        dtype=np.int64,
                    )
                    if changed.size:
                        # Payload: (vertex id, new label) pairs.
                        sends[(r, s)] = np.column_stack(
                            [changed, state.comm[changed]]
                        ).ravel()
            with tracer.span("halo_exchange", phase=phase_index,
                             iteration=iteration, messages=len(sends)):
                cluster.halo_exchange(sends)
            # -- allreduce aggregates --------------------------------------
            with tracer.span("allreduce", phase=phase_index,
                             iteration=iteration, aggregation=aggregation):
                if aggregation == "sparse":
                    state.comm_degree += cluster.sparse_allreduce_sum(
                        sparse_idx, sparse_deg, n
                    )
                    state.comm_size += cluster.sparse_allreduce_sum(
                        sparse_idx, sparse_size, n
                    ).astype(np.int64)
                else:
                    dense_deg = []
                    dense_size = []
                    for idx, dd, ds in zip(sparse_idx, sparse_deg,
                                           sparse_size):
                        buf_d = np.zeros(n, dtype=np.float64)
                        buf_s = np.zeros(n, dtype=np.float64)
                        if idx.size:
                            np.add.at(buf_d, idx, dd)
                            np.add.at(buf_s, idx, ds)
                        dense_deg.append(buf_d)
                        dense_size.append(buf_s)
                    state.comm_degree += cluster.allreduce_sum(dense_deg)
                    state.comm_size += cluster.allreduce_sum(
                        dense_size
                    ).astype(np.int64)
                moved_total += int(cluster.allreduce_sum(moved_counts)[0])
            cluster.barrier()

        # -- modularity via per-rank intra partials ------------------------
        m = graph.total_weight
        row_of = graph.row_of_entry()
        partials = []
        for r in range(p):
            mine = in_rank[r][row_of]
            same = state.comm[row_of[mine]] == state.comm[graph.indices[mine]]
            partials.append(
                np.asarray([float(graph.weights[mine][same].sum())])
            )
        intra = float(cluster.allreduce_sum(partials)[0])
        q_curr = (intra / (2.0 * m) - resolution * float(
            np.square(state.comm_degree / (2.0 * m)).sum()
        )) if m > 0 else 0.0
        records.append(
            IterationRecord(
                phase=phase_index,
                iteration=iteration,
                modularity=q_curr,
                vertices_moved=moved_total,
                num_communities=state.num_communities(),
                color_set_vertices=set_vertex_counts,
                color_set_edges=set_edge_counts,
            )
        )
        budget.note_iteration()
        if interrupted:
            # A partial iteration's moved count only covers the sets
            # that ran — not a convergence signal.
            break
        if moved_total == 0 or (q_curr - q_prev) < threshold * abs(q_prev):
            converged = True
            break
        q_prev = q_curr

    end_q = records[-1].modularity if records else start_q
    return PhaseOutcome(state=state, records=records, start_modularity=start_q,
                        end_modularity=end_q, converged=converged,
                        interrupted=interrupted)


class _BSPPhases(PhaseExecutor):
    """Supersteps over a fresh rank partition of each phase graph.

    Every rank colors the replicated phase graph with the same seed, so
    the color sets the loop hands in need no coordination traffic.
    """

    pipeline = "distributed"
    span = "distributed_louvain"
    keeps_best_seen = False
    # Its phase records never listed them; a history resumed from an
    # older checkpoint keeps one form throughout.
    records_color_classes = False

    def __init__(self, cfg: LouvainConfig, n: int, num_ranks: int, *,
                 semantic_config: dict, partition_scheme: str,
                 aggregation: str):
        self.semantic_config = semantic_config
        self.span_args = {"n": n, "ranks": num_ranks}
        self.cfg = cfg
        self.cluster = SimCluster(num_ranks)
        self.num_ranks = num_ranks
        self.partition_scheme = partition_scheme
        self.aggregation = aggregation
        #: Per folded phase: (cut_edges, replication_factor).
        self.partition_stats: list[tuple[int, float]] = []

    def vf_merged(self, vertex_to_meta):
        # The merge map is computed from replicated input and agreed on
        # via broadcast.
        self.cluster.broadcast(vertex_to_meta)

    def run_phase(self, graph, state, *, phase_index, color_sets, threshold,
                  prune):
        self.part = partition_vertices(graph, self.num_ranks,
                                       scheme=self.partition_scheme)
        self.phase_stats = (self.part.cut_edges(graph),
                            self.part.replication_factor())
        return _distributed_phase(
            graph, self.cluster, self.part, state,
            threshold=threshold,
            phase_index=phase_index,
            color_sets=color_sets,
            use_min_label=self.cfg.use_min_label,
            max_iterations=self.cfg.max_iterations_per_phase,
            resolution=self.cfg.resolution,
            aggregation=self.aggregation,
            sanitize=self.cfg.sanitize,
        )

    def assignment(self, state):
        # Allgather the owned label blocks; the coarse graph is then
        # rebuilt replicated on every rank.
        self.partition_stats.append(self.phase_stats)
        owned = self.part.owned
        gathered = self.cluster.allgatherv([state.comm[o] for o in owned])
        assignment = np.empty(state.comm.size, dtype=np.int64)
        assignment[np.concatenate(owned)] = gathered
        return assignment

    def checkpoint_extra(self) -> dict:
        # A checkpoint of the state a phase starts from: the stats of the
        # phases folded so far.
        return {
            "num_ranks": self.num_ranks,
            "partition_stats": [list(entry)
                                for entry in self.partition_stats],
        }

    def restore(self, extra: dict) -> None:
        self.partition_stats = [
            tuple(entry) for entry in extra.get("partition_stats", [])
        ]


def distributed_louvain(
    graph: CSRGraph,
    num_ranks: int,
    *,
    use_vf: bool = False,
    use_coloring: bool = False,
    multiphase_coloring: bool = True,
    coloring_min_vertices: int = 100_000,
    colored_threshold: float = 1e-2,
    final_threshold: float = 1e-6,
    use_min_label: bool = True,
    partition_scheme: str = "edge_balanced",
    aggregation: str = "dense",
    max_phases: int = 32,
    max_iterations_per_phase: int = 1000,
    seed: int | None = 0,
    resolution: float = 1.0,
    sanitize: "bool | None" = None,
    trace: "bool | None" = None,
    fault_plan: "str | None" = None,
    budget: "RunBudget | None" = None,
    checkpoint=None,
    resume=None,
) -> DistributedResult:
    """Run the paper's pipeline as a BSP program over ``num_ranks`` ranks.

    Parameters mirror :class:`repro.core.config.LouvainConfig`, plus
    ``aggregation``: ``"dense"`` allreduces full community-degree vectors
    every superstep (the straightforward scheme), ``"sparse"`` ships only
    the touched (community, delta) pairs — the Vite-style optimization
    whose traffic tracks moves instead of community count.  Both produce
    identical results; only the traffic log differs.  ``sanitize``
    (``None`` = the ``REPRO_SANITIZE`` default) freezes the replicated
    snapshot during each local-compute superstep
    (:mod:`repro.lint.sanitizer`).  ``trace`` (``None`` = the
    ``REPRO_TRACE`` default) records the run into the observability layer
    (:mod:`repro.obs`): step buckets per phase plus
    ``local_compute``/``halo_exchange``/``allreduce`` spans per superstep.

    ``fault_plan`` arms :mod:`repro.robust.faults` for the run (the
    ``raise`` action fires at superstep boundaries).  ``checkpoint``
    writes a phase-boundary ``.ckpt.npz`` after every phase that will be
    followed by another; ``resume`` continues from one — the resumed run
    reproduces the uninterrupted run's final assignment and modularity
    exactly, but its :class:`~repro.distributed.cluster.TrafficLog`
    restarts from zero (traffic before the checkpoint was already paid
    and logged by the interrupted run).

    ``budget`` bounds the run (:class:`~repro.robust.budget.RunBudget`):
    enforced at superstep boundaries; on expiry or SIGINT/SIGTERM the
    run cancels cooperatively (walking the driver's degradation ladder
    first, under pressure) — it returns the best consistent partition
    seen, reports a ``budget_outcome``, and writes a phase-boundary
    cancellation checkpoint (to ``budget.checkpoint`` or ``checkpoint``)
    whose unbudgeted resume reproduces the unbudgeted final assignment
    bitwise.  The budget is execution mechanics, not semantics: it does
    not enter the checkpoint fingerprint.
    """
    if num_ranks < 1:
        raise ValidationError("num_ranks must be >= 1")
    if aggregation not in ("dense", "sparse"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    # Rank count, partition scheme and aggregation are semantic here;
    # sanitize/trace/fault_plan/budget are not.
    semantic_config = {
        "use_vf": use_vf,
        "use_coloring": use_coloring,
        "multiphase_coloring": multiphase_coloring,
        "coloring_min_vertices": coloring_min_vertices,
        "colored_threshold": colored_threshold,
        "final_threshold": final_threshold,
        "use_min_label": use_min_label,
        "partition_scheme": partition_scheme,
        "aggregation": aggregation,
        "max_phases": max_phases,
        "max_iterations_per_phase": max_iterations_per_phase,
        "seed": seed,
        "resolution": resolution,
        "num_ranks": num_ranks,
    }
    # Every run-scope setting is explicit: the distributed run reads no
    # environment default but ``sanitize`` and ``trace``.
    cfg = LouvainConfig(
        use_vf=use_vf, use_coloring=use_coloring,
        multiphase_coloring=multiphase_coloring,
        coloring_min_vertices=coloring_min_vertices,
        colored_threshold=colored_threshold,
        final_threshold=final_threshold, use_min_label=use_min_label,
        max_phases=max_phases,
        max_iterations_per_phase=max_iterations_per_phase, seed=seed,
        resolution=resolution, sanitize=resolve_sanitize(sanitize),
        trace=resolve_trace(trace), profile=False, metrics_ring=None,
        fault_plan=fault_plan, budget=budget,
    )
    phases = _BSPPhases(
        cfg, graph.num_vertices, num_ranks, semantic_config=semantic_config,
        partition_scheme=partition_scheme, aggregation=aggregation,
    )
    run = run_pipeline(graph, cfg, phases, checkpoint=checkpoint,
                       resume=resume)
    return DistributedResult(
        communities=run.communities,
        modularity=run.modularity,
        history=run.history,
        traffic=phases.cluster.traffic,
        num_ranks=num_ranks,
        partition_stats=phases.partition_stats,
        trace=run.trace,
        budget_outcome=run.budget_outcome,
    )
