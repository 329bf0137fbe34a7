"""Distributed-memory parallel Louvain (bulk-synchronous, MPI-style).

The same pipeline as :mod:`repro.core.driver` — VF preprocessing, optional
multi-phase coloring, Jacobi sweeps with the minimum-label heuristics,
threshold schedule, graph rebuilds — organized as a BSP program over a
vertex-partitioned graph.  It runs on the driver's own loops: the
multilevel loop is :func:`repro.core.pipeline.run_pipeline`, and each
phase is :func:`repro.core.phase.run_phase` with the driver's arguments
(best-seen state, frontier pruning and incremental modularity included).
What this module adds is the rank partition of each phase graph, the
allgather of the phase's assignment, and the traffic.

The traffic is simulated, priced from each sweep's movers.  A phase's
execution backend is a :class:`_RankSweeps`, which takes the
``sweep_targets`` seam of :func:`repro.core.sweep.compute_targets` (the
seam the process backend uses).  Every sweep of a non-empty vertex set
is one superstep:

1. **local compute** — every rank evaluates Eq. 4 targets for its *owned*
   swept vertices against the snapshot (ghost labels arrived in the
   previous halo exchange; community degrees are replicated).  The sweep
   reads only the snapshot, so the ranks' shares are evaluated in one
   call;
2. **halo exchange** — each rank sends the ``(vertex, new label)`` pairs
   of its moved boundary vertices to every rank that ghosts them;
3. **allreduce** — the community degree and size deltas (a dense
   n-vector each, or the touched ``(community, delta)`` pairs under
   ``aggregation="sparse"``) and the moved count are summed so every rank
   holds consistent aggregates;
4. **barrier**.

The commit itself is ``run_phase``'s.  Each iteration then allreduces the
per-rank intra-weight partials of its modularity, one scalar.  A color
set that frontier pruning leaves empty is not swept, so it is not a
superstep.

Between phases the (much smaller) community assignment is allgathered and
the coarse graph rebuilt replicated on every rank — the standard practice
for multilevel distributed graph algorithms once the graph has collapsed.

Because every superstep applies exactly the shared-memory Jacobi update
through the same loop, the distributed run returns **bitwise identical
communities** to :func:`repro.core.driver.louvain` under the same
configuration, for any rank count, partition scheme and aggregation —
verified by the test-suite.  What *changes* with them is the
communication volume, which the
:class:`~repro.distributed.cluster.TrafficLog` captures and the α–β model
prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LouvainConfig
from repro.core.driver import _SharedMemoryPhases
from repro.core.history import ConvergenceHistory
from repro.core.pipeline import run_pipeline
from repro.core.sweep import compute_targets_vectorized
from repro.distributed.cluster import NetworkModel, SimCluster, TrafficLog
from repro.distributed.partition import RankPartition, partition_vertices
from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import resolve_sanitize, snapshot_kernel
from repro.obs.trace import Tracer, get_tracer, resolve_trace
from repro.robust.budget import BudgetOutcome, RunBudget
from repro.utils.errors import ValidationError

__all__ = ["DistributedResult", "distributed_louvain"]


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


class _RankSweeps:
    """The execution backend of one BSP phase: each sweep is a superstep.

    ``run_phase`` hands every sweep to :meth:`sweep_targets` and commits
    the returned targets itself; this backend computes them and charges
    the superstep's collectives to the cluster, priced from the movers.
    """

    def __init__(self, cluster: SimCluster, part: RankPartition,
                 aggregation: str):
        self.cluster = cluster
        self.part = part
        self.aggregation = aggregation
        # Per-phase scratch, keyed by vertex: which moved this superstep,
        # and to what label.
        n = part.owner.size
        self.moved = np.zeros(n, dtype=bool)
        self.label = np.zeros(n, dtype=np.int64)

    @snapshot_kernel("graph", "state")
    def sweep_targets(self, graph, state, vertices, *, use_min_label: bool,
                      resolution: float, aggregation: "str | None" = None,
                      sanitize: bool = False, rows=None) -> np.ndarray:
        """One superstep: the sweep's targets, with its traffic charged.

        Reads only the snapshot (``compute_targets`` holds it frozen when
        ``sanitize`` is on); the commit is the caller's.
        """
        tracer = get_tracer()
        with tracer.span("local_compute", vertices=int(vertices.size)):
            targets = compute_targets_vectorized(
                graph, state, vertices,
                use_min_label=use_min_label, resolution=resolution,
                aggregation=aggregation, rows=rows,
            )
        moved = np.flatnonzero(targets != state.comm[vertices])
        self._charge(vertices.take(moved), targets.take(moved))
        return targets

    def _charge(self, movers: np.ndarray, dest: np.ndarray) -> None:
        """Charge the superstep that moves ``movers`` to ``dest``."""
        cluster, part = self.cluster, self.part
        p = cluster.num_ranks
        tracer = get_tracer()
        self.moved[movers] = True
        self.label[movers] = dest
        # Halo: each rank sends its moved boundary vertices' (vertex id,
        # new label) pairs to every rank that ghosts them.
        sends: dict[tuple[int, int], np.ndarray] = {}
        if movers.size:
            for r in range(p):
                for s in range(p):
                    boundary = part.boundary_to[r][s]
                    changed = boundary.take(
                        np.flatnonzero(self.moved[boundary]))
                    if changed.size:
                        sends[(r, s)] = np.column_stack(
                            [changed, self.label[changed]]).ravel()
        self.moved[movers] = False
        with tracer.span("halo_exchange", messages=len(sends)):
            cluster.halo_exchange(sends)
        # The degree and size deltas: a dense n-vector each, or the pairs
        # -k / +k (-1 / +1) at every mover's source and destination.
        with tracer.span("allreduce", aggregation=self.aggregation):
            if self.aggregation == "sparse":
                cluster.sparse_allreduce(2 * movers.size)
                cluster.sparse_allreduce(2 * movers.size)
            else:
                cluster.allreduce(self.moved.size)
                cluster.allreduce(self.moved.size)
            counts = np.bincount(part.owner[movers], minlength=p)
            cluster.allreduce_sum([counts[r:r + 1] for r in range(p)])
        cluster.barrier()


class _BSPPhases(_SharedMemoryPhases):
    """The driver's phase over a fresh rank partition of each phase graph.

    Every rank colors the replicated phase graph with the same seed, so
    the color sets the loop hands in need no coordination traffic.
    """

    pipeline = "distributed"
    span = "distributed_louvain"

    def __init__(self, cfg: LouvainConfig, n: int, num_ranks: int, *,
                 semantic_config: dict, partition_scheme: str,
                 aggregation: str):
        self.cfg = cfg
        self.semantic_config = semantic_config
        self.span_args = {"n": n, "ranks": num_ranks}
        self.cluster = SimCluster(num_ranks)
        self.num_ranks = num_ranks
        self.partition_scheme = partition_scheme
        self.aggregation = aggregation
        #: Per folded phase: (cut_edges, replication_factor).
        self.partition_stats: list[tuple[int, float]] = []

    def __enter__(self) -> "_BSPPhases":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def vf_merged(self, vertex_to_meta):
        # The merge map is computed from replicated input and agreed on
        # via broadcast.
        self.cluster.broadcast(vertex_to_meta)

    def run_phase(self, graph, state, **phase):
        self.part = partition_vertices(graph, self.num_ranks,
                                       scheme=self.partition_scheme)
        self.phase_stats = (self.part.cut_edges(graph),
                            self.part.replication_factor())
        self.backend = _RankSweeps(self.cluster, self.part,
                                   self.aggregation)
        outcome = super().run_phase(graph, state, **phase)
        # Each iteration's modularity: an allreduce of the per-rank
        # intra-weight partials.
        for _ in outcome.records:
            self.cluster.allreduce(1)
        return outcome

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
