"""The serial Louvain method (paper §3) — the baseline of every comparison.

Faithful to Blondel et al. and to the reference implementation the paper
compares against [10]: within each iteration the vertices are scanned
*sequentially* in a fixed (arbitrary but predefined) order, each vertex
greedily moving to the neighboring community of maximum modularity gain
(Eq. 4/Eq. 5) using the **latest** community state — so, unlike the
parallel sweep, modularity is monotonically non-decreasing across
iterations of a phase (a property the test-suite asserts).  Phases iterate
until the relative gain falls below θ, then the graph is rebuilt (§3) and
the next phase starts from singleton communities of the coarse graph.

The multilevel loop (rebuilds, records, the stop rule) is
:func:`repro.core.pipeline.run_pipeline`; this module supplies its phase,
the Gauss–Seidel sweep of :func:`serial_iteration`.  The serial run has
no VF, coloring, checkpoint or budget surface: it stops when a phase
makes no progress or gains less than θ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LouvainConfig
from repro.core.history import ConvergenceHistory, IterationRecord
from repro.core.phase import PhaseOutcome, state_modularity
from repro.core.pipeline import PhaseExecutor, run_pipeline
from repro.core.sweep import SweepState
from repro.graph.csr import CSRGraph
from repro.obs.trace import Tracer, get_tracer, resolve_trace
from repro.utils.errors import ValidationError
from repro.utils.rng import as_rng
from repro.utils.timing import StepTimer

__all__ = ["SerialLouvainResult", "louvain_serial", "serial_iteration"]


def serial_iteration(
    graph: CSRGraph,
    state: SweepState,
    order: np.ndarray,
    *,
    resolution: float = 1.0,
) -> int:
    """One serial iteration: scan vertices in ``order``, moving greedily.

    Updates ``state`` in place after *every* vertex (Gauss–Seidel style, the
    crucial difference from the parallel Jacobi sweep).  Ties on the
    maximum gain keep the first candidate in ascending-label order, the
    deterministic stand-in for the reference code's arbitrary-order choice.

    Returns the number of vertices moved.
    """
    m = graph.total_weight
    if m <= 0:
        return 0
    two_m_sq = (2.0 * m) ** 2
    comm = state.comm
    a = state.comm_degree
    size = state.comm_size
    degrees = graph.degrees
    indices = graph.indices
    indptr = graph.indptr
    weights = graph.weights
    moved = 0

    for v in order.tolist():
        cur = int(comm[v])
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        ws = weights[lo:hi]
        k_v = float(degrees[v])
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
        if best_comm != cur:
            a[cur] -= k_v
            a[best_comm] += k_v
            size[cur] -= 1
            size[best_comm] += 1
            comm[v] = best_comm
            moved += 1
    return moved


@dataclass
class SerialLouvainResult:
    """Output of :func:`louvain_serial`."""

    #: Dense community labels (0..k-1) on the input graph's vertices.
    communities: np.ndarray
    #: Final modularity on the input graph.
    modularity: float
    history: ConvergenceHistory = field(default_factory=ConvergenceHistory)
    timers: StepTimer = field(default_factory=StepTimer)
    #: The run's tracer when tracing was enabled (``None`` otherwise).
    trace: "Tracer | None" = None

    @property
    def num_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0


class _GaussSeidelPhases(PhaseExecutor):
    """Serial iterations in a fixed visit order until the gain drops."""

    span = "louvain_serial"

    def __init__(self, cfg: LouvainConfig, n: int, *, order: str, rng):
        self.span_args = {"n": n, "order": order}
        self.semantic_config = {}
        self.cfg = cfg
        self.order = order
        self.rng = rng

    def run_phase(self, graph, state, *, phase_index, color_sets, threshold,
                  prune):
        n = graph.num_vertices
        resolution = self.cfg.resolution
        visit = (
            np.arange(n, dtype=np.int64)
            if self.order == "natural"
            else self.rng.permutation(n).astype(np.int64)
        )
        tracer = get_tracer()
        q_prev = -1.0
        start_q = state_modularity(graph, state, resolution=resolution)
        records: list[IterationRecord] = []
        converged = False
        for iteration in range(self.cfg.max_iterations_per_phase):
            with tracer.span("iteration", phase=phase_index,
                             iteration=iteration):
                moved = serial_iteration(graph, state, visit,
                                         resolution=resolution)
            q_curr = state_modularity(graph, state, resolution=resolution)
            if tracer.enabled:
                tracer.count("sweep.moves", moved)
                tracer.observe("iteration.moves", moved)
                tracer.observe("iteration.active_vertices", n)
            records.append(
                IterationRecord(
                    phase=phase_index,
                    iteration=iteration,
                    modularity=q_curr,
                    vertices_moved=moved,
                    num_communities=state.num_communities(),
                    color_set_vertices=(n,),
                    color_set_edges=(graph.num_entries,),
                )
            )
            if moved == 0 or (q_curr - q_prev) < threshold * abs(q_prev):
                converged = True
                break
            q_prev = q_curr
        end_q = records[-1].modularity if records else start_q
        return PhaseOutcome(state=state, records=records,
                            start_modularity=start_q, end_modularity=end_q,
                            converged=converged)


def louvain_serial(
    graph: CSRGraph,
    *,
    threshold: float = 1e-6,
    order: str = "natural",
    seed=None,
    max_phases: int = 32,
    max_iterations_per_phase: int = 1000,
    resolution: float = 1.0,
    trace: "bool | None" = None,
) -> SerialLouvainResult:
    """Run the full serial Louvain method.

    Parameters
    ----------
    threshold:
        Relative modularity-gain cutoff θ for iterations and phases.
    order:
        Vertex visit order per iteration: ``"natural"`` (ids ascending) or
        ``"random"`` (one seeded shuffle per phase — the "arbitrary but
        predefined order" of §3).
    seed:
        Seed for ``order="random"``.
    trace:
        Record the run into the observability layer (:mod:`repro.obs`);
        ``None`` defers to the ``REPRO_TRACE`` environment default.

    Returns
    -------
    SerialLouvainResult
    """
    if order not in ("natural", "random"):
        raise ValidationError(f"unknown order {order!r}")
    # Every run-scope setting is explicit: no environment default other
    # than ``trace`` reaches the serial run.
    cfg = LouvainConfig(
        final_threshold=threshold, max_phases=max_phases,
        max_iterations_per_phase=max_iterations_per_phase,
        resolution=resolution, trace=resolve_trace(trace), sanitize=False,
        profile=False, metrics_ring=None, fault_plan=None,
    )
    phases = _GaussSeidelPhases(cfg, graph.num_vertices, order=order,
                                rng=as_rng(seed))
    run = run_pipeline(graph, cfg, phases)
    return SerialLouvainResult(
        communities=run.communities,
        modularity=run.modularity,
        history=run.history,
        timers=run.timers,
        trace=run.trace,
    )
