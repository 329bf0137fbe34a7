"""One multilevel phase loop for every Louvain pipeline (paper §5.4).

The paper's pipeline is one list of steps — VF preprocessing, the §6.1
coloring schedule, phases of Algorithm 1, graph rebuilds — and the
shared-memory driver, the BSP simulation and the serial reference differ
only in how a phase sweeps.  :func:`run_pipeline` owns everything else:

* the run scope, a private helper of :func:`run_pipeline`: tracer,
  fault injector, budget controller and its signal handlers, metrics
  ring and profiler, entered in one :class:`~contextlib.ExitStack` so
  every ambient scope is restored even when an injected fault raises;
* resume loading — fingerprint, pipeline name and graph dimensions —
  and the checkpoints: one after every phase that another follows, and
  a cancellation checkpoint when the budget stops the run;
* the VF step, the coloring schedule and colorer dispatch, and the
  threshold each phase runs at; a caller that keeps a graph resident
  can hand a fresh run its phase-0 colors through
  :func:`use_phase_colors`;
* the budget stop check at each phase boundary and the degradation
  ladder;
* the fold of a phase into the history, dendrogram and mapping, the
  rule for folding an interrupted phase, and the converged / no-progress
  stop;
* the final dense renumbering and the exact modularity recount.

A pipeline supplies a :class:`PhaseExecutor`: how one phase runs on the
phase graph, and how the phase's assignment is collected for the rebuild.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.balanced import balance_colors
from repro.coloring.distance_k import distance_k_coloring
from repro.coloring.greedy import greedy_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.speculative import speculative_coloring
from repro.coloring.validate import color_class_sizes, color_set_partition
from repro.core.config import LouvainConfig
from repro.core.dendrogram import Dendrogram
from repro.core.history import ConvergenceHistory, PhaseRecord
from repro.core.phase import PhaseOutcome
from repro.core.sweep import SweepState, init_state
from repro.core.vf import VFResult, chain_compress, vf_merge
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph
from repro.obs.live import stream_metrics
from repro.obs.profile import ProfileData, profile_run
from repro.obs.trace import Tracer, use_tracer
from repro.robust.budget import BudgetOutcome, RunBudget, use_budget
from repro.robust.checkpoint import (
    NONSEMANTIC_CONFIG_FIELDS,
    Checkpoint,
    fingerprint_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.robust.faults import use_faults
from repro.utils.arrays import renumber_labels
from repro.utils.errors import CheckpointError
from repro.utils.timing import StepTimer, step_timer_view

__all__ = ["PhaseExecutor", "PipelineRun", "run_pipeline", "use_phase_colors"]


class PhaseExecutor:
    """How one pipeline runs a phase; :func:`run_pipeline` does the rest.

    Subclasses set the attributes in ``__init__`` and implement
    :meth:`run_phase`; the other hooks default to the shared-memory
    behaviour.  An executor is entered as a context manager for the
    run's duration (inside the run scope) and may hold resources there.
    """

    #: Checkpoint tag ("driver", "distributed"): a resume is accepted only
    #: from a checkpoint the same pipeline wrote.
    pipeline: str
    #: The settings that change the result, as a dict; the checkpoint
    #: fingerprint hashes it (less the execution-mechanics fields).
    semantic_config: dict
    #: Root span of the run's trace and its arguments.
    span: str
    span_args: dict

    def __enter__(self) -> "PhaseExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def run_phase(self, graph: CSRGraph, state: SweepState, *,
                  phase_index: int, color_sets, threshold: float,
                  prune: bool) -> PhaseOutcome:
        """Run one phase on ``graph`` from ``state`` (updated in place)."""
        raise NotImplementedError

    def assignment(self, state: SweepState) -> np.ndarray:
        """The phase's community of every phase-graph vertex."""
        return state.comm

    def vf_merged(self, vertex_to_meta: np.ndarray) -> None:
        """Called once when VF merged vertices, with its merge map."""

    def checkpoint_extra(self) -> dict:
        """Pipeline state a checkpoint carries besides the shared state."""
        return {}

    def restore(self, extra: dict) -> None:
        """Take back :meth:`checkpoint_extra` from a resumed checkpoint."""


@dataclass
class PipelineRun:
    """What :func:`run_pipeline` hands back to its entry point."""

    communities: np.ndarray
    modularity: float
    history: ConvergenceHistory
    dendrogram: Dendrogram
    timers: StepTimer = field(default_factory=StepTimer)
    vf: "VFResult | None" = None
    trace: "Tracer | None" = None
    budget_outcome: "BudgetOutcome | None" = None
    profile: "ProfileData | None" = None


@contextmanager
def _run_scope(tracer: Tracer, span: str, *,
               fault_plan: "str | None" = None,
               budget: "RunBudget | None" = None,
               metrics_ring: "str | None" = None, profile: bool = False,
               **span_args):
    """Make ``tracer``, the fault plan and the budget ambient for a run.

    Yields ``(controller, profile data)``.  The tracer stays ambient so
    nested kernels and forked workers emit without threading it through
    signatures; the budget controller's clock starts on entry.  The live
    plane — the metrics ring and the sampling profiler — only observes,
    so results are bitwise identical with it on or off.  Every scope is
    restored on exit, an exception included.
    """
    with ExitStack() as stack:
        stack.enter_context(use_tracer(tracer))
        stack.enter_context(use_faults(fault_plan))
        controller = stack.enter_context(use_budget(budget))
        stack.enter_context(controller.signal_scope())
        if metrics_ring:
            stack.enter_context(stream_metrics(tracer, metrics_ring))
        profile_data = stack.enter_context(profile_run()) if profile else None
        stack.enter_context(tracer.span(span, cat="pipeline", **span_args))
        yield controller, profile_data


#: ``(graph, memo)`` of the enclosing :func:`use_phase_colors`, if any.
_PHASE_COLORS: "ContextVar[tuple | None]" = ContextVar("phase_colors",
                                                       default=None)


@contextmanager
def use_phase_colors(graph: CSRGraph, memo):
    """Let fresh runs on ``graph`` in this scope reuse phase-0 colors.

    ``memo`` belongs to ``graph`` and maps a key to a read-only color
    array through ``get(key)`` and ``put(key, colors)``.  A fresh run's
    phase-0 colors are a pure function of the graph and the settings in
    the key — the VF mode, the colorer and its options, and the seed —
    so a :func:`run_pipeline` on ``graph`` itself reads them from the
    memo, or colors once and stores them there; the result is bitwise
    the same either way.  A resumed run, a run on any other graph and
    every later phase color as they always do.  A ``None`` memo turns
    the reuse off, which is also the default outside any scope.
    """
    token = _PHASE_COLORS.set(None if memo is None else (graph, memo))
    try:
        yield
    finally:
        _PHASE_COLORS.reset(token)


def _color(graph: CSRGraph, cfg: LouvainConfig) -> np.ndarray:
    """The phase graph's coloring under ``cfg``'s colorer (§5.2)."""
    if cfg.distance_k > 1:
        colors = distance_k_coloring(graph, cfg.distance_k, seed=cfg.seed)
    elif cfg.colorer == "speculative":
        colors = speculative_coloring(graph, seed=cfg.seed)
    elif cfg.colorer == "greedy":
        colors = greedy_coloring(graph, seed=cfg.seed)
    else:
        colors = jones_plassmann_coloring(graph, seed=cfg.seed)
    if cfg.balanced_coloring:
        # Allow 50% color headroom: balanced colorings trade a few extra
        # (smaller) sets for evenness.
        headroom = int(colors.max()) + 1 if colors.size else 1
        colors = balance_colors(graph, colors,
                                max_colors=headroom + headroom // 2)
    return colors


def _phase0_colors(graph: CSRGraph, cfg: LouvainConfig, memo) -> np.ndarray:
    """:func:`_color` of a fresh run's phase-0 graph, through ``memo``."""
    if memo is None:
        return _color(graph, cfg)
    key = (cfg.use_vf, cfg.vf_chain_compression, cfg.colorer,
           cfg.distance_k, cfg.balanced_coloring, cfg.seed)
    colors = memo.get(key)
    if colors is None:
        colors = _color(graph, cfg)
        colors.setflags(write=False)
        memo.put(key, colors)
    return colors


def run_pipeline(
    graph: CSRGraph,
    cfg: LouvainConfig,
    executor: PhaseExecutor,
    *,
    warm_start: "np.ndarray | None" = None,
    checkpoint=None,
    resume=None,
) -> PipelineRun:
    """Run the multilevel pipeline on ``graph`` with ``executor``'s phases.

    ``cfg`` supplies the VF switch, the coloring schedule and thresholds,
    the phase cap, the resolution and the run scope's settings; the
    executor reads its own sweep settings.  ``warm_start`` (dense labels)
    seeds phase 0.  ``checkpoint`` and ``resume`` are paths, as in
    :func:`repro.core.driver.louvain`.
    """
    fingerprint = fingerprint_dict(executor.semantic_config,
                                   exclude=NONSEMANTIC_CONFIG_FIELDS)
    resumed = None
    if resume is not None:
        # The fingerprint is validated against the checkpoint's meta
        # before any array is materialized (fail-fast on a wrong config).
        resumed = load_checkpoint(resume, expected_fingerprint=fingerprint)
        if resumed.pipeline != executor.pipeline:
            raise CheckpointError(
                f"{resume}: checkpoint was written by the "
                f"{resumed.pipeline!r} pipeline, not {executor.pipeline!r}"
            )
        if (resumed.n_original != graph.num_vertices
                or resumed.m_original != graph.num_edges):
            raise CheckpointError(
                f"{resume}: graph mismatch — checkpoint recorded "
                f"n={resumed.n_original} M={resumed.m_original}, got "
                f"n={graph.num_vertices} M={graph.num_edges}"
            )
    history = ConvergenceHistory()
    dendrogram = Dendrogram()
    current = graph
    mapping = np.arange(graph.num_vertices, dtype=np.int64)
    start_phase = 0
    coloring_active = cfg.use_coloring
    last_phase_gain = np.inf
    if resumed is not None:
        history = resumed.history
        for level, label in zip(resumed.levels, resumed.labels):
            dendrogram.push(level, label)
        executor.restore(resumed.extra)
        current = resumed.graph
        mapping = resumed.mapping
        start_phase = resumed.phase_index
        coloring_active = resumed.coloring_active
        last_phase_gain = resumed.last_phase_gain
    if graph.num_vertices == 0:
        return PipelineRun(communities=np.zeros(0, dtype=np.int64),
                           modularity=0.0, history=history,
                           dendrogram=dendrogram)

    tracer = Tracer(enabled=cfg.trace)
    scope = _PHASE_COLORS.get()
    memo = scope[1] if scope is not None and scope[0] is graph else None
    vf_result: "VFResult | None" = None
    # Degradation ladder adjusts these *effective* knobs, never cfg
    # itself: the coloring schedule's stop condition and the checkpoint
    # fingerprint keep reading the configured values, so a cancelled
    # run's checkpoint resumes under the original config.
    eff_colored_threshold = cfg.colored_threshold
    eff_prune = cfg.prune
    cancelled_reason: "str | None" = None
    cancel_ckpt: "str | None" = None

    def save(path, next_phase: int) -> str:
        # Everything phase ``next_phase`` starts from: the loop state as
        # it stands when this is called.
        save_checkpoint(path, Checkpoint(
            pipeline=executor.pipeline,
            phase_index=next_phase,
            mapping=mapping,
            graph=current,
            coloring_active=coloring_active,
            last_phase_gain=float(last_phase_gain),
            config_fingerprint=fingerprint,
            config_json=json.dumps(executor.semantic_config),
            history=history,
            levels=dendrogram.levels,
            labels=dendrogram.labels,
            n_original=graph.num_vertices,
            m_original=graph.num_edges,
            extra=executor.checkpoint_extra(),
        ))
        tracer.count("checkpoint.saved")
        return str(path)

    def cancel(phase_index: int, reason: str) -> None:
        # The cancellation checkpoint is a regular phase-boundary
        # checkpoint of the state the next (or interrupted) phase starts
        # from — resuming it unbudgeted reproduces the unbudgeted run's
        # final assignment bitwise.
        nonlocal cancelled_reason, cancel_ckpt
        cancelled_reason = reason
        path = checkpoint
        if cfg.budget is not None and cfg.budget.checkpoint is not None:
            path = cfg.budget.checkpoint
        with tracer.span("cancellation", cat="budget", phase=phase_index,
                         reason=reason):
            if path is not None:
                cancel_ckpt = save(path, phase_index)
        tracer.count("run.cancelled")

    with _run_scope(tracer, executor.span, fault_plan=cfg.fault_plan,
                    budget=cfg.budget, metrics_ring=cfg.metrics_ring,
                    profile=cfg.profile, **executor.span_args) as (
                        controller, profile_data), executor:
        # -- VF preprocessing (once, §6.1; a resumed run already carries
        # its VF level in the mapping and dendrogram) ---------------------
        if cfg.use_vf and resumed is None:
            with tracer.step("rebuild", stage="vf"):
                vf_result = (chain_compress(current)
                             if cfg.vf_chain_compression
                             else vf_merge(current))
            if vf_result.num_merged:
                dendrogram.push(vf_result.vertex_to_meta, "vf")
                mapping = vf_result.vertex_to_meta[mapping]
                current = vf_result.graph
                executor.vf_merged(vf_result.vertex_to_meta)

        # -- colored/uncolored phases + rebuilds ---------------------------
        for phase_index in range(start_phase, cfg.max_phases):
            # Budget: cancel at the phase boundary (exactly the regular
            # checkpoint state), or walk the degradation ladder under
            # pressure before it comes to that.
            reason = controller.stop_reason()
            if reason is not None:
                cancel(phase_index, reason)
                break
            for step in controller.pending_degradations():
                tracer.count("budget.degraded")
                tracer.instant("degraded", cat="budget", step=step,
                               pressure=round(controller.pressure(), 3))
                if step == "coarse-threshold":
                    # Toward Table 5's coarse setting: one decade per
                    # firing, floored at the paper's 1e-2 default and
                    # capped a decade above it.
                    eff_colored_threshold = min(
                        max(eff_colored_threshold * 10.0, 1e-2), 1e-1
                    )
                elif step == "prune":
                    eff_prune = True
                elif step == "no-trace":
                    tracer.enabled = False
                controller.note_degradation(step)

            n = current.num_vertices
            color_this_phase = (
                coloring_active
                and n >= cfg.coloring_min_vertices
                and last_phase_gain >= cfg.colored_threshold
                and (cfg.multiphase_coloring or phase_index == 0)
            )
            if coloring_active and not color_this_phase:
                # §6.1: once a stop condition fires, no further phase colors.
                coloring_active = False

            color_sets = None
            colors = None
            if color_this_phase:
                with tracer.step("coloring", phase=phase_index):
                    colors = (_phase0_colors(current, cfg, memo)
                              if phase_index == 0 and resumed is None
                              else _color(current, cfg))
                    color_sets = color_set_partition(colors)
                if tracer.enabled:
                    for size in color_class_sizes(colors).tolist():
                        tracer.observe("coloring.set_size", size)

            threshold = (eff_colored_threshold if color_this_phase
                         else cfg.final_threshold)
            state = init_state(current,
                               warm_start if phase_index == 0 else None)
            with tracer.step("clustering", phase=phase_index):
                outcome = executor.run_phase(
                    current, state, phase_index=phase_index,
                    color_sets=color_sets, threshold=threshold,
                    prune=eff_prune,
                )
            interrupted = outcome.interrupted
            if interrupted:
                # Cancel mid-phase: checkpoint the state this phase
                # *started* from (mapping/graph/history are still
                # pre-phase here), then fold the partial phase — its
                # best-seen state, never below its input — into the
                # anytime result, unless it has nothing to fold.
                cancel(phase_index, controller.stop_reason() or "deadline")
                if not outcome.records:
                    break
            history.iterations.extend(outcome.records)

            assignment = executor.assignment(state)
            with tracer.step("rebuild", phase=phase_index):
                rebuild = coarsen(current, assignment)
            history.phases.append(PhaseRecord(
                phase=phase_index,
                num_vertices=n,
                num_edges=current.num_edges,
                colored=color_this_phase,
                num_colors=len(color_sets) if color_sets else 0,
                threshold=threshold,
                iterations=len(outcome.records),
                start_modularity=outcome.start_modularity,
                end_modularity=outcome.end_modularity,
                rebuild_lock_ops=rebuild.lock_ops,
                rebuild_num_communities=rebuild.num_communities,
                color_class_sizes=(
                    tuple(color_class_sizes(colors).tolist())
                    if colors is not None else ()
                ),
            ))
            dendrogram.push(rebuild.vertex_to_meta, f"phase-{phase_index}")
            mapping = rebuild.vertex_to_meta[mapping]
            last_phase_gain = (outcome.end_modularity
                               - outcome.start_modularity)
            if not interrupted:
                controller.note_phase()

            made_progress = rebuild.num_communities < n
            converged = last_phase_gain < cfg.final_threshold
            tracer.instant("phase_end", phase=phase_index,
                           Q=outcome.end_modularity,
                           communities=rebuild.num_communities)
            current = rebuild.graph
            if interrupted or converged or not made_progress:
                break
            if checkpoint is not None:
                # Phase boundary: written only when another phase will
                # follow — a finished run's product is its result, not a
                # checkpoint.
                with tracer.span("checkpoint", cat="robust",
                                 phase=phase_index):
                    save(checkpoint, phase_index + 1)
        budget_outcome = (controller.outcome(cancelled_reason, cancel_ckpt)
                          if controller.armed else None)

    communities, _ = renumber_labels(mapping)
    from repro.core.modularity import modularity

    return PipelineRun(
        communities=communities,
        modularity=modularity(graph, communities, resolution=cfg.resolution),
        history=history,
        dendrogram=dendrogram,
        timers=step_timer_view(tracer),
        vf=vf_result,
        trace=tracer if cfg.trace else None,
        budget_outcome=budget_outcome,
        profile=profile_data,
    )
