"""The full parallel community-detection pipeline (paper §5.4).

Steps, exactly as the paper lists them:

1. **VF preprocessing** (optional): merge single-degree vertices into their
   neighbors, once, before phase 1 (§5.3, §6.1).
2. **Coloring preprocessing** (optional): distance-1 color each phase's
   input and process color sets one at a time (§5.2).  Coloring stays
   active until the phase input drops below ``coloring_min_vertices`` or
   the inter-phase modularity gain falls below ``colored_threshold``
   (§6.1); colored phases use θ = ``colored_threshold``, later phases
   θ = ``final_threshold``.
3. **Phases**: Algorithm 1 per phase (:mod:`repro.core.phase`).
4. **Graph rebuilding**: coarsen by the phase's final communities
   (:mod:`repro.graph.coarsen`) and continue on the condensed graph.

The driver records everything the evaluation section needs: per-iteration
modularity, per-phase work counters, coloring statistics, rebuild lock
counts, and wall-clock step timers (clustering / coloring / rebuild — the
Fig. 8 buckets).  Timing flows through the unified observability layer
(:mod:`repro.obs`): the driver installs its :class:`~repro.obs.trace.Tracer`
as ambient for the whole run, and ``result.timers`` is a live
:class:`~repro.utils.timing.StepTimer` view over the tracer's step
buckets.  With ``config.trace`` enabled the same clock reads additionally
produce the span stream behind ``repro obs`` reports and Chrome traces.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.coloring.balanced import balance_colors
from repro.coloring.distance_k import distance_k_coloring
from repro.coloring.greedy import greedy_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.speculative import speculative_coloring
from repro.coloring.validate import color_class_sizes, color_set_partition
from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.dendrogram import Dendrogram
from repro.core.history import ConvergenceHistory, PhaseRecord
from repro.core.phase import run_phase, state_modularity
from repro.core.sweep import init_state
from repro.core.workspace import SweepWorkspace
from repro.core.vf import VFResult, chain_compress, vf_merge
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph
from repro.obs.live import stream_metrics
from repro.obs.profile import ProfileData, profile_run
from repro.obs.trace import Tracer, use_tracer
from repro.parallel.backends import make_backend
from repro.robust.budget import BudgetOutcome, use_budget
from repro.robust.checkpoint import (
    Checkpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.robust.faults import use_faults
from repro.utils.arrays import renumber_labels
from repro.utils.errors import CheckpointError, ValidationError
from repro.utils.timing import StepTimer, step_timer_view

__all__ = ["LouvainResult", "louvain"]


@dataclass
class LouvainResult:
    """Everything produced by one pipeline run.

    Attributes
    ----------
    communities:
        Dense labels ``0..k-1`` on the *original* input vertices.
    modularity:
        Eq. 3 modularity of ``communities`` on the input graph.
    history:
        Per-iteration and per-phase records (work counters included).
    dendrogram:
        The phase hierarchy (VF level included when VF ran).
    config:
        The configuration the run used.
    timers:
        Wall-clock step buckets: ``clustering``, ``coloring``, ``rebuild``
        (a live view over ``trace``'s step buckets).
    vf:
        VF preprocessing outcome (``None`` when VF was off).
    trace:
        The run's :class:`~repro.obs.trace.Tracer` when ``config.trace``
        was enabled (feed it to :mod:`repro.obs.export` /
        :mod:`repro.obs.report`); ``None`` otherwise.
    profile:
        Collapsed-stack :class:`~repro.obs.profile.ProfileData` when
        ``config.profile`` was enabled (write it out with
        ``profile.write_collapsed(path)`` or merge it into the Chrome
        trace); ``None`` otherwise.
    budget_outcome:
        What the run's :class:`~repro.robust.budget.RunBudget` did —
        completion vs. cancellation (and why), counters, degradation
        ladder steps taken, and the cancellation checkpoint's path.
        ``None`` for unbudgeted runs.
    """

    communities: np.ndarray
    modularity: float
    history: ConvergenceHistory
    dendrogram: Dendrogram
    config: LouvainConfig
    timers: StepTimer = field(default_factory=StepTimer)
    vf: VFResult | None = None
    trace: "Tracer | None" = None
    budget_outcome: "BudgetOutcome | None" = None
    profile: "ProfileData | None" = None

    @property
    def num_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0

    @property
    def num_phases(self) -> int:
        return self.history.num_phases

    @property
    def total_iterations(self) -> int:
        return self.history.total_iterations

    def __repr__(self) -> str:
        return (
            f"LouvainResult(Q={self.modularity:.6f}, "
            f"communities={self.num_communities}, phases={self.num_phases}, "
            f"iterations={self.total_iterations}, "
            f"variant={self.config.variant_name!r})"
        )


def _resolve_config(config, variant, overrides) -> LouvainConfig:
    if config is not None and variant is not None:
        raise ValidationError("pass either config or variant, not both")
    if variant is not None:
        if isinstance(variant, str):
            variant = HeuristicVariant(variant)
        return variant.config(**overrides)
    if config is None:
        config = LouvainConfig()
    return config.with_(**overrides) if overrides else config


def louvain(
    graph: CSRGraph,
    config: LouvainConfig | None = None,
    *,
    variant: "HeuristicVariant | str | None" = None,
    initial_communities=None,
    checkpoint=None,
    resume=None,
    **overrides,
) -> LouvainResult:
    """Run parallel Louvain community detection on ``graph``.

    Parameters
    ----------
    graph:
        Input graph.
    config:
        Full configuration; defaults to :class:`LouvainConfig` defaults
        (the paper's *baseline*: minimum-label heuristic only).
    variant:
        Alternative to ``config``: one of the paper's three presets
        (:class:`HeuristicVariant` or its string value).
    initial_communities:
        Optional warm start: phase 1 begins from this assignment instead
        of singletons (Algorithm 1's ``C_init``).  Labels may be arbitrary
        integers; they are compacted to ``[0, n)``.  Incompatible with
        ``use_vf`` (vertex following assumes a singleton start; a merged
        meta-vertex has no well-defined inherited label) — the incremental
        pipeline of :mod:`repro.dynamic` relies on this.
    checkpoint:
        Optional path: after every completed phase that will be followed
        by another, write a ``.ckpt.npz`` phase-boundary checkpoint there
        (atomically — see :mod:`repro.robust.checkpoint`).
    resume:
        Optional path to a checkpoint written by a previous run with the
        same *semantic* configuration (backend/threads/tracing may
        differ): the pipeline skips the completed phases and continues
        from the saved coarse graph, producing the exact final assignment
        and modularity the uninterrupted run would have.  Raises
        :class:`~repro.utils.errors.CheckpointError` on a fingerprint or
        graph mismatch.  Incompatible with ``initial_communities``; the
        resumed result's ``vf`` field is ``None`` (the VF level itself is
        preserved in the dendrogram and mapping).
    **overrides:
        Individual :class:`LouvainConfig` fields to override.

    Examples
    --------
    >>> from repro.graph.generators import two_cliques_bridge
    >>> result = louvain(two_cliques_bridge(4), variant="baseline+VF+Color",
    ...                  coloring_min_vertices=4)
    >>> result.num_communities
    2
    """
    cfg = _resolve_config(config, variant, overrides)
    resumed = None
    if resume is not None:
        if initial_communities is not None:
            raise ValidationError(
                "resume cannot be combined with initial_communities"
            )
        # The fingerprint is validated against the checkpoint's meta
        # before any array is materialized (fail-fast on a wrong config).
        resumed = load_checkpoint(
            resume, expected_fingerprint=config_fingerprint(cfg))
        if resumed.pipeline != "driver":
            raise CheckpointError(
                f"{resume}: checkpoint was written by the "
                f"{resumed.pipeline!r} pipeline, not the driver"
            )
        if (resumed.n_original != graph.num_vertices
                or resumed.m_original != graph.num_edges):
            raise CheckpointError(
                f"{resume}: graph mismatch — checkpoint recorded "
                f"n={resumed.n_original} M={resumed.m_original}, got "
                f"n={graph.num_vertices} M={graph.num_edges}"
            )
    tracer = Tracer(enabled=cfg.trace)
    timers = step_timer_view(tracer)
    history = ConvergenceHistory()
    dendrogram = Dendrogram()
    if resumed is not None:
        history = resumed.history
        for level, label in zip(resumed.levels, resumed.labels):
            dendrogram.push(level, label)

    n_original = graph.num_vertices
    warm_start = None
    if initial_communities is not None:
        if cfg.use_vf:
            raise ValidationError(
                "initial_communities cannot be combined with use_vf "
                "(see the louvain() docstring)"
            )
        warm = np.asarray(initial_communities)
        if warm.shape != (n_original,):
            raise ValidationError(
                f"initial_communities must have shape ({n_original},)"
            )
        if not np.issubdtype(warm.dtype, np.integer):
            raise ValidationError("initial_communities must be integers")
        warm_start, _ = renumber_labels(warm)
    if n_original == 0:
        return LouvainResult(
            communities=np.zeros(0, dtype=np.int64),
            modularity=0.0,
            history=history,
            dendrogram=dendrogram,
            config=cfg,
        )

    backend = make_backend(cfg.backend, cfg.num_threads)
    vf_result: VFResult | None = None
    current = graph
    mapping = np.arange(n_original, dtype=np.int64)
    start_phase = 0
    if resumed is not None:
        current = resumed.graph
        mapping = resumed.mapping
        start_phase = resumed.phase_index

    # The tracer stays ambient for the whole run so nested kernels and
    # forked workers can emit without threading it through signatures;
    # the fault injector is scoped the same way (no-op when no plan).
    _obs = ExitStack()
    _obs.enter_context(use_tracer(tracer))
    _obs.enter_context(use_faults(cfg.fault_plan))
    # The budget controller is ambient too (run_phase and the process
    # backend's recovery loop consult it); its clock starts here.
    controller = _obs.enter_context(use_budget(cfg.budget))
    _obs.enter_context(controller.signal_scope())
    # Live plane (optional, read-only): stream periodic registry
    # snapshots to the ring file and/or sample this thread's stack.
    # Both only observe — results stay bitwise identical either way.
    if cfg.metrics_ring:
        _obs.enter_context(stream_metrics(tracer, cfg.metrics_ring))
    profile_data: "ProfileData | None" = None
    if cfg.profile:
        profile_data = _obs.enter_context(profile_run())
    _obs.enter_context(tracer.span(
        "louvain", cat="pipeline", variant=cfg.variant_name,
        n=n_original, backend=cfg.backend,
    ))
    try:
        # -- Step 1: VF preprocessing (optional, once, §6.1; a resumed run
        # already carries its VF level in the mapping and dendrogram) ------
        if cfg.use_vf and resumed is None:
            with tracer.step("rebuild", stage="vf"):
                vf_result = (
                    chain_compress(current)
                    if cfg.vf_chain_compression
                    else vf_merge(current)
                )
            if vf_result.num_merged:
                dendrogram.push(vf_result.vertex_to_meta, "vf")
                mapping = vf_result.vertex_to_meta[mapping]
                current = vf_result.graph

        # -- Steps 2-4: colored/uncolored phases + rebuilds -----------------
        coloring_active = cfg.use_coloring
        last_phase_gain = np.inf
        if resumed is not None:
            coloring_active = resumed.coloring_active
            last_phase_gain = resumed.last_phase_gain

        # Degradation ladder adjusts these *effective* knobs, never cfg
        # itself: the coloring schedule's stop condition and the
        # checkpoint fingerprint keep reading the configured values, so
        # a cancelled run's checkpoint resumes under the original config.
        eff_colored_threshold = cfg.colored_threshold
        eff_prune = cfg.prune
        cancelled_reason: "str | None" = None
        cancel_ckpt: "str | None" = None

        def _cancel_checkpoint(next_phase_index, mapping_, graph_,
                               coloring_active_, gain_) -> "str | None":
            # The cancellation checkpoint is a regular phase-boundary
            # checkpoint of the state the *next* (or interrupted) phase
            # starts from — resuming it unbudgeted reproduces the
            # unbudgeted run's final assignment bitwise.
            budget = cfg.budget
            path = (budget.checkpoint
                    if budget is not None and budget.checkpoint is not None
                    else checkpoint)
            if path is None:
                return None
            save_checkpoint(path, Checkpoint(
                pipeline="driver",
                phase_index=next_phase_index,
                mapping=mapping_,
                graph=graph_,
                coloring_active=coloring_active_,
                last_phase_gain=float(gain_),
                config_fingerprint=config_fingerprint(cfg),
                config_json=json.dumps(asdict(cfg)),
                history=history,
                levels=dendrogram.levels,
                labels=dendrogram.labels,
                n_original=n_original,
                m_original=graph.num_edges,
            ))
            tracer.count("checkpoint.saved")
            return str(path)

        for phase_index in range(start_phase, cfg.max_phases):
            # Budget: cancel at the phase boundary (exactly the regular
            # checkpoint state), or walk the degradation ladder under
            # pressure before it comes to that.
            reason = controller.stop_reason()
            if reason is not None:
                cancelled_reason = reason
                with tracer.span("cancellation", cat="budget",
                                 phase=phase_index, reason=reason):
                    cancel_ckpt = _cancel_checkpoint(
                        phase_index, mapping, current,
                        coloring_active, last_phase_gain,
                    )
                tracer.count("run.cancelled")
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
                    if cfg.distance_k > 1:
                        colors = distance_k_coloring(
                            current, cfg.distance_k, seed=cfg.seed
                        )
                    elif cfg.colorer == "speculative":
                        colors = speculative_coloring(current, seed=cfg.seed)
                    elif cfg.colorer == "greedy":
                        colors = greedy_coloring(current, seed=cfg.seed)
                    else:
                        colors = jones_plassmann_coloring(current, seed=cfg.seed)
                    if cfg.balanced_coloring:
                        # Allow 50% color headroom: balanced colorings trade
                        # a few extra (smaller) sets for evenness.
                        headroom = int(colors.max()) + 1 if colors.size else 1
                        colors = balance_colors(
                            current, colors, max_colors=headroom + headroom // 2
                        )
                    color_sets = color_set_partition(colors)
                if tracer.enabled:
                    for size in color_class_sizes(colors).tolist():
                        tracer.observe("coloring.set_size", size)

            threshold = (
                eff_colored_threshold if color_this_phase
                else cfg.final_threshold
            )
            state = init_state(
                current, warm_start if phase_index == 0 else None
            )
            # One workspace per phase: gather plans, the loop-free row view
            # and scratch buffers are graph-bound, and each phase runs on a
            # new coarsened graph.  Released before the rebuild.
            workspace = (
                SweepWorkspace(current, aggregation=cfg.aggregation)
                if cfg.kernel == "vectorized" else None
            )
            with tracer.step("clustering", phase=phase_index):
                outcome = run_phase(
                    current,
                    state,
                    threshold=threshold,
                    phase_index=phase_index,
                    color_sets=color_sets,
                    kernel=cfg.kernel,
                    use_min_label=cfg.use_min_label,
                    backend=backend,
                    max_iterations=cfg.max_iterations_per_phase,
                    resolution=cfg.resolution,
                    workspace=workspace,
                    aggregation=cfg.aggregation,
                    prune=eff_prune,
                    incremental=cfg.incremental_modularity,
                    sanitize=cfg.sanitize,
                )
            del workspace
            interrupted = outcome.interrupted
            if interrupted:
                # Cancel mid-phase: checkpoint the state this phase
                # *started* from (mapping/graph/history are still
                # pre-phase here), then fold the partial phase's
                # best-seen progress into the anytime result below.
                cancelled_reason = controller.stop_reason() or "deadline"
                with tracer.span("cancellation", cat="budget",
                                 phase=phase_index,
                                 reason=cancelled_reason):
                    cancel_ckpt = _cancel_checkpoint(
                        phase_index, mapping, current,
                        coloring_active, last_phase_gain,
                    )
                tracer.count("run.cancelled")
                if not outcome.records:
                    break  # no completed iteration — nothing to fold
            history.iterations.extend(outcome.records)

            with tracer.step("rebuild", phase=phase_index):
                rebuild = coarsen(current, state.comm)
            history.phases.append(
                PhaseRecord(
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
                        if colors is not None
                        else ()
                    ),
                )
            )
            dendrogram.push(rebuild.vertex_to_meta, f"phase-{phase_index}")
            mapping = rebuild.vertex_to_meta[mapping]
            last_phase_gain = outcome.end_modularity - outcome.start_modularity
            if not interrupted:
                controller.note_phase()

            made_progress = rebuild.num_communities < n
            converged = last_phase_gain < cfg.final_threshold
            tracer.instant(
                "phase_end", phase=phase_index,
                Q=outcome.end_modularity,
                communities=rebuild.num_communities,
            )
            current = rebuild.graph
            if interrupted:
                break
            if converged or not made_progress:
                break
            if checkpoint is not None:
                # Phase boundary: everything the next phase starts from.
                # Written only when another phase will follow — a finished
                # run's product is its result, not a checkpoint.
                with tracer.span("checkpoint", cat="robust",
                                 phase=phase_index):
                    save_checkpoint(checkpoint, Checkpoint(
                        pipeline="driver",
                        phase_index=phase_index + 1,
                        mapping=mapping,
                        graph=current,
                        coloring_active=coloring_active,
                        last_phase_gain=float(last_phase_gain),
                        config_fingerprint=config_fingerprint(cfg),
                        config_json=json.dumps(asdict(cfg)),
                        history=history,
                        levels=dendrogram.levels,
                        labels=dendrogram.labels,
                        n_original=n_original,
                        m_original=graph.num_edges,
                    ))
                tracer.count("checkpoint.saved")
        budget_outcome = (
            controller.outcome(cancelled_reason, cancel_ckpt)
            if controller.armed else None
        )
    finally:
        backend.close()
        _obs.close()

    communities, _ = renumber_labels(mapping)
    from repro.core.modularity import modularity as full_modularity

    return LouvainResult(
        communities=communities,
        modularity=full_modularity(graph, communities,
                                   resolution=cfg.resolution),
        history=history,
        dendrogram=dendrogram,
        config=cfg,
        timers=timers,
        vf=vf_result,
        trace=tracer if cfg.trace else None,
        budget_outcome=budget_outcome,
        profile=profile_data,
    )
