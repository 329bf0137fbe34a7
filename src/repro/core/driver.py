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

The multilevel loop — run scope, checkpoints and resume, budget
cancellation, the coloring schedule, the rebuild and the records — is
:func:`repro.core.pipeline.run_pipeline`, shared with the distributed
and serial pipelines.  This module supplies its shared-memory phase:
:func:`~repro.core.phase.run_phase` on the configured execution backend,
with one :class:`~repro.core.workspace.SweepWorkspace` per phase.

The run records everything the evaluation section needs: per-iteration
modularity, per-phase work counters, coloring statistics, rebuild lock
counts, and wall-clock step timers (clustering / coloring / rebuild — the
Fig. 8 buckets).  Timing flows through the unified observability layer
(:mod:`repro.obs`): the run's :class:`~repro.obs.trace.Tracer` is ambient
for the whole run, and ``result.timers`` is a live
:class:`~repro.utils.timing.StepTimer` view over the tracer's step
buckets.  With ``config.trace`` enabled the same clock reads additionally
produce the span stream behind ``repro obs`` reports and Chrome traces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.config import HeuristicVariant, LouvainConfig
from repro.core.dendrogram import Dendrogram
from repro.core.history import ConvergenceHistory
from repro.core.phase import run_phase
from repro.core.pipeline import PhaseExecutor, run_pipeline
from repro.core.workspace import SweepWorkspace
from repro.core.vf import VFResult
from repro.graph.csr import CSRGraph
from repro.obs.profile import ProfileData
from repro.obs.trace import Tracer
from repro.parallel.backends import make_backend
from repro.robust.budget import BudgetOutcome
from repro.utils.arrays import renumber_labels
from repro.utils.errors import ValidationError
from repro.utils.timing import StepTimer

# Looked up on this module by perfbench's trace wrappers; the calls
# themselves are in repro.core.pipeline.
from repro.coloring.jones_plassmann import jones_plassmann_coloring  # noqa: F401
from repro.core.vf import vf_merge  # noqa: F401
from repro.graph.coarsen import coarsen  # noqa: F401
from repro.robust.checkpoint import save_checkpoint  # noqa: F401

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


class _SharedMemoryPhases(PhaseExecutor):
    """Algorithm 1's phase on the configured execution backend."""

    pipeline = "driver"
    span = "louvain"

    def __init__(self, cfg: LouvainConfig, n: int):
        self.cfg = cfg
        self.semantic_config = asdict(cfg)
        self.span_args = {"variant": cfg.variant_name, "n": n,
                          "backend": cfg.backend}

    def __enter__(self) -> "_SharedMemoryPhases":
        self.backend = make_backend(self.cfg.backend, self.cfg.num_threads)
        return self

    def __exit__(self, *exc) -> None:
        self.backend.close()

    def run_phase(self, graph, state, *, phase_index, color_sets, threshold,
                  prune):
        cfg = self.cfg
        # One workspace per phase: gather plans, the loop-free row view
        # and scratch buffers are graph-bound, and each phase runs on a
        # new coarsened graph.  Released with this frame, before the
        # rebuild.
        workspace = (
            SweepWorkspace(graph, aggregation=cfg.aggregation)
            if cfg.kernel == "vectorized" else None
        )
        return run_phase(
            graph,
            state,
            threshold=threshold,
            phase_index=phase_index,
            color_sets=color_sets,
            kernel=cfg.kernel,
            use_min_label=cfg.use_min_label,
            backend=self.backend,
            max_iterations=cfg.max_iterations_per_phase,
            resolution=cfg.resolution,
            workspace=workspace,
            aggregation=cfg.aggregation,
            prune=prune,
            incremental=cfg.incremental_modularity,
            sanitize=cfg.sanitize,
        )


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
    if resume is not None and initial_communities is not None:
        raise ValidationError(
            "resume cannot be combined with initial_communities"
        )
    warm_start = None
    if initial_communities is not None:
        if cfg.use_vf:
            raise ValidationError(
                "initial_communities cannot be combined with use_vf "
                "(see the louvain() docstring)"
            )
        warm = np.asarray(initial_communities)
        n = graph.num_vertices
        if warm.shape != (n,):
            raise ValidationError(
                f"initial_communities must have shape ({n},)"
            )
        if not np.issubdtype(warm.dtype, np.integer):
            raise ValidationError("initial_communities must be integers")
        warm_start, _ = renumber_labels(warm)
    run = run_pipeline(
        graph, cfg, _SharedMemoryPhases(cfg, graph.num_vertices),
        warm_start=warm_start, checkpoint=checkpoint, resume=resume,
    )
    return LouvainResult(
        communities=run.communities,
        modularity=run.modularity,
        history=run.history,
        dendrogram=run.dendrogram,
        config=cfg,
        timers=run.timers,
        vf=run.vf,
        trace=run.trace,
        budget_outcome=run.budget_outcome,
        profile=run.profile,
    )
