"""Configuration for the parallel Louvain pipeline.

:class:`LouvainConfig` collects every knob the paper's evaluation turns:

* the three heuristic variants of §6.1 (*baseline* = minimum-label only,
  *baseline+VF*, *baseline+VF+Color*), exposed as
  :class:`HeuristicVariant` presets;
* the coloring schedule of §6.1/§6.3 — coloring is applied per phase until
  the graph shrinks below ``coloring_min_vertices`` (100 K in the paper) or
  the inter-phase modularity gain drops below ``colored_threshold``
  (10⁻²), after which phases run uncolored at ``final_threshold`` (10⁻⁶);
* Table 4's first-phase-only coloring (``multiphase_coloring=False``);
* Table 5's colored-phase threshold sweep (``colored_threshold``);
* kernel/backend selection and ablation switches (disable the minimum-label
  heuristic, balanced coloring, VF chain compression).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.lint.sanitizer import sanitize_default
from repro.obs.live import metrics_ring_default
from repro.obs.profile import profile_default
from repro.obs.trace import trace_default
from repro.robust.budget import RunBudget
from repro.robust.faults import fault_plan_default, parse_fault_plan
from repro.utils.errors import ValidationError

__all__ = ["HeuristicVariant", "LouvainConfig"]


class HeuristicVariant(enum.Enum):
    """The three implementation variants compared throughout §6."""

    #: Minimum-label heuristic only (the paper's "baseline").
    BASELINE = "baseline"
    #: Baseline plus vertex-following preprocessing.
    BASELINE_VF = "baseline+VF"
    #: Baseline plus VF plus multi-phase distance-1 coloring.
    BASELINE_VF_COLOR = "baseline+VF+Color"

    def config(self, **overrides) -> "LouvainConfig":
        """Build the :class:`LouvainConfig` preset for this variant."""
        base = LouvainConfig(
            use_vf=self in (HeuristicVariant.BASELINE_VF,
                            HeuristicVariant.BASELINE_VF_COLOR),
            use_coloring=self is HeuristicVariant.BASELINE_VF_COLOR,
        )
        return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class LouvainConfig:
    """All tunables of the parallel Louvain pipeline.

    Attributes
    ----------
    use_vf:
        Apply vertex-following preprocessing (merge single-degree vertices
        into their neighbor) before phase 1 (§5.3).  Run once, prior to the
        first phase, exactly as in §6.1.
    vf_chain_compression:
        The §5.3 *extension*: repeat VF rounds so degree-1 chains collapse
        (off by default; the paper only evaluates the single-round version).
    use_coloring:
        Partition vertices into distance-1 color sets and process sets one
        after another within each iteration (§5.2).
    multiphase_coloring:
        When true (default, the paper's main scheme) coloring is applied to
        every eligible phase; when false only to phase 1 (Table 4's
        comparison scheme).
    coloring_min_vertices:
        Stop coloring once the phase input has fewer vertices (paper: 100 K;
        scaled down along with the stand-in inputs in experiments).
    colored_threshold:
        Net-modularity-gain threshold θ used while coloring is active
        (paper: 10⁻²; Table 5 also runs 10⁻⁴).
    final_threshold:
        θ for uncolored phases and overall termination (paper: 10⁻⁶).
    distance_k:
        Coloring distance (the paper evaluates k=1; k≥2 supported, §5.2).
    colorer:
        Parallel colorer for distance-1 phases: ``"jones_plassmann"``
        (default) or ``"speculative"`` (the Gebremedhin–Manne family of
        the paper's [12] colorer); ``"greedy"`` uses the serial colorer.
    balanced_coloring:
        Apply the balanced recoloring pass (the paper's proposed fix for the
        skewed color-set sizes that hurt uk-2002; off by default).
    use_min_label:
        The §5.1 minimum-label heuristics (tie-breaking + singlet swap
        guard).  On in every paper variant; exposed for ablation.
    kernel:
        Sweep kernel: ``"vectorized"`` (NumPy segmented reductions, default)
        or ``"reference"`` (pure-Python, used for differential testing).
    aggregation:
        e_{v→C} aggregation path of the vectorized kernel: ``"auto"``
        (default: pick per sweep), ``"bincount"``/``"matmul"`` (the O(E)
        paths) or ``"sort"`` (the argsort path, the differential-testing
        baseline).  See :mod:`repro.core.workspace`.
    prune:
        Frontier pruning: after each sweep only vertices adjacent to a
        mover (plus the movers) are re-evaluated; a pruned fixed point is
        verified with one full sweep, so the converged partition is a
        genuine full-sweep fixed point.  Disable to sweep every vertex
        every iteration.
    incremental_modularity:
        Track per-iteration modularity from the per-sweep deltas (O(edges
        touched by movers)) instead of an O(M) recount per iteration; the
        phase-boundary exact recount runs either way as a drift guard.
    backend:
        ``"serial"``, ``"threads"`` (chunked thread pool; partial overlap
        only, NumPy releases the GIL inside array ops) or ``"processes"``
        (fork + shared-memory workers; true CPU parallelism, see
        :mod:`repro.parallel.process_backend`).
    num_threads:
        Worker count for the thread/process backends.
    max_phases / max_iterations_per_phase:
        Safety caps; the algorithm normally terminates on thresholds alone.
    sanitize:
        Runtime snapshot sanitizer (:mod:`repro.lint.sanitizer`): freeze
        the community/degree/size arrays while each sweep's targets are
        computed so a stray in-place write raises instead of silently
        corrupting the Jacobi snapshot.  Defaults to the
        ``REPRO_SANITIZE`` environment setting — on across the
        test-suite (``tests/conftest.py``), off for benchmarks.  Results
        are bitwise identical with the guard on or off.
    seed:
        Seed for the randomized coloring priorities (the only stochastic
        component; the paper notes this is the one source of run-to-run
        variation, §5.4).
    trace:
        Record the run into the unified observability layer
        (:mod:`repro.obs`): nested spans, Fig. 8 step buckets, and the
        metric registry, exportable as Chrome-trace JSON / JSONL
        (``repro obs``).  Defaults to the ``REPRO_TRACE`` environment
        setting, mirroring ``sanitize``; off means the near-zero-overhead
        null path.  Results are bitwise identical traced or not.
    profile:
        Run the sampling wall-clock profiler (:mod:`repro.obs.profile`)
        for the duration of the pipeline and attach its collapsed-stack
        :class:`~repro.obs.profile.ProfileData` to ``result.profile``.
        Defaults to the ``REPRO_PROFILE`` environment setting.  The
        sampler only reads thread stacks; results are bitwise identical
        profiled or not.  Execution mechanics, not a semantic field.
    metrics_ring:
        Optional path of a JSONL ring file the driver streams periodic
        :class:`~repro.obs.live.MetricsSnapshot` lines to while running
        (:mod:`repro.obs.live`), making the run observable live via
        ``repro obs serve --ring PATH``.  Defaults to the
        ``REPRO_OBS_RING`` environment setting; ``None`` streams
        nothing.  Snapshots carry data only when ``trace`` is enabled
        (the metric helpers are trace-gated).  Execution mechanics, not
        a semantic field.
    resolution:
        Resolution parameter γ of the generalized modularity objective
        (1.0 = the paper's Eq. 3).  The paper lists alternative modularity
        definitions addressing the resolution limit as future work (iv);
        γ > 1 resolves smaller communities.
    fault_plan:
        Deterministic fault-injection plan (:mod:`repro.robust.faults`),
        e.g. ``"kill:worker=0,chunk=1"`` — used by the fault-matrix tests
        to exercise worker recovery on demand.  Defaults to the
        ``REPRO_FAULTS`` environment setting; ``None`` injects nothing.
        Faults never change results: recovered runs are bitwise identical
        to failure-free runs (``docs/robustness.md``).
    budget:
        Optional :class:`~repro.robust.budget.RunBudget`: wall-clock
        deadline, phase/iteration caps, peak-memory bound, and
        cooperative SIGINT/SIGTERM handling.  Enforced at sweep- and
        iteration-boundaries; on expiry the driver walks the degradation
        ladder, then cancels with the best-seen partition, a
        ``budget_outcome`` record, and a resumable phase-boundary
        checkpoint (``docs/robustness.md``).  A dict is coerced to
        :class:`RunBudget` (the checkpoint/CLI round-trip path); like
        ``fault_plan``, the budget is execution mechanics, not a
        semantic field — it never enters the checkpoint fingerprint.
    """

    use_vf: bool = False
    vf_chain_compression: bool = False
    use_coloring: bool = False
    multiphase_coloring: bool = True
    coloring_min_vertices: int = 100_000
    colored_threshold: float = 1e-2
    final_threshold: float = 1e-6
    distance_k: int = 1
    colorer: str = "jones_plassmann"
    balanced_coloring: bool = False
    use_min_label: bool = True
    kernel: str = "vectorized"
    aggregation: str = "auto"
    prune: bool = True
    incremental_modularity: bool = True
    backend: str = "serial"
    sanitize: bool = field(default_factory=sanitize_default)
    trace: bool = field(default_factory=trace_default)
    profile: bool = field(default_factory=profile_default)
    metrics_ring: "str | None" = field(default_factory=metrics_ring_default)
    num_threads: int = 4
    max_phases: int = 32
    max_iterations_per_phase: int = 1000
    seed: int | None = 0
    resolution: float = 1.0
    fault_plan: str | None = field(default_factory=fault_plan_default)
    budget: "RunBudget | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.budget, dict):
            # Frozen dataclass: asdict()/JSON round trips hand the budget
            # back as a plain dict (checkpoint config_json, CLI resume).
            try:
                budget = RunBudget(**self.budget)
            except TypeError as exc:  # an unknown field or a wrong type
                raise ValidationError(f"bad budget: {exc}") from None
            object.__setattr__(self, "budget", budget)
        elif self.budget is not None and not isinstance(self.budget,
                                                        RunBudget):
            raise ValidationError(
                "budget must be a RunBudget, a dict of its fields, or None"
            )
        if self.colored_threshold <= 0 or self.final_threshold <= 0:
            raise ValidationError("thresholds must be positive")
        if self.kernel not in ("vectorized", "reference"):
            raise ValidationError(f"unknown kernel {self.kernel!r}")
        if self.aggregation not in ("auto", "sort", "bincount", "matmul"):
            raise ValidationError(f"unknown aggregation {self.aggregation!r}")
        if self.backend not in ("serial", "threads", "processes"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.metrics_ring is not None and (
                not isinstance(self.metrics_ring, str) or not self.metrics_ring):
            raise ValidationError(
                "metrics_ring must be a non-empty path or None"
            )
        if self.distance_k < 1:
            raise ValidationError("distance_k must be >= 1")
        if self.colorer not in ("jones_plassmann", "speculative", "greedy"):
            raise ValidationError(f"unknown colorer {self.colorer!r}")
        if self.num_threads < 1:
            raise ValidationError("num_threads must be >= 1")
        if self.max_phases < 1 or self.max_iterations_per_phase < 1:
            raise ValidationError("phase/iteration caps must be >= 1")
        if self.resolution <= 0:
            raise ValidationError("resolution must be positive")
        parse_fault_plan(self.fault_plan)  # validates; ValidationError on bad plans

    @classmethod
    def from_dict(cls, data: dict) -> "LouvainConfig":
        """Build a config from a field dict: a job spec's ``config``, a
        checkpoint's ``config_json``.

        Unknown fields and values of the wrong type raise
        :class:`~repro.utils.errors.ValidationError`.  ``array_backend``,
        a field of older configs, is dropped when it names NumPy — the
        only array library the kernels run on — and rejected otherwise.
        """
        data = dict(data)
        legacy = data.pop("array_backend", "numpy")
        if legacy != "numpy":
            raise ValidationError(
                f"array_backend {legacy!r} is not supported: the kernels "
                "run on NumPy only"
            )
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown config fields {unknown}")
        try:
            return cls(**data)
        except TypeError as exc:  # a value of the wrong type
            raise ValidationError(f"bad config: {exc}") from None

    def with_(self, **overrides) -> "LouvainConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def variant_name(self) -> str:
        """Human-readable variant label matching the paper's terminology."""
        if self.use_coloring and self.use_vf:
            return HeuristicVariant.BASELINE_VF_COLOR.value
        if self.use_vf:
            return HeuristicVariant.BASELINE_VF.value
        if self.use_coloring:
            return "baseline+Color"
        return HeuristicVariant.BASELINE.value
