"""Job model for the detection service: specs, records, graph refs.

A **job** is one community-detection run: a graph reference, a dict of
:class:`~repro.core.config.LouvainConfig` fields, and (optionally) a
:class:`~repro.robust.budget.RunBudget` dict — everything JSON-encodable
so jobs round-trip through the HTTP API and any broker backend.

Graph references
----------------
Workers resolve the graph themselves (specs stay small and picklable):

* ``dataset:NAME?scale=F&seed=I`` — a Table 1 stand-in from
  :mod:`repro.datasets.catalog` (deterministic: same ref, same graph);
* ``planted:KxS?p_in=F&p_out=F&seed=I`` — a planted-partition graph
  with ``K`` communities of ``S`` vertices
  (:func:`repro.graph.generators.planted_partition`), the smoke-test
  workhorse because its expected structure is known;
* anything else — a graph file path, format detected by suffix exactly
  like the CLI (``.metis``/``.graph``, ``.mtx``, ``.npz``/``.csrz``,
  else edge list).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from urllib.parse import parse_qs

from repro.utils.errors import ValidationError

__all__ = [
    "GraphSource",
    "JobRecord",
    "JobSpec",
    "JobStatus",
    "checkpoint_path",
    "parse_graph_ref",
    "resolve_graph_ref",
    "result_path",
]


class JobStatus:
    """Lifecycle states (plain strings so records JSON-serialize as-is)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})
    ALL = frozenset({PENDING, RUNNING, DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobSpec:
    """What to run: graph reference + config + scheduling knobs.

    ``config`` holds :class:`~repro.core.config.LouvainConfig` *fields*
    (a dict, not an instance) so the spec serializes; the worker builds
    the config, which validates the fields.  ``budget`` is an optional
    :class:`~repro.robust.budget.RunBudget` field dict merged in the same
    way.  ``priority`` orders the queue (higher first, FIFO within a
    priority); ``max_attempts`` bounds at-least-once retries — a job
    whose worker dies is requeued until the bound, each retry resuming
    from the job's last phase-boundary checkpoint.
    """

    graph: str
    config: dict = field(default_factory=dict)
    budget: "dict | None" = None
    priority: int = 0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.graph, str) or not self.graph:
            raise ValidationError("job graph ref must be a non-empty string")
        if not isinstance(self.config, dict):
            raise ValidationError("job config must be a dict of "
                                  "LouvainConfig fields")
        if self.budget is not None and not isinstance(self.budget, dict):
            raise ValidationError("job budget must be a dict of RunBudget "
                                  "fields or None")
        if not isinstance(self.priority, int):
            raise ValidationError("job priority must be an int")
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValidationError("job max_attempts must be an int >= 1")

    def config_fields(self) -> dict:
        """The LouvainConfig field dict the worker builds (budget merged)."""
        fields = dict(self.config)
        if self.budget is not None:
            fields["budget"] = dict(self.budget)
        return fields

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise ValidationError("job spec must be a JSON object")
        known = {"graph", "config", "budget", "priority", "max_attempts"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown job spec fields {sorted(unknown)} "
                f"(expected a subset of {sorted(known)})"
            )
        if "graph" not in data:
            raise ValidationError("job spec requires a 'graph' reference")
        return cls(**data)


@dataclass
class JobRecord:
    """Parent-side bookkeeping for one job (the ``/jobs/<id>`` payload)."""

    job_id: str
    spec: JobSpec
    status: str = JobStatus.PENDING
    attempts: int = 0
    worker_id: "int | None" = None
    submitted_at: float = 0.0
    started_at: "float | None" = None
    finished_at: "float | None" = None
    error: "str | None" = None
    #: Result summary posted by the worker: modularity, num_communities,
    #: phases, iterations, resumed_from_phase, elapsed.
    meta: "dict | None" = None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "attempts": self.attempts,
            "worker_id": self.worker_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "meta": self.meta,
        }


def checkpoint_path(spool: str, job_id: str) -> str:
    """The job's phase-boundary checkpoint file.

    A pure function of ``(spool, job_id)`` so a retrying worker derives
    it without any parent-side handshake: if the file exists, a previous
    attempt completed at least one phase and the retry resumes there.
    """
    return os.path.join(spool, f"{job_id}.ckpt.npz")


def result_path(spool: str, job_id: str) -> str:
    """The job's final-result file (atomically written, npz)."""
    return os.path.join(spool, f"{job_id}.result.npz")


def _split_ref(body: str) -> tuple[str, dict]:
    """Split ``name?k=v&k2=v2`` into (name, single-valued param dict)."""
    if "?" not in body:
        return body, {}
    name, query = body.split("?", 1)
    params = {k: v[-1] for k, v in parse_qs(query).items()}
    return name, params


def _param(params: dict, key: str, cast, default):
    try:
        return cast(params[key]) if key in params else default
    except (TypeError, ValueError):
        raise ValidationError(
            f"graph ref parameter {key}={params[key]!r} is not "
            f"a valid {cast.__name__}"
        )


@dataclass(frozen=True)
class GraphSource:
    """How to build the graph a ref names (see :func:`parse_graph_ref`).

    ``kind`` is ``"planted"`` or ``"dataset"`` with the generator's
    parsed, defaulted arguments in ``params`` (so two spellings of one
    graph compare equal), or a :func:`repro.graph.io.detect_format`
    name with the file in ``path``.
    """

    kind: str
    params: tuple = ()
    path: "str | None" = None

    def build(self):
        """Generate or read the graph."""
        if self.kind == "planted":
            from repro.graph.generators import planted_partition

            k, s, p_in, p_out, seed = self.params
            return planted_partition(k, s, p_in, p_out, seed=seed)
        if self.kind == "dataset":
            from repro.datasets.catalog import load_dataset

            name, scale, seed = self.params
            return load_dataset(name, scale=scale, seed=seed)
        from repro.graph.io import read_graph

        return read_graph(self.path, self.kind)


def parse_graph_ref(ref: str) -> GraphSource:
    """Parse and validate a graph ref (see the module docstring)."""
    if ref.startswith("dataset:"):
        name, params = _split_ref(ref[len("dataset:"):])
        return GraphSource("dataset", (
            name,
            _param(params, "scale", float, 1.0),
            _param(params, "seed", int, 0),
        ))
    if ref.startswith("planted:"):
        body, params = _split_ref(ref[len("planted:"):])
        parts = body.split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValidationError(
                f"planted ref {ref!r} must look like planted:KxS "
                "(K communities of S vertices)"
            )
        return GraphSource("planted", (
            int(parts[0]), int(parts[1]),
            _param(params, "p_in", float, 0.3),
            _param(params, "p_out", float, 0.005),
            _param(params, "seed", int, 0),
        ))
    if not os.path.exists(ref):
        raise ValidationError(
            f"graph ref {ref!r} is neither a dataset:/planted: reference "
            "nor an existing graph file"
        )
    from repro.graph.io import detect_format

    return GraphSource(detect_format(ref), path=ref)


def resolve_graph_ref(ref: str):
    """Build/load the graph a job names (see the module docstring)."""
    return parse_graph_ref(ref).build()
