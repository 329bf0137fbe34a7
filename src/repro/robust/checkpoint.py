"""Phase-boundary checkpoint/resume for the Louvain pipelines.

A Louvain run's state between phases is tiny compared to its input — the
coarse graph, the flattened community mapping, the convergence history,
and a handful of scalars — so checkpointing at phase boundaries is cheap
and, because every phase starts from exactly this state, a resumed run
reproduces the uninterrupted run **bitwise** (same final assignment,
same modularity) under the same semantic configuration.

Container: a single ``.ckpt.npz`` file (NumPy archive) written
atomically (temp file + ``os.replace``), holding

* ``format_version`` — currently 1;
* ``meta`` — JSON: pipeline (``"driver"``/``"distributed"``), the next
  phase index, coloring schedule state, the semantic config fingerprint,
  original-graph dimensions, dendrogram labels, and pipeline extras
  (e.g. the distributed run's rank count and partition stats);
* ``config`` — the full configuration as JSON (what the CLI's
  ``repro robust resume`` rebuilds the run from);
* ``history`` — the :class:`~repro.core.history.ConvergenceHistory`
  recorded so far, as JSON;
* ``mapping`` + ``graph_indptr``/``graph_indices``/``graph_weights`` —
  the original-vertex → coarse-vertex map and the current coarse graph;
* ``level_<i>`` — the dendrogram's per-level maps;
* ``sha256`` — a content digest over every other entry
  (:func:`digest_arrays`), verified on load so a torn or bit-flipped
  archive surfaces as :class:`~repro.utils.errors.CheckpointError`
  instead of a silently-wrong resume (absent in pre-digest archives,
  which still load).

The **fingerprint** hashes only the fields that change the result
(thresholds, variant switches, seed, resolution, ...) and deliberately
excludes execution-mechanics fields (``backend``, ``num_threads``,
``sanitize``, ``trace``, ``fault_plan``, ``budget``): a run
checkpointed under the process backend may resume serially — the
kernels are bitwise-identical across backends — a run interrupted *by*
an injected fault resumes without re-injecting it, and a run cancelled
*by* a budget resumes under a fresh (or no) budget.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from repro.core.history import ConvergenceHistory
from repro.graph.csr import CSRGraph
from repro.utils.errors import CheckpointError

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "DIGEST_KEY",
    "NONSEMANTIC_CONFIG_FIELDS",
    "config_fingerprint",
    "describe_checkpoint",
    "digest_arrays",
    "fingerprint_dict",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_FORMAT_VERSION = 1

#: Config fields that select execution mechanics, not the result — a
#: checkpoint from any of them resumes under any other.  ``array_backend``
#: is no longer a field, but older checkpoints store it in their
#: ``config_json``; excluding it keeps their fingerprints unchanged.
NONSEMANTIC_CONFIG_FIELDS = frozenset({
    "backend", "num_threads", "sanitize", "trace", "fault_plan", "budget",
    "array_backend", "profile", "metrics_ring",
})


#: Archive entry carrying the content digest (see :func:`digest_arrays`).
DIGEST_KEY = "sha256"


def digest_arrays(arrays: dict) -> str:
    """Order-independent SHA-256 over named arrays.

    Hashes each entry's name, dtype, shape and raw bytes (names sorted,
    so insertion order is irrelevant).  Stored *inside* the archive
    under :data:`DIGEST_KEY` — self-contained, so the atomic-write
    guarantee covers data and digest together, with no sidecar-file
    crash window — and verified on load: a bit-flipped or truncated
    spool artifact is detected instead of silently resumed.
    """
    hasher = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(str(arr.dtype).encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(repr(arr.shape).encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def fingerprint_dict(data: dict, *, exclude: frozenset = frozenset()) -> str:
    """Stable SHA-1 over the semantic entries of a config-like dict."""
    semantic = {k: v for k, v in sorted(data.items()) if k not in exclude}
    payload = json.dumps(semantic, sort_keys=True, default=str)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def config_fingerprint(config) -> str:
    """Semantic fingerprint of a :class:`~repro.core.config.LouvainConfig`."""
    from dataclasses import asdict

    return fingerprint_dict(
        asdict(config), exclude=NONSEMANTIC_CONFIG_FIELDS
    )


@dataclass
class Checkpoint:
    """Everything a pipeline needs to continue from a phase boundary.

    ``phase_index`` is the *next* phase to run; ``graph`` is that
    phase's (coarse) input; ``mapping`` carries original vertices onto
    its vertices.  ``extra`` holds pipeline-specific state (the
    distributed pipeline stores ``num_ranks`` and ``partition_stats``).
    """

    pipeline: str
    phase_index: int
    mapping: np.ndarray
    graph: CSRGraph
    coloring_active: bool
    last_phase_gain: float
    config_fingerprint: str
    config_json: str
    history: ConvergenceHistory
    levels: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    n_original: int = 0
    m_original: int = 0
    extra: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to ``path`` atomically (temp file + rename).

    A crash mid-write leaves either the previous checkpoint or none —
    never a torn container.
    """
    path = Path(path)
    meta = {
        "pipeline": ckpt.pipeline,
        "phase_index": int(ckpt.phase_index),
        "coloring_active": bool(ckpt.coloring_active),
        "last_phase_gain": float(ckpt.last_phase_gain),
        "config_fingerprint": ckpt.config_fingerprint,
        "n_original": int(ckpt.n_original),
        "m_original": int(ckpt.m_original),
        "labels": list(ckpt.labels),
        "extra": ckpt.extra,
    }
    arrays = {
        "format_version": np.asarray([CHECKPOINT_FORMAT_VERSION],
                                     dtype=np.int64),
        "meta": np.asarray(json.dumps(meta)),
        "config": np.asarray(ckpt.config_json),
        "history": np.asarray(ckpt.history.to_json()),
        "mapping": np.asarray(ckpt.mapping, dtype=np.int64),
        "graph_indptr": ckpt.graph.indptr,
        "graph_indices": ckpt.graph.indices,
        "graph_weights": ckpt.graph.weights,
    }
    for i, level in enumerate(ckpt.levels):
        arrays[f"level_{i}"] = np.asarray(level, dtype=np.int64)
    arrays[DIGEST_KEY] = np.asarray(digest_arrays(arrays))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path, *,
                    expected_fingerprint: "str | None" = None) -> Checkpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`~repro.utils.errors.CheckpointError` on a missing
    file, a non-checkpoint archive, an unsupported format version, a
    content-digest mismatch (torn or bit-flipped archive), or — when
    ``expected_fingerprint`` is given — a semantic-config fingerprint
    that differs from it.  The fingerprint is compared against the tiny
    ``meta`` entry *before* any array is materialized, so a wrong-config
    resume fails fast instead of after reading the whole archive.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        # Open the handle ourselves: np.load on a truncated/corrupt
        # archive raises from inside the zipfile probe before NpzFile
        # takes ownership, leaking its internally-opened descriptor.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            try:
                version = int(data["format_version"][0])
            except KeyError as exc:
                raise CheckpointError(
                    f"{path}: not a checkpoint container ({exc})"
                ) from exc
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {version}"
                )
            try:
                meta = json.loads(str(data["meta"][()]))
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"{path}: malformed checkpoint ({exc})"
                ) from exc
            if (expected_fingerprint is not None
                    and meta.get("config_fingerprint")
                    != expected_fingerprint):
                raise CheckpointError(
                    f"{path}: configuration fingerprint mismatch — the "
                    "checkpoint was written under a semantically "
                    "different config (backend/threads/tracing may "
                    "differ; thresholds, variant switches, seed and "
                    "resolution may not)"
                )
            if DIGEST_KEY in data.files:
                stored = str(data[DIGEST_KEY][()])
                actual = digest_arrays({
                    name: data[name] for name in data.files
                    if name != DIGEST_KEY
                })
                if stored != actual:
                    raise CheckpointError(
                        f"{path}: content digest mismatch — the archive "
                        "is corrupt (torn write or bit flip); restart "
                        "from an earlier checkpoint or from scratch"
                    )
            try:
                config_json = str(data["config"][()])
                history = ConvergenceHistory.from_json(
                    str(data["history"][()])
                )
                mapping = data["mapping"]
                graph = CSRGraph(
                    data["graph_indptr"], data["graph_indices"],
                    data["graph_weights"], validate=True,
                )
                levels = []
                while f"level_{len(levels)}" in data:
                    levels.append(data[f"level_{len(levels)}"])
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"{path}: malformed checkpoint ({exc})"
                ) from exc
    except CheckpointError:
        raise
    except (OSError, ValueError, BadZipFile) as exc:
        # ValueError: np.load on a non-archive falls through to its
        # pickle probe, which we forbid (allow_pickle=False).
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    return Checkpoint(
        pipeline=str(meta["pipeline"]),
        phase_index=int(meta["phase_index"]),
        mapping=mapping,
        graph=graph,
        coloring_active=bool(meta["coloring_active"]),
        last_phase_gain=float(meta["last_phase_gain"]),
        config_fingerprint=str(meta["config_fingerprint"]),
        config_json=config_json,
        history=history,
        levels=levels,
        labels=list(meta.get("labels", [])),
        n_original=int(meta.get("n_original", 0)),
        m_original=int(meta.get("m_original", 0)),
        extra=dict(meta.get("extra", {})),
    )


def describe_checkpoint(ckpt: Checkpoint) -> str:
    """Human-readable summary (what ``repro robust inspect`` prints)."""
    lines = [
        f"pipeline:        {ckpt.pipeline}",
        f"next phase:      {ckpt.phase_index}",
        f"original graph:  n={ckpt.n_original:,} M={ckpt.m_original:,}",
        f"coarse graph:    n={ckpt.graph.num_vertices:,} "
        f"M={ckpt.graph.num_edges:,}",
        f"communities:     {int(ckpt.mapping.max()) + 1 if ckpt.mapping.size else 0:,}",
        f"coloring active: {ckpt.coloring_active}",
        f"last phase gain: {ckpt.last_phase_gain:.6g}",
        f"iterations:      {ckpt.history.total_iterations} "
        f"across {ckpt.history.num_phases} phase(s)",
        f"dendrogram:      {len(ckpt.levels)} level(s) "
        f"({', '.join(ckpt.labels) or 'none'})",
        f"fingerprint:     {ckpt.config_fingerprint}",
    ]
    if ckpt.extra:
        lines.append(f"extra:           {json.dumps(ckpt.extra)}")
    return "\n".join(lines)
