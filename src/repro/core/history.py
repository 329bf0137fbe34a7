"""Convergence history and work accounting.

The paper's evaluation reads almost everything off the *trajectory* of the
algorithm: modularity per iteration (Figs 3–6 left), iteration counts
(Tables 4–5), per-step runtime breakdowns (Fig 8), and rebuild lock counts
(Fig 9).  The driver therefore records one :class:`IterationRecord` per
iteration and one :class:`PhaseRecord` per phase, including the *work
counters* (edges/vertices scanned per color set, rebuild lock operations)
that the simulated-machine cost model later converts into runtimes for any
thread count — so a single pipeline run can be "replayed" at p = 1..32.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["ConvergenceHistory", "IterationRecord", "PhaseRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """Work and outcome of one iteration (one full sweep of the vertices).

    ``color_set_vertices``/``color_set_edges`` hold per-color-set work: an
    uncolored iteration is a single "set" covering every vertex.  Edges are
    counted as CSR entries scanned (each undirected edge twice), matching
    the per-iteration O(M) cost the paper analyzes in §5.6.

    With frontier pruning (:func:`repro.core.phase.run_phase`) an iteration
    only re-evaluates vertices adjacent to the previous iteration's movers;
    ``active_vertices``/``active_edges`` record the work *actually done*
    (``None`` on records produced before pruning existed, meaning "all of
    it"), while the ``color_set_*`` tuples keep the full set sizes so the
    sweep structure stays visible.  ``aggregation`` names the e_{v→C}
    aggregation path (``"sort"``, ``"bincount"``, ``"matmul"``) that the
    in-process kernel resolves for the iteration's last swept set with
    non-loop entries, from that set's size and entry count — the same on
    every backend, however the sweep was dispatched; empty for the
    reference kernel or when no swept set had such an entry.
    """

    phase: int
    iteration: int
    modularity: float
    vertices_moved: int
    num_communities: int
    color_set_vertices: tuple[int, ...]
    color_set_edges: tuple[int, ...]
    #: Vertices actually re-evaluated this iteration (None = all).
    active_vertices: "int | None" = None
    #: CSR entries actually scanned this iteration (None = all).
    active_edges: "int | None" = None
    #: e_{v→C} aggregation path used ("" when not applicable).
    aggregation: str = ""

    @property
    def edges_scanned(self) -> int:
        return int(sum(self.color_set_edges))

    @property
    def vertices_scanned(self) -> int:
        return int(sum(self.color_set_vertices))

    @property
    def active_vertex_fraction(self) -> float:
        """Share of the sweepable vertices this iteration re-evaluated."""
        total = self.vertices_scanned
        if self.active_vertices is None or total == 0:
            return 1.0
        return self.active_vertices / total

    @property
    def active_edge_fraction(self) -> float:
        """Share of the scannable CSR entries this iteration touched."""
        total = self.edges_scanned
        if self.active_edges is None or total == 0:
            return 1.0
        return self.active_edges / total


@dataclass(frozen=True)
class PhaseRecord:
    """Summary of one phase: its input size, coloring, and rebuild work."""

    phase: int
    num_vertices: int
    num_edges: int
    colored: bool
    num_colors: int
    threshold: float
    iterations: int
    start_modularity: float
    end_modularity: float
    #: Lock operations of the between-phase rebuild that follows this phase
    #: (0 for the final phase, which is not followed by a rebuild).
    rebuild_lock_ops: int
    rebuild_num_communities: int
    #: Color-class sizes (empty when the phase ran uncolored).
    color_class_sizes: tuple[int, ...] = ()


@dataclass
class ConvergenceHistory:
    """Full trajectory of one pipeline run."""

    iterations: list[IterationRecord] = field(default_factory=list)
    phases: list[PhaseRecord] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        """Iteration count across all phases (the "#iter" of Tables 4–5)."""
        return len(self.iterations)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def final_modularity(self) -> float:
        """Modularity after the last recorded iteration."""
        return self.iterations[-1].modularity if self.iterations else 0.0

    def modularity_trajectory(self) -> np.ndarray:
        """Modularity after each iteration, across phases (Figs 3–6 left)."""
        return np.asarray([r.modularity for r in self.iterations], dtype=np.float64)

    def phase_boundaries(self) -> list[int]:
        """Global iteration indices at which each phase ends (exclusive)."""
        bounds: list[int] = []
        count = 0
        for phase in self.phases:
            count += phase.iterations
            bounds.append(count)
        return bounds

    def iterations_of_phase(self, phase: int) -> list[IterationRecord]:
        """All iteration records belonging to one phase."""
        return [r for r in self.iterations if r.phase == phase]

    # -- JSON round-trip (consumed by the repro.obs trace exporters) --------
    def to_json_dict(self) -> dict:
        """Plain-dict form embeddable in a trace file (lossless).

        Each record becomes a dict of its fields in declaration order —
        what ``dataclasses.asdict`` gives, without its deep copy of every
        element of every per-color-set tuple: the records are frozen and
        hold only numbers, strings and tuples of ints.
        """
        return {
            "iterations": [_fields_dict(r, _ITERATION_FIELDS)
                           for r in self.iterations],
            "phases": [_fields_dict(r, _PHASE_FIELDS) for r in self.phases],
        }

    def to_json(self, **dumps_kwargs) -> str:
        """Serialize to a JSON string (see :meth:`from_json`)."""
        return json.dumps(self.to_json_dict(), **dumps_kwargs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConvergenceHistory":
        """Inverse of :meth:`to_json_dict`: rebuild the dataclass records.

        Tuple-valued fields (JSON arrays) are converted back to tuples, so
        a round-tripped history compares equal to the original.
        """
        history = cls()
        for rec in data.get("iterations", []):
            rec = dict(rec)
            for key in ("color_set_vertices", "color_set_edges"):
                rec[key] = tuple(rec.get(key, ()))
            history.iterations.append(IterationRecord(**rec))
        for rec in data.get("phases", []):
            rec = dict(rec)
            rec["color_class_sizes"] = tuple(rec.get("color_class_sizes", ()))
            history.phases.append(PhaseRecord(**rec))
        return history

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceHistory":
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))


_ITERATION_FIELDS = tuple(f.name for f in fields(IterationRecord))
_PHASE_FIELDS = tuple(f.name for f in fields(PhaseRecord))


def _fields_dict(record, names: tuple) -> dict:
    return {name: getattr(record, name) for name in names}
