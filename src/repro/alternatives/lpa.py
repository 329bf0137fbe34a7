"""Label propagation and a PLM-style gain-driven variant (§7, [26]).

Staudt & Meyerhenke's engineering line (PLP/PLM) parallelizes community
detection through label dynamics:

* **PLP / label propagation** (:func:`label_propagation`): every vertex
  repeatedly adopts the label carrying the **largest incident edge
  weight** in its neighborhood.  No modularity objective at all — just
  density-driven diffusion.  Fast, but quality trails modularity-driven
  methods, which is exactly the §7 comparison point.
* **PLM-style** (:func:`plm_style`): the same synchronous label dynamics
  but driven by the Eq. 4 modularity gain — i.e. parallel Louvain *without*
  the paper's minimum-label, VF and coloring heuristics, and without
  phases/coarsening.  The gap between this and the full pipeline isolates
  what the paper's heuristics (and the multi-phase structure) contribute.

Both use the same Jacobi (snapshot) semantics as the main sweep, with a
minimum-label tie-break so the dynamics cannot two-cycle, and both are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.modularity import modularity
from repro.core.sweep import apply_moves, compute_targets_vectorized, init_state
from repro.core.workspace import SweepWorkspace
from repro.graph.csr import CSRGraph
from repro.utils.arrays import renumber_labels, run_boundaries
from repro.utils.errors import ValidationError

__all__ = ["LPAResult", "label_propagation", "plm_style"]


@dataclass
class LPAResult:
    """Output of the label-dynamics algorithms."""

    communities: np.ndarray
    modularity: float
    iterations: int
    converged: bool

    @property
    def num_communities(self) -> int:
        return int(self.communities.max()) + 1 if self.communities.size else 0


def label_propagation(
    graph: CSRGraph, *, max_iterations: int = 100, mode: str = "async",
    seed=0,
) -> LPAResult:
    """Weighted label propagation (PLP-style).

    Each vertex adopts the label with the maximum total incident weight
    among its neighbors (ties -> smallest label; keep the current label
    when it ties the maximum).  Stops when no label changes or after
    ``max_iterations``.

    Parameters
    ----------
    mode:
        ``"async"`` (default): vertices update one after another in a
        seeded random order, seeing the latest labels — the standard
        formulation, which avoids the label-epidemic collapse synchronous
        updates suffer on dense graphs.  ``"sync"``: Jacobi updates from
        the previous iteration's snapshot (fully vectorized, and the
        closer analogue of a lock-free parallel run).
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    if mode not in ("async", "sync"):
        raise ValidationError(f"unknown mode {mode!r}")
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or graph.num_entries == 0:
        return LPAResult(labels, 0.0, 0, True)
    if mode == "async":
        return _label_propagation_async(graph, labels, max_iterations, seed)

    row_of = graph.row_of_entry()
    non_loop = graph.indices != row_of
    src = row_of[non_loop]
    dst = graph.indices[non_loop]
    w = graph.weights[non_loop]

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        lbl = labels[dst]
        key = src * np.int64(n + 1) + lbl
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        starts = run_boundaries(key_s)
        sums = np.add.reduceat(w[order], starts)
        pair_src = src[order][starts]
        pair_lbl = lbl[order][starts]
        # Per-vertex max incident label weight; min label among ties (pairs
        # are label-sorted within each vertex, so the first max wins).
        best_w = np.zeros(n, dtype=np.float64)
        np.maximum.at(best_w, pair_src, sums)
        winners = sums == best_w[pair_src]
        new_labels = labels.copy()
        chosen = np.full(n, n, dtype=np.int64)
        np.minimum.at(chosen, pair_src[winners], pair_lbl[winners])
        has_nbr = chosen < n
        # Keep the current label when it achieves the same weight (avoids
        # churn on symmetric ties).
        cur_w = np.zeros(n, dtype=np.float64)
        own = pair_lbl == labels[pair_src]
        cur_w[pair_src[own]] = sums[own]
        switch = has_nbr & (cur_w < best_w)
        new_labels[switch] = chosen[switch]
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels

    dense, _ = renumber_labels(labels)
    return LPAResult(
        communities=dense,
        modularity=modularity(graph, dense),
        iterations=iterations,
        converged=converged,
    )


def _label_propagation_async(
    graph: CSRGraph, labels: np.ndarray, max_iterations: int, seed
) -> LPAResult:
    """Sequential (Gauss–Seidel) label propagation in seeded random order."""
    from repro.utils.rng import as_rng

    n = graph.num_vertices
    rng = as_rng(seed)
    order = rng.permutation(n)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        changed = 0
        for v in order.tolist():
            lo, hi = indptr[v], indptr[v + 1]
            best_label = int(labels[v])
            acc: dict[int, float] = {}
            for u, w in zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()):
                if u == v:
                    continue
                lu = int(labels[u])
                acc[lu] = acc.get(lu, 0.0) + w
            if not acc:
                continue
            cur_weight = acc.get(best_label, 0.0)
            top = max(acc.values())
            if top > cur_weight:
                # Minimum label among the top-weight candidates.
                best_label = min(l for l, s in acc.items() if s == top)
                labels[v] = best_label
                changed += 1
        if changed == 0:
            converged = True
            break
    dense, _ = renumber_labels(labels)
    return LPAResult(
        communities=dense,
        modularity=modularity(graph, dense),
        iterations=iterations,
        converged=converged,
    )


def plm_style(
    graph: CSRGraph,
    *,
    threshold: float = 1e-6,
    max_iterations: int = 200,
) -> LPAResult:
    """Single-level parallel gain-driven label dynamics (PLM-style).

    One flat run of the Jacobi modularity-gain sweep — no vertex
    following, no coloring, no phases/coarsening.  What remains of the
    paper's pipeline when every §5 heuristic is stripped away except the
    minimum-label stabilizer (without which synchronous dynamics two-cycle,
    §4.2).
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    n = graph.num_vertices
    state = init_state(graph)
    if n == 0 or graph.total_weight <= 0:
        return LPAResult(state.comm, 0.0, 0, True)
    verts = np.arange(n, dtype=np.int64)
    # One workspace for the run: its loop-free view and plan are built once.
    workspace = SweepWorkspace(graph)
    q_prev = -1.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        targets = compute_targets_vectorized(graph, state, verts,
                                             workspace=workspace)
        moved = apply_moves(graph, state, verts, targets)
        q = modularity(graph, state.comm)
        if moved == 0 or (q - q_prev) < threshold * abs(q_prev):
            converged = True
            break
        q_prev = q
    dense, _ = renumber_labels(state.comm)
    return LPAResult(
        communities=dense,
        modularity=modularity(graph, dense),
        iterations=iterations,
        converged=converged,
    )
