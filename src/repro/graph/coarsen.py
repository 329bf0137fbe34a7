"""Graph rebuild between Louvain phases (paper §5.5).

At the end of a phase the community assignment is used to construct the
next phase's input: every non-empty community becomes a meta-vertex; all
intra-community edge weight becomes a self-loop on the meta-vertex; all
inter-community edge weight between two communities becomes one edge
between the two meta-vertices (§3).

The implementation follows the paper's three steps:

(i)   renumber the non-empty communities densely ``0..k-1`` (numeric order
      preserved, as the serial renumbering step does);
(ii)  allocate a neighbor-accumulation structure per meta-vertex;
(iii) sweep all edges of the fine graph and accumulate weights —
      intra-community entries onto the meta self-loop ("one lock" in the
      paper's locked OpenMP version), inter-community entries onto both
      endpoint meta-vertices ("two locks").

Steps (ii)–(iii) are one vectorized sort-and-segment-reduce pass here; the
per-edge lock counts the OpenMP implementation would have issued are still
tallied because the simulated-machine cost model charges rebuild contention
with them (Figs 8–9).

Weight bookkeeping note: in this package a self-loop's weight counts *once*
in its vertex degree ``k_i`` (see :mod:`repro.graph.csr`).  Therefore the
meta self-loop receives the sum of intra-community weight over *directed*
CSR entries (each undirected intra edge contributes twice, a fine self-loop
once).  This choice makes coarsening exact: the coarse vertex degrees equal
the fine community degrees ``a_C``, ``m`` is unchanged, and the modularity
of any coarse partition equals the modularity of the partition it induces
on the fine graph (property-tested in ``tests/graph/test_coarsen.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.arrays import renumber_labels, run_boundaries
from repro.utils.errors import ValidationError

__all__ = ["CoarsenResult", "coarsen", "project_assignment"]


@dataclass(frozen=True)
class CoarsenResult:
    """Result of one between-phase graph rebuild.

    Attributes
    ----------
    graph:
        The coarse graph (one vertex per non-empty community).
    vertex_to_meta:
        ``(n_fine,)`` dense meta-vertex id for every fine vertex.
    num_communities:
        Number of meta-vertices ``k``.
    intra_weight:
        Total undirected intra-community edge weight of the fine partition.
    inter_weight:
        Total undirected inter-community edge weight.
    lock_ops:
        Number of atomic/lock operations the paper's locked rebuild would
        issue: one per intra-community undirected edge, two per
        inter-community undirected edge (§5.5, §6.2.1).
    """

    graph: CSRGraph
    vertex_to_meta: np.ndarray
    num_communities: int
    intra_weight: float
    inter_weight: float
    lock_ops: int


def coarsen(graph: CSRGraph, communities) -> CoarsenResult:
    """Collapse ``graph`` along a community assignment.

    Parameters
    ----------
    graph:
        Fine graph.
    communities:
        ``(n,)`` integer community labels (arbitrary values; empty labels are
        dropped by the dense renumbering, exactly like the paper's step (i)).

    Returns
    -------
    CoarsenResult
    """
    comm = np.asarray(communities)
    n = graph.num_vertices
    if comm.shape != (n,):
        raise ValidationError(
            f"communities must have shape ({n},), got {comm.shape}"
        )
    if n == 0:
        return CoarsenResult(CSRGraph.empty(0), comm.astype(np.int64), 0, 0.0, 0.0, 0)
    if not np.issubdtype(comm.dtype, np.integer):
        raise ValidationError("communities must be integers")

    dense, k = renumber_labels(comm)

    row_of = graph.row_of_entry()
    src_c = np.take(dense, row_of)
    dst_c = np.take(dense, graph.indices)
    w = graph.weights

    # --- Lock accounting on the fine (undirected) edges -------------------
    self_entries = graph.indices == row_of
    intra_entries = src_c == dst_c
    # Undirected intra edges: non-self intra entries counted twice + selfs.
    non_self_intra = int(np.count_nonzero(intra_entries & ~self_entries)) // 2
    num_self = int(np.count_nonzero(self_entries))
    intra_edges = non_self_intra + num_self
    inter_edges = int(np.count_nonzero(~intra_entries)) // 2
    lock_ops = intra_edges + 2 * inter_edges

    # Index compresses keep the same entries in the same order as boolean
    # ones, so the sums are the same bits.
    def weight_where(mask) -> float:
        return float(np.sum(np.take(w, np.flatnonzero(mask))))

    intra_weight = (weight_where(intra_entries & ~self_entries) / 2.0
                    + weight_where(self_entries))
    inter_weight = weight_where(~intra_entries) / 2.0

    # --- Aggregate directed entries by (src community, dst community) -----
    key = src_c * k + dst_c
    order = np.argsort(key, kind="stable")
    key_sorted = np.take(key, order)
    w_sorted = np.take(w, order)
    starts = run_boundaries(key_sorted)
    agg_w = (np.add.reduceat(w_sorted, starts) if starts.size
             else np.zeros(0, dtype=np.float64))
    agg_key = np.take(key_sorted, starts) if starts.size else key_sorted
    agg_src = (agg_key // k).astype(np.int64)
    agg_dst = (agg_key % k).astype(np.int64)

    counts = np.bincount(agg_src, minlength=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    coarse = CSRGraph(indptr, agg_dst, agg_w, validate=False)

    return CoarsenResult(
        graph=coarse,
        vertex_to_meta=dense,
        num_communities=k,
        intra_weight=intra_weight,
        inter_weight=inter_weight,
        lock_ops=lock_ops,
    )


def project_assignment(
    vertex_to_meta: np.ndarray, meta_assignment: np.ndarray
) -> np.ndarray:
    """Pull a coarse-level community assignment back to fine vertices.

    ``vertex_to_meta`` maps fine vertices to meta-vertices (from a
    :class:`CoarsenResult`); ``meta_assignment`` assigns each meta-vertex a
    community.  The composition assigns each fine vertex the community of
    its meta-vertex — how the dendrogram is flattened across phases.
    """
    vertex_to_meta = np.asarray(vertex_to_meta)
    meta_assignment = np.asarray(meta_assignment)
    if vertex_to_meta.size and (
        vertex_to_meta.max() >= meta_assignment.shape[0] or vertex_to_meta.min() < 0
    ):
        raise ValidationError(
            "vertex_to_meta refers to meta vertices outside meta_assignment"
        )
    return meta_assignment[vertex_to_meta]
