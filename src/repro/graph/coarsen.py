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

Steps (ii)–(iii) are two counting transposes and one segment reduce here,
plus a third transpose that gives w(a,b) and w(b,a) the larger of their
two sums, so every coarse graph is exactly symmetric, as
:class:`~repro.graph.csr.CSRGraph` requires of its input; the per-edge
lock counts the OpenMP implementation would have issued are still
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
from scipy.sparse._sparsetools import csr_tocsc as _csr_tocsc

from repro.graph.csr import CSRGraph
from repro.utils.arrays import renumber_labels
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
    lock_ops:
        Number of atomic/lock operations the paper's locked rebuild would
        issue: one per intra-community undirected edge, two per
        inter-community undirected edge (§5.5, §6.2.1).
    """

    graph: CSRGraph
    vertex_to_meta: np.ndarray
    num_communities: int
    lock_ops: int


def _transpose(num_rows: int, num_cols: int, indptr, cols, data):
    """A CSR block's transpose, by SciPy's C ``csr_tocsc``.

    A counting sort: entries are bucketed by column, and within a bucket
    keep their row-major order.  The C routine indexes the buckets
    without bounds checks, so ``cols`` must lie in ``[0, num_cols)``;
    ``indptr`` and ``cols`` share one index dtype.
    """
    out_ptr = np.empty(num_cols + 1, dtype=indptr.dtype)
    out_rows = np.empty(cols.size, dtype=indptr.dtype)
    out_data = np.empty(cols.size, dtype=data.dtype)
    _csr_tocsc(num_rows, num_cols, indptr, cols, data,
               out_ptr, out_rows, out_data)
    return out_ptr, out_rows, out_data


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
        return CoarsenResult(CSRGraph.empty(0), comm.astype(np.int64), 0, 0)
    if not np.issubdtype(comm.dtype, np.integer):
        raise ValidationError("communities must be integers")

    dense, k = renumber_labels(comm)
    w = graph.weights
    nnz = w.size
    idx = np.int32 if max(n, k, nnz) <= np.iinfo(np.int32).max else np.int64
    dense_idx = dense.astype(idx)
    src_c = np.repeat(dense_idx, np.diff(graph.indptr))
    dst_c = np.take(dense_idx, graph.indices)

    # --- Lock accounting on the fine (undirected) edges -------------------
    # A self-loop entry is always intra-community.
    intra_entries = src_c == dst_c
    num_intra = int(np.count_nonzero(intra_entries))
    num_self = graph.num_self_loops
    # Undirected intra edges: non-self intra entries counted twice + selfs.
    intra_edges = (num_intra - num_self) // 2 + num_self
    inter_edges = (nnz - num_intra) // 2
    lock_ops = intra_edges + 2 * inter_edges

    # --- Aggregate directed entries by (src community, dst community) -----
    # Two stable counting transposes: the first buckets the entries by
    # dst community (fine rows ascending within a bucket), the second
    # re-buckets that by src community.  Together they order the entries
    # exactly as a stable sort of ``src_c * k + dst_c`` would, so the
    # segment sums below add the same weights in the same order.
    tp, ti, tw = _transpose(n, k, graph.indptr.astype(idx), dst_c, w)
    cp, cj, cw = _transpose(k, k, tp, np.take(dense_idx, ti), tw)
    # A run starts at every row start and wherever the dst changes.
    new_run = np.ones(nnz, dtype=bool)
    np.not_equal(cj[1:], cj[:-1], out=new_run[1:])
    new_run[cp[:-1][cp[:-1] < cp[1:]]] = True
    starts = np.flatnonzero(new_run)
    agg_w = (np.add.reduceat(cw, starts) if starts.size
             else np.zeros(0, dtype=np.float64))
    indptr = np.searchsorted(starts, cp).astype(np.int64)
    cols = np.take(cj, starts)
    # w(a,b) and w(b,a) were summed over different entry orders, so
    # non-integer weights may differ in the last bit.  Give both the
    # larger: the coarse pattern is symmetric with sorted rows, so its
    # transpose lines up entry for entry.
    _, _, mirror = _transpose(k, k, indptr.astype(idx), cols, agg_w)
    np.maximum(agg_w, mirror, out=agg_w)
    coarse = CSRGraph(indptr, cols, agg_w, validate=False)

    return CoarsenResult(
        graph=coarse,
        vertex_to_meta=dense,
        num_communities=k,
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
