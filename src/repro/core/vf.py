"""Vertex-following (VF) preprocessing — paper §5.3.

Lemma 3: a *single-degree* vertex (exactly one incident edge ``(i, j)``
with ``i != j`` and no self-loop) always ends up in its neighbor's
community in the serial Louvain solution.  The VF heuristic therefore
merges every single-degree vertex into its neighbor *a priori*, shrinking
the phase-1 input and — more importantly in parallel — stopping hub
vertices from being pulled into one of their degree-1 "spokes" (the Fig. 2
hub/spoke scenario).

Implementation: the merge is expressed as a community assignment (each
vertex's representative).  :func:`merge_pendants` builds the merged graph
that :func:`repro.graph.coarsen.coarsen` would build along it, with the
same exact modularity-preserving weights, bit for bit; a VF community is
one vertex and its pendants, so one pass over the entries does it, with
no counting sort.  Special case: a pair of single-degree vertices joined
to each other (an isolated edge) collapses into its lower-id endpoint.

The module also implements the *extension* the paper sketches at the end
of §5.3 — recursive merging of single-neighbor chains ("fast compression
of chains"): :func:`chain_compress` repeats VF rounds until no
single-degree vertex remains (a path collapses in O(log length) rounds).
The paper stops short of evaluating it; we expose it as an option and an
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.arrays import run_boundaries, segment_sums

__all__ = [
    "VFResult",
    "chain_compress",
    "merge_pendants",
    "single_degree_vertices",
    "single_neighbor_vertices",
    "vf_merge",
]


@dataclass(frozen=True)
class VFResult:
    """Outcome of VF preprocessing.

    Attributes
    ----------
    graph:
        The merged (smaller) graph.
    vertex_to_meta:
        ``(n_fine,)`` map from input vertices to merged-graph vertices.
    num_merged:
        How many vertices were folded away.
    rounds:
        Number of merge rounds performed (1 for plain VF).
    """

    graph: CSRGraph
    vertex_to_meta: np.ndarray
    num_merged: int
    rounds: int


def single_degree_vertices(graph: CSRGraph) -> np.ndarray:
    """Ids of single-degree vertices in the paper's strict sense.

    Exactly one incident edge, which joins the vertex to a *different*
    vertex; a vertex whose only entry is a self-loop is isolated-with-loop,
    and a vertex with one neighbor plus a self-loop is "single neighbor",
    not single degree — Lemma 3 only covers the strict case.
    """
    deg1 = np.flatnonzero(graph.unweighted_degrees == 1)
    if deg1.size == 0:
        return deg1
    only_nbr = graph.indices[graph.indptr[deg1]]
    return deg1[only_nbr != deg1]


def single_neighbor_vertices(
    graph: CSRGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-*neighbor* vertices (§5.3): one non-loop edge ``(i, j)``
    (mandatory) plus at most a self-loop ``(i, i)``.

    Returns ``(ids, neighbor, edge_weight)`` aligned arrays.  Every strict
    single-degree vertex is included (its optional self-loop is absent).
    """
    deg = graph.unweighted_degrees
    cand = np.flatnonzero((deg == 1) | (deg == 2))
    # A candidate row holds one or two sorted, duplicate-free entries, so
    # a two-entry row qualifies iff one of them is the loop, and the
    # edge is the other one.
    two = deg.take(cand) == 2
    first = graph.indptr.take(cand)
    second = first + two
    loop_first = graph.indices.take(first) == cand
    loop_second = graph.indices.take(second) == cand
    keep = np.flatnonzero(np.where(two, loop_first | loop_second,
                                   ~loop_first))
    edge = np.where(loop_first, second, first).take(keep)
    return (cand.take(keep), graph.indices.take(edge),
            graph.weights.take(edge).astype(np.float64))


def _pair_off(
    n: int, singles: np.ndarray, neighbor: np.ndarray
) -> tuple[np.ndarray, int]:
    """Build a one-round representative map, resolving mutual merges.

    When both endpoints of an edge want to merge into each other (isolated
    edge, or a 2-cycle of single-neighbor vertices), the higher id merges
    into the lower so exactly one survives.
    """
    rep = np.arange(n, dtype=np.int64)
    if singles.size == 0:
        return rep, 0
    is_single = np.zeros(n, dtype=bool)
    is_single[singles] = True
    wants = np.full(n, -1, dtype=np.int64)
    wants[singles] = neighbor
    partner_mutual = is_single[neighbor] & (wants[neighbor] == singles)
    keep = ~partner_mutual | (neighbor < singles)
    rep[singles[keep]] = neighbor[keep]
    return rep, int(keep.sum())


def _representatives(graph: CSRGraph) -> tuple[np.ndarray, int]:
    """Representative (merge target) per vertex for one strict-VF round."""
    n = graph.num_vertices
    singles = single_degree_vertices(graph)
    if singles.size == 0:
        return np.arange(n, dtype=np.int64), 0
    neighbor = graph.indices[graph.indptr[singles]]
    return _pair_off(n, singles, neighbor)


def _row_search(graph: CSRGraph, rows: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """Position of the first entry ``>= cols[i]`` in each row ``rows[i]``:
    one binary search per row, run in lockstep over all of them."""
    lo = graph.indptr.take(rows)
    hi = graph.indptr.take(rows + 1)
    while True:
        open_ = np.flatnonzero(lo < hi)
        if open_.size == 0:
            return lo
        left, right = lo.take(open_), hi.take(open_)
        mid = (left + right) >> 1
        up = graph.indices.take(mid) < cols.take(open_)
        lo[open_] = np.where(up, mid + 1, left)
        hi[open_] = np.where(up, right, mid)


def _entry_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:stops[i]`` of every range, in order."""
    lengths = stops - starts
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return offsets + np.arange(int(lengths.sum()), dtype=np.int64)


@snapshot_kernel("graph")
def merge_pendants(graph: CSRGraph,
                   rep: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """``coarsen(graph, rep)``'s graph and ``vertex_to_meta`` for a VF
    merge map, bit for bit, in one streaming pass over the entries.

    ``rep`` is idempotent: a *pendant* (``rep[v] != v``) has one non-loop
    entry, to its *host* ``rep[v]``, plus at most a loop, and no host is
    a pendant.  A community is then one survivor and its pendants, so an
    inter-community entry joins two survivors and is the only entry
    between its two communities: it passes through with its weight
    unchanged, and its mirror is equal because the input is symmetric.
    No counting sort is needed.  The intra entries are the pendants'
    rows, their mirrors in the host rows and the hosts' own loops; each
    host's new loop sums them in ``coarsen``'s canonical order —
    community, then fine row, then column, which is position order —
    and sits where the host's column sorts in its row.  A survivor that
    hosts nothing keeps its row, loop included, as it is.
    """
    n = graph.num_vertices
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    survivor = rep == np.arange(n, dtype=np.int64)
    dense = np.cumsum(survivor) - 1
    vertex_to_meta = dense.take(rep)

    # The intra entries, in position order.
    pendants = np.flatnonzero(~survivor)
    hosts = np.unique(rep.take(pendants))
    at_host = _row_search(graph, hosts, hosts)
    host_loops = at_host.take(np.flatnonzero(
        (at_host < indptr.take(hosts + 1))
        & (indices.take(np.minimum(at_host, indices.size - 1)) == hosts)))
    intra = np.sort(np.concat((
        _row_search(graph, rep.take(pendants), pendants),
        _entry_ranges(indptr.take(pendants), indptr.take(pendants + 1)),
        host_loops,
    )))

    # Each host's loop: a segment sum over its community's entries.
    community = rep.take(np.searchsorted(indptr, intra, side="right") - 1)
    order = np.argsort(community, kind="stable")
    loops = segment_sums(weights.take(intra.take(order)),
                         run_boundaries(community.take(order)))

    # Keep the inter entries and the loops of survivors that host
    # nothing, insert each host's loop where its column sorts in its
    # row, and renumber the columns.
    keep = np.ones(indices.size, dtype=bool)
    keep[intra] = False
    at = at_host - np.searchsorted(intra, at_host)
    src = np.insert(np.flatnonzero(keep), at, 0)
    slots = at + np.arange(hosts.size)
    cols = dense.take(indices.take(src))
    cols[slots] = dense.take(hosts)
    merged_weights = weights.take(src)
    merged_weights[slots] = loops
    rows = np.append(np.flatnonzero(survivor), n)
    merged_indptr = (indptr.take(rows)
                     - np.searchsorted(intra, indptr.take(rows))
                     + np.searchsorted(hosts, rows))
    merged = CSRGraph(merged_indptr, cols, merged_weights, validate=False)
    return merged, vertex_to_meta


def vf_merge(graph: CSRGraph) -> VFResult:
    """One round of vertex following: merge all single-degree vertices.

    The merged graph's meta-vertices carry self-loops holding the absorbed
    edge weight, so community degrees and total weight are preserved and
    any partition of the merged graph has exactly the modularity of the
    partition it induces on the input (see :mod:`repro.graph.coarsen`).
    """
    rep, merged = _representatives(graph)
    if merged == 0:
        return VFResult(graph, rep, 0, 0)
    merged_graph, vertex_to_meta = merge_pendants(graph, rep)
    return VFResult(merged_graph, vertex_to_meta, merged, 1)


def chain_compress(graph: CSRGraph, *, max_rounds: int | None = None) -> VFResult:
    """Recursive single-neighbor VF — the extension sketched at the end of
    §5.3 ("fast compression of chains").

    Each round merges every single-*neighbor* vertex ``i`` (one non-loop
    edge ``(i, j)``, optional self-loop) into its neighbor, but only while
    the lower bound of inequality (10) stays positive, i.e. while

        2m > k_i * a_{C(j)} / ω(i, j)

    — the explicit termination test the paper proposes.  At preprocessing
    time ``a_{C(j)} = k_j``.  Because a merged chain end re-appears as a
    single-neighbor vertex with a self-loop, a pendant path collapses fully
    over successive rounds, unlike the strict single-degree rule.
    """
    current = graph
    mapping = np.arange(graph.num_vertices, dtype=np.int64)
    total_merged = 0
    rounds = 0
    two_m = 2.0 * graph.total_weight
    while max_rounds is None or rounds < max_rounds:
        ids, neighbor, w_ij = single_neighbor_vertices(current)
        if ids.size:
            k = current.degrees
            safe = two_m > k[ids] * k[neighbor] / w_ij
            ids, neighbor = ids[safe], neighbor[safe]
        if ids.size == 0:
            break
        rep, merged = _pair_off(current.num_vertices, ids, neighbor)
        if merged == 0:
            break
        current, vertex_to_meta = merge_pendants(current, rep)
        mapping = vertex_to_meta[mapping]
        total_merged += merged
        rounds += 1
    return VFResult(current, mapping, total_merged, rounds)
