"""Modularity (Newman–Girvan, Eq. 3) and its building blocks.

With ``P = {C_1 .. C_k}`` a partition of the vertex set,

    Q = (1/2m) * sum_i e_{i→C(i)}  -  sum_C (a_C / 2m)^2          (Eq. 3)

where ``e_{i→C}`` is the total weight of edges joining vertex ``i`` to
members of community ``C`` (a self-loop joins ``i`` to its own community
and counts once), ``a_C = sum_{i in C} k_i`` is the community degree, and
``m`` is half the total weighted degree.

Everything here is vectorized over CSR entries; no per-vertex Python loops.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.errors import ValidationError

__all__ = [
    "communities_are_valid",
    "community_degrees",
    "community_sizes",
    "intra_community_weight",
    "modularity",
    "vertex_to_community_weight",
]


def _check_assignment(graph: CSRGraph, communities):
    comm = np.asarray(communities)
    if comm.shape != (graph.num_vertices,):
        raise ValidationError(
            f"communities must have shape ({graph.num_vertices},), got {comm.shape}"
        )
    if not np.issubdtype(comm.dtype, np.integer):
        raise ValidationError("communities must be an integer array")
    return comm.astype(np.int64, copy=False)


def communities_are_valid(graph: CSRGraph, communities) -> bool:
    """True when ``communities`` is a well-formed assignment for ``graph``."""
    try:
        _check_assignment(graph, communities)
    except ValidationError:
        return False
    return True


def community_degrees(graph: CSRGraph, communities, num_labels: int | None = None):
    """Community degrees ``a_C`` (Eq. 2) indexed by community label.

    Parameters
    ----------
    num_labels:
        Length of the output array (labels must lie in ``[0, num_labels)``).
        Defaults to ``max label + 1``.
    """
    comm = _check_assignment(graph, communities)
    if num_labels is None:
        num_labels = int(comm.max()) + 1 if comm.size else 0
    return np.bincount(comm, weights=graph.degrees, minlength=num_labels)


def community_sizes(graph: CSRGraph, communities, num_labels: int | None = None):
    """Number of vertices per community label."""
    comm = _check_assignment(graph, communities)
    if num_labels is None:
        num_labels = int(comm.max()) + 1 if comm.size else 0
    return np.bincount(comm, minlength=num_labels)


def intra_community_weight(graph: CSRGraph, communities) -> float:
    """``sum_i e_{i→C(i)}`` — the numerator of Eq. 3's first term.

    Each intra-community non-loop edge contributes its weight twice (once
    per endpoint); a self-loop contributes once.
    """
    comm = _check_assignment(graph, communities)
    src_c = np.take(comm, graph.row_of_entry())
    dst_c = np.take(comm, graph.indices)
    intra = np.flatnonzero(src_c == dst_c)
    return float(np.sum(np.take(graph.weights, intra)))


def modularity(graph: CSRGraph, communities, *,
               resolution: float = 1.0) -> float:
    """Modularity ``Q`` of a partition (Eq. 3), with an optional resolution
    parameter.

    ``resolution`` γ generalizes Eq. 3 to the Reichardt–Bornholdt form

        Q_γ = (1/2m) Σ_i e_{i→C(i)}  -  γ Σ_C (a_C / 2m)²

    (γ = 1 is the paper's definition).  The paper lists alternative
    modularity definitions that "overcome the known resolution-limit
    issues" as future work (iv); γ > 1 favors smaller communities, γ < 1
    larger ones.

    Examples
    --------
    >>> from repro.graph.generators import two_cliques_bridge
    >>> import numpy as np
    >>> g = two_cliques_bridge(4)
    >>> q = modularity(g, np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    >>> round(q, 4)
    0.4231
    """
    comm = _check_assignment(graph, communities)
    m = graph.total_weight
    if m <= 0:
        return 0.0
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    a_c = community_degrees(graph, comm)
    intra = intra_community_weight(graph, comm)
    return intra / (2.0 * m) - resolution * float(
        np.sum(np.square(a_c / (2.0 * m)))
    )


def vertex_to_community_weight(graph: CSRGraph, v: int, communities,
                               target: int) -> float:
    """``e_{v→target}`` — total weight from ``v`` into community ``target``.

    Includes the self-loop when ``target`` is ``v``'s own community.
    """
    comm = _check_assignment(graph, communities)
    nbrs, w = graph.neighbors(v)
    nbr_comm = np.take(comm, nbrs)
    return float(np.sum(w[nbr_comm == target]))
