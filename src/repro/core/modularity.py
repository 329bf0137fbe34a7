"""Modularity (Newman–Girvan, Eq. 3) and its building blocks.

With ``P = {C_1 .. C_k}`` a partition of the vertex set,

    Q = (1/2m) * sum_i e_{i→C(i)}  -  sum_C (a_C / 2m)^2          (Eq. 3)

where ``e_{i→C}`` is the total weight of edges joining vertex ``i`` to
members of community ``C`` (a self-loop joins ``i`` to its own community
and counts once), ``a_C = sum_{i in C} k_i`` is the community degree, and
``m`` is half the total weighted degree.

Everything here is vectorized over CSR entries; no per-vertex Python loops.
This module belongs to the array-API kernel tier: all array operations go
through a :class:`repro.backends.ArrayOps` dispatch object (NumPy by
default, bitwise identical to the pre-port kernels; CuPy/torch when
installed — see :mod:`repro.backends`).
"""

from __future__ import annotations

import numpy as np

from repro.backends import ArrayOps, numpy_ops
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


def _check_assignment(graph: CSRGraph, communities,
                      ops: ArrayOps = numpy_ops):
    comm = ops.asarray(communities)
    if comm.shape != (graph.num_vertices,):
        raise ValidationError(
            f"communities must have shape ({graph.num_vertices},), got {comm.shape}"
        )
    if not _is_integer_dtype(comm, ops):
        raise ValidationError("communities must be an integer array")
    return ops.astype(comm, ops.int64, copy=False)


def _is_integer_dtype(arr, ops: ArrayOps) -> bool:
    if ops.is_numpy:
        return bool(np.issubdtype(arr.dtype, np.integer))
    return bool(ops.isdtype(arr.dtype, "integral"))


def communities_are_valid(graph: CSRGraph, communities) -> bool:
    """True when ``communities`` is a well-formed assignment for ``graph``."""
    try:
        _check_assignment(graph, communities)
    except ValidationError:
        return False
    return True


def community_degrees(graph: CSRGraph, communities, num_labels: int | None = None,
                      *, ops: ArrayOps = numpy_ops):
    """Community degrees ``a_C`` (Eq. 2) indexed by community label.

    Parameters
    ----------
    num_labels:
        Length of the output array (labels must lie in ``[0, num_labels)``).
        Defaults to ``max label + 1``.
    """
    comm = _check_assignment(graph, communities, ops)
    if num_labels is None:
        num_labels = int(ops.max(comm)) + 1 if comm.shape[0] else 0
    return ops.bincount(comm, weights=ops.asarray(graph.degrees),
                        minlength=num_labels)


def community_sizes(graph: CSRGraph, communities, num_labels: int | None = None,
                    *, ops: ArrayOps = numpy_ops):
    """Number of vertices per community label."""
    comm = _check_assignment(graph, communities, ops)
    if num_labels is None:
        num_labels = int(ops.max(comm)) + 1 if comm.shape[0] else 0
    return ops.bincount(comm, minlength=num_labels)


def intra_community_weight(graph: CSRGraph, communities,
                           *, ops: ArrayOps = numpy_ops) -> float:
    """``sum_i e_{i→C(i)}`` — the numerator of Eq. 3's first term.

    Each intra-community non-loop edge contributes its weight twice (once
    per endpoint); a self-loop contributes once.
    """
    comm = _check_assignment(graph, communities, ops)
    row_of = ops.asarray(graph.row_of_entry())
    dst = ops.asarray(graph.indices)
    weights = ops.asarray(graph.weights)
    src_c = ops.take(comm, row_of)
    dst_c = ops.take(comm, dst)
    intra = ops.flatnonzero(src_c == dst_c)
    return float(ops.sum(ops.take(weights, intra)))


def modularity(graph: CSRGraph, communities, *, resolution: float = 1.0,
               ops: ArrayOps = numpy_ops) -> float:
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
    comm = _check_assignment(graph, communities, ops)
    m = graph.total_weight
    if m <= 0:
        return 0.0
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    a_c = community_degrees(graph, comm, ops=ops)
    intra = intra_community_weight(graph, comm, ops=ops)
    return intra / (2.0 * m) - resolution * float(
        ops.sum(ops.square(a_c / (2.0 * m)))
    )


def vertex_to_community_weight(graph: CSRGraph, v: int, communities,
                               target: int, *, ops: ArrayOps = numpy_ops
                               ) -> float:
    """``e_{v→target}`` — total weight from ``v`` into community ``target``.

    Includes the self-loop when ``target`` is ``v``'s own community.
    """
    comm = _check_assignment(graph, communities, ops)
    nbrs, w = graph.neighbors(v)
    nbr_comm = ops.take(comm, ops.asarray(nbrs))
    return float(ops.sum(ops.asarray(w)[nbr_comm == target]))
