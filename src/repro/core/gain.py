"""Modularity gain algebra: Eq. 4 (single move) and Eq. 6–9 (concurrent moves).

Single move (Eq. 4).  Moving vertex ``i`` from its community ``C(i)`` to a
different community ``C(j)`` changes Q by exactly

    ΔQ = (e_{i→C(j)} - e_{i→C(i)\\{i}}) / m
         + (2 k_i a_{C(i)\\{i}} - 2 k_i a_{C(j)}) / (2m)^2

where ``e_{i→C(i)\\{i}}`` excludes edges from ``i`` to itself (the self-loop
moves with the vertex and cancels out) and ``a_{C(i)\\{i}} = a_{C(i)} - k_i``.
This formula is an *identity*: for any single move it equals
``Q(after) - Q(before)`` computed from Eq. 3 (property-tested).

Concurrent moves (Eq. 6).  When two vertices ``i`` and ``j`` move into the
same community ``C(k)`` in the same parallel step, the realized gain is

    ΔQ_{ij} = ΔQ_i + ΔQ_j + ω(i,j)/m - 2 k_i k_j / (2m)^2

so two individually-positive decisions can realize a *negative* net gain
when ``(i, j)`` is not an edge (Lemma 1) — the reason parallel Louvain loses
the serial method's monotonicity guarantee (§4.1).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.core.modularity import community_degrees, vertex_to_community_weight
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.errors import ValidationError

__all__ = [
    "concurrent_gain",
    "concurrent_gain_from_parts",
    "delta_q",
    "delta_q_arrays",
    "delta_q_vertex",
]


def delta_q(
    m: float,
    e_to_target: float,
    e_to_current_excl: float,
    k_i: float,
    a_current_excl: float,
    a_target: float,
    *,
    resolution: float = 1.0,
) -> float:
    """Eq. 4 from precomputed parts (γ-generalized; γ=1 is the paper's).

    Parameters
    ----------
    m:
        Total edge weight (half the total degree).
    e_to_target:
        ``e_{i→C(j)}`` — weight from ``i`` into the target community.
    e_to_current_excl:
        ``e_{i→C(i)\\{i}}`` — weight from ``i`` into its own community,
        excluding any self-loop.
    k_i:
        Weighted degree of ``i``.
    a_current_excl:
        ``a_{C(i)} - k_i`` — current community degree without ``i``.
    a_target:
        ``a_{C(j)}`` — target community degree (``i`` not a member).
    resolution:
        Resolution parameter γ scaling the degree-penalty term (see
        :func:`repro.core.modularity.modularity`).
    """
    if m <= 0:
        raise ValidationError("m must be positive")
    two_m = 2.0 * m
    return (e_to_target - e_to_current_excl) / m + resolution * (
        2.0 * k_i * a_current_excl - 2.0 * k_i * a_target
    ) / (two_m * two_m)


@snapshot_kernel
def delta_q_arrays(
    m: float,
    e_to_target: np.ndarray,
    e_to_current_excl: np.ndarray,
    k_i: np.ndarray,
    a_current_excl: np.ndarray,
    a_target: np.ndarray,
    *,
    resolution: float = 1.0,
) -> np.ndarray:
    """Vectorized Eq. 4 over aligned arrays of candidate moves."""
    if m <= 0:
        raise ValidationError("m must be positive")
    two_m_sq = (2.0 * m) ** 2
    return (e_to_target - e_to_current_excl) / m + resolution * (
        2.0 * k_i * (a_current_excl - a_target)
    ) / two_m_sq


def delta_q_vertex(graph: CSRGraph, communities, v: int, target: int,
                   *, resolution: float = 1.0) -> float:
    """Eq. 4 evaluated directly from a graph and an assignment.

    Convenience (O(n + M)) form used in tests and examples; the sweep
    kernels compute the same quantity incrementally.  Moving ``v`` to its
    own community returns 0.
    """
    comm = np.asarray(communities)
    cur = int(comm[v])
    if target == cur:
        return 0.0
    m = graph.total_weight
    k_i = float(graph.degrees[v])
    a = community_degrees(graph, comm, num_labels=max(int(comm.max()), target) + 1)
    e_target = vertex_to_community_weight(graph, v, comm, target)
    e_cur = vertex_to_community_weight(graph, v, comm, cur) - graph.self_loop_weight(v)
    return delta_q(m, e_target, e_cur, k_i, float(a[cur]) - k_i,
                   float(a[target]), resolution=resolution)


def concurrent_gain_from_parts(
    m: float,
    gain_i: float,
    gain_j: float,
    w_ij: float,
    k_i: float,
    k_j: float,
) -> float:
    """Eq. 6: net gain when ``i`` and ``j`` enter the same community together.

    ``w_ij`` is ``ω(i, j)`` (0 when ``(i, j)`` is not an edge), in which case
    the correction term is strictly negative (Eq. 7) — the negative-gain
    scenario of Lemma 1.
    """
    if m <= 0:
        raise ValidationError("m must be positive")
    return gain_i + gain_j + w_ij / m - 2.0 * k_i * k_j / (2.0 * m) ** 2


def concurrent_gain(graph: CSRGraph, communities, i: int, j: int,
                    target: int) -> float:
    """Eq. 6 evaluated from a graph: realized ΔQ of the *joint* move of
    ``i`` and ``j`` into ``target``.

    Both vertices must currently live outside ``target`` and in different
    communities from each other (the Lemma 1 setting).
    """
    comm = np.asarray(communities)
    if comm[i] == target or comm[j] == target:
        raise ValidationError("vertices must start outside the target community")
    if comm[i] == comm[j]:
        raise ValidationError("Lemma 1 concerns vertices from distinct communities")
    gain_i = delta_q_vertex(graph, comm, i, target)
    gain_j = delta_q_vertex(graph, comm, j, target)
    return concurrent_gain_from_parts(
        graph.total_weight,
        gain_i,
        gain_j,
        graph.edge_weight(i, j),
        float(graph.degrees[i]),
        float(graph.degrees[j]),
    )
