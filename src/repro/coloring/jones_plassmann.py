"""Jones–Plassmann parallel-semantics coloring.

The paper colors with the multithreaded algorithm of Catalyurek et al.
[12]; Jones–Plassmann is the canonical parallel independent-set colorer
with the same structure (random priorities, rounds of conflict-free
assignment) and serves as its stand-in here.

Each vertex draws a random priority.  In every round, all still-uncolored
vertices whose priority beats every uncolored neighbor's color themselves
simultaneously with the smallest color unused in their neighborhood.  The
number of rounds is O(log n / log log n) in expectation for bounded-degree
graphs, and the outcome depends only on the seed — not on scheduling —
mirroring the deterministic-given-priorities property of the real parallel
colorer.

**Rounds as DAG levels.**  Orient every edge from its higher- to its
lower-priority endpoint.  A vertex becomes a candidate exactly when all of
its higher-priority neighbors are colored, so JP's rounds are the levels of
that DAG, and a candidate's colored neighbors are exactly its
higher-priority neighbors.  The implementation is a countdown: one pass
over the CSR entries counts each vertex's higher-priority neighbors; each
round gathers only the candidates' rows, picks every candidate's smallest
free color at once (:func:`smallest_free_colors`), and decrements the
counts of the candidates' lower-priority neighbors — those reaching zero
are the next round's candidates.  Every entry is touched a constant number
of times in total, so the whole coloring is O(n + E) array work (plus the
per-round sorts of the gathered entries) rather than one full edge scan
per round.

The round structure is also what the simulated-machine cost model charges
for coloring time (Fig. 8's "coloring" share), so :func:`jones_plassmann_coloring`
reports the number of rounds and per-round work via its optional
``work_log``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows
from repro.lint.sanitizer import snapshot_kernel
from repro.utils.arrays import run_boundaries
from repro.utils.rng import as_rng

__all__ = ["jones_plassmann_coloring", "smallest_free_colors"]


def smallest_free_colors(owner: np.ndarray, used: np.ndarray,
                         num_owners: int) -> np.ndarray:
    """Smallest color absent from each owner's used colors (vectorized mex).

    ``owner[e]`` in ``[0, num_owners)`` owns the used color ``used[e] >= 0``;
    the arrays need no particular order.  The distinct ``(owner, color)``
    keys are sorted, and within an owner the ``r``-th smallest distinct
    color is ``>= r``; the two are equal exactly on the prefix ``0..mex-1``,
    so the mex is the number of keys whose color equals its rank.
    """
    if used.size == 0:
        return np.zeros(num_owners, dtype=np.int64)
    span = int(used.max()) + 1
    keys = np.sort(owner * span + used)
    keys = keys[run_boundaries(keys)]
    key_owner = keys // span
    starts = run_boundaries(key_owner)
    run_lengths = np.diff(np.append(starts, keys.size))
    rank = np.arange(keys.size) - np.repeat(starts, run_lengths)
    return np.bincount(key_owner[keys - key_owner * span == rank],
                       minlength=num_owners)


@snapshot_kernel("graph")
def jones_plassmann_coloring(
    graph: CSRGraph,
    *,
    seed=None,
    work_log: list | None = None,
) -> np.ndarray:
    """Color ``graph`` with Jones–Plassmann random-priority rounds.

    Parameters
    ----------
    seed:
        Seed for the random priorities (ties broken by vertex id, so the
        result is fully deterministic given the seed).
    work_log:
        Optional list; when given, one ``(candidates, edges_scanned)``
        tuple is appended per round for the cost model, where
        ``edges_scanned`` counts the non-loop entries whose endpoints are
        both uncolored at the start of the round.

    Returns
    -------
    ``(n,)`` color array, colors in ``0..C-1``.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = as_rng(seed)
    # Random priorities; vertex id breaks ties deterministically.
    priority = rng.permutation(n).astype(np.int64)

    indptr, indices = graph.indptr, graph.indices
    nbr_priority = priority[indices]
    row_priority = np.repeat(priority, np.diff(indptr))
    higher = nbr_priority > row_priority
    lower = nbr_priority < row_priority  # self-loops are neither
    del nbr_priority, row_priority
    # waiting[v] = uncolored higher-priority neighbors of v.
    higher_before = np.concatenate(([0], np.cumsum(higher)))
    waiting = higher_before[indptr[1:]] - higher_before[indptr[:-1]]
    # Non-loop entries with both endpoints uncolored; each higher entry has
    # its mirrored lower entry.
    live = 2 * int(higher_before[-1])

    candidates = np.flatnonzero(waiting == 0)
    while candidates.size:
        if work_log is not None:
            work_log.append((int(candidates.size), live))
        positions, owner = gather_rows(graph, candidates)
        # A candidate's colored neighbors are its higher-priority ones.
        up = higher[positions]
        colors[candidates] = smallest_free_colors(
            owner[up], colors[indices[positions[up]]], candidates.size
        )
        # Candidates are independent, so each entry to a lower-priority
        # neighbor and its mirror leave the live set together.
        released = indices[positions[lower[positions]]]
        live -= 2 * released.size
        np.subtract.at(waiting, released, 1)
        candidates = np.unique(released[waiting[released] == 0])
    return colors
