"""Speculative (iterative conflict-resolution) coloring.

The colorer the paper actually uses — Catalyurek, Feo, Gebremedhin,
Halappanavar, Pothen [12] — is of the Gebremedhin–Manne *speculative*
family, which differs from Jones–Plassmann: instead of waiting for local
priority maxima, **every** uncolored vertex tentatively takes the smallest
color not used in its neighborhood (reading a possibly stale snapshot);
conflicts (adjacent vertices that picked the same color in the same round)
are then detected and one endpoint of each conflict is sent back for
recoloring.  On real graphs only a tiny fraction of vertices conflict, so
the schedule approaches one parallel pass over the edges.

This module implements that scheme with Jacobi (snapshot) semantics and a
seeded random priority for conflict victims, so the outcome is
deterministic given the seed.  Both this and the Jones–Plassmann colorer
are available to the pipeline (``LouvainConfig.colorer``); they produce
different — but both valid — color partitions.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.jones_plassmann import smallest_free_colors
from repro.graph.csr import CSRGraph, gather_rows
from repro.utils.rng import as_rng

__all__ = ["speculative_coloring"]


def speculative_coloring(
    graph: CSRGraph,
    *,
    seed=None,
    work_log: list | None = None,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Color ``graph`` by speculate-then-resolve rounds ([12]-style).

    Parameters
    ----------
    seed:
        Seed for the conflict-victim priorities.
    work_log:
        Optional list receiving one ``(vertices_colored, edges_scanned)``
        tuple per round, for the cost model.
    max_rounds:
        Safety cap (each round strictly shrinks the conflict set, so the
        cap never fires on valid inputs).

    Returns
    -------
    ``(n,)`` color array, colors in ``0..C-1``.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = as_rng(seed)
    priority = rng.permutation(n).astype(np.int64)

    indices = graph.indices
    pending = np.arange(n, dtype=np.int64)
    for _ in range(max_rounds):
        if pending.size == 0:
            break
        # --- speculation: every pending vertex picks its mex color from
        # the colors as they stand before the round (stale reads allowed —
        # that's the speculation).
        positions, owner = gather_rows(graph, pending)
        src = pending[owner]
        dst = indices[positions]
        non_loop = dst != src
        src, dst, owner = src[non_loop], dst[non_loop], owner[non_loop]
        seen = colors[dst]
        used = seen >= 0
        colors[pending] = smallest_free_colors(owner[used], seen[used],
                                               pending.size)
        if work_log is not None:
            work_log.append((int(pending.size), int(positions.size)))
        # --- conflict detection over the pending rows: a vertex outside
        # the round kept a color every pending neighbor saw and avoided,
        # so clashes join two vertices that were both just colored.
        clash = colors[src] == colors[dst]
        if not clash.any():
            break
        # The lower-priority endpoint of each clashing edge recolors.
        a = src[clash]
        b = dst[clash]
        loser = np.where(priority[a] < priority[b], a, b)
        pending = np.unique(loser)
        colors[pending] = -1
    return colors
