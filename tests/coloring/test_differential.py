"""Differential tests: the vectorized colorers against per-vertex loops.

The oracles below are the straightforward formulations of both colorers —
a full edge scan per round and a Python ``set``/mex loop per vertex.  The
library versions must reproduce their colors *and* their ``work_log``
bit for bit, since the cost model charges coloring time from that log.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.jones_plassmann import (
    jones_plassmann_coloring,
    smallest_free_colors,
)
from repro.coloring.speculative import speculative_coloring
from repro.coloring.validate import is_valid_coloring
from repro.datasets.catalog import load_dataset
from repro.graph.csr import CSRGraph
from repro.utils.rng import as_rng

SEEDS = (0, 1, 7, 12345)


def _mex(nbr_colors: np.ndarray) -> int:
    used = set(nbr_colors[nbr_colors >= 0].tolist())
    c = 0
    while c in used:
        c += 1
    return c


def jones_plassmann_oracle(graph: CSRGraph, seed, work_log: list):
    """Per-round JP: rescan every live edge, color candidates one by one."""
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    priority = as_rng(seed).permutation(n).astype(np.int64)
    indptr, indices = graph.indptr, graph.indices
    row_of = graph.row_of_entry()
    non_loop = indices != row_of
    src_all = row_of[non_loop]
    dst_all = indices[non_loop]
    uncolored = colors < 0
    while uncolored.any():
        live_edge = uncolored[src_all] & uncolored[dst_all]
        src = src_all[live_edge]
        dst = dst_all[live_edge]
        max_nbr = np.full(n, -1, dtype=np.int64)
        if src.size:
            np.maximum.at(max_nbr, src, priority[dst])
        candidates = np.flatnonzero(uncolored & (priority > max_nbr))
        work_log.append((int(candidates.size), int(src.size)))
        for v in candidates.tolist():
            colors[v] = _mex(colors[indices[indptr[v]:indptr[v + 1]]])
        uncolored = colors < 0
    return colors


def speculative_oracle(graph: CSRGraph, seed, work_log: list):
    """Speculate from a snapshot vertex by vertex, resolve over all edges."""
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    priority = as_rng(seed).permutation(n).astype(np.int64)
    indptr, indices = graph.indptr, graph.indices
    row_of = graph.row_of_entry()
    non_loop = indices != row_of
    src_all = row_of[non_loop]
    dst_all = indices[non_loop]
    pending = np.arange(n, dtype=np.int64)
    while pending.size:
        snapshot = colors.copy()
        edges_scanned = 0
        for v in pending.tolist():
            nbrs = indices[indptr[v]:indptr[v + 1]]
            edges_scanned += nbrs.size
            colors[v] = _mex(snapshot[nbrs[nbrs != v]])
        work_log.append((int(pending.size), int(edges_scanned)))
        in_pending = np.zeros(n, dtype=bool)
        in_pending[pending] = True
        live = in_pending[src_all] | in_pending[dst_all]
        src = src_all[live]
        dst = dst_all[live]
        clash = colors[src] == colors[dst]
        if not clash.any():
            break
        a = src[clash]
        b = dst[clash]
        pending = np.unique(np.where(priority[a] < priority[b], a, b))
        colors[pending] = -1
    return colors


PAIRS = [
    (jones_plassmann_coloring, jones_plassmann_oracle),
    (speculative_coloring, speculative_oracle),
]
PAIR_IDS = ["jones_plassmann", "speculative"]


def assert_matches_oracle(graph, colorer, oracle, seeds=SEEDS):
    for seed in seeds:
        expected_log: list = []
        expected = oracle(graph, seed, expected_log)
        log: list = []
        colors = colorer(graph, seed=seed, work_log=log)
        np.testing.assert_array_equal(colors, expected)
        assert log == expected_log
        assert is_valid_coloring(graph, colors)


@st.composite
def multigraph_inputs(draw, max_vertices: int = 200, max_edges: int = 400):
    """Graphs built by ``from_edges`` from raw pair lists: duplicate pairs
    (merged by ``combine="sum"``), self-loops, isolated vertices and —
    by keeping only pairs within the same residue class — several
    components."""
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return CSRGraph.empty(0)
    components = draw(st.integers(1, 4))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges,
    ))
    pairs = [(u, v) for u, v in pairs if u % components == v % components]
    if not pairs:
        return CSRGraph.empty(n)
    return CSRGraph.from_edges(n, np.asarray(pairs, dtype=np.int64),
                               combine="sum")


class TestSmallestFreeColors:
    def test_examples(self):
        owner = np.array([0, 0, 0, 1, 1, 3, 3, 3], dtype=np.int64)
        used = np.array([1, 0, 1, 1, 2, 0, 2, 1], dtype=np.int64)
        np.testing.assert_array_equal(
            smallest_free_colors(owner, used, 5), [2, 0, 0, 3, 0]
        )

    def test_no_used_colors(self):
        empty = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(smallest_free_colors(empty, empty, 3),
                                      [0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 12)),
                    max_size=80))
    def test_matches_set_loop(self, entries):
        owner = np.asarray([o for o, _ in entries], dtype=np.int64)
        used = np.asarray([c for _, c in entries], dtype=np.int64)
        got = smallest_free_colors(owner, used, 10)
        for o in range(10):
            assert got[o] == _mex(used[owner == o])


@pytest.mark.parametrize("colorer, oracle", PAIRS, ids=PAIR_IDS)
class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(graph=multigraph_inputs())
    def test_random_graphs(self, colorer, oracle, graph):
        assert_matches_oracle(graph, colorer, oracle)

    def test_empty_graph(self, colorer, oracle):
        log: list = []
        assert colorer(CSRGraph.empty(0), seed=0, work_log=log).shape == (0,)
        assert log == []

    @pytest.mark.parametrize("edges", [[], [(0, 0)]], ids=["bare", "loop"])
    def test_single_vertex(self, colorer, oracle, edges):
        graph = (CSRGraph.from_edges(1, edges) if edges
                 else CSRGraph.empty(1))
        assert_matches_oracle(graph, colorer, oracle)

    def test_isolated_loops_and_components(self, colorer, oracle):
        # Two triangles, a path with a self-loop, and isolated vertices.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                 (6, 7), (7, 8), (8, 8)]
        graph = CSRGraph.from_edges(12, edges)
        assert_matches_oracle(graph, colorer, oracle)

    @pytest.mark.parametrize("name", ["uk-2002", "MG1"])
    def test_table1_standins(self, colorer, oracle, name):
        graph = load_dataset(name, scale=0.2, seed=0)
        assert_matches_oracle(graph, colorer, oracle, seeds=(0, 3))
