"""The VF merge against the general rebuild it replaces.

:func:`repro.core.vf.merge_pendants` builds a VF round's merged graph in
one streaming pass; ``coarsen(graph, rep)`` is its oracle.  Every
comparison is bit for bit: index arrays by value and dtype, weights by
their bytes (non-integer weights expose any change in the order of the
loop sums).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.vf import (
    _pair_off,
    _representatives,
    chain_compress,
    merge_pendants,
    single_neighbor_vertices,
    vf_merge,
)
from repro.datasets.catalog import dataset_names, load_dataset
from repro.graph.coarsen import coarsen
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition, rmat, star_graph
from tests.properties.strategies import graphs

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_merge_matches_coarsen(graph, rep):
    merged, vertex_to_meta = merge_pendants(graph, rep)
    want = coarsen(graph, rep)
    assert vertex_to_meta.dtype == want.vertex_to_meta.dtype
    np.testing.assert_array_equal(vertex_to_meta, want.vertex_to_meta)
    for name in ("indptr", "indices"):
        got, ref = getattr(merged, name), getattr(want.graph, name)
        assert got.dtype == ref.dtype == np.int64
        np.testing.assert_array_equal(got, ref)
    got, ref = merged.weights, want.graph.weights
    assert got.dtype == ref.dtype
    bits = np.int64 if got.dtype == np.float64 else np.int32
    np.testing.assert_array_equal(got.view(bits), ref.view(bits))


def chain_round(graph, two_m):
    """One ``chain_compress`` round's merge map (``None``: no merge)."""
    ids, neighbor, w_ij = single_neighbor_vertices(graph)
    if ids.size:
        k = graph.degrees
        safe = two_m > k[ids] * k[neighbor] / w_ij
        ids, neighbor = ids[safe], neighbor[safe]
    if ids.size == 0:
        return None
    rep, merged = _pair_off(graph.num_vertices, ids, neighbor)
    return rep if merged else None


def assert_vf_and_chain_match(graph, max_rounds=8):
    """The strict VF round and every chain round, each against coarsen."""
    rep, merged = _representatives(graph)
    if merged:
        assert_merge_matches_coarsen(graph, rep)
    current = graph
    two_m = 2.0 * graph.total_weight
    for _ in range(max_rounds):
        rep = chain_round(current, two_m)
        if rep is None:
            break
        assert_merge_matches_coarsen(current, rep)
        current = coarsen(current, rep).graph


def reweighted(graph, seed, dtype=np.float64):
    """``graph`` with non-integer weights uniform in [0.05, 5)."""
    u, v, _ = graph.edge_arrays()
    weights = np.random.default_rng(seed).uniform(0.05, 5.0, u.size)
    built = CSRGraph.from_edges(graph.num_vertices, np.stack([u, v], 1),
                                weights)
    return CSRGraph(built.indptr, built.indices, built.weights.astype(dtype))


@st.composite
def pendant_graphs(draw):
    """A random core graph (loops allowed) with pendant vertices hung on
    it, some with their own loop, isolated edges and isolated vertices,
    under float64 or float32 non-integer weights."""
    core = draw(graphs(min_vertices=1, max_vertices=16, max_extra_edges=30))
    u, v, w = core.edge_arrays()
    edges = list(zip(u.tolist(), v.tolist()))
    weights = w.tolist()
    n = core.num_vertices
    weight = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
    for _ in range(draw(st.integers(0, 12))):
        host = draw(st.integers(0, n - 1))
        edges.append((host, n))
        weights.append(draw(weight))
        if draw(st.booleans()):
            edges.append((n, n))
            weights.append(draw(weight))
        n += 1
    for _ in range(draw(st.integers(0, 3))):
        edges.append((n, n + 1))
        weights.append(draw(weight))
        n += 2
    n += draw(st.integers(0, 2))
    graph = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64),
                                np.asarray(weights))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return CSRGraph(graph.indptr, graph.indices, graph.weights.astype(dtype))


def oracle_single_neighbor(graph):
    """``single_neighbor_vertices`` as a per-vertex scan of every row."""
    ids, nbrs, w_out = [], [], []
    for v in range(graph.num_vertices):
        row, w = graph.neighbors(v)
        non_loop = row != v
        if int(non_loop.sum()) == 1 and row.size - 1 <= 1:
            ids.append(v)
            nbrs.append(int(row[non_loop][0]))
            w_out.append(float(w[non_loop][0]))
    return (np.asarray(ids, dtype=np.int64), np.asarray(nbrs, dtype=np.int64),
            np.asarray(w_out, dtype=np.float64))


class TestDifferential:
    @SETTINGS
    @given(graph=pendant_graphs())
    def test_single_neighbor_vertices(self, graph):
        for got, want in zip(single_neighbor_vertices(graph),
                             oracle_single_neighbor(graph)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @SETTINGS
    @given(graph=pendant_graphs())
    def test_vf_and_chain_rounds_match_coarsen(self, graph):
        assert_vf_and_chain_match(graph)

    @SETTINGS
    @given(graph=pendant_graphs())
    def test_vf_merge_and_chain_compress_results(self, graph):
        """The public entry points: the same graph and map as the
        rebuild-based rounds, composed across rounds."""
        rep, merged = _representatives(graph)
        result = vf_merge(graph)
        if merged:
            want = coarsen(graph, rep)
            assert result.graph == want.graph
            np.testing.assert_array_equal(result.vertex_to_meta,
                                          want.vertex_to_meta)
        current, mapping = graph, np.arange(graph.num_vertices)
        two_m = 2.0 * graph.total_weight
        while (rep := chain_round(current, two_m)) is not None:
            step = coarsen(current, rep)
            current, mapping = step.graph, step.vertex_to_meta[mapping]
        chained = chain_compress(graph)
        assert chained.graph == current
        assert chained.graph.weights.tobytes() == current.weights.tobytes()
        np.testing.assert_array_equal(chained.vertex_to_meta, mapping)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_hub_loop_sums_many_pendants(self, dtype):
        """A hub absorbing hundreds of pendants: one long loop sum."""
        graph = reweighted(star_graph(600), seed=4, dtype=dtype)
        assert_vf_and_chain_match(graph)

    def test_isolated_edges_and_loops(self):
        graph = CSRGraph.from_edges(
            7, np.array([(0, 1), (2, 3), (3, 3), (4, 5), (4, 4), (5, 5),
                         (5, 6)]),
            [0.3, 1.7, 0.45, 2.2, 0.9, 1.1, 0.65])
        assert_vf_and_chain_match(graph)


@pytest.mark.parametrize("name", dataset_names())
@pytest.mark.parametrize("weighted", [False, True])
def test_dataset_stand_ins(name, weighted):
    graph = load_dataset(name, scale=0.5, seed=2)
    if weighted:
        graph = reweighted(graph, seed=7)
    assert_vf_and_chain_match(graph)


@pytest.fixture(scope="module")
def benchmark_graphs():
    """The graphs of both benchmark workloads (planted-lib, and
    skewed-serve's three), at the benchmark's sizes."""
    return {
        "planted-lib": planted_partition(500, 100, 0.12, 2e-5, seed=1),
        "rmat": rmat(15, 8, seed=1),
        "friendster": load_dataset("friendster", scale=4, seed=1),
        "uk-2002": load_dataset("uk-2002", scale=4, seed=1),
    }


@pytest.mark.parametrize("name", ["planted-lib", "rmat", "friendster",
                                  "uk-2002"])
def test_benchmark_graphs(benchmark_graphs, name):
    assert_vf_and_chain_match(benchmark_graphs[name], max_rounds=3)


def test_peak_memory_within_coarsen(benchmark_graphs):
    """The merge's transient allocations stay below the rebuild's."""
    import tracemalloc

    graph = benchmark_graphs["planted-lib"]
    rep, merged = _representatives(graph)
    assert merged
    graph.num_self_loops  # lazy state both paths share, built up front
    peaks = []
    for build in (lambda: coarsen(graph, rep),
                  lambda: merge_pendants(graph, rep)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
