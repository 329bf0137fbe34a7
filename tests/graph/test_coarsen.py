"""Unit tests for the between-phase graph rebuild (paper §5.5).

``coarsen`` groups the fine entries by (src community, dst community)
with two stable counting transposes, then gives both entries of a pair
the larger of their two sums.  The stable ``argsort`` over the key
``src_c * k + dst_c`` that it replaced is kept here as an oracle, with
the pair's other entry found by key lookup: the coarse graphs must be
equal byte for byte, weights included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.modularity import community_degrees, modularity
from repro.graph.build import from_edge_array
from repro.graph.coarsen import coarsen, project_assignment
from repro.graph.csr import CSRGraph
from repro.graph.generators import karate_club, two_cliques_bridge
from repro.utils.arrays import renumber_labels, run_boundaries
from repro.utils.errors import ValidationError


def argsort_coarse_graph(graph: CSRGraph, communities) -> CSRGraph:
    """The coarse graph by one stable argsort of the pair keys."""
    dense, k = renumber_labels(np.asarray(communities))
    if graph.num_vertices == 0:
        return CSRGraph.empty(0)
    key = np.take(dense, graph.row_of_entry()) * k + np.take(dense,
                                                             graph.indices)
    order = np.argsort(key, kind="stable")
    key_sorted = np.take(key, order)
    w_sorted = np.take(graph.weights, order)
    starts = run_boundaries(key_sorted)
    agg_w = (np.add.reduceat(w_sorted, starts) if starts.size
             else np.zeros(0, dtype=np.float64))
    agg_key = np.take(key_sorted, starts) if starts.size else key_sorted
    # Both entries of a pair take the larger of their two sums.
    rows, cols = agg_key // k, agg_key % k
    agg_w = np.maximum(agg_w, agg_w[np.searchsorted(agg_key, cols * k + rows)])
    counts = np.bincount(agg_key // k, minlength=k)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, agg_key % k, agg_w, validate=False)


def graph_bytes(graph: CSRGraph) -> tuple:
    return tuple((a.dtype.str, a.tobytes())
                 for a in (graph.indptr, graph.indices, graph.weights))


@st.composite
def graphs_and_labels(draw):
    n = draw(st.integers(0, 40))
    num_edges = draw(st.integers(0, 4 * n)) if n else 0
    src = np.asarray(draw(st.lists(st.integers(0, max(n - 1, 0)),
                                   min_size=num_edges, max_size=num_edges)),
                     dtype=np.int64)
    dst = np.asarray(draw(st.lists(st.integers(0, max(n - 1, 0)),
                                   min_size=num_edges, max_size=num_edges)),
                     dtype=np.int64)
    weights = draw(st.sampled_from(["unit", "drawn", "uniform"]))
    w = None
    if weights == "drawn":
        w = np.asarray(draw(st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=num_edges, max_size=num_edges)), dtype=np.float64)
    elif weights == "uniform":
        # Arbitrary floats, whose sums round differently in different
        # orders (hypothesis's draws favour exactly representable ones).
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w = rng.uniform(1e-3, 1e3, num_edges)
    graph = from_edge_array(n, np.stack([src, dst], axis=1).reshape(-1, 2),
                            w, combine="sum")
    shape = draw(st.sampled_from(["random", "few", "one", "singletons"]))
    if shape == "few":
        # Large communities: every coarse weight sums many fine entries.
        labels = np.asarray(draw(st.lists(st.integers(0, 2), min_size=n,
                                          max_size=n)), dtype=np.int64)
    elif shape == "one":
        labels = np.full(n, 7, dtype=np.int64)
    elif shape == "singletons":
        labels = np.arange(n, dtype=np.int64) * 3 - 5
    else:
        labels = np.asarray(draw(st.lists(st.integers(-50, 50), min_size=n,
                                          max_size=n)), dtype=np.int64)
    return graph, labels


class TestCoarsenDifferential:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_labels())
    def test_matches_argsort_oracle(self, case):
        graph, labels = case
        coarse = coarsen(graph, labels).graph
        assert graph_bytes(coarse) == graph_bytes(
            argsort_coarse_graph(graph, labels))
        # Exactly symmetric, weights included, as a checkpoint's coarse
        # graph must be to load.
        CSRGraph(coarse.indptr, coarse.indices, coarse.weights,
                 validate=True)

    @pytest.mark.parametrize("groups", [1, 5, 34])
    def test_karate_bytes(self, karate, groups):
        labels = (np.arange(34) * 7 % groups).astype(np.int64) * 10
        assert graph_bytes(coarsen(karate, labels).graph) == graph_bytes(
            argsort_coarse_graph(karate, labels))

    def test_float32_weights_keep_their_dtype(self, karate):
        fine = CSRGraph(karate.indptr, karate.indices,
                        (karate.weights * 0.1).astype(np.float32))
        labels = np.arange(34) % 4
        coarse = coarsen(fine, labels).graph
        assert coarse.weights.dtype == np.float32
        assert graph_bytes(coarse) == graph_bytes(
            argsort_coarse_graph(fine, labels))


class TestCoarsenStructure:
    def test_two_cliques_collapse(self, cliques8):
        comm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        result = coarsen(cliques8, comm)
        g = result.graph
        assert g.num_vertices == 2
        # One inter-community bridge edge of weight 1.
        assert g.edge_weight(0, 1) == 1.0
        # Intra weight appears as self-loops; degree convention makes the
        # self-loop weight equal the sum over directed intra entries (12).
        assert g.self_loop_weight(0) == 12.0
        assert result.num_communities == 2

    def test_label_renumbering_preserves_order(self):
        g = CSRGraph.from_edges(4, [(0, 1), (2, 3)])
        # Labels 7 and 3 — non-dense, out of order.
        result = coarsen(g, np.array([7, 7, 3, 3]))
        # Label 3 < 7, so community {2,3} becomes meta-vertex 0.
        assert result.vertex_to_meta.tolist() == [1, 1, 0, 0]

    def test_all_singletons_identity(self, karate):
        result = coarsen(karate, np.arange(34))
        assert result.graph == karate
        assert result.lock_ops == 2 * 78  # every edge inter-community

    def test_all_one_community(self, karate):
        result = coarsen(karate, np.zeros(34, dtype=np.int64))
        g = result.graph
        assert g.num_vertices == 1
        assert g.self_loop_weight(0) == 2 * 78
        assert result.lock_ops == 78  # every edge intra: one lock each

    def test_degree_preservation(self, karate):
        """Coarse vertex degrees equal fine community degrees a_C."""
        comm = (np.arange(34) % 5).astype(np.int64)
        result = coarsen(karate, comm)
        a_fine = community_degrees(karate, comm, 5)
        np.testing.assert_allclose(result.graph.degrees, a_fine)

    def test_total_weight_preserved(self, karate):
        comm = (np.arange(34) % 7).astype(np.int64)
        assert coarsen(karate, comm).graph.total_weight == pytest.approx(
            karate.total_weight
        )

    def test_modularity_invariance(self, karate):
        """Q of a coarse partition == Q of the induced fine partition."""
        comm = (np.arange(34) % 6).astype(np.int64)
        result = coarsen(karate, comm)
        # Partition the 6 meta-vertices into 2 groups.
        meta_assign = np.array([0, 0, 0, 1, 1, 1])
        fine = project_assignment(result.vertex_to_meta, meta_assign)
        assert modularity(result.graph, meta_assign) == pytest.approx(
            modularity(karate, fine), abs=1e-12
        )

    def test_self_loops_in_fine_graph(self, loops_graph):
        comm = np.array([0, 0, 1])
        result = coarsen(loops_graph, comm)
        g = result.graph
        # Community 0 = {0, 1}: intra entries are loop(0,0)=2 once and edge
        # (0,1)=3 twice -> self-loop 8; community 1 = {2}: loop 5.
        assert g.self_loop_weight(0) == 2.0 + 2 * 3.0
        assert g.self_loop_weight(1) == 5.0
        assert g.edge_weight(0, 1) == 1.0
        assert g.total_weight == pytest.approx(loops_graph.total_weight)

    def test_lock_accounting(self, cliques8):
        comm = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        result = coarsen(cliques8, comm)
        # 12 intra edges (1 lock each) + 1 inter edge (2 locks).
        assert result.lock_ops == 12 + 2

    def test_empty_graph(self):
        result = coarsen(CSRGraph.empty(0), np.zeros(0, dtype=np.int64))
        assert result.num_communities == 0
        assert result.graph.num_vertices == 0

    def test_validation(self, karate):
        with pytest.raises(ValidationError):
            coarsen(karate, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValidationError):
            coarsen(karate, np.zeros(34, dtype=np.float64))


class TestProjectAssignment:
    def test_composition(self):
        v2m = np.array([0, 0, 1, 2])
        meta = np.array([5, 5, 9])
        assert project_assignment(v2m, meta).tolist() == [5, 5, 5, 9]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            project_assignment(np.array([0, 3]), np.array([1, 2]))
