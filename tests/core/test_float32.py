"""Float32 graphs through the full pipeline (scratch follows weight dtype).

The kernels accumulate in the graph's weight dtype: float64 inputs are
bit-unchanged relative to the pre-dispatch kernels (covered everywhere
else), float32 inputs halve accumulator traffic at a bounded accuracy
cost — these tests pin the dtype plumbing and the accuracy contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LouvainConfig, louvain, modularity
from repro.core.modularity import communities_are_valid
from repro.core.sweep import compute_targets_vectorized, init_state
from repro.core.workspace import SweepWorkspace
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition, two_cliques_bridge


def as_float32(g: CSRGraph) -> CSRGraph:
    return CSRGraph(g.indptr, g.indices, g.weights.astype(np.float32),
                    validate=False)


class TestFloat32Plumbing:
    def test_weights_dtype_is_preserved(self):
        g32 = as_float32(two_cliques_bridge(4))
        assert g32.weights.dtype == np.float32
        assert g32.degrees.dtype == np.float32
        assert g32.self_loop_weights().dtype == np.float32

    def test_non_float_weights_coerced_to_float64(self):
        g = two_cliques_bridge(3)
        coerced = CSRGraph(g.indptr, g.indices,
                           g.weights.astype(np.int64), validate=False)
        assert coerced.weights.dtype == np.float64

    def test_workspace_rows_follow_weight_dtype(self):
        """The loop-free row view and the plans cut from it keep float32
        weights, with or without self-loops to strip."""
        g32 = as_float32(two_cliques_bridge(4))
        looped = as_float32(CSRGraph.from_edges(
            3, np.array([(0, 0), (0, 1), (1, 2)]), [1.0, 2.0, 3.0]))
        for graph in (g32, looped):
            ws = SweepWorkspace(graph)
            assert ws.rows.dtype == np.float32
            plan = ws.plan(np.arange(graph.num_vertices, dtype=np.int64))
            assert plan.block.dtype == np.float32

    def test_kernel_accepts_float32_state(self):
        g32 = as_float32(planted_partition(3, 6, 0.6, 0.1, seed=2))
        state = init_state(g32)
        # comm_degree stays float64 (np.bincount accumulates float64);
        # the kernel mixes dtypes without upcasting the weight scratch.
        assert state.comm_degree.dtype == np.float64
        vertices = np.arange(g32.num_vertices, dtype=np.int64)
        targets = compute_targets_vectorized(
            g32, state, vertices, workspace=SweepWorkspace(g32)
        )
        assert targets.dtype == np.int64
        assert targets.shape == vertices.shape


class TestFloat32Equivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_modularity_within_tolerance_of_float64(self, seed):
        g64 = planted_partition(4, 12, 0.5, 0.03, seed=seed)
        g32 = as_float32(g64)
        r64 = louvain(g64, LouvainConfig())
        r32 = louvain(g32, LouvainConfig())
        assert communities_are_valid(g32, r32.communities)
        # Same partitions up to float32 rounding of the gain comparisons;
        # the achieved quality must agree to ~single precision.
        assert r32.modularity == pytest.approx(r64.modularity, abs=1e-4)

    def test_small_integer_weights_are_exact(self):
        # Unit/small-integer weights and their sums are exactly
        # representable in float32, so the full trajectory matches the
        # float64 run bit for bit.
        g64 = two_cliques_bridge(5)
        g32 = as_float32(g64)
        r64 = louvain(g64, LouvainConfig())
        r32 = louvain(g32, LouvainConfig())
        assert np.array_equal(r32.communities, r64.communities)
        assert r32.modularity == r64.modularity

    def test_reported_modularity_is_recounted_exactly(self):
        g32 = as_float32(planted_partition(3, 8, 0.6, 0.05, seed=9))
        r32 = louvain(g32, LouvainConfig())
        assert r32.modularity == pytest.approx(
            modularity(g32, r32.communities), abs=1e-12
        )
