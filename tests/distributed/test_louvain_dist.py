"""Tests of the distributed pipeline — headlined by the bitwise-identity
property against the shared-memory driver (§5.4/§5.5's architecture-
agnosticism claim)."""

import numpy as np
import pytest

from repro.core.driver import louvain
from repro.core.modularity import modularity
from repro.distributed import distributed_louvain
from repro.distributed.cluster import NetworkModel
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition
from repro.utils.errors import ValidationError


def cutoff(graph):
    return max(32, graph.num_vertices // 16)


class TestIdentityWithSharedMemory:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 7])
    def test_baseline_identical(self, planted, num_ranks):
        shared = louvain(planted, variant="baseline")
        dist = distributed_louvain(planted, num_ranks)
        np.testing.assert_array_equal(dist.communities, shared.communities)
        assert dist.modularity == pytest.approx(shared.modularity)

    @pytest.mark.parametrize("num_ranks", [2, 5])
    def test_full_pipeline_identical(self, planted, num_ranks):
        shared = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=cutoff(planted))
        dist = distributed_louvain(
            planted, num_ranks, use_vf=True, use_coloring=True,
            coloring_min_vertices=cutoff(planted),
        )
        np.testing.assert_array_equal(dist.communities, shared.communities)

    def test_partition_scheme_does_not_change_output(self, planted):
        a = distributed_louvain(planted, 4, partition_scheme="block")
        b = distributed_louvain(planted, 4, partition_scheme="edge_balanced")
        np.testing.assert_array_equal(a.communities, b.communities)

    def test_iteration_histories_match(self, planted):
        # Both pipelines run each phase through run_phase, so the
        # trajectories and the phase records agree to the bit.
        shared = louvain(planted, use_coloring=True, coloring_min_vertices=32)
        dist = distributed_louvain(planted, 3, use_coloring=True,
                                   coloring_min_vertices=32)
        np.testing.assert_array_equal(
            dist.history.modularity_trajectory(),
            shared.history.modularity_trajectory(),
        )
        assert dist.history.phases == shared.history.phases

    def test_resolution_respected(self, planted):
        shared = louvain(planted, variant="baseline", resolution=2.0)
        dist = distributed_louvain(planted, 3, resolution=2.0)
        np.testing.assert_array_equal(dist.communities, shared.communities)


class TestTrafficAccounting:
    def test_single_rank_communication_free(self, planted):
        dist = distributed_louvain(planted, 1)
        assert dist.traffic.total_bytes == 0
        assert dist.communication_time() == 0.0

    def test_traffic_grows_with_ranks(self, planted):
        volumes = [
            distributed_louvain(planted, p).traffic.total_bytes
            for p in (2, 4, 8)
        ]
        assert volumes[0] < volumes[1] < volumes[2]

    def test_halo_bounded_by_boundary(self, planted):
        """Halo traffic only carries changed boundary labels: it must be
        bounded by iterations * boundary size * pair payload."""
        dist = distributed_louvain(planted, 2)
        from repro.distributed.partition import partition_vertices

        part = partition_vertices(planted, 2)
        boundary = sum(
            part.boundary_to[r][s].size for r in range(2) for s in range(2)
        )
        per_iter_cap = boundary * 2 * 8  # (id, label) int64 pairs
        iters = dist.history.total_iterations
        assert dist.traffic.bytes_by_op.get("halo", 0.0) <= per_iter_cap * iters

    def test_communication_time_model(self, planted):
        dist = distributed_louvain(planted, 4)
        fast = NetworkModel(alpha=1e-9, beta=1e-12)
        slow = NetworkModel(alpha=1e-4, beta=1e-8)
        assert dist.communication_time(slow) > dist.communication_time(fast)

    #: (ranks, aggregation) -> (bytes_by_op, messages_by_op, supersteps)
    #: of ``distributed_louvain(planted, ranks, aggregation=...)``.
    PINNED_TRAFFIC = {
        (2, "dense"): (
            {"allgatherv": 1064.0, "allreduce": 43584.0, "barrier": 0.0,
             "halo": 4176.0},
            {"allgatherv": 6, "allreduce": 240, "barrier": 30, "halo": 21},
            15),
        (2, "sparse"): (
            {"allgatherv": 1064.0, "allreduce": 480.0, "barrier": 0.0,
             "halo": 4176.0, "sparse_allreduce": 34560.0},
            {"allgatherv": 6, "allreduce": 120, "barrier": 30, "halo": 21,
             "sparse_allreduce": 48},
            15),
        (3, "dense"): (
            {"allgatherv": 2128.0, "allreduce": 87168.0, "barrier": 0.0,
             "halo": 7328.0},
            {"allgatherv": 18, "allreduce": 720, "barrier": 45, "halo": 64},
            15),
        (3, "sparse"): (
            {"allgatherv": 2128.0, "allreduce": 960.0, "barrier": 0.0,
             "halo": 7328.0, "sparse_allreduce": 69120.0},
            {"allgatherv": 18, "allreduce": 360, "barrier": 45, "halo": 64,
             "sparse_allreduce": 144},
            15),
    }

    @pytest.mark.parametrize("key", sorted(PINNED_TRAFFIC))
    def test_traffic_pinned(self, planted, key):
        num_ranks, aggregation = key
        log = distributed_louvain(planted, num_ranks,
                                  aggregation=aggregation).traffic
        assert (log.bytes_by_op, log.messages_by_op, log.supersteps) \
            == self.PINNED_TRAFFIC[key]

    def test_partition_stats_recorded(self, planted):
        dist = distributed_louvain(planted, 4)
        assert len(dist.partition_stats) == dist.history.num_phases
        cut, repl = dist.partition_stats[0]
        assert cut > 0
        assert repl >= 1.0


class TestSparseAggregation:
    def test_identical_results(self, planted):
        dense = distributed_louvain(planted, 4, aggregation="dense")
        sparse = distributed_louvain(planted, 4, aggregation="sparse")
        np.testing.assert_array_equal(dense.communities, sparse.communities)

    def test_sparse_cheaper_on_converging_runs(self, planted):
        """Late iterations move few vertices, so pair shipping beats the
        dense vector allreduce."""
        dense = distributed_louvain(planted, 4, aggregation="dense")
        sparse = distributed_louvain(planted, 4, aggregation="sparse")
        dense_agg = dense.traffic.bytes_by_op.get("allreduce", 0.0)
        sparse_agg = sparse.traffic.bytes_by_op.get("sparse_allreduce", 0.0)
        # Exclude the scalar moved-count allreduce both schemes share.
        assert sparse_agg < dense_agg

    def test_unknown_aggregation_rejected(self, planted):
        with pytest.raises(ValidationError):
            distributed_louvain(planted, 2, aggregation="rle")


class TestEdgeCases:
    def test_empty_graph(self):
        dist = distributed_louvain(CSRGraph.empty(0), 4)
        assert dist.communities.shape == (0,)

    def test_edgeless_graph(self):
        dist = distributed_louvain(CSRGraph.empty(6), 3)
        assert dist.num_communities == 6

    def test_more_ranks_than_vertices(self):
        g = planted_partition(2, 4, 0.9, 0.1, seed=0)
        shared = louvain(g, variant="baseline")
        dist = distributed_louvain(g, 32)
        np.testing.assert_array_equal(dist.communities, shared.communities)

    def test_validation(self, planted):
        with pytest.raises(ValidationError):
            distributed_louvain(planted, 0)
