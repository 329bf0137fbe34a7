"""Unit tests for the simulated message-passing substrate."""

import numpy as np
import pytest

from repro.distributed.cluster import NetworkModel, SimCluster, TrafficLog
from repro.distributed.louvain_dist import _RankSweeps
from repro.distributed.partition import partition_vertices
from repro.graph.generators import path_graph
from repro.utils.errors import ValidationError


class TestCollectives:
    def test_allreduce_sum(self):
        cluster = SimCluster(3)
        out = cluster.allreduce_sum([
            np.array([1.0, 0.0]), np.array([2.0, 5.0]), np.array([3.0, 1.0]),
        ])
        assert out.tolist() == [6.0, 6.0]
        assert cluster.traffic.bytes_by_op["allreduce"] > 0

    def test_allreduce_single_rank_free(self):
        cluster = SimCluster(1)
        cluster.allreduce_sum([np.array([1.0])])
        assert cluster.traffic.total_bytes == 0

    def test_allreduce_shape_mismatch(self):
        cluster = SimCluster(2)
        with pytest.raises(ValidationError):
            cluster.allreduce_sum([np.zeros(2), np.zeros(3)])

    def test_allreduce_wrong_rank_count(self):
        cluster = SimCluster(2)
        with pytest.raises(ValidationError):
            cluster.allreduce_sum([np.zeros(2)])

    def test_sparse_allreduce_pricing(self):
        cluster = SimCluster(3)
        cluster.sparse_allreduce(4)
        # Every rank receives the other ranks' (index, value) pairs.
        assert cluster.traffic.bytes_by_op["sparse_allreduce"] == 2 * 4 * 16
        assert cluster.traffic.messages_by_op["sparse_allreduce"] == 2 * 3
        cluster.sparse_allreduce(0)
        assert cluster.traffic.messages_by_op["sparse_allreduce"] == 6

    def test_allgatherv(self):
        cluster = SimCluster(2)
        out = cluster.allgatherv([np.array([1, 2]), np.array([3])])
        assert out.tolist() == [1, 2, 3]
        assert cluster.traffic.bytes_by_op["allgatherv"] > 0

    def test_halo_exchange_accounting(self):
        cluster = SimCluster(3)
        delivered = cluster.halo_exchange({
            (0, 1): np.array([5, 7]),
            (1, 2): np.array([9]),
            (2, 2): np.array([1, 1, 1]),  # self-send: free
        })
        assert delivered[(0, 1)].tolist() == [5, 7]
        assert cluster.traffic.messages_by_op["halo"] == 2
        assert cluster.traffic.bytes_by_op["halo"] == 3 * 8

    def test_halo_rank_validation(self):
        cluster = SimCluster(2)
        with pytest.raises(ValidationError):
            cluster.halo_exchange({(0, 5): np.array([1])})

    def test_broadcast(self):
        cluster = SimCluster(4)
        value = np.arange(10)
        out = cluster.broadcast(value)
        np.testing.assert_array_equal(out, value)
        assert cluster.traffic.messages_by_op["broadcast"] == 3

    def test_barrier_counts_supersteps(self):
        cluster = SimCluster(2)
        cluster.barrier()
        cluster.barrier()
        assert cluster.traffic.supersteps == 2

    def test_bad_rank_count(self):
        with pytest.raises(ValidationError):
            SimCluster(0)


class TestSuperstepPricing:
    """One superstep on the path 0-1-2-3 over two ranks, {0, 1} and
    {2, 3}: vertex 1, which rank 1 ghosts, moves to community 2."""

    def price(self, aggregation):
        cluster = SimCluster(2)
        part = partition_vertices(path_graph(4), 2, scheme="block")
        assert part.boundary_to[0][1].tolist() == [1]
        ranks = _RankSweeps(cluster, part, aggregation)
        ranks._charge(np.array([1]), np.array([2]))
        return cluster.traffic

    def test_dense(self):
        log = self.price("dense")
        # Halo: rank 0 sends the pair (1, 2) to rank 1.
        assert (log.bytes_by_op["halo"], log.messages_by_op["halo"]) \
            == (16.0, 1)
        # Ring allreduce of the 4-entry degree and size vectors (2·32 B
        # each: every rank sends 2(p-1)/p of the buffer) and of the
        # moved count (2·8 B), 2(p-1)p = 4 messages each.
        assert log.bytes_by_op["allreduce"] == 64.0 + 64.0 + 16.0
        assert log.messages_by_op["allreduce"] == 12
        assert "sparse_allreduce" not in log.bytes_by_op
        assert (log.supersteps, log.messages_by_op["barrier"]) == (1, 2)

    def test_sparse(self):
        log = self.price("sparse")
        assert (log.bytes_by_op["halo"], log.messages_by_op["halo"]) \
            == (16.0, 1)
        # -k at community 1 and +k at community 2 (and -1 / +1 for the
        # sizes): two 16 B pairs each, sent to the one other rank.
        assert log.bytes_by_op["sparse_allreduce"] == 32.0 + 32.0
        assert log.messages_by_op["sparse_allreduce"] == 4
        # Only the moved count is allreduced densely.
        assert log.bytes_by_op["allreduce"] == 16.0
        assert log.messages_by_op["allreduce"] == 4
        assert log.supersteps == 1

    def test_no_movers_sends_no_halo(self):
        cluster = SimCluster(2)
        part = partition_vertices(path_graph(4), 2, scheme="block")
        ranks = _RankSweeps(cluster, part, "sparse")
        ranks._charge(np.zeros(0, np.int64), np.zeros(0, np.int64))
        log = cluster.traffic
        assert "halo" not in log.bytes_by_op
        assert "sparse_allreduce" not in log.bytes_by_op
        assert log.supersteps == 1


class TestNetworkModel:
    def test_alpha_beta_pricing(self):
        log = TrafficLog()
        log.charge("halo", 1000.0, 10)
        model = NetworkModel(alpha=1e-6, beta=1e-9)
        assert model.time(log) == pytest.approx(10e-6 + 1e-6)

    def test_empty_log_free(self):
        assert NetworkModel().time(TrafficLog()) == 0.0
