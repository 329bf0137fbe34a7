"""Tests for the fork + shared-memory process backend (real parallelism)."""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core.driver import louvain
from repro.core.sweep import compute_targets, init_state
from repro.parallel.backends import make_backend
from repro.parallel.process_backend import ProcessBackend
from repro.utils.errors import ValidationError

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process backend requires the fork start method",
)


class TestSweepIdentity:
    def test_targets_match_serial(self, planted):
        state = init_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        serial = compute_targets(planted, state, verts)
        backend = ProcessBackend(2)
        try:
            parallel = compute_targets(planted, state, verts, backend=backend)
        finally:
            backend.close()
        np.testing.assert_array_equal(serial, parallel)

    def test_targets_match_over_iterations(self, planted):
        from repro.core.sweep import apply_moves

        s_serial = init_state(planted)
        s_proc = init_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        backend = ProcessBackend(2)
        try:
            for _ in range(3):
                a = compute_targets(planted, s_serial, verts)
                b = compute_targets(planted, s_proc, verts, backend=backend)
                np.testing.assert_array_equal(a, b)
                apply_moves(planted, s_serial, verts, a)
                apply_moves(planted, s_proc, verts, b)
        finally:
            backend.close()

    def test_subset_and_resolution(self, planted):
        state = init_state(planted)
        subset = np.arange(0, planted.num_vertices, 3, dtype=np.int64)
        backend = ProcessBackend(2)
        try:
            a = compute_targets(planted, state, subset, resolution=2.0)
            b = compute_targets(planted, state, subset, backend=backend,
                                resolution=2.0)
        finally:
            backend.close()
        np.testing.assert_array_equal(a, b)


class TestFullPipeline:
    def test_driver_identity(self, planted):
        serial = louvain(planted, variant="baseline")
        proc = louvain(planted, variant="baseline", backend="processes",
                       num_threads=2)
        np.testing.assert_array_equal(serial.communities, proc.communities)

    def test_driver_with_coloring(self, planted):
        cutoff = max(16, planted.num_vertices // 8)
        serial = louvain(planted, variant="baseline+VF+Color",
                         coloring_min_vertices=cutoff)
        proc = louvain(planted, variant="baseline+VF+Color",
                       coloring_min_vertices=cutoff,
                       backend="processes", num_threads=2)
        np.testing.assert_array_equal(serial.communities, proc.communities)

    @pytest.mark.parametrize("graph_name", ["planted", "rmat"])
    @pytest.mark.parametrize("variant", ["baseline", "baseline+VF+Color"])
    def test_histories_match_every_backend(self, graph_name, variant):
        """Whole iteration records agree, ``aggregation`` included: it is
        resolved from each swept set before dispatch, not reported by
        whichever kernel call ran in this process."""
        from repro.distributed import distributed_louvain
        from repro.graph.generators import planted_partition, rmat

        graph = (planted_partition(40, 50, 0.3, 1e-3, seed=1)
                 if graph_name == "planted" else rmat(11, 8, seed=0))
        flags = dict(variant=variant, coloring_min_vertices=64)
        serial = louvain(graph, **flags).history.iterations
        assert {r.aggregation for r in serial} <= {"bincount", "matmul"}
        runs = {
            "threads": louvain(graph, backend="threads", num_threads=2,
                               **flags),
            "processes": louvain(graph, backend="processes", num_threads=2,
                                 **flags),
            "distributed": distributed_louvain(
                graph, 3, coloring_min_vertices=64,
                use_vf=variant != "baseline",
                use_coloring=variant == "baseline+VF+Color"),
        }
        for name, run in runs.items():
            assert run.history.iterations == serial, name

    def test_pruned_phase_keeps_one_plan_per_chunk(self, planted):
        """A pruned frontier changes every chunk's extent each iteration;
        a worker must replace its stale gather plans, not accumulate one
        per extent."""
        result = louvain(planted, variant="baseline", backend="processes",
                         num_threads=2, trace=True)
        first = [r.active_vertices for r in result.history.iterations
                 if r.phase == 0]
        assert len(set(first)) > 2  # pruning moved the chunk extents
        hist = result.trace.metrics.snapshot()["histograms"][
            "worker.cached_plans"]
        assert 1 <= hist["max"] <= 2  # chunks per sweep = num_threads


class TestLifecycle:
    def test_factory(self):
        backend = make_backend("processes", 2)
        assert isinstance(backend, ProcessBackend)
        assert backend.num_workers == 2
        backend.close()

    def test_default_worker_count(self):
        backend = ProcessBackend()
        assert backend.num_workers >= 1
        backend.close()

    def test_single_worker_inline(self, planted):
        backend = ProcessBackend(1)
        try:
            state = init_state(planted)
            verts = np.arange(planted.num_vertices, dtype=np.int64)
            out = backend.sweep_targets(planted, state, verts,
                                        use_min_label=True, resolution=1.0)
            np.testing.assert_array_equal(
                out, compute_targets(planted, state, verts)
            )
            assert backend._executors == {}  # never forked
        finally:
            backend.close()

    def test_close_idempotent(self, planted):
        backend = ProcessBackend(2)
        state = init_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        backend.sweep_targets(planted, state, verts, use_min_label=True,
                              resolution=1.0)
        backend.close()
        backend.close()

    def test_map_runs_inline(self):
        backend = ProcessBackend(2)
        try:
            assert backend.map(lambda x: x + 1, [1, 2]) == [2, 3]
        finally:
            backend.close()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ProcessBackend(0)


class TestWorkerDeath:
    """Regression tests for the done_q / trace_q hang class.

    The seed backend blocked forever on ``done_q.get()`` when a worker
    died mid-chunk, and ``close()`` paid a serial 5 s ``trace_q`` penalty
    per dead worker.  Both paths must now finish promptly — and with
    recovery in place, a pool that loses a worker completes the sweep
    anyway (identical results) unless its respawn budget is zeroed.
    """

    def _executor(self, planted, policy=None):
        backend = ProcessBackend(2, policy=policy)
        state = init_state(planted)
        verts = np.arange(planted.num_vertices, dtype=np.int64)
        # Run one sweep so the executor (pool + buffers) exists.
        backend.sweep_targets(planted, state, verts, use_min_label=True,
                              resolution=1.0)
        (executor,) = backend._executors.values()
        return backend, executor, state, verts

    def test_close_fast_with_dead_worker(self, planted):
        backend, executor, _, _ = self._executor(planted)
        executor._slots[0].process.kill()
        executor._slots[0].process.join(timeout=5)
        t0 = time.perf_counter()
        backend.close()
        assert time.perf_counter() - t0 < 2.0

    def test_dead_worker_recovers_with_identical_targets(self, planted):
        backend, executor, state, verts = self._executor(planted)
        try:
            executor._slots[0].process.kill()
            executor._slots[0].process.join(timeout=5)
            out = executor.compute_targets(state, verts, use_min_label=True,
                                           resolution=1.0)
            np.testing.assert_array_equal(
                out, compute_targets(planted, state, verts)
            )
            assert backend.recovery.deaths >= 1
            assert backend.recovery.respawns >= 1
        finally:
            backend.close()

    def test_dead_pool_raises_instead_of_hanging(self, planted):
        from repro.robust.recovery import RetryPolicy
        from repro.utils.errors import WorkerPoolError

        backend, executor, state, verts = self._executor(
            planted, policy=RetryPolicy(max_respawns=0)
        )
        try:
            for slot in executor._slots:
                slot.process.kill()
                slot.process.join(timeout=5)
            t0 = time.perf_counter()
            with pytest.raises(WorkerPoolError, match="died mid-sweep"):
                executor.compute_targets(state, verts, use_min_label=True,
                                         resolution=1.0)
            assert time.perf_counter() - t0 < 5.0
        finally:
            backend.close()

    def test_dead_pool_backend_falls_back_to_serial(self, planted):
        from repro.robust.recovery import RetryPolicy

        backend, executor, state, verts = self._executor(
            planted, policy=RetryPolicy(max_respawns=0)
        )
        try:
            for slot in executor._slots:
                slot.process.kill()
                slot.process.join(timeout=5)
            out = backend.sweep_targets(planted, state, verts,
                                        use_min_label=True, resolution=1.0)
            np.testing.assert_array_equal(
                out, compute_targets(planted, state, verts)
            )
            assert backend.recovery.fallbacks == 1
            assert backend._degraded
        finally:
            backend.close()

    def test_close_fast_with_all_workers_dead(self, planted):
        backend, executor, _, _ = self._executor(planted)
        for slot in executor._slots:
            slot.process.kill()
            slot.process.join(timeout=5)
        t0 = time.perf_counter()
        backend.close()
        assert time.perf_counter() - t0 < 2.0
