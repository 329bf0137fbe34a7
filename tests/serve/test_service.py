"""JobService integration: at-least-once crash recovery, backpressure,
cancellation, autoscaling."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.driver import louvain
from repro.serve import AutoscalePolicy, InMemoryBroker, JobService, JobStatus
from repro.serve.job import JobSpec, checkpoint_path
from repro.utils.errors import QueueFullError

#: A graph big enough that baseline Louvain runs several phases, so the
#: phase-boundary checkpoint leaves real work for the resumed attempt.
GRAPH_REF = "planted:10x40?p_in=0.3&p_out=0.005&seed=11"


def reference_graph():
    from repro.serve.job import resolve_graph_ref

    return resolve_graph_ref(GRAPH_REF)


def wait_terminal(service, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(job_id)
        if record["status"] in JobStatus.TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {record['status']} after {timeout}s"
    )


@pytest.fixture
def service(tmp_path):
    svc = JobService(str(tmp_path / "spool"))
    svc.start()
    yield svc
    svc.stop()


class TestExecution:
    def test_job_runs_to_done_and_matches_direct_run(self, service):
        job_id = service.submit({"graph": GRAPH_REF})
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.DONE
        assert record["attempts"] == 1
        result = service.result(job_id)
        direct = louvain(reference_graph())
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity
        assert result["meta"]["resumed_from_phase"] is None

    def test_worker_crash_resumes_from_checkpoint_bitwise(self, service):
        """The tentpole guarantee: a worker dying mid-job is requeued and
        the retry resumes from the phase-boundary checkpoint, producing
        the exact assignment an uninterrupted run produces.

        The injected fault raises (uncaught) inside the worker at phase 1
        sweep 0 — after phase 0's checkpoint exists — killing the
        process for real; the resumed attempt never re-injects it.
        """
        job_id = service.submit({
            "graph": GRAPH_REF,
            "config": {"fault_plan": "raise:phase=1,sweep=0"},
        })
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.DONE
        assert record["attempts"] == 2  # one crash, one resume
        meta = record["meta"]
        assert meta["resumed_from_phase"] is not None
        assert meta["resumed_from_phase"] >= 1
        result = service.result(job_id)
        direct = louvain(reference_graph())
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert meta["modularity"] == direct.modularity
        # The checkpoint is cleaned up once the job is done.
        assert not os.path.exists(checkpoint_path(service.spool, job_id))

    def test_weighted_worker_crash_resumes_bitwise(self, service):
        """MG1 is weighted, so the phase-1 checkpoint holds a coarse graph
        of non-integer weight sums, which must load and resume exactly."""
        graph_ref = "dataset:MG1?scale=0.5&seed=1"
        job_id = service.submit({
            "graph": graph_ref,
            "config": {"fault_plan": "raise:phase=1,sweep=0"},
        })
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.DONE
        assert record["attempts"] == 2
        assert record["meta"]["resumed_from_phase"] == 1
        from repro.serve.job import resolve_graph_ref

        direct = louvain(resolve_graph_ref(graph_ref))
        result = service.result(job_id)
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity

    def test_sigkill_mid_phase_resumes_from_checkpoint(self, service):
        """A real SIGKILL (not an injected raise) mid-run: the job still
        completes bitwise-identically via checkpoint resume.

        The config stretches the run (reference kernel, one iteration
        per phase => a checkpoint after every phase) so the poller can
        land the kill between the first checkpoint and completion; if a
        fast machine finishes first anyway, resubmit and try again.
        """
        config = {"kernel": "reference", "max_iterations_per_phase": 1}
        graph_ref = "planted:20x100?p_in=0.2&p_out=0.002&seed=7"
        killed_record = None
        for _attempt in range(5):
            job_id = service.submit({"graph": graph_ref, "config": config})
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                record = service.status(job_id)
                if record["status"] in JobStatus.TERMINAL:
                    break
                worker_id = record["worker_id"]
                if (worker_id is not None
                        and os.path.exists(
                            checkpoint_path(service.spool, job_id))):
                    slot = service.pool._slots.get(worker_id)
                    if slot is not None:
                        os.kill(slot.process.pid, signal.SIGKILL)
                        break
                time.sleep(0.001)
            record = wait_terminal(service, job_id)
            assert record["status"] == JobStatus.DONE
            if record["attempts"] >= 2:
                killed_record = record
                break  # the kill landed mid-run
        assert killed_record is not None, \
            "SIGKILL never landed before completion in 5 tries"
        assert killed_record["meta"]["resumed_from_phase"] is not None
        from repro.serve.job import resolve_graph_ref

        direct = louvain(resolve_graph_ref(graph_ref), **config)
        result = service.result(killed_record["job_id"])
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity

    def test_permanent_error_fails_without_retry(self, service):
        job_id = service.submit({"graph": "dataset:NO_SUCH_DATASET"})
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.FAILED
        assert record["attempts"] == 1  # ValidationError is not retried
        assert "NO_SUCH_DATASET" in record["error"]
        assert service.result(job_id) is None

    def test_corrupt_graph_file_fails_without_retry(self, service, tmp_path):
        path = tmp_path / "corrupt.csrz"
        path.write_bytes(b"not a zip archive\n" * 16)
        job_id = service.submit({"graph": str(path), "max_attempts": 3})
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.FAILED
        assert record["attempts"] == 1  # GraphFormatError is not retried
        assert "not a csrz container" in record["error"]

    def test_bad_metis_token_fails_without_retry(self, service, tmp_path):
        # A token like '1.5' once escaped read_metis as a bare ValueError,
        # which the pool treats as transient and retries.
        path = tmp_path / "bad.metis"
        path.write_text("2 1\n2\n1.5\n")
        job_id = service.submit({"graph": str(path), "max_attempts": 3})
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.FAILED
        assert record["attempts"] == 1  # GraphFormatError is not retried
        assert "bad.metis:3: bad token '1.5'" in record["error"]

    def test_priority_orders_execution(self, tmp_path):
        # Submit before starting the control loop so ordering is decided
        # purely by the broker, then verify completion order via timing.
        svc = JobService(str(tmp_path / "spool"),
                         policy=AutoscalePolicy(max_workers=1))
        low = svc.submit({"graph": "planted:3x12?seed=1", "priority": 0})
        high = svc.submit({"graph": "planted:3x12?seed=2", "priority": 5})
        svc.start()
        try:
            wait_terminal(svc, low)
            wait_terminal(svc, high)
            assert (svc.status(high)["started_at"]
                    < svc.status(low)["started_at"])
        finally:
            svc.stop()


class TestBackpressureAndCancel:
    def test_queue_full_submit_raises_not_hangs(self, tmp_path):
        # No control loop running: nothing drains the queue, so the
        # bound is hit deterministically — and the submit returns
        # immediately with backpressure instead of blocking.
        svc = JobService(str(tmp_path / "spool"),
                         broker=InMemoryBroker(maxsize=2))
        svc.submit({"graph": "planted:3x12"})
        svc.submit({"graph": "planted:3x12"})
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            svc.submit({"graph": "planted:3x12"})
        assert time.monotonic() - start < 5.0
        svc.stop()

    def test_cancel_pending(self, tmp_path):
        svc = JobService(str(tmp_path / "spool"))
        job_id = svc.submit({"graph": GRAPH_REF})
        assert svc.cancel(job_id) is True
        record = svc.status(job_id)
        assert record["status"] == JobStatus.CANCELLED
        assert svc.broker.depth() == 0
        assert svc.cancel(job_id) is False  # terminal states are sticky
        svc.stop()

    def test_cancel_running_kills_the_worker(self, service):
        job_id = service.submit({
            "graph": "planted:20x100?p_in=0.2&p_out=0.002&seed=7",
            "config": {"kernel": "reference",
                       "max_iterations_per_phase": 1},
        })
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if service.status(job_id)["status"] == JobStatus.RUNNING:
                break
            time.sleep(0.005)
        assert service.cancel(job_id) is True
        record = wait_terminal(service, job_id)
        assert record["status"] == JobStatus.CANCELLED
        # The cancelled job is never requeued; the pool recovers and
        # serves later jobs.
        follow_up = service.submit({"graph": "planted:3x12"})
        assert wait_terminal(service, follow_up)["status"] == JobStatus.DONE

    def test_unknown_job(self, service):
        assert service.status("job-999999") is None
        assert service.cancel("job-999999") is False
        assert service.result("job-999999") is None


class TestCancellationRaces:
    """Deterministic reenactments of the cancel races: each test drives
    the control-loop steps by hand so the interleaving is exact, not a
    matter of scheduler luck."""

    def test_cancel_racing_dispatch_skips_the_job(self, tmp_path):
        # The control loop takes the id off the queue, then the cancel
        # lands before _dispatch marks it RUNNING: the status guard
        # must drop the dispatch, never run a cancelled job.
        svc = JobService(str(tmp_path / "spool"))
        job_id = svc.submit({"graph": "planted:3x12"})
        assert svc.broker.get_nowait() == job_id  # the dispatch's take
        assert svc.cancel(job_id) is True         # cancel wins the race
        svc.broker.put(job_id, 0, force=True)     # the taken id, back
        svc.pool.spawn()
        svc._dispatch()
        record = svc.status(job_id)
        assert record["status"] == JobStatus.CANCELLED
        assert record["attempts"] == 0
        assert svc.pool.busy_count() == 0
        svc.stop()

    def test_cancel_racing_completion_keeps_terminal_status(self, tmp_path):
        # The worker's completion message is in flight when the cancel
        # lands: first terminal state wins, in the records *and* in the
        # WAL's replay.
        svc = JobService(str(tmp_path / "spool"), wal=True)
        job_id = svc.submit({"graph": GRAPH_REF})
        with svc._lock:
            record = svc._records[job_id]
            record.status = JobStatus.RUNNING
            record.worker_id = 7
            record.attempts = 1
        assert svc.cancel(job_id) is True
        svc._on_done(7, job_id, "ok", {"modularity": 0.5})
        assert svc.status(job_id)["status"] == JobStatus.CANCELLED
        assert svc.result(job_id) is None
        from repro.serve.wal import replay_jobs

        states = replay_jobs(svc.wal.replay())
        assert states[job_id]["status"] == JobStatus.CANCELLED
        svc.stop()

    def test_double_cancel_single_effect(self, tmp_path):
        svc = JobService(str(tmp_path / "spool"), wal=True)
        job_id = svc.submit({"graph": "planted:3x12"})
        assert svc.cancel(job_id) is True
        assert svc.cancel(job_id) is False
        assert svc.tracer.metrics.counters["serve.jobs_cancelled"] == 1
        cancels = [r for r in svc.wal.replay()
                   if r.get("op") == "job_cancel"]
        assert len(cancels) == 1  # the second cancel logged nothing
        svc.stop()

    def test_kill_guard_spares_a_worker_on_another_job(self, tmp_path):
        # By the time the control loop services a kill request the
        # worker may have finished the cancelled job and moved on:
        # expect_job makes the kill refuse instead of murdering the
        # innocent successor's attempt.
        svc = JobService(str(tmp_path / "spool"))
        worker_id = svc.pool.spawn()
        assert svc.pool.kill(worker_id, expect_job="job-000000") is False
        svc.stop()


class TestAutoscale:
    def test_policy_desired(self):
        policy = AutoscalePolicy(min_workers=1, max_workers=4,
                                 backlog_per_worker=2)
        assert policy.desired(0) == 1
        assert policy.desired(1) == 1
        assert policy.desired(4) == 2
        assert policy.desired(100) == 4

    def test_policy_validation(self):
        from repro.utils.errors import ValidationError

        with pytest.raises(ValidationError):
            AutoscalePolicy(min_workers=3, max_workers=2)
        with pytest.raises(ValidationError):
            AutoscalePolicy(backlog_per_worker=0)

    def test_pool_grows_with_load_and_shrinks_when_idle(self, tmp_path):
        svc = JobService(
            str(tmp_path / "spool"),
            policy=AutoscalePolicy(min_workers=1, max_workers=3,
                                   idle_grace_s=0.1),
        )
        svc.start()
        try:
            jobs = [svc.submit({"graph": f"planted:4x20?seed={i}"})
                    for i in range(6)]
            peak = 0
            for job_id in jobs:
                wait_terminal(svc, job_id)
                peak = max(peak, svc.pool.num_workers())
            assert peak >= 2  # scaled beyond the minimum under load
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if svc.pool.num_workers() <= 1:
                    break
                time.sleep(0.02)
            assert svc.pool.num_workers() <= 1  # idle grace retired them
        finally:
            svc.stop()


class TestMetrics:
    def test_job_lifecycle_metrics_published(self, service):
        job_id = service.submit({
            "graph": GRAPH_REF,
            "config": {"fault_plan": "raise:phase=1,sweep=0"},
        })
        wait_terminal(service, job_id)
        # Let the control loop publish its end-of-tick gauges.
        time.sleep(0.2)
        snapshot = service.tracer.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.jobs_submitted"] == 1
        assert counters["serve.jobs_completed"] == 1
        assert counters["serve.jobs_retried"] == 1
        assert counters["serve.worker_deaths"] == 1
        gauges = snapshot["gauges"]
        assert "serve.queue_depth" in gauges
        assert "serve.workers" in gauges
        assert any(name.startswith("serve.worker.")
                   and name.endswith(".last_heartbeat")
                   for name in gauges)
        hist = snapshot["histograms"]["serve.job_seconds"]
        assert hist["count"] == 1


class TestSpecValidationAtSubmit:
    def test_bad_config_field_rejected_up_front(self, tmp_path):
        from repro.utils.errors import ValidationError

        svc = JobService(str(tmp_path / "spool"))
        with pytest.raises(ValidationError):
            svc.submit({"graph": GRAPH_REF,
                        "config": {"kernel": "warp-drive"}})
        with pytest.raises(ValidationError):
            svc.submit({"graph": GRAPH_REF, "config": {"no_such_field": 1}})
        with pytest.raises(ValidationError, match="array_backend"):
            svc.submit({"graph": GRAPH_REF,
                        "config": {"array_backend": "cupy"}})
        assert svc.broker.depth() == 0  # nothing half-accepted
        # A config stored by a version that had the field, naming NumPy:
        svc.submit({"graph": GRAPH_REF, "config": {"array_backend": "numpy"}})
        assert svc.broker.depth() == 1
        svc.stop()

    def test_spec_instance_accepted(self, service):
        job_id = service.submit(JobSpec(graph="planted:3x12"))
        assert wait_terminal(service, job_id)["status"] == JobStatus.DONE


class TestCompactionVsSubmitRace:
    """Regression: _compact() must hold the record lock across snapshot
    *and* log rewrite, or a submit landing in between is erased."""

    def test_submit_during_compaction_survives_replay(self, tmp_path):
        import threading

        from repro.serve.wal import replay_jobs

        svc = JobService(str(tmp_path / "spool"), wal=True)
        svc.submit({"graph": "planted:3x12"})
        original_compact = svc.wal.compact
        window_open = threading.Event()

        def slow_compact(snapshot):
            # Hold the rewrite open so a concurrent submit gets a real
            # chance to append into the (formerly unlocked) window.
            window_open.set()
            time.sleep(0.3)
            original_compact(snapshot)

        svc.wal.compact = slow_compact
        racer_ids = []

        def racer():
            window_open.wait(10.0)
            racer_ids.append(svc.submit({"graph": "planted:3x12"}))

        thread = threading.Thread(target=racer)
        thread.start()
        svc._compact()
        thread.join(30.0)
        svc.wal.compact = original_compact
        assert racer_ids, "racing submit never completed"
        # Before any healing re-compaction: the racer's job must already
        # have a durable trace, both as a record and in the queue.
        states = replay_jobs(svc.wal.replay())
        assert racer_ids[0] in states
        assert states[racer_ids[0]]["status"] == JobStatus.PENDING
        puts = [r["job"] for r in svc.wal.replay() if r.get("op") == "put"]
        assert racer_ids[0] in puts
        svc.stop()


class TestIdempotentSubmit:
    def test_same_key_returns_same_job(self, tmp_path):
        svc = JobService(str(tmp_path / "spool"), wal=True)
        first = svc.submit({"graph": "planted:3x12"}, idempotency_key="k1")
        second = svc.submit({"graph": "planted:3x12"}, idempotency_key="k1")
        assert first == second
        assert len(svc.jobs()) == 1
        assert svc.broker.depth() == 1
        assert svc.tracer.metrics.counters["serve.jobs_deduped"] == 1
        svc.stop()

    def test_distinct_keys_distinct_jobs(self, tmp_path):
        svc = JobService(str(tmp_path / "spool"))
        first = svc.submit({"graph": "planted:3x12"}, idempotency_key="k1")
        second = svc.submit({"graph": "planted:3x12"}, idempotency_key="k2")
        assert first != second
        assert len(svc.jobs()) == 2
        svc.stop()

    def test_key_survives_restart_and_compaction(self, tmp_path):
        spool = str(tmp_path / "spool")
        svc = JobService(spool, wal=True)
        first = svc.submit({"graph": "planted:3x12"}, idempotency_key="k1")
        svc.stop()  # compacts: the key must ride the snapshot too
        restarted = JobService(spool, wal=True)
        second = restarted.submit({"graph": "planted:3x12"},
                                  idempotency_key="k1")
        assert first == second
        assert len(restarted.jobs()) == 1
        restarted.stop()


class _StubProcess:
    """Process stand-in for pool kill-escalation unit tests."""

    def __init__(self):
        self.pid = 12345
        self.exitcode = None
        self.terminated = False
        self.killed = False

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


class TestKillEscalation:
    """kill() is cooperative (SIGTERM at a sweep boundary); a worker that
    ignores it must still be forcibly killable after the grace period."""

    def _pool_with_stub(self, tmp_path):
        from repro.serve.pool import WorkerPool, _WorkerSlot
        from repro.utils.timing import monotonic

        pool = WorkerPool(str(tmp_path))
        process = _StubProcess()
        slot = _WorkerSlot(0, process, None)
        slot.job_id = "job-000000"
        pool._slots[0] = slot
        return pool, slot, process, monotonic

    def test_kill_arms_the_escalation_deadline(self, tmp_path):
        pool, slot, process, _ = self._pool_with_stub(tmp_path)
        assert pool.kill(0, expect_job="job-000000") is True
        assert process.terminated
        assert slot.kill_job == "job-000000"
        assert slot.kill_deadline is not None
        # Grace period not yet over: no SIGKILL.
        assert pool.escalate_kills() == 0
        assert not process.killed

    def test_escalates_to_sigkill_after_grace(self, tmp_path):
        pool, slot, process, monotonic = self._pool_with_stub(tmp_path)
        assert pool.kill(0, expect_job="job-000000") is True
        slot.kill_deadline = monotonic() - 1.0  # grace period elapsed
        assert pool.escalate_kills() == 1
        assert process.killed
        assert slot.kill_deadline is None and slot.kill_job is None

    def test_spares_worker_that_moved_on(self, tmp_path):
        pool, slot, process, monotonic = self._pool_with_stub(tmp_path)
        assert pool.kill(0, expect_job="job-000000") is True
        slot.job_id = "job-000001"  # finished the doomed job, took another
        slot.kill_deadline = monotonic() - 1.0
        assert pool.escalate_kills() == 0
        assert not process.killed
        assert slot.kill_deadline is None  # stale request discarded

    def test_drain_done_clears_pending_kill(self, tmp_path):
        pool, slot, process, _ = self._pool_with_stub(tmp_path)
        assert pool.kill(0, expect_job="job-000000") is True
        pool._done_q.put(("done", 0, "job-000000", "drained", {}))
        deadline = time.monotonic() + 5.0
        drained = []
        while time.monotonic() < deadline and not drained:
            drained = pool.drain_done()
            time.sleep(0.01)
        assert drained == [(0, "job-000000", "drained", {})]
        assert slot.kill_job is None and slot.kill_deadline is None
        assert not process.killed
