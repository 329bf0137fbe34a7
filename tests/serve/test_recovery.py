"""Service-level durability: restart recovery, drain, spool integrity.

The tentpole scenarios of the durable-serve work: SIGKILL the *service*
process mid-job and restart over the same spool + WAL — no accepted job
is lost, the retry resumes from the phase-boundary checkpoint, and the
final assignment is bitwise-identical to an uninterrupted run.  Corrupt
spool artifacts (torn or bit-flipped) are detected by content digest,
counted (``serve.spool_corrupt``) and recomputed rather than served.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.core.driver import louvain
from repro.serve import AutoscalePolicy, JobService, JobStatus
from repro.serve.job import checkpoint_path, resolve_graph_ref, result_path
from repro.serve.service import SERVE_FAULTS_ENV

FAST_REF = "planted:4x20?p_in=0.4&p_out=0.01&seed=3"
SLOW_REF = "planted:20x100?p_in=0.2&p_out=0.002&seed=7"
SLOW_CONFIG = {"kernel": "reference", "max_iterations_per_phase": 1}

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def one_worker():
    return AutoscalePolicy(min_workers=1, max_workers=1, idle_grace_s=60.0)


def counters(service):
    return service.tracer.metrics.counters


def wait_terminal(service, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(job_id)
        if record["status"] in JobStatus.TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(
        f"job {job_id} still {record['status']} after {timeout}s"
    )


def wait_result(service, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        result = service.result(job_id)
        if result is not None:
            return result
        time.sleep(0.02)
    raise AssertionError(f"no result for {job_id} after {timeout}s")


#: A WAL'd single-worker service that submits one slow job and parks —
#: the parent decides when (and how hard) it dies.
_CHILD_SERVICE = """
import sys, time

from repro.serve import AutoscalePolicy, JobService

svc = JobService(sys.argv[1], wal=True,
                 policy=AutoscalePolicy(min_workers=1, max_workers=1))
svc.start()
job_id = svc.submit({"graph": %r, "config": %r})
print(job_id, flush=True)
time.sleep(600)
""" % (SLOW_REF, SLOW_CONFIG)

#: A service whose own fault injector SIGKILLs it at a service site.
_CHILD_FAULTED = """
import sys

from repro.serve import JobService

svc = JobService(sys.argv[1], wal=True)
svc.submit({"graph": %r})
print("survived the fault site", flush=True)
""" % (FAST_REF,)


class TestServiceCrashRecovery:
    def _submit_and_kill_mid_job(self, spool):
        """Run a WAL'd service in its own process group and SIGKILL the
        whole group (service *and* worker) once the job's first
        phase-boundary checkpoint exists.  Returns the job id, or None
        when the job finished before the kill could land mid-run."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SERVICE, spool],
            stdout=subprocess.PIPE, text=True, env=_child_env(),
            start_new_session=True,
        )
        landed = False
        try:
            job_id = proc.stdout.readline().strip()
            assert job_id.startswith("job-"), f"child failed: {job_id!r}"
            deadline = time.monotonic() + 90.0
            ckpt = checkpoint_path(spool, job_id)
            while time.monotonic() < deadline:
                if os.path.exists(ckpt):
                    landed = True
                    break
                if os.path.exists(result_path(spool, job_id)):
                    break  # finished before any checkpoint was seen
                time.sleep(0.001)
        finally:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()
        return job_id if landed else None

    def test_sigkill_service_mid_job_recovers_bitwise(self, tmp_path):
        """The acceptance scenario: SIGKILL service + worker mid-job,
        restart over the same spool, and the job completes on attempt
        >= 2 with the exact assignment an uninterrupted run produces."""
        record = result = None
        for attempt in range(5):
            spool = str(tmp_path / f"spool{attempt}")
            job_id = self._submit_and_kill_mid_job(spool)
            if job_id is None:
                continue  # too fast: the job won; fresh spool, try again
            second = JobService(spool, wal=True, policy=one_worker())
            try:
                rec = second.status(job_id)
                assert rec is not None, "accepted job lost across restart"
                if rec["status"] == JobStatus.DONE:
                    continue  # kill landed after completion; try again
                assert rec["status"] == JobStatus.PENDING
                assert counters(second).get("serve.jobs_recovered", 0) >= 1
                second.start()
                record = wait_terminal(second, job_id)
                assert record["status"] == JobStatus.DONE
                assert record["attempts"] >= 2
                assert record["meta"]["resumed_from_phase"] is not None
                result = second.result(job_id)
            finally:
                second.stop()
            break
        assert record is not None, \
            "SIGKILL never landed mid-job in 5 tries"
        direct = louvain(resolve_graph_ref(SLOW_REF), **SLOW_CONFIG)
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity

    def test_service_crash_fault_site_then_restart(self, tmp_path):
        """``service_crash:site=serve.submit`` (armed via the env var)
        SIGKILLs the service right after the submit's WAL append — the
        restart still owns the job and completes it."""
        spool = str(tmp_path / "spool")
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_FAULTED, spool],
            stdout=subprocess.PIPE, text=True,
            env=_child_env(**{
                SERVE_FAULTS_ENV: "service_crash:site=serve.submit",
            }),
        )
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == -signal.SIGKILL
        assert "survived" not in out
        second = JobService(spool, wal=True, policy=one_worker())
        try:
            rec = second.status("job-000000")
            assert rec is not None and rec["status"] == JobStatus.PENDING
            second.start()
            assert (wait_terminal(second, "job-000000")["status"]
                    == JobStatus.DONE)
            result = second.result("job-000000")
        finally:
            second.stop()
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )


class TestRestartStateCarryover:
    def _abandon(self, svc):
        """Simulate a crash: release OS resources without the graceful
        ``stop()`` path (no compaction, no final snapshot)."""
        svc.pool.close()
        svc.wal.close()

    def test_unstarted_submits_survive_crash(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = JobService(spool, wal=True)
        a = first.submit({"graph": FAST_REF})
        b = first.submit({"graph": FAST_REF, "priority": 3})
        self._abandon(first)
        second = JobService(spool, wal=True, policy=one_worker())
        try:
            assert second.status(a)["status"] == JobStatus.PENDING
            assert second.status(b)["status"] == JobStatus.PENDING
            assert second.broker.depth() == 2
            second.start()
            for job_id in (a, b):
                assert (wait_terminal(second, job_id)["status"]
                        == JobStatus.DONE)
            result = second.result(a)
        finally:
            second.stop()
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )

    def test_done_job_survives_restart_without_rerun(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = JobService(spool, wal=True, policy=one_worker())
        first.start()
        job_id = first.submit({"graph": FAST_REF})
        wait_terminal(first, job_id)
        first.stop()  # graceful: the snapshot-compaction path
        second = JobService(spool, wal=True)
        try:
            rec = second.status(job_id)
            assert rec["status"] == JobStatus.DONE
            assert rec["attempts"] == 1  # not re-run
            assert counters(second).get("serve.jobs_recovered", 0) == 0
            assert second.result(job_id) is not None
        finally:
            second.stop()

    def test_done_with_missing_result_requeued(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = JobService(spool, wal=True, policy=one_worker())
        first.start()
        job_id = first.submit({"graph": FAST_REF})
        wait_terminal(first, job_id)
        first.stop()
        os.remove(result_path(spool, job_id))
        second = JobService(spool, wal=True, policy=one_worker())
        try:
            assert second.status(job_id)["status"] == JobStatus.PENDING
            assert counters(second).get("serve.jobs_recovered", 0) >= 1
            second.start()
            assert (wait_terminal(second, job_id)["status"]
                    == JobStatus.DONE)
            result = second.result(job_id)
        finally:
            second.stop()
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )

    def test_replayed_config_fields_are_checked_once(self, tmp_path):
        """WAL specs skip submit-time validation: a legacy NumPy
        ``array_backend`` still runs, and an unknown field fails
        permanently on its first attempt instead of being retried."""
        spool = str(tmp_path / "spool")
        first = JobService(spool, wal=True)
        legacy = first.submit({"graph": FAST_REF, "max_attempts": 3,
                               "config": {"max_phases": 32}})
        unknown = first.submit({"graph": FAST_REF, "max_attempts": 3,
                                "config": {"max_phases": 31}})
        self._abandon(first)
        wal = os.path.join(spool, "serve.wal")
        with open(wal, encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace('"max_phases":32', '"array_backend":"numpy"')
        text = text.replace('"max_phases":31', '"warp_factor":9')
        with open(wal, "w", encoding="utf-8") as fh:
            fh.write(text)
        second = JobService(spool, wal=True, policy=one_worker())
        try:
            second.start()
            done = wait_terminal(second, legacy)
            failed = wait_terminal(second, unknown)
            result = second.result(legacy)
        finally:
            second.stop()
        assert done["status"] == JobStatus.DONE
        np.testing.assert_array_equal(
            np.asarray(result["communities"]),
            louvain(resolve_graph_ref(FAST_REF)).communities,
        )
        assert failed["status"] == JobStatus.FAILED
        assert failed["attempts"] == 1
        assert "warp_factor" in failed["error"]

    def test_torn_wal_tail_tolerated_and_counted(self, tmp_path):
        spool = str(tmp_path / "spool")
        first = JobService(spool, wal=True)
        job_id = first.submit({"graph": FAST_REF})
        self._abandon(first)
        # A crash mid-append leaves a truncated trailing line.
        with open(os.path.join(spool, "serve.wal"), "a",
                  encoding="utf-8") as fh:
            fh.write('{"op":"job_submit","job":"job-9')
        second = JobService(spool, wal=True)
        try:
            assert counters(second).get("serve.wal_torn_lines", 0) >= 1
            assert second.status(job_id)["status"] == JobStatus.PENDING
        finally:
            second.stop()


class TestDrain:
    def test_drain_checkpoints_then_restart_resumes_bitwise(self, tmp_path):
        """SIGTERM-style drain: the running job checkpoints at a sweep
        boundary (no result is written), and a restart over the same
        spool + WAL resumes it to the uninterrupted run's assignment."""
        record = result = None
        for attempt in range(5):
            spool = str(tmp_path / f"spool{attempt}")
            svc = JobService(spool, wal=True, policy=one_worker())
            svc.start()
            job_id = svc.submit({"graph": SLOW_REF,
                                 "config": dict(SLOW_CONFIG)})
            # Drain only once the first checkpoint exists, so the
            # worker's signal-armed budget scope is certainly live.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if svc.status(job_id)["status"] in JobStatus.TERMINAL:
                    break
                if os.path.exists(checkpoint_path(spool, job_id)):
                    break
                time.sleep(0.001)
            drained = svc.drain(timeout=60.0)
            rec = svc.status(job_id)
            if rec["status"] == JobStatus.DONE:
                continue  # finished before the drain; fresh spool, retry
            assert drained is True
            assert rec["status"] == JobStatus.PENDING
            assert counters(svc).get("serve.jobs_drained", 0) >= 1
            assert os.path.exists(checkpoint_path(spool, job_id))
            assert not os.path.exists(result_path(spool, job_id))
            second = JobService(spool, wal=True, policy=one_worker())
            try:
                second.start()
                record = wait_terminal(second, job_id)
                assert record["status"] == JobStatus.DONE
                assert record["attempts"] >= 2
                assert record["meta"]["resumed_from_phase"] is not None
                result = second.result(job_id)
            finally:
                second.stop()
            break
        assert record is not None, \
            "drain never caught the job mid-run in 5 tries"
        direct = louvain(resolve_graph_ref(SLOW_REF), **SLOW_CONFIG)
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity


class TestSpoolIntegrity:
    def test_garbage_checkpoint_recomputed_not_served(self, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        # Job ids are deterministic — the first submit is job-000000 —
        # so the corrupt artifact can be planted before the service
        # exists, guaranteeing the worker trips over it on attempt 1.
        with open(checkpoint_path(spool, "job-000000"), "wb") as fh:
            fh.write(b"this is not a checkpoint archive")
        svc = JobService(spool, policy=one_worker())
        svc.start()
        try:
            job_id = svc.submit({"graph": FAST_REF})
            assert job_id == "job-000000"
            record = wait_terminal(svc, job_id)
            assert record["status"] == JobStatus.DONE
            assert record["meta"].get("recovered_corrupt_artifact") is True
            assert counters(svc).get("serve.spool_corrupt", 0) >= 1
            result = svc.result(job_id)
        finally:
            svc.stop()
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity

    @pytest.mark.parametrize("damage", ["bitflip", "truncate"])
    def test_corrupt_result_demoted_and_recomputed(self, tmp_path, damage):
        """A bit-flipped or truncated result file trips the content
        digest: the read returns None (never a wrong answer), the event
        is counted, and the job recomputes to the correct result."""
        spool = str(tmp_path / "spool")
        svc = JobService(spool, wal=True, policy=one_worker())
        svc.start()
        try:
            job_id = svc.submit({"graph": FAST_REF})
            wait_terminal(svc, job_id)
            path = result_path(spool, job_id)
            with open(path, "rb") as fh:
                raw = bytearray(fh.read())
            if damage == "bitflip":
                raw[len(raw) // 2] ^= 0xFF
            else:
                raw = raw[:64]
            with open(path, "wb") as fh:
                fh.write(bytes(raw))
            assert svc.result(job_id) is None  # detected, demoted
            assert counters(svc).get("serve.spool_corrupt", 0) >= 1
            result = wait_result(svc, job_id)
        finally:
            svc.stop()
        direct = louvain(resolve_graph_ref(FAST_REF))
        np.testing.assert_array_equal(
            np.asarray(result["communities"]), direct.communities
        )
        assert result["meta"]["modularity"] == direct.modularity
