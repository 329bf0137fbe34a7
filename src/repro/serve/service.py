"""The checkpoint-backed detection job service (ROADMAP item 1).

:class:`JobService` ties the pieces together:

* a :class:`~repro.serve.broker.Broker` orders accepted jobs (priority +
  bounded depth with :class:`~repro.utils.errors.QueueFullError`
  backpressure);
* a :class:`~repro.serve.pool.WorkerPool` runs them in worker processes
  with **at-least-once** semantics — a worker dying mid-job is detected
  by the control loop's liveness poll, the job is requeued (bounded by
  the spec's ``max_attempts``), and the retry resumes from the job's
  last phase-boundary checkpoint, reproducing the uninterrupted run's
  assignment bitwise (the PR-4 checkpoint contract);
* an :class:`AutoscalePolicy` sizes the pool from queue depth: scale-up
  is immediate, scale-down retires workers only after an idle grace
  period (respawn-after-crash falls out of the same rule — a death
  shrinks the pool below the desired size and the next tick refills it);
* every transition lands on an in-process
  :class:`~repro.obs.trace.Tracer`, so the HTTP API's ``/metrics`` can
  expose queue depth, worker liveness gauges and the job latency
  histogram through the existing Prometheus renderer.

Durability is opt-in (``wal=``): every queue transition and job
lifecycle event lands in a :class:`~repro.serve.wal.WriteAheadLog`
before the reply goes out, so a SIGKILL of the service followed by a
restart over the same spool + WAL loses no accepted job — RUNNING jobs
requeue and resume from their phase-boundary checkpoints, and
:meth:`JobService.drain` (the SIGTERM path) checkpoints running jobs
*before* stopping, so even a graceful shutdown wastes no work.  Spool
artifacts carry content digests; a corrupt checkpoint or result is
detected, counted (``serve.spool_corrupt``) and recomputed instead of
poisoning an answer.

The control loop runs on one background thread paced by ``Event.wait``
(woken early by submits/cancels), and it alone touches the pool;
submit/status/result/cancel only touch the broker and the records dict
under a lock.  State a worker needs is derived, never handed over:
checkpoint and result files live in the **spool** directory at paths
that are pure functions of ``(spool, job_id)``.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass

from repro.obs.trace import Tracer
from repro.robust.faults import FaultInjector, apply_service_fault
from repro.serve.broker import Broker, InMemoryBroker
from repro.serve.job import (
    JobRecord,
    JobSpec,
    JobStatus,
    checkpoint_path,
    result_path,
)
from repro.serve.pool import _SPOOL_CORRUPT_ERRORS, WorkerPool, load_result
from repro.serve.wal import DurableBroker, WriteAheadLog, replay_jobs
from repro.utils.errors import ValidationError
from repro.utils.timing import monotonic

__all__ = ["AutoscalePolicy", "JobService", "SERVE_FAULTS_ENV"]

#: Environment variable arming the service's own fault injector
#: (``service_crash:site=...`` specs) — separate from ``REPRO_FAULTS``
#: so a job-level plan never crashes the control plane by accident.
SERVE_FAULTS_ENV = "REPRO_SERVE_FAULTS"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Pool sizing from queue depth.

    The desired worker count is ``ceil(load / backlog_per_worker)``
    clamped to ``[min_workers, max_workers]``, where ``load`` counts
    queued plus running jobs.  ``backlog_per_worker=1`` (default) means
    one worker per outstanding job up to the cap; larger values tolerate
    deeper backlogs before spawning.  Scale-down only retires workers
    idle for at least ``idle_grace_s`` — brief gaps between jobs must
    not thrash fork/join.
    """

    min_workers: int = 1
    max_workers: int = 4
    backlog_per_worker: int = 1
    idle_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.min_workers < 0:
            raise ValidationError("min_workers must be >= 0")
        if self.max_workers < max(1, self.min_workers):
            raise ValidationError(
                "max_workers must be >= max(1, min_workers)"
            )
        if self.backlog_per_worker < 1:
            raise ValidationError("backlog_per_worker must be >= 1")
        if self.idle_grace_s < 0:
            raise ValidationError("idle_grace_s must be >= 0")

    def desired(self, load: int) -> int:
        by_load = math.ceil(load / self.backlog_per_worker)
        return max(self.min_workers, min(self.max_workers, by_load))


class JobService:
    """Submit/track/cancel detection jobs on a crash-tolerant worker pool."""

    #: Control-loop pacing when nothing wakes it earlier.
    POLL_INTERVAL_S = 0.05

    def __init__(self, spool: str, *, broker: "Broker | None" = None,
                 policy: "AutoscalePolicy | None" = None,
                 tracer: "Tracer | None" = None,
                 wal: "WriteAheadLog | str | bool | None" = None,
                 wal_fsync: bool = False,
                 compact_every: int = 256,
                 fault_plan: "str | None" = None):
        os.makedirs(spool, exist_ok=True)
        self.spool = spool
        self.policy = policy or AutoscalePolicy()
        #: Always-on metrics registry (the API's /metrics source).
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        # Durability plane.  ``wal=True`` picks the conventional path
        # inside the spool; a path or WriteAheadLog selects one
        # explicitly; ``None`` (default) runs memory-only as before.
        # Replay happens in two layers: DurableBroker's constructor
        # rebuilds the *queue* from put/take/cancel balance, then
        # _recover() rebuilds the *job records* from the job_* ops.
        if wal is True:
            wal = os.path.join(spool, "serve.wal")
        if wal is not None and not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal, fsync=wal_fsync)
        self.wal: "WriteAheadLog | None" = wal
        if wal is not None:
            self.broker: Broker = DurableBroker(wal, inner=broker)
        else:
            self.broker = broker if broker is not None else InMemoryBroker()
        self.compact_every = max(1, int(compact_every))
        if fault_plan is None:
            fault_plan = os.environ.get(SERVE_FAULTS_ENV, "").strip() or None
        self._faults = FaultInjector.from_plan(fault_plan)
        self.pool = WorkerPool(spool)
        self._records: dict[str, JobRecord] = {}
        #: Idempotency key -> job id; a resubmitted key returns the
        #: original job instead of enqueuing a duplicate.
        self._idem: dict[str, str] = {}
        self._lock = threading.RLock()
        self._next_job = 0
        self._kill_requests: set[str] = set()
        self._draining = False
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._started = monotonic()
        self._thread: "threading.Thread | None" = None
        if self.wal is not None:
            self._recover()

    # -- durability (construction + control loop) ------------------------

    def _fault(self, site: str) -> None:
        """Service-site fault hook (``service_crash`` SIGKILLs us here)."""
        spec = self._faults.on_service(site)
        if spec is not None:
            apply_service_fault(spec)

    def _recover(self) -> None:
        """Rebuild job records from the WAL after a restart.

        The DurableBroker constructor already replayed the queue; this
        layer replays the ``job_*`` ops and reconciles the two:

        * RUNNING records — dispatched by the previous incarnation,
          never finished — requeue; the retry resumes from the job's
          phase-boundary checkpoint (bitwise-identical, the PR-4
          contract).
        * PENDING records missing from the queue — the crash fell
          between the broker's ``take`` and the ``job_dispatch`` append
          — requeue.
        * DONE records whose result file is gone — a corruption
          demotion raced the crash — requeue.
        * Queue entries with no record — the crash fell between the
          broker's ``put`` and the ``job_submit`` append; the client
          never got its 202, so the orphan id is dropped.
        """
        torn = self.wal.torn_lines
        if torn:
            self.tracer.count("serve.wal_torn_lines", float(torn))
        states = replay_jobs(self.wal.replay())
        queued = {job_id for job_id, _prio in self.broker.entries()}
        recovered = 0
        max_seq = -1
        with self._lock:
            for job_id, state in states.items():
                if job_id.startswith("job-"):
                    try:
                        max_seq = max(max_seq, int(job_id[4:]))
                    except ValueError:
                        pass
                spec_dict = state.get("spec")
                if spec_dict is None:
                    continue
                try:
                    spec = JobSpec.from_dict(spec_dict)
                except ValidationError:
                    continue
                record = JobRecord(
                    job_id=job_id, spec=spec,
                    status=str(state.get("status", JobStatus.PENDING)),
                    attempts=int(state.get("attempts", 0)),
                    error=state.get("error"),
                    meta=state.get("meta"),
                )
                idem = state.get("idem")
                if idem is not None:
                    self._idem[str(idem)] = job_id
                if record.status == JobStatus.RUNNING:
                    record.status = JobStatus.PENDING
                    if job_id not in queued:
                        self.broker.put(job_id, spec.priority, force=True)
                    self.wal.append("job_requeue", job=job_id)
                    recovered += 1
                elif (record.status == JobStatus.PENDING
                        and job_id not in queued):
                    self.broker.put(job_id, spec.priority, force=True)
                    recovered += 1
                elif (record.status == JobStatus.DONE and not os.path.exists(
                        result_path(self.spool, job_id))):
                    record.status = JobStatus.PENDING
                    record.meta = None
                    self.broker.put(job_id, spec.priority, force=True)
                    self.wal.append("job_requeue", job=job_id)
                    recovered += 1
                self._records[job_id] = record
            for job_id in queued:
                record = self._records.get(job_id)
                if record is None or record.status != JobStatus.PENDING:
                    self.broker.cancel(job_id)
            self._next_job = max(self._next_job, max_seq + 1)
        if recovered:
            self.tracer.count("serve.jobs_recovered", float(recovered))
        for name in os.listdir(self.spool):
            if name.endswith(".tmp"):
                try:
                    os.remove(os.path.join(self.spool, name))
                except OSError:
                    pass
        self._compact()

    def _snapshot(self) -> dict:
        """The full durable state, in the shape replay reconstructs."""
        with self._lock:
            idem_by_job = {job_id: key
                           for key, job_id in self._idem.items()}
            jobs = {
                job_id: {
                    "spec": record.spec.to_dict(),
                    "status": record.status,
                    "attempts": record.attempts,
                    "error": record.error,
                    "meta": record.meta,
                    "priority": record.spec.priority,
                    "idem": idem_by_job.get(job_id),
                }
                for job_id, record in self._records.items()
            }
            queue = [[job_id, prio]
                     for job_id, prio in self.broker.entries()]
        return {"queue": queue, "jobs": jobs}

    def _compact(self) -> None:
        if self.wal is None:
            return
        # The record lock is held across BOTH the snapshot build and the
        # log rewrite: every other WAL append happens under this lock,
        # so nothing can slip a record (e.g. a submit's put/job_submit)
        # into the window between snapshotting the state and replacing
        # the file — compaction would silently erase it.  Lock order
        # stays service -> broker -> wal, same as the append paths.
        with self._lock:
            self.wal.compact(self._snapshot())
        self.tracer.count("serve.wal_compactions")

    # -- public API (any thread) ----------------------------------------

    def submit(self, spec: "JobSpec | dict", *,
               idempotency_key: "str | None" = None) -> str:
        """Accept a job; returns its id.  Raises
        :class:`~repro.utils.errors.ValidationError` on a bad spec and
        :class:`~repro.utils.errors.QueueFullError` on backpressure.

        ``idempotency_key`` makes resubmission safe: a key the service
        has already accepted returns the original job id without
        enqueuing anything — the client's retry of a submit whose
        *response* was lost must not become a second job.  Keys survive
        restarts (they ride the WAL's ``job_submit`` records and the
        compaction snapshot).
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if idempotency_key is not None:
            with self._lock:
                existing = self._idem.get(idempotency_key)
                if existing is not None and existing in self._records:
                    self.tracer.count("serve.jobs_deduped")
                    return existing
        # Validate the config fields up front so a bad spec is a 400 at
        # submit time, not a failed job minutes later.  The instance is
        # discarded; the worker rebuilds (and revalidates) its own.
        from repro.core.config import LouvainConfig

        LouvainConfig.from_dict(spec.config_fields())
        with self._lock:
            if idempotency_key is not None:
                # Re-check under the same hold that registers the key: a
                # concurrent duplicate submit must map to one job.
                existing = self._idem.get(idempotency_key)
                if existing is not None and existing in self._records:
                    self.tracer.count("serve.jobs_deduped")
                    return existing
            job_id = f"job-{self._next_job:06d}"
            try:
                self.broker.put(job_id, spec.priority)
            except Exception:
                self.tracer.count("serve.jobs_rejected")
                raise
            self._next_job += 1
            self._records[job_id] = JobRecord(
                job_id=job_id, spec=spec,
                submitted_at=monotonic() - self._started,
            )
            if idempotency_key is not None:
                self._idem[idempotency_key] = job_id
            if self.wal is not None:
                self.wal.append("job_submit", job=job_id,
                                spec=spec.to_dict(), priority=spec.priority,
                                idem=idempotency_key)
        self._fault("serve.submit")
        self.tracer.count("serve.jobs_submitted")
        self.tracer.gauge("serve.queue_depth", float(self.broker.depth()))
        self._wake.set()
        return job_id

    def status(self, job_id: str) -> "dict | None":
        with self._lock:
            record = self._records.get(job_id)
            return record.to_dict() if record is not None else None

    def jobs(self) -> list[dict]:
        with self._lock:
            return [{"job_id": r.job_id, "status": r.status}
                    for r in self._records.values()]

    def result(self, job_id: str) -> "dict | None":
        """The finished job's assignment + meta (None unless DONE).

        The result's content digest is verified on every read; a corrupt
        artifact (bit flip, truncation) demotes the job back to PENDING
        for a clean recompute — the caller sees ``None`` and keeps
        polling, never a wrong answer or a 500.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status != JobStatus.DONE:
                return None
        path = result_path(self.spool, job_id)
        try:
            communities, meta = load_result(path)
        except _SPOOL_CORRUPT_ERRORS:
            self.tracer.count("serve.spool_corrupt")
            try:
                os.remove(path)
            except OSError:
                pass
            with self._lock:
                record = self._records.get(job_id)
                if record is not None and record.status == JobStatus.DONE:
                    record.status = JobStatus.PENDING
                    record.meta = None
                    record.finished_at = None
                    self.broker.put(job_id, record.spec.priority, force=True)
                    if self.wal is not None:
                        self.wal.append("job_requeue", job=job_id)
            self._wake.set()
            return None
        return {
            "job_id": job_id,
            "communities": communities.tolist(),
            "meta": meta,
        }

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending or running job; False once terminal/unknown."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status in JobStatus.TERMINAL:
                return False
            if record.status == JobStatus.PENDING:
                self.broker.cancel(job_id)
            else:  # running: the control loop terminates its worker
                self._kill_requests.add(job_id)
            record.status = JobStatus.CANCELLED
            record.finished_at = monotonic() - self._started
            if self.wal is not None:
                self.wal.append("job_cancel", job=job_id)
        self.tracer.count("serve.jobs_cancelled")
        self._wake.set()
        return True

    def stats(self) -> dict:
        """Health summary for ``/healthz``."""
        with self._lock:
            by_status: dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "queue_depth": self.broker.depth(),
            "workers": self.pool.num_workers(),
            "jobs": by_status,
        }

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "JobService":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-control", daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.pool.close()
        if self.wal is not None:
            self._compact()
            self.wal.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: checkpoint running jobs, then stop.

        Dispatch halts, busy workers get SIGTERM — their signal-armed
        budget scope cancels the run at the next sweep boundary and
        writes a phase checkpoint (see ``_run_job``'s injected budget) —
        and the control loop requeues each drained job, so a restart
        over the same spool + WAL resumes every interrupted job exactly
        where it stopped.  Returns True when every running job drained
        inside ``timeout`` (stragglers past it are killed by
        :meth:`stop`'s pool close, which costs them at most the work
        since their last checkpoint, never correctness).
        """
        with self._lock:
            self._draining = True
        self._wake.set()
        self.pool.signal_busy(signal.SIGTERM)
        pacer = threading.Event()
        deadline = monotonic() + timeout
        while monotonic() < deadline and self.pool.busy_count() > 0:
            pacer.wait(0.05)
        drained = self.pool.busy_count() == 0
        self.stop()
        return drained

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- control loop (one thread) ---------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._tick()
            self._wake.clear()
            # Event.wait gives bounded pacing *and* instant wake-up on
            # submit/cancel; a bare sleep would add latency to both.
            self._wake.wait(self.POLL_INTERVAL_S)

    def _tick(self) -> None:
        self._service_kill_requests()
        escalated = self.pool.escalate_kills()
        if escalated:
            self.tracer.count("serve.kills_escalated", float(escalated))
        for worker_id, job_id, status, meta in self.pool.drain_done():
            self._on_done(worker_id, job_id, status, meta)
        for worker_id, job_id in self.pool.reap():
            self._on_worker_death(worker_id, job_id)
        self._dispatch()
        self._autoscale()
        if (self.wal is not None
                and self.wal.records_written >= self.compact_every):
            self._compact()
        self._publish_gauges()

    def _service_kill_requests(self) -> None:
        with self._lock:
            requests, self._kill_requests = self._kill_requests, set()
            kills = [(job_id, self._records[job_id].worker_id)
                     for job_id in requests
                     if self._records[job_id].worker_id is not None]
        for job_id, worker_id in kills:
            # expect_job guards the race where the worker finished this
            # job (completion in flight) and picked up another.
            self.pool.kill(worker_id, expect_job=job_id)

    def _on_done(self, worker_id, job_id, status, meta) -> None:
        if meta.get("recovered_corrupt_artifact"):
            # The worker found a torn/bit-flipped spool artifact, threw
            # it away and recomputed — correctness held, but the event
            # is worth a counter (disks that flip bits keep flipping).
            self.tracer.count("serve.spool_corrupt")
        cache_outcome = meta.get("graph_cache")
        if cache_outcome == "hit":
            self.tracer.count("serve.graph_cache_hits")
        elif cache_outcome is not None:
            # "miss" and "uncached" both parsed the graph.
            self.tracer.count("serve.graph_cache_misses")
        if status in ("ok", "error"):
            self._fault("serve.complete")
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status != JobStatus.RUNNING:
                return  # cancelled (or stale) — keep the terminal status
            now = monotonic() - self._started
            if status == "drained":
                # A drain's SIGTERM checkpointed the attempt; requeue so
                # the next incarnation (or a drain that beat its
                # deadline) resumes it.  Not a failure: no attempt
                # bound, no retry counter.
                record.status = JobStatus.PENDING
                record.worker_id = None
                self.broker.put(job_id, record.spec.priority, force=True)
                if self.wal is not None:
                    self.wal.append("job_requeue", job=job_id)
                self.tracer.count("serve.jobs_drained")
                return
            if status == "ok":
                record.status = JobStatus.DONE
                record.meta = meta
                record.finished_at = now
                submitted = record.submitted_at
                if self.wal is not None:
                    self.wal.append("job_finish", job=job_id,
                                    status=JobStatus.DONE, meta=meta)
            elif (meta.get("permanent")
                  or record.attempts >= record.spec.max_attempts):
                record.status = JobStatus.FAILED
                record.error = meta.get("error", "unknown error")
                record.finished_at = now
                submitted = None
                if self.wal is not None:
                    self.wal.append("job_finish", job=job_id,
                                    status=JobStatus.FAILED,
                                    error=record.error)
            else:
                # Transient runtime error: the worker survived, wrote
                # nothing — requeue for another attempt.
                record.status = JobStatus.PENDING
                record.worker_id = None
                self.broker.put(job_id, record.spec.priority, force=True)
                if self.wal is not None:
                    self.wal.append("job_requeue", job=job_id)
                self.tracer.count("serve.jobs_retried")
                return
        if status == "ok":
            self.tracer.count("serve.jobs_completed")
            self.tracer.observe("serve.job_seconds", now - submitted)
            # The checkpoint has served its purpose; the result is the
            # product (mirrors the driver: a finished run's product is
            # its result, not a checkpoint).
            try:
                os.remove(checkpoint_path(self.spool, job_id))
            except OSError:
                pass
        else:
            self.tracer.count("serve.jobs_failed")

    def _on_worker_death(self, worker_id, job_id) -> None:
        """A worker died mid-job (confirmed dead): requeue or fail."""
        self.tracer.count("serve.worker_deaths")
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status != JobStatus.RUNNING:
                return  # cancelled via kill(), or already resolved
            record.worker_id = None
            if record.attempts >= record.spec.max_attempts:
                record.status = JobStatus.FAILED
                record.error = (
                    f"worker died mid-run {record.attempts} times "
                    f"(max_attempts={record.spec.max_attempts})"
                )
                record.finished_at = monotonic() - self._started
                if self.wal is not None:
                    self.wal.append("job_finish", job=job_id,
                                    status=JobStatus.FAILED,
                                    error=record.error)
                failed = True
            else:
                record.status = JobStatus.PENDING
                self.broker.put(job_id, record.spec.priority, force=True)
                if self.wal is not None:
                    self.wal.append("job_requeue", job=job_id)
                failed = False
        if failed:
            self.tracer.count("serve.jobs_failed")
        else:
            self.tracer.count("serve.jobs_retried")

    def _dispatch(self) -> None:
        if self._draining:
            return  # drain: let running jobs checkpoint, start nothing
        while self.pool.idle_workers():
            job_id = self.broker.get_nowait()
            if job_id is None:
                break
            dispatched = False
            with self._lock:
                record = self._records.get(job_id)
                if record is None or record.status != JobStatus.PENDING:
                    continue  # cancelled between queue and dispatch
                worker_id = self.pool.assign(job_id, record.spec.to_dict())
                if worker_id is None:  # raced: no idle worker after all
                    self.broker.put(job_id, record.spec.priority, force=True)
                    break
                record.status = JobStatus.RUNNING
                record.worker_id = worker_id
                record.attempts += 1
                record.started_at = monotonic() - self._started
                if self.wal is not None:
                    self.wal.append("job_dispatch", job=job_id,
                                    attempt=record.attempts,
                                    worker=worker_id)
                dispatched = True
            if dispatched:
                self._fault("serve.dispatch")

    def _autoscale(self) -> None:
        with self._lock:
            running = sum(1 for r in self._records.values()
                          if r.status == JobStatus.RUNNING)
        desired = self.policy.desired(self.broker.depth() + running)
        while self.pool.num_workers() < desired:
            self.pool.spawn()
            self.tracer.count("serve.workers_spawned")
        if self.pool.num_workers() > desired:
            if self.pool.stop_idle(self.policy.idle_grace_s):
                self.tracer.count("serve.workers_retired")

    def _publish_gauges(self) -> None:
        self.pool.drain_heartbeats()
        tracer = self.tracer
        tracer.gauge("serve.queue_depth", float(self.broker.depth()))
        tracer.gauge("serve.workers", float(self.pool.num_workers()))
        if self.wal is not None:
            tracer.gauge("serve.wal_records",
                         float(self.wal.records_written))
        for worker_id, (ts, jobs_done, rss_mb) in (
                self.pool.heartbeats.items()):
            tracer.gauge(f"serve.worker.{worker_id}.last_heartbeat",
                         float(ts))
            tracer.gauge(f"serve.worker.{worker_id}.jobs_done",
                         float(jobs_done))
            tracer.gauge(f"serve.worker.{worker_id}.rss_mb", float(rss_mb))
