"""Process worker pool for the job service: at-least-once execution.

Jobs run in **worker processes** so a crash (OOM kill, injected fault,
segfaulting accelerator kernel) takes down one job attempt, never the
service.  The pool borrows the two structural idioms that make the
process backend's recovery sound (:mod:`repro.parallel.process_backend`):

* **per-worker task queues** — a worker killed inside a shared
  ``queue.get()`` would die holding the reader lock and poison the queue
  for every survivor; with one queue per worker a death poisons only its
  own queue, which is retired with it;
* **confirmed-dead-before-requeue** — a job is handed back to the
  service only after its worker's exit code has been reaped and the
  process joined, so two workers never run the same job concurrently.
  Worker ids are never reused (a monotonic spawn counter), so a
  completion message raced out by its sender's own death names a retired
  id and is discarded — the same staleness guard the backend's slot
  epochs provide.

At-least-once semantics live in :func:`_run_job`: the checkpoint and
result paths are pure functions of ``(spool, job_id)``
(:func:`repro.serve.job.checkpoint_path`), so a retry finds its
predecessor's last phase-boundary checkpoint (resuming is bitwise
identical to an uninterrupted run — the PR-4 contract) or, when the
predecessor died between writing the result and posting completion, the
finished result itself.

Workers deliberately do **not** catch
:class:`~repro.utils.errors.FaultInjected`: an injected fault models a
crash, so the process dies and the parent's liveness loop drives the
checkpoint-resume path — this is how the integration tests and the CI
smoke job kill workers deterministically.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import queue as queue_mod
from zipfile import BadZipFile

import numpy as np

from repro.parallel.backends import fork_available, resolve_backend_name
from repro.robust.budget import peak_memory_mb
from repro.robust.checkpoint import DIGEST_KEY, digest_arrays
from repro.serve.graph_cache import GraphCache
from repro.serve.job import JobSpec, checkpoint_path, result_path
from repro.utils.errors import (
    CheckpointError,
    FaultInjected,
    GraphFormatError,
    ValidationError,
)
from repro.utils.timing import monotonic

__all__ = ["WorkerPool", "load_result"]

#: Worker-side task-queue wait; bounds how long an orphaned worker
#: (parent gone) lingers before noticing.
_WORKER_POLL_S = 0.5

#: Statuses a worker may post for a finished attempt.  ``"error"`` means
#: the run raised but the worker survived; ``"permanent"`` marks errors
#: retries cannot fix (bad spec, bad graph ref, checkpoint mismatch);
#: ``"drained"`` means a SIGTERM drain cancelled the attempt at a sweep
#: boundary after checkpointing — requeue, don't count it as a failure.
_DONE_STATUSES = ("ok", "error", "drained")

#: What :meth:`WorkerPool.wake` posts on the completion queue.  It ends
#: the control loop's :meth:`WorkerPool.wait`; :meth:`WorkerPool.drain_done`
#: drops it like any message that is not a completion.
_WAKE = ("wake",)

#: Cancellation reasons that mean "the service is draining", not "the
#: job's own budget expired" — the attempt stops without a result file.
_DRAIN_REASONS = frozenset({"sigterm", "sigint"})

#: What a corrupt spool artifact raises on load: digest mismatch
#: (CheckpointError), torn zip (BadZipFile), truncation/IO (OSError,
#: ValueError), or a missing entry (KeyError).
_SPOOL_CORRUPT_ERRORS = (CheckpointError, BadZipFile, OSError, ValueError,
                         KeyError)


def load_result(path: str) -> "tuple[np.ndarray, dict]":
    """Load a result file, verifying its content digest.

    Raises :class:`~repro.utils.errors.CheckpointError` on a digest
    mismatch (bit flip) and the zip/IO errors on truncation — callers
    treat any of :data:`_SPOOL_CORRUPT_ERRORS` as "this artifact is
    corrupt, recompute" rather than crashing (digest-less files from
    older spools still load).
    """
    with open(path, "rb") as fh:
        data = np.load(fh, allow_pickle=False)
        arrays = {name: data[name] for name in data.files}
    stored = arrays.pop(DIGEST_KEY, None)
    if stored is not None and str(stored[()]) != digest_arrays(arrays):
        raise CheckpointError(
            f"{path}: result content digest mismatch — the spool "
            "artifact is corrupt"
        )
    return arrays["communities"], json.loads(str(arrays["meta"]))


def _write_result(path: str, communities: np.ndarray, meta: dict) -> None:
    # Atomic: a parallel reader (or a retry racing this attempt's death)
    # sees the old file or the new one, never a torn write.  The digest
    # travels inside the archive, so atomicity covers it too.
    arrays = {
        "communities": np.asarray(communities),
        "meta": np.asarray(json.dumps(meta, sort_keys=True)),
    }
    arrays[DIGEST_KEY] = np.asarray(digest_arrays(arrays))
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def _run_job(job_id: str, spec: JobSpec, spool: str,
             graphs: GraphCache) -> "tuple[str, dict]":
    """Execute one job attempt; returns ``(status, meta)``.

    ``status`` is ``"ok"`` (result written) or ``"drained"`` (a service
    drain's SIGTERM cancelled the attempt at a sweep boundary after
    checkpointing; no result exists yet — the next attempt resumes).

    Resume rules mirror ``repro robust resume``: the fault plan that
    interrupted a previous attempt is never re-injected (the point of
    retrying is to finish the work), and the checkpoint fingerprint is
    validated by the loader itself.  Corrupt spool artifacts (digest
    mismatch, torn zip) are removed and recomputed rather than failing
    the job — ``meta["recovered_corrupt_artifact"]`` tells the service
    to count the event.

    ``spec.graph`` resolves through the worker's ``graphs`` cache;
    ``meta["graph_cache"]`` says whether it was a ``"hit"``, a
    ``"miss"`` or ``"uncached"``.  ``meta["elapsed"]`` includes the
    resolution either way.  A cached graph's phase-0 colors are reused
    by every fresh run on it with the same coloring settings.
    """
    from repro.core.config import LouvainConfig
    from repro.core.driver import louvain
    from repro.core.pipeline import use_phase_colors

    recovered_corrupt = False
    res_path = result_path(spool, job_id)
    if os.path.exists(res_path):
        # A previous attempt finished but died before posting completion:
        # the work is done, just report it (at-least-once idempotency) —
        # unless the artifact is corrupt, in which case recompute.
        try:
            _communities, meta = load_result(res_path)
            return "ok", meta
        except _SPOOL_CORRUPT_ERRORS:
            recovered_corrupt = True
            os.remove(res_path)
    ckpt_path = checkpoint_path(spool, job_id)
    fields = spec.config_fields()
    fields["backend"] = resolve_backend_name(fields.get("backend", "serial"))
    resume = ckpt_path if os.path.exists(ckpt_path) else None
    resumed_from = None
    if resume is not None:
        from repro.robust.checkpoint import load_checkpoint

        try:
            resumed_from = load_checkpoint(resume).phase_index
        except CheckpointError:
            # Torn/bit-flipped checkpoint: demote to "start over" — the
            # digest check exists precisely so a corrupt resume becomes
            # a clean recompute, not a wrong answer or a permanent fail.
            recovered_corrupt = True
            os.remove(resume)
            resume = None
        else:
            # Never re-inject the fault that killed the previous attempt.
            fields["fault_plan"] = None
    if fields.get("budget") is None:
        # A signal-only budget arms cooperative SIGTERM draining: the
        # service's drain sends SIGTERM, the run cancels at the next
        # sweep boundary and writes a phase checkpoint.  A boundless
        # budget has zero pressure, so results are untouched — and
        # ``budget`` is a nonsemantic field, so the checkpoint
        # fingerprint (and thus resumability) is unchanged.
        fields["budget"] = {"handle_signals": True}
    config = LouvainConfig.from_dict(fields)
    start = monotonic()
    graph, cache_outcome = graphs.resolve(spec.graph)
    with use_phase_colors(graph, graphs.phase_colors(graph)):
        result = louvain(graph=graph, config=config,
                         checkpoint=ckpt_path, resume=resume)
    meta = {
        "modularity": float(result.modularity),
        "num_communities": int(result.num_communities),
        "phases": int(result.num_phases),
        "iterations": int(result.total_iterations),
        "resumed_from_phase": resumed_from,
        "elapsed": monotonic() - start,
        "graph_cache": cache_outcome,
    }
    if recovered_corrupt:
        meta["recovered_corrupt_artifact"] = True
    if result.budget_outcome is not None and result.budget_outcome.cancelled:
        if result.budget_outcome.reason in _DRAIN_REASONS:
            # Drained, not done: writing a partial result here would
            # short-circuit the restart's retry to a wrong answer.
            return "drained", meta
        meta["budget_cancelled"] = result.budget_outcome.reason
    _write_result(res_path, result.communities, meta)
    return "ok", meta


def _worker_main(worker_id, task_q, done_q, hb_q, spool, parent_pid):
    """Worker loop: run job tasks until the ``None`` sentinel (or orphaned).

    A task is ``(job_id, spec_dict)``.  Completion messages are
    ``("done", worker_id, job_id, status, meta)``; heartbeats ride the
    dedicated ``hb_q`` as ``("hb", worker_id, ts, jobs_done, rss_mb)``
    so completion-message validation never sees them.  Heartbeats are
    advisory — a lost one costs a gauge update, never a result.

    The worker's :class:`~repro.serve.graph_cache.GraphCache` lives in
    this frame: it starts empty in every worker and dies with it.
    """
    jobs_done = 0
    graphs = GraphCache()

    def _heartbeat() -> None:
        try:
            hb_q.put_nowait(("hb", worker_id, monotonic(), jobs_done,
                             peak_memory_mb() or 0.0))
        except (queue_mod.Full, OSError, ValueError):
            pass

    _heartbeat()
    while True:
        try:
            task = task_q.get(timeout=_WORKER_POLL_S)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                break  # orphaned: the parent is gone
            _heartbeat()
            continue
        if task is None:
            break
        job_id, spec_dict = task
        try:
            spec = JobSpec.from_dict(spec_dict)
            status, meta = _run_job(job_id, spec, spool, graphs)
        except FaultInjected:
            raise  # modelled crash: die; the parent requeues and resumes
        except (ValidationError, GraphFormatError, CheckpointError) as exc:
            # Deterministic spec/input errors: retrying cannot help.
            done_q.put(("done", worker_id, job_id, "error",
                        {"error": f"{type(exc).__name__}: {exc}",
                         "permanent": True}))
            continue
        except Exception as exc:
            done_q.put(("done", worker_id, job_id, "error",
                        {"error": f"{type(exc).__name__}: {exc}",
                         "permanent": False}))
            continue
        jobs_done += 1
        _heartbeat()
        done_q.put(("done", worker_id, job_id, status, meta))


class _WorkerSlot:
    """One live worker: process + private task queue + current job."""

    __slots__ = ("worker_id", "process", "task_q", "job_id", "idle_since",
                 "stopping", "kill_job", "kill_deadline")

    def __init__(self, worker_id: int, process, task_q):
        self.worker_id = worker_id
        self.process = process
        self.task_q = task_q
        self.job_id: "str | None" = None
        self.idle_since = monotonic()
        self.stopping = False
        #: Pending-kill state: the job the worker was SIGTERMed over and
        #: the deadline after which :meth:`WorkerPool.escalate_kills`
        #: sends SIGKILL if it is still running that job.
        self.kill_job: "str | None" = None
        self.kill_deadline: "float | None" = None


class WorkerPool:
    """Spawn/assign/reap job workers (driven by the service control loop).

    All methods are intended to be called from one thread (the service's
    control loop) plus :meth:`close` at shutdown and :meth:`wake` from
    any thread; the pool itself holds no locks.  The loop blocks in
    :meth:`wait` on the completion queue, so a worker's completion
    message and a :meth:`wake` token both end its wait at once.
    ``fork`` is preferred (zero-cost module inheritance); spawn-only
    platforms work too because tasks are plain JSON-able data and
    :func:`_worker_main` is a module-level function.
    """

    #: Seconds a kill()ed worker gets to honor SIGTERM (checkpoint at a
    #: sweep boundary) before :meth:`escalate_kills` sends SIGKILL.
    KILL_GRACE_S = 5.0

    def __init__(self, spool: str):
        self.spool = spool
        self._ctx = mp.get_context("fork" if fork_available() else "spawn")
        self._done_q = self._ctx.Queue()
        self._hb_q = self._ctx.Queue()
        self._slots: dict[int, _WorkerSlot] = {}
        self._next_id = 0
        self._retired_queues: list = []
        #: The message that ended the last :meth:`wait`, not yet drained.
        self._held = None
        #: Freshest advisory heartbeat per live worker id.
        self.heartbeats: dict[int, tuple] = {}

    # -- pool management ------------------------------------------------

    def spawn(self) -> int:
        """Start one worker; returns its (never-reused) id."""
        worker_id = self._next_id
        self._next_id += 1
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._done_q, self._hb_q, self.spool,
                  os.getpid()),
            daemon=True,
        )
        process.start()
        self._slots[worker_id] = _WorkerSlot(worker_id, process, task_q)
        return worker_id

    def num_workers(self) -> int:
        return len(self._slots)

    def idle_workers(self) -> "list[_WorkerSlot]":
        return [s for s in self._slots.values()
                if s.job_id is None and not s.stopping]

    def assign(self, job_id: str, spec_dict: dict) -> "int | None":
        """Hand a job to an idle worker; returns its id (None when busy)."""
        idle = self.idle_workers()
        if not idle:
            return None
        slot = min(idle, key=lambda s: s.worker_id)
        slot.job_id = job_id
        slot.task_q.put((job_id, spec_dict))
        return slot.worker_id

    def stop_idle(self, idle_grace_s: float) -> int:
        """Sentinel one worker that has been idle past the grace period."""
        now = monotonic()
        for slot in self.idle_workers():
            if now - slot.idle_since >= idle_grace_s:
                slot.stopping = True
                slot.task_q.put(None)
                return 1
        return 0

    def kill(self, worker_id: int,
             expect_job: "str | None" = None) -> bool:
        """Terminate a worker (the cancel-running-job path), escalating.

        ``expect_job`` guards the cancel-vs-completion race: by the time
        the control loop services a kill request the worker may have
        finished that job (completion message in flight) and taken a new
        one — killing it then would murder an innocent job's attempt.

        The SIGTERM is cooperative: the worker's signal-armed budget
        scope cancels at the next *sweep boundary*, so a stalled or very
        long sweep could otherwise ignore the one-shot kill forever.
        :meth:`escalate_kills` (called every control-loop tick) sends
        SIGKILL once :attr:`KILL_GRACE_S` passes without the worker
        leaving the job.
        """
        slot = self._slots.get(worker_id)
        if slot is None:
            return False
        if expect_job is not None and slot.job_id != expect_job:
            return False
        slot.process.terminate()
        slot.kill_job = slot.job_id
        slot.kill_deadline = monotonic() + self.KILL_GRACE_S
        return True

    def escalate_kills(self) -> int:
        """SIGKILL workers that ignored :meth:`kill`'s SIGTERM.

        A worker still running the job it was told to abandon after the
        grace period gets the non-catchable signal; :meth:`reap` then
        retires it like any other death.  Workers that finished the job
        in the meantime (completion drained, ``job_id`` moved on) are
        spared — the pending kill is stale, exactly the ``expect_job``
        guard one level later.
        """
        count = 0
        now = monotonic()
        for slot in list(self._slots.values()):
            if slot.kill_deadline is None or now < slot.kill_deadline:
                continue
            if (slot.job_id is not None and slot.job_id == slot.kill_job
                    and slot.process.exitcode is None):
                slot.process.kill()
                count += 1
            slot.kill_deadline = None
            slot.kill_job = None
        return count

    def signal_busy(self, sig: int) -> int:
        """Send ``sig`` to every worker currently running a job.

        The drain path: SIGTERM reaches the worker's signal-armed budget
        scope, which cancels the run at the next sweep boundary and
        checkpoints (see :func:`_run_job`'s injected budget).  Called
        from the drain caller's thread while the control loop mutates
        the pool, hence the snapshot copy of the slot table.
        """
        count = 0
        for slot in list(self._slots.values()):
            if (slot.job_id is not None and slot.process.pid is not None
                    and slot.process.exitcode is None):
                try:
                    os.kill(slot.process.pid, sig)
                except OSError:
                    continue
                count += 1
        return count

    def busy_count(self) -> int:
        """Workers currently running a job (what a drain waits on).

        Snapshot-copied for the same cross-thread reason as
        :meth:`signal_busy`.
        """
        return sum(1 for s in list(self._slots.values())
                   if s.job_id is not None)

    def _retire(self, slot: _WorkerSlot) -> None:
        slot.process.join()
        del self._slots[slot.worker_id]
        self.heartbeats.pop(slot.worker_id, None)
        self._retired_queues.append(slot.task_q)

    def reap(self) -> "list[tuple[int, str]]":
        """Collect confirmed-dead workers; returns their orphaned jobs.

        Each ``(worker_id, job_id)`` pair names a job whose worker died
        mid-run — safe to requeue *because* the process has been joined
        first.  Clean exits (sentinel honored, or idle crash) carry no
        job and are retired silently.
        """
        orphans: list[tuple[int, str]] = []
        for slot in list(self._slots.values()):
            if slot.process.exitcode is None:
                continue
            job_id = slot.job_id
            self._retire(slot)
            if job_id is not None and not slot.stopping:
                orphans.append((slot.worker_id, job_id))
        return orphans

    # -- message drains -------------------------------------------------

    def wake(self) -> None:
        """End a pending :meth:`wait` now (callable from any thread).

        The token rides the completion queue, so a wake posted while the
        control loop is busy waits there for its next :meth:`wait`
        instead of being lost.
        """
        try:
            self._done_q.put(_WAKE)
        except (OSError, ValueError):
            pass  # queue closed: the pool is shut down, nothing to wake

    def wait(self, timeout: float) -> None:
        """Block until a completion message or a wake token arrives, or
        ``timeout`` seconds pass.  The message is kept for the next
        :meth:`drain_done`, which handles it first."""
        if self._held is not None:
            return
        try:
            self._held = self._done_q.get(timeout=timeout)
        except (queue_mod.Empty, OSError, EOFError):
            pass

    def drain_done(self) -> "list[tuple[int, str, str, dict]]":
        """Non-blocking drain of validated completion messages.

        Wake tokens, malformed messages (a dying worker can truncate a
        put) and messages from retired worker ids (raced out by the
        sender's own death — the job has been or will be requeued) are
        dropped.
        """
        out: list[tuple[int, str, str, dict]] = []
        while True:
            if self._held is not None:
                msg, self._held = self._held, None
            else:
                try:
                    msg = self._done_q.get_nowait()
                except (queue_mod.Empty, OSError, EOFError):
                    break
            if not (isinstance(msg, tuple) and len(msg) == 5
                    and msg[0] == "done" and isinstance(msg[1], int)
                    and isinstance(msg[2], str) and msg[3] in _DONE_STATUSES
                    and isinstance(msg[4], dict)):
                continue
            _tag, worker_id, job_id, status, meta = msg
            slot = self._slots.get(worker_id)
            if slot is None:
                continue  # stale: sender already retired
            if slot.job_id == job_id:
                slot.job_id = None
                slot.idle_since = monotonic()
                if slot.kill_job == job_id:
                    # The worker outran its pending kill (drained or
                    # finished); don't escalate over a completed job.
                    slot.kill_job = None
                    slot.kill_deadline = None
            out.append((worker_id, job_id, status, meta))
        return out

    def drain_heartbeats(self) -> None:
        """Fold queued heartbeats into :attr:`heartbeats` (non-blocking)."""
        while True:
            try:
                msg = self._hb_q.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                break
            if not (isinstance(msg, tuple) and len(msg) == 5
                    and msg[0] == "hb" and isinstance(msg[1], int)):
                continue
            if msg[1] in self._slots:
                self.heartbeats[msg[1]] = msg[2:]

    # -- shutdown -------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Sentinel every worker, join with a deadline, escalate, clean up."""
        for slot in self._slots.values():
            if slot.process.exitcode is None and not slot.stopping:
                slot.stopping = True
                slot.task_q.put(None)
        deadline = monotonic() + timeout
        for slot in list(self._slots.values()):
            slot.process.join(timeout=max(0.1, deadline - monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=5)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=5)
        queues = [s.task_q for s in self._slots.values()]
        queues += self._retired_queues + [self._done_q, self._hb_q]
        for q in queues:
            q.close()
            q.cancel_join_thread()
        self._retired_queues = []
        self._slots = {}
