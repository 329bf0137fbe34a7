"""True parallel sweeps via worker processes (the GIL workaround).

CPython threads cannot run the sweep kernel concurrently; worker
*processes* can.  This backend gives each sweep real CPU parallelism with
zero result difference (the Jacobi snapshot semantics make chunk order
irrelevant):

* the **read-only graph** reaches workers for free through ``fork``
  (copy-on-write inheritance — no pickling, no copying);
* the **per-iteration state** (community labels/degrees/sizes), the active
  vertex list and the output targets live in ``multiprocessing.shared_memory``
  buffers the parent refreshes before each sweep;
* workers loop on **per-worker task queues** of contiguous chunk slices,
  run the ordinary vectorized kernel, and write their targets into their
  disjoint output slice.

Failure is a first-class input here (``docs/robustness.md``).  The result
loop never blocks without a deadline; each chunk carries one, and the
parent polls worker liveness between waits.  When a worker dies or
misses its deadline the executor **recovers**: the dead worker's chunks
are requeued (bounded retries with proportional backoff,
:class:`~repro.robust.recovery.RetryPolicy`), the worker is respawned
while the respawn budget lasts and excised afterwards, and a pool that
loses every worker raises :class:`~repro.utils.errors.WorkerPoolError` —
which :class:`ProcessBackend` absorbs by falling back to in-process
serial execution.  Because the Jacobi snapshot makes chunk recomputation
idempotent, every recovery path yields **bitwise identical** results.

Two structural choices make recovery sound:

* **per-worker task queues** — a worker SIGKILLed inside a shared
  ``task_q.get()`` would die holding the queue's reader lock and poison
  it for every survivor (sentinels could never be delivered).  With one
  queue per worker, a dead worker can only poison its own queue, which
  the parent retires with it;
* **epochs** — every (re)spawn and excision bumps the slot's epoch, and
  completion messages carry the epoch they were produced under, so a
  message from a terminated worker that raced its own death is discarded
  instead of completing a chunk that has since been reassigned.  A chunk
  is requeued only once its assigned worker is *confirmed dead* (reaped
  exitcode, or terminated-and-joined on deadline), so two workers never
  write the same output slice concurrently.

Because phases run on different (coarsened) graphs, the backend keeps one
:class:`_SweepExecutor` per graph and retires them on :meth:`close` — the
driver's ``finally`` already does that.

Limits: requires the ``fork`` start method (Linux/macOS), and the win is
bounded by the machine (this repository's evaluation machine has 2 cores;
the cost model, not this backend, produces the 32-thread figures — see
DESIGN.md §1).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
from contextlib import nullcontext
from multiprocessing import shared_memory

import numpy as np

from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.parallel.backends import ExecutionBackend
from repro.parallel.chunking import edge_balanced_partition
from repro.robust.budget import get_budget, peak_memory_mb
from repro.robust.faults import FaultInjector, apply_chunk_fault, get_injector
from repro.robust.recovery import RecoveryStats, RetryPolicy
from repro.utils.errors import ValidationError, WorkerPoolError
from repro.utils.timing import monotonic

__all__ = ["ProcessBackend"]

#: Overall budget for draining worker trace buffers at close().
_CLOSE_DRAIN_S = 5.0
#: Worker-side task-queue wait; bounds how long an orphaned worker
#: (parent gone) lingers before noticing.
_WORKER_POLL_S = 1.0

#: Completion statuses a worker may post.  ``"ok"``: targets written.
#: ``"error"``: the kernel raised — the worker is alive and wrote
#: nothing, so the parent may requeue immediately without killing it.
_DONE_STATUSES = ("ok", "error")


def _worker_main(graph, shm_names, n, worker_id, epoch, task_q, done_q,
                 trace_q, hb_q, fault_plan, parent_pid):
    """Worker loop: attach shared buffers, serve chunk tasks until told.

    ``graph`` arrives through fork inheritance (read-only).  A task is
    ``(chunk_index, offset, length, use_min_label, resolution,
    aggregation, sanitize)`` into the shared active array; ``None`` shuts
    the worker down.  Completion messages are
    ``(worker_id, epoch, chunk_index, status)`` — the epoch stamp is how
    the parent discards messages raced out by this worker's own death.
    The queue wait is timed so an orphaned worker (parent died; ``getppid``
    changed) exits instead of lingering forever.

    **Heartbeats** ride a dedicated queue (``hb_q``): the strict 4-tuple
    validation of completion messages must never see them.  The worker
    posts ``("hb", worker_id, epoch, monotonic(), chunks_done, rss_mb)``
    at startup, after every chunk, and on every idle poll timeout; the
    parent folds the freshest one per worker into per-worker liveness/
    progress gauges (``worker.<id>.last_heartbeat`` etc.) on the live
    registry, which is what ``repro obs serve`` and the recovery loop's
    future autoscaler read.  Heartbeats are advisory: a lost or stale one
    costs a gauge update, never a result.

    Each worker builds its **own** :class:`~repro.robust.faults.FaultInjector`
    from the plan string it was spawned with (respawned replacements get
    ``None``, so the fault that killed a worker cannot kill its
    replacement).  A matched chunk fault is applied *before* the kernel
    runs: ``kill`` never returns, ``stall``/``slow`` sleep, ``corrupt``
    computes and writes normally but posts a malformed completion message.

    Tracing mirrors the per-worker workspace pattern: the fork inherits
    the parent's ambient tracer, whose ``enabled`` flag decides whether
    the worker installs a fresh *local* :class:`~repro.obs.trace.Tracer`
    (its events buffer in-process — no cross-process synchronization on
    the hot path).  At shutdown the buffered events and the metrics
    snapshot are posted on ``trace_q`` for the parent to merge at join;
    span ids are unique per pid, so merged streams cannot collide.

    Each worker owns a private :class:`SweepWorkspace` (scratch buffers are
    process-local, so no sharing hazards).  Gather plans are keyed by the
    chunk's ``(offset, length)`` slice; the workspace verifies a keyed hit
    against the actual vertex contents, so plans are reused across the
    iterations of a phase and transparently rebuilt when frontier pruning
    changes the active set.

    With ``sanitize`` the worker freezes its *own* shared-memory state
    views around the kernel call — the parent's freeze covers only the
    parent's arrays, and the snapshot contract must hold on both sides of
    the fork.  The targets view stays writable: disjoint output slices
    are each worker's sanctioned write.
    """
    from repro.core.sweep import SweepState, compute_targets_vectorized
    from repro.core.workspace import SweepWorkspace
    from repro.lint.sanitizer import frozen_snapshot

    tracer = Tracer(enabled=get_tracer().enabled)
    set_tracer(tracer)
    injector = FaultInjector.from_plan(fault_plan)
    segs = {name: shared_memory.SharedMemory(name=shm_names[name])
            for name in shm_names}
    comm = np.ndarray((n,), dtype=np.int64, buffer=segs["comm"].buf)
    degree = np.ndarray((n,), dtype=np.float64, buffer=segs["degree"].buf)
    size = np.ndarray((n,), dtype=np.int64, buffer=segs["size"].buf)
    active = np.ndarray((n,), dtype=np.int64, buffer=segs["active"].buf)
    targets = np.ndarray((n,), dtype=np.int64, buffer=segs["targets"].buf)
    state = SweepState(comm, degree, size)
    workspace = SweepWorkspace(graph)
    chunks_done = 0

    def _heartbeat() -> None:
        # Advisory liveness signal; a full/closed queue must never stall
        # or crash chunk work.
        try:
            hb_q.put_nowait(("hb", worker_id, epoch, monotonic(),
                             chunks_done, peak_memory_mb() or 0.0))
        except (queue_mod.Full, OSError, ValueError):
            pass

    try:
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
            (chunk_index, offset, length, use_min_label, resolution,
             aggregation, sanitize) = task
            spec = injector.on_chunk(worker_id, chunk_index)
            corrupt = apply_chunk_fault(spec) if spec is not None else False
            try:
                # Copy the slice out of shared memory: plan caching compares
                # (and retains) the vertex array, so it must be stable.
                # Plans are keyed by chunk slot: a pruned frontier changes
                # the chunk's extent every iteration, and the rebuilt plan
                # must replace the stale one, not pile up beside it.
                verts = active[offset:offset + length].copy()
                guard = frozen_snapshot(state) if sanitize else nullcontext()
                with tracer.span("worker_chunk", offset=offset,
                                 length=length):
                    with guard:
                        out = compute_targets_vectorized(
                            graph, state, verts,
                            use_min_label=use_min_label,
                            resolution=resolution,
                            workspace=workspace, aggregation=aggregation,
                            plan_key=("chunk", chunk_index),
                        )
                tracer.observe("worker.chunk_vertices", length)
                tracer.observe("worker.cached_plans",
                               workspace.num_cached_plans)
                targets[offset:offset + length] = out
            except Exception:
                done_q.put((worker_id, epoch, chunk_index, "error"))
                continue
            chunks_done += 1
            _heartbeat()
            if corrupt:
                done_q.put(("corrupt",))
            else:
                done_q.put((worker_id, epoch, chunk_index, "ok"))
    finally:
        trace_q.put((
            os.getpid(),
            [event.to_dict() for event in tracer.events],
            tracer.metrics.snapshot() if tracer.enabled else None,
        ))
        for seg in segs.values():
            seg.close()


class _WorkerSlot:
    """One worker position: process + private task queue + epoch.

    The slot object is stable across respawns; only its process, queue
    and epoch change.  ``alive`` is the parent's view — it flips False
    when the parent reaps or terminates the process, *before* any of the
    slot's chunks are requeued.
    """

    __slots__ = ("worker_id", "process", "task_q", "epoch", "alive")

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.process = None
        self.task_q = None
        self.epoch = -1
        self.alive = False


class _ChunkRecord:
    """Parent-side bookkeeping for one in-flight chunk."""

    __slots__ = ("offset", "length", "task_args", "slot", "deadline",
                 "retries")

    def __init__(self, offset: int, length: int, task_args: tuple):
        self.offset = offset
        self.length = length
        self.task_args = task_args  # (use_min_label, resolution, agg, san)
        self.slot: "_WorkerSlot | None" = None
        self.deadline = 0.0
        self.retries = 0


class _SweepExecutor:
    """Worker pool + shared buffers bound to one graph."""

    def __init__(self, graph, num_workers: int,
                 policy: "RetryPolicy | None" = None,
                 recovery: "RecoveryStats | None" = None):
        self.graph = graph
        self.num_workers = num_workers
        self.policy = policy or RetryPolicy()
        self.recovery = recovery if recovery is not None else RecoveryStats()
        n = max(1, graph.num_vertices)
        self._n = n
        self._ctx = mp.get_context("fork")
        self._segments = {
            "comm": shared_memory.SharedMemory(create=True, size=8 * n),
            "degree": shared_memory.SharedMemory(create=True, size=8 * n),
            "size": shared_memory.SharedMemory(create=True, size=8 * n),
            "active": shared_memory.SharedMemory(create=True, size=8 * n),
            "targets": shared_memory.SharedMemory(create=True, size=8 * n),
        }
        self._views = {
            "comm": np.ndarray((n,), np.int64,
                               buffer=self._segments["comm"].buf),
            "degree": np.ndarray((n,), np.float64,
                                 buffer=self._segments["degree"].buf),
            "size": np.ndarray((n,), np.int64,
                               buffer=self._segments["size"].buf),
            "active": np.ndarray((n,), np.int64,
                                 buffer=self._segments["active"].buf),
            "targets": np.ndarray((n,), np.int64,
                                  buffer=self._segments["targets"].buf),
        }
        self._done_q = self._ctx.Queue()
        self._trace_q = self._ctx.Queue()
        self._hb_q = self._ctx.Queue()
        self._retired_queues: list = []
        # Captured at construction (inside the driver's use_tracer /
        # use_faults scope): workers fork with this tracer ambient and
        # are spawned with this fault plan; their buffered trace events
        # merge back into the tracer at close().  Respawned replacements
        # get no plan — the fault that killed a worker must not kill its
        # replacement.
        self._tracer = get_tracer()
        self._fault_plan = get_injector().plan
        # The run's budget controller: caps per-chunk retry deadlines to
        # the remaining global deadline and stops respawns once the run
        # is cancelling (the driver installs it before building backends).
        self._budget = get_budget()
        self._names = {k: seg.name for k, seg in self._segments.items()}
        self._respawns_used = 0
        self._rr = 0  # round-robin cursor for chunk (re)assignment
        self._slots = [_WorkerSlot(i) for i in range(num_workers)]
        for slot in self._slots:
            self._spawn(slot, self._fault_plan)

    # -- pool management ------------------------------------------------

    def _spawn(self, slot: _WorkerSlot, fault_plan: "str | None") -> None:
        """(Re)start ``slot`` with a fresh private queue and a new epoch."""
        if slot.task_q is not None:
            self._retired_queues.append(slot.task_q)
        slot.epoch += 1
        slot.task_q = self._ctx.Queue()
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(self.graph, self._names, self._n, slot.worker_id,
                  slot.epoch, slot.task_q, self._done_q, self._trace_q,
                  self._hb_q, fault_plan, os.getpid()),
            daemon=True,
        )
        slot.process.start()
        slot.alive = True

    def _alive_slots(self) -> "list[_WorkerSlot]":
        return [s for s in self._slots if s.alive]

    def _assign(self, index: int, rec: _ChunkRecord) -> None:
        """Queue chunk ``index`` on the next alive worker (round-robin)."""
        alive = self._alive_slots()
        if not alive:
            raise WorkerPoolError(
                "all workers died mid-sweep and the respawn budget is "
                "exhausted"
            )
        slot = alive[self._rr % len(alive)]
        self._rr += 1
        rec.slot = slot
        rec.deadline = monotonic() + self.policy.deadline_for(
            rec.retries, remaining=self._budget.deadline_remaining()
        )
        slot.task_q.put((index, rec.offset, rec.length) + rec.task_args)

    def _recover_chunk(self, index: int, rec: _ChunkRecord) -> None:
        """Requeue a chunk whose worker died, stalled, or errored."""
        rec.retries += 1
        self.recovery.retries += 1
        self._tracer.count("worker.retries")
        if rec.retries > self.policy.max_retries:
            raise WorkerPoolError(
                f"chunk {index} failed {rec.retries} times "
                f"(retry budget {self.policy.max_retries} exhausted)"
            )
        self._assign(index, rec)

    def _on_slot_death(self, slot: _WorkerSlot, pending: dict) -> None:
        """A worker is confirmed dead: respawn or excise, requeue its work.

        Callers must have reaped the process (``exitcode`` set) or
        terminated-and-joined it first — that confirmation is what makes
        requeueing safe (the dead worker can no longer write its slice).
        The epoch bumps on *both* paths, so a completion message the
        worker raced out just before dying is discarded as stale.
        """
        slot.alive = False
        slot.process.join()
        self.recovery.deaths += 1
        self._tracer.count("worker.deaths")
        self._tracer.gauge(f"worker.{slot.worker_id}.alive", 0.0)
        with self._tracer.span("recovery", cat="robust",
                               worker=slot.worker_id,
                               exitcode=slot.process.exitcode):
            if (self._respawns_used < self.policy.respawn_budget(
                    self.num_workers)
                    and not self._budget.should_stop()):
                # A cancelling run never forks replacements — excising
                # the slot lets the sweep drain (or fall back to serial)
                # inside what is left of the budget.
                self._respawns_used += 1
                self.recovery.respawns += 1
                self._tracer.count("worker.respawns")
                self._spawn(slot, fault_plan=None)
            else:
                slot.epoch += 1  # excised: stale-message guard only
            for index, rec in list(pending.items()):
                if rec.slot is slot:
                    self._recover_chunk(index, rec)

    def _drain_heartbeats(self) -> None:
        """Fold queued heartbeats into per-worker gauges (non-blocking).

        Heartbeats are validated defensively (a dying worker can truncate
        a put) and stale epochs are dropped, mirroring the completion-
        message discipline.  Publishing goes through the trace-gated
        gauge helpers, so with tracing off this only empties the queue.
        """
        while True:
            try:
                msg = self._hb_q.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                break
            if not (isinstance(msg, tuple) and len(msg) == 6
                    and msg[0] == "hb" and isinstance(msg[1], int)
                    and isinstance(msg[2], int)
                    and 0 <= msg[1] < len(self._slots)):
                continue
            _tag, worker_id, epoch, ts, chunks_done, rss_mb = msg
            slot = self._slots[worker_id]
            if epoch != slot.epoch:
                continue  # posted before a respawn/excision; stale
            tracer = self._tracer
            tracer.gauge(f"worker.{worker_id}.last_heartbeat", float(ts))
            tracer.gauge(f"worker.{worker_id}.chunks_done",
                         float(chunks_done))
            tracer.gauge(f"worker.{worker_id}.rss_mb", float(rss_mb))
            tracer.gauge(f"worker.{worker_id}.alive",
                         1.0 if slot.alive else 0.0)
        self._tracer.gauge("worker.pool_alive",
                           float(len(self._alive_slots())))

    def _check_liveness(self, pending: dict) -> None:
        """Reap dead workers; terminate deadline-missers; requeue chunks."""
        for slot in self._slots:
            if slot.alive and slot.process.exitcode is not None:
                self._on_slot_death(slot, pending)
        now = monotonic()
        stalled = {
            rec.slot for rec in pending.values()
            if rec.slot is not None and rec.slot.alive and now > rec.deadline
        }
        for slot in stalled:
            self.recovery.stalls += 1
            self._tracer.count("worker.stalls")
            slot.process.terminate()
            slot.process.join(timeout=5)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=5)
            self._on_slot_death(slot, pending)

    # -- sweep ----------------------------------------------------------

    def compute_targets(self, state, vertices, *, use_min_label: bool,
                        resolution: float,
                        aggregation: "str | None" = None,
                        sanitize: bool = False) -> np.ndarray:
        count = vertices.shape[0]
        nv = state.comm.shape[0]
        self._views["comm"][:nv] = state.comm
        self._views["degree"][:nv] = state.comm_degree
        self._views["size"][:nv] = state.comm_size
        self._views["active"][:count] = vertices
        chunks = edge_balanced_partition(
            vertices, self.graph.indptr, self.num_workers
        )
        task_args = (use_min_label, resolution, aggregation, sanitize)
        pending: dict[int, _ChunkRecord] = {}
        offset = 0
        for index, chunk in enumerate(chunks):
            pending[index] = _ChunkRecord(offset, chunk.shape[0], task_args)
            offset += chunk.shape[0]
        if self._tracer.enabled and pending:
            sizes = [chunk.shape[0] for chunk in chunks if chunk.shape[0]]
            mean = sum(sizes) / len(sizes)
            self._tracer.gauge(
                "worker.chunk_imbalance",
                (max(sizes) / mean) if mean else 1.0,
            )
        for index, rec in pending.items():
            self._assign(index, rec)
        # Deadline-and-liveness result loop: a plain done_q.get() would
        # block forever if a worker died mid-chunk (its completion message
        # never arrives).  Wait in short slices; whenever a slice comes up
        # empty, reap dead workers and terminate deadline-missers, then
        # requeue their chunks (see _on_slot_death for why that is safe).
        while pending:
            self._drain_heartbeats()
            try:
                msg = self._done_q.get(timeout=self.policy.liveness_poll)
            except queue_mod.Empty:
                self._check_liveness(pending)
                continue
            if not (isinstance(msg, tuple) and len(msg) == 4
                    and isinstance(msg[0], int) and isinstance(msg[1], int)
                    and isinstance(msg[2], int) and msg[3] in _DONE_STATUSES):
                # A corrupted completion message names no trustworthy
                # chunk; discard it and let the chunk's deadline drive
                # recovery (recomputation is idempotent).
                self.recovery.corrupt_messages += 1
                self._tracer.count("worker.corrupt_messages")
                continue
            worker_id, epoch, index, status = msg
            if not 0 <= worker_id < len(self._slots):
                self.recovery.corrupt_messages += 1
                self._tracer.count("worker.corrupt_messages")
                continue
            slot = self._slots[worker_id]
            if epoch != slot.epoch or index not in pending:
                continue  # raced out by the sender's own death; stale
            rec = pending[index]
            if status == "ok":
                del pending[index]
            else:
                # The worker's kernel raised: it is alive and wrote
                # nothing, so requeue without killing it.
                self._recover_chunk(index, rec)
        self._drain_heartbeats()
        return self._views["targets"][:count].copy()

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        # Per-worker task queues mean a crashed worker cannot block
        # sentinel delivery to the survivors, so the graceful path works
        # with any mix of live and dead workers: sentinel the live ones,
        # drain the trace buffers of everyone expected to post (live or
        # cleanly exited — a killed worker's buffers died with it), then
        # join.
        self._drain_heartbeats()
        for slot in self._slots:
            if slot.alive and slot.process.exitcode is None:
                slot.task_q.put(None)
        expected = {
            slot.process.pid for slot in self._slots
            if slot.process is not None
            and slot.process.exitcode in (None, 0)
        }
        seen: set[int] = set()
        deadline = monotonic() + _CLOSE_DRAIN_S
        while expected - seen:
            timeout = deadline - monotonic()
            if timeout <= 0:
                break
            try:
                payload = self._trace_q.get(timeout=timeout)
                pid, events, metrics = payload
            except (queue_mod.Empty, OSError, EOFError):
                break
            except (TypeError, ValueError):
                continue  # malformed buffer; tolerate, keep draining
            seen.add(pid)
            if events or metrics:
                self._tracer.merge(events, metrics)
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=5)
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=5)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=5)
        queues = [slot.task_q for slot in self._slots
                  if slot.task_q is not None]
        queues += self._retired_queues + [self._done_q, self._trace_q,
                                          self._hb_q]
        for q in queues:
            q.close()
            q.cancel_join_thread()
        self._retired_queues = []
        for seg in self._segments.values():
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._slots = []


class ProcessBackend(ExecutionBackend):
    """Execution backend running sweep chunks on worker processes.

    Unlike :class:`ThreadBackend` this achieves genuine CPU concurrency;
    the output is still bitwise identical to the serial backend (tested).
    One executor (pool + shared buffers) is kept per graph; phases on new
    coarse graphs fork fresh pools, which costs a few milliseconds each —
    negligible next to a phase's sweeps on non-toy inputs.

    Worker failures are absorbed, not propagated: the executor retries
    and respawns within ``policy``'s budgets, and if a sweep still cannot
    complete on the pool the backend **falls back to in-process serial
    execution** for that sweep and every later one (``recovery.fallbacks``
    counts these) — degraded throughput, identical results.  The
    :class:`~repro.robust.recovery.RecoveryStats` on :attr:`recovery` are
    always live (tracer counters are no-ops when tracing is off).
    """

    def __init__(self, num_processes: "int | None" = None,
                 policy: "RetryPolicy | None" = None):
        from repro.parallel.backends import fork_available

        if not fork_available():
            raise ValidationError(
                "ProcessBackend requires the 'fork' multiprocessing start "
                "method, which this platform does not provide (available: "
                f"{mp.get_all_start_methods()}); run with backend='serial' "
                "or backend='threads' instead"
            )
        if num_processes is None:
            num_processes = max(1, os.cpu_count() or 1)
        if num_processes < 1:
            raise ValidationError("num_processes must be >= 1")
        self.num_workers = int(num_processes)
        self.policy = policy or RetryPolicy()
        self.recovery = RecoveryStats()
        self._degraded = False
        self._executors: dict[int, _SweepExecutor] = {}

    def sweep_targets(self, graph, state, vertices, *, use_min_label: bool,
                      resolution: float,
                      aggregation: "str | None" = None,
                      sanitize: bool = False, rows=None) -> np.ndarray:
        """Compute one sweep's targets on the worker pool.

        ``sanitize`` is forwarded to the workers, which freeze their own
        shared-memory state views around the kernel call (the caller's
        freeze covers only the caller's process).  ``rows`` is the
        caller's :func:`~repro.core.workspace.loop_free_rows` of
        ``graph``, which the in-process paths gather from; the workers
        hold their own.
        """
        if (self._degraded or self.num_workers <= 1
                or vertices.size < 2):
            from repro.core.sweep import compute_targets_vectorized

            return compute_targets_vectorized(
                graph, state, vertices,
                use_min_label=use_min_label, resolution=resolution,
                aggregation=aggregation, rows=rows,
            )
        key = id(graph)
        executor = self._executors.get(key)
        if executor is None or executor.graph is not graph:
            executor = _SweepExecutor(graph, self.num_workers,
                                      policy=self.policy,
                                      recovery=self.recovery)
            self._executors[key] = executor
        try:
            return executor.compute_targets(
                state, vertices,
                use_min_label=use_min_label, resolution=resolution,
                aggregation=aggregation, sanitize=sanitize,
            )
        except WorkerPoolError:
            # The pool is beyond recovery: degrade to in-process serial
            # execution (identical results, no parallelism) for this and
            # all later sweeps rather than failing the run.
            from repro.core.sweep import compute_targets_vectorized

            self.recovery.fallbacks += 1
            get_tracer().count("worker.fallbacks")
            executor.close()
            self._executors.pop(key, None)
            self._degraded = True
            return compute_targets_vectorized(
                graph, state, vertices,
                use_min_label=use_min_label, resolution=resolution,
                aggregation=aggregation, rows=rows,
            )

    def map(self, fn, items):
        """Generic map falls back to serial execution.

        The backend's value is :meth:`sweep_targets` (closures over NumPy
        state don't pickle); anything else runs inline.
        """
        return [fn(item) for item in items]

    def close(self) -> None:
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    def __repr__(self) -> str:
        return f"ProcessBackend(num_processes={self.num_workers})"
