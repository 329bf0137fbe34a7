"""Interprocedural rules over the project dataflow analysis.

These rules consume a :class:`repro.lint.dataflow.ProjectAnalysis`
(call graph + converged function summaries + events) instead of a single
file's AST, so they see across call boundaries:

SNAP101
    A ``@snapshot_kernel`` function's snapshot parameter is written by a
    callee (any depth) or through a local alias.  SNAP001 only sees
    direct writes to the parameter name inside the kernel body; this is
    its interprocedural closure.
SHM001
    A shared-memory *view* (``np.ndarray(..., buffer=seg.buf)``) escapes
    its worker's scope: returned un-copied, captured by an escaping
    closure, or passed to a callee that retains it on ``self``.  Handing
    views to a lifetime-owning object (one with ``close``/``shutdown``/
    ``__exit__``) is the sanctioned owner pattern and exempt; so is
    passing/returning the ``SharedMemory`` segment objects themselves
    (ownership transfer).
LOCK001
    A module-level mutable object is written on the worker side of a
    fork and also touched by parent-side code.  Under the ``fork`` start
    method each worker gets a *copy*, so such writes silently diverge —
    use an accumulator from :mod:`repro.parallel.atomic` or pass state
    explicitly through the task/result queues.
QPROTO001
    Queue protocol misuse that QUEUE001's name heuristic cannot see:
    untimed ``get()`` on a value the dataflow engine *knows* is a queue
    (whatever the variable is called, across call boundaries), and
    ``put()`` on a queue after ``close()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.lint.dataflow import Event, ProjectAnalysis, _queue_named

__all__ = ["PROJECT_RULES", "ProjectFinding", "ProjectRule"]


@dataclass(frozen=True)
class ProjectFinding:
    """One interprocedural hit (the engine turns these into Findings)."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Call path supporting the finding (caller -> ... -> sink qnames).
    call_path: tuple[str, ...] = ()


class ProjectRule:
    """Base: subclasses define ``code``/``description`` and ``check``."""

    code: str = ""
    description: str = ""

    def check(self, analysis: ProjectAnalysis) -> Iterator[ProjectFinding]:
        raise NotImplementedError


def _fn_path(analysis: ProjectAnalysis, qname: str) -> str:
    fn = analysis.graph.functions.get(qname)
    return fn.path if fn is not None else ""


def _short(qname: str) -> str:
    """``repro.core.sweep.f`` -> ``sweep.f`` (readable in one line)."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


def _via(path: tuple[str, ...]) -> str:
    return " -> ".join(_short(q) for q in path) if path else ""


class SnapshotCalleeWriteRule(ProjectRule):
    code = "SNAP101"
    description = (
        "snapshot parameter of a @snapshot_kernel function written "
        "through a callee or a local alias (interprocedural closure of "
        "SNAP001)"
    )

    def check(self, analysis):
        for qname in sorted(analysis.graph.functions):
            fn = analysis.graph.functions[qname]
            snap = fn.snapshot_param_names()
            if not snap:
                continue
            result = analysis.results.get(qname)
            if result is None:
                continue
            seen: set[tuple] = set()
            for event in result.events:
                if event.param not in snap:
                    continue
                if event.kind == "tainted_call_write":
                    key = (event.line, event.col, event.param, event.callee)
                    if key in seen:
                        continue
                    seen.add(key)
                    sink = event.path[-1] if event.path else event.callee
                    yield ProjectFinding(
                        fn.path, event.line, event.col, self.code,
                        f"snapshot parameter {event.param!r} of "
                        f"@snapshot_kernel function {fn.name!r} is written "
                        f"by {_short(sink)} (via {_via((qname,) + event.path)}); "
                        "snapshot state is read-only during target "
                        "computation — write to output buffers and commit "
                        "outside the kernel",
                        call_path=(qname,) + event.path,
                    )
                elif event.kind == "alias_write":
                    key = (event.line, event.col, event.param, event.detail)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield ProjectFinding(
                        fn.path, event.line, event.col, self.code,
                        f"snapshot parameter {event.param!r} of "
                        f"@snapshot_kernel function {fn.name!r} is written "
                        f"through alias {event.detail!r}; snapshot state is "
                        "read-only during target computation",
                        call_path=(qname,),
                    )


#: Methods that mark a class as a lifetime owner for SHM001: an object
#: that exposes teardown is the sanctioned holder of shm views.
_OWNER_METHODS = ("close", "shutdown", "__exit__", "unlink")


class ShmEscapeRule(ProjectRule):
    code = "SHM001"
    description = (
        "shared-memory view escapes its worker scope (returned un-copied, "
        "captured by an escaping closure, or retained by a non-owner "
        "callee); the segment may be closed/unlinked while the view is "
        "still reachable"
    )

    def _owner_callee(self, analysis, callee_qname: str) -> bool:
        fn = analysis.graph.functions.get(callee_qname)
        if fn is None or fn.class_qname is None:
            return False
        graph = analysis.graph
        return any(
            graph.method_qname(fn.class_qname, m) is not None
            for m in _OWNER_METHODS
        )

    def check(self, analysis):
        for event in analysis.events():
            path = _fn_path(analysis, event.qname)
            if "repro/" not in path:
                continue
            if event.kind == "shm_return":
                yield ProjectFinding(
                    path, event.line, event.col, self.code,
                    f"{_short(event.qname)} returns a shared-memory view "
                    "without copying; the caller outlives the worker's "
                    "segment lifetime — return .copy() of the view, or "
                    "transfer the SharedMemory segment itself",
                    call_path=(event.qname,),
                )
            elif event.kind == "shm_closure":
                yield ProjectFinding(
                    path, event.line, event.col, self.code,
                    f"closure {event.detail!r} captures shared-memory "
                    f"view(s) {event.param} and escapes "
                    f"{_short(event.qname)}; the view dangles once the "
                    "segment is closed — pass a copy or keep the closure "
                    "local",
                    call_path=(event.qname,),
                )
            elif event.kind == "shm_store_arg":
                if self._owner_callee(analysis, event.callee):
                    continue
                yield ProjectFinding(
                    path, event.line, event.col, self.code,
                    f"shared-memory view passed to {_short(event.callee)} "
                    f"which retains it (parameter {event.param!r}) but "
                    "owns no teardown (no close/shutdown/__exit__); the "
                    "stored view outlives the segment — copy at the "
                    "boundary or give the holder lifecycle ownership",
                    call_path=(event.qname,) + event.path,
                )


class ForkSharedStateRule(ProjectRule):
    code = "LOCK001"
    description = (
        "module-level mutable state written on the worker side of a "
        "process fork and touched by parent-side code; fork copies the "
        "module, so the sides silently diverge — use repro.parallel.atomic "
        "or pass state through the queues"
    )

    def check(self, analysis):
        graph = analysis.graph
        worker_side = graph.reachable(graph.worker_entries())
        by_module: dict[str, dict[str, list]] = {}
        for qname, result in analysis.results.items():
            fn = graph.functions[qname]
            for name in set(result.global_writes) | set(result.global_reads):
                by_module.setdefault(fn.module, {}).setdefault(
                    name, []
                ).append((qname, result))
        for modname in sorted(by_module):
            info = graph.modules.get(modname)
            if info is None or "repro/" not in info.path:
                continue
            if info.path.endswith("parallel/atomic.py"):
                continue  # the atomic substrate itself
            for name, accessors in sorted(by_module[modname].items()):
                meta = info.mutable_globals.get(name)
                if meta is None:
                    continue
                worker_writes = [
                    (q, r.global_writes[name]) for q, r in accessors
                    if q in worker_side and name in r.global_writes
                ]
                parent_touch = [
                    q for q, _ in accessors if q not in worker_side
                ]
                if not worker_writes or not parent_touch:
                    continue
                (writer, (line, col)) = worker_writes[0]
                yield ProjectFinding(
                    info.path, line, col, self.code,
                    f"module global {name!r} ({meta[2]}) is written in "
                    f"worker-side {_short(writer)} and touched by "
                    f"parent-side {_short(parent_touch[0])}; fork gives "
                    "each worker a private copy, so these writes never "
                    "reach the parent — use an accumulator from "
                    "repro.parallel.atomic or ship the state through the "
                    "task/result queues",
                    call_path=(writer,),
                )


class QueueProtocolRule(ProjectRule):
    code = "QPROTO001"
    description = (
        "queue protocol misuse found by dataflow (receiver provably a "
        "queue regardless of its name): untimed get() that can hang "
        "forever, and put() after close()"
    )

    def check(self, analysis):
        for event in analysis.events():
            path = _fn_path(analysis, event.qname)
            if "repro/" not in path:
                continue
            if event.kind == "untimed_get":
                # QUEUE001's name heuristic already covers queue-named
                # receivers; this rule adds the ones only taint can see.
                if _queue_named(event.detail):
                    continue
                if "repro/robust/" in path:
                    continue  # mirrors QUEUE001's recovery-code exemption
                yield ProjectFinding(
                    path, event.line, event.col, self.code,
                    f"untimed get() on {event.detail!r}, which dataflow "
                    "shows is a queue: a dead producer blocks this read "
                    "forever — pass timeout= and check liveness between "
                    "waits (docs/robustness.md)",
                    call_path=(event.qname,),
                )
            elif event.kind == "put_after_close":
                yield ProjectFinding(
                    path, event.line, event.col, self.code,
                    f"put() on queue {event.detail!r} after close() in "
                    f"{_short(event.qname)}; close() flushes and joins the "
                    "feeder thread — further puts raise or drop silently",
                    call_path=(event.qname,),
                )


#: Registry, in reporting order.
PROJECT_RULES: tuple[ProjectRule, ...] = (
    SnapshotCalleeWriteRule(),
    ShmEscapeRule(),
    ForkSharedStateRule(),
    QueueProtocolRule(),
)
