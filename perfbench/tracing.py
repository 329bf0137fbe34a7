"""Per-layer tracing for the traced run, done entirely from the benchmark.

:func:`installed` replaces a fixed set of public functions of the
program's layers with timing wrappers and puts the originals back on
exit, so an untraced run never sees a wrapper.  Each wrapper call adds
one record ``(op, name, seconds, counts)`` to the active
:class:`Recorder`.

The process that installed the wrappers keeps its records in memory.  A
process forked from it (a serve worker) inherits the wrappers and appends
each record as one JSON line to its own ``spans-<pid>.jsonl`` file in the
recorder's directory; :meth:`Recorder.merged` reads those files back
after the service has stopped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

_RECORDER: "Recorder | None" = None

#: Spans that do not nest inside one another.  Their sum is the part of
#: an op's wall time the trace attributes to a layer.
TOP_LEVEL = (
    "graph.io.read_s",
    "core.vf.vf_merge_s",
    "coloring.jones_plassmann_s",
    "core.phase.run_phase_s",
    "graph.coarsen.coarsen_s",
    "core.modularity.modularity_s",
    "parallel.start_close_s",
    "robust.checkpoint.save_s",
)


class Recorder:
    """Collects span records of one traced run, across forked processes."""

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.owner = os.getpid()
        #: Op the next records belong to (``None``: shared by all ops).
        self.op = None
        self.records: list = []
        self._fds: dict[int, int] = {}

    def add(self, name: str, seconds: float = 0.0, **counts) -> None:
        record = (self.op, name, seconds, counts)
        pid = os.getpid()
        if pid == self.owner:
            self.records.append(record)
            return
        fd = self._fds.get(pid)
        if fd is None:
            path = os.path.join(self.directory, f"spans-{pid}.jsonl")
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self._fds[pid] = fd
        os.write(fd, (json.dumps(record) + "\n").encode())

    def merged(self) -> list:
        """This process's records plus every forked process's file."""
        out = list(self.records)
        for entry in sorted(os.listdir(self.directory)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.directory, entry)) as fh:
                    out.extend(tuple(json.loads(line)) for line in fh)
        return out


def _record(name: str, seconds: float = 0.0, **counts) -> None:
    if _RECORDER is not None:
        _RECORDER.add(name, seconds, **counts)


def _timed(fn, name: str, counts=None):
    """Wrap ``fn`` so each call records its wall time under ``name``;
    ``counts(args, kwargs, result)`` adds counters to the record."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        extra = counts(args, kwargs, result) if counts is not None else {}
        _record(name, perf_counter() - start, **extra)
        return result

    return wrapper


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"graph.io.bytes": os.path.getsize(path)}


def _checkpoint_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    size = os.path.getsize(path) if os.path.exists(path) else 0
    return {"robust.checkpoint.saves": 1, "robust.checkpoint.bytes": size}


def history_counts(result) -> dict:
    """Exact work counters of one :class:`LouvainResult`.  The coloring
    counters appear only when a phase was colored, so that an op without
    coloring does not count as one that uses the layer."""
    iterations = result.history.iterations
    phases = result.history.phases
    colored = [p for p in phases if p.colored]
    counts = {
        "core.sweep.vertices_evaluated": sum(r.active_vertices
                                             for r in iterations),
        "core.sweep.edges_scanned": sum(r.active_edges for r in iterations),
        "core.sweep.moves": sum(r.vertices_moved for r in iterations),
        "core.workspace.bincount_iters": sum(r.aggregation == "bincount"
                                             for r in iterations),
        "core.workspace.matmul_iters": sum(r.aggregation == "matmul"
                                           for r in iterations),
        "core.phase.iterations": len(iterations),
        "core.phase.phases": len(phases),
        "graph.coarsen.lock_ops": sum(p.rebuild_lock_ops for p in phases),
    }
    if colored:
        counts["coloring.colors"] = sum(p.num_colors for p in colored)
        counts["coloring.largest_set_frac"] = max(
            (max(p.color_class_sizes) / p.num_vertices
             for p in colored if p.color_class_sizes), default=0.0)
    return counts


def _wrap_make_backend(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        backend = fn(*args, **kwargs)
        _record("parallel.start_close_s", perf_counter() - start)
        close = backend.close

        def timed_close():
            start = perf_counter()
            close()
            stats = getattr(backend, "recovery", None)
            recoveries = (stats.retries + stats.respawns + stats.stalls
                          + stats.fallbacks) if stats is not None else 0
            _record("parallel.start_close_s", perf_counter() - start,
                    **{"parallel.recoveries": recoveries})

        backend.close = timed_close
        return backend

    return wrapper


def _wrap_louvain(fn):
    # Callers look ``louvain`` up on repro.core.driver at call time (the
    # serve worker and lib_workloads._op), so they reach this wrapper.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        _record("history", **history_counts(result))
        return result

    return wrapper


def _wrap_run_job(fn):
    @functools.wraps(fn)
    def wrapper(job_id, *args, **kwargs):
        if _RECORDER is not None:
            _RECORDER.op = job_id
        return fn(job_id, *args, **kwargs)

    return wrapper


def _targets() -> list:
    """``(owner, attribute, wrapper factory)`` for every traced function."""
    # import_module, not ``import a.b as c``: repro.core re-exports the
    # function ``modularity`` under its submodule's name.
    driver = importlib.import_module("repro.core.driver")
    modularity = importlib.import_module("repro.core.modularity")
    phase = importlib.import_module("repro.core.phase")
    graph_io = importlib.import_module("repro.graph.io")
    pool = importlib.import_module("repro.serve.pool")
    from repro.parallel.process_backend import ProcessBackend
    from repro.serve.wal import WriteAheadLog

    def timed(name, counts=None):
        return lambda fn: _timed(fn, name, counts)

    return [
        (phase, "compute_targets",
         timed("core.sweep.compute_targets_s",
               lambda a, k, r: {"core.sweep.calls": 1})),
        (phase, "apply_moves_tracked", timed("core.sweep.apply_moves_s")),
        (driver, "run_phase", timed("core.phase.run_phase_s")),
        (driver, "vf_merge",
         timed("core.vf.vf_merge_s",
               lambda a, k, r: {"core.vf.merged": r.num_merged})),
        (driver, "jones_plassmann_coloring",
         timed("coloring.jones_plassmann_s")),
        (driver, "coarsen", timed("graph.coarsen.coarsen_s")),
        (modularity, "modularity", timed("core.modularity.modularity_s")),
        (driver, "make_backend", _wrap_make_backend),
        (ProcessBackend, "sweep_targets",
         timed("parallel.sweep_targets_s",
               lambda a, k, r: {"parallel.sweeps": 1})),
        (graph_io, "read_metis", timed("graph.io.read_s", _file_bytes)),
        (graph_io, "read_edge_list", timed("graph.io.read_s", _file_bytes)),
        (graph_io, "load_csrz", timed("graph.io.read_s", _file_bytes)),
        (driver, "save_checkpoint",
         timed("robust.checkpoint.save_s", _checkpoint_bytes)),
        (WriteAheadLog, "append",
         timed("serve.wal_append_s", lambda a, k, r: {"serve.wal_appends": 1})),
        (driver, "louvain", _wrap_louvain),
        (pool, "_run_job", _wrap_run_job),
    ]


def originals() -> dict:
    """``"owner.attribute" -> current object`` for every traced function."""
    return {f"{owner.__name__}.{attr}": vars(owner)[attr]
            for owner, attr, _ in _targets()}


@contextmanager
def installed(recorder: Recorder):
    """Install the wrappers for the duration of the block."""
    global _RECORDER
    saved = []
    _RECORDER = recorder
    try:
        for owner, attr, factory in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, factory(original))
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        _RECORDER = None


def per_layer(records: list, op_walls: dict, names: list) -> dict:
    """Reduce span records to the per-layer metric values.

    ``op_walls`` maps each measured op to its wall time.  An op uses a
    layer when any record of the op names it (``coloring`` for
    ``coloring.colors``).  A time is the median, over the ops that use the
    layer, of each op's summed seconds; a count is the mean of each such
    op's summed count, zeros included (exact, since the counts repeat).
    Records of no op (``None``) are shared evenly across the ops.
    """
    ops = list(op_walls)
    seconds = {op: {} for op in ops}
    counts = {op: {} for op in ops}
    shared_s: dict = {}
    shared_c: dict = {}
    for op, name, secs, extra in records:
        if op is None:
            shared_s[name] = shared_s.get(name, 0.0) + secs
            for key, value in extra.items():
                shared_c[key] = shared_c.get(key, 0.0) + value
            continue
        if op not in seconds:
            continue
        seconds[op][name] = seconds[op].get(name, 0.0) + secs
        for key, value in extra.items():
            counts[op][key] = counts[op].get(key, 0.0) + value
    share = 1.0 / max(1, len(ops))
    for op in ops:
        for name, secs in shared_s.items():
            seconds[op][name] = seconds[op].get(name, 0.0) + secs * share
        for key, value in shared_c.items():
            counts[op][key] = counts[op].get(key, 0.0) + value * share
        s = seconds[op]
        if "core.phase.run_phase_s" in s:
            s["core.phase.self_s"] = (
                s["core.phase.run_phase_s"]
                - s.get("core.sweep.compute_targets_s", 0.0)
                - s.get("core.sweep.apply_moves_s", 0.0))
        s["core.driver.unattributed_s"] = op_walls[op] - sum(
            s.get(name, 0.0) for name in TOP_LEVEL)
        c = counts[op]
        if "core.sweep.vertices_evaluated" in c:
            evaluated = c["core.sweep.vertices_evaluated"]
            c["core.sweep.move_ratio"] = (c.get("core.sweep.moves", 0.0)
                                          / evaluated if evaluated else 0.0)
    layers = {op: {key.rsplit(".", 1)[0]
                   for key in [*seconds[op], *counts[op]]} for op in ops}
    out = {}
    for name in names:
        per_op = seconds if name.endswith("_s") else counts
        layer = name.rsplit(".", 1)[0]
        values = [per_op[op].get(name, 0.0) for op in ops
                  if layer in layers[op]]
        if not values:
            out[name] = 0.0
        elif per_op is seconds:
            out[name] = statistics.median(values)
        else:
            out[name] = statistics.fmean(values)
    return out
