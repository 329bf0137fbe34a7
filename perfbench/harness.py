"""Shared pieces of the workloads: metric names, checks and statistics."""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
from time import perf_counter

import numpy as np

#: ``(metric suffix, HeuristicVariant value)`` of the paper's §6.1 variants.
VARIANTS = (
    ("baseline", "baseline"),
    ("vf", "baseline+VF"),
    ("vf_color", "baseline+VF+Color"),
)

END_TO_END = {
    "setup_s": "s",
    "baseline_s": "s",
    "vf_s": "s",
    "vf_color_s": "s",
    "q_baseline": "Q",
    "q_vf": "Q",
    "q_vf_color": "Q",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "core.sweep.compute_targets_s": "s",
    "core.sweep.apply_moves_s": "s",
    "core.sweep.calls": "count",
    "core.sweep.vertices_evaluated": "count",
    "core.sweep.edges_scanned": "count",
    "core.sweep.moves": "count",
    "core.sweep.move_ratio": "ratio",
    "core.workspace.bincount_iters": "count",
    "core.workspace.matmul_iters": "count",
    "core.phase.run_phase_s": "s",
    "core.phase.self_s": "s",
    "core.phase.iterations": "count",
    "core.phase.phases": "count",
    "core.vf.vf_merge_s": "s",
    "core.vf.merged": "count",
    "coloring.jones_plassmann_s": "s",
    "coloring.colors": "count",
    "coloring.largest_set_frac": "ratio",
    "graph.coarsen.coarsen_s": "s",
    "graph.coarsen.lock_ops": "count",
    "core.modularity.modularity_s": "s",
    "core.driver.unattributed_s": "s",
    "parallel.sweep_targets_s": "s",
    "parallel.sweeps": "count",
    "parallel.start_close_s": "s",
    "parallel.recoveries": "count",
    "graph.io.read_s": "s",
    "graph.io.bytes": "bytes",
    "robust.checkpoint.save_s": "s",
    "robust.checkpoint.saves": "count",
    "robust.checkpoint.bytes": "bytes",
    "serve.submit_s": "s",
    "serve.queue_wait_s": "s",
    "serve.compute_s": "s",
    "serve.worker_overhead_s": "s",
    "serve.notify_lag_s": "s",
    "serve.result_s": "s",
    "serve.wal_append_s": "s",
    "serve.wal_appends": "count",
    "serve.attempts_per_job": "count",
    "bench.trace_overhead_frac": "ratio",
}

#: Set by run.py's SIGINT/SIGTERM handler, which also raises
#: KeyboardInterrupt.  Python drops an exception raised while a finalizer
#: runs, so the workloads check this flag between ops as well.
interrupted = threading.Event()


def check_interrupted() -> None:
    if interrupted.is_set():
        raise KeyboardInterrupt


#: Set-up steps that are cheap and deterministic run this many times; the
#: median enters ``setup_s``.
SETUP_REPEATS = 3

#: Seconds :meth:`HostSpeed.probe` takes on the reference host.  Reported
#: times are seconds on that host (see :class:`HostSpeed`).
PROBE_REF_S = 0.1


class HostSpeed:
    """Rescales wall times by the host's current speed.

    On a shared VM the same op can run up to 1.5x slower than a few
    seconds earlier, with CPU time equal to wall time: the host, not the
    program, sets that swing.  :meth:`probe` times a fixed NumPy and
    Python kernel that uses none of the program's code, on the calling
    thread; :meth:`scaled` divides an op's wall time by the mean of the
    probes just before and just after it and multiplies by
    :data:`PROBE_REF_S`.  A change to the program moves the scaled time
    by the same factor as the wall time.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, 1 << 20, size=1 << 20)
        self._values = rng.random(1 << 20)
        self._keys = rng.integers(0, 1 << 16, size=1 << 19)
        self.probe()  # first touch of the arrays
        self.last = self.probe()

    def probe(self) -> float:
        start = perf_counter()
        gathered = self._values[self._index]
        np.bincount(self._keys, weights=gathered[:self._keys.size],
                    minlength=1 << 16)
        np.argsort(self._keys, kind="stable")
        table: dict = {}
        for i in range(100_000):
            table[i & 4095] = table.get(i & 4095, 0) + i
        return perf_counter() - start

    def scaled(self, wall: float) -> float:
        """``wall`` (just measured) in seconds on the reference host."""
        before, self.last = self.last, self.probe()
        return wall * PROBE_REF_S * 2.0 / (before + self.last)


def coloring_cutoff(num_vertices: int) -> int:
    """The scaled coloring stop rule of ``repro.bench.experiments``."""
    from repro.bench.experiments import _cutoff

    return _cutoff(num_vertices)


def check_op(graph, labels, q, reference) -> bool:
    """Check 1: labels equal the reference bitwise.  Check 2: the reported
    Q equals an exact ``repro.modularity`` recount of the labels."""
    from repro import modularity

    labels = np.asarray(labels)
    return (labels.dtype == reference.dtype
            and np.array_equal(labels, reference)
            and float(q) == float(modularity(graph, labels)))


def corrupted(labels: np.ndarray) -> np.ndarray:
    """A wrong partition: vertex 0 moved to a community of its own."""
    out = np.array(labels, copy=True)
    out[0] = out.max() + 1
    return out


def median(values: list) -> float:
    """Median, or 0.0 when every op of the group failed."""
    return statistics.median(values) if values else 0.0


def tail(values: list) -> "tuple[float, float]":
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it, floored at the median when there are fewer than
    twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and its reaped children."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def timing_summary(name: str, values: list) -> str:
    """One human-readable line: median, quartiles and sample count."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0] if values else math.nan
    med = statistics.median(values) if values else math.nan
    return (f"# {name}: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
            f"{len(values)} samples")


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def work_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
