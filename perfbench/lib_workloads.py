"""The in-process library workload ``planted-lib``.

It times whole serial ``repro.louvain()`` calls.  Set-up builds the graph
(the median of :data:`harness.SETUP_REPEATS` builds) and runs one
warm-up op per variant; the warm-up result is the reference every later
op is checked against.  The measured loop then runs rounds of one op per
variant, in the same order each round, until the time is up.  Only whole
rounds are measured, so each variant gets the same number of ops.  Every
time that enters an end-to-end metric is in seconds on the reference
host (:class:`harness.HostSpeed`).

A traced run alternates untraced and traced rounds.  Each traced round
adds one ``baseline`` op on the process backend (2 workers), checked
against the serial reference like any other, which is where the
``parallel.*`` metrics come from; it enters no end-to-end metric.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter

import harness
import tracing

#: The traced run's extra op: (key, variant, backend, worker processes).
PARALLEL_PROBE = ("baseline", "baseline", "processes", 2)


def build_graph(seed: int, small: bool):
    from repro.graph.generators import planted_partition

    if small:
        return planted_partition(40, 50, 0.3, 1e-3, seed=seed)
    return planted_partition(500, 100, 0.12, 2e-5, seed=seed)


def _op(graph, variant, backend, threads, options, recorder):
    """One timed ``louvain()`` call, under the trace wrappers when a
    recorder is given; returns ``(result, wall seconds)``."""
    scope = (tracing.installed(recorder) if recorder is not None
             else contextlib.nullcontext())
    with scope:
        # ``repro.louvain`` is this function; looked up on its module
        # inside the scope, so a traced op reaches the history wrapper.
        louvain = importlib.import_module("repro.core.driver").louvain
        start = perf_counter()
        result = louvain(graph, variant=variant, backend=backend,
                         num_threads=threads, **options)
        return result, perf_counter() - start


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        small: bool, corrupt_op: "int | None", workdir: str,
        log) -> dict:
    import repro

    backend, threads = "serial", 1

    host = harness.HostSpeed()

    # -- set-up: graph builds (median of several) + reference ops -------
    build_times = []
    for _ in range(harness.SETUP_REPEATS):
        start = perf_counter()
        graph = build_graph(seed, small)
        build_times.append(host.scaled(perf_counter() - start))
    cutoff = harness.coloring_cutoff(graph.num_vertices)
    options = dict(coloring_min_vertices=cutoff, seed=seed)
    references = {}
    reference_s = 0.0
    for key, variant in harness.VARIANTS:
        start = perf_counter()
        references[key] = repro.louvain(graph, variant=variant,
                                        backend="serial", **options)
        reference_s += host.scaled(perf_counter() - start)
    setup_s = statistics.median(build_times) + reference_s
    log(f"# {workload}: n={graph.num_vertices} m={graph.num_edges} "
        f"cutoff={cutoff} setup {setup_s:.3f} s")

    # -- measured rounds -------------------------------------------------
    round_ops = [(key, variant, backend, threads)
                 for key, variant in harness.VARIANTS]
    traced_ops = round_ops + [PARALLEL_PROBE]
    times: dict = {key: [] for key, _ in harness.VARIANTS}
    raw_times: dict = {key: [] for key, _ in harness.VARIANTS}
    traced_times: dict = {key: [] for key, _ in harness.VARIANTS}
    recorder = tracing.Recorder(f"{workdir}/spans") if trace else None
    op_walls: dict = {}
    probe_walls: dict = {}
    attempted = failed = 0
    round_walls = []
    measure_start = perf_counter()
    # A traced run alternates untraced and traced rounds, so it needs two.
    min_rounds = 2 if trace else 1
    while True:
        elapsed = perf_counter() - measure_start
        mean_round = (statistics.fmean(round_walls) if round_walls
                      else reference_s)
        if len(round_walls) >= min_rounds and elapsed + mean_round > seconds:
            break
        traced_round = trace and len(round_walls) % 2 == 1
        round_start = perf_counter()
        for key, variant, op_backend, op_threads in (
                traced_ops if traced_round else round_ops):
            harness.check_interrupted()
            op = attempted
            attempted += 1
            if traced_round:
                recorder.op = op
            try:
                result, wall = _op(graph, variant, op_backend, op_threads,
                                   options,
                                   recorder if traced_round else None)
            except Exception as exc:  # a failed op counts, never aborts
                log(f"# op {op} ({variant}, {op_backend}) raised {exc!r}")
                failed += 1
                continue
            labels = result.communities
            if op == corrupt_op:
                labels = harness.corrupted(labels)
            if not harness.check_op(graph, labels, result.modularity,
                                    references[key].communities):
                log(f"# op {op} ({variant}, {op_backend}) failed its checks")
                failed += 1
            if not traced_round:
                times[key].append(host.scaled(wall))
                raw_times[key].append(wall)
            elif op_backend != backend:
                probe_walls[op] = wall
            else:
                traced_times[key].append(wall)
                op_walls[op] = wall
        round_walls.append(perf_counter() - round_start)
        if traced_round:
            host.last = host.probe()  # "before" of the next untraced op

    all_times = [t for values in times.values() for t in values]
    for key in times:
        log(harness.timing_summary(f"{key}_s", times[key]))
        log(harness.timing_summary(f"{key} wall", raw_times[key]))
    percentile, tail_value = harness.tail(all_times)
    log(f"# job_tail_s: p{percentile:.1f} of {len(all_times)} ops")
    values = {
        "setup_s": setup_s,
        "job_p50_s": harness.median(all_times),
        "job_tail_s": tail_value,
        "jobs_per_s": len(all_times) / sum(all_times),
        "ok_frac": (attempted - failed) / attempted,
    }
    for key, _variant in harness.VARIANTS:
        values[f"{key}_s"] = harness.median(times[key])
        values[f"q_{key}"] = references[key].modularity
    if trace:
        records = recorder.merged()
        values.update(tracing.per_layer(records, op_walls,
                                        list(harness.PER_LAYER)))
        values.update(tracing.per_layer(
            records, probe_walls,
            [n for n in harness.PER_LAYER if n.startswith("parallel.")]))
        values["bench.trace_overhead_frac"] = (
            sum(harness.median(v) for v in traced_times.values())
            / sum(harness.median(v) for v in raw_times.values()) - 1.0)
    return {"values": values, "attempted": attempted, "failed": failed}
