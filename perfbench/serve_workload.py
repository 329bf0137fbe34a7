"""The ``skewed-serve`` workload: a closed loop of clients on the job service.

Set-up writes three heavy-tailed graphs as files in three formats (the
median of :data:`harness.SETUP_REPEATS` builds), starts a
``JobService`` with a write-ahead log and one worker behind a
``ServeServer``, and computes one in-process ``louvain()`` reference per
(graph, variant).  Two client threads then each submit a job, poll it to
a terminal state and fetch its result, taking the next (graph, variant)
of a fixed rotation, until the time is up.  Latency metrics use only
whole turns of the rotation, so every (graph, variant) counts equally.

The in-process parts of set-up are timed in seconds on the reference
host (:class:`harness.HostSpeed`).  The service's times are wall times:
its worker is another process, where the benchmark cannot probe the
host's speed.

A traced run spends its first half on this service untraced, then stops
it, installs the wrappers, starts a second service (whose worker inherits
them at fork) and spends the second half on that one.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
from time import monotonic, perf_counter

import numpy as np

import harness
import tracing

#: ``(name, file name)``: the suffix selects the reader the service uses.
GRAPHS = (("rmat", "rmat.npz"), ("friendster", "friendster.metis"),
          ("uk-2002", "uk-2002.txt"))
#: Client poll interval: ≤ 1/50 of the shortest job (~0.5 s).
POLL_S = 0.01
JOB_TIMEOUT_S = 120.0
CLIENTS = 2


def build_graphs(seed: int, small: bool) -> dict:
    from repro.datasets.catalog import load_dataset
    from repro.graph.generators import rmat

    scale = 0.25 if small else 4
    return {
        "rmat": rmat(10 if small else 15, 8, seed=seed),
        "friendster": load_dataset("friendster", scale=scale, seed=seed),
        "uk-2002": load_dataset("uk-2002", scale=scale, seed=seed),
    }


def write_graphs(graphs: dict, directory: str) -> dict:
    from repro.graph import io

    paths = {}
    for name, file_name in GRAPHS:
        path = os.path.join(directory, file_name)
        if path.endswith(".npz"):
            io.save_csrz(graphs[name], path)
        elif path.endswith(".metis"):
            io.write_metis(graphs[name], path)
        else:
            io.write_edge_list(graphs[name], path)
        paths[name] = path
    return paths


def _start_service(spool: str):
    from repro.serve.api import ServeServer
    from repro.serve.service import AutoscalePolicy, JobService

    service = JobService(spool, wal=True,
                         policy=AutoscalePolicy(min_workers=1,
                                                max_workers=1))
    return ServeServer(service, port=0).start()


def _closed_loop(server, rotation, specs, graphs, references, seconds,
                 corrupt_op, log) -> "tuple[list, float]":
    """Run the clients until ``seconds`` pass; returns the job records and
    the loop's start time."""
    from repro.serve.client import ServeClient

    counter = itertools.count()
    lock = threading.Lock()
    records: list = []
    stop = threading.Event()
    # Job timestamps are seconds since the service's own monotonic start.
    origin = server.service._started
    start = monotonic()
    deadline = start + seconds

    def client() -> None:
        api = ServeClient(server.url, timeout=30.0)
        while (not stop.is_set() and monotonic() < deadline
               and not harness.interrupted.is_set()):
            with lock:
                index = next(counter)
            graph_name, key = rotation[index % len(rotation)]
            record = {"index": index, "graph": graph_name, "key": key,
                      "ok": False}
            try:
                t0 = monotonic()
                job_id = api.submit(specs[graph_name, key])
                t1 = monotonic()
                status = api.wait(job_id, timeout=JOB_TIMEOUT_S,
                                  poll_s=POLL_S)
                t2 = monotonic()
                if status["status"] != "done":
                    raise RuntimeError(f"{job_id} ended {status['status']}: "
                                       f"{status.get('error')}")
                result = api.result(job_id)
                t3 = monotonic()
                labels = np.asarray(result["communities"], dtype=np.int64)
                if index == corrupt_op:
                    labels = harness.corrupted(labels)
                record.update(
                    ok=harness.check_op(graphs[graph_name], labels,
                                        result["meta"]["modularity"],
                                        references[graph_name, key]),
                    job_id=job_id,
                    latency=t3 - t0,
                    done_at=t3,
                    submit_s=t1 - t0,
                    queue_wait_s=status["started_at"] - status["submitted_at"],
                    compute_s=status["meta"]["elapsed"],
                    worker_overhead_s=(status["finished_at"]
                                       - status["started_at"]
                                       - status["meta"]["elapsed"]),
                    notify_lag_s=(t2 - origin) - status["finished_at"],
                    result_s=t3 - t2,
                    attempts=status["attempts"],
                )
            except Exception as exc:  # errors and timeouts count as failed
                record["error"] = repr(exc)
            if not record["ok"]:
                log(f"# job {index} ({graph_name}, {key}) failed: "
                    f"{record.get('error', 'checks')}")
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    try:
        while any(thread.is_alive() for thread in threads):
            for thread in threads:
                thread.join(timeout=0.2)
            harness.check_interrupted()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
    return records, start


def _whole_turns(records: list, period: int) -> list:
    """The records of every complete turn of the rotation (all of them
    when the run was too short for one turn)."""
    done = {r["index"] for r in records}
    turns = 0
    while all(i in done for i in range(turns * period,
                                       (turns + 1) * period)):
        turns += 1
    if turns == 0:
        return records
    return [r for r in records if r["index"] < turns * period]


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        small: bool, corrupt_op: "int | None", workdir: str, log) -> dict:
    import repro

    servers = []
    host = harness.HostSpeed()
    try:
        # -- set-up ------------------------------------------------------
        build_times = []
        for _ in range(harness.SETUP_REPEATS):
            start = perf_counter()
            graphs = build_graphs(seed, small)
            paths = write_graphs(graphs, workdir)
            build_times.append(host.scaled(perf_counter() - start))
        start = perf_counter()
        servers.append(_start_service(os.path.join(workdir, "spool-0")))
        setup_s = statistics.median(build_times) + perf_counter() - start
        host.last = host.probe()
        rotation = [(name, key) for key, _ in harness.VARIANTS
                    for name, _ in GRAPHS]
        specs = {}
        references = {}
        q = {key: [] for key, _ in harness.VARIANTS}
        for key, variant in harness.VARIANTS:
            for name, _ in GRAPHS:
                graph = graphs[name]
                config = repro.HeuristicVariant(variant).config(
                    coloring_min_vertices=harness.coloring_cutoff(
                        graph.num_vertices),
                    seed=seed, backend="serial")
                start = perf_counter()
                reference = repro.louvain(graph, config)
                setup_s += host.scaled(perf_counter() - start)
                references[name, key] = reference.communities
                q[key].append(reference.modularity)
                specs[name, key] = {"graph": paths[name], "config": {
                    "use_vf": config.use_vf,
                    "use_coloring": config.use_coloring,
                    "coloring_min_vertices": config.coloring_min_vertices,
                    "seed": seed, "backend": "serial"}}
        log(f"# {workload}: setup {setup_s:.3f} s, "
            + ", ".join(f"{name} n={g.num_vertices} m={g.num_edges}"
                        for name, g in graphs.items()))

        # -- measured closed loop ----------------------------------------
        loop = dict(rotation=rotation, specs=specs, graphs=graphs,
                    references=references, corrupt_op=corrupt_op, log=log)
        untraced_s = seconds / 2 if trace else seconds
        records, loop_start = _closed_loop(servers[0], seconds=untraced_s,
                                           **loop)
        traced_records = []
        recorder = None
        if trace:
            servers.pop().stop()
            recorder = tracing.Recorder(os.path.join(workdir, "spans"))
            with tracing.installed(recorder):
                servers.append(_start_service(
                    os.path.join(workdir, "spool-1")))
                try:
                    traced_records, _ = _closed_loop(
                        servers[0], seconds=seconds - untraced_s, **loop)
                finally:
                    servers.pop().stop()
    finally:
        for server in servers:
            server.stop()

    all_records = records + traced_records
    failed = sum(not r["ok"] for r in all_records)
    used = [r for r in _whole_turns(records, len(rotation)) if r["ok"]]
    latencies = [r["latency"] for r in used]
    percentile, tail_value = harness.tail(latencies)
    log(harness.timing_summary("job latency", latencies))
    log(f"# job_tail_s: p{percentile:.1f} of {len(latencies)} jobs")
    values = {
        "setup_s": setup_s,
        "job_p50_s": harness.median(latencies),
        "job_tail_s": tail_value,
        "jobs_per_s": (len(used) / (max(r["done_at"] for r in used)
                                    - loop_start) if used else 0.0),
        "ok_frac": ((len(all_records) - failed) / len(all_records)
                    if all_records else 0.0),
    }
    for key, _variant in harness.VARIANTS:
        # The time the service reports running the job (graph load plus
        # detection), free of the wait behind the other client's job that
        # the latency metrics carry: mean over the graphs of the median.
        values[f"{key}_s"] = statistics.fmean(
            harness.median([r["compute_s"] for r in used
                            if r["key"] == key and r["graph"] == name])
            for name, _ in GRAPHS)
        values[f"q_{key}"] = statistics.fmean(q[key])
    if trace:
        values.update(_per_layer(recorder, records, traced_records))
    return {"values": values, "attempted": max(1, len(all_records)),
            "failed": failed}


def _per_layer(recorder, untraced: list, traced: list) -> dict:
    traced = [r for r in traced if r["ok"]]
    walls = {r["job_id"]: r["compute_s"] for r in traced}
    out = tracing.per_layer(recorder.merged(), walls,
                            list(harness.PER_LAYER))
    for name in ("submit_s", "queue_wait_s", "compute_s",
                 "worker_overhead_s", "notify_lag_s", "result_s"):
        out[f"serve.{name}"] = harness.median([r[name] for r in traced])
    out["serve.attempts_per_job"] = (
        statistics.fmean(r["attempts"] for r in traced) if traced else 0.0)

    def compute_by_pair(records):
        pairs = {(r["graph"], r["key"]) for r in traced}
        return sum(harness.median([r["compute_s"] for r in records
                                   if r["ok"] and (r["graph"], r["key"]) == p])
                   for p in pairs)

    base = compute_by_pair(untraced)
    out["bench.trace_overhead_frac"] = (compute_by_pair(traced) / base - 1.0
                                        if base else 0.0)
    return out
