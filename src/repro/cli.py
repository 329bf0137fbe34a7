"""Command-line interface: ``repro-louvain`` / ``python -m repro``.

Subcommands
-----------
``detect``    Run community detection on a graph file (edge list / METIS /
              Matrix Market / csrz) or a named dataset stand-in, printing
              summary and optionally writing the assignment.
``stats``     Print Table 1 statistics for a graph file or dataset.
``analyze``   Detect (or load) communities and print per-community
              structure: sizes, densities, conductance, hubs.
``compare``   Compare two community-assignment files (Table 3's SP/SE/OQ/
              Rand plus ARI/NMI/VI).
``convert``   Convert a graph file between the supported formats.
``datasets``  List the eleven stand-ins and their paper reference rows.
``bench``     Run one experiment (or ``all``) from the §6 harness.
``obs``       Observability: capture a traced (optionally profiled) run
              (``obs trace``), print a Fig 8-style breakdown + span tree
              from a trace file (``obs report``), schema-check a Chrome
              trace (``obs validate``), expose live metrics over HTTP in
              Prometheus text format (``obs serve``), or gate fresh bench
              records against the committed ``BENCH_*.json`` baselines
              (``obs regress``).
``robust``    Fault tolerance: summarize a phase-boundary checkpoint
              (``robust inspect``), continue an interrupted run from one
              (``robust resume``), or run detection under a wall-clock/
              phase/iteration/memory budget with anytime cancellation
              (``robust budget``) — see docs/robustness.md.
``serve``     The detection job service (docs/serving.md): run the
              HTTP service (``serve run``) or talk to one —
              ``serve submit/status/result/cancel/jobs``.

Examples
--------
::

    repro-louvain detect --dataset CNR --variant baseline+VF+Color
    repro-louvain detect mygraph.txt --format edgelist --output comm.txt
    repro-louvain stats --dataset MG1
    repro-louvain bench table2
    repro-louvain obs trace --dataset MG1 --scale 0.5 --out trace.json
    repro-louvain obs report trace.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro._version import __version__

__all__ = ["main"]


def _input_error(message: str) -> "SystemExit":
    """Exit 2 (bad input) with a one-line message instead of a traceback.

    Exit codes follow the Unix convention the obs subcommands document:
    0 = success, 1 = the check failed (invalid trace, perf regression),
    2 = the input itself was unusable (missing file, not JSON).
    """
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_json_file(path: str):
    """Load a JSON file for a CLI command; exit 2 on missing/non-JSON."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _input_error(f"{path}: no such file")
    except IsADirectoryError:
        raise _input_error(f"{path}: is a directory, not a file")
    except json.JSONDecodeError as exc:
        raise _input_error(f"{path}: not valid JSON ({exc})")
    except UnicodeDecodeError:
        raise _input_error(f"{path}: not a text file")


def _load_graph(args):
    from repro.datasets.catalog import load_dataset
    from repro.graph.io import read_graph

    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not args.path:
        raise SystemExit("error: pass a graph file or --dataset NAME")
    return read_graph(args.path, args.format)


def _cmd_detect(args) -> int:
    from repro.core.driver import louvain
    from repro.core.louvain_serial import louvain_serial

    graph = _load_graph(args)
    print(f"graph: {graph}")
    if args.variant == "serial":
        if args.checkpoint or args.resume:
            raise SystemExit(
                "error: --checkpoint/--resume apply to the parallel "
                "pipeline, not --variant serial"
            )
        result = louvain_serial(graph, threshold=args.final_threshold,
                                seed=args.seed, resolution=args.resolution,
                                trace=args.trace)
        communities = result.communities
        iters = result.history.total_iterations
    else:
        cutoff = (args.coloring_cutoff if args.coloring_cutoff is not None
                  else max(64, graph.num_vertices // 16))
        result = louvain(
            graph,
            variant=args.variant,
            coloring_min_vertices=cutoff,
            colored_threshold=args.colored_threshold,
            final_threshold=args.final_threshold,
            backend=args.backend,
            num_threads=args.threads,
            seed=args.seed,
            resolution=args.resolution,
            checkpoint=args.checkpoint,
            resume=args.resume,
            trace=args.trace,
        )
        communities = result.communities
        iters = result.total_iterations
    k = int(communities.max()) + 1 if communities.size else 0
    print(f"variant:     {args.variant}")
    print(f"modularity:  {result.modularity:.6f}")
    print(f"communities: {k}")
    print(f"iterations:  {iters}")
    if args.output:
        np.savetxt(args.output, communities, fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from repro.graph.stats import compute_stats

    graph = _load_graph(args)
    s = compute_stats(graph)
    print(f"vertices:             {s.num_vertices:,}")
    print(f"edges:                {s.num_edges:,}")
    print(f"self loops:           {s.num_self_loops:,}")
    print(f"total weight (m):     {s.total_weight:,.2f}")
    print(f"max degree:           {s.max_degree:,}")
    print(f"avg degree:           {s.avg_degree:.3f}")
    print(f"degree RSD:           {s.degree_rsd:.3f}")
    print(f"single-degree count:  {s.num_single_degree:,}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        community_hubs,
        community_stats,
        summarize_partition,
    )
    from repro.core.driver import louvain

    graph = _load_graph(args)
    print(f"graph: {graph}")
    if args.communities:
        comm = np.loadtxt(args.communities, dtype=np.int64)
        if comm.shape != (graph.num_vertices,):
            raise SystemExit(
                f"error: assignment length {comm.shape[0]} != "
                f"{graph.num_vertices} vertices"
            )
    else:
        result = louvain(
            graph, variant="baseline+VF+Color",
            coloring_min_vertices=max(64, graph.num_vertices // 16),
            seed=args.seed,
        )
        comm = result.communities
        print(f"detected with baseline+VF+Color: Q={result.modularity:.6f}")

    summary = summarize_partition(graph, comm)
    print(f"communities:       {summary.num_communities:,} "
          f"({summary.num_singlets:,} singlets)")
    print(f"sizes:             {summary.size_min} .. {summary.size_max} "
          f"(median {summary.size_median:.0f})")
    print(f"coverage:          {100 * summary.coverage:.2f}% of edge weight")
    print(f"mixing parameter:  {summary.mixing_parameter:.4f}")
    print(f"modularity:        {summary.modularity:.6f}")

    stats = sorted(community_stats(graph, comm), key=lambda s: -s.size)
    hubs = community_hubs(graph, comm, top=args.hubs)
    print(f"\nlargest {min(args.top, len(stats))} communities:")
    print(f"{'size':>6} {'density':>8} {'conductance':>12} {'hubs'}")
    for s in stats[:args.top]:
        print(f"{s.size:>6} {s.internal_density:>8.3f} "
              f"{s.conductance:>12.4f} {hubs[s.label].tolist()}")
    return 0


def _cmd_compare(args) -> int:
    from repro.metrics.information import (
        adjusted_rand_index,
        normalized_mutual_information,
        variation_of_information,
    )
    from repro.metrics.pairs import pair_counts

    benchmark = np.loadtxt(args.benchmark, dtype=np.int64)
    test = np.loadtxt(args.test, dtype=np.int64)
    if benchmark.shape != test.shape:
        raise SystemExit(
            f"error: assignments disagree on length "
            f"({benchmark.shape[0]} vs {test.shape[0]})"
        )
    pc = pair_counts(benchmark, test)
    pct = pc.as_percentages()
    print(f"vertices:          {benchmark.shape[0]:,}")
    print(f"specificity (SP):  {pct['SP']:.2f}%")
    print(f"sensitivity (SE):  {pct['SE']:.2f}%")
    print(f"overlap qual (OQ): {pct['OQ']:.2f}%")
    print(f"Rand index:        {pct['Rand']:.2f}%")
    print(f"adjusted Rand:     {adjusted_rand_index(benchmark, test):.4f}")
    print(f"NMI:               "
          f"{normalized_mutual_information(benchmark, test):.4f}")
    print(f"VI:                {variation_of_information(benchmark, test):.4f}")
    return 0


def _cmd_convert(args) -> int:
    from repro.graph.io import (
        detect_format,
        read_graph,
        save_csrz,
        write_edge_list,
        write_matrix_market,
        write_metis,
    )

    graph = read_graph(args.input, args.input_format)
    out_fmt = (detect_format(args.output) if args.output_format == "auto"
               else args.output_format)
    writers = {
        "edgelist": write_edge_list,
        "metis": write_metis,
        "mtx": write_matrix_market,
        "csrz": save_csrz,
    }
    writers[out_fmt](graph, args.output)
    print(f"wrote {graph} to {args.output} ({out_fmt})")
    return 0


def _cmd_datasets(args) -> int:
    from repro.datasets.catalog import DATASETS

    for name, spec in DATASETS.items():
        p = spec.paper
        print(f"{name:18s} {spec.domain}")
        print(f"{'':18s}   paper: n={p.num_vertices:,} M={p.num_edges:,} "
              f"RSD={p.degree_rsd}")
        if args.verbose:
            print(f"{'':18s}   {spec.rationale}")
    return 0


def _cmd_bench(args) -> int:
    import json

    from repro.bench.experiments import EXPERIMENTS, run_experiment

    if args.experiment == "all":
        ids = list(EXPERIMENTS)
    elif args.experiment == "list":
        for eid in EXPERIMENTS:
            print(eid)
        return 0
    else:
        ids = [args.experiment]
    json_payload = []
    for eid in ids:
        result = run_experiment(eid, scale=args.scale)
        print(result.render())
        print()
        if args.json:
            json_payload.append(result.as_json_dict())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(json_payload, fh, indent=2)
        print(f"raw experiment data written to {args.json}")
    return 0


def _cmd_obs_trace(args) -> int:
    from repro.core.driver import louvain
    from repro.core.louvain_serial import louvain_serial
    from repro.obs.export import (
        to_flat_text,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.obs.profile import profile_run
    from repro.obs.report import render_breakdown

    try:
        graph = _load_graph(args)
    except FileNotFoundError:
        raise _input_error(f"{args.path}: no such file")
    print(f"graph: {graph}")
    profiled = bool(args.profile or args.flame)
    profile = None
    if args.variant == "serial":
        # The serial pipeline has no profile knob; wrap it in the same
        # scoped sampler the driver uses.
        from contextlib import nullcontext

        scope = profile_run() if profiled else nullcontext()
        with scope as profile:
            result = louvain_serial(graph, threshold=args.final_threshold,
                                    seed=args.seed, trace=True)
    else:
        cutoff = (args.coloring_cutoff if args.coloring_cutoff is not None
                  else max(64, graph.num_vertices // 16))
        result = louvain(
            graph,
            variant=args.variant,
            coloring_min_vertices=cutoff,
            backend=args.backend,
            num_threads=args.threads,
            seed=args.seed,
            trace=True,
            profile=profiled,
        )
        profile = result.profile
    tracer = result.trace
    print(f"modularity:  {result.modularity:.6f}")
    print(f"spans:       {len(tracer.events)}")
    if args.trace_format == "jsonl":
        write_jsonl(tracer, args.out, history=result.history,
                    profile=profile)
    elif args.trace_format == "flat":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_flat_text(tracer))
    else:
        write_chrome_trace(tracer, args.out, history=result.history,
                           profile=profile)
    print(f"trace written to {args.out} ({args.trace_format})")
    if profile is not None:
        print(f"profile:     {profile.samples} samples at {profile.hz:g} Hz "
              f"({100 * profile.attribution():.0f}% in repro frames)")
        if args.flame:
            profile.write_collapsed(args.flame)
            print(f"collapsed stacks written to {args.flame}")
    print()
    print(render_breakdown(tracer), end="")
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs.export import load_trace
    from repro.obs.report import render_report
    from repro.utils.errors import ValidationError

    try:
        data = load_trace(args.trace)
    except FileNotFoundError:
        raise _input_error(f"{args.trace}: no such file")
    except IsADirectoryError:
        raise _input_error(f"{args.trace}: is a directory, not a file")
    except UnicodeDecodeError:
        raise _input_error(f"{args.trace}: not a text file")
    except ValueError as exc:  # json.JSONDecodeError subclasses ValueError
        raise _input_error(f"{args.trace}: not a valid trace file ({exc})")
    except ValidationError as exc:
        raise _input_error(f"{args.trace}: {exc}")
    print(render_report(data, tree=not args.no_tree,
                        max_depth=args.max_depth), end="")
    return 0


def _cmd_obs_validate(args) -> int:
    from repro.obs.export import validate_chrome_trace

    payload = _load_json_file(args.trace)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}")
        return 1
    events = (payload.get("traceEvents", payload)
              if isinstance(payload, dict) else payload)
    print(f"OK: {len(events)} trace events, schema valid")
    return 0


def _cmd_obs_serve(args) -> int:
    from repro.obs.serve import serve

    if args.ring is None:
        print("serving the in-process registry (empty unless a traced run "
              "is live in this process); pass --ring FILE to follow a "
              "pipeline run's snapshot stream")
    server = serve(ring=args.ring, host=args.host, port=args.port)
    host, port = server.address
    print(f"repro obs serve: http://{host}:{port}/metrics "
          f"(/healthz, /snapshot) — source: {server.source.describe()}")
    try:
        server.serve_forever()
    finally:
        print("obs serve: stopped")
    return 0


def _cmd_obs_regress(args) -> int:
    from repro.obs.regress import (
        DEFAULT_Q_TOL,
        DEFAULT_TOL_RATIO,
        DEFAULT_TOL_SECONDS,
        load_records,
        rerun_kernel_records,
        run_regression,
    )

    _load_json_file(args.kernels)  # exit 2 with a clear message on bad input
    try:
        committed = load_records(args.kernels)
    except ValueError as exc:
        raise _input_error(str(exc))
    if not committed:
        raise _input_error(f"{args.kernels}: no committed records")

    fresh: list = []
    if args.fresh_kernels is not None:
        _load_json_file(args.fresh_kernels)
        try:
            fresh.extend(load_records(args.fresh_kernels))
        except ValueError as exc:
            raise _input_error(str(exc))
    if args.rerun:
        from repro.obs.regress import PHASE_GRAPHS

        unknown = set(args.graphs or ()) - set(PHASE_GRAPHS)
        if unknown:
            raise _input_error(
                f"unknown --graphs {sorted(unknown)} "
                f"(choose from {sorted(PHASE_GRAPHS)})"
            )
        fresh.extend(rerun_kernel_records(
            graph_names=args.graphs or None, repeats=args.repeats,
        ))
    if not fresh:
        raise _input_error(
            "no fresh records (pass --fresh-kernels or --rerun)"
        )

    ok, report = run_regression(
        committed, fresh,
        tol_ratio=(DEFAULT_TOL_RATIO if args.tol_ratio is None
                   else args.tol_ratio),
        tol_seconds=(DEFAULT_TOL_SECONDS if args.tol_seconds is None
                     else args.tol_seconds),
        q_tol=DEFAULT_Q_TOL if args.q_tol is None else args.q_tol,
    )
    print(report)
    return 0 if ok else 1


def _cmd_robust_inspect(args) -> int:
    from repro.robust.checkpoint import describe_checkpoint, load_checkpoint
    from repro.utils.errors import CheckpointError

    try:
        ckpt = load_checkpoint(args.ckpt)
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    print(describe_checkpoint(ckpt))
    return 0


def _cmd_robust_resume(args) -> int:
    import json

    from repro.core.config import LouvainConfig
    from repro.core.driver import louvain
    from repro.robust.checkpoint import load_checkpoint
    from repro.utils.errors import CheckpointError, ValidationError

    try:
        ckpt = load_checkpoint(args.ckpt)
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    if ckpt.pipeline != "driver":
        raise SystemExit(
            f"error: {ckpt.pipeline!r} checkpoints resume through the "
            "library (distributed_louvain(..., resume=...)), not the CLI"
        )
    graph = _load_graph(args)
    print(f"graph: {graph}")
    fields = json.loads(ckpt.config_json)
    # Never re-inject the fault that interrupted the original run, and
    # never re-arm the budget that cancelled it — the point of resuming
    # is to finish the interrupted work.
    fields["fault_plan"] = None
    fields["budget"] = None
    try:
        config = LouvainConfig.from_dict(fields)
    except ValidationError as exc:
        raise SystemExit(f"error: {args.ckpt}: {exc}")
    try:
        result = louvain(graph, config, resume=args.ckpt,
                         checkpoint=args.checkpoint)
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"resumed from:  {args.ckpt} (phase {ckpt.phase_index})")
    print(f"variant:       {config.variant_name}")
    print(f"modularity:    {result.modularity:.6f}")
    print(f"communities:   {result.num_communities}")
    print(f"iterations:    {result.total_iterations}")
    if args.output:
        np.savetxt(args.output, result.communities, fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _cmd_robust_budget(args) -> int:
    from repro.core.driver import louvain
    from repro.robust.budget import RunBudget
    from repro.utils.errors import ValidationError

    graph = _load_graph(args)
    print(f"graph: {graph}")
    try:
        budget = RunBudget(
            deadline=args.deadline,
            max_phases=args.max_phases,
            max_iterations=args.max_iterations,
            max_memory_mb=args.max_memory_mb,
            degrade=not args.no_degrade,
            checkpoint=args.checkpoint,
        )
    except ValidationError as exc:
        raise SystemExit(f"error: {exc}")
    result = louvain(
        graph,
        variant=args.variant,
        backend=args.backend,
        num_threads=args.threads,
        budget=budget,
    )
    outcome = result.budget_outcome
    status = ("completed" if not outcome.cancelled
              else f"cancelled ({outcome.reason})")
    print(f"status:        {status}")
    print(f"elapsed:       {outcome.elapsed:.3f}s")
    print(f"phases:        {outcome.phases_completed}")
    print(f"iterations:    {outcome.iterations_completed}")
    if outcome.degradations:
        print("degradations:  " + " -> ".join(outcome.degradations))
    if outcome.checkpoint:
        print(f"checkpoint:    {outcome.checkpoint}")
    print(f"modularity:    {result.modularity:.6f}")
    print(f"communities:   {result.num_communities}")
    if args.output:
        np.savetxt(args.output, result.communities, fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _cmd_serve_run(args) -> int:
    from repro.serve import AutoscalePolicy, InMemoryBroker, serve_api
    from repro.utils.errors import ValidationError

    wal = False if args.no_wal else (args.wal if args.wal else True)
    try:
        server = serve_api(
            args.spool, host=args.host, port=args.port,
            broker=InMemoryBroker(maxsize=args.queue_size),
            policy=AutoscalePolicy(
                min_workers=args.min_workers,
                max_workers=args.max_workers,
                idle_grace_s=args.idle_grace,
            ),
            wal=wal or None,
            wal_fsync=args.wal_fsync,
        )
    except ValidationError as exc:
        raise _input_error(str(exc))
    host, port = server.address
    wal_desc = "off" if wal is False else (
        wal if isinstance(wal, str) else "on")
    print(f"repro serve: http://{host}:{port}/jobs "
          f"(/metrics, /healthz) — spool: {args.spool}, "
          f"queue <= {args.queue_size}, "
          f"workers {args.min_workers}..{args.max_workers}, "
          f"wal {wal_desc}")
    try:
        server.serve_forever(drain_timeout=args.drain_timeout)
    finally:
        print("serve: stopped")
    return 0


def _serve_client(args):
    from repro.serve import ServeClient

    return ServeClient(args.url)


def _serve_api_call(fn):
    """Run one client call; map API errors to exit 1 with the message."""
    from repro.serve import ServeAPIError

    try:
        return fn()
    except ServeAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except OSError as exc:
        raise _input_error(f"cannot reach the service: {exc}")


def _cmd_serve_submit(args) -> int:
    import json

    spec: dict = {"graph": args.graph}
    if args.config:
        try:
            spec["config"] = json.loads(args.config)
        except ValueError as exc:
            raise _input_error(f"--config is not valid JSON ({exc})")
    if args.budget:
        try:
            spec["budget"] = json.loads(args.budget)
        except ValueError as exc:
            raise _input_error(f"--budget is not valid JSON ({exc})")
    if args.priority:
        spec["priority"] = args.priority
    if args.max_attempts is not None:
        spec["max_attempts"] = args.max_attempts
    client = _serve_client(args)
    job_id = _serve_api_call(lambda: client.submit(spec))
    print(f"job_id: {job_id}")
    if args.wait:
        record = _serve_api_call(
            lambda: client.wait(job_id, timeout=args.timeout))
        print(f"status: {record['status']}")
        if record["meta"]:
            for key, value in sorted(record["meta"].items()):
                print(f"  {key}: {value}")
        if record["error"]:
            print(f"error: {record['error']}", file=sys.stderr)
            return 1
    return 0


def _cmd_serve_status(args) -> int:
    import json

    client = _serve_client(args)
    if args.job_id:
        record = _serve_api_call(lambda: client.status(args.job_id))
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for job in _serve_api_call(client.jobs):
            print(f"{job['job_id']}  {job['status']}")
    return 0


def _cmd_serve_result(args) -> int:
    client = _serve_client(args)
    result = _serve_api_call(lambda: client.result(args.job_id))
    meta = result["meta"]
    print(f"job_id:      {result['job_id']}")
    print(f"modularity:  {meta['modularity']:.6f}")
    print(f"communities: {meta['num_communities']}")
    print(f"iterations:  {meta['iterations']}")
    if meta.get("resumed_from_phase") is not None:
        print(f"resumed:     from phase {meta['resumed_from_phase']}")
    if args.output:
        np.savetxt(args.output, np.asarray(result["communities"],
                                           dtype=np.int64), fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _cmd_serve_cancel(args) -> int:
    client = _serve_client(args)
    payload = _serve_api_call(lambda: client.cancel(args.job_id))
    print(f"{payload['job_id']}: {payload['status']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-louvain",
        description="Parallel heuristics for scalable community detection "
                    "(Lu, Halappanavar, Kalyanaraman; ParCo 2015) — Python "
                    "reproduction.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("path", nargs="?", help="graph file")
        p.add_argument("--format",
                       choices=["auto", "edgelist", "metis", "mtx", "csrz"],
                       default="auto", help="input format (default: by suffix)")
        p.add_argument("--dataset", help="use a named stand-in instead of a file")
        p.add_argument("--scale", type=float, default=1.0,
                       help="dataset size multiplier")
        p.add_argument("--seed", type=int, default=0)

    detect = sub.add_parser("detect", help="run community detection")
    add_graph_args(detect)
    detect.add_argument(
        "--variant",
        choices=["serial", "baseline", "baseline+VF", "baseline+VF+Color"],
        default="baseline+VF+Color",
    )
    detect.add_argument("--resolution", type=float, default=1.0,
                        help="modularity resolution parameter gamma")
    detect.add_argument("--colored-threshold", type=float, default=1e-2)
    detect.add_argument("--final-threshold", type=float, default=1e-6)
    detect.add_argument("--coloring-cutoff", type=int, default=None,
                        help="min vertices to keep coloring (default n/16)")
    detect.add_argument("--backend",
                        choices=["serial", "threads", "processes"],
                        default="serial")
    detect.add_argument("--threads", type=int, default=4)
    detect.add_argument("--trace", action="store_true",
                        help="enable the tracer (fills counters/gauges; "
                             "with REPRO_OBS_RING set, streams live "
                             "snapshots for `repro-louvain obs serve`)")
    detect.add_argument("--output", help="write the assignment to a file")
    detect.add_argument("--checkpoint", metavar="FILE",
                        help="write a phase-boundary checkpoint here "
                             "(.ckpt.npz; see docs/robustness.md)")
    detect.add_argument("--resume", metavar="FILE",
                        help="continue from a checkpoint written by a "
                             "previous run with the same semantic config")
    detect.set_defaults(func=_cmd_detect)

    stats = sub.add_parser("stats", help="print Table 1 statistics")
    add_graph_args(stats)
    stats.set_defaults(func=_cmd_stats)

    analyze = sub.add_parser(
        "analyze", help="detect (or load) communities and print structure"
    )
    add_graph_args(analyze)
    analyze.add_argument("--communities", metavar="FILE",
                         help="analyze this assignment instead of detecting")
    analyze.add_argument("--top", type=int, default=8,
                         help="how many communities to list (default 8)")
    analyze.add_argument("--hubs", type=int, default=3,
                         help="hubs to show per community (default 3)")
    analyze.set_defaults(func=_cmd_analyze)

    compare = sub.add_parser(
        "compare", help="compare two community-assignment files"
    )
    compare.add_argument("benchmark", help="reference assignment (one label "
                         "per line, e.g. the serial output)")
    compare.add_argument("test", help="assignment to evaluate")
    compare.set_defaults(func=_cmd_compare)

    convert = sub.add_parser("convert", help="convert between graph formats")
    convert.add_argument("input")
    convert.add_argument("output")
    convert.add_argument("--input-format", default="auto",
                         choices=["auto", "edgelist", "metis", "mtx", "csrz"])
    convert.add_argument("--output-format", default="auto",
                         choices=["auto", "edgelist", "metis", "mtx", "csrz"])
    convert.set_defaults(func=_cmd_convert)

    datasets = sub.add_parser("datasets", help="list the dataset stand-ins")
    datasets.add_argument("-v", "--verbose", action="store_true")
    datasets.set_defaults(func=_cmd_datasets)

    bench = sub.add_parser("bench", help="run a §6 experiment")
    bench.add_argument("experiment",
                       help="experiment id, 'all', or 'list'")
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--json", metavar="FILE",
                       help="also dump the raw experiment data as JSON")
    bench.set_defaults(func=_cmd_bench)

    obs = sub.add_parser(
        "obs", help="tracing and metrics (capture / report / validate)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_trace = obs_sub.add_parser(
        "trace", help="run traced Louvain and write the trace to a file"
    )
    add_graph_args(obs_trace)
    obs_trace.add_argument(
        "--variant",
        choices=["serial", "baseline", "baseline+VF", "baseline+VF+Color"],
        default="baseline+VF+Color",
    )
    obs_trace.add_argument("--coloring-cutoff", type=int, default=None,
                           help="min vertices to keep coloring (default n/16)")
    obs_trace.add_argument("--final-threshold", type=float, default=1e-6)
    obs_trace.add_argument("--backend",
                           choices=["serial", "threads", "processes"],
                           default="serial")
    obs_trace.add_argument("--threads", type=int, default=4)
    obs_trace.add_argument("--out", required=True,
                           help="output trace file")
    obs_trace.add_argument("--trace-format", dest="trace_format",
                           choices=["chrome", "jsonl", "flat"],
                           default="chrome",
                           help="chrome = Perfetto/chrome://tracing JSON "
                                "(default), jsonl = lossless event log, "
                                "flat = key/value text")
    obs_trace.add_argument("--profile", action="store_true",
                           help="also run the sampling wall-clock profiler "
                                "and embed its collapsed stacks in the "
                                "trace (chrome/jsonl formats)")
    obs_trace.add_argument("--flame", metavar="FILE",
                           help="write the profiler's collapsed-stack file "
                                "here (flamegraph.pl / speedscope input; "
                                "implies --profile)")
    obs_trace.set_defaults(func=_cmd_obs_trace)

    obs_report = obs_sub.add_parser(
        "report", help="Fig 8-style breakdown + span tree from a trace file"
    )
    obs_report.add_argument("trace", help="trace file (chrome JSON or JSONL)")
    obs_report.add_argument("--no-tree", action="store_true",
                            help="omit the span tree")
    obs_report.add_argument("--max-depth", type=int, default=None,
                            help="span-tree depth limit")
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_validate = obs_sub.add_parser(
        "validate", help="schema-check a Chrome trace-event JSON file"
    )
    obs_validate.add_argument("trace", help="Chrome trace JSON file")
    obs_validate.set_defaults(func=_cmd_obs_validate)

    obs_serve = obs_sub.add_parser(
        "serve",
        help="HTTP exposition endpoint: /metrics (Prometheus text), "
             "/healthz, /snapshot — follows a run's --ring file or this "
             "process's live registry",
    )
    obs_serve.add_argument("--ring", metavar="FILE", default=None,
                           help="JSONL snapshot ring file a pipeline run "
                                "streams (REPRO_OBS_RING / "
                                "LouvainConfig.metrics_ring)")
    obs_serve.add_argument("--host", default="127.0.0.1")
    obs_serve.add_argument("--port", type=int, default=9464,
                           help="TCP port (0 = ephemeral; default 9464)")
    obs_serve.set_defaults(func=_cmd_obs_serve)

    obs_regress = obs_sub.add_parser(
        "regress",
        help="perf-regression gate: compare fresh bench records against "
             "committed BENCH_*.json; exits 1 on regression",
    )
    obs_regress.add_argument("--kernels", metavar="FILE",
                             default="BENCH_kernels.json",
                             help="committed kernel records (default "
                                  "BENCH_kernels.json)")
    obs_regress.add_argument("--fresh-kernels", metavar="FILE", default=None,
                             help="fresh kernel records to judge")
    obs_regress.add_argument("--rerun", action="store_true",
                             help="re-time the optimized configurations "
                                  "in-process to produce fresh records")
    obs_regress.add_argument("--graphs", nargs="*", default=None,
                             help="subset of kernel graphs for --rerun")
    obs_regress.add_argument("--repeats", type=int, default=1,
                             help="best-of-N repeats for --rerun (default 1)")
    obs_regress.add_argument("--tol-ratio", type=float, default=None,
                             help="relative wall-clock headroom "
                                  "(default 0.25)")
    obs_regress.add_argument("--tol-seconds", type=float, default=None,
                             help="absolute wall-clock headroom in seconds "
                                  "(default 0.25; raise on shared runners)")
    obs_regress.add_argument("--q-tol", type=float, default=None,
                             help="tolerated modularity drop (default 0.01)")
    obs_regress.set_defaults(func=_cmd_obs_regress)

    robust = sub.add_parser(
        "robust", help="fault tolerance: inspect / resume checkpoints"
    )
    robust_sub = robust.add_subparsers(dest="robust_command", required=True)

    robust_inspect = robust_sub.add_parser(
        "inspect", help="summarize a .ckpt.npz phase-boundary checkpoint"
    )
    robust_inspect.add_argument("ckpt", help="checkpoint file")
    robust_inspect.set_defaults(func=_cmd_robust_inspect)

    robust_resume = robust_sub.add_parser(
        "resume",
        help="continue an interrupted run from a checkpoint (the stored "
             "config is reused; pass the same graph it ran on)",
    )
    robust_resume.add_argument("ckpt", help="checkpoint file")
    add_graph_args(robust_resume)
    robust_resume.add_argument("--checkpoint", metavar="FILE",
                               help="keep checkpointing the resumed run "
                                    "to this file")
    robust_resume.add_argument("--output",
                               help="write the assignment to a file")
    robust_resume.set_defaults(func=_cmd_robust_resume)

    robust_budget = robust_sub.add_parser(
        "budget",
        help="run detection under a wall-clock/phase/iteration/memory "
             "budget; cancels cooperatively with the best-seen partition "
             "and a resumable checkpoint",
    )
    add_graph_args(robust_budget)
    robust_budget.add_argument(
        "--variant",
        choices=["baseline", "baseline+VF", "baseline+VF+Color"],
        default="baseline+VF+Color",
    )
    robust_budget.add_argument("--deadline", type=float, default=None,
                               metavar="SECONDS",
                               help="wall-clock budget")
    robust_budget.add_argument("--max-phases", type=int, default=None)
    robust_budget.add_argument("--max-iterations", type=int, default=None)
    robust_budget.add_argument("--max-memory-mb", type=float, default=None,
                               help="peak-RSS bound in MiB")
    robust_budget.add_argument("--no-degrade", action="store_true",
                               help="cancel outright instead of walking "
                                    "the degradation ladder first")
    robust_budget.add_argument("--backend",
                               choices=["serial", "threads", "processes"],
                               default="serial")
    robust_budget.add_argument("--threads", type=int, default=4)
    robust_budget.add_argument("--checkpoint", metavar="FILE",
                               help="where the cancellation checkpoint "
                                    "is written (.ckpt.npz; resume with "
                                    "`robust resume`)")
    robust_budget.add_argument("--output",
                               help="write the assignment to a file")
    robust_budget.set_defaults(func=_cmd_robust_budget)

    serve = sub.add_parser(
        "serve",
        help="detection job service: run the HTTP service or submit/"
             "track/cancel jobs on one (docs/serving.md)",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="start the job service + HTTP API (foreground)"
    )
    serve_run.add_argument("--spool", default="serve-spool",
                           help="directory for job checkpoints/results "
                                "(default ./serve-spool)")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=9475,
                           help="TCP port (0 = ephemeral; default 9475)")
    serve_run.add_argument("--queue-size", type=int, default=64,
                           help="pending-job bound; full queue returns "
                                "429 (default 64)")
    serve_run.add_argument("--min-workers", type=int, default=1)
    serve_run.add_argument("--max-workers", type=int, default=4)
    serve_run.add_argument("--idle-grace", type=float, default=5.0,
                           metavar="SECONDS",
                           help="idle time before a surplus worker is "
                                "retired (default 5)")
    serve_run.add_argument("--wal", metavar="FILE", default=None,
                           help="write-ahead log path (default "
                                "<spool>/serve.wal; restart over the same "
                                "spool+wal recovers all accepted jobs)")
    serve_run.add_argument("--no-wal", action="store_true",
                           help="disable the write-ahead log "
                                "(memory-only queue, PR-9 behavior)")
    serve_run.add_argument("--wal-fsync", action="store_true",
                           help="fsync every WAL record (survives "
                                "OS/power failure, not just process "
                                "death)")
    serve_run.add_argument("--drain-timeout", type=float, default=30.0,
                           metavar="SECONDS",
                           help="SIGTERM drain: how long running jobs "
                                "get to reach a checkpoint before "
                                "shutdown (default 30)")
    serve_run.set_defaults(func=_cmd_serve_run)

    def add_url(p):
        p.add_argument("--url", default="http://127.0.0.1:9475",
                       help="service base URL "
                            "(default http://127.0.0.1:9475)")

    serve_submit = serve_sub.add_parser(
        "submit", help="submit a job (graph ref + optional config JSON)"
    )
    serve_submit.add_argument(
        "graph",
        help="graph ref: dataset:NAME?scale=F&seed=I, planted:KxS, "
             "or a graph file path readable by the *service*",
    )
    serve_submit.add_argument("--config", metavar="JSON",
                              help="LouvainConfig fields as a JSON object")
    serve_submit.add_argument("--budget", metavar="JSON",
                              help="RunBudget fields as a JSON object")
    serve_submit.add_argument("--priority", type=int, default=0,
                              help="queue priority (higher first)")
    serve_submit.add_argument("--max-attempts", type=int, default=None,
                              help="at-least-once retry bound (default 3)")
    serve_submit.add_argument("--wait", action="store_true",
                              help="block until the job finishes and "
                                   "print its summary")
    serve_submit.add_argument("--timeout", type=float, default=300.0,
                              help="--wait deadline in seconds")
    add_url(serve_submit)
    serve_submit.set_defaults(func=_cmd_serve_submit)

    serve_status = serve_sub.add_parser(
        "status", help="show one job's record (or list all jobs)"
    )
    serve_status.add_argument("job_id", nargs="?",
                              help="job id (omit to list all jobs)")
    add_url(serve_status)
    serve_status.set_defaults(func=_cmd_serve_status)

    serve_result = serve_sub.add_parser(
        "result", help="fetch a finished job's assignment + summary"
    )
    serve_result.add_argument("job_id")
    serve_result.add_argument("--output",
                              help="write the assignment to a file")
    add_url(serve_result)
    serve_result.set_defaults(func=_cmd_serve_result)

    serve_cancel = serve_sub.add_parser(
        "cancel", help="cancel a pending or running job"
    )
    serve_cancel.add_argument("job_id")
    add_url(serve_cancel)
    serve_cancel.set_defaults(func=_cmd_serve_cancel)

    lint = sub.add_parser(
        "lint",
        help="static analysis gate (delegates to repro-lint; e.g. "
             "`repro lint src/`, `repro lint migrate-baseline`)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint")
    lint.set_defaults(func=_cmd_lint)
    return parser


def _cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for ``repro-louvain`` and ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
