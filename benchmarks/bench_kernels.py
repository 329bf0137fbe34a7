"""Micro-benchmarks of the hot kernels (multi-round pytest-benchmark).

These time the real Python/NumPy kernels — not the simulated machine —
on a mid-size stand-in: the vectorized sweep vs the reference sweep, the
graph rebuild, coloring, and modularity evaluation.  They are the numbers
a downstream user of this library actually experiences.

Run as a script (``python benchmarks/bench_kernels.py``) this module also
times end-to-end ``run_phase`` — the optimized hot path against the seed
kernel — on ≥50k-vertex synthetic graphs and writes the machine-readable
``BENCH_kernels.json`` at the repository root.  The seed baseline is the
repository's root commit, checked out into a temporary ``git worktree``
and timed in a subprocess, so the comparison measures the real original
code rather than a flag-emulation of it (the current kernel is faster
even with every optimization flag disabled).  ``--no-seed`` falls back to
the in-repo emulation (``aggregation="sort", prune=False,
incremental=False``), reported as kernel ``"seed-flags"``.
"""

import numpy as np
import pytest

from repro.coloring.greedy import greedy_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.core.modularity import modularity
from repro.core.phase import state_modularity
from repro.core.sweep import (
    compute_targets_reference,
    compute_targets_vectorized,
    init_state,
)
from repro.datasets.catalog import load_dataset
from repro.graph.coarsen import coarsen


@pytest.fixture(scope="module")
def graph(bench_scale):
    return load_dataset("Soc-LiveJournal1", scale=bench_scale, seed=0)


@pytest.fixture(scope="module")
def mid_state(graph):
    """State after two sweeps — a realistic mid-phase configuration."""
    from repro.core.sweep import sweep

    state = init_state(graph)
    verts = np.arange(graph.num_vertices, dtype=np.int64)
    for _ in range(2):
        sweep(graph, state, verts)
    return state


def test_sweep_vectorized(benchmark, graph, mid_state):
    verts = np.arange(graph.num_vertices, dtype=np.int64)
    benchmark(compute_targets_vectorized, graph, mid_state, verts)


def test_sweep_reference(benchmark, graph, mid_state):
    verts = np.arange(graph.num_vertices, dtype=np.int64)
    benchmark(compute_targets_reference, graph, mid_state, verts)


def test_modularity_full(benchmark, graph, mid_state):
    benchmark(modularity, graph, mid_state.comm)


def test_modularity_from_state(benchmark, graph, mid_state):
    benchmark(state_modularity, graph, mid_state)


def test_rebuild(benchmark, graph, mid_state):
    benchmark(coarsen, graph, mid_state.comm)


def test_coloring_greedy(benchmark, graph):
    benchmark(greedy_coloring, graph)


def test_coloring_jones_plassmann(benchmark, graph):
    benchmark(jones_plassmann_coloring, graph, seed=0)


def test_full_pipeline(benchmark, graph):
    from repro.core.driver import louvain

    benchmark.pedantic(
        lambda: louvain(graph, variant="baseline+VF+Color",
                        coloring_min_vertices=graph.num_vertices // 16),
        rounds=3, iterations=1,
    )


def test_full_pipeline_thread_backend(benchmark, graph):
    """Real wall-clock with the thread backend (GIL-bounded overlap)."""
    import os

    from repro.core.driver import louvain

    workers = max(2, os.cpu_count() or 2)
    benchmark.pedantic(
        lambda: louvain(graph, variant="baseline",
                        backend="threads", num_threads=workers),
        rounds=3, iterations=1,
    )


def test_full_pipeline_process_backend(benchmark, graph):
    """Real wall-clock with the fork+shared-memory process backend.

    On multi-core machines this is genuinely parallel; compare against
    ``test_full_pipeline`` for the measured speedup on *this* box (the
    simulated 32-core figures come from the cost model instead).
    """
    import multiprocessing as mp
    import os

    import pytest

    if "fork" not in mp.get_all_start_methods():
        pytest.skip("process backend requires fork")
    from repro.core.driver import louvain

    workers = max(2, os.cpu_count() or 2)
    benchmark.pedantic(
        lambda: louvain(graph, variant="baseline",
                        backend="processes", num_threads=workers),
        rounds=3, iterations=1,
    )


def test_full_pipeline_serial_reference(benchmark, graph):
    """Wall-clock baseline for the two backend benchmarks above."""
    from repro.core.driver import louvain

    benchmark.pedantic(
        lambda: louvain(graph, variant="baseline"),
        rounds=3, iterations=1,
    )


# ---------------------------------------------------------------------------
# End-to-end run_phase suite (machine-readable BENCH_kernels.json)
# ---------------------------------------------------------------------------
#: ≥50k-vertex synthetic inputs for the end-to-end phase benchmark.  The
#: planted graphs stress long phases (dozens of sweeps over strong
#: communities); the RMAT graph stresses per-sweep volume (power-law rows,
#: ~1M edges, few iterations).
PHASE_GRAPHS = {
    "planted-50k": ("planted_partition", (500, 100, 0.12, 1e-5), {"seed": 7}),
    "planted-100k": ("planted_partition", (1000, 100, 0.12, 1e-5), {"seed": 7}),
    "rmat-131k": ("rmat", (17, 8), {"seed": 3}),
}

#: Phase settings shared by every timed configuration.
PHASE_THRESHOLD = 1e-6

_SEED_SNIPPET = """\
import json, sys, time
import repro.graph.generators as G
from repro.core.phase import run_phase
from repro.core.sweep import init_state

name, args, kwargs, repeats = json.loads(sys.argv[1])
graph = getattr(G, name)(*args, **kwargs)
best = None
iters = q = None
for _ in range(repeats):
    state = init_state(graph)
    t0 = time.perf_counter()
    out = run_phase(graph, state, threshold={threshold})
    dt = time.perf_counter() - t0
    if best is None or dt < best:
        best = dt
    iters, q = len(out.records), out.end_modularity
print(json.dumps({{"seconds": best, "iterations": iters, "Q": q}}))
"""


def _build_graph(spec):
    import repro.graph.generators as generators

    name, args, kwargs = spec
    return getattr(generators, name)(*args, **kwargs)


def provenance(repo_root):
    """Provenance fields stamped on every benchmark record.

    ``commit`` is the repository HEAD the numbers were measured at
    (``"unknown"`` outside a git checkout), ``date`` the UTC measurement
    day, and ``backend`` the array library, always ``"numpy"`` — without
    these a committed JSON cannot be compared across PRs.
    """
    import datetime
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        commit = "unknown"
    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    return {"commit": commit, "date": date, "backend": "numpy"}


def time_phase(graph, repeats=3, traced=False, **kwargs):
    """Best-of-``repeats`` wall clock of one ``run_phase`` configuration.

    With ``traced=True`` an *enabled* :class:`repro.obs.trace.Tracer` is
    installed as the ambient tracer for the timed region, so the figure
    includes the full span/metric recording cost (the observability PR's
    overhead acceptance criterion compares this against ``traced=False``).
    """
    import time
    from contextlib import nullcontext

    from repro.core.phase import run_phase
    from repro.core.sweep import init_state
    from repro.obs.trace import Tracer, use_tracer

    best = None
    iters = q = None
    for _ in range(repeats):
        state = init_state(graph)
        scope = use_tracer(Tracer(enabled=True)) if traced else nullcontext()
        with scope:
            t0 = time.perf_counter()
            out = run_phase(graph, state, threshold=PHASE_THRESHOLD, **kwargs)
            dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
        iters, q = len(out.records), out.end_modularity
    return {"seconds": best, "iterations": iters, "Q": q}


def _time_seed_phase(spec, repeats, repo_root):
    """Time the root-commit ``run_phase`` in a throwaway git worktree.

    Returns ``None`` when git (or the checkout) is unavailable, in which
    case the caller falls back to the in-repo flag emulation.
    """
    import json
    import os
    import subprocess
    import tempfile

    def git(*argv):
        return subprocess.run(
            ["git", *argv], cwd=repo_root, check=True,
            capture_output=True, text=True,
        ).stdout.strip()

    tree = None
    try:
        seed_ref = git("rev-list", "--max-parents=0", "HEAD").splitlines()[0]
        tree = tempfile.mkdtemp(prefix="bench-seed-")
        git("worktree", "add", "--detach", "--force", tree, seed_ref)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        name, args, kwargs = spec
        payload = json.dumps([name, list(args), kwargs, repeats])
        proc = subprocess.run(
            ["python", "-c",
             _SEED_SNIPPET.format(threshold=PHASE_THRESHOLD), payload],
            env=env, check=True, capture_output=True, text=True,
        )
        return json.loads(proc.stdout)
    except (subprocess.CalledProcessError, OSError, ValueError):
        return None
    finally:
        if tree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=repo_root, capture_output=True)


def run_phase_suite(graph_names=None, repeats=3, use_seed_worktree=True,
                    log=print):
    """Time seed vs optimized ``run_phase`` and return the JSON records.

    Each record carries the fields the downstream tooling keys on —
    ``graph``, ``n``, ``M``, ``kernel``, ``seconds``, ``iterations``,
    ``Q`` — plus the :func:`provenance` stamp (``commit``, ``date``,
    ``backend``).  Kernels: ``"seed"`` (root-commit code in a worktree),
    ``"seed-flags"`` (current code, optimizations disabled — only when the
    worktree baseline is unavailable or disabled) and ``"optimized"``.
    For ``planted-100k`` an extra ``"optimized+trace"`` record times the
    same kernel with the :mod:`repro.obs` tracer enabled, quantifying the
    tracing overhead.
    """
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stamp = provenance(repo_root)
    records = []
    for name in graph_names or PHASE_GRAPHS:
        spec = PHASE_GRAPHS[name]
        graph = _build_graph(spec)
        meta = {"graph": name, "n": graph.num_vertices,
                "M": graph.num_edges, **stamp}
        seed = _time_seed_phase(spec, repeats, repo_root) if use_seed_worktree else None
        if seed is not None:
            records.append({**meta, "kernel": "seed", **seed})
        else:
            records.append({
                **meta, "kernel": "seed-flags",
                **time_phase(graph, repeats, aggregation="sort",
                             prune=False, incremental=False),
            })
        records.append({
            **meta, "kernel": "optimized", **time_phase(graph, repeats),
        })
        base, opt = records[-2], records[-1]
        log(f"{name}: n={meta['n']} M={meta['M']} "
            f"{base['kernel']}={base['seconds']:.3f}s "
            f"optimized={opt['seconds']:.3f}s "
            f"speedup={base['seconds'] / opt['seconds']:.2f}x")
        if name == "planted-100k":
            records.append({
                **meta, "kernel": "optimized+trace",
                **time_phase(graph, repeats, traced=True),
            })
            traced = records[-1]
            overhead = traced["seconds"] / opt["seconds"] - 1.0
            log(f"{name}: optimized+trace={traced['seconds']:.3f}s "
                f"(tracer overhead {overhead:+.1%})")
    return records


def main(argv=None):
    """CLI entry point: write ``BENCH_kernels.json`` at the repo root."""
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="output path (default: <repo>/BENCH_kernels.json)")
    parser.add_argument("--graphs", nargs="*", choices=sorted(PHASE_GRAPHS),
                        default=None, help="subset of graphs to run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-seed", action="store_true",
                        help="skip the git-worktree seed baseline "
                             "(time the in-repo flag emulation instead)")
    opts = parser.parse_args(argv)
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = opts.out or os.path.join(repo_root, "BENCH_kernels.json")
    records = run_phase_suite(
        graph_names=opts.graphs, repeats=opts.repeats,
        use_seed_worktree=not opts.no_seed,
    )
    with open(out_path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path} ({len(records)} records)")


if __name__ == "__main__":
    main()
