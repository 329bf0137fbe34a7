"""Perf-regression gate: fresh bench records vs committed trajectories.

The repository commits machine-readable benchmark records
(``BENCH_kernels.json`` from ``benchmarks/bench_kernels.py``,
``BENCH_batch.json`` from ``benchmarks/bench_batch.py``) so every PR's
performance claims stay auditable.  ``repro obs regress`` closes the
loop: it compares a *fresh* set of records against the committed ones
and exits non-zero when the hot path got slower or worse — the CI smoke
gate that catches a perf regression before a human reads a number.

Comparison is **provenance-aware**: records carry ``commit``, ``date``
and ``backend`` stamps.  A commit/date mismatch is expected for a fresh
run and merely noted; a **backend** mismatch (records from different
array libraries) makes wall-clock comparison meaningless, so such pairs
are skipped with a note instead of judged.  Records written here always
stamp ``"numpy"``.

Per matched record pair two checks run:

* ``seconds`` — fresh must not exceed committed by more than
  ``max(committed * tol_ratio, tol_seconds)``.  The absolute floor
  matters on shared CI runners, whose baseline differs from the bench
  machine; CI passes a generous ``--tol-seconds``.
* ``Q`` / ``Q_mean`` — fresh modularity must not drop more than
  ``q_tol`` below committed (quality regressions are perf regressions
  too: a faster kernel that converges worse is not a win).

Fresh records come from a file (``--fresh-kernels``/``--fresh-batch``,
produced by the benchmark scripts) or from ``--rerun``, which re-times
the *optimized* configurations in-process using the same recipes the
benchmark scripts use (the graph specs below are asserted identical to
``benchmarks/bench_kernels.py`` by the test-suite).  ``--rerun`` cannot
regenerate ``kernel="seed"`` records — those require a git-worktree
checkout of the root commit — so committed seed records are skipped
with a note.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

__all__ = [
    "Comparison",
    "DEFAULT_Q_TOL",
    "DEFAULT_TOL_RATIO",
    "DEFAULT_TOL_SECONDS",
    "PHASE_GRAPHS",
    "PHASE_THRESHOLD",
    "compare_records",
    "load_records",
    "record_key",
    "render_comparisons",
    "rerun_batch_records",
    "rerun_kernel_records",
    "run_regression",
]

#: Relative wall-clock headroom before a record counts as regressed.
DEFAULT_TOL_RATIO = 0.25
#: Absolute wall-clock headroom (seconds) — the shared-runner floor.
DEFAULT_TOL_SECONDS = 0.25
#: Maximum tolerated modularity drop.
DEFAULT_Q_TOL = 0.01

#: End-to-end phase graphs — must match ``benchmarks/bench_kernels.py``
#: (``PHASE_GRAPHS``/``PHASE_THRESHOLD``); the test-suite cross-checks
#: the two copies so they cannot drift apart.  Duplicated here because
#: ``benchmarks/`` is a script directory, not an importable package.
PHASE_GRAPHS = {
    "planted-50k": ("planted_partition", (500, 100, 0.12, 1e-5), {"seed": 7}),
    "planted-100k": ("planted_partition", (1000, 100, 0.12, 1e-5), {"seed": 7}),
    "rmat-131k": ("rmat", (17, 8), {"seed": 3}),
}
PHASE_THRESHOLD = 1e-6

#: Batch-suite fleet recipe — must match ``benchmarks/bench_batch.py``.
BATCH_GRAPH_SPEC = (4, 12, 0.5, 0.03)
BATCH_NUM_GRAPHS = 48


@dataclass(frozen=True)
class Comparison:
    """One judged metric of one matched record pair."""

    key: str
    metric: str
    committed: float
    fresh: float
    limit: float
    ok: bool
    note: str = ""

    def render(self) -> str:
        verdict = "ok  " if self.ok else "FAIL"
        line = (f"{verdict} {self.key} {self.metric}: "
                f"committed={self.committed:.4g} fresh={self.fresh:.4g} "
                f"limit={self.limit:.4g}")
        return line + (f"  ({self.note})" if self.note else "")


def load_records(path) -> list[dict]:
    """Load a ``BENCH_*.json`` record list (raises on malformed files)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(
            isinstance(r, dict) for r in data):
        raise ValueError(f"{path}: expected a JSON array of record objects")
    return data


def record_key(record: dict) -> "str | None":
    """Identity a record is matched on across committed/fresh sets."""
    if "graph" in record and "kernel" in record:
        return f"kernels:{record['graph']}/{record['kernel']}"
    if "mode" in record:
        return f"batch:{record['mode']}"
    return None


def _q_field(record: dict) -> "str | None":
    for name in ("Q", "Q_mean"):
        if name in record:
            return name
    return None


def compare_records(committed: list[dict], fresh: list[dict], *,
                    tol_ratio: float = DEFAULT_TOL_RATIO,
                    tol_seconds: float = DEFAULT_TOL_SECONDS,
                    q_tol: float = DEFAULT_Q_TOL,
                    ) -> tuple[list[Comparison], list[str]]:
    """Judge every committed record against its fresh counterpart.

    Returns ``(comparisons, notes)``: comparisons for matched pairs,
    notes for provenance observations and unmatched records.  The gate
    fails iff any comparison has ``ok=False`` — an unmatched committed
    record is a note, not a failure, because ``--rerun`` legitimately
    cannot reproduce every kernel (see the module docstring).
    """
    fresh_by_key: dict[str, dict] = {}
    for record in fresh:
        key = record_key(record)
        if key is not None:
            fresh_by_key[key] = record
    comparisons: list[Comparison] = []
    notes: list[str] = []
    seen_provenance = set()
    for record in committed:
        key = record_key(record)
        if key is None:
            notes.append(f"committed record without identity skipped: "
                         f"{sorted(record)[:4]}")
            continue
        other = fresh_by_key.pop(key, None)
        if other is None:
            notes.append(f"{key}: no fresh record — skipped")
            continue
        prov = (record.get("commit"), other.get("commit"),
                record.get("backend"), other.get("backend"))
        if prov not in seen_provenance:
            seen_provenance.add(prov)
            if record.get("commit") != other.get("commit"):
                notes.append(
                    f"provenance: committed@{str(record.get('commit'))[:12]} "
                    f"vs fresh@{str(other.get('commit'))[:12]} "
                    "(expected for a fresh run)"
                )
        if record.get("backend") != other.get("backend"):
            notes.append(
                f"{key}: backend mismatch ({record.get('backend')} vs "
                f"{other.get('backend')}) — wall-clock not comparable, "
                "skipped"
            )
            continue
        base = float(record.get("seconds", math.nan))
        new = float(other.get("seconds", math.nan))
        limit = base + max(base * tol_ratio, tol_seconds)
        comparisons.append(Comparison(
            key=key, metric="seconds", committed=base, fresh=new,
            limit=limit, ok=bool(new <= limit),
        ))
        q_name = _q_field(record)
        if q_name is not None and q_name in other:
            base_q = float(record[q_name])
            new_q = float(other[q_name])
            floor = base_q - q_tol
            comparisons.append(Comparison(
                key=key, metric=q_name, committed=base_q, fresh=new_q,
                limit=floor, ok=bool(new_q >= floor),
                note="floor, not ceiling",
            ))
    for key in sorted(fresh_by_key):
        notes.append(f"{key}: fresh record has no committed baseline — "
                     "skipped")
    return comparisons, notes


# ---------------------------------------------------------------------------
# fresh-record generation (--rerun)
# ---------------------------------------------------------------------------

def _provenance() -> dict:
    """The ``commit``/``date``/``backend`` stamp for rerun records
    (``backend`` is always ``"numpy"``, the stamp the committed records
    carry)."""
    import datetime
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        commit = "unknown"
    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    return {"commit": commit, "date": date, "backend": "numpy"}


def _build_graph(spec):
    import repro.graph.generators as generators

    name, args, kwargs = spec
    return getattr(generators, name)(*args, **kwargs)


def rerun_kernel_records(graph_names=None, repeats: int = 1,
                         log=print) -> list[dict]:
    """Re-time the optimized ``run_phase`` configurations in-process.

    Produces ``kernel="optimized"`` records in the ``BENCH_kernels.json``
    shape (best-of-``repeats`` wall clock); seed records need a worktree
    of the root commit and are intentionally not regenerated here.
    """
    import time

    from repro.core.phase import run_phase
    from repro.core.sweep import init_state

    stamp = _provenance()
    records: list[dict] = []
    for name in graph_names or PHASE_GRAPHS:
        graph = _build_graph(PHASE_GRAPHS[name])
        best = None
        iters = q = None
        for _ in range(max(1, repeats)):
            state = init_state(graph)
            t0 = time.perf_counter()
            out = run_phase(graph, state, threshold=PHASE_THRESHOLD)
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
            iters, q = len(out.records), out.end_modularity
        records.append({
            "graph": name, "n": graph.num_vertices, "M": graph.num_edges,
            **stamp, "kernel": "optimized", "seconds": best,
            "iterations": iters, "Q": q,
        })
        log(f"rerun {name}: optimized={best:.3f}s Q={q:.4f}")
    return records


def rerun_batch_records(num_graphs: int = BATCH_NUM_GRAPHS,
                        repeats: int = 1, seed: int = 0,
                        log=print) -> list[dict]:
    """Re-time the loop-vs-batched suite in-process (``BENCH_batch.json``
    shape, same fleet recipe as ``benchmarks/bench_batch.py``)."""
    import time

    import numpy as np

    from repro import LouvainConfig, louvain, louvain_batch
    from repro.graph.generators import planted_partition

    blocks, block_size, p_in, p_out = BATCH_GRAPH_SPEC
    graphs = [planted_partition(blocks, block_size, p_in, p_out,
                                seed=seed + i) for i in range(num_graphs)]
    cfg = LouvainConfig(sanitize=False, trace=False)

    def best_of(fn):
        best = None
        out = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        return best, out

    loop_seconds, _ = best_of(lambda: [louvain(g, cfg) for g in graphs])
    batch_seconds, batch_results = best_of(lambda: louvain_batch(graphs, cfg))
    meta = {
        "num_graphs": num_graphs,
        "n_total": sum(g.num_vertices for g in graphs),
        "M_total": sum(g.num_edges for g in graphs),
        **_provenance(),
    }
    q_mean = float(np.mean([r.modularity for r in batch_results]))
    log(f"rerun batch: loop={loop_seconds * 1e3:.1f}ms "
        f"batched={batch_seconds * 1e3:.1f}ms")
    return [
        {"mode": "per-graph-loop", **meta, "seconds": loop_seconds,
         "Q_mean": q_mean},
        {"mode": "batched", **meta, "seconds": batch_seconds,
         "Q_mean": q_mean, "speedup": loop_seconds / batch_seconds},
    ]


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def render_comparisons(comparisons: list[Comparison],
                       notes: list[str]) -> str:
    """Human-readable gate report."""
    lines = [c.render() for c in comparisons]
    lines += [f"note {n}" for n in notes]
    failed = [c for c in comparisons if not c.ok]
    lines.append(
        f"{'REGRESSION' if failed else 'PASS'}: "
        f"{len(comparisons) - len(failed)}/{len(comparisons)} checks ok, "
        f"{len(notes)} note(s)"
    )
    return "\n".join(lines)


def run_regression(committed: list[dict], fresh: list[dict], *,
                   tol_ratio: float = DEFAULT_TOL_RATIO,
                   tol_seconds: float = DEFAULT_TOL_SECONDS,
                   q_tol: float = DEFAULT_Q_TOL,
                   ) -> tuple[bool, str]:
    """Compare and render in one step; returns ``(ok, report_text)``."""
    comparisons, notes = compare_records(
        committed, fresh, tol_ratio=tol_ratio, tol_seconds=tol_seconds,
        q_tol=q_tol,
    )
    ok = all(c.ok for c in comparisons)
    return ok, render_comparisons(comparisons, notes)
