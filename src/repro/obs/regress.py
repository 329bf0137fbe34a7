"""Perf-regression gate: fresh bench records vs committed trajectories.

The repository commits machine-readable benchmark records
(``BENCH_kernels.json`` from ``benchmarks/bench_kernels.py``) so every
PR's performance claims stay auditable.  ``repro obs regress`` closes the
loop: it compares a *fresh* set of records against the committed ones
and exits non-zero when the hot path got slower or worse — the CI smoke
gate that catches a perf regression before a human reads a number.

Records carry ``commit``, ``date`` and ``backend`` stamps.  A commit
mismatch is expected for a fresh run and merely noted.

Per matched record pair two checks run:

* ``seconds`` — fresh must not exceed committed by more than
  ``max(committed * tol_ratio, tol_seconds)``.  The absolute floor
  matters on shared CI runners, whose baseline differs from the bench
  machine; CI passes a generous ``--tol-seconds``.
* ``Q`` — fresh modularity must not drop more than ``q_tol`` below
  committed (quality regressions are perf regressions too: a faster
  kernel that converges worse is not a win).

Fresh records come from a file (``--fresh-kernels``, produced by the
benchmark script) or from ``--rerun``, which re-times the *optimized*
configurations in-process using the same recipes the benchmark script
uses (the graph specs below are asserted identical to
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
        prov = (record.get("commit"), other.get("commit"))
        if prov not in seen_provenance:
            seen_provenance.add(prov)
            if record.get("commit") != other.get("commit"):
                notes.append(
                    f"provenance: committed@{str(record.get('commit'))[:12]} "
                    f"vs fresh@{str(other.get('commit'))[:12]} "
                    "(expected for a fresh run)"
                )
        base = float(record.get("seconds", math.nan))
        new = float(other.get("seconds", math.nan))
        limit = base + max(base * tol_ratio, tol_seconds)
        comparisons.append(Comparison(
            key=key, metric="seconds", committed=base, fresh=new,
            limit=limit, ok=bool(new <= limit),
        ))
        if "Q" in record and "Q" in other:
            base_q = float(record["Q"])
            new_q = float(other["Q"])
            floor = base_q - q_tol
            comparisons.append(Comparison(
                key=key, metric="Q", committed=base_q, fresh=new_q,
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
