"""Snapshot-discipline guardrails: static analyzer + runtime sanitizer.

The correctness argument of the parallel pipeline rests on three
conventions that nothing in Python enforces (see docs/algorithms.md §10):

1. **Snapshot reads only** — every per-vertex decision of a sweep reads
   the *previous-iteration* community snapshot (§5.4's Jacobi semantics);
   a kernel that writes to its snapshot inputs silently turns the sweep
   into an order-dependent Gauss–Seidel hybrid.
2. **Commutative accumulation** — concurrent scatter updates must flow
   through per-worker buffers (:class:`repro.parallel.atomic.ThreadLocalAccumulator`,
   §5.5), never raw ``ufunc.at`` on shared arrays.
3. **Seeded randomness** — all stochastic choices go through
   :func:`repro.utils.rng.as_rng` so runs are thread-count-invariant.

This package checks the discipline twice:

* :mod:`repro.lint.rules` / :mod:`repro.lint.engine` / :mod:`repro.lint.cli`
  — a static analyzer (``python -m repro.lint src/`` or the
  ``repro-lint`` entry point) with codebase-specific per-function rules,
  an interprocedural tier (:mod:`repro.lint.callgraph` builds the
  project call graph, :mod:`repro.lint.dataflow` runs a taint/summary
  fixpoint over it, :mod:`repro.lint.iprules` holds the
  SNAP101/SHM001/LOCK001/QPROTO001 rule family), per-rule
  severities from ``[tool.repro-lint]`` (:mod:`repro.lint.config`),
  SARIF export (:mod:`repro.lint.sarif`) and a committed-baseline
  workflow for accepted findings;
* :mod:`repro.lint.sanitizer` — a runtime layer: the
  :func:`~repro.lint.sanitizer.snapshot_kernel` marker the static rules
  key on, and :func:`~repro.lint.sanitizer.frozen_snapshot`, which flips
  ``writeable = False`` on the snapshot arrays for the duration of a
  sweep so a stray in-place write raises immediately instead of
  corrupting the trajectory (``LouvainConfig.sanitize``; default on in
  the test-suite, off in benchmarks).
"""

from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.config import LintConfig, load_config
from repro.lint.dataflow import ProjectAnalysis
from repro.lint.engine import (
    Baseline,
    Finding,
    LintReport,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.iprules import PROJECT_RULES
from repro.lint.rules import RULES, all_codes
from repro.lint.sarif import to_sarif, write_sarif
from repro.lint.sanitizer import (
    frozen_snapshot,
    resolve_sanitize,
    sanitize_default,
    snapshot_kernel,
)

__all__ = [
    "Baseline",
    "CallGraph",
    "Finding",
    "LintConfig",
    "LintReport",
    "PROJECT_RULES",
    "ProjectAnalysis",
    "RULES",
    "all_codes",
    "build_callgraph",
    "frozen_snapshot",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_config",
    "resolve_sanitize",
    "sanitize_default",
    "snapshot_kernel",
    "to_sarif",
    "write_sarif",
]
