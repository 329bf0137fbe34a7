"""Pinned regressions: the analyzer guards the real backends' invariants.

PRs 4-6 already fixed the shm-escape / queue-protocol / snapshot bug
classes in ``parallel/process_backend.py`` and
``distributed/louvain_dist.py``, so the interprocedural analyzer finds
no true positives there today (the zero-finding state is itself pinned
below).  To keep it that way, each test *plants* the historical bug back
into the real source in memory and asserts the analyzer convicts it —
if a refactor ever removes one of the load-bearing lines, the gate
fires before the race does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.engine import lint_sources

REPO_ROOT = Path(__file__).resolve().parents[2]
IP_CODES = ("SNAP101", "SHM001", "LOCK001", "QPROTO001")


@pytest.fixture(scope="module")
def real_sources() -> dict[str, str]:
    files = {}
    for rel in ("src/repro/parallel", "src/repro/distributed",
                "src/repro/core", "src/repro/utils", "src/repro/graph"):
        for p in sorted((REPO_ROOT / rel).rglob("*.py")):
            files[p.relative_to(REPO_ROOT).as_posix()] = p.read_text(
                encoding="utf-8"
            )
    return files


def ip_findings(files, config=None):
    config = config or LintConfig()
    return [
        f for f in lint_sources(files, config=config) if f.code in IP_CODES
    ]


def mutate(files: dict, path: str, old: str, new: str) -> dict:
    src = files[path]
    assert old in src, (
        f"pinned source line moved in {path}: {old!r} not found — update "
        "this regression test alongside the refactor"
    )
    out = dict(files)
    out[path] = src.replace(old, new, 1)
    return out


class TestCurrentTreeIsClean:
    def test_no_interprocedural_findings(self, real_sources):
        findings = ip_findings(real_sources)
        assert findings == [], [f.render() for f in findings]


class TestProcessBackendGuards:
    PATH = "src/repro/parallel/process_backend.py"

    def test_dropping_result_copy_is_caught(self, real_sources):
        # The .copy() on the targets view is load-bearing: without it the
        # worker would hand out a live shm view whose segment it may
        # close/unlink while the parent still holds the array.
        mutated = mutate(
            real_sources, self.PATH,
            'self._views["targets"][:count].copy()',
            'self._views["targets"][:count]',
        )
        findings = ip_findings(mutated)
        assert any(
            f.code == "SHM001" and f.path.endswith("process_backend.py")
            for f in findings
        ), [f.render() for f in findings]

    def test_untimed_worker_get_is_caught(self, real_sources):
        # The timed get is the PR-4 hang fix; QUEUE001 pins the
        # queue-named shape (same gate, per-function tier).
        mutated = mutate(
            real_sources, self.PATH,
            "task_q.get(timeout=_WORKER_POLL_S)",
            "task_q.get()",
        )
        findings = lint_sources(mutated)
        assert any(
            f.code == "QUEUE001" and f.path.endswith("process_backend.py")
            for f in findings
        )

    def test_hidden_untimed_get_is_caught_by_dataflow(self, real_sources):
        # Hide an untimed get behind a helper whose parameter name gives
        # QUEUE001's heuristic nothing to match: QPROTO001 must convict
        # via taint (self._done_q is queue-tainted through the ctor).
        mutated = mutate(
            real_sources, self.PATH,
            "msg = self._done_q.get(timeout=self.policy.liveness_poll)",
            "msg = _next_message(self._done_q)",
        )
        mutated = mutate(
            mutated, self.PATH,
            "def _worker_main(",
            "def _next_message(ch):\n"
            "    return ch.get()\n\n"
            "def _worker_main(",
        )
        findings = ip_findings(mutated)
        assert any(
            f.code == "QPROTO001" and f.path.endswith("process_backend.py")
            for f in findings
        ), [f.render() for f in findings]
        # ...and the per-function tier alone stays blind to it.
        assert not any(
            f.code == "QUEUE001" and f.path.endswith("process_backend.py")
            for f in lint_sources(mutated)
        )

    def test_fork_shared_global_is_caught(self, real_sources):
        # Plant the classic fork-divergence bug: workers "report" progress
        # into a module dict the parent then reads.
        src = real_sources[self.PATH]
        planted = src + (
            "\n\n_PROGRESS = {}\n\n"
            "def _note_progress(worker_id, count):\n"
            "    _PROGRESS[worker_id] = count\n\n"
            "def read_progress():\n"
            "    return dict(_PROGRESS)\n"
        )
        # Wire the write into the worker loop.
        planted = planted.replace(
            "def _worker_main(",
            "def _worker_helper_for_test(worker_id, count):\n"
            "    _note_progress(worker_id, count)\n\n"
            "def _worker_main(",
            1,
        )
        mutated = dict(real_sources)
        mutated[self.PATH] = planted
        findings = ip_findings(mutated)
        assert any(f.code == "LOCK001" for f in findings), \
            [f.render() for f in findings]


class TestDistributedGuards:
    PATH = "src/repro/distributed/louvain_dist.py"

    def test_snapshot_write_in_kernel_helper_is_caught(self, real_sources):
        # _RankSweeps.sweep_targets is @snapshot_kernel("graph", "state"):
        # give it a helper that commits moves in place — the historical
        # Gauss-Seidel leak the BSP discipline exists to prevent.
        mutated = mutate(
            real_sources, self.PATH,
            "class _RankSweeps:",
            "def _eager_commit(state, active):\n"
            "    state.comm[active] = 0\n\n\n"
            "class _RankSweeps:",
        )
        mutated = mutate(
            mutated, self.PATH,
            "            targets = compute_targets_vectorized(",
            "            _eager_commit(state, vertices)\n"
            "            targets = compute_targets_vectorized(",
        )
        findings = ip_findings(mutated)
        assert any(
            f.code == "SNAP101" and f.path.endswith("louvain_dist.py")
            for f in findings
        ), [f.render() for f in findings]
