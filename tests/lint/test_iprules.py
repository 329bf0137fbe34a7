"""Interprocedural rule fixtures: each rule has triggering (positive)
and passing (negative) shapes, exercised through the public
``lint_source``/``lint_sources`` engine entry points so noqa and
severity handling apply exactly as in production runs.
"""

from __future__ import annotations

import textwrap

from repro.lint.config import LintConfig
from repro.lint.engine import lint_source, lint_sources


def codes(source: str, path: str = "repro/parallel/fixture.py",
          config: "LintConfig | None" = None) -> list[str]:
    found = [
        f.code
        for f in lint_source(textwrap.dedent(source), path, config=config)
    ]
    assert "PARSE001" not in found, "fixture failed to parse"
    return found


def multi_codes(config: "LintConfig | None" = None, **sources: str):
    files = {
        f"repro/parallel/{name}.py": textwrap.dedent(src)
        for name, src in sources.items()
    }
    found = [f.code for f in lint_sources(files, config=config)]
    assert "PARSE001" not in found, "fixture failed to parse"
    return found


# ---------------------------------------------------------------------------
# SNAP101 — snapshot writes through callees / aliases
# ---------------------------------------------------------------------------
class TestSnap101:
    def test_write_via_callee_triggers(self):
        bad = """
            def _commit(state, dst):
                state.comm[0] = dst

            @snapshot_kernel("state")
            def kernel(graph, state, dst):
                _commit(state, dst)
        """
        assert "SNAP101" in codes(bad)
        # ...and SNAP001 alone cannot see it (regression: the gap that
        # motivated the interprocedural tier).
        assert "SNAP001" not in codes(bad)

    def test_write_two_calls_deep_triggers(self):
        bad = """
            def _sink(arr):
                arr[0] = 1

            def _mid(state):
                _sink(state.comm)

            @snapshot_kernel("state")
            def kernel(graph, state):
                _mid(state)
        """
        assert "SNAP101" in codes(bad)

    def test_alias_write_inside_kernel_triggers(self):
        bad = """
            @snapshot_kernel("state")
            def kernel(graph, state):
                view = state.comm
                view[0] = 1
        """
        assert "SNAP101" in codes(bad)

    def test_cross_module_write_triggers(self):
        found = multi_codes(
            helpers="""
                def commit(state, dst):
                    state.comm[dst] = dst
            """,
            kernel="""
                from repro.parallel.helpers import commit

                @snapshot_kernel("state")
                def kernel(graph, state, dst):
                    commit(state, dst)
            """,
        )
        assert "SNAP101" in found

    def test_callee_writing_its_own_buffer_is_fine(self):
        good = """
            def _fill(out):
                out[0] = 1

            @snapshot_kernel("state")
            def kernel(graph, state, out):
                _fill(out)
                return state.comm[0]
        """
        assert "SNAP101" not in codes(good)

    def test_copy_at_the_boundary_is_fine(self):
        good = """
            def _commit(arr, dst):
                arr[0] = dst

            @snapshot_kernel("state")
            def kernel(graph, state, dst):
                _commit(state.comm.copy(), dst)
        """
        assert "SNAP101" not in codes(good)

    def test_unmarked_caller_is_fine(self):
        good = """
            def _commit(state, dst):
                state.comm[0] = dst

            def apply_moves(graph, state, dst):
                _commit(state, dst)
        """
        assert "SNAP101" not in codes(good)


# ---------------------------------------------------------------------------
# SHM001 — shared-memory views escaping their scope
# ---------------------------------------------------------------------------
SHM_PRELUDE = """
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory
"""


class TestShm001:
    def test_returning_a_view_triggers(self):
        bad = SHM_PRELUDE + """
            def attach(name, n):
                seg = SharedMemory(name=name)
                return np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
        """
        assert "SHM001" in codes(bad)

    def test_returning_a_copy_is_fine(self):
        good = SHM_PRELUDE + """
            def snapshot(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return view.copy()
        """
        assert "SHM001" not in codes(good)

    def test_returning_the_segment_is_ownership_transfer(self):
        good = SHM_PRELUDE + """
            def create(name, size):
                return SharedMemory(name=name, create=True, size=size)
        """
        assert "SHM001" not in codes(good)

    def test_escaping_closure_triggers(self):
        bad = SHM_PRELUDE + """
            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)

                def reader():
                    return view[0]

                return reader
        """
        assert "SHM001" in codes(bad)

    def test_local_closure_is_fine(self):
        good = SHM_PRELUDE + """
            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)

                def total():
                    return int(view.sum())

                return total()
        """
        assert "SHM001" not in codes(good)

    def test_storing_view_in_non_owner_triggers(self):
        bad = SHM_PRELUDE + """
            class Plan:
                def __init__(self, data):
                    self._data = data

            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return Plan(view)
        """
        assert "SHM001" in codes(bad)

    def test_storing_view_in_lifetime_owner_is_fine(self):
        good = SHM_PRELUDE + """
            class Executor:
                def __init__(self, data):
                    self._data = data

                def close(self):
                    self._data = None

            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return Executor(view)
        """
        assert "SHM001" not in codes(good)


# ---------------------------------------------------------------------------
# LOCK001 — module state shared across the fork boundary
# ---------------------------------------------------------------------------
class TestLock001:
    def test_worker_write_parent_read_triggers(self):
        bad = """
            _PROGRESS = {}

            def _worker_main(wid, n):
                _PROGRESS[wid] = n

            def report():
                return dict(_PROGRESS)
        """
        assert "LOCK001" in codes(bad)

    def test_worker_private_global_is_fine(self):
        good = """
            _SCRATCH = {}

            def _worker_main(wid, n):
                _SCRATCH[wid] = n
                return _SCRATCH[wid]
        """
        assert "LOCK001" not in codes(good)

    def test_parent_only_global_is_fine(self):
        good = """
            _REGISTRY = {}

            def register(name, backend):
                _REGISTRY[name] = backend

            def lookup(name):
                return _REGISTRY[name]
        """
        assert "LOCK001" not in codes(good)

    def test_immutable_global_is_fine(self):
        good = """
            _LIMIT = 64

            def _worker_main(wid):
                return _LIMIT + wid

            def parent():
                return _LIMIT
        """
        assert "LOCK001" not in codes(good)

    def test_process_target_counts_as_worker_side(self):
        bad = """
            import multiprocessing as mp

            _COUNTS = {}

            def _child_loop(wid):
                _COUNTS[wid] = 1

            def spawn(ctx):
                return ctx.Process(target=_child_loop, args=(0,))

            def report():
                return len(_COUNTS)
        """
        assert "LOCK001" in codes(bad)


# ---------------------------------------------------------------------------
# QPROTO001 — queue protocol via dataflow
# ---------------------------------------------------------------------------
class TestQproto001:
    def test_untimed_get_via_helper_triggers(self):
        bad = """
            def _drain(ch):
                return ch.get()

            def loop(done_q):
                return _drain(done_q)
        """
        assert "QPROTO001" in codes(bad)
        # QUEUE001's name heuristic can't see 'ch' — the motivating gap.
        assert "QUEUE001" not in codes(bad)

    def test_queue_named_receiver_is_left_to_queue001(self):
        bad = """
            def loop(task_q):
                return task_q.get()
        """
        found = codes(bad)
        assert "QUEUE001" in found
        assert "QPROTO001" not in found

    def test_timed_get_is_fine(self):
        good = """
            def _drain(ch):
                return ch.get(timeout=0.25)

            def loop(done_q):
                return _drain(done_q)
        """
        assert "QPROTO001" not in codes(good)

    def test_nonblocking_get_is_fine(self):
        good = """
            def _drain(ch):
                return ch.get(block=False)

            def loop(done_q):
                return _drain(done_q)
        """
        assert "QPROTO001" not in codes(good)

    def test_put_after_close_triggers(self):
        bad = """
            def shutdown(results, item):
                results.close()
                results.put(item)

            def loop(done_q, item):
                shutdown(done_q, item)
        """
        assert "QPROTO001" in codes(bad)

    def test_robust_package_keeps_its_exemption(self):
        bad = """
            def _drain(ch):
                return ch.get()

            def loop(done_q):
                return _drain(done_q)
        """
        assert "QPROTO001" not in codes(bad, path="repro/robust/fixture.py")


# ---------------------------------------------------------------------------
# Engine integration: noqa and severity apply to project rules too
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    BAD = """
        def _commit(state, dst):
            state.comm[0] = dst

        @snapshot_kernel("state")
        def kernel(graph, state, dst):
            _commit(state, dst)  # noqa: SNAP101
    """

    def test_inline_noqa_suppresses_project_findings(self):
        assert "SNAP101" not in codes(self.BAD)

    def test_severity_off_disables_a_project_rule(self):
        bad = self.BAD.replace("  # noqa: SNAP101", "")
        config = LintConfig(severity={"SNAP101": "off"})
        assert "SNAP101" not in codes(bad, config=config)

    def test_severity_warning_reports_but_does_not_fail(self):
        bad = textwrap.dedent(self.BAD.replace("  # noqa: SNAP101", ""))
        config = LintConfig(severity={"SNAP101": "warning"})
        findings = lint_source(
            bad, "repro/parallel/fixture.py", config=config
        )
        hits = [f for f in findings if f.code == "SNAP101"]
        assert hits and hits[0].severity == "warning"

    def test_call_path_lands_on_the_finding(self):
        bad = textwrap.dedent(self.BAD.replace("  # noqa: SNAP101", ""))
        findings = lint_source(bad, "repro/parallel/fixture.py")
        hits = [f for f in findings if f.code == "SNAP101"]
        assert hits
        assert hits[0].call_path == (
            "repro.parallel.fixture.kernel",
            "repro.parallel.fixture._commit",
        )
