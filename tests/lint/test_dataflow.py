"""Dataflow engine: summaries, taint propagation, and events.

Fixtures are parsed in-memory and pushed through
:class:`repro.lint.dataflow.ProjectAnalysis` directly, so these tests
pin the engine's semantics independent of any rule built on top.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.dataflow import ProjectAnalysis


def analyze(**sources: str) -> ProjectAnalysis:
    trees = {
        f"repro/parallel/{name}.py": ast.parse(textwrap.dedent(src))
        for name, src in sources.items()
    }
    return ProjectAnalysis.build(trees)


Q = "repro.parallel.mod."


class TestWriteSummaries:
    def test_direct_subscript_write_is_summarized(self):
        an = analyze(mod="""
            def f(arr):
                arr[0] = 1
        """)
        assert "arr" in an.summaries[Q + "f"].writes

    def test_transitive_write_propagates_to_caller(self):
        an = analyze(mod="""
            def sink(buf):
                buf[0] = 1

            def mid(data):
                sink(data)

            def top(arr):
                mid(arr)
        """)
        assert "arr" in an.summaries[Q + "top"].writes
        assert an.summaries[Q + "top"].writes["arr"] == (
            Q + "mid", Q + "sink",
        )

    def test_copy_launders_the_write(self):
        an = analyze(mod="""
            def sink(buf):
                buf[0] = 1

            def top(arr):
                sink(arr.copy())
        """)
        assert "arr" not in an.summaries[Q + "top"].writes

    def test_alias_write_is_attributed_to_the_param(self):
        an = analyze(mod="""
            def f(state):
                view = state.comm
                view[0] = 1
        """)
        assert "state" in an.summaries[Q + "f"].writes
        events = [e for e in an.results[Q + "f"].events
                  if e.kind == "alias_write"]
        assert events and events[0].param == "state"
        assert events[0].detail == "view"

    def test_mutating_method_counts_as_write(self):
        an = analyze(mod="""
            def f(arr):
                arr.fill(0)
        """)
        assert "arr" in an.summaries[Q + "f"].writes

    def test_scatter_on_bound_param_counts_as_write(self):
        an = analyze(mod="""
            import numpy as np

            def f(arr, idx, vals):
                np.add.at(arr, idx, vals)
        """)
        assert "arr" in an.summaries[Q + "f"].writes

    def test_read_only_function_has_empty_writes(self):
        an = analyze(mod="""
            def f(arr):
                return arr[0] + 1
        """)
        assert an.summaries[Q + "f"].writes == {}

    def test_returned_view_is_summarized(self):
        an = analyze(mod="""
            def f(arr):
                return arr[1:]
        """)
        assert "arr" in an.summaries[Q + "f"].returns

    def test_write_through_returned_view_of_callee(self):
        an = analyze(mod="""
            def head(arr):
                return arr[:4]

            def top(data):
                h = head(data)
                h[0] = 1
        """)
        assert "data" in an.summaries[Q + "top"].writes


class TestShmTaint:
    def test_view_over_segment_is_shm_tainted(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def attach(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return view
        """)
        assert any(e.kind == "shm_return"
                   for e in an.results[Q + "attach"].events)

    def test_returning_the_segment_itself_is_not_flagged(self):
        an = analyze(mod="""
            from multiprocessing.shared_memory import SharedMemory

            def create(name, size):
                return SharedMemory(name=name, create=True, size=size)
        """)
        assert not any(e.kind == "shm_return"
                       for e in an.results[Q + "create"].events)
        assert "shmseg" in an.summaries[Q + "create"].returns_extra

    def test_copy_launders_shm(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def attach(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return view.copy()
        """)
        assert not any(e.kind == "shm_return"
                       for e in an.results[Q + "attach"].events)

    def test_segment_dict_comprehension_keeps_taint(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def attach(names, n):
                segs = {k: SharedMemory(name=k) for k in names}
                view = np.ndarray((n,), dtype=np.int64,
                                  buffer=segs["comm"].buf)
                return view
        """)
        assert any(e.kind == "shm_return"
                   for e in an.results[Q + "attach"].events)

    def test_shm_flows_through_call_into_callee_param(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def leak(view):
                return view

            def worker(name, n):
                seg = SharedMemory(name=name)
                comm = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)
                return leak(comm)
        """)
        assert an.param_taint[Q + "leak"]["view"] == {"shm"}
        # and the laundered variant carries nothing:
        assert any(e.kind == "shm_return"
                   for e in an.results[Q + "worker"].events)

    def test_attr_taint_spans_methods(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            class Holder:
                def __init__(self, name, n):
                    seg = SharedMemory(name=name)
                    self._view = np.ndarray((n,), dtype=np.int64,
                                            buffer=seg.buf)

                def close(self):
                    pass

                def peek(self):
                    return self._view[:4]
        """)
        assert an.attr_taint[Q + "Holder"]["_view"] == {"shm"}
        assert any(e.kind == "shm_return"
                   for e in an.results[Q + "Holder.peek"].events)

    def test_escaping_closure_capture_is_an_event(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)

                def reader():
                    return view[0]

                return reader
        """)
        events = [e for e in an.results[Q + "worker"].events
                  if e.kind == "shm_closure"]
        assert events and events[0].detail == "reader"

    def test_locally_called_closure_is_fine(self):
        an = analyze(mod="""
            import numpy as np
            from multiprocessing.shared_memory import SharedMemory

            def worker(name, n):
                seg = SharedMemory(name=name)
                view = np.ndarray((n,), dtype=np.int64, buffer=seg.buf)

                def total():
                    return int(view.sum())

                return total()
        """)
        assert not any(e.kind == "shm_closure"
                       for e in an.results[Q + "worker"].events)


class TestQueueTaint:
    def test_queue_param_name_seeds_taint(self):
        an = analyze(mod="""
            def loop(task_q):
                return task_q.get()
        """)
        assert any(e.kind == "untimed_get"
                   for e in an.results[Q + "loop"].events)

    def test_taint_flows_through_helper_with_innocent_name(self):
        an = analyze(mod="""
            def _drain(ch):
                return ch.get()

            def loop(done_q):
                return _drain(done_q)
        """)
        assert an.param_taint[Q + "_drain"]["ch"] == {"queue"}
        events = [e for e in an.results[Q + "_drain"].events
                  if e.kind == "untimed_get"]
        assert events and events[0].detail == "ch"

    def test_timed_get_is_fine(self):
        an = analyze(mod="""
            def _drain(ch):
                return ch.get(timeout=0.5)

            def loop(done_q):
                return _drain(done_q)
        """)
        assert not any(e.kind == "untimed_get"
                       for e in an.results[Q + "_drain"].events)

    def test_constructor_taints_local(self):
        an = analyze(mod="""
            import multiprocessing as mp

            def loop(ctx):
                results = mp.Queue()
                return results.get()
        """)
        assert any(e.kind == "untimed_get"
                   for e in an.results[Q + "loop"].events)

    def test_put_after_close_is_an_event(self):
        an = analyze(mod="""
            def shutdown(task_q, item):
                task_q.close()
                task_q.put(item)
        """)
        assert any(e.kind == "put_after_close"
                   for e in an.results[Q + "shutdown"].events)

    def test_put_before_close_is_fine(self):
        an = analyze(mod="""
            def shutdown(task_q, item):
                task_q.put(item)
                task_q.close()
        """)
        assert not any(e.kind == "put_after_close"
                       for e in an.results[Q + "shutdown"].events)


class TestGlobalsAndNumpy:
    def test_module_global_reads_and_writes_are_recorded(self):
        an = analyze(mod="""
            _CACHE = {}

            def put(k, v):
                _CACHE[k] = v

            def get(k):
                return _CACHE[k]
        """)
        assert "_CACHE" in an.results[Q + "put"].global_writes
        assert "_CACHE" in an.results[Q + "get"].global_reads

    def test_local_shadow_is_not_a_global_access(self):
        an = analyze(mod="""
            _CACHE = {}

            def local(k):
                _CACHE = {}
                _CACHE[k] = 1
                return _CACHE
        """)
        assert "_CACHE" not in an.results[Q + "local"].global_writes
