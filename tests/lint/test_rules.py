"""Rule-by-rule fixtures: each bad snippet triggers, each good one passes.

Fixture paths are synthetic (``repro/core/…``-style) so the snippets opt
into the package-scoped rules without touching the real tree.
"""

from __future__ import annotations

import textwrap

from repro.lint.engine import lint_source


def codes(source: str, path: str = "src/repro/core/fixture.py") -> list[str]:
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


# ---------------------------------------------------------------------------
# SNAP001 — snapshot writes inside @snapshot_kernel functions
# ---------------------------------------------------------------------------
class TestSnapshotWriteRule:
    def test_subscript_assignment_triggers(self):
        bad = """
            @snapshot_kernel("state")
            def kernel(graph, state, vertices):
                state.comm[vertices] = 0
        """
        assert "SNAP001" in codes(bad)

    def test_augmented_assignment_triggers(self):
        bad = """
            @snapshot_kernel("comm")
            def kernel(comm, out):
                comm += 1
        """
        assert "SNAP001" in codes(bad)

    def test_ufunc_at_scatter_triggers(self):
        bad = """
            import numpy as np

            @snapshot_kernel("state")
            def kernel(graph, state, src, k):
                np.subtract.at(state.comm_degree, src, k)
        """
        assert "SNAP001" in codes(bad)

    def test_mutating_method_triggers(self):
        bad = """
            @snapshot_kernel("snapshot")
            def kernel(snapshot):
                snapshot.sort()
        """
        assert "SNAP001" in codes(bad)

    def test_fill_on_attribute_triggers(self):
        bad = """
            @snapshot_kernel("state")
            def kernel(state):
                state.comm_size.fill(0)
        """
        assert "SNAP001" in codes(bad)

    def test_np_copyto_into_snapshot_triggers(self):
        bad = """
            import numpy as np

            @snapshot_kernel("state")
            def kernel(state, fresh):
                np.copyto(state.comm, fresh)
        """
        assert "SNAP001" in codes(bad)

    def test_bare_decorator_marks_all_params(self):
        bad = """
            @snapshot_kernel
            def kernel(a, b):
                b[0] = 1.0
        """
        assert "SNAP001" in codes(bad)

    def test_read_only_kernel_passes(self):
        good = """
            import numpy as np

            @snapshot_kernel("state")
            def kernel(graph, state, vertices):
                cur = state.comm[vertices]
                targets = cur.copy()
                targets[0] = 5      # local copy: fine
                scratch = np.zeros(3, dtype=np.int64)
                np.add.at(scratch, cur % 3, 1)   # local scatter: fine
                return targets
        """
        assert codes(good) == []

    def test_writes_outside_marked_functions_ignored(self):
        good = """
            def apply_moves(graph, state, vertices, targets):
                state.comm[vertices] = targets   # commit step: sanctioned
        """
        assert codes(good) == []

    def test_unmarked_params_may_be_written(self):
        good = """
            @snapshot_kernel("state")
            def kernel(graph, state, out):
                out[:] = state.comm
        """
        assert codes(good) == []

    def test_qualified_decorator_detected(self):
        bad = """
            from repro.lint import sanitizer

            @sanitizer.snapshot_kernel("state")
            def kernel(state):
                state.comm[0] = 1
        """
        assert "SNAP001" in codes(bad)


# ---------------------------------------------------------------------------
# RNG001 — unseeded numpy randomness
# ---------------------------------------------------------------------------
class TestUnseededRNGRule:
    def test_module_level_call_triggers(self):
        bad = """
            import numpy as np

            def shuffle(order):
                np.random.shuffle(order)
        """
        assert "RNG001" in codes(bad, "src/repro/coloring/fixture.py")

    def test_default_rng_outside_rng_module_triggers(self):
        bad = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert "RNG001" in codes(bad, "src/repro/graph/fixture.py")

    def test_import_of_callable_triggers(self):
        bad = "from numpy.random import default_rng\n"
        assert "RNG001" in codes(bad, "src/repro/graph/fixture.py")

    def test_allowed_inside_rng_module(self):
        good = """
            import numpy as np

            def as_rng(seed=None):
                return np.random.default_rng(seed)
        """
        assert codes(good, "src/repro/utils/rng.py") == []

    def test_type_references_pass(self):
        good = """
            import numpy as np

            def check(seed):
                if isinstance(seed, np.random.Generator):
                    return seed
                return np.random.SeedSequence(seed)
        """
        assert codes(good, "src/repro/utils/fixture.py") == []


# ---------------------------------------------------------------------------
# DET001 — unordered iteration feeding arrays
# ---------------------------------------------------------------------------
class TestUnorderedToArrayRule:
    def test_array_of_set_triggers(self):
        bad = """
            import numpy as np

            def labels(values):
                return np.array(list(set(values)))
        """
        assert "DET001" in codes(bad)

    def test_comprehension_over_set_triggers(self):
        bad = """
            import numpy as np

            def weights(table):
                return np.asarray([w for w in table.keys()])
        """
        assert "DET001" in codes(bad)

    def test_fromiter_over_values_triggers(self):
        bad = """
            import numpy as np

            def weights(table):
                return np.fromiter(table.values(), dtype=np.float64)
        """
        assert "DET001" in codes(bad)

    def test_sorted_wrapping_passes(self):
        good = """
            import numpy as np

            def labels(values):
                return np.array(sorted(set(values)))
        """
        assert codes(good) == []

    def test_scoped_to_deterministic_packages(self):
        bad = """
            import numpy as np

            def labels(values):
                return np.array(list(set(values)))
        """
        # Same snippet outside core/parallel/coloring: not this rule's job.
        assert codes(bad, "src/repro/bench/fixture.py") == []

    def test_membership_tests_pass(self):
        good = """
            import numpy as np

            def pick(colors, used):
                used = set(used)
                c = 0
                while c in used:
                    c += 1
                return c
        """
        assert codes(good) == []


# ---------------------------------------------------------------------------
# ATOM001 — accumulator bypass in parallel workers
# ---------------------------------------------------------------------------
class TestWorkerScatterRule:
    def test_ufunc_at_in_worker_triggers(self):
        bad = """
            import numpy as np

            def _worker_main(shared, idx, vals):
                np.add.at(shared, idx, vals)
        """
        assert "ATOM001" in codes(bad, "src/repro/parallel/fixture.py")

    def test_augassign_into_param_subscript_triggers(self):
        bad = """
            def worker_loop(shared, i, v):
                shared[i] += v
        """
        assert "ATOM001" in codes(bad, "src/repro/parallel/fixture.py")

    def test_non_worker_function_passes(self):
        good = """
            import numpy as np

            def apply_moves(degree, src, k):
                np.subtract.at(degree, src, k)
        """
        assert codes(good, "src/repro/parallel/fixture.py") == []

    def test_atomic_module_exempt(self):
        good = """
            import numpy as np

            def worker_add(buffers, worker, index, values):
                np.add.at(buffers[worker], index, values)
        """
        assert codes(good, "src/repro/parallel/atomic.py") == []

    def test_scoped_to_parallel_package(self):
        good = """
            import numpy as np

            def _worker_main(shared, idx, vals):
                np.add.at(shared, idx, vals)
        """
        assert codes(good, "src/repro/graph/fixture.py") == []


# ---------------------------------------------------------------------------
# Generic rules
# ---------------------------------------------------------------------------
class TestGenericRules:
    def test_mutable_default_triggers(self):
        assert "MUT001" in codes("def f(x, acc=[]):\n    return acc\n")

    def test_dict_call_default_triggers(self):
        assert "MUT001" in codes("def f(x, table=dict()):\n    return table\n")

    def test_none_default_passes(self):
        assert codes("def f(x, acc=None):\n    return acc or []\n") == []

    def test_bare_assert_triggers(self):
        assert "ASSERT001" in codes("def f(x):\n    assert x > 0\n")

    def test_assert_outside_library_passes(self):
        source = "def f(x):\n    assert x > 0\n"
        assert codes(source, "tests/fixture.py") == []

    def test_missing_dtype_triggers(self):
        bad = """
            import numpy as np

            def alloc(n):
                return np.zeros(n)
        """
        assert "DTYPE001" in codes(bad)

    def test_positional_dtype_passes(self):
        good = """
            import numpy as np

            def alloc(n):
                return np.zeros(n, np.int64)
        """
        assert codes(good) == []

    def test_full_needs_third_argument(self):
        bad = """
            import numpy as np

            def alloc(n):
                return np.full(n, -1)
        """
        good = """
            import numpy as np

            def alloc(n):
                return np.full(n, -1, dtype=np.int64)
        """
        assert "DTYPE001" in codes(bad)
        assert codes(good) == []

    def test_dtype_scoped_to_hot_modules(self):
        source = """
            import numpy as np

            def alloc(n):
                return np.zeros(n)
        """
        assert codes(source, "src/repro/bench/fixture.py") == []


# ---------------------------------------------------------------------------
# OBS001 — wall-clock reads outside the instrumented timing path
# ---------------------------------------------------------------------------
class TestDirectTimingRule:
    def test_perf_counter_call_triggers(self):
        bad = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert "OBS001" in codes(bad)

    def test_time_time_call_triggers(self):
        bad = """
            import time

            def stamp():
                return time.time()
        """
        assert "OBS001" in codes(bad)

    def test_monotonic_ns_call_triggers(self):
        bad = """
            import time

            def tick():
                return time.monotonic_ns()
        """
        assert "OBS001" in codes(bad)

    def test_from_time_import_triggers(self):
        bad = """
            from time import perf_counter

            def measure():
                return perf_counter()
        """
        assert "OBS001" in codes(bad)

    def test_time_sleep_passes(self):
        good = """
            import time

            def pause():
                time.sleep(0.1)
        """
        assert codes(good) == []

    def test_from_time_import_sleep_passes(self):
        good = """
            from time import sleep

            def pause():
                sleep(0.1)
        """
        assert codes(good) == []

    def test_timing_module_is_exempt(self):
        source = """
            import time

            def now():
                return time.perf_counter()
        """
        assert codes(source, "src/repro/utils/timing.py") == []

    def test_obs_package_is_exempt(self):
        source = """
            import time

            def now():
                return time.perf_counter()
        """
        assert codes(source, "src/repro/obs/trace.py") == []

    def test_tests_and_benchmarks_are_exempt(self):
        source = """
            import time

            def now():
                return time.perf_counter()
        """
        assert codes(source, "tests/fixture.py") == []
        assert codes(source, "benchmarks/bench_fixture.py") == []


# ---------------------------------------------------------------------------
# OBS002 — metric/span names follow the dotted.lower_snake scheme
# ---------------------------------------------------------------------------
class TestMetricNameSchemeRule:
    def test_uppercase_name_triggers(self):
        bad = """
            def run(tracer):
                tracer.count("Sweep.Moves")
        """
        assert "OBS002" in codes(bad)

    def test_dash_in_name_triggers(self):
        bad = """
            def run(tracer):
                tracer.gauge("worker-pool-alive", 1.0)
        """
        assert "OBS002" in codes(bad)

    def test_leading_digit_first_segment_triggers(self):
        bad = """
            def run(tracer):
                tracer.observe("0.moves", 1)
        """
        assert "OBS002" in codes(bad)

    def test_span_and_step_names_are_checked(self):
        bad = """
            def run(tracer):
                with tracer.span("Worker Chunk"):
                    pass
                with tracer.step("Rebuild!"):
                    pass
        """
        assert codes(bad).count("OBS002") == 2

    def test_attribute_and_call_receivers_are_gated(self):
        bad = """
            def run(self):
                self._tracer.count("BAD NAME")
                get_tracer().gauge("Another Bad", 1.0)
                tracer.metrics.count("Thirdbad!")
        """
        assert codes(bad).count("OBS002") == 3

    def test_conforming_names_pass(self):
        good = """
            def run(tracer, reg):
                tracer.count("sweep.moves", 3)
                tracer.gauge("worker.pool_alive", 2.0)
                reg.observe("iteration.active_vertices", 7)
                with tracer.span("worker_chunk", offset=0):
                    pass
        """
        assert codes(good) == []

    def test_numeric_later_segments_pass(self):
        good = """
            def run(tracer):
                tracer.gauge("worker.0.alive", 1.0)
        """
        assert codes(good) == []

    def test_fstring_static_fragments_are_checked(self):
        good = """
            def run(tracer, wid):
                tracer.gauge(f"worker.{wid}.alive", 1.0)
        """
        assert codes(good) == []
        bad = """
            def run(tracer, wid):
                tracer.gauge(f"Worker {wid} Alive", 1.0)
        """
        assert "OBS002" in codes(bad)

    def test_dynamic_names_are_skipped(self):
        good = """
            def run(tracer, name):
                tracer.count(name)
        """
        assert codes(good) == []

    def test_non_obs_receiver_passes(self):
        good = """
            def run(itertools):
                itertools.count("Whatever Goes")
        """
        assert codes(good) == []

    def test_tests_are_exempt(self):
        source = """
            def run(tracer):
                tracer.count("BAD NAME")
        """
        assert codes(source, "tests/fixture.py") == []


# ---------------------------------------------------------------------------
# QUEUE001 — untimed Queue.get() (the process-backend hang class)
# ---------------------------------------------------------------------------
class TestUntimedQueueGetRule:
    def test_untimed_get_triggers(self):
        bad = """
            def drain(done_q):
                return done_q.get()
        """
        assert "QUEUE001" in codes(bad, "src/repro/parallel/fixture.py")

    def test_attribute_receiver_triggers(self):
        bad = """
            class Pool:
                def wait(self):
                    return self._task_q.get()
        """
        assert "QUEUE001" in codes(bad, "src/repro/parallel/fixture.py")

    def test_queue_named_variable_triggers(self):
        bad = """
            def pump(result_queue):
                return result_queue.get()
        """
        assert "QUEUE001" in codes(bad)

    def test_timeout_kwarg_passes(self):
        good = """
            def drain(done_q):
                return done_q.get(timeout=0.1)
        """
        assert codes(good) == []

    def test_nonblocking_passes(self):
        good = """
            def drain(done_q):
                return done_q.get(block=False)
        """
        assert codes(good) == []

    def test_positional_nonblocking_passes(self):
        good = """
            def drain(done_q):
                return done_q.get(False)
        """
        assert codes(good) == []

    def test_positional_timeout_passes(self):
        good = """
            def drain(done_q):
                return done_q.get(True, 5.0)
        """
        assert codes(good) == []

    def test_non_queue_receiver_passes(self):
        good = """
            def lookup(mapping):
                return mapping.get()
        """
        assert codes(good) == []

    def test_robust_package_is_exempt(self):
        source = """
            def drain(done_q):
                return done_q.get()
        """
        assert codes(source, "src/repro/robust/fixture.py") == []

    def test_tests_are_exempt(self):
        source = """
            def drain(done_q):
                return done_q.get()
        """
        assert codes(source, "tests/fixture.py") == []


# ---------------------------------------------------------------------------
# DEAD001 — sleep loops that never consult a deadline
# ---------------------------------------------------------------------------
class TestSleepWithoutDeadlineRule:
    def test_sleep_in_while_loop_triggers(self):
        bad = """
            import time

            def wait_for_worker(pool):
                while not pool.ready():
                    time.sleep(0.1)
        """
        assert "DEAD001" in codes(bad)

    def test_bare_sleep_in_for_loop_triggers(self):
        bad = """
            from time import sleep

            def retry(fn):
                for attempt in range(100):
                    fn()
                    sleep(0.5)
        """
        assert "DEAD001" in codes(bad)

    def test_monotonic_deadline_passes(self):
        good = """
            import time
            from repro.utils.timing import monotonic

            def wait_for_worker(pool):
                deadline = monotonic() + 5.0
                while monotonic() < deadline:
                    if pool.ready():
                        return True
                    time.sleep(0.1)
                return False
        """
        assert codes(good) == []

    def test_budget_controller_passes(self):
        good = """
            import time
            from repro.robust.budget import get_budget

            def wait_for_worker(pool):
                while not get_budget().should_stop():
                    if pool.ready():
                        return True
                    time.sleep(0.1)
        """
        assert codes(good) == []

    def test_timeout_variable_passes(self):
        good = """
            import time

            def poll(pool, retry_timeout):
                while retry_timeout > 0:
                    time.sleep(0.1)
                    retry_timeout -= 0.1
        """
        assert codes(good) == []

    def test_outer_loop_consulting_deadline_clears_inner_sleep(self):
        good = """
            import time
            from repro.utils.timing import monotonic

            def drain(pools, deadline):
                while monotonic() < deadline:
                    for pool in pools:
                        time.sleep(0.01)
        """
        assert codes(good) == []

    def test_sleep_outside_loop_passes(self):
        good = """
            import time

            def settle():
                time.sleep(0.1)
        """
        assert codes(good) == []

    def test_robust_package_is_exempt(self):
        source = """
            import time

            def backoff():
                while True:
                    time.sleep(1.0)
        """
        assert codes(source, "src/repro/robust/fixture.py") == []

    def test_tests_are_exempt(self):
        source = """
            import time

            def spin():
                while True:
                    time.sleep(1.0)
        """
        assert codes(source, "tests/fixture.py") == []
