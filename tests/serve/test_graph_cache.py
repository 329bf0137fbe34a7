"""The serve worker's graph cache: content keys, torn reads, LRU budget.

Unit tests drive :class:`~repro.serve.graph_cache.GraphCache` directly;
the service tests check that a cached graph changes no result, across a
worker crash and checkpoint resume too, and that the outcomes reach the
job meta and the service counters.
"""

import os
import time

import numpy as np
import pytest

from repro.core.driver import louvain
from repro.graph import io
from repro.graph.generators import planted_partition
from repro.serve import AutoscalePolicy, JobService, JobStatus, graph_cache
from repro.serve.graph_cache import GraphCache
from repro.serve.job import resolve_graph_ref

GRAPH_REF = "planted:10x40?p_in=0.3&p_out=0.005&seed=11"


def _write(path, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


class TestKeys:
    def test_second_resolve_is_a_hit_on_the_same_graph(self, tmp_path):
        path = str(tmp_path / "g.metis")
        io.write_metis(planted_partition(4, 20, 0.4, 0.01, seed=3), path)
        cache = GraphCache()
        first, outcome = cache.resolve(path)
        assert outcome == "miss"
        second, outcome = cache.resolve(path)
        assert outcome == "hit"
        assert second is first
        assert first == io.read_metis(path)

    def test_same_size_same_mtime_rewrite_is_a_miss(self, tmp_path):
        path = _write(tmp_path / "g.txt", "0 1\n1 2\n")
        cache = GraphCache()
        old, _ = cache.resolve(path)
        before = os.stat(path)
        _write(path, "0 2\n1 2\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                      before.st_mtime_ns)
        new, outcome = cache.resolve(path)
        assert outcome == "miss"
        assert new == io.read_edge_list(path)
        assert new != old

    def test_file_rewritten_mid_parse_is_not_cached(self, tmp_path,
                                                    monkeypatch):
        path = _write(tmp_path / "g.txt", "0 1\n1 2\n")
        original = io.read_edge_list

        def rewriting_reader(p, *args, **kwargs):
            graph = original(p, *args, **kwargs)
            _write(path, "0 1\n1 2\n2 3\n")
            return graph

        monkeypatch.setattr(io, "read_edge_list", rewriting_reader)
        cache = GraphCache()
        graph, outcome = cache.resolve(path)
        assert outcome == "uncached"
        assert graph.num_vertices == 3  # the bytes the parse saw
        assert len(cache) == 0 and cache.nbytes == 0
        monkeypatch.setattr(io, "read_edge_list", original)
        graph, outcome = cache.resolve(path)
        assert outcome == "miss"
        assert graph.num_vertices == 4

    def test_same_bytes_under_two_readers_are_two_entries(self, tmp_path):
        # Valid as a weighted METIS file (2 vertices) and as an edge list
        # (three weighted edges on vertices up to 5).
        text = "2 1 1\n2 5\n1 5\n"
        metis = _write(tmp_path / "g.metis", text)
        edges = _write(tmp_path / "g.txt", text)
        cache = GraphCache()
        a, first = cache.resolve(metis)
        b, second = cache.resolve(edges)
        assert (first, second) == ("miss", "miss")
        assert a == io.read_metis(metis) and b == io.read_edge_list(edges)
        assert a != b
        assert len(cache) == 2

    def test_generator_refs_key_on_defaulted_parameters(self):
        cache = GraphCache()
        a, first = cache.resolve("planted:10x40?seed=11")
        b, second = cache.resolve("planted:10x40?seed=11&p_in=0.3")
        c, third = cache.resolve("planted:10x40?seed=12")
        assert (first, second, third) == ("miss", "hit", "miss")
        assert b is a and c != a

    def test_bad_refs_still_raise(self):
        from repro.utils.errors import ValidationError

        with pytest.raises(ValidationError):
            GraphCache().resolve("/no/such/file.metis")


class TestBudget:
    @staticmethod
    def _size(ref):
        cache = GraphCache()
        cache.resolve(ref)
        return cache.nbytes

    def test_lru_eviction_stays_within_budget(self, monkeypatch):
        refs = [f"planted:4x30?seed={s}" for s in range(6)]
        size = self._size(refs[0])
        monkeypatch.setattr(graph_cache, "GRAPH_CACHE_BYTES",
                            3 * size + size // 2)
        cache = GraphCache()
        for ref in refs[:3]:
            assert cache.resolve(ref)[1] == "miss"
        assert cache.resolve(refs[0])[1] == "hit"  # refs[1] is now oldest
        for ref in refs[3:]:
            assert cache.resolve(ref)[1] == "miss"
            assert cache.nbytes <= graph_cache.GRAPH_CACHE_BYTES
            assert len(cache) <= 3
        assert cache.resolve(refs[1])[1] == "miss"  # evicted first
        assert cache.nbytes <= graph_cache.GRAPH_CACHE_BYTES

    def test_graph_over_budget_is_used_uncached(self, monkeypatch):
        ref = "planted:4x30?seed=0"
        monkeypatch.setattr(graph_cache, "GRAPH_CACHE_BYTES",
                            self._size(ref) - 1)
        cache = GraphCache()
        graph, outcome = cache.resolve(ref)
        assert outcome == "uncached"
        assert graph == resolve_graph_ref(ref)
        assert len(cache) == 0 and cache.nbytes == 0


def wait_terminal(service, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(job_id)
        if record["status"] in JobStatus.TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {record['status']}")


@pytest.fixture
def service(tmp_path):
    svc = JobService(str(tmp_path / "spool"),
                     policy=AutoscalePolicy(min_workers=1, max_workers=1,
                                            idle_grace_s=60.0))
    svc.start()
    yield svc
    svc.stop()


def _run(service, spec):
    job_id = service.submit(spec)
    record = wait_terminal(service, job_id)
    assert record["status"] == JobStatus.DONE, record
    return record, np.asarray(service.result(job_id)["communities"])


class TestServedJobs:
    def test_repeated_file_job_hits_and_matches_in_process(self, service,
                                                           tmp_path):
        path = str(tmp_path / "g.metis")
        io.write_metis(planted_partition(8, 30, 0.3, 0.01, seed=5), path)
        direct = louvain(io.read_metis(path)).communities
        first, labels0 = _run(service, {"graph": path})
        second, labels1 = _run(service, {"graph": path})
        assert first["meta"]["graph_cache"] == "miss"
        assert second["meta"]["graph_cache"] == "hit"
        np.testing.assert_array_equal(labels0, direct)
        np.testing.assert_array_equal(labels1, direct)
        counters = service.tracer.metrics.counters
        assert counters.get("serve.graph_cache_hits") == 1
        assert counters.get("serve.graph_cache_misses") == 1

    def test_resume_after_worker_kill_keeps_uninterrupted_labels(
            self, service):
        direct = louvain(resolve_graph_ref(GRAPH_REF)).communities
        warm, _ = _run(service, {"graph": GRAPH_REF})
        assert warm["meta"]["graph_cache"] == "miss"
        # The fault kills the warm worker at phase 1; its replacement
        # starts cold and resumes from phase 0's checkpoint.
        crashed, labels = _run(service, {
            "graph": GRAPH_REF,
            "config": {"fault_plan": "raise:phase=1,sweep=0"},
        })
        assert crashed["attempts"] == 2
        assert crashed["meta"]["resumed_from_phase"] >= 1
        assert crashed["meta"]["graph_cache"] == "miss"
        np.testing.assert_array_equal(labels, direct)
        again, labels = _run(service, {"graph": GRAPH_REF})
        assert again["meta"]["graph_cache"] == "hit"
        np.testing.assert_array_equal(labels, direct)
