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


VF_COLOR_REF = "dataset:uk-2002?scale=0.25&seed=3"
VF_COLOR = {"use_vf": True, "use_coloring": True,
            "coloring_min_vertices": 16, "seed": 3}


def _in_process(ref, **fields):
    from repro.core.config import LouvainConfig

    return louvain(resolve_graph_ref(ref),
                   config=LouvainConfig(**{**VF_COLOR, **fields}))


def _same_run(got, want):
    np.testing.assert_array_equal(got.communities, want.communities)
    assert repr(got.modularity) == repr(want.modularity)
    assert got.history.to_json() == want.history.to_json()


@pytest.fixture
def colorings(monkeypatch):
    """The vertex count of every graph a run colors, in order."""
    from repro.core import pipeline

    sizes = []
    color = pipeline._color

    def counted(graph, cfg):
        sizes.append(graph.num_vertices)
        return color(graph, cfg)

    monkeypatch.setattr(pipeline, "_color", counted)
    return sizes


def _colored_sizes(run):
    return [p.num_vertices for p in run.history.phases if p.colored]


class TestPhaseColors:
    """Each cached graph keeps its phase-0 colors; a run that reads them
    is bitwise the run that colors afresh."""

    def test_warm_run_is_bitwise_the_cold_run(self, colorings):
        from repro.core.config import LouvainConfig
        from repro.core.pipeline import use_phase_colors

        direct = _in_process(VF_COLOR_REF)
        sizes = _colored_sizes(direct)
        assert colorings == sizes and len(sizes) >= 2
        cache = GraphCache()
        graph, _ = cache.resolve(VF_COLOR_REF)
        memo = cache.phase_colors(graph)
        config = LouvainConfig(**VF_COLOR)
        runs = []
        for _ in range(2):
            colorings.clear()
            with use_phase_colors(graph, memo):
                runs.append(louvain(graph, config=config))
            _same_run(runs[-1], direct)
        # The warm run colors every phase but the first.
        assert colorings == sizes[1:] and len(memo) == 1

    def test_other_settings_and_graphs_color_afresh(self, colorings):
        from repro.core.config import LouvainConfig
        from repro.core.pipeline import use_phase_colors

        cache = GraphCache()
        graph, _ = cache.resolve(VF_COLOR_REF)
        memo = cache.phase_colors(graph)
        variants = [{}, {"seed": 4}, {"colorer": "greedy"},
                    {"use_vf": False}]
        for count, fields in enumerate(variants, start=1):
            direct = _in_process(VF_COLOR_REF, **fields)
            colorings.clear()
            with use_phase_colors(graph, memo):
                run = louvain(graph, config=LouvainConfig(
                    **{**VF_COLOR, **fields}))
            _same_run(run, direct)
            assert colorings == _colored_sizes(direct)
            assert len(memo) == count
        # A run on another graph in the scope neither reads nor fills
        # the memo.
        other = resolve_graph_ref("dataset:uk-2002?scale=0.25&seed=4")
        colorings.clear()
        with use_phase_colors(graph, memo):
            run = louvain(other, config=LouvainConfig(**VF_COLOR))
        assert colorings == _colored_sizes(run)
        assert len(memo) == len(variants)

    def test_served_jobs_share_colors_and_resume_unchanged(self, tmp_path,
                                                           colorings):
        """In the worker's job function: a warm job reuses the colors, a
        job killed in phase 1 resumes without them, and every label file
        equals the in-process run's."""
        from repro.serve.job import JobSpec, result_path
        from repro.serve.pool import _run_job, load_result
        from repro.utils.errors import FaultInjected

        spool = str(tmp_path)
        cache = GraphCache()
        direct = _in_process(VF_COLOR_REF)
        sizes = _colored_sizes(direct)
        spec = JobSpec(graph=VF_COLOR_REF, config=dict(VF_COLOR))
        for job_id, colored in (("job-0", sizes), ("job-1", sizes[1:])):
            colorings.clear()
            status, meta = _run_job(job_id, spec, spool, cache)
            assert status == "ok" and colorings == colored
            labels, _ = load_result(result_path(spool, job_id))
            np.testing.assert_array_equal(labels, direct.communities)
            assert meta["modularity"] == direct.modularity
        killed = JobSpec(graph=VF_COLOR_REF, config={
            **VF_COLOR, "fault_plan": "raise:phase=1,sweep=0"})
        colorings.clear()
        with pytest.raises(FaultInjected):
            _run_job("job-2", killed, spool, cache)
        assert colorings == sizes[1:2]
        colorings.clear()
        status, meta = _run_job("job-2", killed, spool, cache)
        assert status == "ok" and meta["resumed_from_phase"] == 1
        assert colorings == sizes[1:]
        labels, _ = load_result(result_path(spool, "job-2"))
        np.testing.assert_array_equal(labels, direct.communities)
        assert len(cache.phase_colors(cache.resolve(VF_COLOR_REF)[0])) == 1

    def test_colors_count_against_the_budget(self, monkeypatch):
        refs = [f"planted:4x30?seed={s}" for s in range(3)]
        colors = np.arange(120, dtype=np.int64)
        colors.setflags(write=False)
        cache = GraphCache()
        graphs, graph_bytes = [], []
        for ref in refs:
            before = cache.nbytes
            graphs.append(cache.resolve(ref)[0])
            graph_bytes.append(cache.nbytes - before)
        for i, graph in enumerate(graphs):
            memo = cache.phase_colors(graph)
            for key in range(i + 1):
                memo.put(key, colors)
            assert memo.nbytes == (i + 1) * colors.nbytes
        assert cache.nbytes == sum(graph_bytes) + 6 * colors.nbytes
        assert cache.nbytes == sum(
            size + cache.phase_colors(g).nbytes
            for g, size in zip(graphs, graph_bytes))
        # Colors that overflow the budget evict the oldest graph, and its
        # colors with it.
        monkeypatch.setattr(graph_cache, "GRAPH_CACHE_BYTES", cache.nbytes)
        cache.phase_colors(graphs[2]).put(99, colors)
        assert len(cache) == 2 and cache.phase_colors(graphs[0]) is None
        assert cache.nbytes == sum(graph_bytes[1:]) + 6 * colors.nbytes
        assert cache.resolve(refs[0])[1] == "miss"
        assert len(cache.phase_colors(cache.resolve(refs[0])[0])) == 0

    def test_colors_that_cannot_fit_are_not_kept(self, monkeypatch):
        cache = GraphCache()
        graph, _ = cache.resolve("planted:4x30?seed=0")
        monkeypatch.setattr(graph_cache, "GRAPH_CACHE_BYTES", cache.nbytes)
        memo = cache.phase_colors(graph)
        memo.put("key", np.zeros(8, dtype=np.int64))
        assert memo.get("key") is None and memo.nbytes == 0
        assert len(cache) == 1 and cache.nbytes == graph.nbytes + (
            graph.row_view.indptr.nbytes + graph.row_view.indices.nbytes)


class TestServedVFColorJobs:
    def test_warm_job_and_resume_match_in_process(self, service):
        direct = _in_process(VF_COLOR_REF).communities
        for _ in range(2):
            _, labels = _run(service, {"graph": VF_COLOR_REF,
                                       "config": dict(VF_COLOR)})
            np.testing.assert_array_equal(labels, direct)
        crashed, labels = _run(service, {
            "graph": VF_COLOR_REF,
            "config": {**VF_COLOR, "fault_plan": "raise:phase=1,sweep=0"},
        })
        assert crashed["attempts"] == 2
        np.testing.assert_array_equal(labels, direct)
