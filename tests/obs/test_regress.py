"""Perf-regression gate: comparison semantics and recipe cross-checks."""

import importlib.util
import json
import pathlib

import pytest

from repro.obs.regress import (
    DEFAULT_Q_TOL,
    DEFAULT_TOL_RATIO,
    DEFAULT_TOL_SECONDS,
    PHASE_GRAPHS,
    PHASE_THRESHOLD,
    compare_records,
    load_records,
    record_key,
    render_comparisons,
    run_regression,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def kernel_record(graph="planted-50k", kernel="optimized", seconds=1.0,
                  q=0.9, **extra):
    return {"graph": graph, "kernel": kernel, "seconds": seconds, "Q": q,
            "commit": "aaaa", "date": "2026-01-01", "backend": "numpy",
            **extra}


class TestRecordKey:
    def test_kernel_keys(self):
        assert record_key(kernel_record()) == "kernels:planted-50k/optimized"
        assert record_key({"mode": "batched"}) is None
        assert record_key({"whatever": 1}) is None


class TestLoadRecords:
    def test_loads_committed_bench_files(self):
        kernels = load_records(REPO / "BENCH_kernels.json")
        assert kernels
        assert all(record_key(r) for r in kernels)

    def test_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_records(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_records(path)


class TestCompareRecords:
    def test_identical_records_pass(self):
        committed = [kernel_record(), kernel_record(kernel="seed")]
        comparisons, notes = compare_records(committed,
                                             json.loads(json.dumps(committed)))
        assert comparisons and all(c.ok for c in comparisons)
        assert notes == []

    def test_synthetically_slowed_record_fails(self):
        committed = [kernel_record(seconds=1.0)]
        slowed = [kernel_record(seconds=10.0)]
        comparisons, _ = compare_records(committed, slowed)
        seconds = [c for c in comparisons if c.metric == "seconds"]
        assert seconds and not seconds[0].ok

    def test_within_tolerance_passes(self):
        committed = [kernel_record(seconds=1.0)]
        # limit = 1.0 + max(1.0*0.25, 0.25) = 1.25
        ok_fresh = [kernel_record(seconds=1.2)]
        comparisons, _ = compare_records(committed, ok_fresh)
        assert all(c.ok for c in comparisons)

    def test_absolute_floor_protects_tiny_records(self):
        # 10ms -> 3x slower but inside the 0.25s shared-runner floor.
        committed = [kernel_record(seconds=0.010)]
        fresh = [kernel_record(seconds=0.030)]
        comparisons, _ = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)

    def test_quality_drop_fails(self):
        committed = [kernel_record(q=0.90)]
        fresh = [kernel_record(q=0.90 - 2 * DEFAULT_Q_TOL)]
        comparisons, _ = compare_records(committed, fresh)
        q = [c for c in comparisons if c.metric == "Q"]
        assert q and not q[0].ok

    def test_quality_gain_passes(self):
        committed = [kernel_record(q=0.90)]
        fresh = [kernel_record(q=0.95)]
        comparisons, _ = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)

    def test_commit_mismatch_is_note_not_failure(self):
        committed = [kernel_record(commit="aaaa")]
        fresh = [kernel_record(commit="bbbb")]
        comparisons, notes = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)
        assert any("provenance" in n for n in notes)

    def test_unmatched_records_are_notes(self):
        committed = [kernel_record(kernel="seed"),
                     kernel_record(kernel="optimized")]
        fresh = [kernel_record(kernel="optimized"),
                 kernel_record(graph="rmat-131k")]
        comparisons, notes = compare_records(committed, fresh)
        assert all(c.ok for c in comparisons)
        assert any("no fresh record" in n for n in notes)
        assert any("no committed baseline" in n for n in notes)

    def test_custom_tolerances(self):
        committed = [kernel_record(seconds=1.0)]
        fresh = [kernel_record(seconds=1.5)]
        strict, _ = compare_records(committed, fresh, tol_ratio=0.1,
                                    tol_seconds=0.0)
        lax, _ = compare_records(committed, fresh, tol_ratio=1.0,
                                 tol_seconds=0.0)
        assert not all(c.ok for c in strict)
        assert all(c.ok for c in lax)


class TestGate:
    def test_run_regression_pass_and_fail(self):
        committed = [kernel_record(), kernel_record(kernel="seed")]
        ok, report = run_regression(committed,
                                    json.loads(json.dumps(committed)))
        assert ok
        assert report.splitlines()[-1].startswith("PASS")
        bad = json.loads(json.dumps(committed))
        bad[0]["seconds"] = 99.0
        ok, report = run_regression(committed, bad)
        assert not ok
        assert report.splitlines()[-1].startswith("REGRESSION")
        assert "FAIL" in report

    def test_committed_bench_files_pass_against_themselves(self):
        committed = load_records(REPO / "BENCH_kernels.json")
        ok, report = run_regression(committed,
                                    json.loads(json.dumps(committed)))
        assert ok, report


class TestRecipeCrossCheck:
    """The graph recipes duplicated from benchmarks/ must never drift."""

    @staticmethod
    def _load_bench(name):
        # benchmarks/ is a script directory, not a package.
        path = REPO / "benchmarks" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_phase_graphs_match_bench_kernels(self):
        bench = self._load_bench("bench_kernels")
        assert PHASE_GRAPHS == bench.PHASE_GRAPHS
        assert PHASE_THRESHOLD == bench.PHASE_THRESHOLD


class TestRender:
    def test_render_marks_failures(self):
        committed = [kernel_record(seconds=1.0)]
        fresh = [kernel_record(seconds=50.0)]
        comparisons, notes = compare_records(committed, fresh)
        text = render_comparisons(comparisons, notes)
        assert "FAIL kernels:planted-50k/optimized seconds" in text
        assert text.splitlines()[-1].startswith("REGRESSION")
