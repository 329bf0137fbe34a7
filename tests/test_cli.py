"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import write_edge_list, write_metis, save_csrz
from repro.graph.generators import karate_club


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.txt"
    write_edge_list(karate_club(), path)
    return str(path)


class TestDetect:
    def test_detect_dataset(self, capsys):
        assert main(["detect", "--dataset", "MG1", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "modularity:" in out
        assert "communities:" in out

    def test_detect_file(self, karate_file, capsys):
        assert main(["detect", karate_file, "--variant", "baseline"]) == 0
        assert "modularity:" in capsys.readouterr().out

    def test_detect_serial(self, karate_file, capsys):
        assert main(["detect", karate_file, "--variant", "serial"]) == 0
        assert "serial" in capsys.readouterr().out

    def test_detect_output_file(self, karate_file, tmp_path, capsys):
        out_file = tmp_path / "comm.txt"
        assert main(["detect", karate_file, "--output", str(out_file)]) == 0
        comm = np.loadtxt(out_file, dtype=np.int64)
        assert comm.shape == (34,)

    def test_detect_threads(self, karate_file, capsys):
        assert main(["detect", karate_file, "--backend", "threads",
                     "--threads", "2"]) == 0

    def test_detect_metis_and_csrz(self, tmp_path, capsys):
        metis = tmp_path / "k.metis"
        write_metis(karate_club(), metis)
        assert main(["detect", str(metis)]) == 0
        csrz = tmp_path / "k.csrz.npz"
        save_csrz(karate_club(), csrz)
        assert main(["detect", str(csrz), "--format", "csrz"]) == 0

    def test_detect_trace_streams_ring(self, karate_file, tmp_path,
                                       monkeypatch, capsys):
        """The README/CI live shape: REPRO_OBS_RING + detect --trace."""
        from repro.obs.live import METRICS_RING_ENV, load_ring

        ring = tmp_path / "ring.jsonl"
        monkeypatch.setenv(METRICS_RING_ENV, str(ring))
        assert main(["detect", karate_file, "--trace"]) == 0
        snaps = load_ring(str(ring))
        assert snaps, "exit snapshot must land even for a fast run"
        assert snaps[-1].counters.get("sweep.moves", 0) > 0

    def test_detect_trace_serial_variant(self, karate_file, capsys):
        assert main(["detect", karate_file, "--variant", "serial",
                     "--trace"]) == 0
        assert "modularity:" in capsys.readouterr().out

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["detect"])


class TestStats:
    def test_stats_file(self, karate_file, capsys):
        assert main(["stats", karate_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:" in out and "34" in out
        assert "degree RSD:" in out

    def test_stats_dataset(self, capsys):
        assert main(["stats", "--dataset", "Channel", "--scale", "0.3"]) == 0
        assert "single-degree count:  0" in capsys.readouterr().out


class TestDatasets:
    def test_list(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("CNR", "friendster", "MG2"):
            assert name in out

    def test_verbose(self, capsys):
        assert main(["datasets", "-v"]) == 0
        assert "LFR" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_with_detection(self, karate_file, capsys):
        assert main(["analyze", karate_file, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "detected with baseline+VF+Color" in out
        assert "coverage:" in out
        assert "hubs" in out

    def test_analyze_given_assignment(self, karate_file, tmp_path, capsys):
        comm = tmp_path / "comm.txt"
        main(["detect", karate_file, "--output", str(comm)])
        capsys.readouterr()
        assert main(["analyze", karate_file, "--communities",
                     str(comm)]) == 0
        out = capsys.readouterr().out
        assert "detected" not in out  # no re-detection
        assert "modularity:" in out

    def test_analyze_length_mismatch(self, karate_file, tmp_path):
        bad = tmp_path / "bad.txt"
        np.savetxt(bad, np.zeros(3), fmt="%d")
        with pytest.raises(SystemExit):
            main(["analyze", karate_file, "--communities", str(bad)])


class TestCompare:
    def test_identical_assignments(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        np.savetxt(a, np.array([0, 0, 1, 1]), fmt="%d")
        np.savetxt(b, np.array([5, 5, 9, 9]), fmt="%d")
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Rand index:        100.00%" in out
        assert "adjusted Rand:     1.0000" in out

    def test_serial_vs_parallel_flow(self, karate_file, tmp_path, capsys):
        ser = tmp_path / "serial.txt"
        par = tmp_path / "parallel.txt"
        main(["detect", karate_file, "--variant", "serial",
              "--output", str(ser)])
        main(["detect", karate_file, "--variant", "baseline",
              "--output", str(par)])
        assert main(["compare", str(ser), str(par)]) == 0
        assert "NMI:" in capsys.readouterr().out

    def test_length_mismatch(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        np.savetxt(a, np.array([0, 1]), fmt="%d")
        np.savetxt(b, np.array([0, 1, 2]), fmt="%d")
        with pytest.raises(SystemExit):
            main(["compare", str(a), str(b)])


class TestConvert:
    @pytest.mark.parametrize("suffix,fmt", [
        ("metis", "metis"), ("mtx", "mtx"), ("csrz.npz", "csrz"),
    ])
    def test_roundtrip_via_convert(self, karate_file, tmp_path, suffix, fmt,
                                   capsys):
        out = tmp_path / f"k.{suffix}"
        assert main(["convert", karate_file, str(out)]) == 0
        back = tmp_path / "back.txt"
        assert main(["convert", str(out), str(back),
                     "--input-format", fmt]) == 0
        from repro.graph.io import read_edge_list

        assert read_edge_list(back) == karate_club()


class TestBench:
    def test_list_experiments(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for eid in ("table1", "table2", "fig7", "fig10"):
            assert eid in out

    def test_run_table1(self, capsys):
        assert main(["bench", "table1", "--scale", "0.3"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.utils.errors import ValidationError

        with pytest.raises(ValidationError):
            main(["bench", "fig99"])


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


class TestObs:
    def test_trace_validate_report_flow(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["obs", "trace", karate_file, "--out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert f"trace written to {trace} (chrome)" in out
        assert "TOTAL" in out  # breakdown printed inline

        assert main(["obs", "validate", str(trace)]) == 0
        assert "schema valid" in capsys.readouterr().out

        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== Runtime breakdown (Fig. 8 buckets) ==" in out
        assert "== Span tree ==" in out
        assert "== Convergence ==" in out

    def test_trace_serial_variant(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["obs", "trace", karate_file, "--variant", "serial",
                     "--out", str(trace)]) == 0
        assert main(["obs", "validate", str(trace)]) == 0

    def test_trace_jsonl_format_and_report(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["obs", "trace", karate_file, "--trace-format", "jsonl",
                     "--out", str(trace)]) == 0
        assert "(jsonl)" in capsys.readouterr().out
        assert main(["obs", "report", str(trace), "--no-tree"]) == 0
        out = capsys.readouterr().out
        assert "== Runtime breakdown (Fig. 8 buckets) ==" in out
        assert "== Span tree ==" not in out

    def test_trace_flat_format(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        assert main(["obs", "trace", karate_file, "--trace-format", "flat",
                     "--out", str(trace)]) == 0
        assert "step.clustering.seconds" in trace.read_text()

    def test_validate_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": "a", "ph": "B", '
                       '"ts": 0, "pid": 1, "tid": 1}]}')
        assert main(["obs", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_trace_dataset_input(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["obs", "trace", "--dataset", "MG1", "--scale", "0.3",
                     "--out", str(trace)]) == 0
        assert main(["obs", "report", str(trace), "--max-depth", "1"]) == 0
        assert "iteration" not in capsys.readouterr().out.split(
            "== Span tree ==")[1].split("==")[0]

    def test_trace_profile_and_flame(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        flame = tmp_path / "run.collapsed"
        assert main(["obs", "trace", karate_file, "--out", str(trace),
                     "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert f"collapsed stacks written to {flame}" in out
        assert flame.exists()
        import json as json_mod

        payload = json_mod.loads(trace.read_text())
        assert "reproProfile" in payload

    def test_trace_serial_profile(self, karate_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["obs", "trace", karate_file, "--variant", "serial",
                     "--profile", "--out", str(trace)]) == 0
        assert "profile:" in capsys.readouterr().out


class TestObsInputErrors:
    """Unusable input exits 2 with a clear message, never a traceback."""

    def test_trace_missing_graph_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "trace", str(tmp_path / "absent.txt"),
                  "--out", str(tmp_path / "trace.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(tmp_path / "absent.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_report_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(tmp_path)])
        assert exc.value.code == 2
        assert "directory" in capsys.readouterr().err

    def test_report_non_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is { not json")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(bad)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_report_binary_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\x80\x81\x82\xff")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(bad)])
        assert exc.value.code == 2

    def test_validate_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "validate", str(tmp_path / "absent.json")])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_validate_non_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "validate", str(bad)])
        assert exc.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestObsRegress:
    @staticmethod
    def write_records(path, seconds=1.0, q=0.9):
        import json as json_mod

        records = [{
            "graph": "planted-50k", "kernel": "optimized",
            "seconds": seconds, "Q": q, "commit": "aaaa",
            "date": "2026-01-01", "backend": "numpy",
        }]
        path.write_text(json_mod.dumps(records))
        return str(path)

    def test_pass_on_identical_records(self, tmp_path, capsys):
        committed = self.write_records(tmp_path / "committed.json")
        fresh = self.write_records(tmp_path / "fresh.json")
        assert main(["obs", "regress", "--kernels", committed,
                     "--fresh-kernels", fresh]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_on_slowed_records(self, tmp_path, capsys):
        committed = self.write_records(tmp_path / "committed.json",
                                       seconds=1.0)
        slowed = self.write_records(tmp_path / "fresh.json", seconds=10.0)
        assert main(["obs", "regress", "--kernels", committed,
                     "--fresh-kernels", slowed]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_missing_committed_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "regress", "--kernels",
                  str(tmp_path / "absent.json"), "--rerun"])
        assert exc.value.code == 2

    def test_no_fresh_records_exits_2(self, tmp_path, capsys):
        committed = self.write_records(tmp_path / "committed.json")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "regress", "--kernels", committed])
        assert exc.value.code == 2
        assert "no fresh records" in capsys.readouterr().err

    def test_unknown_rerun_graph_exits_2(self, tmp_path, capsys):
        committed = self.write_records(tmp_path / "committed.json")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "regress", "--kernels", committed,
                  "--rerun", "--graphs", "not-a-graph"])
        assert exc.value.code == 2
        assert "unknown --graphs" in capsys.readouterr().err

    def test_malformed_records_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(SystemExit) as exc:
            main(["obs", "regress", "--kernels", str(bad), "--rerun"])
        assert exc.value.code == 2
