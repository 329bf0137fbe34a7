"""Tests of the benchmark itself: process hygiene, checks, tracing.

    python3 -m pytest perfbench -q

Runs use ``--size small`` (graphs of a few thousand vertices) and a few
seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import lib_workloads  # noqa: E402
import tracing  # noqa: E402


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _tagged(token: str) -> list:
    """Pids of live processes whose environment carries ``token``."""
    pids = []
    needle = f"PERFBENCH_TEST_TOKEN={token}".encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle in fh.read().split(b"\0"):
                    pids.append(int(entry))
        except OSError:
            continue  # exited meanwhile, or not ours
    return pids


def _launch(*args, cwd=ROOT):
    token = uuid.uuid4().hex
    env = dict(os.environ, PERFBENCH_TEST_TOKEN=token)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    return proc, token


def _run(workload, *extra, seconds="2", trace="0", seed="3"):
    proc, token = _launch("--workload", workload, "--seed", seed,
                          "--seconds", seconds, "--trace", trace,
                          "--size", "small", *extra)
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1]), token


def _assert_clean(token: str, shm_before: set) -> None:
    deadline = time.monotonic() + 5.0
    while _tagged(token) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _tagged(token) == []
    assert _shm() - shm_before == set()


@pytest.mark.parametrize("workload", ("planted-lib", "skewed-serve"))
def test_run_prints_every_metric_and_leaves_no_process(workload):
    shm_before = _shm()
    for trace, names in ((0, harness.END_TO_END), (1, harness.PER_LAYER)):
        result, token = _run(workload, trace=str(trace))
        _assert_clean(token, shm_before)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(names)
        for name, unit in names.items():
            assert result["metrics"][name]["unit"] == unit
        if trace:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            assert metrics["parallel.recoveries"] == 0
            if workload == "skewed-serve":
                assert metrics["serve.attempts_per_job"] == 1.0
        else:
            assert result["metrics"]["ok_frac"]["value"] == 1.0


# (workload, live processes that mark a running op, seconds to let it run)
# Traced planted-lib forks a 2-worker process backend in every traced
# round: the parent plus at least two more means a backend is up (the
# third may be the shared-memory resource tracker).  skewed-serve's
# service worker is up from set-up on; a second lets the first jobs start.
MID_OP = (("planted-lib", 3, 0.0), ("skewed-serve", 2, 1.0))


@pytest.mark.parametrize("workload,processes,settle_s", MID_OP)
@pytest.mark.parametrize("signum", (signal.SIGINT, signal.SIGTERM))
def test_interrupt_mid_op_leaves_no_process(workload, processes, settle_s,
                                            signum):
    shm_before = _shm()
    proc, token = _launch("--workload", workload, "--seed", "1",
                          "--seconds", "60", "--trace", "1",
                          "--size", "small")
    # The set-up line comes before the measured loop.
    line = proc.stdout.readline()
    assert "setup" in line, line + proc.stderr.read()
    deadline = time.monotonic() + 30.0
    while len(_tagged(token)) < processes and time.monotonic() < deadline:
        time.sleep(0.002)
    assert len(_tagged(token)) >= processes, "no forked child seen"
    time.sleep(settle_s)
    proc.send_signal(signum)
    out, _err = proc.communicate(timeout=90)
    assert proc.returncode == 130
    assert '"metrics"' not in out
    _assert_clean(token, shm_before)


@pytest.mark.parametrize("workload", ("planted-lib", "skewed-serve"))
def test_wrong_partition_counts_as_failed(workload):
    result, _token = _run(workload, "--corrupt-op", "1")
    attempted = result["attempted"]
    assert attempted >= 2
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == (attempted - 1) / attempted


def test_quality_repeats_exactly():
    first, _ = _run("planted-lib", seconds="1")
    second, _ = _run("planted-lib", seconds="1")
    for name in ("q_baseline", "q_vf", "q_vf_color"):
        assert first["metrics"][name] == second["metrics"][name]


def test_untraced_run_after_traced_sees_original_functions(tmp_path):
    before = tracing.originals()
    common = dict(seed=2, seconds=0.5, small=True, corrupt_op=None,
                  log=lambda line: None)
    traced = lib_workloads.run("planted-lib", trace=True,
                               workdir=str(tmp_path / "a"), **common)
    assert traced["failed"] == 0
    after = tracing.originals()
    assert after.keys() == before.keys()
    for name, original in before.items():
        assert after[name] is original, name
        assert not hasattr(after[name], "__wrapped__"), name
    assert tracing._RECORDER is None
    untraced = lib_workloads.run("planted-lib", trace=False,
                                 workdir=str(tmp_path / "b"), **common)
    assert untraced["failed"] == 0
    assert "core.sweep.calls" not in untraced["values"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, _token = _launch("--workload", "planted-lib", "--seed", "1",
                           "--seconds", "1", "--trace", "0",
                           cwd=str(tmp_path))
    out, _err = proc.communicate(timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in out


def test_host_speed_scales_by_the_probes_around_the_op(monkeypatch):
    host = harness.HostSpeed()
    probes = iter([0.2, 0.1])
    monkeypatch.setattr(host, "probe", lambda: next(probes))
    host.last = host.probe()
    # Probes of 0.2 s and 0.1 s around the op: the host ran at 2/3 of the
    # speed at which the probe takes PROBE_REF_S = 0.1 s.
    assert host.scaled(3.0) == pytest.approx(2.0)
    assert host.last == 0.1
