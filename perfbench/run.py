"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload planted-lib --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/README.md).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; lines before
it starting with ``#`` are human-readable detail.  Exit codes: 0 after a
completed run (``correct`` tells whether every op passed its checks), 2
for a bad argument or a checkout without the program, 130 when
interrupted (SIGINT or SIGTERM), after every child process has ended.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planted-lib", "skewed-serve")


def _log(line: str) -> None:
    print(line, flush=True)


def _interrupt(signum, frame):
    # Forked children inherit this handler; they take the default action
    # instead of unwinding the parent's stack.
    if os.getpid() != _interrupt.owner:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    _interrupt.flag.set()
    raise KeyboardInterrupt


def _child_pids() -> list:
    """Pids of this process's direct children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _reap_children() -> None:
    """Join every multiprocessing child and stop the shared-memory
    resource tracker, so no process this run started outlives it."""
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    # A signal that lands while a backend forks its workers can leave one
    # that multiprocessing does not list.  It holds the tracker's pipe
    # open, so the tracker would never exit: kill and reap it first.
    for pid in _child_pids():
        if pid == tracker_pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped meanwhile
    if tracker_pid is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Hooks for the benchmark's own tests.
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-op", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # Measure the program's default configuration, whatever the caller's
    # environment asks of it (REPRO_TRACE, REPRO_SANITIZE, ...).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    import harness
    import lib_workloads
    import serve_workload

    _interrupt.owner = os.getpid()
    _interrupt.flag = harness.interrupted
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    module = (serve_workload if args.workload == "skewed-serve"
              else lib_workloads)
    workdir = harness.work_dir(ROOT)
    try:
        outcome = module.run(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), small=args.size == "small",
            corrupt_op=args.corrupt_op, workdir=workdir, log=_log)
        harness.check_interrupted()
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    finally:
        _reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    values = outcome["values"]
    # Read after the children are reaped, so their peak counts too.
    values["peak_rss_mb"] = harness.peak_rss_mb()
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": harness.metric_block(values, units),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
