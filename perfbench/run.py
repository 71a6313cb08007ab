#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/main.exe with dune, runs the workload for S seconds and
prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the gated end-to-end ones, including
setup_s: the time from process start until the workload is set up and
its untimed warm-up round has run, at reference host speed (see
perfbench/calibration.ml), the median of SETUPS process starts.
With --trace 1 they are the per-layer ones, and the spans are written
to perfbench/_out/trace-<workload>-seed<N>.json (Chrome Trace Event
format).  Exits non-zero without a result line if the build or the run
fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["pop-tree", "pop-farm-open", "rpc-paper", "sweep-chaos"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = os.path.join("perfbench", "_out")
SETUPS = 3
READY = "perfbench: ready"
SPEED = "perfbench: speed "
# A run ends one op after its --seconds; no op takes this long.
GRACE_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("run from the repository root (no dune-project here)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def run_exe(args, timeout, echo):
    """Run main.exe; return (set-up seconds at reference speed, lines).

    The process is killed if it is still running after [timeout]."""
    start = time.monotonic()
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready_at = None
    speed = None
    lines = []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == READY and ready_at is None:
                ready_at = time.monotonic() - start
                continue
            if line.startswith(SPEED):
                speed = float(line[len(SPEED):])
                continue
            lines.append(line)
            if echo and not line.startswith("{"):
                print(line, flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready_at is None or speed is None:
        fail("%s exited with %s" % (" ".join(args), proc.returncode))
    return ready_at * speed, lines


def main():
    # Turn a termination request into an exception, so that run_exe's
    # cleanup kills and reaps the running main.exe.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUPS - 1):
            t, _ = run_exe(args + ["--setup-only"], GRACE_S, echo=False)
            setups.append(t)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (a.workload, a.seed))
        args += ["--trace-file", trace_file]
    t, lines = run_exe(args, a.seconds + GRACE_S, echo=True)
    setups.append(t)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from main.exe")
    if a.trace == 0:
        setup_s = statistics.median(setups)
        print("%-7s %-38s %18.6g %s" % ("metric", "setup_s", setup_s, "s"))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update(result["metrics"])
        result["metrics"] = metrics
    else:
        print("trace file: " + trace_file)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
