"""Benchmark for bubblestab: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload {sweep_cos3,verify_ladder,analyze_small}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the program is imported from ./src).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 runs every operation once untraced and once traced and reports the
per-layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_cos3", "verify_ladder", "analyze_small")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0  # the whole run, every worker included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(args, probe: bool, deadline: float, env: dict) -> list[dict]:
    """Start one worker, wait for it to end, and return its protocol messages."""
    started = time.monotonic()
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--started", repr(started),
    ] + (["--probe"] if probe else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    msgs = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not msgs or "setup_s" not in msgs[0] or len(msgs) != (1 if probe else 2):
        raise BenchError("worker sent %d messages" % len(msgs))
    return msgs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in 1..60")

    if not os.path.isdir(os.path.join(ROOT, "src", "bubblestab")):
        print("perfbench: no src/bubblestab under %s" % ROOT, file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))  # BLAS threads capped at the usable cores
    env.update({var: threads for var in BLAS_VARS})
    try:
        # The traced run reports no set-up time, so it starts one worker only.
        setups = [run_worker(args, True, deadline, env)[0]["setup_s"] for _ in range(0 if args.trace else SETUPS - 1)]
        first, result = run_worker(args, False, deadline, env)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(first["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
