"""One benchmark process: import, a discarded warm-up operation, then a closed loop.

Started by run.py, never by hand.  Protocol messages go to the original
standard output, one JSON object per line; anything the program prints goes
to standard error.  The first message reports set-up time (process start to
the end of the warm-up operation); with --probe the process stops there.
Otherwise the worker runs whole rounds of operations until --seconds have
passed, one at a time, and sends the result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _log(msg: str) -> None:
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


class Loop:
    """Runs operations of one workload and accumulates counts and metrics."""

    def __init__(self, workload):
        self.wl = workload
        self.funcs = tracer.originals()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref_err = 0.0
        # Per mode (untraced False, traced True): the mean operation time of
        # each whole round, the summed operation time, and operations timed.
        self.round_times = {False: [], True: []}
        self.busy_s = {False: 0.0, True: 0.0}
        self.ops = {False: 0, True: 0}
        self.solves = 0
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.cg_iterations = 0
        self.ndof = 0

    def round(self, traced: bool) -> None:
        """One operation per entry of the workload's round, in order."""
        walls = [self.op(op, traced) for op in self.wl.round]
        if None not in walls:
            self.round_times[traced].append(sum(walls) / len(walls))

    def op(self, op, traced: bool) -> float | None:
        """Run, time and check one operation; None when it raised."""
        log = tracer.SolveLog()
        spans = tracer.SpanRecorder() if traced else None
        with tracer.patch(self.funcs, log, spans):
            t0 = time.perf_counter()
            try:
                result = self.wl.run(op)
            except Exception:  # a failed operation is counted, the loop goes on
                traceback.print_exc()
                self.attempted += self.wl.units_per_op
                self.failed += self.wl.units_per_op
                return None
            wall = time.perf_counter() - t0
        self.busy_s[traced] += wall
        self.ops[traced] += 1
        self.attempted += self.wl.units_per_op
        self.solves += len(log.fields)
        checked = self.wl.check(op, result, log.fields)
        self.failed += checked.failed
        self.problems += checked.problems
        self.ref_err = max(self.ref_err, checked.ref_err)
        if spans is None:
            return wall
        selfs = spans.self_times()
        if sum(s for _, s in selfs) > wall:
            self.problems.append("%r: self times sum past the operation's wall time" % (op,))
        for name, s in selfs:
            self.self_s[name] = self.self_s.get(name, 0.0) + s
            self.calls[name] = self.calls.get(name, 0) + 1
        self.cg_iterations += sum(f.iterations for f in log.fields)
        self.ndof += sum(f.space.n_nodes for f in log.fields)
        return wall

    def end_to_end(self) -> dict:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "op_s": (statistics.median(self.round_times[False]), "s"),
            "domains_per_s": (self.solves / self.busy_s[False], "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ref_err": (self.ref_err, "1"),
        }

    def per_layer(self) -> dict:
        n = self.ops[True]
        out = {}
        for name in self.funcs:
            out[name + "_s"] = (self.self_s.get(name, 0.0) / n, "s")
        for name in (
            "fem.boundary_normal_derivative",
            "fem.domain_quadrature",
            "spectral.harmonic_rayleigh_min",
            "identities.cs_deficit",
            "stability.deviation_norms",
        ):
            out[name + ".calls"] = (self.calls.get(name, 0) / n, "count")
        out["cli.self_s"] = out.pop("cli.main_s")
        out["fem.cg_iterations"] = (self.cg_iterations / n, "count")
        out["fem.ndof"] = (self.ndof / n, "count")
        overhead = statistics.median(self.round_times[True]) - statistics.median(self.round_times[False])
        out["trace.overhead_s"] = (overhead, "s")
        return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--started", type=float, required=True, help="time.monotonic() when the process was launched")
    p.add_argument("--probe", action="store_true", help="stop after reporting set-up time")
    args = p.parse_args()

    sys.stdout.flush()
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # the program's own prints go to standard error

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        warm = Loop(wl)
        warm.op(wl.warmup, traced=False)  # discarded: absorbs first-call costs
        setup_s = time.monotonic() - args.started
        if not warm.ops[False]:
            _log("the warm-up operation raised")
            return 1
        loop = Loop(wl)
        loop.problems = warm.problems
        proto.write(json.dumps({"setup_s": setup_s}) + "\n")
        if args.probe:
            return 0

        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            loop.round(traced=False)
            if args.trace:
                loop.round(traced=True)
        metrics = loop.per_layer() if args.trace else loop.end_to_end()
        for msg in loop.problems:
            _log("check failed: " + msg)
        result = {
            "correct": not loop.problems,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        proto.write(json.dumps(result) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        proto.close()


if __name__ == "__main__":
    sys.exit(main())
