"""Golden outputs of the bubblestab command line, and their comparison.

    python3 tools/golden.py run OUT [--src DIR]
    python3 tools/golden.py compare A B

``run`` runs the golden set into OUT, one subdirectory per case: ``sweep`` on
configs/sweep_cos3.json, on configs/sweep_cos3_all.json (all five
theorems) and on configs/sweep_cos3_nonconvex.json (t = 0.15 to 0.3, whose
touching radii come from the pair scan), ``verify`` on the disk, the ellipse
and the off-centre, asymmetric configs/fourier5.json, ``spectral`` on the
ellipse and on configs/two_lobe.json (rho = 1 + 0.5 cos 2 theta, whose u
has two minima), ``convergence`` on the disk and the ellipse, and
``oracles`` with and without ``--fsup --N 8``.  Each case runs as
``python -m bubblestab.cli`` in a subprocess that imports the package from
--src (default: the src directory next to tools/), so the outputs of two
checkouts can be made with one script.  The exit codes go to
OUT/exit_codes.json, the wall time of each case, in seconds, to
OUT/wall_s.json, the peak resident memory of each case's process, in
MB, as os.wait4 reports its ru_maxrss, to OUT/maxrss_mb.json, and the BLAS
thread settings the cases ran with (the three variables perfbench/run.py
pins, null when unset) to OUT/blas_env.json: floats can move with the thread
count.

``compare`` prints the exit codes, wall times and peak memory of both runs,
then both runs' BLAS thread settings on one line, flagged DIFFER when both
runs recorded them and they differ; these files are never compared as
outputs.  Per output file it prints whether every non-float field (keys,
lengths, strings, integers, booleans, nulls) is equal, or else the path of
every one that differs, and the worst absolute and relative move of its
floats, with where it happens, and under that one indented line per moved
float with its absolute and relative move, largest relative move first.  A move is relative to the
largest magnitude its field takes in either file, a field being a JSON path
with its list indices dropped (all the rows' z, both coordinates) or a CSV
column, so a coordinate that is 0 by symmetry, and holds only round-off, is
ranked by the size of its point.  A move between two values that are each below
_ROUND_OFF times the largest float magnitude in either file (a point whose
coordinates are both 0 by symmetry) is round-off: it is listed last, with
its absolute move only, and never counts as the worst relative move.  In a
file with a top-level ``solver_residual`` (a verify level), a move of at most
the larger of the two files' solver_residual times that largest magnitude is
solver noise, where conjugate gradients stopped, and is listed with the
round-off moves.  It exits 0 when the exit codes and every non-float field
agree, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (case, command with its arguments, config or None)
GOLDEN = (
    ("sweep_cos3", "sweep", "configs/sweep_cos3.json"),
    ("sweep_cos3_all", "sweep", "configs/sweep_cos3_all.json"),
    ("sweep_cos3_nonconvex", "sweep", "configs/sweep_cos3_nonconvex.json"),
    ("verify_disk", "verify", "configs/disk.json"),
    ("verify_ellipse", "verify", "configs/ellipse.json"),
    ("verify_fourier5", "verify", "configs/fourier5.json"),
    ("spectral_ellipse", "spectral", "configs/ellipse.json"),
    ("spectral_two_lobe", "spectral", "configs/two_lobe.json"),
    ("convergence_disk", "convergence", "configs/disk.json"),
    ("convergence_ellipse", "convergence", "configs/ellipse.json"),
    ("oracles", "oracles", None),
    ("oracles_fsup_N8", "oracles --fsup --N 8", None),
)
# what run writes next to the cases, not compared as outputs
_RUN_FILES = ("exit_codes.json", "wall_s.json", "maxrss_mb.json", "blas_env.json")
# the BLAS thread variables, as perfbench/run.py pins them
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# relative to a file's largest float magnitude, the size of round-off
_ROUND_OFF = 1e-12


def run(out: str, cases=GOLDEN, src: str = os.path.join(ROOT, "src")) -> dict:
    """Run each (case, command, config) into out/case; returns the exit codes."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes, wall, rss = {}, {}, {}
    for case, command, config in cases:
        case_dir = os.path.join(out, case)
        os.makedirs(case_dir, exist_ok=True)
        argv = [sys.executable, "-m", "bubblestab.cli", *command.split(), "--out", case_dir]
        if config is not None:
            argv += ["--config", os.path.join(ROOT, config)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall[case] = time.perf_counter() - start
        # reaped here, so tell Popen the code it can no longer wait for
        codes[case] = proc.returncode = os.waitstatus_to_exitcode(status)
        rss[case] = usage.ru_maxrss / 1024.0     # kB on Linux
    blas = {name: env.get(name) for name in _BLAS_VARS}
    for name, payload in zip(_RUN_FILES, (codes, wall, rss, blas)):
        with open(os.path.join(out, name), "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return codes


def _csv_cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _load(path: str):
    with open(path) as fh:
        if path.endswith(".csv"):
            return [[_csv_cell(cell) for cell in row] for row in csv.reader(fh)]
        return json.load(fh)


class _Moves:
    """Walks two parsed files side by side.

    field(path) names the field of the float at path; scale holds the
    largest magnitude of each field in either file, and largest that of
    every float in either file.
    """

    def __init__(self, field):
        self.field = field
        self.mismatch = []      # paths whose non-float content differs
        self.scale = {}
        self.largest = 0.0
        self.worst_abs = (0.0, "-")
        self.moved = []         # (abs, path, the two values) per moved float

    def walk(self, a, b, path: str) -> None:
        if isinstance(a, float) and isinstance(b, float):
            self._floats(a, b, path)
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.mismatch.append(path + " (keys)")
            for key in sorted(a.keys() & b.keys()):
                self.walk(a[key], b[key], "%s/%s" % (path, key))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatch.append(path + " (length)")
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(x, y, "%s[%d]" % (path, i))
        elif type(a) is not type(b) or a != b:
            self.mismatch.append(path)

    def _floats(self, a: float, b: float, path: str) -> None:
        field = self.field(path)
        for v in (abs(a), abs(b)):
            if v > self.scale.get(field, 0.0):
                self.scale[field] = v
            if v > self.largest and not math.isinf(v):
                self.largest = v
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        move = abs(a - b)
        self.moved.append((move, path, (a, b)))
        if not move <= self.worst_abs[0]:
            self.worst_abs = (move, path)

    def ranked(self, solver_residual: float) -> tuple:
        """(real, round_off): (rel, abs, path) per moved float, the largest
        relative move first, and (abs, path) per round-off or solver-noise
        move, the largest first.  A move to or from NaN or inf counts as
        infinitely large."""
        real, round_off = [], []
        limit = _ROUND_OFF * self.largest
        noise = solver_residual * self.largest
        for move, path, (a, b) in self.moved:
            if abs(a) < limit and abs(b) < limit or move <= noise:
                round_off.append((move, path))
                continue
            scale = self.scale.get(self.field(path), 0.0)
            rel = move / scale if scale > 0.0 else 0.0
            real.append((math.inf if math.isnan(rel) else rel, move, path))
        return sorted(real, key=lambda m: m[0], reverse=True), sorted(round_off, reverse=True)


def _json_field(path: str) -> str:
    return re.sub(r"\[\d+\]", "", path)


def _csv_field(path: str) -> str:
    # a cell's path is [row][column]
    return re.sub(r"^\[\d+\]", "", path)


def _solver_residual(data) -> float:
    return data.get("solver_residual", 0.0) if isinstance(data, dict) else 0.0


def _files(root: str) -> set:
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if rel not in _RUN_FILES:
                out.add(rel)
    return out


def _fmt(values: dict, case: str, spec: str) -> str:
    return spec % values[case] if case in values else "-"


def _blas_env(out: str):
    """The run's blas_env.json, or None for a run made before it was written."""
    path = os.path.join(out, "blas_env.json")
    return _load(path) if os.path.exists(path) else None


def _fmt_env(env) -> str:
    if env is None:
        return "unrecorded"
    return " ".join("%s=%s" % (k, "unset" if v is None else v) for k, v in sorted(env.items()))


def compare(a: str, b: str, file=sys.stdout) -> bool:
    """Print the comparison of runs a and b; True when everything but floats agrees."""
    codes_a, codes_b = _load(os.path.join(a, "exit_codes.json")), _load(os.path.join(b, "exit_codes.json"))
    wall_a, wall_b = _load(os.path.join(a, "wall_s.json")), _load(os.path.join(b, "wall_s.json"))
    rss_a, rss_b = _load(os.path.join(a, "maxrss_mb.json")), _load(os.path.join(b, "maxrss_mb.json"))
    same = codes_a == codes_b
    print("exit codes: %s (wall s) (max RSS MB)" % ("equal" if same else "DIFFER"), file=file)
    for case in sorted(codes_a.keys() | codes_b.keys()):
        times = _fmt(wall_a, case, "%.2f"), _fmt(wall_b, case, "%.2f")
        rss = _fmt(rss_a, case, "%.1f"), _fmt(rss_b, case, "%.1f")
        print("  %-22s %s %s  (%s %s)  (%s %s)" % (case, codes_a.get(case), codes_b.get(case), *times, *rss), file=file)
    env_a, env_b = _blas_env(a), _blas_env(b)
    flag = "" if env_a == env_b or None in (env_a, env_b) else " DIFFER"
    print("blas threads%s: (%s) (%s)" % (flag, _fmt_env(env_a), _fmt_env(env_b)), file=file)
    files_a, files_b = _files(a), _files(b)
    for name in sorted(files_a ^ files_b):
        print("%s: only in %s" % (name, a if name in files_a else b), file=file)
        same = False
    for name in sorted(files_a & files_b):
        moves = _Moves(_csv_field if name.endswith(".csv") else _json_field)
        data_a, data_b = _load(os.path.join(a, name)), _load(os.path.join(b, name))
        moves.walk(data_a, data_b, "")
        same = same and not moves.mismatch
        ranked, round_off = moves.ranked(max(_solver_residual(data_a), _solver_residual(data_b)))
        worst_rel = ranked[0][::2] if ranked else (0.0, "-")
        print(
            "%s: non-float fields %s; worst abs %.3g at %s; worst rel %.3g at %s"
            % (
                name,
                "equal" if not moves.mismatch else "DIFFER at " + ", ".join(moves.mismatch),
                *moves.worst_abs,
                *worst_rel,
            ),
            file=file,
        )
        for rel, move, path in ranked:
            print("    %s: abs %.3g, rel %.3g" % (path, move, rel), file=file)
        for move, path in round_off:
            print("    %s: abs %.3g" % (path, move), file=file)
    return same


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    pr = sub.add_parser("run", help="run the golden set into OUT")
    pr.add_argument("out")
    pr.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the bubblestab package")
    pc = sub.add_parser("compare", help="compare two runs")
    pc.add_argument("a")
    pc.add_argument("b")
    args = p.parse_args(argv)
    if args.mode == "run":
        codes = run(args.out, src=args.src)
        print(json.dumps(codes, sort_keys=True))
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
