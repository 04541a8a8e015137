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
OUT/exit_codes.json and the wall time of each case, in seconds, to
OUT/wall_s.json.

``compare`` prints the exit codes and wall times of both runs; the timings
are never compared as a file.  Per output file it prints whether every
non-float field (keys, lengths, strings, integers, booleans, nulls) is equal,
or else the path of every one that differs, and the worst absolute and
relative move of its floats, with where it happens, and under that one
indented line per moved float with its absolute and relative move, largest
relative move first.  A move is relative to the largest magnitude its field
takes in either file, a field being a JSON path with its list indices
dropped (all the rows' z, both coordinates) or a CSV column, so a
coordinate that is 0 by symmetry, and holds only round-off, is ranked by
the size of its point unless the point's other coordinate is 0 too.  It
exits 0 when the exit codes and every non-float field agree, and 1
otherwise.
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
_RUN_FILES = ("exit_codes.json", "wall_s.json")


def run(out: str, cases=GOLDEN, src: str = os.path.join(ROOT, "src")) -> dict:
    """Run each (case, command, config) into out/case; returns the exit codes."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes, wall = {}, {}
    for case, command, config in cases:
        case_dir = os.path.join(out, case)
        os.makedirs(case_dir, exist_ok=True)
        argv = [sys.executable, "-m", "bubblestab.cli", *command.split(), "--out", case_dir]
        if config is not None:
            argv += ["--config", os.path.join(ROOT, config)]
        start = time.perf_counter()
        codes[case] = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
        wall[case] = time.perf_counter() - start
    for name, payload in zip(_RUN_FILES, (codes, wall)):
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
    largest magnitude of each field in either file.
    """

    def __init__(self, field):
        self.field = field
        self.mismatch = []      # paths whose non-float content differs
        self.scale = {}
        self.worst_abs = (0.0, "-")
        self.moved = []         # (abs, path) per moved float

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
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        move = abs(a - b)
        self.moved.append((move, path))
        if not move <= self.worst_abs[0]:
            self.worst_abs = (move, path)

    def ranked(self) -> list:
        """(rel, abs, path) per moved float, the largest relative move first;
        a move to or from NaN or inf counts as infinitely large."""
        out = []
        for move, path in self.moved:
            scale = self.scale.get(self.field(path), 0.0)
            rel = move / scale if scale > 0.0 else 0.0
            out.append((math.inf if math.isnan(rel) else rel, move, path))
        return sorted(out, key=lambda m: m[0], reverse=True)


def _json_field(path: str) -> str:
    return re.sub(r"\[\d+\]", "", path)


def _csv_field(path: str) -> str:
    # a cell's path is [row][column]
    return re.sub(r"^\[\d+\]", "", path)


def _files(root: str) -> set:
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if rel not in _RUN_FILES:
                out.add(rel)
    return out


def _secs(wall: dict, case: str) -> str:
    return "%.2f" % wall[case] if case in wall else "-"


def compare(a: str, b: str, file=sys.stdout) -> bool:
    """Print the comparison of runs a and b; True when everything but floats agrees."""
    codes_a, codes_b = _load(os.path.join(a, "exit_codes.json")), _load(os.path.join(b, "exit_codes.json"))
    wall_a, wall_b = _load(os.path.join(a, "wall_s.json")), _load(os.path.join(b, "wall_s.json"))
    same = codes_a == codes_b
    print("exit codes: %s (wall s)" % ("equal" if same else "DIFFER"), file=file)
    for case in sorted(codes_a.keys() | codes_b.keys()):
        times = _secs(wall_a, case), _secs(wall_b, case)
        print("  %-22s %s %s  (%s %s)" % (case, codes_a.get(case), codes_b.get(case), *times), file=file)
    files_a, files_b = _files(a), _files(b)
    for name in sorted(files_a ^ files_b):
        print("%s: only in %s" % (name, a if name in files_a else b), file=file)
        same = False
    for name in sorted(files_a & files_b):
        moves = _Moves(_csv_field if name.endswith(".csv") else _json_field)
        moves.walk(_load(os.path.join(a, name)), _load(os.path.join(b, name)), "")
        same = same and not moves.mismatch
        ranked = moves.ranked()
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
