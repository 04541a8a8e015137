"""Golden outputs of the bubblestab command line, and their comparison.

    python3 tools/golden.py run OUT [--src DIR]
    python3 tools/golden.py compare A B

``run`` runs the golden set into OUT, one subdirectory per case: ``sweep`` on
configs/sweep_cos3.json, ``verify`` on the disk and the ellipse,
``spectral`` on the ellipse, and ``convergence`` on the disk and the ellipse.
Each case runs as ``python -m bubblestab.cli`` in a subprocess that imports
the package from --src (default: the src directory next to tools/), so the
outputs of two checkouts can be made with one script.  The exit codes go to
OUT/exit_codes.json.

``compare`` prints the exit codes of both runs, and per output file whether
every non-float field (keys, lengths, strings, integers, booleans, nulls) is
equal and the worst absolute and relative move of its floats, with where it
happens.  It exits 0 when the exit codes and every non-float field agree, and
1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (case, command, config)
GOLDEN = (
    ("sweep_cos3", "sweep", "configs/sweep_cos3.json"),
    ("verify_disk", "verify", "configs/disk.json"),
    ("verify_ellipse", "verify", "configs/ellipse.json"),
    ("spectral_ellipse", "spectral", "configs/ellipse.json"),
    ("convergence_disk", "convergence", "configs/disk.json"),
    ("convergence_ellipse", "convergence", "configs/ellipse.json"),
)


def run(out: str, cases=GOLDEN, src: str = os.path.join(ROOT, "src")) -> dict:
    """Run each (case, command, config) into out/case; returns the exit codes."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    codes = {}
    for case, command, config in cases:
        case_dir = os.path.join(out, case)
        os.makedirs(case_dir, exist_ok=True)
        argv = [sys.executable, "-m", "bubblestab.cli", command, "--config", os.path.join(ROOT, config), "--out", case_dir]
        codes[case] = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
    with open(os.path.join(out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, sort_keys=True, indent=1)
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
    """Walks two parsed files side by side."""

    def __init__(self):
        self.mismatch = []      # paths whose non-float content differs
        self.worst_abs = (0.0, "")
        self.worst_rel = (0.0, "")

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
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        move = abs(a - b)
        scale = max(abs(a), abs(b))
        rel = move / scale if scale > 0.0 else 0.0
        if not move <= self.worst_abs[0]:
            self.worst_abs = (move, path)
        if not rel <= self.worst_rel[0]:
            self.worst_rel = (rel, path)


def _files(root: str) -> set:
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if rel != "exit_codes.json":
                out.add(rel)
    return out


def compare(a: str, b: str, file=sys.stdout) -> bool:
    """Print the comparison of runs a and b; True when everything but floats agrees."""
    codes_a, codes_b = _load(os.path.join(a, "exit_codes.json")), _load(os.path.join(b, "exit_codes.json"))
    same = codes_a == codes_b
    print("exit codes: %s" % ("equal" if same else "DIFFER"), file=file)
    for case in sorted(codes_a.keys() | codes_b.keys()):
        print("  %-22s %s %s" % (case, codes_a.get(case), codes_b.get(case)), file=file)
    files_a, files_b = _files(a), _files(b)
    for name in sorted(files_a ^ files_b):
        print("%s: only in %s" % (name, a if name in files_a else b), file=file)
        same = False
    for name in sorted(files_a & files_b):
        moves = _Moves()
        moves.walk(_load(os.path.join(a, name)), _load(os.path.join(b, name)), "")
        same = same and not moves.mismatch
        print(
            "%s: non-float fields %s; worst abs %.3g at %s; worst rel %.3g at %s"
            % (
                name,
                "equal" if not moves.mismatch else "DIFFER at " + ", ".join(moves.mismatch[:5]),
                moves.worst_abs[0],
                moves.worst_abs[1] or "-",
                moves.worst_rel[0],
                moves.worst_rel[1] or "-",
            ),
            file=file,
        )
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
