"""The three benchmark workloads: inputs, one operation, and its checks.

Every check compares against a computation made here, apart from the
program (closed forms, Parseval areas, boundary weights from the Fourier
radius), or against a property the method must have.  None compares against
a stored copy of an earlier output.
"""
from __future__ import annotations

import csv
import json
import os
from typing import NamedTuple

import numpy as np

from bubblestab import cli, fem, geometry, stability

RESIDUAL_MAX = 1e-10  # solve_torsion's default relative tolerance
# Identity residuals at or below this are round-off; refinement cannot lower them.
ROUNDOFF = 1e-12
N_QUAD = 1024  # boundary samples for the independent volume identity


def _radius(base: float, cos: np.ndarray, sin: np.ndarray, theta: np.ndarray):
    """rho and rho' of a Fourier star domain, evaluated here from its coefficients."""
    kc = np.arange(1, cos.size + 1)
    ks = np.arange(1, sin.size + 1)
    ac, as_ = np.multiply.outer(theta, kc), np.multiply.outer(theta, ks)
    rho = base + np.cos(ac) @ cos + np.sin(as_) @ sin
    d1 = -np.sin(ac) @ (kc * cos) + np.cos(as_) @ (ks * sin)
    return rho, d1


def polar_area(base: float, cos: np.ndarray, sin: np.ndarray) -> float:
    """(1/2) int rho^2 dtheta in closed form (Parseval)."""
    return float(np.pi * (base * base + 0.5 * (np.sum(cos * cos) + np.sum(sin * sin))))


def volume_error(field, base: float, cos, sin) -> float:
    """|int u_nu ds - 2|Omega|| / 2|Omega| with weights and area computed here."""
    cos, sin = np.asarray(cos, dtype=float), np.asarray(sin, dtype=float)
    theta = 2.0 * np.pi * np.arange(N_QUAD) / N_QUAD
    rho, d1 = _radius(base, cos, sin, theta)
    weights = np.hypot(rho, d1) * (2.0 * np.pi / N_QUAD)
    flux = float(np.sum(weights * fem.boundary_normal_derivative(field, theta)))
    two_area = 2.0 * polar_area(base, cos, sin)
    return abs(flux - two_area) / two_area


def residual_problems(fields, expected: int) -> list[str]:
    out = []
    if len(fields) != expected:
        out.append("expected %d torsion solves, saw %d" % (expected, len(fields)))
    out += [
        "solve residual %.3g > %.0e" % (f.residual_norm, RESIDUAL_MAX)
        for f in fields
        if not f.residual_norm <= RESIDUAL_MAX
    ]
    return out


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


class Checked(NamedTuple):
    """Outcome of checking one operation."""

    problems: list[str]  # wrong outputs
    failed: int  # units lost to the known mu fault
    ref_err: float  # worst error against the independent reference


class SweepCos3:
    """In-process `bubblestab sweep`: cos3 domains t = 0.01..0.1 on one 32x128 mesh."""

    T = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1]
    MODE_K = 3
    units_per_op = len(T)  # a row of the sweep is one attempted unit
    solves_per_op = len(T)

    def __init__(self, seed: int, workdir: str):
        # The same content as configs/sweep_cos3.json, written here so the
        # workload stays fixed if the repository's config changes.
        cfg = {
            "domain": {"base_radius": 1.0, "cos_coeffs": [], "sin_coeffs": [], "center": [0.0, 0.0]},
            "mesh": {"n_radial": 32, "n_angular": 128, "refinement_levels": 3},
            "sweep": {"parameter": "t", "mode_k": self.MODE_K, "values": self.T},
            "theorems": ["main"],
            "outputs": {"csv_path": "sweep.csv", "json_path": "report.json"},
            "params": {"x0_policy": "min_point"},
        }
        self.config = _write_config(os.path.join(workdir, "sweep_cos3.json"), cfg)
        self.out = os.path.join(workdir, "sweep")
        self.round = ["sweep"]
        self.warmup = "sweep"

    def run(self, op):
        return cli.main(["sweep", "--config", self.config, "--out", self.out])

    def check(self, op, rc, fields) -> Checked:
        problems = residual_problems(fields, self.solves_per_op)
        if rc != 0:
            problems.append("sweep exit code %r" % rc)
        with open(os.path.join(self.out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(self.out, "report.json")) as fh:
            detail = json.load(fh)["rows"]
        if len(rows) != len(self.T) or len(detail) != len(self.T):
            return Checked(problems + ["expected %d rows, got %d" % (len(self.T), len(rows))], 0, float("inf"))
        failed = 0
        err = 0.0
        for t, row, det, field in zip(self.T, rows, detail, fields):
            if float(row["t"]) != t or row["holds"] != "true" or row["error"]:
                problems.append("t=%g: row %r" % (t, row))
                continue
            # Three-fold symmetry puts the unique torsion minimum at the centre,
            # where the touching radii are min and max of rho = 1 + t cos 3theta.
            if abs(float(row["rho_i"]) - (1.0 - t)) > 1e-9 or abs(float(row["rho_e"]) - (1.0 + t)) > 1e-9:
                problems.append("t=%g: rho_i=%s rho_e=%s" % (t, row["rho_i"], row["rho_e"]))
            hk = det["deviation_norms"]["hk_deficit"]  # null when +inf
            if hk is not None and hk < 0.0:
                problems.append("t=%g: Heintze-Karcher deficit %g < 0" % (t, hk))
            # rho - rho'' >= 1 - (1 + k^2) t, so the domain is convex for t <= 1/(1 + k^2);
            # the convex Neumann bound then gives a lower bound on mu.
            convex = (1.0 + self.MODE_K**2) * t <= 1.0
            if convex and any(rep["mu_source"] != "lower_bound" for rep in det["reports"]):
                failed += 1
            err = max(err, volume_error(field, 1.0, [0.0, 0.0, t], []))
        return Checked(problems, failed, err)


class VerifyLadder:
    """In-process `bubblestab verify` over 16x64, 32x128, 64x256: unit disk, then exact 1.5x1 ellipse."""

    A, B = 1.5, 1.0
    units_per_op = 1
    solves_per_op = 3

    def __init__(self, seed: int, workdir: str):
        mesh = {"n_radial": 16, "n_angular": 64, "refinement_levels": 3}
        # StarDomain.ellipse keeps 40 coefficients; configs/ellipse.json stops at
        # k = 8 and its truncation error (2.25e-4 nodal) hides the convergence.
        ell = geometry.StarDomain.ellipse(self.A, self.B)
        domains = {
            "disk": {"base_radius": 1.0, "cos_coeffs": [], "sin_coeffs": [], "center": [0.0, 0.0]},
            "ellipse": {
                "base_radius": ell.base_radius,
                "cos_coeffs": ell.cos_coeffs.tolist(),
                "sin_coeffs": ell.sin_coeffs.tolist(),
                "center": [0.0, 0.0],
            },
        }
        self.configs = {
            name: _write_config(os.path.join(workdir, "verify_%s.json" % name), {"domain": dom, "mesh": mesh})
            for name, dom in domains.items()
        }
        self.outs = {name: os.path.join(workdir, "verify_%s" % name) for name in domains}
        self.round = ["disk", "ellipse"]
        self.warmup = "disk"

    def run(self, op):
        return cli.main(["verify", "--config", self.configs[op], "--out", self.outs[op]])

    def check(self, op, rc, fields) -> Checked:
        problems = residual_problems(fields, self.solves_per_op)
        if rc != 0:
            problems.append("%s: verify exit code %r" % (op, rc))
        levels = []
        for lev in range(3):
            with open(os.path.join(self.outs[op], "verify_level%d.json" % lev)) as fh:
                levels.append(json.load(fh))
        series: dict[str, list[float]] = {}
        for lev in levels:
            for rep in lev["identities"]:
                if rep["applicable"]:
                    series.setdefault(rep["name"], []).append(rep["residual_rel"])
        for name, r in series.items():
            # small at the finest level and not growing; 10% slack on the last step
            ok = (
                len(r) == 3
                and r[2] <= 0.01
                and r[1] <= max(r[0], ROUNDOFF)
                and r[2] <= max(1.1 * r[1], ROUNDOFF)
            )
            if not ok:
                problems.append("%s: identity %s residuals %s" % (op, name, r))
        if len(fields) != self.solves_per_op:
            return Checked(problems, 0, float("inf"))
        finest = fields[-1]
        if op == "disk":
            theta = 2.0 * np.pi * np.arange(N_QUAD) / N_QUAD
            err = float(np.max(np.abs(fem.boundary_normal_derivative(finest, theta) - 1.0)))
            if not err <= 5e-4:
                problems.append("disk: max |u_nu - 1| = %.3g" % err)
            return Checked(problems, 0, err)
        a2, b2 = self.A**2, self.B**2
        exact = 2.0 * (a2 - b2) ** 2 / (a2 + b2) ** 2 * np.pi * self.A * self.B
        err = abs(levels[-1]["deficit"]["cs_deficit"] - exact) / exact
        if not err <= 0.01:
            problems.append("ellipse: cs_deficit relative error %.3g" % err)
        # u = (x^2/a^2 + y^2/b^2 - 1) a^2 b^2 / (a^2 + b^2)
        nodal = []
        for f in fields:
            x, y = f.space.node_xy[:, 0], f.space.node_xy[:, 1]
            u = (x * x / a2 + y * y / b2 - 1.0) * a2 * b2 / (a2 + b2)
            nodal.append(float(np.max(np.abs(f.u - u))))
        if nodal != sorted(nodal, reverse=True) or not nodal[-1] <= 1e-6:
            problems.append("ellipse: nodal errors %s" % nodal)
        return Checked(problems, 0, err)


class AnalyzeSmall:
    """One stability.analyze_domain call per seeded near-disk convex domain."""

    POOL = 8  # domains per seed; a round analyzes each once
    MODES = np.arange(2, 7)
    units_per_op = 1
    solves_per_op = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.domains = []
        for _ in range(self.POOL):
            a = rng.uniform(-1.0, 1.0, self.MODES.size)
            b = rng.uniform(-1.0, 1.0, self.MODES.size)
            # Scale so that sum (1 + k^2)(|a_k| + |b_k|) = s < 1: then
            # rho - rho'' >= 1 - s > 0 and rho > 0, so the domain is strictly convex.
            s = rng.uniform(0.2, 0.6)
            scale = s / float(np.sum((1.0 + self.MODES**2) * (np.abs(a) + np.abs(b))))
            cos = np.concatenate([[0.0], scale * a])
            sin = np.concatenate([[0.0], scale * b])
            self.domains.append((cos, sin, geometry.StarDomain(1.0, cos_coeffs=cos, sin_coeffs=sin)))
        self.params = stability.StabilityParams(sobolev_c=1.0)
        self.round = list(range(self.POOL))
        self.warmup = 0

    def run(self, op):
        return stability.analyze_domain(
            self.domains[op][2],
            n_radial=16,
            n_angular=64,
            n_trace=1024,
            theorems=stability.THEOREMS,
            params=self.params,
            branches=stability.BRANCHES,
        )

    def check(self, op, analysis, fields) -> Checked:
        cos, sin, _ = self.domains[op]
        problems = residual_problems(fields, self.solves_per_op)
        field = analysis.field
        area = polar_area(1.0, cos, sin)
        if not abs(field.area - area) <= 1e-5 * area:
            problems.append("domain %d: FEM area %.17g vs polar %.17g" % (op, field.area, area))
        err = volume_error(field, 1.0, cos, sin)
        if not err <= 2e-3:
            problems.append("domain %d: volume identity error %.3g" % (op, err))
        spec = analysis.spectral
        if spec.mu0_lower is None or not spec.mu0_lower <= spec.mu0_upper:
            problems.append("domain %d: mu0_lower %r > mu0_upper %r" % (op, spec.mu0_lower, spec.mu0_upper))
        if not 0.98 * analysis.summary.r_interior <= field.M <= analysis.grad_bounds.upper:
            problems.append("domain %d: M = %g outside [0.98 r_i, upper]" % (op, field.M))
        reps = analysis.reports
        if len(reps) != len(stability.THEOREMS) * len(stability.BRANCHES):
            problems.append("domain %d: %d reports" % (op, len(reps)))
        problems += [
            "domain %d: %s/%s gap %g holds %s" % (op, r.theorem, r.branch, r.gap, r.holds)
            for r in reps
            if not (r.gap >= 0.0 and r.holds)
        ]
        return Checked(problems, 0, err)


WORKLOADS = {"sweep_cos3": SweepCos3, "verify_ladder": VerifyLadder, "analyze_small": AnalyzeSmall}
