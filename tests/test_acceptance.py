"""Acceptance checklist: one test per criterion, at the stated tolerance.

Run with -v to get one pass/fail line per criterion.  Shared solves come
from the session fixtures; the criteria with runtime budgets do their own
work inside the clock.
"""
import json
import pathlib
import time

import numpy as np
import pytest

from bubblestab import cli, fem, geometry, identities, oracles, spectral
from test_stability import _assert_min_balls_hold_on_finer_trace

REPO = pathlib.Path(__file__).resolve().parents[1]

SIX_IDENTITIES = (
    "fundamental",
    "sbt",
    "heintze_karcher",
    "volume",
    "minkowski",
    "deficit_equivalence",
)


def test_c01_ball_exactness():
    t0 = time.perf_counter()
    disk = geometry.StarDomain.disk()
    errs = []
    for lev in range(3):
        field = fem.solve_torsion(fem.generate_mesh(disk, 8 * 2**lev, 32 * 2**lev))
        nodes = field.mesh.node_xy
        exact = 0.5 * (np.einsum("ic,ic->i", nodes, nodes) - 1.0)
        errs.append(float(np.max(np.abs(field.u - exact))))
    elapsed = time.perf_counter() - t0
    assert errs[-1] <= 1e-5  # final level is 32x128
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert len(orders) == 2
    assert all(o >= 2.5 for o in orders), orders
    assert elapsed <= 10.0


def test_c02_ellipse_closed_form(ellipse_analysis):
    a, b = 1.5, 1.0
    field = ellipse_analysis.field
    x = field.mesh.node_xy
    s = a * a * b * b / (a * a + b * b)
    exact = (x[:, 0] ** 2 / a**2 + x[:, 1] ** 2 / b**2 - 1.0) * s
    assert np.max(np.abs(field.u - exact)) <= 1e-4
    deficit = identities.cs_deficit(field).cs_deficit
    analytic = 2.0 * (a * a - b * b) ** 2 / (a * a + b * b) ** 2 * np.pi * a * b
    assert abs(deficit - analytic) / analytic <= 0.01


def test_c03_identity_suite():
    domains = [
        geometry.StarDomain.disk(),
        geometry.StarDomain.ellipse(1.5, 1.0),
        geometry.StarDomain(
            base_radius=1.0,
            cos_coeffs=np.array([0.0, 0.0, 0.05]),
            sin_coeffs=np.zeros(0),
            center=np.zeros(2),
        ),
    ]
    levels = [(16, 64), (32, 128), (64, 256)]
    for dom in domains:
        history: dict[str, list[float]] = {name: [] for name in SIX_IDENTITIES}
        for n_r, n_a in levels:
            trace = geometry.boundary_trace(dom, 4 * n_a)
            summary = geometry.geometry_summary(dom, trace)
            field = fem.solve_torsion(fem.generate_mesh(dom, n_r, n_a))
            u_nu = fem.boundary_normal_derivative(field, trace.thetas)
            deficit = identities.cs_deficit(field)
            for rep in identities.identity_suite(field, trace, summary, u_nu, deficit):
                if rep.name in history:
                    assert rep.applicable, rep.name
                    history[rep.name].append(rep.residual_rel)
        for name, vals in history.items():
            assert len(vals) == 3
            assert vals[-1] <= 0.01, (name, vals)
            # monotone decrease, 10% sampling noise allowed at the finest level
            assert vals[1] <= vals[0] + 1e-12, (name, vals)
            assert vals[2] <= vals[1] * 1.1 + 1e-12, (name, vals)


def test_c04_annulus_oracle():
    kappas = np.round(np.arange(0.1, 0.91, 0.1), 10)
    worst_bnd = worst_ode = worst_fd = 0.0
    for dim in range(2, 7):
        for kappa in kappas:
            spec = oracles.AnnulusSpec(dim=dim, r=float(kappa), R=1.0)
            ends, _ = oracles.annulus_torsion(spec, np.array([spec.r, spec.R]))
            worst_bnd = max(worst_bnd, float(np.max(np.abs(ends))))
            grid, w_num = oracles.radial_ode_oracle(dim, spec.r, spec.R, 32768)
            w_exact, _ = oracles.annulus_torsion(spec, grid)
            worst_ode = max(worst_ode, float(np.max(np.abs(w_num - w_exact))))
            lo, hi = spec.r, spec.R
            probes = np.linspace(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo), 7)
            worst_fd = max(worst_fd, float(np.max(np.abs(oracles.fd_laplacian_residual(spec, probes)))))
    assert worst_bnd <= 1e-12
    assert worst_ode <= 1e-8
    assert worst_fd <= 1e-6


def test_c05_f_kappa_supremum():
    kappas = np.round(np.arange(0.05, 0.951, 0.05), 10)
    for dim in range(3, 9):
        gap = np.max(np.abs(oracles.f_kappa(kappas, dim, "printed") - oracles.f_kappa(kappas, dim, "derived")))
        assert gap <= 1e-10, dim
    # dual report for the planar case, discrepancy flagged, no silent fix
    rec2 = oracles.f_sup(2)
    assert rec2.claimed == pytest.approx(1.5)
    assert np.isfinite(rec2.computed)
    assert rec2.discrepancy
    for dim in range(3, 9):
        rec = oracles.f_sup(dim)
        assert rec.computed == pytest.approx(dim / 2.0, abs=1e-6), (dim, rec.computed)


def test_c06_spectral(disk_analysis, ellipse_analysis, cos3_analysis):
    disk = disk_analysis.domain
    mu0 = spectral.harmonic_rayleigh_min(disk, "point", 4, x0=np.zeros(2))
    mubar = spectral.harmonic_rayleigh_min(disk, "mean_zero", 4)
    assert abs(mu0 - 4.0) <= 0.04
    assert abs(mubar - 4.0) <= 0.04
    assert abs(spectral.mu0_lower_bound(1.0, np.pi, 3.390) - 0.5466) <= 1e-3
    for analysis in (disk_analysis, ellipse_analysis, cos3_analysis):
        est = analysis.spectral
        assert est.mu0_lower is not None and est.mu0_lower <= est.mu0_upper
    v1 = spectral.harmonic_rayleigh_min(geometry.StarDomain.disk(), "point", 6, x0=np.zeros(2))
    v2 = spectral.harmonic_rayleigh_min(geometry.StarDomain.disk(radius=2.0), "point", 6, x0=np.zeros(2))
    assert abs(v2 - v1 / 4.0) <= 1e-9 * abs(v1)


def test_c07_gradient_bounds(disk_analysis, ellipse_analysis, cos3_analysis):
    for analysis in (disk_analysis, ellipse_analysis, cos3_analysis):
        s = analysis.summary
        m = analysis.field.M
        upper = oracles.gradient_bounds(s).upper
        assert 0.98 * s.r_interior <= m <= upper, (m, s.r_interior, upper)
    assert abs(disk_analysis.field.M - 1.0) <= 0.01


def test_c08_stability_sweep(tmp_path):
    t0 = time.perf_counter()
    rc = cli.main(["sweep", "--config", str(REPO / "configs" / "sweep_cos3.json"), "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 10
    assert all(r["holds"] == "true" for r in rows)
    detail = json.loads((tmp_path / "report.json").read_text())
    for rec in detail["rows"]:
        hk = rec["deviation_norms"]["hk_deficit"]
        area = rec["summary"]["area"]
        if hk is None:
            # divergent surface integral (H touches zero), serialized as null
            assert rec["deviation_norms"]["min_h"] == 0.0
        else:
            assert hk >= -1e-6 * 2.0 * area
    devs = np.array([float(r["dev_L1"]) for r in rows])
    gaps = np.array([float(r["gap"]) for r in rows])
    slope = float(np.polyfit(np.log(devs), np.log(gaps), 1)[0])
    assert slope >= 0.9, slope
    assert elapsed <= 300.0


def test_c09_aggregate_inclusions(sweep_analyses):
    for t, analysis in sweep_analyses:
        _assert_min_balls_hold_on_finer_trace(analysis.domain, analysis.field, analysis.trace)


def test_c10_determinism(tmp_path):
    sweep_cfg = str(REPO / "configs" / "sweep_cos3.json")
    verify_cfg = str(REPO / "configs" / "disk.json")
    out = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        assert cli.main(["sweep", "--config", sweep_cfg, "--out", str(d)]) == 0
        assert cli.main(["verify", "--config", verify_cfg, "--out", str(d)]) == 0
        out[tag] = d
    names = ["sweep.csv", "report.json"] + ["verify_level%d.json" % k for k in range(3)]
    for name in names:
        b1 = (out["a"] / name).read_bytes()
        b2 = (out["b"] / name).read_bytes()
        assert b1 == b2, name
