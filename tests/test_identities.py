import numpy as np
import pytest

from bubblestab import fem, geometry, identities

NAMES = (
    "fundamental",
    "sbt",
    "heintze_karcher",
    "wps",
    "volume",
    "minkowski",
    "deficit_equivalence",
)


def boundary_inputs(field, trace):
    """(u_nu on the trace, cs_deficit report): the inputs identity_suite and
    serrin_checks share."""
    return fem.boundary_normal_derivative(field, trace.thetas), identities.cs_deficit(field)


def suite_of(analysis):
    f, tr = analysis.field, analysis.trace
    return identities.identity_suite(f, tr, analysis.summary, *boundary_inputs(f, tr))


def test_suite_names_and_order(disk_analysis):
    reps = suite_of(disk_analysis)
    assert tuple(r.name for r in reps) == NAMES
    assert all(r.applicable for r in reps)


def test_disk_residuals(disk_analysis):
    by_name = {r.name: r for r in suite_of(disk_analysis)}
    for r in by_name.values():
        assert r.residual_rel <= 5e-4, r
    assert by_name["minkowski"].residual_rel <= 1e-12
    assert by_name["sbt"].residual_rel <= 1e-4
    assert by_name["heintze_karcher"].residual_rel <= 1e-4


def test_ellipse_residuals(ellipse_analysis):
    for r in suite_of(ellipse_analysis):
        assert r.applicable
        assert r.residual_rel <= 1e-3, r


def test_cos3_residuals(cos3_analysis):
    for r in suite_of(cos3_analysis):
        assert r.applicable
        assert r.residual_rel <= 1e-3, r


def test_disk_deficit_vanishes(disk_analysis):
    d = identities.cs_deficit(disk_analysis.field)
    assert 0.0 <= d.cs_deficit <= 1e-3
    assert d.hessian_h_sq <= 1e-3
    assert abs(d.p_min_delta) <= 1e-9


def test_ellipse_deficit_closed_form(ellipse_analysis):
    # hess u is constant diag(2s/a^2, 2s/b^2) with s = a^2 b^2/(a^2+b^2), so
    # the Cauchy-Schwarz density is the constant 2 (a^2-b^2)^2/(a^2+b^2)^2
    a, b = 1.5, 1.0
    density = 2.0 * (a * a - b * b) ** 2 / (a * a + b * b) ** 2
    exact = density * np.pi * a * b
    d = identities.cs_deficit(ellipse_analysis.field)
    assert abs(d.cs_deficit - exact) / exact < 2e-3
    assert abs(d.hessian_h_sq - exact) / exact < 2e-3
    assert 0.0 < d.p_min_delta < density


def test_nonconvex_heintze_karcher_flagged():
    dom = geometry.StarDomain(
        base_radius=1.0,
        cos_coeffs=np.array([0.0, 0.35]),
        sin_coeffs=np.zeros(0),
        center=np.zeros(2),
    )
    tr = geometry.boundary_trace(dom, 512)
    s = geometry.geometry_summary(dom, tr)
    f = fem.solve_torsion(fem.generate_mesh(dom, 16, 64))
    by_name = {r.name: r for r in identities.identity_suite(f, tr, s, *boundary_inputs(f, tr))}
    hk = by_name["heintze_karcher"]
    assert not hk.applicable
    assert np.isnan(hk.lhs) and np.isnan(hk.rhs)
    for name in NAMES:
        if name != "heintze_karcher":
            assert by_name[name].applicable
    assert identities.serrin_checks(tr, s, *boundary_inputs(f, tr)).unu_recip_h_l1 is None


def test_refinement_decreases_residuals(ellipse_analysis):
    dom = ellipse_analysis.domain
    coarse = fem.solve_torsion(fem.generate_mesh(dom, 16, 64))
    fine = {r.name: r.residual_rel for r in suite_of(ellipse_analysis)}
    tr = ellipse_analysis.trace
    for r in identities.identity_suite(coarse, tr, ellipse_analysis.summary, *boundary_inputs(coarse, tr)):
        assert fine[r.name] <= r.residual_rel + 1e-15, r.name


def test_serrin_checks_disk(disk_analysis):
    f, tr = disk_analysis.field, disk_analysis.trace
    sc = identities.serrin_checks(tr, disk_analysis.summary, *boundary_inputs(f, tr))
    assert sc.unu_recip_h_l1 is not None and sc.unu_recip_h_l1 < 2e-3
    assert sc.fundamental2_residual_rel < 1e-3
    assert abs(sc.support_min - 1.0) < 1e-12
    assert sc.unu_minus_r_max < 1e-3
    assert sc.unu_minus_r_l2 <= np.sqrt(sc.unu_minus_r_l1 * sc.unu_minus_r_max) + 1e-12


def test_serrin_checks_ellipse(ellipse_analysis):
    f, tr = ellipse_analysis.field, ellipse_analysis.trace
    sc = identities.serrin_checks(tr, ellipse_analysis.summary, *boundary_inputs(f, tr))
    # genuine asymmetry: the normal derivative really deviates from R
    assert sc.unu_minus_r_max > 0.2
    assert sc.unu_minus_r_l1 > 1.0
    assert sc.support_min > 0.0


def test_report_scale_floor():
    r = identities._report("toy", 1e-12, 3e-12, 10.0)
    assert r.residual_abs == pytest.approx(2e-12)
    assert r.residual_rel == pytest.approx(2e-13)


def test_support_is_projection_on_the_normal():
    # rho^2 / sqrt(rho^2 + rho'^2) from the trace alone is <x - c, nu>, also
    # off-centre; formed once per trace and read-only
    dom = geometry.StarDomain(1.0, [0.0, 0.1, 0.05], [0.05, 0.0, 0.03], center=(0.3, 0.2))
    tr = geometry.boundary_trace(dom, 512)
    want = np.einsum("ic,ic->i", tr.points - dom.center, tr.normals)
    assert np.max(np.abs(tr.support - want)) <= 4 * np.finfo(float).eps * np.max(want)
    assert tr.support is tr.support
    assert not tr.support.flags.writeable
