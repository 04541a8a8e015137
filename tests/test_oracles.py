import numpy as np
import pytest

from bubblestab import oracles


def test_ball_torsion_values():
    v, g, h = oracles.ball_torsion(1.0, np.zeros(2))
    assert v[0] == -0.5 and np.all(g == 0.0) and np.allclose(h[0], np.eye(2))
    v, g, _ = oracles.ball_torsion(1.0, np.array([1.0, 0.0]))
    assert v[0] == 0.0 and abs(np.hypot(g[0, 0], g[0, 1]) - 1.0) < 1e-15
    v, _, _ = oracles.ball_torsion(2.0, np.array([1.0, 1.0]))
    assert v[0] == -1.0


def test_annulus_spec_validation():
    with pytest.raises(ValueError):
        oracles.AnnulusSpec(dim=1, r=0.5, R=1.0)
    with pytest.raises(ValueError):
        oracles.AnnulusSpec(dim=3, r=1.0, R=0.5)
    spec = oracles.AnnulusSpec(dim=3, r=0.5, R=1.0)
    assert spec.kappa == 0.5


def test_annulus_closed_form_n3():
    spec = oracles.AnnulusSpec(dim=3, r=0.5, R=1.0)
    rho = np.array([0.5, 0.7, 1.0])
    w, dw = oracles.annulus_torsion(spec, rho)
    expect = rho**2 / 2 + 0.375 / rho - 0.875
    assert np.max(np.abs(w - expect)) < 1e-15
    assert abs(w[0]) < 1e-15 and abs(w[2]) < 1e-15
    assert abs(dw[0] - (-1.0)) < 1e-14


def test_annulus_rejects_out_of_range_rho():
    spec = oracles.AnnulusSpec(dim=3, r=0.5, R=1.0)
    with pytest.raises(ValueError):
        oracles.annulus_torsion(spec, np.array([0.4]))
    with pytest.raises(ValueError):
        oracles.annulus_torsion(spec, np.array([1.1]))


def test_annulus_matches_ode_oracle_n2():
    spec = oracles.AnnulusSpec(dim=2, r=0.5, R=1.0)
    rho, w_ode = oracles.radial_ode_oracle(2, 0.5, 1.0, 16384)
    w_cf, _ = oracles.annulus_torsion(spec, rho)
    assert np.max(np.abs(w_ode - w_cf)) < 1e-8
    i = np.argmin(np.abs(rho - 0.75))
    assert abs(w_ode[i] - w_cf[i]) < 1e-8


def test_ball_ode_oracle():
    # r=0 branch of the radial solver against the ball closed form
    rho, w = oracles.radial_ode_oracle(2, 0.0, 1.0, 8192)
    exact = (rho**2 - 1.0) / 2.0
    assert np.max(np.abs(w - exact)) < 1e-8


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_fd_laplacian_residual_small(dim):
    spec = oracles.AnnulusSpec(dim=dim, r=0.3, R=1.0)
    rin = np.linspace(0.475, 0.825, 5)
    assert np.max(np.abs(oracles.fd_laplacian_residual(spec, rin))) < 1e-6


def test_f_kappa_reference_points():
    assert abs(oracles.f_kappa(np.array([0.5]), 3, "printed")[0] - 1.0) < 1e-14
    assert abs(oracles.f_kappa(np.array([0.5]), 3, "derived")[0] - 1.0) < 1e-12
    assert abs(oracles.f_kappa(np.array([0.5]), 4, "printed")[0] - 1.5) < 1e-14
    d2 = oracles.f_kappa(np.array([0.5]), 2, "derived")[0]
    p2 = oracles.f_kappa(np.array([0.5]), 2, "printed")[0]
    assert abs(d2 - 0.582021) < 1e-5
    assert abs(p2 + 0.582021) < 1e-5  # printed branch carries the opposite sign


def test_f_kappa_rejects_bad_kappa():
    with pytest.raises(ValueError):
        oracles.f_kappa(np.array([0.0]), 3, "printed")
    with pytest.raises(ValueError):
        oracles.f_kappa(np.array([1.0]), 3, "printed")


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_f_kappa_modes_agree(dim):
    kap = np.linspace(0.02, 0.98, 97)
    d = oracles.f_kappa(kap, dim, "derived")
    p = oracles.f_kappa(kap, dim, "printed")
    assert np.max(np.abs(d - p)) < 1e-10


def test_f_sup_low_dimensions_match_claim():
    for dim in (3, 4, 5, 6):
        rec = oracles.f_sup(dim)
        assert abs(rec.computed - dim / 2.0) < 1e-6
        assert not rec.discrepancy


def test_f_sup_n7_no_false_alarm():
    # the sup sits at the kappa -> 1 limit N/2; cancellation near kappa = 1
    # must not push the scan above it
    rec = oracles.f_sup(7)
    assert rec.computed == pytest.approx(3.5, abs=1e-12)
    assert rec.discrepancy is False


def test_f_sup_n2_reports_discrepancy():
    rec = oracles.f_sup(2)
    assert rec.claimed == 1.5
    assert abs(rec.computed - 1.0) < 1e-6
    assert rec.discrepancy


def test_f_sup_n8_exceeds_half_n():
    # the closed form genuinely overshoots N/2 for N=8: f(0.9) = 4.0649...,
    # with an interior maximum near kappa = 0.675; the flag must report it
    rec = oracles.f_sup(8)
    assert rec.computed > 4.1
    assert abs(rec.computed - 4.148018626) < 1e-6
    assert rec.discrepancy
    assert abs(oracles.f_kappa(np.array([0.9]), 8, "printed")[0] - 4.06496) < 1e-4


def test_gradient_bounds_disk_numbers():
    from bubblestab import geometry

    disk = geometry.StarDomain.disk()
    tr = geometry.boundary_trace(disk, 1024)
    s = geometry.geometry_summary(disk, tr)
    gb = oracles.gradient_bounds(s)
    assert abs(gb.lower - 1.0) < 1e-6
    assert abs(gb.upper - 6.0) < 1e-4  # 1.5 * d*(d+r_e)/r_e with r_e capped at d=2
    assert gb.c_n == 1.5
    assert gb.upper >= gb.lower


def test_gradient_bounds_scaling():
    from bubblestab import geometry

    lam = 2.0
    d1 = geometry.StarDomain.disk()
    d2 = geometry.StarDomain.disk(radius=lam)
    s1 = geometry.geometry_summary(d1, geometry.boundary_trace(d1, 512))
    s2 = geometry.geometry_summary(d2, geometry.boundary_trace(d2, 512))
    g1 = oracles.gradient_bounds(s1)
    g2 = oracles.gradient_bounds(s2)
    assert abs(g2.lower - lam * g1.lower) < 1e-9
    assert abs(g2.upper - lam * g1.upper) < 1e-6
