import numpy as np
import pytest

from bubblestab import fem, geometry, spectral


@pytest.fixture(scope="module")
def disk_mesh():
    return fem.generate_mesh(geometry.StarDomain.disk(), 32, 128)


def test_unit_ball_volumes():
    assert spectral.unit_ball_volume(1) == pytest.approx(2.0)
    assert spectral.unit_ball_volume(2) == pytest.approx(np.pi)
    assert spectral.unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)


def test_disk_point_constrained_minimum(disk_mesh):
    # modes Re/Im z^k have quotient 2k(k+1) on the unit disk, minimum 4
    mu0 = spectral.harmonic_rayleigh_min(disk_mesh, "point", 8, x0=np.zeros(2))
    assert abs(mu0 - 4.0) < 1e-4


def test_upper_estimates_monotone_in_degree(disk_mesh):
    vals = [
        spectral.harmonic_rayleigh_min(disk_mesh, "point", d, x0=np.zeros(2))
        for d in (2, 4, 8, 12)
    ]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_mean_zero_below_point_constraint(disk_mesh):
    mubar = spectral.harmonic_rayleigh_min(disk_mesh, "mean_zero", 8)
    mu0 = spectral.harmonic_rayleigh_min(disk_mesh, "point", 8, x0=np.zeros(2))
    assert mubar <= mu0 + 1e-12
    assert mubar > 0.0


def test_rayleigh_validation(disk_mesh):
    with pytest.raises(ValueError):
        spectral.harmonic_rayleigh_min(disk_mesh, "point", 0)
    with pytest.raises(ValueError):
        spectral.harmonic_rayleigh_min(disk_mesh, "both", 4)


def test_mu2_lower_convex():
    assert spectral.mu2_lower_convex(2.0) == pytest.approx(np.pi**2 / 4.0)
    with pytest.raises(ValueError):
        spectral.mu2_lower_convex(0.0)


def test_mu0_lower_bound_reference_value():
    # unit disk with the true Neumann gap of the unit disk
    val = spectral.mu0_lower_bound(1.0, np.pi, 3.3899618)
    assert abs(val - 0.5466) < 1e-3


def test_mu0_lower_bound_scaling():
    # the bound must transform exactly as 1/length^2
    lam = 2.7
    base = spectral.mu0_lower_bound(1.0, np.pi, 3.39)
    scaled = spectral.mu0_lower_bound(lam, np.pi * lam**2, 3.39 / lam**2)
    assert scaled == pytest.approx(base / lam**2, rel=1e-14, abs=0.0)


def test_mu0_lower_bound_validation():
    for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            spectral.mu0_lower_bound(*bad)


def test_upper_estimates_scale_like_inverse_length_sq():
    lam = 2.0
    m1 = fem.generate_mesh(geometry.StarDomain.disk(), 16, 64)
    m2 = fem.generate_mesh(geometry.StarDomain.disk(radius=lam), 16, 64)
    v1 = spectral.harmonic_rayleigh_min(m1, "point", 6, x0=np.zeros(2))
    v2 = spectral.harmonic_rayleigh_min(m2, "point", 6, x0=np.zeros(2))
    # identical meshes up to dilation: the quotient scales exactly
    assert v2 == pytest.approx(v1 / lam**2, rel=1e-9)


def test_spectral_estimate_bracket(disk_mesh):
    est = spectral.spectral_estimate(
        disk_mesh, r_interior=1.0, area=np.pi, degree=8, x0=np.zeros(2), mu2=3.3899618
    )
    assert est.mu0_lower is not None
    assert est.mu0_lower <= est.mu0_upper
    assert abs(est.mu0_upper - 4.0) < 1e-4
    assert est.mu2_lower == pytest.approx(3.3899618)


def test_spectral_estimate_without_mu2(disk_mesh):
    est = spectral.spectral_estimate(disk_mesh, r_interior=1.0, area=np.pi, degree=4)
    assert est.mu0_lower is None
    assert est.mu2_lower is None


def test_ordering_on_noncircular_domains(ellipse_analysis, cos3_analysis):
    for analysis in (ellipse_analysis, cos3_analysis):
        est = analysis.spectral
        assert est.mu0_lower is not None
        assert 0.0 < est.mu0_lower <= est.mu0_upper
        assert est.mubar_upper <= est.mu0_upper + 1e-12
