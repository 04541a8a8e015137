import numpy as np
import pytest

from bubblestab import geometry


def test_disk_radius_and_points():
    disk = geometry.StarDomain.disk(radius=2.0, center=(1.0, -1.0))
    th = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(disk.radius(th), 2.0)
    pts = disk.point(np.array([0.0, np.pi / 2]))
    assert np.allclose(pts, [[3.0, -1.0], [1.0, 1.0]])


def test_stardomain_rejects_nonpositive_radius():
    with pytest.raises(geometry.DomainError):
        geometry.StarDomain(base_radius=-1.0, cos_coeffs=np.zeros(0), sin_coeffs=np.zeros(0), center=np.zeros(2))
    # coefficients large enough to drive rho through zero
    with pytest.raises(geometry.DomainError):
        geometry.StarDomain(base_radius=1.0, cos_coeffs=np.array([1.5]), sin_coeffs=np.zeros(0), center=np.zeros(2))


def test_ellipse_radius_matches_closed_form():
    a, b = 1.5, 1.0
    ell = geometry.StarDomain.ellipse(a, b)
    th = np.linspace(0, 2 * np.pi, 257)
    exact = a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2)
    assert np.max(np.abs(ell.radius(th) - exact)) < 1e-12


def test_disk_trace_curvature_normals_weights():
    disk = geometry.StarDomain.disk()
    tr = geometry.boundary_trace(disk, 256)
    assert tr.n_samples == 256
    assert np.allclose(tr.curvatures, 1.0)
    # outward normal of a centered disk is the unit position vector
    assert np.max(np.abs(tr.normals - tr.points)) < 1e-13
    assert abs(np.sum(tr.weights) - 2 * np.pi) < 1e-12


def test_ellipse_curvature_at_axes():
    a, b = 1.5, 1.0
    ell = geometry.StarDomain.ellipse(a, b)
    tr = geometry.boundary_trace(ell, 4096)
    k0 = tr.curvatures[0]            # theta = 0 -> (a, 0)
    k90 = tr.curvatures[1024]        # theta = pi/2 -> (0, b)
    assert abs(k0 - a / b**2) < 1e-6
    assert abs(k90 - b / a**2) < 1e-6


def test_trace_requires_enough_samples():
    disk = geometry.StarDomain.disk()
    with pytest.raises(ValueError):
        geometry.boundary_trace(disk, 4)


def test_summary_disk_exact_quantities():
    disk = geometry.StarDomain.disk()
    tr = geometry.boundary_trace(disk, 2048)
    s = geometry.geometry_summary(disk, tr)
    assert abs(s.area - np.pi) < 1e-10
    assert abs(s.perimeter - 2 * np.pi) < 1e-10
    assert abs(s.H0 - 1.0) < 1e-10
    assert s.R_ref == 1.0 / s.H0
    assert abs(s.diameter - 2.0) < 1e-8
    assert np.max(np.abs(s.center_of_mass)) < 1e-12


def test_summary_scaling_homogeneity():
    lam = 2.5
    small = geometry.StarDomain(base_radius=1.0, cos_coeffs=np.array([0, 0, 0.05]), sin_coeffs=np.zeros(0), center=np.zeros(2))
    big = geometry.StarDomain(base_radius=lam, cos_coeffs=np.array([0, 0, 0.05 * lam]), sin_coeffs=np.zeros(0), center=np.zeros(2))
    ss = geometry.geometry_summary(small, geometry.boundary_trace(small, 1024))
    sb = geometry.geometry_summary(big, geometry.boundary_trace(big, 1024))
    assert abs(sb.area - lam**2 * ss.area) < 1e-9
    assert abs(sb.perimeter - lam * ss.perimeter) < 1e-9
    assert abs(sb.H0 - ss.H0 / lam) < 1e-12


def test_touching_radii_disk_and_ellipse():
    disk = geometry.StarDomain.disk()
    tr = geometry.boundary_trace(disk, 1024)
    ri, re, _, _ = geometry.touching_radii(tr, cap=2.0)
    assert abs(ri - 1.0) < 1e-6
    assert re == 2.0  # exterior radius unbounded on a ball, capped

    a, b = 1.5, 1.0
    ell = geometry.StarDomain.ellipse(a, b)
    te = geometry.boundary_trace(ell, 4096)
    ri_e, re_e, _, _ = geometry.touching_radii(te, cap=10.0)
    assert abs(ri_e - b**2 / a) < 2e-3
    assert re_e == 10.0  # convex domain: exterior balls unbounded, capped


def test_touching_radii_concave_boundary_bounds_exterior():
    # two-lobe domain has concave arcs, so the exterior radius is finite
    dom = geometry.StarDomain(base_radius=1.0, cos_coeffs=np.array([0.0, 0.35]), sin_coeffs=np.zeros(0), center=np.zeros(2))
    tr = geometry.boundary_trace(dom, 2048)
    assert np.min(tr.curvatures) < 0.0
    _, re_c, _, _ = geometry.touching_radii(tr, cap=50.0)
    assert re_c < 50.0


def test_rho_bounds_and_outside_rejection():
    disk = geometry.StarDomain.disk()
    tr = geometry.boundary_trace(disk, 512)
    lo, hi = geometry.rho_bounds(tr, np.array([0.3, 0.0]))
    assert abs(lo - 0.7) < 1e-4 and abs(hi - 1.3) < 1e-4
    with pytest.raises(geometry.DomainError):
        geometry.rho_bounds(tr, np.array([2.0, 0.0]))


def test_rho_bounds_monotone_in_sample_set():
    # enlarging the boundary sample set can only shrink rho_i and grow rho_e
    ell = geometry.StarDomain.ellipse(1.5, 1.0)
    z = np.array([0.2, 0.1])
    coarse = geometry.boundary_trace(ell, 256)
    fine = geometry.boundary_trace(ell, 512)  # contains the coarse angles
    lo_c, hi_c = geometry.rho_bounds(coarse, z)
    lo_f, hi_f = geometry.rho_bounds(fine, z)
    assert lo_f <= lo_c + 1e-15
    assert hi_f >= hi_c - 1e-15
