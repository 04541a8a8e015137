import tracemalloc

import numpy as np
import pytest

from scipy.spatial.distance import pdist

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
    ri, re = geometry.touching_radii(tr, cap=2.0)
    assert abs(ri - 1.0) < 1e-6
    assert re == 2.0  # exterior radius unbounded on a ball, capped

    a, b = 1.5, 1.0
    ell = geometry.StarDomain.ellipse(a, b)
    te = geometry.boundary_trace(ell, 4096)
    ri_e, re_e = geometry.touching_radii(te, cap=10.0)
    assert abs(ri_e - b**2 / a) < 2e-3
    assert re_e == 10.0  # convex domain: exterior balls unbounded, capped


def test_touching_radii_concave_boundary_bounds_exterior():
    # two-lobe domain has concave arcs, so the exterior radius is finite
    dom = geometry.StarDomain(base_radius=1.0, cos_coeffs=np.array([0.0, 0.35]), sin_coeffs=np.zeros(0), center=np.zeros(2))
    tr = geometry.boundary_trace(dom, 2048)
    assert np.min(tr.curvatures) < 0.0
    _, re_c = geometry.touching_radii(tr, cap=50.0)
    assert re_c < 50.0


def _reference_touching_radii(trace, cap):
    # the 256-row dense scan that touching_radii replaced, kept verbatim
    # (less its argmins) as the reference the block kernel must match bit
    # for bit
    pts, nrm = trace.points, trace.normals
    n = pts.shape[0]
    tiny = 1e-14 * max(cap, 1.0)
    s_int = np.full(n, cap)
    s_ext = np.full(n, cap)
    block = 256
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dx = pts[None, :, 0] - pts[lo:hi, 0, None]      # y - x
        dy = pts[None, :, 1] - pts[lo:hi, 1, None]
        proj = dx * nrm[lo:hi, 0, None] + dy * nrm[lo:hi, 1, None]    # nu . (y - x)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (dx * dx + dy * dy) / (2.0 * proj)
        ri = np.where(proj < -tiny, -s, np.inf)
        re = np.where(proj > tiny, s, np.inf)
        s_int[lo:hi] = np.minimum(cap, np.min(ri, axis=1))
        s_ext[lo:hi] = np.minimum(cap, np.min(re, axis=1))
    ai = int(np.argmin(s_int))
    ae = int(np.argmin(s_ext))
    return float(s_int[ai]), float(s_ext[ae])


def _fourier_domain(seed):
    # off-centre domain with seeded sin and cos modes up to k = 6, scaled so
    # that sum |a_k| + |b_k| < 1 keeps rho positive; some come out concave
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, 6)
    b = rng.uniform(-1.0, 1.0, 6)
    scale = rng.uniform(0.1, 0.6) / float(np.sum(np.abs(a) + np.abs(b)))
    return geometry.StarDomain(1.0, cos_coeffs=scale * a, sin_coeffs=scale * b, center=rng.uniform(-1.0, 1.0, 2))


_RADII_DOMAINS = {
    "disk": geometry.StarDomain.disk(),
    "ellipse-1.5x1": geometry.StarDomain.ellipse(1.5, 1.0),
    "ellipse-4x1": geometry.StarDomain.ellipse(4.0, 1.0),
    **{"cos3-%g" % t: geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, t])) for t in (0.05, 0.2, 0.3)},
    "two-lobe": geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.35])),
    **{"fourier-%d" % seed: _fourier_domain(seed) for seed in range(6)},
}


@pytest.mark.parametrize("n", [512, 1000, 1024, 2048])
@pytest.mark.parametrize("name", sorted(_RADII_DOMAINS))
def test_touching_radii_bitwise_equal_to_reference_scan(name, n):
    # n = 1000 leaves a partial last block; the disk ties every pair
    domain = _RADII_DOMAINS[name]
    tr = geometry.boundary_trace(domain, n)
    # the trace forms its points and normals from its own rho and rho'
    assert np.array_equal(tr.points, domain.point(tr.thetas))
    assert np.array_equal(tr.normals, domain.normal(tr.thetas))
    cap = geometry._diameter(tr.points)
    assert geometry.touching_radii(tr, cap) == _reference_touching_radii(tr, cap)


def _pdist_diameter(points):
    # every pair: the reference the hull's antipodal pairs must reproduce
    return float(np.sqrt(np.max(pdist(points, "sqeuclidean"))))


@pytest.mark.parametrize("n", [8, 512, 1000, 1024, 2048])
@pytest.mark.parametrize("name", sorted(_RADII_DOMAINS))
def test_diameter_equals_pdist_max(name, n):
    # the disk ties every antipodal pair; at n = 8 the ellipses' hulls are
    # coarse enough that a vertex faces several antipodal vertices; two-lobe,
    # cos3-0.3 and some Fourier domains are not convex, so their hull drops
    # samples
    points = geometry.boundary_trace(_RADII_DOMAINS[name], n).points
    assert geometry._diameter(points) == _pdist_diameter(points)


def test_diameter_equals_pdist_max_on_random_traces():
    # off-centre traces with up to 8 sin and cos modes of random size
    rng = np.random.default_rng(20161024)
    convex = 0
    for _ in range(240):
        k = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, k) / np.arange(1, k + 1)
        b = rng.uniform(-1.0, 1.0, k) / np.arange(1, k + 1)
        scale = rng.uniform(0.02, 0.9) / float(np.sum(np.abs(a) + np.abs(b)))
        domain = geometry.StarDomain(1.0, cos_coeffs=scale * a, sin_coeffs=scale * b, center=rng.uniform(-2.0, 2.0, 2))
        trace = geometry.boundary_trace(domain, int(rng.choice([8, 13, 64, 100, 512, 1000, 1024])))
        convex += bool(np.min(trace.curvatures) > 0.0)
        assert geometry._diameter(trace.points) == _pdist_diameter(trace.points)
    assert 60 <= convex <= 180


def test_touching_radii_memory_peak_bounded():
    # the 256-row scan allocated about ten (256, n) temporaries: 17.1 MB at n = 1024
    tr = geometry.boundary_trace(geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.05])), 1024)
    tracemalloc.start()
    try:
        geometry.touching_radii(tr, cap=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


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
