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


def _reference_radius_sums(domain, theta):
    # rho, rho' and rho'' as three separate sums, the form radius_derivatives
    # replaced, kept as the reference it must match bit for bit
    kc = np.arange(1, domain.cos_coeffs.size + 1, dtype=float)
    ks = np.arange(1, domain.sin_coeffs.size + 1, dtype=float)
    rho = np.full(theta.shape, domain.base_radius)
    d1 = np.zeros(theta.shape)
    d2 = np.zeros(theta.shape)
    if kc.size:
        rho = rho + np.cos(np.multiply.outer(theta, kc)) @ domain.cos_coeffs
        d1 = d1 - np.sin(np.multiply.outer(theta, kc)) @ (kc * domain.cos_coeffs)
        d2 = d2 - np.cos(np.multiply.outer(theta, kc)) @ (kc * kc * domain.cos_coeffs)
    if ks.size:
        rho = rho + np.sin(np.multiply.outer(theta, ks)) @ domain.sin_coeffs
        d1 = d1 + np.cos(np.multiply.outer(theta, ks)) @ (ks * domain.sin_coeffs)
        d2 = d2 - np.sin(np.multiply.outer(theta, ks)) @ (ks * ks * domain.sin_coeffs)
    return rho, d1, d2


def test_radius_derivatives_bitwise_equal_to_reference_sums():
    rng = np.random.default_rng(5)
    theta = rng.uniform(-10.0, 10.0, 301)
    domains = [geometry.StarDomain.disk(), geometry.StarDomain.ellipse(1.5, 1.0)]
    domains += [
        geometry.StarDomain(1.0, cos_coeffs=rng.uniform(-0.05, 0.05, kc), sin_coeffs=rng.uniform(-0.05, 0.05, ks))
        for kc, ks in ((3, 0), (0, 4), (5, 2), (2, 7))
    ]
    for domain in domains:
        ref = _reference_radius_sums(domain, theta)
        got = (domain.radius(theta), *(domain.radius_derivatives(theta, (m,))[0] for m in (1, 2)))
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert all(np.array_equal(a, b) for a, b in zip(domain.radius_derivatives(theta, (0, 1, 2)), ref))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_radius_derivatives_of_one_mode(order):
    # a cos k theta + b sin k theta has m-th derivative
    # k^m (a cos(k theta + m pi/2) + b sin(k theta + m pi/2))
    theta = np.linspace(0.0, 2.0 * np.pi, 97)
    a, b, k = 0.03, -0.02, 5
    domain = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0] * (k - 1) + [a]), sin_coeffs=np.array([0.0] * (k - 1) + [b]))
    shift = k * theta + order * np.pi / 2.0
    exact = (order == 0) + k**order * (a * np.cos(shift) + b * np.sin(shift))
    (got,) = domain.radius_derivatives(theta, (order,))
    assert np.max(np.abs(got - exact)) <= 1e-13 * k**order


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


@pytest.mark.parametrize("n_samples", [64, 1024])
def test_summary_area_and_centroid_read_the_trace_radii(n_samples):
    # the trace keeps the rho it formed, and area and centroid from it are
    # the floats a fresh evaluation of rho on the grid gives
    domains = [geometry.StarDomain.ellipse(2.0, 1.0, center=(0.3, -0.2))]
    domains.append(geometry.StarDomain(1.0, [0.0, 0.1, 0.05], [0.05, 0.0, 0.03], center=(0.3, 0.2)))
    for domain in domains:
        tr = geometry.boundary_trace(domain, n_samples)
        theta = tr.thetas
        rho = domain.radius(theta)
        assert np.array_equal(tr.radii, rho)
        dtheta = 2.0 * np.pi / n_samples
        area = 0.5 * float(np.sum(rho * rho)) * dtheta
        com = domain.center + (dtheta / (3.0 * area)) * np.stack(
            [np.sum(rho**3 * np.cos(theta)), np.sum(rho**3 * np.sin(theta))]
        )
        s = geometry.geometry_summary(domain, tr)
        assert s.area == area
        assert np.array_equal(s.center_of_mass, com)


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


def _random_traces():
    # 240 off-centre traces with up to 8 sin and cos modes of random size
    rng = np.random.default_rng(20161024)
    for _ in range(240):
        k = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, k) / np.arange(1, k + 1)
        b = rng.uniform(-1.0, 1.0, k) / np.arange(1, k + 1)
        scale = rng.uniform(0.02, 0.9) / float(np.sum(np.abs(a) + np.abs(b)))
        domain = geometry.StarDomain(1.0, cos_coeffs=scale * a, sin_coeffs=scale * b, center=rng.uniform(-2.0, 2.0, 2))
        yield domain, geometry.boundary_trace(domain, int(rng.choice([8, 13, 64, 100, 512, 1000, 1024])))


def test_diameter_equals_pdist_max_on_random_traces():
    convex = 0
    for _, trace in _random_traces():
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


def _rotated(domain, phi):
    # rho(theta - phi): moves every extremum of kappa off the sample grid
    k = np.arange(1, max(domain.cos_coeffs.size, domain.sin_coeffs.size) + 1)
    a = np.zeros(k.size)
    b = np.zeros(k.size)
    a[: domain.cos_coeffs.size] = domain.cos_coeffs
    b[: domain.sin_coeffs.size] = domain.sin_coeffs
    c, s = np.cos(k * phi), np.sin(k * phi)
    return geometry.StarDomain(domain.base_radius, cos_coeffs=a * c - b * s, sin_coeffs=a * s + b * c, center=domain.center)


def _cos3(t):
    return geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, t]))


_CLOSED_FORM_R_I = {
    "disk": (geometry.StarDomain.disk(), 1.0),
    "disk-2-off-centre": (geometry.StarDomain.disk(2.0, center=(0.7, -0.4)), 2.0),
    "ellipse-1.5x1": (geometry.StarDomain.ellipse(1.5, 1.0), 1.0 / 1.5),
    "ellipse-2x1": (geometry.StarDomain.ellipse(2.0, 1.0), 0.5),
    # rho = 1 + t cos 3 theta: max kappa = (1 + 10 t) / (1 + t)^2 at theta = 0
    **{"cos3-%g" % t: (_cos3(t), (1.0 + t) ** 2 / (1.0 + 10.0 * t)) for t in (0.01, 0.05, 0.09)},
}


@pytest.mark.parametrize("phi", [0.0, 0.1234])
@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_R_I))
def test_certified_interior_radius_closed_forms(name, phi, monkeypatch):
    # r_i = 1 / max kappa (Blaschke); rotated by phi, the maximum falls between
    # samples and only Newton's method reaches it
    domain, r_i = _CLOSED_FORM_R_I[name]
    domain = _rotated(domain, phi)
    trace = geometry.boundary_trace(domain, 1024)
    assert geometry._certified_max_curvature(domain, trace) is not None
    monkeypatch.setattr(geometry, "touching_radii", None)  # no pair scan runs
    s = geometry.geometry_summary(domain, trace)
    assert abs(s.r_interior - r_i) <= 1e-12 * r_i
    assert s.r_exterior == s.diameter


def _candidate_traces():
    # every _RADII_DOMAINS trace and the 240 random ones; not n = 2048: the pair scan's round-off on the disk grows as n^2, to
    # 3e-11 relative there
    for name in sorted(_RADII_DOMAINS):
        for n in (512, 1000, 1024):
            yield _RADII_DOMAINS[name], geometry.boundary_trace(_RADII_DOMAINS[name], n)
    yield from _random_traces()


def test_certified_interior_radius_below_pair_scan():
    # the pair scan samples the true r_i = 1 / max kappa from above; the
    # disk's pair value at n = 1024 is 0.999999999993777 by round-off
    certified = 0
    for domain, trace in _candidate_traces():
        if geometry._certified_max_curvature(domain, trace) is None:
            continue
        certified += 1
        s = geometry.geometry_summary(domain, trace)
        r_i, r_e = geometry.touching_radii(trace, cap=s.diameter)
        assert s.r_interior <= r_i * (1.0 + 1e-11)
        assert s.r_exterior == r_e == s.diameter
    assert certified >= 80


_REFUSED = {
    # min kappa = 0 exactly at theta = pi, a sample: the sampled min is >= 0
    "cos3-0.1": (_cos3(0.1), 1024),
    # rotated by half a sample step: true min kappa -1.2e-6 between
    # samples, sampled min +6.9e-6
    "cos3-0.1(1+1e-6)-rotated": (_rotated(_cos3(0.1 * (1.0 + 1e-6)), np.pi / 1024), 1024),
    "cos3-0.2": (_cos3(0.2), 1024),
    "cos3-0.3": (_cos3(0.3), 1024),
    "two-lobe": (_RADII_DOMAINS["two-lobe"], 1024),
    # convex, but n <= 4K: the rfft of N aliases
    "cos3-0.05-n12": (_cos3(0.05), 12),
    "ellipse-1.5x1-n4K": (_CLOSED_FORM_R_I["ellipse-1.5x1"][0], 4 * _CLOSED_FORM_R_I["ellipse-1.5x1"][0].cos_coeffs.size),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_certificate_refuses(name):
    domain, n = _REFUSED[name]
    trace = geometry.boundary_trace(domain, n)
    if name.startswith("cos3-0.1"):
        assert np.min(trace.curvatures) >= 0.0
    assert geometry._certified_max_curvature(domain, trace) is None


def test_refused_traces_keep_the_pair_scan():
    refused = [_REFUSED[name] for name in sorted(_REFUSED)]
    traces = [(domain, geometry.boundary_trace(domain, n)) for domain, n in refused]
    for domain, trace in traces + list(_candidate_traces()):
        if geometry._certified_max_curvature(domain, trace) is not None:
            continue
        s = geometry.geometry_summary(domain, trace)
        assert (s.r_interior, s.r_exterior) == geometry.touching_radii(trace, cap=s.diameter)


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
