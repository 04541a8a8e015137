import ast
import pathlib

import numpy as np
import pytest

from bubblestab import fem, geometry, spectral

DISK = geometry.StarDomain.disk()
# K = 6 boundary modes, sin modes included
SIN_DOMAIN = geometry.StarDomain(
    base_radius=1.0,
    cos_coeffs=np.array([0.05, 0.0, 0.04, 0.0, 0.0, 0.01]),
    sin_coeffs=np.array([0.03, 0.02, 0.0, 0.01]),
)


def test_unit_ball_volumes():
    assert spectral.unit_ball_volume(1) == pytest.approx(2.0)
    assert spectral.unit_ball_volume(2) == pytest.approx(np.pi)
    assert spectral.unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)
    # exact at N = 2: a_N, alpha_N and mu0_lower_bound read it on every run
    assert spectral.unit_ball_volume(2) == np.pi
    # omega_N = 2 pi omega_(N-2) / N from omega_0 = 1 and omega_1 = 2
    omega = [1.0, 2.0]
    for dim in range(2, 10):
        omega.append(2.0 * np.pi * omega[dim - 2] / dim)
    for dim in range(1, 10):
        assert spectral.unit_ball_volume(dim) == pytest.approx(omega[dim], rel=1e-15, abs=0.0)


def test_disk_point_constrained_minimum():
    # modes Re/Im z^k have quotient 2k(k+1) on the unit disk, minimum 4
    mu0 = spectral.harmonic_rayleigh_min(DISK, "point", 8, x0=np.zeros(2))
    assert abs(mu0 - 4.0) < 1e-12


def test_upper_estimates_monotone_in_degree():
    vals = [
        spectral.harmonic_rayleigh_min(DISK, "point", d, x0=np.zeros(2))
        for d in (2, 4, 8, 12)
    ]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi + 1e-12


def test_mean_zero_below_point_constraint():
    mubar = spectral.harmonic_rayleigh_min(DISK, "mean_zero", 8)
    mu0 = spectral.harmonic_rayleigh_min(DISK, "point", 8, x0=np.zeros(2))
    assert mubar <= mu0 + 1e-12
    assert mubar > 0.0


def test_rayleigh_validation():
    with pytest.raises(ValueError):
        spectral.harmonic_rayleigh_min(DISK, "point", 0)
    with pytest.raises(ValueError):
        spectral.harmonic_rayleigh_min(DISK, "both", 4)


def _copy_last_basis_function(gram):
    # the last basis function copied onto the one before it, in both Gram
    # matrices and at x0: the mass matrix is then singular
    a_mat, b_mat, at_x0, _ = gram
    for mat in (a_mat, b_mat):
        mat[-2, :] = mat[-1, :]
        mat[:, -2] = mat[:, -1]
    at_x0[-2] = at_x0[-1]
    return a_mat, b_mat, at_x0


def test_constrained_min_reduces_degenerate_degree():
    # the basis is nested, so the degree-2 value reads the untouched leading blocks
    want = spectral._constrained_min(*spectral._harmonic_gram(DISK, 3, np.zeros(2))[:3], 2)
    a_mat, b_mat, at_x0 = _copy_last_basis_function(spectral._harmonic_gram(DISK, 3, np.zeros(2)))
    with pytest.warns(UserWarning, match="degenerate basis at degree 3; reducing"):
        got = spectral._constrained_min(a_mat, b_mat, at_x0, 3)
    assert got == want
    assert abs(got - 4.0) < 1e-12
    a_mat, b_mat, at_x0 = _copy_last_basis_function(spectral._harmonic_gram(DISK, 1, np.zeros(2)))
    with pytest.raises(ValueError, match="degenerate even at degree 1"):
        spectral._constrained_min(a_mat, b_mat, at_x0, 1)


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
    v1 = spectral.harmonic_rayleigh_min(DISK, "point", 6, x0=np.zeros(2))
    v2 = spectral.harmonic_rayleigh_min(geometry.StarDomain.disk(radius=lam), "point", 6, x0=np.zeros(2))
    # identical domains up to dilation: the quotient scales exactly
    assert v2 == pytest.approx(v1 / lam**2, rel=1e-9)


def test_spectral_estimate_bracket():
    est = spectral.spectral_estimate(
        DISK, r_interior=1.0, area=np.pi, degree=8, x0=np.zeros(2), mu2=3.3899618
    )
    assert est.mu0_lower is not None
    assert est.mu0_lower <= est.mu0_upper
    assert abs(est.mu0_upper - 4.0) < 1e-12
    assert est.mu2_lower == pytest.approx(3.3899618)


def test_spectral_estimate_without_mu2():
    est = spectral.spectral_estimate(DISK, r_interior=1.0, area=np.pi, degree=4)
    assert est.mu0_lower is None
    assert est.mu2_lower is None


def test_ordering_on_noncircular_domains(ellipse_analysis, cos3_analysis):
    for analysis in (ellipse_analysis, cos3_analysis):
        est = analysis.spectral
        assert est.mu0_lower is not None
        assert 0.0 < est.mu0_lower <= est.mu0_upper
        assert est.mubar_upper <= est.mu0_upper + 1e-12


def test_polar_gram_disk_modes_exact():
    # on the unit disk Re/Im z^k are orthogonal with quotient 2k(k+1)
    degree = 12
    a_mat, b_mat, _, _ = spectral._harmonic_gram(DISK, degree, np.zeros(2))
    k = np.repeat(np.arange(1, degree + 1), 2)
    quotient = np.diag(a_mat)[1:] / np.diag(b_mat)[1:]
    assert np.max(np.abs(quotient / (2.0 * k * (k + 1)) - 1.0)) <= 1e-12
    for mat in (a_mat, b_mat):
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) <= 1e-15 * np.max(np.abs(mat))


@pytest.mark.parametrize("domain", [geometry.StarDomain.ellipse(1.5, 1.0), SIN_DOMAIN], ids=["ellipse", "sin_modes"])
def test_polar_gram_exact_in_angle_count(domain, monkeypatch):
    # past the exactness bound more angles change nothing but round-off
    degree = 12
    assert max(domain.cos_coeffs.size, domain.sin_coeffs.size) in (40, 6)
    n = spectral._angles_needed(domain, degree)
    x0 = np.array([0.02, -0.01])
    once = spectral._harmonic_gram(domain, degree, x0)
    monkeypatch.setattr(spectral, "_angles_needed", lambda d, deg: 2 * n)
    twice = spectral._harmonic_gram(domain, degree, x0)
    for g1, g2 in zip(once[:2], twice[:2]):
        # |g_jl| <= sqrt(g_jj g_ll); the constant's stiffness row is exactly 0
        assert np.all(np.abs(g2 - g1) <= 1e-14 * np.sqrt(np.outer(np.diag(g1), np.diag(g1))))
    assert np.array_equal(once[2], twice[2])
    assert np.max(np.abs(twice[3] - once[3])) <= 1e-14 * np.max(np.abs(once[3]))


def test_off_centre_copy_same_constants():
    shift = np.array([0.7, -1.3])
    moved = geometry.StarDomain(
        base_radius=SIN_DOMAIN.base_radius,
        cos_coeffs=SIN_DOMAIN.cos_coeffs,
        sin_coeffs=SIN_DOMAIN.sin_coeffs,
        center=shift,
    )
    x0 = np.array([0.05, 0.02])
    est = spectral.spectral_estimate(SIN_DOMAIN, r_interior=0.9, area=np.pi, x0=x0)
    est_moved = spectral.spectral_estimate(moved, r_interior=0.9, area=np.pi, x0=x0 + shift)
    assert est_moved.mu0_upper == pytest.approx(est.mu0_upper, rel=1e-12, abs=0.0)
    assert est_moved.mubar_upper == pytest.approx(est.mubar_upper, rel=1e-12, abs=0.0)


def _quadrature_gram(mesh, degree, x0):
    """Reference: the Gram matrices on the mesh's curved-cell quadrature."""
    pts, wts = fem.domain_quadrature(mesh)
    center = np.asarray(mesh.domain.center, dtype=float)
    scale = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])))

    def basis(p):
        z = (p[:, 0] - center[0] + 1j * (p[:, 1] - center[1])) / scale
        vals = np.ones((p.shape[0], 1 + 2 * degree))
        gx = np.zeros_like(vals)
        gy = np.zeros_like(vals)
        zk = np.ones_like(z)
        for k in range(1, degree + 1):
            dzk = (k / scale) * zk
            zk = zk * z
            vals[:, 2 * k - 1], vals[:, 2 * k] = zk.real, zk.imag
            gx[:, 2 * k - 1], gy[:, 2 * k - 1] = dzk.real, -dzk.imag
            gx[:, 2 * k], gy[:, 2 * k] = dzk.imag, dzk.real
        return vals, gx, gy

    vals, gx, gy = basis(pts)
    wv = vals * wts[:, None]
    a_mat = (gx * wts[:, None]).T @ gx + (gy * wts[:, None]).T @ gy
    return a_mat, wv.T @ vals, basis(x0[None, :])[0][0], np.sum(wv, axis=0)


def _mu0_mubar(gram, degree):
    a_mat, b_mat, at_x0, means = gram
    return np.array([spectral._constrained_min(a_mat, b_mat, ell, degree) for ell in (at_x0, means)])


@pytest.mark.parametrize(
    "domain",
    [geometry.StarDomain.ellipse(1.5, 1.0), geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.1])), SIN_DOMAIN],
    ids=["ellipse", "cos3", "sin_modes"],
)
def test_polar_gram_matches_mesh_quadrature(domain):
    # the quadrature over the P2 domain converges to the exact polar values
    degree = 12
    x0 = np.array([0.01, -0.02])
    polar = _mu0_mubar(spectral._harmonic_gram(domain, degree, x0), degree)
    gaps = []
    for n_radial, n_angular in ((16, 64), (32, 128), (64, 256)):
        mesh = fem.generate_mesh(domain, n_radial, n_angular)
        quad = _mu0_mubar(_quadrature_gram(mesh, degree, x0), degree)
        gaps.append(np.max(np.abs(quad - polar) / polar))
    assert gaps[1] <= 5e-7
    assert gaps[1] <= gaps[0] / 10.0 and gaps[2] <= gaps[1] / 10.0


def test_spectral_does_not_import_fem():
    # the spectral constants read the domain only, never the mesh
    tree = ast.parse(pathlib.Path(spectral.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.append(module)
            imported += [module + "." + alias.name for alias in node.names]
    assert not [name for name in imported if "fem" in name.split(".")]
