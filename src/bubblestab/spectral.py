"""Harmonic-Poincare constants: Galerkin upper estimates, explicit lower bound.

mu0 is the smallest Rayleigh quotient int |hess v|^2 / int v^2 over harmonic
fields vanishing at a point; mubar is the analogue under a zero-mean
constraint.  Upper estimates minimize over span{1, Re zeta^k, Im zeta^k}
(harmonic polynomials up to a degree) with the constraint projected out.  The
Gram matrices are integrals of polynomials in z and conj(z) over the star
domain, so they are assembled from exact polar moments of the boundary radius
(one FFT on n > (2 degree + 2) K + 2 degree angles for K boundary modes); no
mesh is read.  The lower bound is the explicit formula from the cut-off
comparison with the Neumann eigenvalue, evaluated in scale-anchored form so it
transforms exactly as 1/length^2.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import scipy.linalg

from .geometry import DIM, StarDomain

BASIS_DEGREE = 12  # of spectral_estimate's harmonic polynomial basis


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim; exactly pi at dim = 2."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _angles_needed(domain: StarDomain, degree: int) -> int:
    """Smallest power of two n > (2 degree + 2) K + 2 degree, K the number of
    boundary modes: the n-point trapezoid rule then integrates every moment
    integrand (a trigonometric polynomial of that degree) exactly."""
    k = max(domain.cos_coeffs.size, domain.sin_coeffs.size)
    bound = (2 * degree + 2) * k + 2 * degree
    return 1 << bound.bit_length()


def _harmonic_gram(domain: StarDomain, degree: int, x0: np.ndarray):
    """Stiffness and mass Gram matrices of {1, Re w^k, Im w^k}, k = 1..degree,
    w = (z - center)/L, and the two constraint rows: the basis values at x0
    and the basis integrals.

    Every entry is a combination of the polar moments
    M[a, b] = int w^a conj(w)^b dA = L^2 int r^(a+b+2)/(a+b+2) e^(i(a-b)theta) dtheta,
    r = rho/L, taken from one FFT of the rows r^(p+2)/(p+2) on the
    `_angles_needed` uniform angles.  L is max rho on a fixed grid of 4096
    angles, so it does not depend on n.  With phi_j = Re(c_j w^k_j),
    c_j = 1 or -i:
        A_jl = Re(c_j conj(c_l) k_j k_l M[k_j-1, k_l-1]) / L^2,
        B_jl = Re(c_j c_l M[k_j+k_l, 0])/2 + Re(c_j conj(c_l) M[k_j, k_l])/2.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = _angles_needed(domain, degree)
    # max rho, so the basis peaks near 1 on the domain and no mode's mass entries shrink
    scale = float(np.max(domain.radius(2.0 * np.pi * np.arange(4096) / 4096)))
    r = domain.radius(2.0 * np.pi * np.arange(n) / n) / scale
    p = np.arange(2 * degree + 1)
    rows = r[None, :] ** (p[:, None] + 2) / (p[:, None] + 2)
    # int f e^(i m theta) dtheta = (2 pi / n) fft(f)[-m mod n]
    spec = np.fft.fft(rows, axis=1) * (2.0 * np.pi * scale * scale / n)

    def moment(a, b):
        return spec[a + b, (b - a) % n]

    k = np.r_[0, np.repeat(np.arange(1, degree + 1), 2)]
    c = np.r_[1.0, np.tile([1.0, -1j], degree)]
    kj, kl = k[:, None], k[None, :]
    cc = c[:, None] * np.conj(c)[None, :]
    a_mat = (cc * (kj * kl) * moment(np.maximum(kj - 1, 0), np.maximum(kl - 1, 0))).real / (scale * scale)
    b_mat = 0.5 * (c[:, None] * c[None, :] * moment(kj + kl, 0)).real + 0.5 * (cc * moment(kj, kl)).real
    means = (c * moment(k, 0)).real
    w0 = complex(*(x0 - domain.center)) / scale
    at_x0 = (c * np.cumprod(np.r_[1.0, np.full(degree, w0)])[k]).real
    return a_mat, b_mat, at_x0, means


def _constrained_min(a_mat: np.ndarray, b_mat: np.ndarray, ell: np.ndarray, degree: int) -> float:
    """Smallest eigenvalue of (a_mat, b_mat) on {c : ell . c = 0}.

    The basis is nested, so a lower degree uses the leading blocks; a
    numerically degenerate mass matrix reduces the degree with a warning.
    """
    m = 1 + 2 * degree
    a_mat, b_mat, ell = a_mat[:m, :m], b_mat[:m, :m], ell[:m]
    # Householder reflection sending ell to a multiple of e_1; drop that column
    v = ell.copy()
    s = float(np.linalg.norm(ell))
    v[0] += s if ell[0] >= 0.0 else -s
    hmat = np.eye(ell.size) - 2.0 * np.outer(v, v) / float(v @ v)
    q = hmat[:, 1:]
    a_p = q.T @ a_mat @ q
    b_p = q.T @ b_mat @ q

    bev = scipy.linalg.eigvalsh(b_p)
    if bev[0] < 1e-13 * bev[-1]:
        if degree == 1:
            raise ValueError("mass matrix degenerate even at degree 1")
        warnings.warn("degenerate basis at degree %d; reducing" % degree)
        return _constrained_min(a_mat, b_mat, ell, degree - 1)
    return float(scipy.linalg.eigvalsh(a_p, b_p)[0])


def harmonic_rayleigh_min(
    domain: StarDomain,
    constraint: str,
    degree: int,
    x0=None,
) -> float:
    """Minimum of int |grad v|^2 / int v^2 over the harmonic polynomial space.

    constraint is "point" (v(x0) = 0; x0 defaults to the domain center) or
    "mean_zero".  On the unit disk the modes Re/Im z^k have quotient
    2k(k+1), so the point-constrained minimum is 4.  Nested trial spaces make
    the value non-increasing in degree; since the minimization runs over a
    subspace of admissible fields, the result is an upper estimate of the
    true constant.  A numerically degenerate mass matrix triggers an
    automatic degree reduction with a warning.  The integrals are exact over
    the domain: polar moments from an FFT on n > (2 degree + 2) K + 2 degree
    angles, K the number of boundary modes.
    """
    if constraint not in ("point", "mean_zero"):
        raise ValueError("constraint must be 'point' or 'mean_zero', got %r" % constraint)
    x0_arr = np.asarray(domain.center if x0 is None else x0, dtype=float)
    a_mat, b_mat, at_x0, means = _harmonic_gram(domain, degree, x0_arr)
    return _constrained_min(a_mat, b_mat, means if constraint == "mean_zero" else at_x0, degree)


def mu2_lower_convex(diameter: float) -> float:
    """Neumann spectral-gap lower bound pi^2/d^2 for convex domains."""
    if diameter <= 0.0:
        raise ValueError("diameter must be positive")
    return float(np.pi**2 / diameter**2)


def mu0_lower_bound(r: float, area: float, mu2: float) -> float:
    """Explicit lower bound on mu0 from an interior ball and a Neumann gap, N = DIM.

    Evaluated on the domain rescaled by 1/r (where the interior ball has unit
    radius) and scaled back, so the bound transforms exactly as 1/length^2:

        C = (1 + r^(-N/2) sqrt(area/omega_N))^2 (1 + (mu2 r^2)^(-2)) - 1,
        mu0 >= 1 / (r^2 sqrt(C)).

    At r = 1 this is the plain printed form of the estimate.
    """
    if r <= 0.0 or area <= 0.0 or mu2 <= 0.0:
        raise ValueError("r, area, mu2 must all be positive")
    omega = unit_ball_volume(DIM)
    big_c = (1.0 + r ** (-DIM / 2.0) * np.sqrt(area / omega)) ** 2 * (1.0 + (mu2 * r * r) ** -2) - 1.0
    return float(1.0 / (r * r * np.sqrt(big_c)))


@dataclasses.dataclass(frozen=True)
class SpectralEstimate:
    """Upper estimates for mu0 and mubar plus the explicit lower bound.

    mu0_lower is None when no Neumann bound is available (analyze_domain
    has one, Payne-Weinberger's, only where the sampled H is >= 0).
    mu2_lower records the Neumann bound used.
    """

    mu0_upper: float
    mubar_upper: float
    mu0_lower: float | None
    basis_degree: int
    x0: np.ndarray
    mu2_lower: float | None


def spectral_estimate(
    domain: StarDomain,
    r_interior: float,
    area: float,
    x0=None,
    mu2: float | None = None,
) -> SpectralEstimate:
    """Both Galerkin estimates and, when mu2 is given, the lower bound.

    The Gram matrices come from exact polar moments of the domain (see
    harmonic_rayleigh_min) at degree BASIS_DEGREE, on n > 26 K + 24 angles.
    """
    x0_arr = np.asarray(domain.center if x0 is None else x0, dtype=float)
    # one pair of Gram matrices serves both constraints
    a_mat, b_mat, at_x0, means = _harmonic_gram(domain, BASIS_DEGREE, x0_arr)
    mu0_upper = _constrained_min(a_mat, b_mat, at_x0, BASIS_DEGREE)
    mubar_upper = _constrained_min(a_mat, b_mat, means, BASIS_DEGREE)
    lower = None if mu2 is None else mu0_lower_bound(r_interior, area, mu2)
    return SpectralEstimate(
        mu0_upper=mu0_upper,
        mubar_upper=mubar_upper,
        mu0_lower=lower,
        basis_degree=BASIS_DEGREE,
        x0=x0_arr,
        mu2_lower=mu2,
    )
