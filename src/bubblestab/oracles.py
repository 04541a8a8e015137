"""Closed-form torsion solutions and explicit bound ingredients.

Everything here is independent of the finite element solver and serves as
ground truth for it: ball and annulus torsion functions in any dimension,
a finite-difference radial ODE solver that cross-checks the closed forms,
the boundary-layer profile f(kappa) in its printed and derived variants, and
the a-priori gradient bounds entering the stability constants.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import solve_banded

from .geometry import DIM, GeometrySummary


def ball_torsion(radius: float, x: np.ndarray):
    """Torsion function of the ball B(0, radius) in R^N, N from x's last axis.

    u = (|x|^2 - radius^2)/2, grad u = x, hess u = I.  Returns (value,
    gradient, hessian) with shapes (m,), (m, N), (m, N, N) for x of shape (m, N).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    value = 0.5 * (np.einsum("ij,ij->i", x, x) - radius * radius)
    hess = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    return value, x.copy(), hess


@dataclasses.dataclass(frozen=True)
class AnnulusSpec:
    """Concentric annulus r < |x| < R in R^dim."""

    dim: int
    r: float
    R: float

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be >= 2, got %d" % self.dim)
        if not 0.0 < self.r < self.R:
            raise ValueError("need 0 < r < R, got r=%g R=%g" % (self.r, self.R))

    @property
    def kappa(self) -> float:
        return self.r / self.R


def annulus_torsion(spec: AnnulusSpec, rho: np.ndarray):
    """Closed-form torsion function of the annulus, with radial derivative.

    N = 2:   w = rho^2/2 + (R^2/2)(1 - k^2) log(rho/r)/log(k) - r^2/2
    N >= 3:  w = rho^2/2 + (R^2/2)/(1 - k^(N-2)) [(1 - k^2)(rho/r)^(2-N) + k^N - 1]

    with k = r/R.  Both vanish at rho = r and rho = R and satisfy
    w'' + (N-1) w'/rho = N.  Returns (w, w') evaluated at rho.
    """
    rho = np.asarray(rho, dtype=float)
    n, r, big_r = spec.dim, spec.r, spec.R
    if rho.size and (np.min(rho) < r or np.max(rho) > big_r):
        raise ValueError("rho must lie in [%g, %g]" % (r, big_r))
    k = spec.kappa
    if n == 2:
        c = 0.5 * big_r**2 * (1.0 - k * k) / np.log(k)
        w = 0.5 * rho * rho + c * np.log(rho / r) - 0.5 * r * r
        dw = rho + c / rho
    else:
        c = 0.5 * big_r**2 * (1.0 - k * k) / (1.0 - k ** (n - 2))
        w = 0.5 * rho * rho + c * ((rho / r) ** (2 - n) + (k**n - 1.0) / (1.0 - k * k))
        dw = rho + c * (2 - n) * rho ** (1 - n) * r ** (n - 2)
    return w, dw


def radial_ode_oracle(dim: int, r: float, big_r: float, n_cells: int):
    """Second-order conservative FD solution of (rho^(N-1) w')' = N rho^(N-1).

    Dirichlet w = 0 at both radii for an annulus (r > 0); for the ball (r = 0)
    the center carries the natural symmetry condition w'(0) = 0.  The source
    is integrated exactly over each control volume, so the scheme conserves
    flux: a_{i+1/2}(w_{i+1}-w_i)/h - a_{i-1/2}(w_i-w_{i-1})/h = rho_{i+1/2}^N - rho_{i-1/2}^N.
    Returns (rho_grid, w_grid).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not 0.0 <= r < big_r:
        raise ValueError("need 0 <= r < R")
    if n_cells < 4:
        raise ValueError("n_cells must be >= 4")
    h = (big_r - r) / n_cells
    rho = r + h * np.arange(n_cells + 1)
    mid = rho[:-1] + 0.5 * h                     # rho_{i+1/2}, i = 0..n-1
    a = mid ** (dim - 1)
    rhs_full = np.zeros(n_cells + 1)
    rhs_full[1:-1] = mid[1:] ** dim - mid[:-1] ** dim
    if r == 0.0:
        # unknowns w_0 .. w_{n-1}; half control volume at the center
        diag = np.concatenate([[-a[0] / h], -(a[:-1] + a[1:]) / h])
        rhs = np.concatenate([[mid[0] ** dim], rhs_full[1:-1]])
        ab = np.zeros((3, n_cells))
        ab[0, 1:] = a[:-1] / h
        ab[1, :] = diag
        ab[2, :-1] = a[:-1] / h
        w_in = solve_banded((1, 1), ab, rhs)
        w = np.concatenate([w_in, [0.0]])
    else:
        m = n_cells - 1                          # interior unknowns w_1 .. w_{n-1}
        diag = -(a[:-1] + a[1:]) / h
        ab = np.zeros((3, m))
        ab[0, 1:] = a[1:-1] / h
        ab[1, :] = diag
        ab[2, :-1] = a[1:-1] / h
        w_in = solve_banded((1, 1), ab, rhs_full[1:-1])
        w = np.concatenate([[0.0], w_in, [0.0]])
    return rho, w


def fd_laplacian_residual(spec: AnnulusSpec, rho: np.ndarray, delta: float = 1e-4) -> np.ndarray:
    """|w'' + (N-1) w'/rho - N| with centered differences of the closed form."""
    rho = np.asarray(rho, dtype=float)
    wm, _ = annulus_torsion(spec, rho - delta)
    w0, _ = annulus_torsion(spec, rho)
    wp, _ = annulus_torsion(spec, rho + delta)
    d2 = (wp - 2.0 * w0 + wm) / delta**2
    d1 = (wp - wm) / (2.0 * delta)
    return np.abs(d2 + (spec.dim - 1) * d1 / rho - spec.dim)


def f_kappa(kappa, dim: int, mode: str = "derived"):
    """Boundary-layer profile f(kappa) for the gradient lower-bound argument.

    mode="printed" evaluates the closed expression as printed:
        N = 2:   (2 k^2 log(1/k) + k^2 - 1) / (2 (1-k) log(1/k))
        N >= 3:  (2 k^N - N k^2 + N - 2) / (2 (1-k) (1-k^(N-2)))
    mode="derived" evaluates -w'(r) * r / (R (R - r)) with the annulus torsion
    on r = kappa, R = 1.  For N >= 3 the two coincide identically, and the
    derived branch is evaluated with the double root of the numerator at
    k = 1 divided out, free of cancellation as k -> 1:
        [(N-2)/2 + sum_{m=1}^{N-2} (N-1-m) k^m] / sum_{j=0}^{N-3} k^j.
    For N = 2 the printed branch is the negative of the derived one (the
    derived branch is the positive quantity the comparison argument needs).
    """
    k = np.asarray(kappa, dtype=float)
    if np.any((k <= 0.0) | (k >= 1.0)):
        raise ValueError("kappa must lie in (0, 1)")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if mode == "printed":
        if dim == 2:
            log_inv = np.log(1.0 / k)
            out = (2.0 * k * k * log_inv + k * k - 1.0) / (2.0 * (1.0 - k) * log_inv)
        else:
            out = (2.0 * k**dim - dim * k * k + dim - 2.0) / (2.0 * (1.0 - k) * (1.0 - k ** (dim - 2)))
    elif mode == "derived":
        if dim == 2:
            # -w'(r) r / (R (R - r)) for the annulus r = kappa, R = 1, with w'
            # taken from the closed form (annulus_torsion at rho = r)
            dw = k + 0.5 * (1.0 - k * k) / (np.log(k) * k)
            out = -dw * k / (1.0 - k)
        else:
            # numerator coefficients 1, 2, ..., N-2, (N-2)/2 from k^(N-2) to k^0
            num = np.polyval(np.append(np.arange(1.0, dim - 1), 0.5 * (dim - 2)), k)
            out = num / np.polyval(np.ones(dim - 2), k)
    else:
        raise ValueError("mode must be 'printed' or 'derived', got %r" % mode)
    return float(out) if np.ndim(out) == 0 else out


def c_constant(dim: int) -> float:
    """Reference constant c_N of the gradient bound: 3/2 for N = 2, N/2 for N >= 3."""
    return 1.5 if dim == 2 else 0.5 * dim


def _f_kappa_limits(dim: int, mode: str) -> tuple[float, float]:
    """(limit at kappa -> 0+, limit at kappa -> 1-) by series expansion."""
    if dim == 2:
        at0, at1 = 0.0, 1.0
    else:
        at0, at1 = 0.5 * (dim - 2), 0.5 * dim
    if mode == "printed" and dim == 2:
        at0, at1 = -at0, -at1
    return at0, at1


@dataclasses.dataclass(frozen=True)
class FSupResult:
    """Supremum of f over (0, 1) next to the claimed reference value."""

    dim: int
    mode: str
    computed: float
    argmax_kappa: float
    claimed: float
    discrepancy: bool


def f_sup(dim: int, mode: str = "derived") -> FSupResult:
    """Supremum of f(kappa) over kappa in (0, 1).

    Dense grid scan plus bounded refinement, then compared against the
    endpoint limits.  For 3 <= N <= 7 the sup sits at kappa -> 1, where it
    equals N/2; for N >= 8 the maximum is interior and exceeds N/2 (N = 8:
    4.148019 at kappa ~ 0.675; N = 9: 4.866 at kappa ~ 0.636).
    ``claimed`` is the reference constant c_constant(dim) used downstream;
    ``discrepancy`` flags disagreement.

    scipy.optimize is imported here, not with the module: no run path other
    than the oracles command needs it, and it would add to every start-up.
    """
    from scipy.optimize import minimize_scalar

    grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    vals = f_kappa(grid, dim, mode)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda t: -f_kappa(float(t), dim, mode), bounds=(lo, hi), method="bounded")
    best_interior = float(-res.fun)
    arg = float(res.x)
    at0, at1 = _f_kappa_limits(dim, mode)
    computed = max(best_interior, at0, at1)
    if at1 >= computed:
        computed, arg = at1, 1.0
    elif at0 >= computed:
        computed, arg = at0, 0.0
    claimed = c_constant(dim)
    return FSupResult(
        dim=dim,
        mode=mode,
        computed=computed,
        argmax_kappa=arg,
        claimed=claimed,
        discrepancy=bool(abs(computed - claimed) > 1e-9),
    )


@dataclasses.dataclass(frozen=True)
class GradientBounds:
    """A-priori bounds on |grad u| over the closure of the planar domain.

    lower = r_interior; upper = c_N d (d + r_ext) / r_ext, the bound that
    the constants of main and main_cm use.  hk, mean_convex and obvp read
    the computed gradient maximum M instead.
    """

    lower: float
    upper: float
    c_n: float


def gradient_bounds(summary: GeometrySummary) -> GradientBounds:
    """Explicit gradient bounds from touching radii and diameter."""
    c_n = c_constant(DIM)
    d = summary.diameter
    upper = c_n * d * (d + summary.r_exterior) / summary.r_exterior
    return GradientBounds(lower=summary.r_interior, upper=upper, c_n=c_n)
