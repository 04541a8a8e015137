"""Star-shaped planar domains with truncated-Fourier boundary radius.

The boundary is rho(theta) = base + sum_k a_k cos(k theta) + sum_k b_k sin(k theta)
around a center point.  All derived quantities (tangent, outward normal, signed
curvature, arclength weights) come from analytic differentiation of rho, so
boundary traces carry no finite-difference noise.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np


# The package is planar only: every dimension-dependent formula reads this.
DIM = 2
# StarDomain.ellipse drops the Fourier coefficients below this times max(a, b).
_ELLIPSE_TOL = 1e-15


class DomainError(ValueError):
    """Invalid domain data: non-positive radius, point outside, bad sizes."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclasses.dataclass(frozen=True)
class StarDomain:
    """Planar domain star-shaped about ``center`` with Fourier boundary radius.

    rho(theta) must stay strictly positive; this is checked on a dense grid at
    construction (the sufficient condition sum |coeffs| < base_radius
    short-circuits the scan).
    """

    base_radius: float
    cos_coeffs: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    center: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "cos_coeffs", _as_readonly(np.atleast_1d(self.cos_coeffs)))
        object.__setattr__(self, "sin_coeffs", _as_readonly(np.atleast_1d(self.sin_coeffs)))
        object.__setattr__(self, "center", _as_readonly(self.center))
        if self.center.shape != (2,):
            raise DomainError("center must be a point in the plane, got shape %s" % (self.center.shape,))
        if not np.isfinite(self.base_radius) or self.base_radius <= 0.0:
            raise DomainError("base_radius must be positive and finite, got %r" % (self.base_radius,))
        if not (np.all(np.isfinite(self.cos_coeffs)) and np.all(np.isfinite(self.sin_coeffs))):
            raise DomainError("Fourier coefficients must be finite")
        if np.sum(np.abs(self.cos_coeffs)) + np.sum(np.abs(self.sin_coeffs)) < self.base_radius:
            return  # sufficient condition for rho > 0
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        rmin = float(np.min(self.radius(theta)))
        if rmin <= 0.0:
            raise DomainError("boundary radius must stay positive; min rho = %.6g" % rmin)

    # -- classmethod constructors -------------------------------------------

    @classmethod
    def disk(cls, radius: float = 1.0, center=(0.0, 0.0)) -> "StarDomain":
        return cls(base_radius=radius, center=np.asarray(center, dtype=float))

    @classmethod
    def ellipse(cls, a: float, b: float, center=(0.0, 0.0)) -> "StarDomain":
        """Ellipse with semi-axes a, b as a truncated Fourier radius.

        rho(theta) = a b / sqrt(b^2 cos^2 + a^2 sin^2) is analytic, so its
        Fourier coefficients decay geometrically; the series is truncated once
        coefficients fall below _ELLIPSE_TOL * max(a, b).  For moderate aspect
        ratios the truncation error sits at round-off level.
        """
        if a <= 0.0 or b <= 0.0:
            raise DomainError("ellipse semi-axes must be positive")
        n = 512
        theta = 2.0 * np.pi * np.arange(n) / n
        rho = a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
        f = np.fft.rfft(rho)
        base = float(f[0].real) / n
        ak = 2.0 * f[1:].real / n
        bk = -2.0 * f[1:].imag / n
        keep = max(np.nonzero(np.abs(ak) + np.abs(bk) > _ELLIPSE_TOL * max(a, b))[0], default=-1) + 1
        return cls(base_radius=base, cos_coeffs=ak[:keep], sin_coeffs=bk[:keep], center=np.asarray(center, dtype=float))

    # -- radius and derivatives ---------------------------------------------

    def _harmonics(self):
        kc = np.arange(1, self.cos_coeffs.size + 1, dtype=float)
        ks = np.arange(1, self.sin_coeffs.size + 1, dtype=float)
        return kc, ks

    def radius_derivatives(self, theta: np.ndarray, orders) -> list[np.ndarray]:
        """d^m rho / d theta^m at theta for each m in orders.

        With c_k = a_k - i b_k, cos_coeffs and sin_coeffs padded to a common
        K, rho = base + Re sum_k c_k e^{ik theta}, so the m-th derivative is
        base [m = 0] + Re sum_k c_k (ik)^m e^{ik theta}.  The powers
        e^{ik theta}, k = 1..K, are one np.exp per angle and a running product
        over k, formed once for all orders; each order is then one complex
        matrix-vector product.
        """
        theta = np.asarray(theta, dtype=float)
        k_modes = max(self.cos_coeffs.size, self.sin_coeffs.size)
        c = np.zeros(k_modes, dtype=complex)
        c.real[: self.cos_coeffs.size] = self.cos_coeffs
        c.imag[: self.sin_coeffs.size] = -self.sin_coeffs
        powers = np.cumprod(np.broadcast_to(np.exp(1j * theta)[..., None], theta.shape + (k_modes,)), axis=-1)
        k = np.arange(1, k_modes + 1, dtype=float)
        return [
            (self.base_radius if m == 0 else 0.0) + (powers @ (c * 1j ** (m % 4) * k**m)).real for m in orders
        ]

    def radius(self, theta: np.ndarray) -> np.ndarray:
        return self.radius_derivatives(theta, (0,))[0]

    def point(self, theta: np.ndarray) -> np.ndarray:
        """Boundary point(s) at parameter theta, shape (..., 2)."""
        return self._frame(theta, *self.radius_derivatives(theta, (0, 1)))[0]

    def normal(self, theta: np.ndarray) -> np.ndarray:
        """Outward unit normal(s) at parameter theta, shape (..., 2)."""
        return self._frame(theta, *self.radius_derivatives(theta, (0, 1)))[1]

    def _frame(self, theta: np.ndarray, rho: np.ndarray, d1: np.ndarray):
        """(points, outward unit normals, speed) at theta from rho and rho'.

        The point is center + rho e_r.  The counterclockwise tangent is
        (rho' e_r + rho e_t)/speed, so the outward normal is
        (rho e_r - rho' e_t)/speed with speed = sqrt(rho^2 + rho'^2).
        """
        ct, st = np.cos(theta), np.sin(theta)
        speed = np.sqrt(rho * rho + d1 * d1)
        points = self.center + np.stack([rho * ct, rho * st], axis=-1)
        normals = np.stack([(rho * ct + d1 * st) / speed, (rho * st - d1 * ct) / speed], axis=-1)
        return points, normals, speed


@dataclasses.dataclass(frozen=True)
class BoundaryTrace:
    """Uniform-in-theta boundary sampling with analytic geometric data, the
    one sampled Gamma that every boundary integral reads.

    weights are arclength quadrature weights |gamma'(theta_i)| * dtheta
    (the trapezoid rule on a uniform periodic grid, spectrally accurate for
    smooth boundaries).  curvatures is the signed curvature with respect to
    the outward normal, positive on convex arcs, and radii is rho(theta_i).
    """

    thetas: np.ndarray
    radii: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thetas", "radii", "points", "normals", "curvatures", "weights"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    @property
    def n_samples(self) -> int:
        return self.thetas.size

    @functools.cached_property
    def support(self) -> np.ndarray:
        """<x - c, nu> = rho^2 / sqrt(rho^2 + rho'^2), c the center: the
        weights are sqrt(rho^2 + rho'^2) times the theta step.  Read-only."""
        return _as_readonly(self.radii**2 * (2.0 * np.pi / self.thetas.size) / self.weights)

    @property
    def min_curvature(self) -> float:
        """min H over the samples.  Its sign decides what applies:
        Payne-Weinberger needs H >= 0 (curvature_nonnegative), every integral
        of 1/H needs H > 0 (curvature_positive).  Properties, not fields, so
        that dataclasses.replace cannot leave them stale."""
        return float(np.min(self.curvatures))

    @property
    def curvature_nonnegative(self) -> bool:
        """H >= 0 at every sample."""
        return self.min_curvature >= 0.0

    @property
    def curvature_positive(self) -> bool:
        """H > 0 at every sample."""
        return self.min_curvature > 0.0


def boundary_trace(domain: StarDomain, n_samples: int) -> BoundaryTrace:
    """Sample the boundary at n_samples uniform theta values.

    Curvature of the polar graph: (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2).
    Points and outward normals come from StarDomain._frame, as in
    StarDomain.point and StarDomain.normal, so each of rho, rho' and rho'' is
    evaluated once.
    """
    if n_samples < 8:
        raise DomainError("n_samples must be at least 8, got %d" % n_samples)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    rho, d1, d2 = domain.radius_derivatives(theta, (0, 1, 2))
    if np.any(rho <= 0.0):
        raise DomainError("boundary radius must stay positive on the sample grid")
    points, normals, speed = domain._frame(theta, rho, d1)
    curv = (rho * rho + 2.0 * d1 * d1 - rho * d2) / speed**3
    weights = speed * (2.0 * np.pi / n_samples)
    return BoundaryTrace(thetas=theta, radii=rho, points=points, normals=normals, curvatures=curv, weights=weights)


@dataclasses.dataclass(frozen=True)
class GeometrySummary:
    """Scalar geometric data for one domain.

    R_ref = N |Omega| / |Gamma| and H0 = 1 / R_ref; H0 is stored as the
    primary quantity and R_ref as its exact float reciprocal.
    """

    area: float
    perimeter: float
    H0: float
    R_ref: float
    diameter: float
    r_interior: float
    r_exterior: float
    center_of_mass: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "center_of_mass", _as_readonly(self.center_of_mass))


def _winding_inside(points: np.ndarray, z: np.ndarray) -> bool:
    rel = points - z[None, :]
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    return abs(float(np.sum(d))) > np.pi


def rho_bounds(trace: BoundaryTrace, z) -> tuple[float, float]:
    """Min and max distance from z to the boundary samples.

    z must lie inside the boundary loop (checked by winding number).
    """
    z = np.asarray(z, dtype=float)
    if not _winding_inside(trace.points, z):
        raise DomainError("point z = %s lies outside the boundary loop" % (z,))
    dist = np.hypot(trace.points[:, 0] - z[0], trace.points[:, 1] - z[1])
    return float(np.min(dist)), float(np.max(dist))


# Rows of the pair scan per block: each (32, n) float temporary is 256 KB at
# n = 1024, so the working set of one block stays in cache.
_PAIR_BLOCK = 32


def touching_radii(trace: BoundaryTrace) -> tuple[float, float, float]:
    """Largest uniform interior / exterior tangent-ball radii and the
    diameter, (r_int, r_ext, d), by one scan over all sample pairs, O(n^2).

    geometry_summary calls it only for traces that _certified_max_curvature
    does not certify convex.  For a boundary point x with outward normal nu,
    the interior ball B(x - s nu, s) stays inside iff
    s <= |y - x|^2 / (2 nu . (x - y)) for all boundary points y on the inner
    side; the exterior ball mirrors the sign.  The minimum over samples gives
    the radius at x, and the minimum over x is the uniform radius.  d is the
    largest |y - x|, the same float as the maximum of pdist, and both radii
    are capped at d (unconstrained directions give an infinite supremum).
    Pairs with |nu . (y - x)| <= tiny, 1e-14 times the bounding-box diagonal
    (between d and sqrt(2) d) or 1, whichever is larger, constrain neither
    radius: a sample within round-off of x would give s ~ 0.  The exterior
    pass runs only in blocks that have a pair on the outer side, which never
    happens on a convex trace.
    """
    x, y = trace.points.T
    nx, ny = trace.normals.T
    tiny = 1e-14 * max(float(np.hypot(np.ptp(x), np.ptp(y))), 1.0)
    dd_max = 0.0
    s_int, s_ext = -np.inf, np.inf  # r_int = -max s over p < -tiny, r_ext = min s over p > tiny
    for lo in range(0, x.size, _PAIR_BLOCK):
        rows = slice(lo, lo + _PAIR_BLOCK)
        dx = x - x[rows, None]  # y - x
        dy = y - y[rows, None]
        dd = dx * dx + dy * dy
        dd_max = max(dd_max, float(dd.max()))
        p = dx * nx[rows, None] + dy * ny[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
            s = dd / (2.0 * p)
        s_int = max(s_int, float(np.max(s, where=p < -tiny, initial=-np.inf)))
        if p.max() > tiny:
            s_ext = min(s_ext, float(np.min(s, where=p > tiny, initial=np.inf)))
    d = float(np.sqrt(dd_max))
    return min(d, -s_int), min(d, s_ext), d


# Newton steps on kappa' = 0 at most; from within a sample spacing of a
# nondegenerate maximum, four reach round-off.
_NEWTON_STEPS = 8


def _between_samples(f: np.ndarray) -> float:
    """h^2/8 * sum_k k^2 |c_k| over both signs of k, for a trigonometric
    polynomial f sampled at n uniform angles h = 2 pi / n apart whose degree
    is below n/2 (so rfft(f)/n are its coefficients c_k).

    That sum bounds |f''|, so f stays within this of the chord between any two
    neighbouring samples (the linear-interpolation error bound).
    """
    n = f.size
    h = 2.0 * np.pi / n
    k2 = np.arange(n // 2 + 1, dtype=float) ** 2
    return h * h / 8.0 * (2.0 / n) * float(k2 @ np.abs(np.fft.rfft(f)))


def _certified_max_curvature(domain: StarDomain, trace: BoundaryTrace) -> float | None:
    """max kappa over the whole boundary if the trace certifies it strictly
    convex, else None.

    The curvature numerator N = rho^2 + 2 rho'^2 - rho rho'' and the squared
    speed S = rho^2 + rho'^2 are trigonometric polynomials of degree <= 2K for
    K Fourier modes.  They are read from the trace (N = kappa S^(3/2), S from
    the weights), and when n > 4K one rfft gives their exact coefficients, so
    _between_samples bounds how far each dips or rises between samples.  The
    boundary is certified convex when min N over the samples, less that bound
    and a round-off allowance, is > 0; n <= 4K is never certified.

    On the interval between two samples kappa is at most
    (max N + bound_N) / (min S - bound_S)^(3/2).  Every interval where that
    reaches the largest sampled kappa may hold the maximum, and Newton's
    method on the analytic kappa' = 0 (rho to its 4th derivative from
    StarDomain.radius_derivatives) starts from both of its ends.  The result
    is the largest kappa met, never below the sampled maximum.
    """
    n = trace.n_samples
    kc, ks = domain._harmonics()
    k_modes = max(kc.size, ks.size)
    if n <= 4 * k_modes:
        return None
    h = 2.0 * np.pi / n
    speed = trace.weights / h
    sq = speed * speed
    num = trace.curvatures * sq * speed
    # rho, rho' and rho'' are bounded by their coefficient sums, whose total is
    # scale, and each is off by at most about (K + 1) 2 pi eps scale; N and S
    # are off by a few times that times scale
    scale = domain.base_radius + float(
        (1.0 + kc + kc * kc) @ np.abs(domain.cos_coeffs) + (1.0 + ks + ks * ks) @ np.abs(domain.sin_coeffs)
    )
    allowance = 64.0 * (k_modes + 1) * np.finfo(float).eps * scale * scale
    bound_num = _between_samples(num)
    if not float(np.min(num)) - bound_num - allowance > 0.0:
        return None

    top = float(np.max(trace.curvatures))
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = (np.maximum(num, np.roll(num, -1)) + bound_num + allowance) / (
            np.minimum(sq, np.roll(sq, -1)) - _between_samples(sq) - allowance
        ) ** 1.5
    lo = np.nonzero(~(upper < top))[0]  # a non-positive speed bound gives NaN: kept
    theta = trace.thetas[np.union1d(lo, (lo + 1) % n)]
    best = top
    for _ in range(_NEWTON_STEPS):
        r0, r1, r2, r3, r4 = domain.radius_derivatives(theta, range(5))
        s = r0 * r0 + r1 * r1
        f = r0 * r0 + 2.0 * r1 * r1 - r0 * r2  # N
        df = 2.0 * r0 * r1 + 3.0 * r1 * r2 - r0 * r3
        ddf = 2.0 * r1 * r1 + 2.0 * r0 * r2 + 3.0 * r2 * r2 + 2.0 * r1 * r3 - r0 * r4
        best = max(best, float(np.max(f / (s * np.sqrt(s)))))
        # kappa' = g / S^(5/2) with g = N' S - 3 N rho' (rho + rho'')
        half_ds = r1 * (r0 + r2)
        g = df * s - 3.0 * f * half_ds
        dg = ddf * s - df * half_ds - 3.0 * f * (r2 * (r0 + r2) + r1 * (r1 + r3))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dg < 0.0, np.clip(-g / dg, -h, h), 0.0)  # toward a maximum only
        if not np.max(np.abs(step)) > 1e-13:
            break
        theta = theta + step
    return best


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two of points, which must be the vertices
    of a convex polygon in counterclockwise order, as boundary_trace gives
    them on a trace that _certified_max_curvature certifies convex (the
    traces it refuses take d from touching_radii's pair scan).

    The farthest pair is a pair of antipodal vertices (rotating calipers,
    Shamos 1978).  The polygon runs counterclockwise, so its edge directions
    increase; the vertices antipodal to edge i are those whose normal cone
    holds the opposite direction, and the ones antipodal to vertex i run
    from those of edge i - 1 to those of edge i.  Each range is widened by
    one vertex on both sides against round-off in the angles; the squared
    distances are formed as pdist forms them, so the maximum is the same
    float.
    """
    n = points.shape[0]
    edge = np.roll(points, -1, axis=0) - points
    angle = np.unwrap(np.arctan2(edge[:, 1], edge[:, 0]))
    far = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    first = np.concatenate([[far[-1] - n], far[:-1]]) - 1
    count = far + 2 - first
    i = np.repeat(np.arange(n), count)
    j = (np.repeat(first - np.cumsum(count) + count, count) + np.arange(i.size)) % n
    d = points[i] - points[j]
    return float(np.sqrt(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def geometry_summary(domain: StarDomain, trace: BoundaryTrace) -> GeometrySummary:
    """Area, perimeter, reference radius, diameter, touching radii, centroid.

    Area and centroid use the polar forms (1/2) int rho^2 dtheta and
    (1/(3|Omega|)) int rho^3 e(theta) dtheta on trace.radii; both inherit
    spectral accuracy from the uniform periodic sampling.

    Diameter d and touching radii, capped at d: on a trace that
    _certified_max_curvature certifies strictly convex, d comes from
    _diameter's calipers on the samples, r_int = 1 / max kappa, exact by
    Blaschke's rolling theorem (a convex C^2 curve holds a ball of radius r
    at every point iff kappa <= 1/r), and r_ext = d, since every exterior
    ball touching a convex curve stays outside it (the pair scan gives
    exactly d there too).  Any other trace, n <= 4K included, takes all
    three from the O(n^2) pair scan touching_radii, whose sampled r_int lies
    above 1 / max kappa on convex curves.
    """
    theta = trace.thetas
    rho = trace.radii
    dtheta = 2.0 * np.pi / theta.size
    area = 0.5 * float(np.sum(rho * rho)) * dtheta
    perimeter = float(np.sum(trace.weights))
    com = domain.center + (dtheta / (3.0 * area)) * np.stack(
        [np.sum(rho**3 * np.cos(theta)), np.sum(rho**3 * np.sin(theta))]
    )
    kappa_max = _certified_max_curvature(domain, trace)
    if kappa_max is None:
        r_int, r_ext, diameter = touching_radii(trace)
    else:
        diameter = _diameter(trace.points)
        r_int, r_ext = min(diameter, 1.0 / kappa_max), diameter
    h0 = perimeter / (DIM * area)
    return GeometrySummary(
        area=area,
        perimeter=perimeter,
        H0=h0,
        R_ref=1.0 / h0,
        diameter=diameter,
        r_interior=r_int,
        r_exterior=r_ext,
        center_of_mass=com,
    )
