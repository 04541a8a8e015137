"""Star-shaped planar domains with truncated-Fourier boundary radius.

The boundary is rho(theta) = base + sum_k a_k cos(k theta) + sum_k b_k sin(k theta)
around a center point.  All derived quantities (tangent, outward normal, signed
curvature, arclength weights) come from analytic differentiation of rho, so
boundary traces carry no finite-difference noise.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from scipy.spatial import ConvexHull


# The package is planar only: every dimension-dependent formula reads this.
DIM = 2


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
    def ellipse(cls, a: float, b: float, center=(0.0, 0.0), tol: float = 1e-15) -> "StarDomain":
        """Ellipse with semi-axes a, b as a truncated Fourier radius.

        rho(theta) = a b / sqrt(b^2 cos^2 + a^2 sin^2) is analytic, so its
        Fourier coefficients decay geometrically; the series is truncated once
        coefficients fall below tol * max(a, b).  For moderate aspect ratios
        the truncation error sits at round-off level.
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
        keep = max(np.nonzero(np.abs(ak) + np.abs(bk) > tol * max(a, b))[0], default=-1) + 1
        return cls(base_radius=base, cos_coeffs=ak[:keep], sin_coeffs=bk[:keep], center=np.asarray(center, dtype=float))

    # -- radius and derivatives ---------------------------------------------

    def _harmonics(self):
        kc = np.arange(1, self.cos_coeffs.size + 1, dtype=float)
        ks = np.arange(1, self.sin_coeffs.size + 1, dtype=float)
        return kc, ks

    def radius(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        kc, ks = self._harmonics()
        out = np.full(theta.shape, self.base_radius)
        if kc.size:
            out = out + np.cos(np.multiply.outer(theta, kc)) @ self.cos_coeffs
        if ks.size:
            out = out + np.sin(np.multiply.outer(theta, ks)) @ self.sin_coeffs
        return out

    def radius_d1(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        kc, ks = self._harmonics()
        out = np.zeros(theta.shape)
        if kc.size:
            out = out - np.sin(np.multiply.outer(theta, kc)) @ (kc * self.cos_coeffs)
        if ks.size:
            out = out + np.cos(np.multiply.outer(theta, ks)) @ (ks * self.sin_coeffs)
        return out

    def radius_d2(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        kc, ks = self._harmonics()
        out = np.zeros(theta.shape)
        if kc.size:
            out = out - np.cos(np.multiply.outer(theta, kc)) @ (kc * kc * self.cos_coeffs)
        if ks.size:
            out = out - np.sin(np.multiply.outer(theta, ks)) @ (ks * ks * self.sin_coeffs)
        return out

    def point(self, theta: np.ndarray) -> np.ndarray:
        """Boundary point(s) at parameter theta, shape (..., 2)."""
        theta = np.asarray(theta, dtype=float)
        rho = self.radius(theta)
        return self.center + np.stack([rho * np.cos(theta), rho * np.sin(theta)], axis=-1)

    def normal(self, theta: np.ndarray) -> np.ndarray:
        """Outward unit normal(s) at parameter theta, shape (..., 2).

        The tangent is (rho' e_r + rho e_t)/speed, so the outward normal is
        (rho e_r - rho' e_t)/speed with speed = sqrt(rho^2 + rho'^2).
        """
        theta = np.asarray(theta, dtype=float)
        rho = self.radius(theta)
        d1 = self.radius_d1(theta)
        ct, st = np.cos(theta), np.sin(theta)
        speed = np.sqrt(rho * rho + d1 * d1)
        return np.stack([(rho * ct + d1 * st) / speed, (rho * st - d1 * ct) / speed], axis=-1)


@dataclasses.dataclass(frozen=True)
class BoundaryTrace:
    """Uniform-in-theta boundary sampling with analytic geometric data.

    weights are arclength quadrature weights |gamma'(theta_i)| * dtheta
    (the trapezoid rule on a uniform periodic grid, spectrally accurate for
    smooth boundaries).  curvatures is the signed curvature with respect to
    the outward normal, positive on convex arcs.
    """

    thetas: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thetas", "points", "normals", "curvatures", "weights"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    @property
    def n_samples(self) -> int:
        return self.thetas.size


def boundary_trace(domain: StarDomain, n_samples: int) -> BoundaryTrace:
    """Sample the boundary at n_samples uniform theta values.

    Curvature of the polar graph: (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2).
    Points and outward normals are the expressions of StarDomain.point and
    StarDomain.normal (the boundary runs counterclockwise), formed from the
    rho and rho' computed here, so each of rho, rho' and rho'' is evaluated
    once.
    """
    if n_samples < 8:
        raise DomainError("n_samples must be at least 8, got %d" % n_samples)
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    rho = domain.radius(theta)
    if np.any(rho <= 0.0):
        raise DomainError("boundary radius must stay positive on the sample grid")
    d1 = domain.radius_d1(theta)
    d2 = domain.radius_d2(theta)
    ct, st = np.cos(theta), np.sin(theta)
    speed = np.sqrt(rho * rho + d1 * d1)
    curv = (rho * rho + 2.0 * d1 * d1 - rho * d2) / speed**3
    weights = speed * (2.0 * np.pi / n_samples)
    points = domain.center + np.stack([rho * ct, rho * st], axis=-1)
    normals = np.stack([(rho * ct + d1 * st) / speed, (rho * st - d1 * ct) / speed], axis=-1)
    return BoundaryTrace(thetas=theta, points=points, normals=normals, curvatures=curv, weights=weights)


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


# Rows of the pair kernel per block: each (32, n) float temporary is 256 KB at
# n = 1024, so the working set of one block stays in cache.
_PAIR_BLOCK = 32


def touching_radii(trace: BoundaryTrace, cap: float) -> tuple[float, float]:
    """Largest uniform interior / exterior tangent-ball radii (r_int, r_ext).

    For a boundary point x with outward normal nu, the interior ball
    B(x - s nu, s) stays inside iff s <= |y - x|^2 / (2 nu . (x - y)) for all
    boundary points y on the inner side; the exterior ball mirrors the sign.
    The minimum over samples gives the radius at x, and the minimum over x is
    the uniform radius.  Both are capped at ``cap`` (unconstrained directions
    give an infinite supremum).

    All pairs are scanned in blocks of _PAIR_BLOCK rows with preallocated
    temporaries: q = |y - x|^2 and P = (2 nu_x) . (y - x), so q / P is the
    signed ratio above.  Doubling is exact, so P < -2 tiny selects exactly the
    pairs with nu . (y - x) < -tiny and q / P equals q / (2 nu . (y - x)) bit
    for bit: the result is the same float as a direct pair-by-pair minimum
    (the reference scan in tests/test_geometry.py).  The exterior pass runs
    only in blocks that have a pair with P > 2 tiny, which never happens on a
    convex trace.
    """
    x = np.ascontiguousarray(trace.points[:, 0])
    y = np.ascontiguousarray(trace.points[:, 1])
    nx2 = 2.0 * trace.normals[:, 0]
    ny2 = 2.0 * trace.normals[:, 1]
    n = x.size
    tiny2 = 2.0 * (1e-14 * max(cap, 1.0))
    b = min(_PAIR_BLOCK, n)
    dx, dy, p, q = (np.empty((b, n)) for _ in range(4))
    mask = np.empty((b, n), dtype=bool)
    s_int_max = -np.inf  # interior radius = -max of q/P over pairs with P < -2 tiny
    s_ext = np.inf
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        m = hi - lo
        bx, by, bp, bq, bm = dx[:m], dy[:m], p[:m], q[:m], mask[:m]
        np.subtract(x, x[lo:hi, None], out=bx)  # y - x
        np.subtract(y, y[lo:hi, None], out=by)
        np.multiply(bx, bx, out=bq)
        np.multiply(by, by, out=bp)
        bq += bp
        bx *= nx2[lo:hi, None]
        by *= ny2[lo:hi, None]
        np.add(bx, by, out=bp)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
            np.divide(bq, bp, out=bq)
        if bp.max() > tiny2:
            np.greater(bp, tiny2, out=bm)
            s_ext = min(s_ext, float(np.min(bq, where=bm, initial=np.inf)))
        np.greater_equal(bp, -tiny2, out=bm)
        np.copyto(bq, -np.inf, where=bm)
        s_int_max = max(s_int_max, float(bq.max()))
    return float(min(cap, -s_int_max)), float(min(cap, s_ext))


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two of points, which must surround a point
    (the trace of a star domain does).

    The farthest pair is a pair of antipodal vertices of the convex hull
    (rotating calipers, Shamos 1978).  The hull runs counterclockwise, so its
    edge directions increase; the vertices antipodal to edge i are those
    whose normal cone holds the opposite direction, and the ones antipodal
    to vertex i run from those of edge i - 1 to those of edge i.  Each range
    is widened by one vertex on both sides against round-off in the angles;
    the squared distances are formed as pdist forms them, so the maximum is
    the same float.
    """
    hull = points[ConvexHull(points).vertices]
    n = hull.shape[0]
    edge = np.roll(hull, -1, axis=0) - hull
    angle = np.unwrap(np.arctan2(edge[:, 1], edge[:, 0]))
    far = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]), angle + np.pi)
    first = np.concatenate([[far[-1] - n], far[:-1]]) - 1
    count = far + 2 - first
    i = np.repeat(np.arange(n), count)
    j = (np.repeat(first - np.cumsum(count) + count, count) + np.arange(i.size)) % n
    d = hull[i] - hull[j]
    return float(np.sqrt(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


def geometry_summary(domain: StarDomain, trace: BoundaryTrace) -> GeometrySummary:
    """Area, perimeter, reference radius, diameter, touching radii, centroid.

    Area and centroid use the polar forms (1/2) int rho^2 dtheta and
    (1/(3|Omega|)) int rho^3 e(theta) dtheta on the trace grid; both inherit
    spectral accuracy from the uniform periodic sampling.
    """
    theta = trace.thetas
    rho = domain.radius(theta)
    dtheta = 2.0 * np.pi / theta.size
    area = 0.5 * float(np.sum(rho * rho)) * dtheta
    perimeter = float(np.sum(trace.weights))
    com = domain.center + (dtheta / (3.0 * area)) * np.stack(
        [np.sum(rho**3 * np.cos(theta)), np.sum(rho**3 * np.sin(theta))]
    )
    diameter = _diameter(trace.points)
    r_int, r_ext = touching_radii(trace, cap=diameter)
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
