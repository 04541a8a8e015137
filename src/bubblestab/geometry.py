"""Star-shaped planar domains with truncated-Fourier boundary radius.

The boundary is rho(theta) = base + sum_k a_k cos(k theta) + sum_k b_k sin(k theta)
around a center point.  All derived quantities (tangent, outward normal, signed
curvature, arclength weights) come from analytic differentiation of rho, so
boundary traces carry no finite-difference noise.
"""
from __future__ import annotations

import dataclasses

import numpy as np


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

    def radius_derivatives(self, theta: np.ndarray, orders) -> list[np.ndarray]:
        """d^m rho / d theta^m at theta for each m in orders.

        The m-th derivative of a_k cos(k theta) is a_k k^m times cos (m even)
        or sin (m odd), with the signs +, -, -, + as m mod 4 = 0, 1, 2, 3; that
        of b_k sin(k theta) takes the other function, with the signs +, +, -, -.
        Each table cos or sin(k theta) is evaluated once for all orders.
        """
        theta = np.asarray(theta, dtype=float)
        kc, ks = self._harmonics()
        tables = {}

        def table(fn, k):
            key = (fn, k is kc)
            if key not in tables:
                tables[key] = fn(np.multiply.outer(theta, k))
            return tables[key]

        out = []
        for m in orders:
            odd = m % 2 == 1
            d = np.full(theta.shape, self.base_radius if m == 0 else 0.0)
            if kc.size:
                term = table(np.sin if odd else np.cos, kc) @ (kc**m * self.cos_coeffs)
                d = d - term if m % 4 in (1, 2) else d + term
            if ks.size:
                term = table(np.cos if odd else np.sin, ks) @ (ks**m * self.sin_coeffs)
                d = d - term if m % 4 in (2, 3) else d + term
            out.append(d)
        return out

    def radius(self, theta: np.ndarray) -> np.ndarray:
        return self.radius_derivatives(theta, (0,))[0]

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
        rho, d1 = self.radius_derivatives(theta, (0, 1))
        ct, st = np.cos(theta), np.sin(theta)
        speed = np.sqrt(rho * rho + d1 * d1)
        return np.stack([(rho * ct + d1 * st) / speed, (rho * st - d1 * ct) / speed], axis=-1)


@dataclasses.dataclass(frozen=True)
class BoundaryTrace:
    """Uniform-in-theta boundary sampling with analytic geometric data.

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
    rho, d1, d2 = domain.radius_derivatives(theta, (0, 1, 2))
    if np.any(rho <= 0.0):
        raise DomainError("boundary radius must stay positive on the sample grid")
    ct, st = np.cos(theta), np.sin(theta)
    speed = np.sqrt(rho * rho + d1 * d1)
    curv = (rho * rho + 2.0 * d1 * d1 - rho * d2) / speed**3
    weights = speed * (2.0 * np.pi / n_samples)
    points = domain.center + np.stack([rho * ct, rho * st], axis=-1)
    normals = np.stack([(rho * ct + d1 * st) / speed, (rho * st - d1 * ct) / speed], axis=-1)
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


# Rows of the pair kernel per block: each (32, n) float temporary is 256 KB at
# n = 1024, so the working set of one block stays in cache.
_PAIR_BLOCK = 32


def touching_radii(trace: BoundaryTrace, cap: float) -> tuple[float, float]:
    """Largest uniform interior / exterior tangent-ball radii (r_int, r_ext)
    by a scan over all sample pairs, O(n^2).

    geometry_summary calls it only for traces that _certified_max_curvature
    does not certify convex.  For a boundary point x with outward normal nu,
    the interior ball B(x - s nu, s) stays inside iff
    s <= |y - x|^2 / (2 nu . (x - y)) for all boundary points y on the inner
    side; the exterior ball mirrors the sign.  The minimum over samples gives
    the radius at x, and the minimum over x is the uniform radius.  Both are capped at ``cap`` (unconstrained directions
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


def _hull(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices, counterclockwise, of points ordered
    counterclockwise by angle about an interior point (Graham's scan, Graham
    1972).

    A polygon that turns left at every vertex is its own hull.  Otherwise a
    vertex where it does not is no hull vertex, and the rest keep the angle
    order: one stack pass over them, started at the one farthest from their
    centroid (a hull vertex), pops each top that does not turn left.
    """
    edge = np.roll(points, -1, axis=0) - points
    back = np.roll(edge, 1, axis=0)
    left = back[:, 0] * edge[:, 1] - back[:, 1] * edge[:, 0] > 0.0
    if left.all():
        return points
    cand = points[left]
    start = int(np.argmax(np.sum((cand - cand.mean(axis=0)) ** 2, axis=1)))
    cand = np.roll(cand, -start, axis=0)
    xs, ys = cand[:, 0].tolist(), cand[:, 1].tolist()
    stack = [0]
    for k in [*range(1, len(xs)), 0]:
        while len(stack) > 1:
            a, b = stack[-2], stack[-1]
            if (xs[b] - xs[a]) * (ys[k] - ys[b]) - (ys[b] - ys[a]) * (xs[k] - xs[b]) > 0.0:
                break
            stack.pop()
        stack.append(k)
    return cand[stack[:-1]]


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two of points, which must be ordered
    counterclockwise by angle about an interior point, as boundary_trace
    gives them (see _hull).

    The farthest pair is a pair of antipodal vertices of the convex hull
    (rotating calipers, Shamos 1978).  The hull runs counterclockwise, so its
    edge directions increase; the vertices antipodal to edge i are those
    whose normal cone holds the opposite direction, and the ones antipodal
    to vertex i run from those of edge i - 1 to those of edge i.  Each range
    is widened by one vertex on both sides against round-off in the angles;
    the squared distances are formed as pdist forms them, so the maximum is
    the same float.
    """
    hull = _hull(points)
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
    (1/(3|Omega|)) int rho^3 e(theta) dtheta on trace.radii; both inherit
    spectral accuracy from the uniform periodic sampling.

    Touching radii, capped at the diameter d: on a trace that
    _certified_max_curvature certifies strictly convex, r_int = 1 / max kappa,
    exact by Blaschke's rolling theorem (a convex C^2 curve holds a ball of
    radius r at every point iff kappa <= 1/r), and r_ext = d, since every
    exterior ball touching a convex curve stays outside it (the pair scan
    gives exactly d there too).  Any other trace, n <= 4K included, goes
    through the O(n^2) pair scan touching_radii, whose sampled r_int lies
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
    diameter = _diameter(trace.points)
    kappa_max = _certified_max_curvature(domain, trace)
    if kappa_max is None:
        r_int, r_ext = touching_radii(trace, cap=diameter)
    else:
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
