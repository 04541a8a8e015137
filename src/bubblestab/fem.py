"""Quadratic finite elements on structured polar meshes.

The torsion problem laplace(u) = 2, u = 0 on the boundary is solved with P2
Lagrange triangles.  Cells touching the boundary are isoparametric: the
midside node of a boundary edge sits on the true curve, so the geometric
consistency error drops to the level needed for the tight disk and ellipse
benchmarks.  Interior cells keep affine maps (midside nodes at segment
midpoints).  The element kernels work on one (nt,) array per reference point:
J^-1 is formed once per quadrature point and solve, the element stiffness is
one GEMM against a constant table, and only the interior block of the matrix
is assembled.  It is solved by conjugate gradients, not by a sparse direct
factorisation: splu's fill is 87 MB at 64x256, which breaks the benchmark's
peak_rss_mb bound.  The preconditioner is the P1 stiffness of the red-refined
P2 lattice laid on the unit disk (low-order preconditioning of high-order
elements, Orszag 1980, Deville-Mund 1985).  It is spectrally equivalent to the
P2 stiffness on the same mesh topology, with constants set by the domain's
shape and not by the mesh size, so CG takes 10-25 iterations on the disk, the
ellipse and cos3 domains at every mesh size, where diagonal scaling needed a
count that doubled with each refinement.  An FFT in theta diagonalises it, so
one apply costs a few matrix-vector products.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dnrm2
from scipy.sparse.csgraph import connected_components

from .geometry import DIM, StarDomain


class MeshError(ValueError):
    """Degenerate or inconsistent mesh data."""


class SolverError(RuntimeError):
    """Iterative solver failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# -- P2 reference element ----------------------------------------------------
# node order: vertices 0,1,2 then midsides of edges (0,1), (1,2), (2,0)

_REF_NODES = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
)
_EDGE_LOCALS = np.array([[0, 1], [1, 2], [2, 0]])

# second derivatives (xi xi, xi eta, eta eta) of the shape functions (constant)
_D2N = np.array([[4.0, 4.0, 4.0], [4.0, 0.0, 0.0], [0.0, 0.0, 4.0], [-8.0, -4.0, 0.0], [0.0, 4.0, 0.0], [0.0, -4.0, -8.0]])


def _shape(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    xi, eta = pts[..., 0], pts[..., 1]
    lam = 1.0 - xi - eta
    return np.stack(
        [
            lam * (2.0 * lam - 1.0),
            xi * (2.0 * xi - 1.0),
            eta * (2.0 * eta - 1.0),
            4.0 * lam * xi,
            4.0 * xi * eta,
            4.0 * eta * lam,
        ],
        axis=-1,
    )


def _dshape(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    xi, eta = pts[..., 0], pts[..., 1]
    lam = 1.0 - xi - eta
    zero = np.zeros_like(xi)
    dx = np.stack(
        [1.0 - 4.0 * lam, 4.0 * xi - 1.0, zero, 4.0 * (lam - xi), 4.0 * eta, -4.0 * eta],
        axis=-1,
    )
    dy = np.stack(
        [1.0 - 4.0 * lam, zero, 4.0 * eta - 1.0, -4.0 * xi, 4.0 * xi, 4.0 * (lam - eta)],
        axis=-1,
    )
    return np.stack([dx, dy], axis=-1)


# 7-point degree-5 rule; weights sum to 1, reference area factor 1/2 applied
# at assembly time
_QW = np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3)
_QA1, _QB1 = 0.059715871789770, 0.470142064105115
_QA2, _QB2 = 0.797426985353087, 0.101286507323456
_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0],
        [_QB1, _QB1],
        [_QA1, _QB1],
        [_QB1, _QA1],
        [_QB2, _QB2],
        [_QA2, _QB2],
        [_QB2, _QA2],
    ]
)
_N_AT_QP = _shape(_QP)          # (7, 6)
_DN_AT_QP = _dshape(_QP)        # (7, 6, 2)
_DN_AT_NODES = _dshape(_REF_NODES)  # (6, 6, 2)


# ke = S @ _KE for an element, where S[3q:3q+3] = w_q (G00, G01, G11) and
# G = J^-1 J^-T is the metric at quadrature point q; ke is row-major (k, l)
_DD = _DN_AT_QP[:, :, None, :, None] * _DN_AT_QP[:, None, :, None, :]   # (q, k, l, d, e)
_KE = np.stack([_DD[..., 0, 0], _DD[..., 0, 1] + _DD[..., 1, 0], _DD[..., 1, 1]], axis=1).reshape(21, 36)
del _DD


def _inverse_jacobian(coords: np.ndarray, dn: np.ndarray):
    """det J and the entries a, b, c, d of J^-1 = [[a, b], [c, d]], each (m,).

    J is the element map's Jacobian at one reference point per element.
    coords has shape (m, 6, 2); dn has shape (6, 2) for a point shared by all
    elements or (m, 6, 2) for one point per element.
    """
    j00 = j01 = j10 = j11 = 0.0
    for k in range(6):
        x, y = coords[:, k, 0], coords[:, k, 1]
        dxi, deta = dn[..., k, 0], dn[..., k, 1]
        j00, j01 = j00 + x * dxi, j01 + x * deta
        j10, j11 = j10 + y * dxi, j11 + y * deta
    det = j00 * j11 - j01 * j10
    if np.any(det <= 0.0):
        raise MeshError("non-positive Jacobian in element map")
    return det, j11 / det, -j01 / det, -j10 / det, j00 / det


# -- mesh --------------------------------------------------------------------

# ratio of the center radial spacing to the boundary one
_GRADING = 1.2


@dataclasses.dataclass(frozen=True, eq=False)
class TriMesh:
    """Structured polar triangulation of a star-shaped domain.

    vertices[0] is the center; vertex 1 + (j-1)*n_angular + i sits at radial
    fraction radial_fractions[j-1] of rho(theta_i).  triangles follow the
    order stated by generate_mesh, from which the P2 lookups read each
    triangle's ring and sector.  boundary_edges pair with boundary_thetas
    giving the theta parameters of each edge's endpoints.  h is the longest
    edge.  ``space`` is the P2 node table with its quadrature, built on first
    use and shared by every solve and integral on this mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_thetas: np.ndarray
    h: float
    n_radial: int
    n_angular: int
    radial_fractions: np.ndarray
    domain: StarDomain

    @functools.cached_property
    def space(self) -> "_P2Space":
        return _P2Space(self)


def generate_mesh(domain: StarDomain, n_radial: int, n_angular: int) -> TriMesh:
    """Fan-plus-rings triangulation, radially graded toward the boundary.

    Per-step radial spacing shrinks geometrically so that the first (center)
    spacing is _GRADING times the last (boundary) one.  Counts:
    1 + n_radial*n_angular vertices and n_angular*(2*n_radial - 1) positively
    oriented triangles: the center fan, then for each ring j and sector i the
    pair (a, d, c), (a, c, b) with a, b on ring j and d, c on ring j + 1.
    That order is the contract the P2 lookups read: fan triangle i is
    triangle i, and the (a, d, c) triangle of ring j >= 1 and sector i is
    n_angular*(2j - 1) + 2i, with its (a, c, b) partner next.
    """
    if n_radial < 4:
        raise MeshError("n_radial must be >= 4, got %d" % n_radial)
    if n_angular < 16 or n_angular % 4 != 0:
        raise MeshError("n_angular must be a multiple of 4 and >= 16, got %d" % n_angular)

    q = _GRADING ** (1.0 / (n_radial - 1))
    spacing = q ** (-np.arange(n_radial, dtype=float))
    s = np.cumsum(spacing) / np.sum(spacing)
    s[-1] = 1.0

    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rho = domain.radius(theta)
    ct, st = np.cos(theta), np.sin(theta)

    nv = 1 + n_radial * n_angular
    verts = np.empty((nv, 2))
    verts[0] = domain.center
    verts[1:, 0] = (domain.center[0] + s[:, None] * rho * ct).ravel()
    verts[1:, 1] = (domain.center[1] + s[:, None] * rho * st).ravel()

    # vid[j - 1, i] is the id of vertex i (mod n_angular) on ring j
    vid = 1 + n_angular * np.arange(n_radial)[:, None] + np.arange(n_angular + 1) % n_angular
    a, b = vid[:-1, :-1], vid[:-1, 1:]
    c, d = vid[1:, 1:], vid[1:, :-1]
    fan = np.stack([np.zeros(n_angular, dtype=np.int64), vid[0, :-1], vid[0, 1:]], axis=-1)
    rings = np.stack([np.stack([a, d, c], axis=-1), np.stack([a, c, b], axis=-1)], axis=2)
    triangles = np.concatenate([fan, rings.reshape(-1, 3)])

    p = verts[triangles]
    signed = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )
    if np.any(signed <= 0.0):
        raise MeshError("mesh has a degenerate or inverted triangle")

    bedges = np.stack([vid[-1, :-1], vid[-1, 1:]], axis=-1)
    edge_theta = np.arange(n_angular + 1) * (2.0 * np.pi / n_angular)
    bthetas = np.stack([edge_theta[:-1], edge_theta[1:]], axis=-1)

    edge_vec = np.concatenate(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]
    )
    h = float(np.max(np.hypot(edge_vec[:, 0], edge_vec[:, 1])))
    return TriMesh(
        vertices=verts,
        triangles=triangles,
        boundary_edges=bedges,
        boundary_thetas=bthetas,
        h=h,
        n_radial=n_radial,
        n_angular=n_angular,
        radial_fractions=s,
        domain=domain,
    )


# -- P2 space ----------------------------------------------------------------


class _P2Space:
    """Node table for P2 elements; boundary midside nodes sit on the curve.

    qp_xy (nt, 7, 2) and qp_w (nt, 7) are the curved-cell quadrature points
    and weights; they are read-only because every solve on the mesh shares
    them.
    """

    def __init__(self, mesh: TriMesh):
        # no back reference to mesh: mesh.space -> space -> mesh would be a
        # cycle, keeping every dead mesh's arrays alive until a gc pass
        tris = mesh.triangles
        nv = mesh.vertices.shape[0]
        nt = tris.shape[0]

        # edges numbered in order of first appearance, triangle by triangle
        ends = tris[:, _EDGE_LOCALS]                         # (nt, 3, 2)
        lo, hi = ends.min(axis=-1).ravel(), ends.max(axis=-1).ravel()
        keys = lo * nv + hi
        ukeys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        tri_nodes = np.empty((nt, 6), dtype=np.int64)
        tri_nodes[:, :3] = tris
        tri_nodes[:, 3:] = nv + rank[inverse].reshape(nt, 3)

        n_nodes = nv + ukeys.size
        node_xy = np.empty((n_nodes, 2))
        node_xy[:nv] = mesh.vertices
        e_first = first[order]
        node_xy[nv:] = 0.5 * (mesh.vertices[lo[e_first]] + mesh.vertices[hi[e_first]])

        # curve the boundary midsides: the boundary edge of sector i is local
        # edge (1, 2), running forward, of its outer-ring (a, d, c) triangle
        self.b_tri = nt - 2 * mesh.n_angular + 2 * np.arange(mesh.n_angular)
        mid = tri_nodes[self.b_tri, 4]
        th = mesh.boundary_thetas
        node_xy[mid] = mesh.domain.point(0.5 * (th[:, 0] + th[:, 1]))
        dirichlet = np.zeros(n_nodes, dtype=bool)
        dirichlet[mesh.boundary_edges.ravel()] = True
        dirichlet[mid] = True

        self.tri_nodes = tri_nodes
        self.node_xy = node_xy
        self.n_nodes = n_nodes
        self.dirichlet = dirichlet
        self.coords = node_xy[tri_nodes]          # (nt, 6, 2)

        self.qp_xy = _N_AT_QP @ self.coords
        self.qp_w = np.empty((nt, 7))
        for qi, dn in enumerate(_DN_AT_QP):
            self.qp_w[:, qi] = 0.5 * _QW[qi] * _inverse_jacobian(self.coords, dn)[0]
        self.qp_xy.setflags(write=False)
        self.qp_w.setflags(write=False)


# -- polar FFT preconditioner ------------------------------------------------

# red refinement of a P2 triangle into four P1 triangles (local node ids)
_RED = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


# J and K, less (2j, 2i), of local nodes 0..5 in a fan triangle, an (a, d, c)
# and an (a, c, b) triangle of ring j and sector i (the fan is ring 0)
_LATTICE_J = np.array([[0, 2, 2, 1, 2, 1], [0, 2, 2, 1, 2, 1], [0, 2, 0, 1, 1, 0]])
_LATTICE_K = np.array([[0, 0, 2, 0, 1, 2], [0, 0, 2, 0, 1, 1], [0, 2, 2, 1, 2, 1]])


def _polar_lattice(mesh: TriMesh) -> np.ndarray:
    """(J, K) point of every P2 node of mesh.space on the polar half-step lattice.

    Vertex 1 + (j-1)*n_angular + i sits at (2j, 2i) and the centre at (0, 0);
    a midside node sits halfway between its endpoints, except that a fan spoke
    takes the angle of its outer vertex.  Each triangle's ring j and sector i
    come from the triangle order of generate_mesh.
    """
    n_a, n_r = mesh.n_angular, mesh.n_radial
    kind = np.concatenate([np.zeros(n_a, dtype=np.int64), np.tile([1, 2], n_a * (n_r - 1))])
    ring = np.concatenate([np.zeros(n_a, dtype=np.int64), np.repeat(np.arange(1, n_r), 2 * n_a)])
    sector = np.concatenate([np.arange(n_a), np.tile(np.repeat(np.arange(n_a), 2), n_r - 1)])
    lat = np.empty((mesh.space.n_nodes, 2), dtype=np.int64)
    lat[mesh.space.tri_nodes, 0] = _LATTICE_J[kind] + 2 * ring[:, None]
    lat[mesh.space.tri_nodes, 1] = (_LATTICE_K[kind] + 2 * sector[:, None]) % (2 * n_a)
    lat[0] = 0
    return lat


class _PolarPreconditioner:
    """Inverse of the P1 stiffness on the red refinement of the unit-disk P2 mesh.

    The P2 nodes of a fan-plus-rings mesh form a complete polar half-step
    lattice, and on the disk the P1 stiffness of that lattice is
    block-circulant in theta with a period of one sector.  Per sector,
    lattice ring J = 1 holds one interior node and each ring J >= 2 two, so
    there are 4 n_radial - 3 slots; the centre couples only to Fourier
    mode 0.  An rfft over the sectors splits the operator into
    n_angular/2 + 1 Hermitian blocks, tridiagonal in J with 2x2 blocks.
    Stacked, with the centre bordered in as the first row of mode 0, they form
    one banded matrix of bandwidth 3, Cholesky-factored once.  The 2-D
    stiffness is scale-invariant, so only the topology of mesh is read (its
    P2 numbering and radial fractions), never its domain, and the result
    serves every domain meshed with that topology.
    """

    def __init__(self, mesh: TriMesh):
        space = mesh.space
        n_a, n_s = mesh.n_angular, 4 * mesh.n_radial - 3
        n_m = n_a // 2 + 1
        lat = _polar_lattice(mesh)
        slot = np.where(lat[:, 0] == 1, 0, 2 * lat[:, 0] - 3 + lat[:, 1] % 2)
        sector = lat[:, 1] // 2
        # interior dofs in the solver's order; the centre (node 0) is dof 0
        interior = np.nonzero(~space.dirichlet)[0]
        self.index = (slot[interior[1:]] * n_a + sector[interior[1:]]).astype(np.int32)
        self.shape = (n_s, n_a)

        # the P2 triangles of coarse sector 0 laid on the unit disk: vertices
        # at their radial fraction, midsides at the mean of their endpoints,
        # boundary midsides moved out onto the circle
        tri0 = space.tri_nodes[np.all(lat[space.tri_nodes, 1] <= 2, axis=1)]
        radius = np.concatenate([[0.0], mesh.radial_fractions])[lat[tri0[:, :3], 0] // 2]
        angle = (np.pi / n_a) * lat[tri0[:, :3], 1]
        xy = np.empty(tri0.shape + (2,))
        xy[:, :3, 0], xy[:, :3, 1] = radius * np.cos(angle), radius * np.sin(angle)
        mid = xy[:, 3:]
        mid[:] = 0.5 * (xy[:, _EDGE_LOCALS[:, 0]] + xy[:, _EDGE_LOCALS[:, 1]])
        on_circle = space.dirichlet[tri0[:, 3:]]
        mid[on_circle] /= np.hypot(mid[on_circle, 0], mid[on_circle, 1])[:, None]

        # P1 element matrices of their red refinement
        sub = tri0[:, _RED].reshape(-1, 3)
        xy = xy[:, _RED].reshape(-1, 3, 2)
        edge = np.roll(xy, 1, axis=1) - np.roll(xy, -1, axis=1)   # edge opposite each vertex
        twice_area = np.abs(edge[:, 0, 0] * edge[:, 1, 1] - edge[:, 0, 1] * edge[:, 1, 0])
        ke = (edge @ edge.transpose(0, 2, 1)) / (2.0 * twice_area)[:, None, None]
        a, b, v = np.repeat(sub, 3, axis=1).ravel(), np.tile(sub, 3).ravel(), ke.ravel()
        keep = ~(space.dirichlet[a] | space.dirichlet[b])
        a, b, v = a[keep], b[keep], v[keep]

        # upper band storage ab[3 + i - j, j] = A[i, j]; row 1 + m n_s + s is slot
        # s of mode m and row 0 the centre.  An entry from (s, k) to (s', k')
        # adds v exp(2 pi i m (k' - k) / n_a) to block m.
        centre = np.sum(v[(a == 0) & (b == 0)]) * n_a
        border = np.sum(v[(a == 0) & (b != 0)]) * np.sqrt(n_a)
        up = (a != 0) & (b != 0) & (slot[a] <= slot[b])
        a, b, v = a[up], b[up], v[up]
        n = 1 + n_m * n_s
        m = np.arange(n_m)[:, None]
        flat = ((3 + slot[a] - slot[b]) * n + 1 + m * n_s + slot[b]).ravel()
        vals = (v * np.exp(2j * np.pi * m * (sector[b] - sector[a]) / n_a)).ravel()
        ab = np.bincount(flat, vals.real, 4 * n) + 1j * np.bincount(flat, vals.imag, 4 * n)
        ab = ab.reshape(4, n)
        ab[3, 0], ab[2, 1] = centre, border
        self.factor = cholesky_banded(ab, lower=False, check_finite=False)
        # every solve on this topology shares the cached arrays
        self.index.setflags(write=False)
        self.factor.setflags(write=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        n_s, n_a = self.shape
        g = np.empty(self.index.size)
        g[self.index] = r[1:]
        rhs = np.empty(self.factor.shape[1], dtype=complex)
        rhs[0] = r[0]
        rhs[1:] = np.fft.rfft(g.reshape(n_s, n_a), norm="ortho").T.ravel()
        z = cho_solve_banded((self.factor, False), rhs, check_finite=False)
        out = np.empty_like(r)
        out[0] = z[0].real
        out[1:] = np.fft.irfft(z[1:].reshape(-1, n_s).T, n=n_a, norm="ortho").ravel()[self.index]
        return out


# preconditioners by mesh topology (n_radial, n_angular), oldest first
_PRECONDITIONERS: dict[tuple[int, int], _PolarPreconditioner] = {}


def _polar_preconditioner(mesh: TriMesh) -> _PolarPreconditioner:
    """The preconditioner of mesh's topology, built from the first mesh with it.

    The eight most recently built topologies are kept.
    """
    key = (mesh.n_radial, mesh.n_angular)
    if key not in _PRECONDITIONERS:
        if len(_PRECONDITIONERS) == 8:
            del _PRECONDITIONERS[next(iter(_PRECONDITIONERS))]
        _PRECONDITIONERS[key] = _PolarPreconditioner(mesh)
    return _PRECONDITIONERS[key]


# relative residual at which conjugate gradients stop
_CG_RTOL = 1e-10


def _pcg(a_mat, b: np.ndarray, precond):
    """Preconditioned conjugate gradients; returns (x, relres, iters).

    precond applies an SPD approximation of a_mat^-1; solve_torsion passes the
    polar FFT preconditioner of the mesh topology, whose spectral equivalence
    to the P2 stiffness keeps the iteration count flat under refinement, at
    the cost of a few matrix-vector products per apply.  Stops when the
    unpreconditioned relative residual drops to _CG_RTOL.  Raises SolverError
    after 50 sqrt(n) + 10 iterations, and on breakdown, when p.Ap is not
    positive and finite: a_mat is not positive definite, or the recursive
    residual has shrunk below what p.Ap can represent.
    """
    max_iter = int(50 * np.sqrt(b.size)) + 10
    # dnrm2 scales as it sums, so a tiny residual cannot underflow to a
    # false zero the way sqrt(r @ r) does
    bnorm = float(dnrm2(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0.0, 0
    r = b.copy()
    rn = bnorm
    p = precond(r)
    rz = float(r @ p)
    for it in range(1, max_iter + 1):
        ap = a_mat @ p
        pap = float(p @ ap)
        if not 0.0 < pap < np.inf:
            raise SolverError(
                "conjugate gradients broke down at iteration %d: p.Ap = %r" % (it, pap), residual=rn / bnorm
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rn = float(dnrm2(r))
        if rn <= _CG_RTOL * bnorm:
            return x, rn / bnorm, it
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        "conjugate gradients hit the iteration cap %d with relative residual %.3e" % (max_iter, rn / bnorm),
        residual=rn / bnorm,
    )


@dataclasses.dataclass(eq=False)
class TorsionField:
    """Discrete torsion function on one mesh.

    u holds nodal values at all P2 nodes of space (vertices first).  M is the
    largest |grad u| at the quadrature points, in the area-averaged nodal
    gradients and at the boundary nodes; min_points are the refined interior
    minima.  qp_u (nt, 7) and qp_hess (nt, 7, 2, 2) hold u and its Hessian at
    the quadrature points space.qp_xy, weighted by space.qp_w in volume
    integrals.  residual_norm and iterations report the conjugate-gradient
    solve; area is the quadrature area of the curved cells.
    """

    mesh: TriMesh
    u: np.ndarray
    M: float
    min_points: np.ndarray
    residual_norm: float
    iterations: int
    area: float
    qp_u: np.ndarray
    qp_hess: np.ndarray
    space: "_P2Space"


def _gradient(u_el: np.ndarray, inv, dn: np.ndarray):
    """Gradient entries (gx, gy) of the FE solution at one reference point per
    element; dn (6, 2) holds the shape-function derivatives there and inv the
    entries of J^-1."""
    a, b, c, d = inv
    gr = u_el @ dn
    return gr[:, 0] * a + gr[:, 1] * c, gr[:, 0] * b + gr[:, 1] * d


def _grad_hess(u_el: np.ndarray, href: np.ndarray, cmap, inv, dn: np.ndarray):
    """Gradient and Hessian entries (gx, gy, h00, h01, h11) of the FE solution
    at one reference point per element.

    href and cmap = (cx, cy) hold the constant (00, 01, 11) reference second
    derivatives of u and of the element map, each (nt, 3).
    """
    a, b, c, d = inv
    gx, gy = _gradient(u_el, inv, dn)
    cx, cy = cmap
    t00, t01, t11 = (href[:, i] - gx * cx[:, i] - gy * cy[:, i] for i in range(3))
    h00 = a * a * t00 + 2.0 * a * c * t01 + c * c * t11
    h01 = a * b * t00 + (a * d + b * c) * t01 + c * d * t11
    h11 = b * b * t00 + 2.0 * b * d * t01 + d * d * t11
    return gx, gy, h00, h01, h11


def _derivatives(space: _P2Space, u_full: np.ndarray, inv_qp):
    """u, gradient and Hessian at the quadrature points (inv_qp holds J^-1
    there), then the nodal gradient by area-weighted averaging."""
    coords = space.coords
    u_el = u_full[space.tri_nodes]
    nt = coords.shape[0]
    href = u_el @ _D2N                                        # reference Hessian, constant
    cmap = (coords[:, :, 0] @ _D2N, coords[:, :, 1] @ _D2N)   # map curvature terms
    qp_g = np.empty((nt, 7, 2))
    qp_h = np.empty((nt, 7, 2, 2))
    for qi, inv in enumerate(inv_qp):
        gx, gy, h00, h01, h11 = _grad_hess(u_el, href, cmap, inv, _DN_AT_QP[qi])
        qp_g[:, qi, 0], qp_g[:, qi, 1] = gx, gy
        qp_h[:, qi, 0, 0], qp_h[:, qi, 1, 1] = h00, h11
        qp_h[:, qi, 0, 1] = qp_h[:, qi, 1, 0] = h01

    # (gx, gy, 1) x local node x element, weighted by element area
    vals = np.empty((3, 6, nt))
    for k, dn in enumerate(_DN_AT_NODES):
        vals[:2, k] = _gradient(u_el, _inverse_jacobian(coords, dn)[1:], dn)
    vals[2] = 1.0
    vals *= np.sum(space.qp_w, axis=1)
    idx = space.tri_nodes.T.ravel()
    gx, gy, wsum = (np.bincount(idx, weights=v.ravel(), minlength=space.n_nodes) for v in vals)
    grad = np.stack([gx, gy], axis=-1) / wsum[:, None]
    return u_el @ _N_AT_QP.T, qp_g, qp_h, grad


def _boundary_gradient(mesh: TriMesh, u_full: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Gradient of the FE solution at boundary parameters theta (one-sided)."""
    two_pi = 2.0 * np.pi
    wrapped = np.mod(np.asarray(thetas, dtype=float), two_pi)
    dtheta = two_pi / mesh.n_angular
    sector = np.minimum((wrapped / dtheta).astype(np.int64), mesh.n_angular - 1)
    # clamp round-off spill to the sector edges
    tau = np.clip(wrapped / dtheta - sector, 0.0, 1.0)
    # the boundary edge is local edge (1, 2), running forward
    refs = np.stack([1.0 - tau, tau], axis=-1)
    return _eval_in_elements(mesh.space, u_full, mesh.space.b_tri[sector], refs)[1]


def _eval_in_elements(space: _P2Space, u_full: np.ndarray, els: np.ndarray, refs: np.ndarray):
    """u and grad u of the FE solution at reference points refs (m, 2) of elements els."""
    u_el = u_full[space.tri_nodes[els]]
    dn = _dshape(refs)                                  # (m, 6, 2)
    _, a, b, c, d = _inverse_jacobian(space.coords[els], dn)
    gr0 = np.sum(u_el * dn[:, :, 0], axis=1)
    gr1 = np.sum(u_el * dn[:, :, 1], axis=1)
    return np.sum(u_el * _shape(refs), axis=1), np.stack([gr0 * a + gr1 * c, gr0 * b + gr1 * d], axis=-1)


def _min_points(space: _P2Space, u_full: np.ndarray) -> np.ndarray:
    """Locations of the interior minima, refined by local quadratic fits.

    Nodes within 1e-9 * max|u| of the global minimum are clustered by
    element adjacency; each cluster contributes one refined location from a
    least-squares quadratic on its two-ring node patch.
    """
    umax = float(np.max(np.abs(u_full)))
    umin = float(np.min(u_full))
    tol = 1e-9 * umax
    cand = np.nonzero(u_full <= umin + tol)[0]

    # node x element incidence; candidates sharing an element are clustered
    nt = space.tri_nodes.shape[0]
    inc = sp.csr_matrix(
        (np.ones(6 * nt), (space.tri_nodes.ravel(), np.repeat(np.arange(nt), 6))),
        shape=(space.n_nodes, nt),
    )
    n_comp, labels = connected_components(inc[cand] @ inc[cand].T, directed=False)

    out = []
    for ci in range(n_comp):
        comp = cand[labels == ci]
        seed = comp[np.lexsort((comp, u_full[comp]))[0]]
        ring = np.zeros(space.n_nodes)
        ring[comp] = 1.0
        for _ in range(2):
            ring = inc @ (inc.T @ ring > 0)
        patch = np.nonzero(ring)[0]
        xy = space.node_xy[patch] - space.node_xy[seed]
        scale = max(float(np.max(np.abs(xy))), 1e-30)
        xs, ys = xy[:, 0] / scale, xy[:, 1] / scale
        design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
        coef, *_ = np.linalg.lstsq(design, u_full[patch], rcond=None)
        hess = np.array([[2.0 * coef[3], coef[4]], [coef[4], 2.0 * coef[5]]])
        z = space.node_xy[seed].copy()
        det = np.linalg.det(hess)
        if det > 0.0 and hess[0, 0] > 0.0:
            step = np.linalg.solve(hess, -coef[1:3])
            if float(np.hypot(*step)) <= 2.0:
                z = space.node_xy[seed] + scale * step
        out.append(z)
    out.sort(key=lambda v: (v[0], v[1]))
    return np.asarray(out)


def _assemble_interior(space: _P2Space, inv_qp):
    """Stiffness matrix, load vector and node ids of the interior unknowns.

    Entries touching a Dirichlet node are dropped before the CSR matrix is
    built, so the full matrix never exists.
    """
    # the metric J^-1 J^-T as (00, 01, 11) per element and quadrature point
    ke = np.stack([np.stack([a * a + b * b, a * c + b * d, c * c + d * d], axis=-1) for a, b, c, d in inv_qp], axis=1)
    ke = ((ke * space.qp_w[:, :, None]).reshape(-1, 21) @ _KE).ravel()
    fe = (-DIM * space.qp_w) @ _N_AT_QP

    interior = np.nonzero(~space.dirichlet)[0]
    n_in = interior.size
    dof = np.full(space.n_nodes, -1, dtype=np.int32)
    dof[interior] = np.arange(n_in, dtype=np.int32)
    el = dof[space.tri_nodes]
    b_in = np.bincount(el[el >= 0], weights=fe[el >= 0], minlength=n_in)
    rows = np.repeat(el, 6, axis=1).ravel()
    cols = np.tile(el, 6).ravel()
    keep = (rows >= 0) & (cols >= 0)
    # rebinding one array at a time keeps the peak at one copy of each
    ke = ke[keep]
    rows = rows[keep]
    cols = cols[keep]
    return sp.csr_matrix((ke, (rows, cols)), shape=(n_in, n_in)), b_in, interior


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve laplace(u) = 2 with u = 0 on the boundary; recover derivatives.

    Raises SolverError when conjugate gradients reach the cap of
    50 sqrt(ndof) + 10 iterations before the relative residual drops below
    _CG_RTOL, or break down (see _pcg).
    """
    space = mesh.space
    # set up before the assembly, so a cold cache does not raise its memory peak
    precond = _polar_preconditioner(mesh)
    # J^-1 at the 7 quadrature points, shared by the assembly and the fields
    inv_qp = [_inverse_jacobian(space.coords, dn)[1:] for dn in _DN_AT_QP]
    a_in, b_in, interior = _assemble_interior(space, inv_qp)
    x, relres, iters = _pcg(a_in, b_in, precond)
    del a_in

    u_full = np.zeros(space.n_nodes)
    u_full[interior] = x

    qp_u, qp_g, qp_h, grad = _derivatives(space, u_full, inv_qp)

    # gradient at the boundary node parameters: edge endpoints and curved midsides
    th0, th1 = mesh.boundary_thetas.T
    bgrad = _boundary_gradient(mesh, u_full, np.sort(np.concatenate([th0, 0.5 * (th0 + th1)])))

    m_const = max(
        float(np.max(np.hypot(qp_g[..., 0], qp_g[..., 1]))),
        float(np.max(np.hypot(grad[:, 0], grad[:, 1]))),
        float(np.max(np.hypot(bgrad[:, 0], bgrad[:, 1]))),
    )

    return TorsionField(
        mesh=mesh,
        u=u_full,
        M=m_const,
        min_points=_min_points(space, u_full),
        residual_norm=relres,
        iterations=iters,
        area=float(np.sum(space.qp_w)),
        qp_u=qp_u,
        qp_hess=qp_h,
        space=space,
    )


def boundary_normal_derivative(field: TorsionField, thetas: np.ndarray) -> np.ndarray:
    """u_nu at arbitrary boundary parameters (analytic outward normals)."""
    g = _boundary_gradient(field.mesh, field.u, thetas)
    nu = field.mesh.domain.normal(thetas)
    return np.sum(g * nu, axis=1)


def eval_at_points(field: TorsionField, pts: np.ndarray):
    """Evaluate (u, grad u) at points of the domain; MeshError for one outside.

    Each point's triangle is read off the mesh layout (see generate_mesh).
    The angle gives the sector.  A sector's ring chords are parallel, so the
    distance along their normal, as a fraction of the boundary chord's, gives
    the ring, and the side of the diagonal a-c picks (a, d, c) or (a, c, b).
    One affine solve gives the reference point, and Newton steps refine it
    where the cell is curved.
    """
    mesh, space, n_a = field.mesh, field.space, field.mesh.n_angular
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rel = pts - mesh.domain.center
    th = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
    sector = np.minimum((th * n_a / (2.0 * np.pi)).astype(np.int64), n_a - 1)
    outer = mesh.vertices[-n_a:] - mesh.vertices[0]     # boundary vertices, from the centre
    chord = np.roll(outer, -1, axis=0)[sector] - outer[sector]
    frac = (rel[:, 0] * chord[:, 1] - rel[:, 1] * chord[:, 0]) / (
        outer[sector, 0] * chord[:, 1] - outer[sector, 1] * chord[:, 0]
    )
    ring = np.minimum(np.searchsorted(mesh.radial_fractions, frac, side="right"), mesh.n_radial - 1)
    els = np.where(ring == 0, sector, n_a * (2 * ring - 1) + 2 * sector)
    a, c = space.coords[els, 0], space.coords[els, 2]
    above = (c[:, 0] - a[:, 0]) * (pts[:, 1] - a[:, 1]) - (c[:, 1] - a[:, 1]) * (pts[:, 0] - a[:, 0]) > 0.0
    els += (ring > 0) & above

    cxy = space.coords[els]
    amat = np.stack([cxy[:, 1] - cxy[:, 0], cxy[:, 2] - cxy[:, 0]], axis=-1)
    refs = np.linalg.solve(amat, (pts - cxy[:, 0])[:, :, None])[:, :, 0]
    tol = 1e-13 * (1.0 + np.hypot(pts[:, 0], pts[:, 1]))
    todo = np.arange(pts.shape[0])
    for _ in range(30):
        r = np.einsum("mk,mkc->mc", _shape(refs[todo]), cxy[todo]) - pts[todo]
        keep = ~(np.hypot(r[:, 0], r[:, 1]) < tol[todo])
        todo, r = todo[keep], r[keep]
        if todo.size == 0:
            break
        jac = np.einsum("mkc,mkd->mcd", cxy[todo], _dshape(refs[todo]))
        refs[todo] -= np.linalg.solve(jac, r[:, :, None])[:, :, 0]
    inside = np.all(refs >= -1e-9, axis=1) & (refs[:, 0] + refs[:, 1] <= 1.0 + 1e-9)
    if not np.all(inside):
        raise MeshError("point %s not located in the mesh" % (pts[np.argmin(inside)],))
    return _eval_in_elements(space, field.u, els, refs)


def domain_quadrature(mesh: TriMesh):
    """Quadrature points and weights covering the (curved-cell) domain.

    Flat read-only views of the mesh's P2 quadrature, so repeated calls and
    the solver share one copy.  Nothing in the package calls it; its readers
    are the perfbench tracer and the quadrature reference that the spectral
    tests compare the exact polar Gram matrices against.
    """
    space = mesh.space
    return space.qp_xy.reshape(-1, 2), space.qp_w.ravel()

