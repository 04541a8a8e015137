"""Quadratic finite elements on structured polar meshes.

The torsion problem laplace(u) = 2, u = 0 on the boundary is solved with P2
Lagrange triangles.  The n_angular cells with a boundary edge are
isoparametric: the midside node of that edge sits on the true curve, so the
geometric consistency error drops to the level needed for the tight disk and
ellipse benchmarks.  Every other cell has its midside nodes at the midpoints
of its edges, so its map is affine and J is constant on it (the standard
set-up, Lenoir 1986).  What depends only on the mesh topology (n_radial,
n_angular) is built once into a read-only plan shared by every domain meshed
with it: the radial fractions, the P2 numbering, the CSR pattern of the
interior stiffness with the slots of the element-matrix entries in it, and
the preconditioner.  The P2 nodes are numbered once, on the preconditioner's
polar half-step lattice, interior nodes first, so the interior unknowns are a
prefix of the nodal vector and the preconditioner reads them without a
permutation.  generate_mesh forms everything a mesh holds at once: it fetches
the plan, lays the P2 nodes straight at their lattice ids (_place_nodes) from
the vertex rings it reads h off, and forms J once: one GEMM of the (4 x 12)
map table at the centroid against the coordinates of every cell, and the
7-point table against those of the curved cells only.  The preconditioner's
unit disk is laid by the same placement.  A mesh keeps only what it cannot
re-read: its P2 node positions and its element maps (det J and J^-1, with the
weights of the curved cells).  The cell coordinates and the (nt, 7)
quadrature weights are formed on read from those and the topology.  An
affine cell's stiffness is its constant metric against one constant table;
the curved cells overwrite their columns from the metric at each point.  The
kernels work on one (p, nt) array per quantity; the stiffness kernel forms
only the 21 distinct entries of each symmetric element matrix, and the
assembly adds them in place into the CSR data through the plan's slots, to
the bit the sums of the full matrices.  The
Hessian of u, which only the volume integrals read, is formed on first read:
one sample per affine cell, where it is the constant J^-T href J^-1, and one
per quadrature point of each curved cell.  M and the minimum points are
formed on first read too; the search for the minima walks the interior
stiffness pattern.  The interior block is solved by conjugate gradients,
not by a sparse direct factorisation: splu's fill is 87 MB at 64x256, which
breaks the benchmark's peak_rss_mb bound.  The preconditioner is the exact
inverse of the P2 stiffness that the same assembly gives on the unit-disk
mesh of the topology, which an FFT in theta makes block-banded
(Swarztrauber-Sweet 1973), so one apply costs a few matrix-vector products.
On the disk CG stops after one iteration.  Elsewhere the operator differs
from the disk's only by the radial map between them (equivalent-operator
preconditioning, Axelsson-Karatson 2009), so the count is set by
max |rho'/rho| and not by the mesh size: 15 iterations on the 1.5x1 ellipse
and 6-13 on rho = 1 + t cos 3 theta for t <= 0.1, where diagonal scaling
needed a count that doubled with each refinement.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.blas import dnrm2

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


# 7-point degree-5 rule from its closed form, so the weights sum to 1 to the
# last bit; reference area factor 1/2 applied at assembly time
_S15 = np.sqrt(15.0)
_QW = np.array([9.0 / 40.0] + [(155.0 + _S15) / 1200.0] * 3 + [(155.0 - _S15) / 1200.0] * 3)
_QA1, _QB1 = (9.0 - 2.0 * _S15) / 21.0, (6.0 + _S15) / 21.0
_QA2, _QB2 = (9.0 + 2.0 * _S15) / 21.0, (6.0 - _S15) / 21.0
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


# The (k, l) of the 21 distinct entries of a symmetric element matrix: the 15
# strict-upper ones (k < l) first, row by row, then the diagonal (k, k)
_UPPER = np.array([(k, l) for k in range(6) for l in range(k + 1, 6)] + [(k, k) for k in range(6)])
# ke[_FULL] is the full matrix, row-major (k, l), of the 21 entries ke
_FULL = np.zeros((6, 6), dtype=np.int64)
_FULL[_UPPER[:, 0], _UPPER[:, 1]] = _FULL[_UPPER[:, 1], _UPPER[:, 0]] = np.arange(21)
_FULL = _FULL.ravel()

# ke = S @ _KE for an element, where S[3q:3q+3] = w_q (G00, G01, G11) and
# G = J^-1 J^-T is the metric at quadrature point q; ke holds the _UPPER entries
_DD = _DN_AT_QP[:, _UPPER[:, 0], :, None] * _DN_AT_QP[:, _UPPER[:, 1], None, :]   # (q, entry, d, e)
_KE = np.stack([_DD[..., 0, 0], _DD[..., 0, 1] + _DD[..., 1, 0], _DD[..., 1, 1]], axis=1).reshape(21, 21)
del _DD
# sum_q w_q K_q: ke = (G00, G01, G11) @ _KE_AFFINE for a constant metric G,
# exact because the 7-point rule integrates grad N_k . grad N_l exactly
_KE_AFFINE = (_QW @ _KE.reshape(7, 63)).reshape(3, 21)


def _map_table(dn: np.ndarray) -> np.ndarray:
    """(4p, 12) table of the element maps at p reference points.

    dn (p, 6, 2) holds the shape-function derivatives there; one (4, 12) block
    per point.  table @ coords.reshape(nt, 12).T stacks the entries j00, j01,
    j10, j11 of J, each (p, nt).
    """
    return np.concatenate([np.kron(dn[:, :, d], np.eye(2)[c]) for c in range(2) for d in range(2)])


_MAP_QP = _map_table(_DN_AT_QP)          # (28, 12)
_MAP_CENTROID = _MAP_QP[::7]             # (4, 12): the block of _QP[0], the centroid
# coords.reshape(nt, 12) @ _QP_TABLE is the (nt, 7, 2) quadrature points
_QP_TABLE = np.kron(_N_AT_QP.T, np.eye(2))


def _invert(j00, j01, j10, j11):
    """det J and the entries a, b, c, d of J^-1 = [[a, b], [c, d]]."""
    det = j00 * j11 - j01 * j10
    if np.any(det <= 0.0):
        raise MeshError("non-positive Jacobian in element map")
    return det, j11 / det, -j01 / det, -j10 / det, j00 / det


def _element_maps(coords: np.ndarray, table: np.ndarray):
    """det J and the entries of J^-1 at the p reference points of table
    (_MAP_CENTROID or _MAP_QP) in every element, each (p, nt): one GEMM.
    _CellMaps takes the one point of _MAP_CENTROID on every cell, as J is
    constant on a cell with its midside nodes at its edge midpoints, and the
    7 points of _MAP_QP on the curved cells only.

    J comes from the coordinates relative to each element's vertex 0 (the
    shape-function derivatives sum to zero, so J is the same in exact
    arithmetic), which keeps the cancellation of far-off absolute
    coordinates out of it.
    """
    nt = coords.shape[0]
    return _invert(*(table @ (coords - coords[:, :1]).reshape(nt, 12).T).reshape(4, -1, nt))


def _inverse_jacobian(coords: np.ndarray, dn: np.ndarray):
    """det J and the entries of J^-1, each (m,), at one reference point per
    element: coords and dn are both (m, 6, 2).  Relative coordinates as in
    _element_maps."""
    return _invert(*np.einsum("mkc,mkd->cdm", coords - coords[:, :1], dn).reshape(4, -1))


@dataclasses.dataclass(frozen=True, eq=False)
class _CellMaps:
    """The element maps of a set of P2 cells, split into affine and curved.

    A cell whose midside nodes sit at the midpoints of its edges has an
    affine map, so J is constant on it: det and inv, the entries a, b, c, d
    of J^-1, each (nt,), are taken once, at the centroid, for every cell.
    Only the curved cells (indices curved) keep J^-1 at the 7 quadrature
    points, qp_inv (each (7, nc)), and their quadrature weights
    0.5 w_q det J there, curved_w (7, nc); the kernels overwrite what det
    and inv give on those cells.  qp_w (nt, 7), the weights of every cell,
    is formed on read from det and curved_w.
    """

    curved: np.ndarray
    det: np.ndarray
    inv: tuple
    curved_w: np.ndarray
    qp_inv: tuple

    @classmethod
    def of(cls, coords: np.ndarray, curved: np.ndarray) -> "_CellMaps":
        """The maps of the cells coords (nt, 6, 2), of which curved are curved."""
        det, *inv = (e[0] for e in _element_maps(coords, _MAP_CENTROID))
        qp_det, *qp_inv = _element_maps(coords[curved], _MAP_QP)
        return cls(curved, det, tuple(inv), (0.5 * _QW)[:, None] * qp_det, tuple(qp_inv))

    @property
    def qp_w(self) -> np.ndarray:
        """The quadrature weights 0.5 w_q det J of every cell, (nt, 7)."""
        qp_w = np.ascontiguousarray(((0.5 * _QW)[:, None] * self.det).T)
        qp_w[self.curved] = self.curved_w.T
        return qp_w


# -- mesh --------------------------------------------------------------------

# ratio of the center radial spacing to the boundary one
_GRADING = 1.2


@dataclasses.dataclass(frozen=True, eq=False)
class TriMesh:
    """Structured polar triangulation of a star-shaped domain, with its P2
    nodes and element maps.

    Vertex i of ring j sits at radial fraction plan.radial_fractions[j-1] of
    rho(theta_i) from the center (see _vertex_rings), and the triangles come
    in the order stated by generate_mesh.  h is the longest edge.  The P2
    numbering is the plan's (see _Plan); of this mesh only the node positions
    node_xy, placed at their ids by _place_nodes, and the element maps (see
    _CellMaps: the plan.b_tri cells are the curved ones) are stored.  The
    cell coordinates coords (nt, 6, 2) are gathered on read.
    """

    h: float
    n_radial: int
    n_angular: int
    domain: StarDomain
    plan: _Plan
    node_xy: np.ndarray
    maps: _CellMaps

    @property
    def n_nodes(self) -> int:
        return self.plan.n_nodes

    @property
    def coords(self) -> np.ndarray:
        """(nt, 6, 2) coordinates of every cell's nodes."""
        return self.node_xy[self.plan.tri_nodes]


def generate_mesh(domain: StarDomain, n_radial: int, n_angular: int) -> TriMesh:
    """Fan-plus-rings triangulation, radially graded toward the boundary,
    with its P2 nodes and element maps.

    Per-step radial spacing shrinks geometrically so that the first (center)
    spacing is _GRADING times the last (boundary) one (see _Plan).  Counts:
    1 + n_radial*n_angular vertices and n_angular*(2*n_radial - 1) positively
    oriented triangles: the center fan, then for each ring j and sector i the
    pair (a, d, c), (a, c, b) with a, b on ring j and d, c on ring j + 1.
    That order is the contract the P2 lookups read: fan triangle i is
    triangle i, and the (a, d, c) triangle of ring j >= 1 and sector i is
    n_angular*(2j - 1) + 2i, with its (a, c, b) partner next.

    h, the longest spoke, ring chord or diagonal, is read off the vertex
    rings without gathering the triangles, and the P2 nodes are placed from
    the same rings.  No triangle can be degenerate or inverted, so none is
    checked: with s_j the radial fractions, rho_i = rho(theta_i) > 0,
    dtheta = 2 pi / n_angular and A = s_j rho_i, B = s_j rho_i+1,
    C = s_j+1 rho_i+1, D = s_j+1 rho_i, twice the signed area is
    s_1^2 rho_i rho_i+1 sin dtheta for a fan triangle, (D - A) C sin dtheta
    for (a, d, c) and A (C - B) sin dtheta for (a, c, b), all positive as s
    increases.  Any cell whose map has det J <= 0, such as a curved one that
    folds over, raises MeshError when the element maps are formed.
    """
    if n_radial < 4:
        raise MeshError("n_radial must be >= 4, got %d" % n_radial)
    if n_angular < 16 or n_angular % 4 != 0:
        raise MeshError("n_angular must be a multiple of 4 and >= 16, got %d" % n_angular)
    # fetched before the mesh holds anything: a plan's set-up peak is the larger one
    plan = _plan(n_radial, n_angular)

    # every edge is a spoke (centre or ring j to ring j + 1, same angle), a
    # ring chord (angle i to i + 1) or a diagonal a-c (ring j, angle i to
    # ring j + 1, angle i + 1): the same differences, up to sign, that the
    # triangles' edges give, so h is the same float
    ring = _vertex_rings(domain, plan.radial_fractions, n_angular)
    on = np.roll(ring, -1, axis=1)          # each vertex's neighbour one sector on
    edges = (ring[0] - domain.center, ring[1:] - ring[:-1], on - ring, on[1:] - ring[:-1])
    h = float(max(np.max(np.hypot(e[..., 0], e[..., 1])) for e in edges))
    node_xy = _place_nodes(domain, ring)
    # only the b_tri cells have a midside (node 4) off its edge's midpoint
    maps = _CellMaps.of(np.take(node_xy, plan.tri_nodes, axis=0), plan.b_tri)
    return TriMesh(
        h=h, n_radial=n_radial, n_angular=n_angular, domain=domain, plan=plan, node_xy=node_xy, maps=maps
    )


def _vertex_rings(domain: StarDomain, radial_fractions: np.ndarray, n_angular: int) -> np.ndarray:
    """(n_radial, n_angular, 2) mesh vertices past the centre: vertex i of
    ring j at center + s_j rho(theta_i) e_i, theta_i = 2 pi i / n_angular."""
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    rho = radial_fractions[:, None] * domain.radius(theta)
    return np.stack(
        [domain.center[0] + rho * np.cos(theta), domain.center[1] + rho * np.sin(theta)], axis=-1
    )


def _boundary_params(n_angular: int):
    """The theta parameters of the 2 n_angular boundary nodes: the first
    endpoint of each sector's boundary edge, and the edge's midpoint."""
    edge = np.arange(n_angular + 1) * (2.0 * np.pi / n_angular)
    return edge[:-1], 0.5 * (edge[:-1] + edge[1:])


def _place_nodes(domain: StarDomain, ring: np.ndarray) -> np.ndarray:
    """(n_nodes, 2) position of every P2 node, at its lattice id (see _Plan),
    from the vertex rings ring (see _vertex_rings).

    Past the centre, node_xy[1:] is the (slot, sector) array.  Per ring j
    (counted from 1) slot 4j - 3 holds the vertices, 4j - 2 the ring chords'
    midsides, 4j - 1 the spokes' to ring j + 1 and 4j the diagonals a-c to
    ring j + 1; slot 0 holds the centre fan's spokes.  A midside is the mean
    of its edge's endpoints, except on the boundary chord, slot 4 n_radial - 2,
    where it sits on the curve at the mid-parameter.  So every cell off the
    boundary has its midsides at its edge midpoints, and its map is affine.
    """
    n_r, n_angular = ring.shape[:2]
    centre = domain.center
    node_xy = np.empty((1 + (4 * n_r - 1) * n_angular, 2))
    node_xy[0] = centre
    xy = node_xy[1:].reshape(4 * n_r - 1, n_angular, 2)
    on = np.roll(ring, -1, axis=1)          # each vertex's neighbour one sector on
    xy[0] = 0.5 * (centre + ring[0])
    xy[1::4] = ring
    xy[2:-1:4] = 0.5 * (ring[:-1] + on[:-1])
    xy[3::4] = 0.5 * (ring[:-1] + ring[1:])
    xy[4::4] = 0.5 * (ring[:-1] + on[1:])
    xy[-1] = domain.point(_boundary_params(n_angular)[1])
    return node_xy


# -- per-topology plan ------------------------------------------------------

# J and K, less (2j, 2i), of local nodes 0..5 in a fan triangle, an (a, d, c)
# and an (a, c, b) triangle of ring j and sector i (the fan is ring 0)
_LATTICE_J = np.array([[0, 2, 2, 1, 2, 1], [0, 2, 2, 1, 2, 1], [0, 2, 0, 1, 1, 0]])
_LATTICE_K = np.array([[0, 0, 2, 0, 1, 2], [0, 0, 2, 0, 1, 1], [0, 2, 2, 1, 2, 1]])


def _polar_lattice(n_radial: int, n_angular: int):
    """(J, K), each (nt, 6), of the six P2 nodes of every triangle on the
    polar half-step lattice, K mod 2 n_angular.

    Vertex i of ring j sits at (2j, 2i) and the centre at J = 0; a midside
    node sits halfway between its endpoints, except that a fan spoke takes the
    angle of its outer vertex.  Each triangle's ring j and sector i come from
    the triangle order of generate_mesh.
    """
    n_a, n_r = n_angular, n_radial
    kind = np.concatenate([np.zeros(n_a, dtype=np.int64), np.tile([1, 2], n_a * (n_r - 1))])
    ring = np.concatenate([np.zeros(n_a, dtype=np.int64), np.repeat(np.arange(1, n_r), 2 * n_a)])
    sector = np.concatenate([np.arange(n_a), np.tile(np.repeat(np.arange(n_a), 2), n_r - 1)])
    return _LATTICE_J[kind] + 2 * ring[:, None], (_LATTICE_K[kind] + 2 * sector[:, None]) % (2 * n_a)


class _Plan:
    """Everything fem needs of a mesh that depends only on (n_radial, n_angular).

    - radial_fractions (n_radial,): ring j of vertices sits at fraction s_j
      of rho from the centre; the spacing shrinks geometrically so that the
      first (centre) one is _GRADING times the last (boundary) one.
    - tri_nodes (nt, 6): the P2 node ids of each triangle's local nodes,
      its vertices and then the midsides of edges (0, 1), (1, 2), (2, 0).
      A node's id is its place on the polar lattice (_polar_lattice): 0 for
      the centre, and 1 + slot n_angular + K // 2 for the node at (J, K),
      where slot is 0 on ring J = 1 and 2J - 3 + K mod 2 beyond it.  Each
      (slot, sector K // 2) pair holds exactly one node, so the ids below
      n_in = 1 + (4 n_radial - 3) n_angular are the interior nodes, laid out
      as the preconditioner reads them, and the 2 n_angular ids from n_in to
      n_nodes are the nodes on the boundary curve (J = 2 n_radial).
    - b_tri: the outer-ring (a, d, c) triangle of each sector, whose local
      edge (1, 2) is the boundary edge, running forward.
    - the CSR pattern (indptr, indices) of the interior stiffness block, and
      two int32 tables of positions in it, entry-major (entry, then
      element), with nnz for an entry touching a boundary node: slot_up
      (21 nt,) places each element's _UPPER entry (k, l) at (i, j) =
      (tri_nodes[k], tri_nodes[l]), and slot_lo (15 nt,) its 15 strict-upper
      entries again at (j, i).  Together they hold 36 nt int32, one per entry
      of the full element matrices.
    - precond: the polar FFT preconditioner.

    Every array is read-only, and nothing refers to a mesh or domain, so one
    plan serves every domain meshed with the topology.
    """

    def __init__(self, n_radial: int, n_angular: int):
        n_r, n_a = self.n_radial, self.n_angular = n_radial, n_angular
        q = _GRADING ** (1.0 / (n_r - 1))
        spacing = q ** (-np.arange(n_r, dtype=float))
        s = self.radial_fractions = np.cumsum(spacing) / np.sum(spacing)
        s[-1] = 1.0
        nt = n_a * (2 * n_r - 1)
        n_in = self.n_in = 1 + (4 * n_r - 3) * n_a
        self.n_nodes = n_in + 2 * n_a

        jj, kk = _polar_lattice(n_r, n_a)
        lattice_slot = np.where(jj == 1, 0, 2 * jj - 3 + kk % 2)
        tri_nodes = self.tri_nodes = np.where(jj == 0, 0, 1 + lattice_slot * n_a + kk // 2).astype(np.int32)
        del lattice_slot, jj, kk
        self.b_tri = nt - 2 * n_a + 2 * np.arange(n_a)
        # built while little else is held: its set-up peak is the larger one
        self.precond = _PolarPreconditioner(self)

        # interior node x element, as int32 counts: the product drops
        # entries that sum to zero, so a narrower type would wrap the
        # centre's n_angular fan entries away
        inc_in = sp.csr_matrix(
            (np.ones(6 * nt, dtype=np.int32), (tri_nodes.ravel(), np.repeat(np.arange(nt), 6))),
            shape=(self.n_nodes, nt),
        )[:n_in]
        pattern = inc_in @ inc_in.T
        del inc_in
        pattern.sort_indices()
        indptr, indices, nnz = pattern.indptr, pattern.indices, pattern.nnz
        del pattern
        # point lookups in a matrix holding each entry's own index; the 21
        # (i, j) of _UPPER, then the 15 strict-upper ones as (j, i)
        lookup = sp.csr_array((np.arange(nnz, dtype=np.int32), indices, indptr), shape=(n_in, n_in))
        rows = np.concatenate([_UPPER[:, 0], _UPPER[:15, 1]])
        cols = np.concatenate([_UPPER[:, 1], _UPPER[:15, 0]])
        slot = np.full((36, nt), nnz, dtype=np.int32)
        for r in range(0, 36, 6):
            i, j = tri_nodes.T[rows[r : r + 6]], tri_nodes.T[cols[r : r + 6]]
            keep = (i < n_in) & (j < n_in)
            slot[r : r + 6][keep] = lookup[i[keep], j[keep]]
        del lookup

        self.indptr, self.indices = indptr, indices
        self.slot_up, self.slot_lo = slot[:21].ravel(), slot[21:].ravel()
        for arr in (s, tri_nodes, self.b_tri, indptr, indices, self.slot_up, self.slot_lo):
            arr.setflags(write=False)


# plans by mesh topology (n_radial, n_angular), oldest first
_PLANS: dict[tuple[int, int], _Plan] = {}


def _plan(n_radial: int, n_angular: int) -> _Plan:
    """The plan of the topology (n_radial, n_angular); the eight most
    recently built topologies are kept."""
    key = (n_radial, n_angular)
    if key not in _PLANS:
        if len(_PLANS) == 8:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = _Plan(n_radial, n_angular)
    return _PLANS[key]


# -- polar FFT preconditioner ------------------------------------------------


class _PolarPreconditioner:
    """Inverse of the P2 stiffness that solve_torsion assembles on the unit disk.

    The P2 nodes of a fan-plus-rings mesh form a complete polar half-step
    lattice, and on the disk the P2 stiffness is block-circulant in theta
    with a period of one sector.  Per sector, lattice ring J = 1 holds one
    interior node and each ring J >= 2 two, so there are 4 n_radial - 3
    slots.  An rfft over the sectors splits the operator into
    n_angular/2 + 1 Hermitian blocks, banded in the slots with half-width 5
    because an element spans two lattice rings.  Stacked, with the centre,
    which couples only to Fourier mode 0, bordered into slots 0-2 of mode 0,
    they form one banded matrix, Cholesky-factored once.  The 2-D stiffness
    is scale-invariant, so it needs only the topology: the plan's lattice
    numbering, in which interior node 1 + s n_angular + k is slot s of
    sector k, so the interior vector past the centre is the (slot, sector)
    array itself, and its radial fractions.  Sector 0's cells are placed on
    the unit disk by _place_nodes, so they are bitwise the cells of the disk
    mesh, and their matrices come from the assembly's kernel.

    On the disk an apply is the exact solve, and CG stops after one
    iteration.  Elsewhere the count is set by the shape alone: in the polar
    frame of the radial map from the disk the metric is
    [[1 + q^2, -q], [-q, 1]] with q = rho'/rho, so the condition number is
    about lam^2, where lam + 1/lam = 2 + max q^2, and CG needs about
    ln(1e10) / ln((lam + 1)/(lam - 1)) iterations at any mesh size.
    """

    def __init__(self, plan: _Plan):
        n_a, n_s = plan.n_angular, 4 * plan.n_radial - 3
        n_m = n_a // 2 + 1
        self.shape = (n_s, n_a)

        # the P2 triangles of sector 0, the fan's first and the first pair of
        # each ring (see generate_mesh), laid on the unit disk by the mesh's
        # own placement; b_tri[0] is the curved one
        nt = plan.tri_nodes.shape[0]
        cells = np.concatenate([[0], np.arange(n_a, nt).reshape(-1, n_a, 2)[:, 0].ravel()])
        tri0 = plan.tri_nodes[cells]
        disk = StarDomain.disk()
        xy = np.take(_place_nodes(disk, _vertex_rings(disk, plan.radial_fractions, n_a)), tri0, axis=0)
        # their full element matrices, row 6k + l
        ke = _element_stiffness(_CellMaps.of(xy, np.flatnonzero(cells == plan.b_tri[0])))[_FULL]
        a, b, v = np.repeat(tri0.T, 6, axis=0).ravel(), np.tile(tri0.T, (6, 1)).ravel(), ke.ravel()
        keep = (a < plan.n_in) & (b < plan.n_in)
        a, b, v = a[keep], b[keep], v[keep]
        # (slot, sector) of each node past the centre
        slot_a, sector_a = np.divmod(a - 1, n_a)
        slot_b, sector_b = np.divmod(b - 1, n_a)

        # upper band storage ab[5 + i - j, j] = A[i, j]; row 1 + m n_s + s is slot
        # s of mode m and row 0 the centre.  An entry from (s, k) to (s', k')
        # adds v exp(2 pi i m (k' - k) / n_a) to block m.
        centre = np.sum(v[(a == 0) & (b == 0)]) * n_a
        to_centre = (a == 0) & (b != 0)
        border = np.bincount(slot_b[to_centre], v[to_centre], 3) * np.sqrt(n_a)
        up = (a != 0) & (b != 0) & (slot_a <= slot_b)
        n = 1 + n_m * n_s
        m = np.arange(n_m)[:, None]
        flat = ((5 + slot_a[up] - slot_b[up]) * n + 1 + m * n_s + slot_b[up]).ravel()
        vals = (v[up] * np.exp(2j * np.pi * m * (sector_b[up] - sector_a[up]) / n_a)).ravel()
        ab = np.bincount(flat, vals.real, 6 * n) + 1j * np.bincount(flat, vals.imag, 6 * n)
        ab = ab.reshape(6, n)
        ab[5, 0] = centre
        ab[[4, 3, 2], [1, 2, 3]] = border
        self.factor = cholesky_banded(ab, lower=False, check_finite=False)
        # every solve on this topology shares the plan's arrays
        self.factor.setflags(write=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        n_s, n_a = self.shape
        rhs = np.empty(self.factor.shape[1], dtype=complex)
        rhs[0] = r[0]
        rhs[1:] = np.fft.rfft(r[1:].reshape(n_s, n_a), norm="ortho").T.ravel()
        z = cho_solve_banded((self.factor, False), rhs, check_finite=False)
        out = np.empty_like(r)
        out[0] = z[0].real
        out[1:] = np.fft.irfft(z[1:].reshape(-1, n_s).T, n=n_a, norm="ortho").ravel()
        return out


# relative residual at which conjugate gradients stop
_CG_RTOL = 1e-10


def _pcg(a_mat, b: np.ndarray, precond):
    """Preconditioned conjugate gradients; returns (x, relres, iters).

    precond applies an SPD approximation of a_mat^-1; solve_torsion passes the
    polar FFT preconditioner of the mesh topology, the inverse of the
    unit-disk stiffness, which keeps the iteration count flat under
    refinement at the cost of a few matrix-vector products per apply.  Stops when the
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

    u holds nodal values at all P2 nodes of mesh, in the plan's lattice
    numbering: the interior nodes first, the boundary nodes, where u = 0, last.
    residual_norm and iterations report the conjugate-gradient solve; area is
    the quadrature area of the curved cells.  M, min_points and
    hessian_samples are formed on first read, once per field, so a caller
    that never reads one never pays for it.  M is the largest |grad u| at the
    2 n_angular boundary node parameters, the edge endpoints and curved
    midsides: laplace(u) = 2 makes |grad u|^2 subharmonic, so its maximum
    over the closed domain sits on the boundary (Magnanini-Poggesi 2016), and
    an interior sample could only add discretisation overshoot.  min_points
    are the refined interior minima (see _min_points).  hessian_samples carry
    the volume integrals of the Hessian (see _hessian_samples).  ``space`` is
    the mesh under the name the perfbench worker and workloads read
    (field.space.node_xy, .n_nodes); it goes when the benchmark next changes.
    """

    mesh: TriMesh
    u: np.ndarray
    residual_norm: float
    iterations: int
    area: float

    @property
    def space(self) -> TriMesh:
        return self.mesh

    @functools.cached_property
    def M(self) -> float:
        g = _boundary_gradient(self.mesh, self.u, np.concatenate(_boundary_params(self.mesh.n_angular)))
        return float(np.max(np.hypot(g[:, 0], g[:, 1])))

    @functools.cached_property
    def min_points(self) -> np.ndarray:
        return _min_points(self.mesh, self.u)

    @functools.cached_property
    def hessian_samples(self):
        return _hessian_samples(self.mesh, self.u)


# The element kernels run point-major: each quantity at p reference points is
# one (p, nt) array, so every entry-wise step reads contiguous memory.


def _hessian(t, inv):
    """Entries (h00, h01, h11) of J^-T T J^-1 for T = (t00, t01, t11)."""
    a, b, c, d = inv
    t00, t01, t11 = t
    h00 = a * a * t00 + 2.0 * a * c * t01 + c * c * t11
    h01 = a * b * t00 + (a * d + b * c) * t01 + c * d * t11
    h11 = b * b * t00 + 2.0 * b * d * t01 + d * d * t11
    return h00, h01, h11


def _hessian_samples(mesh: TriMesh, u_full: np.ndarray):
    """Weighted samples (w, wu, (h00, h01, h11), cell) of the Hessian of u,
    each (s,), cell the triangle of each: sum w f(hess) and sum wu f(hess)
    are the 7-point integrals of f(hess u_h) and u_h f(hess u_h) for any f.

    An affine cell (outside plan.b_tri) is one sample, first and in cell
    order: its constant J^-T href J^-1, href the reference second derivatives
    of u, weighted by its area and by the integral of u_h over it.  Then the
    j-th of the nc curved cells is sampled at each quadrature point q, as
    sample q nc + j: the map curvature grad u . d2x/dxi2 (from coordinates
    relative to vertex 0, as in _element_maps) is subtracted from href, with
    grad u and J^-1 taken at the point.
    """
    maps, tri_nodes = mesh.maps, mesh.plan.tri_nodes
    cv = maps.curved
    u_t = u_full[tri_nodes].T                                        # (6, nt)
    affine = np.ones(u_t.shape[1], dtype=bool)
    affine[cv] = False

    href = _D2N.T @ u_t                                              # reference Hessian, constant
    area = 0.5 * maps.det[affine]
    h_affine = np.stack(_hessian(href[:, affine], [e[affine] for e in maps.inv]))

    a, b, c, d = maps.qp_inv
    g0, g1 = (_DN_AT_QP.transpose(2, 0, 1).reshape(-1, 6) @ u_t[:, cv]).reshape(2, 7, -1)
    gx, gy = g0 * a + g1 * c, g0 * b + g1 * d
    xy = mesh.node_xy[tri_nodes[cv]]
    rel = xy - xy[:, :1]
    cx, cy = _D2N.T @ rel[:, :, 0].T, _D2N.T @ rel[:, :, 1].T         # map curvature
    t = [href[i, cv] - gx * cx[i] - gy * cy[i] for i in range(3)]
    h_curved = np.stack(_hessian(t, maps.qp_inv)).reshape(3, -1)     # point-major, (3, 7 nc)
    qp_w = maps.curved_w                                             # (7, nc)

    w = np.concatenate([area, qp_w.ravel()])
    # _QW @ _N_AT_QP is the mean of each shape function over a cell
    wu = np.concatenate([area * (_QW @ _N_AT_QP @ u_t[:, affine]), (qp_w * (_N_AT_QP @ u_t[:, cv])).ravel()])
    cell = np.concatenate([np.flatnonzero(affine), np.tile(cv, 7)])
    return w, wu, tuple(np.concatenate([h_affine, h_curved], axis=1)), cell


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
    return _eval_in_elements(mesh, u_full, mesh.plan.b_tri[sector], refs)[1]


def _eval_in_elements(mesh: TriMesh, u_full: np.ndarray, els: np.ndarray, refs: np.ndarray):
    """u and grad u of the FE solution at reference points refs (m, 2) of elements els."""
    cells = mesh.plan.tri_nodes[els]
    u_el = u_full[cells]
    dn = _dshape(refs)                                  # (m, 6, 2)
    _, a, b, c, d = _inverse_jacobian(mesh.node_xy[cells], dn)
    gr0 = np.sum(u_el * dn[:, :, 0], axis=1)
    gr1 = np.sum(u_el * dn[:, :, 1], axis=1)
    return np.sum(u_el * _shape(refs), axis=1), np.stack([gr0 * a + gr1 * c, gr0 * b + gr1 * d], axis=-1)


def _min_points(mesh: TriMesh, u_full: np.ndarray) -> np.ndarray:
    """Locations of the interior minima, refined by local quadratic fits.

    Nodes within 1e-9 * max|u| of the global minimum are clustered by
    element adjacency; each cluster contributes one refined location from a
    least-squares quadratic on its two-ring node patch.  Both walks read the
    plan's interior stiffness pattern, which links exactly the interior nodes
    that share an element.  u = 0 on the boundary, so every candidate is
    interior; a patch holds the interior nodes of the two-ring.  The walks run
    on the interior node ids, which are the pattern's rows.
    """
    plan = mesh.plan
    indptr, indices = plan.indptr, plan.indices
    u = u_full[: plan.n_in]
    xy_in = mesh.node_xy[: plan.n_in]
    cand = np.flatnonzero(u <= float(np.min(u)) + 1e-9 * float(np.max(np.abs(u))))

    def neighbours(nodes):
        # ascending interior nodes sharing an element with nodes
        start, stop = indptr[nodes], indptr[nodes + 1]
        count = stop - start
        pos = np.repeat(stop - np.cumsum(count), count) + np.arange(np.sum(count))
        mark = np.zeros(u.size, dtype=bool)
        mark[indices[pos]] = True
        return np.flatnonzero(mark)

    # candidates sharing an element are clustered
    unseen = np.zeros(u.size, dtype=bool)
    unseen[cand] = True
    out = []
    for c in cand:
        if not unseen[c]:
            continue
        comp = front = np.array([c])
        while front.size:
            unseen[front] = False
            near = neighbours(front)
            front = near[unseen[near]]
            comp = np.concatenate([comp, front])
        comp.sort()
        seed = comp[np.lexsort((comp, u[comp]))[0]]
        patch = neighbours(neighbours(comp))
        xy = xy_in[patch] - xy_in[seed]
        scale = max(float(np.max(np.abs(xy))), 1e-30)
        xs, ys = xy[:, 0] / scale, xy[:, 1] / scale
        design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
        coef, *_ = np.linalg.lstsq(design, u[patch], rcond=None)
        hess = np.array([[2.0 * coef[3], coef[4]], [coef[4], 2.0 * coef[5]]])
        z = xy_in[seed].copy()
        det = np.linalg.det(hess)
        if det > 0.0 and hess[0, 0] > 0.0:
            step = np.linalg.solve(hess, -coef[1:3])
            if float(np.hypot(*step)) <= 2.0:
                z = xy_in[seed] + scale * step
        out.append(z)
    out.sort(key=lambda v: (v[0], v[1]))
    return np.asarray(out)


def _element_stiffness(maps: _CellMaps) -> np.ndarray:
    """The 21 distinct entries of the symmetric element stiffness matrices,
    entry-major, (21, nt): row r holds entry _UPPER[r] of every element, the
    15 strict-upper entries first, then the diagonal.  ke[_FULL] is the full
    matrices, (36, nt) with row 6k + l holding entry (k, l).

    An affine cell's matrix is its constant weighted metric (G00, G01, G11)
    det J / 2, G = J^-1 J^-T, against _KE_AFFINE; a curved cell sums the
    metric at its 7 quadrature points against _KE.  Each is one GEMM over
    every cell (or every curved cell): a GEMM split into row or column blocks
    need not round as the whole one does.
    """
    a, b, c, d = maps.inv
    g = np.stack([a * a + b * b, a * c + b * d, c * c + d * d])
    g *= 0.5 * maps.det
    ke = _KE_AFFINE.T @ g
    a, b, c, d = maps.qp_inv
    # the weighted metric w J^-1 J^-T as (00, 01, 11) per quadrature point
    g = np.stack([a * a + b * b, a * c + b * d, c * c + d * d], axis=1)
    g *= maps.curved_w[:, None, :]
    ke[:, maps.curved] = _KE.T @ g.reshape(21, -1)
    return ke


def _assemble_interior(mesh: TriMesh):
    """Stiffness matrix and load vector of the interior unknowns, and the
    quadrature area.

    The weights qp_w are formed first, for the area and the load vector, the
    bincount of the element loads over the node ids, cut at n_in; they are
    freed before the element matrices exist.  The 21 distinct entries of
    each element matrix are added in place into a zeroed CSR data array of
    the plan's pattern: np.add.at sends all 21 through plan.slot_up to
    (i, j), then the 15 strict-upper ones again through plan.slot_lo to
    (j, i).  The last slot collects the entries that touch a boundary node
    and is dropped, so no full matrix, COO triplet or duplicate sum ever
    exists.  Each sum is the one the full 36-entry matrices summed in (local
    entry, element) order give, to the bit: two nodes share at most two
    triangles, so an off-diagonal entry gets at most two terms, whose order
    cannot change their sum, and the diagonal entries come last in the same
    (local entry, element) order.
    """
    plan = mesh.plan
    n_in = plan.n_in
    qp_w = mesh.maps.qp_w
    area = float(np.sum(qp_w))
    fe = (-DIM * qp_w) @ _N_AT_QP
    del qp_w
    b_in = np.bincount(plan.tri_nodes.ravel(), fe.ravel())[:n_in]
    del fe
    ke = _element_stiffness(mesh.maps)
    data = np.zeros(plan.indices.size + 1)
    np.add.at(data, plan.slot_up, ke.ravel())
    np.add.at(data, plan.slot_lo, ke[:15].ravel())
    del ke
    return sp.csr_matrix((data[:-1], plan.indices, plan.indptr), shape=(n_in, n_in)), b_in, area


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve laplace(u) = 2 with u = 0 on the boundary.

    Raises SolverError when conjugate gradients reach the cap of
    50 sqrt(ndof) + 10 iterations before the relative residual drops below
    _CG_RTOL, or break down (see _pcg).
    """
    a_in, b_in, area = _assemble_interior(mesh)
    x, relres, iters = _pcg(a_in, b_in, mesh.plan.precond)
    del a_in

    u_full = np.zeros(mesh.n_nodes)
    u_full[: x.size] = x
    return TorsionField(
        mesh=mesh,
        u=u_full,
        residual_norm=relres,
        iterations=iters,
        area=area,
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
    mesh, n_a = field.mesh, field.mesh.n_angular
    plan, node_xy = mesh.plan, mesh.node_xy
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rel = pts - mesh.domain.center
    th = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
    sector = np.minimum((th * n_a / (2.0 * np.pi)).astype(np.int64), n_a - 1)
    outer = node_xy[plan.n_in : plan.n_in + n_a] - node_xy[0]     # boundary vertices, from the centre
    chord = np.roll(outer, -1, axis=0)[sector] - outer[sector]
    frac = (rel[:, 0] * chord[:, 1] - rel[:, 1] * chord[:, 0]) / (
        outer[sector, 0] * chord[:, 1] - outer[sector, 1] * chord[:, 0]
    )
    ring = np.minimum(np.searchsorted(plan.radial_fractions, frac, side="right"), mesh.n_radial - 1)
    els = np.where(ring == 0, sector, n_a * (2 * ring - 1) + 2 * sector)
    a, c = node_xy[plan.tri_nodes[els, 0]], node_xy[plan.tri_nodes[els, 2]]
    above = (c[:, 0] - a[:, 0]) * (pts[:, 1] - a[:, 1]) - (c[:, 1] - a[:, 1]) * (pts[:, 0] - a[:, 0]) > 0.0
    els += (ring > 0) & above

    cxy = node_xy[plan.tri_nodes[els]]
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
    return _eval_in_elements(mesh, field.u, els, refs)


def domain_quadrature(mesh: TriMesh):
    """Quadrature points and weights covering the (curved-cell) domain.

    Both are formed per call from the mesh's P2 nodes and maps: the points
    from the gathered cell coordinates, the weights as the solve forms them,
    so they sum to field.area.  Nothing in the package calls it; its readers are the
    perfbench tracer and the quadrature reference that the spectral tests
    compare the exact polar Gram matrices against.
    """
    return (mesh.coords.reshape(-1, 12) @ _QP_TABLE).reshape(-1, 2), mesh.maps.qp_w.ravel()

