import dataclasses
import functools
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bubblestab import cli, fem, geometry, identities


def disk_exact(nodes, radius=1.0):
    return 0.5 * (np.einsum("ic,ic->i", nodes, nodes) - radius * radius)


def test_generate_mesh_validation():
    disk = geometry.StarDomain.disk()
    with pytest.raises(fem.MeshError):
        fem.generate_mesh(disk, 2, 64)
    with pytest.raises(fem.MeshError):
        fem.generate_mesh(disk, 8, 10)
    with pytest.raises(fem.MeshError):
        fem.generate_mesh(disk, 8, 30)  # not a multiple of 4


def test_mesh_counts_and_h():
    disk = geometry.StarDomain.disk()
    mesh = fem.generate_mesh(disk, 8, 32)
    n_vertices, n_triangles = 1 + 8 * 32, 32 + 2 * 32 * 7
    assert len(mesh.plan.tri_nodes) == n_triangles
    assert len(mesh.plan.b_tri) == 32
    # a P2 node per vertex and per edge, and a triangulated disk has
    # V + T - 1 edges
    assert mesh.n_nodes == n_vertices + (n_vertices + n_triangles - 1)
    assert 0.0 < mesh.h < 0.5


def test_disk_solve_matches_closed_form():
    disk = geometry.StarDomain.disk()
    mesh = fem.generate_mesh(disk, 16, 64)
    field = fem.solve_torsion(mesh)
    err = np.max(np.abs(field.u - disk_exact(field.mesh.node_xy)))
    assert err < 2e-5
    assert abs(field.area - np.pi) < 1e-5
    assert abs(field.M - 1.0) < 5e-3
    # boundary node parameters: edge endpoints and curved midsides
    th0, th1 = _reference_boundary_thetas(mesh.n_angular).T
    u_nu = fem.boundary_normal_derivative(field, np.concatenate([th0, 0.5 * (th0 + th1)]))
    assert np.max(np.abs(u_nu - 1.0)) < 5e-3
    assert field.residual_norm < 1e-9
    assert field.min_points.shape == (1, 2)
    assert np.hypot(*field.min_points[0]) < 1e-10


def test_scaled_shifted_disk():
    disk = geometry.StarDomain.disk(radius=2.0, center=(0.5, -0.25))
    field = fem.solve_torsion(fem.generate_mesh(disk, 16, 64))
    rel = field.mesh.node_xy - np.array([0.5, -0.25])
    err = np.max(np.abs(field.u - disk_exact(rel, 2.0)))
    assert err < 4e-4  # error scales like radius^2 * h^3
    assert abs(field.M - 2.0) < 1e-2
    assert np.max(np.abs(field.min_points[0] - [0.5, -0.25])) < 1e-9


def test_ellipse_solve_matches_closed_form():
    a, b = 1.5, 1.0
    ell = geometry.StarDomain.ellipse(a, b)
    field = fem.solve_torsion(fem.generate_mesh(ell, 16, 64))
    x = field.mesh.node_xy
    s = a * a * b * b / (a * a + b * b)
    exact = (x[:, 0] ** 2 / a**2 + x[:, 1] ** 2 / b**2 - 1.0) * s
    assert np.max(np.abs(field.u - exact)) < 5e-5
    unu0 = fem.boundary_normal_derivative(field, np.array([0.0]))[0]
    assert abs(unu0 - 2 * a * b * b / (a * a + b * b)) < 2e-3


def test_m_is_boundary_node_maximum():
    # laplace(u) = 2 makes |grad u|^2 subharmonic, so M is read at the boundary
    # nodes alone: here an interior sample, the area-averaged nodal gradient,
    # would overshoot that by 3.1e-4 relative
    dom = geometry.StarDomain(1.0, [0.0, 0.0, 0.1])
    mesh = fem.generate_mesh(dom, 32, 128)
    field = fem.solve_torsion(mesh)
    th0, th1 = _reference_boundary_thetas(mesh.n_angular).T
    grads = [fem._boundary_gradient(mesh, field.u, th) for th in (th0, 0.5 * (th0 + th1))]
    assert field.M == max(float(np.max(np.hypot(g[:, 0], g[:, 1]))) for g in grads)


_TWO_LOBE_CONFIG = pathlib.Path(__file__).parents[1] / "configs" / "two_lobe.json"
_BOUNDARY_DOMAINS = {
    "disk": geometry.StarDomain.disk(),
    "ellipse-off-centre": geometry.StarDomain.ellipse(1.5, 1.0, center=(0.3, -0.2)),
    "two_lobe": cli._domain_from_config(cli.load_config(str(_TWO_LOBE_CONFIG))),
}


def _boundary_cell_refs(mesh, thetas):
    # the curved cell and the reference point (1 - tau, tau) on its edge (1, 2)
    # of each boundary parameter, as the boundary gradient reads them
    wrapped = np.mod(thetas, 2.0 * np.pi)
    dtheta = 2.0 * np.pi / mesh.n_angular
    sector = np.minimum((wrapped / dtheta).astype(np.int64), mesh.n_angular - 1)
    tau = np.clip(wrapped / dtheta - sector, 0.0, 1.0)
    return mesh.plan.b_tri[sector], np.stack([1.0 - tau, tau], axis=-1)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("name", sorted(_BOUNDARY_DOMAINS))
def test_boundary_gradient_matches_element_evaluation(name, n):
    # the two linear forms per boundary cell give grad u_h as the full element
    # map at each point does: at the sector ends (tau = 0 at the start of
    # every sector, tau = 1 at the end of the last one, where theta = -1e-300
    # wraps to 2 pi, and tau within round-off of 1 at the end of the others),
    # the midsides and random theta
    mesh = fem.generate_mesh(_BOUNDARY_DOMAINS[name], n, 4 * n)
    field = fem.solve_torsion(mesh)
    ends = _reference_boundary_thetas(mesh.n_angular)
    rng = np.random.default_rng(n)
    thetas = np.concatenate(
        [ends[:, 0], np.nextafter(ends[:, 1], 0.0), [-1e-300], ends.mean(axis=1), rng.uniform(-10.0, 10.0, 500)]
    )
    els, refs = _boundary_cell_refs(mesh, thetas)
    assert np.any(refs[:, 1] == 0.0) and np.any(refs[:, 1] == 1.0)
    got = fem._boundary_gradient(mesh, field.u, thetas)
    want = fem._eval_in_elements(mesh, field.u, els, refs)[1]
    assert np.max(np.abs(got - want)) <= 1e-14 * float(np.max(np.hypot(want[:, 0], want[:, 1])))


def test_boundary_gradient_rejects_a_folded_boundary_cell():
    # a copy of the mesh with one curved midside pulled inside its chord by
    # half the chord's length: det J changes sign along that boundary edge
    mesh = fem.generate_mesh(geometry.StarDomain.disk(), 16, 64)
    field = fem.solve_torsion(mesh)
    cell = mesh.plan.tri_nodes[mesh.plan.b_tri[5]]
    v1, v2 = mesh.node_xy[cell[1]], mesh.node_xy[cell[2]]
    mid = 0.5 * (v1 + v2)
    node_xy = mesh.node_xy.copy()
    node_xy[cell[4]] = mid - 0.5 * np.hypot(*(v2 - v1)) * mid / np.hypot(*mid)
    folded = dataclasses.replace(mesh, node_xy=node_xy)
    th0, th1 = _reference_boundary_thetas(mesh.n_angular)[5]
    thetas = np.linspace(th0, th1, 9)[:-1]
    with pytest.raises(fem.MeshError, match="non-positive Jacobian"):
        fem._eval_in_elements(folded, field.u, *_boundary_cell_refs(folded, thetas))
    with pytest.raises(fem.MeshError, match="non-positive Jacobian"):
        fem._boundary_gradient(folded, field.u, thetas)
    # the other sectors are untouched
    fem._boundary_gradient(folded, field.u, thetas + (th1 - th0))


@pytest.mark.parametrize(
    "domain,exact,gates",
    [
        # disk: M = R; ellipse a > b: u = (x^2/a^2 + y^2/b^2 - 1) a^2 b^2 / (a^2 + b^2),
        # so M = 2 a^2 b / (a^2 + b^2), at the ends of the minor axis.  Gates are
        # about 1.3 x the measured relative errors
        (geometry.StarDomain.disk(), 1.0, (4.9e-4, 1.25e-4, 3.1e-5)),      # 3.74e-4, 9.43e-5, 2.37e-5
        (geometry.StarDomain.ellipse(1.5, 1.0), 4.5 / 3.25, (2.3e-4, 5.6e-5, 1.4e-5)),  # 1.75e-4, 4.29e-5, 1.06e-5
        (geometry.StarDomain.ellipse(2.0, 1.0), 1.6, (1.3e-4, 3.2e-5, 7.8e-6)),  # 1.01e-4, 2.44e-5, 6.01e-6
    ],
    ids=["disk", "ellipse1.5", "ellipse2"],
)
def test_m_converges_to_exact(domain, exact, gates):
    errs = [
        abs(fem.solve_torsion(fem.generate_mesh(domain, n, 4 * n)).M - exact) / exact for n in (16, 32, 64)
    ]
    assert all(e <= g for e, g in zip(errs, gates)), errs
    # O(h^2): the error falls by at least 3.5 x per halving of h
    assert errs[0] >= 3.5 * errs[1] and errs[1] >= 3.5 * errs[2], errs


def test_eval_at_points_disk():
    disk = geometry.StarDomain.disk()
    field = fem.solve_torsion(fem.generate_mesh(disk, 16, 64))
    rng = np.random.default_rng(7)
    r = 0.95 * np.sqrt(rng.random(50))
    th = 2 * np.pi * rng.random(50)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    vals, grads = fem.eval_at_points(field, pts)
    assert np.max(np.abs(vals - disk_exact(pts))) < 2e-5
    assert np.max(np.abs(grads - pts)) < 2e-3


def test_eval_at_points_rejects_outside():
    disk = geometry.StarDomain.disk()
    field = fem.solve_torsion(fem.generate_mesh(disk, 8, 32))
    with pytest.raises(fem.MeshError):
        fem.eval_at_points(field, np.array([[1.5, 0.0]]))


FOURIER5 = geometry.StarDomain(1.0, [0.0, 0.1, 0.05], [0.05, 0.0, 0.03], center=(0.3, 0.2))


@pytest.mark.parametrize("name", ["ellipse", "fourier5"])
def test_eval_at_points_locates_every_cell(name):
    domain = geometry.StarDomain.ellipse(1.5, 1.0) if name == "ellipse" else FOURIER5
    mesh = fem.generate_mesh(domain, 16, 64)
    field = fem.solve_torsion(mesh)
    plan = mesh.plan
    n_a, nt = mesh.n_angular, plan.tri_nodes.shape[0]
    rng = np.random.default_rng(3)
    # the points are images of known reference points, so the element and its
    # values are known without a search:
    # - one point well inside every triangle, the fan and the curved cells included;
    bary = 0.1 + 0.7 * rng.dirichlet(np.ones(3), nt)
    # - one point between each boundary chord and the curve, near the curved edge (1, 2);
    near_curve = np.full((n_a, 2), 0.499)
    # - points on the rays theta_i, the edges (0, 1) of the fan and (a, d, c)
    #   triangles, and the centre
    on_ray = np.stack([rng.uniform(0.05, 0.95, n_a * mesh.n_radial), np.zeros(n_a * mesh.n_radial)], axis=-1)
    on_ray[0] = 0.0
    els = np.concatenate([np.arange(nt), plan.b_tri, np.arange(n_a), np.arange(n_a, nt, 2)])
    refs = np.concatenate([bary[:, 1:], near_curve, on_ray])
    pts = np.einsum("mk,mkc->mc", fem._shape(refs), mesh.coords[els])
    want_u, want_g = fem._eval_in_elements(mesh, field.u, els, refs)

    d, c = mesh.node_xy[plan.tri_nodes[plan.b_tri, 1]], mesh.node_xy[plan.tri_nodes[plan.b_tri, 2]]
    beyond = pts[nt : nt + n_a] - d
    assert np.all((c[:, 0] - d[:, 0]) * beyond[:, 1] - (c[:, 1] - d[:, 1]) * beyond[:, 0] < 0.0)
    assert np.array_equal(pts[nt + n_a], domain.center)

    # Newton stops curved cells at a position residual of 1e-13 (1 + |x|)
    u, g = fem.eval_at_points(field, pts)
    scale = np.max(np.abs(field.u))
    assert np.max(np.abs(u - want_u)) <= 1e-12 * scale
    # off the edges the element is unique, so the gradient is too
    inside = slice(0, nt + n_a)
    assert np.max(np.abs(g[inside] - want_g[inside])) <= 1e-12 * scale
    if name == "ellipse":
        a2, b2 = 1.5**2, 1.0**2
        s = a2 * b2 / (a2 + b2)
        x, y = (pts - domain.center).T
        assert np.max(np.abs(u - s * (x * x / a2 + y * y / b2 - 1.0))) < 5e-5
        assert np.max(np.abs(g - 2.0 * s * np.stack([x / a2, y / b2], axis=-1))) < 5e-3

    # a point just outside the curved boundary, past a boundary midside node
    th = _reference_boundary_thetas(n_a)[5].mean()
    outside = mesh.node_xy[plan.tri_nodes[plan.b_tri[5], 4]] + 1e-6 * domain.normal(th)
    with pytest.raises(fem.MeshError):
        fem.eval_at_points(field, outside[None, :])


def _reference_locate(field, p):
    # the per-point scan that located points before the structured lookup:
    # Newton inversion in up to 18 candidate triangles around the point's
    # sector and radial block; kept as the reference it must agree with
    mesh = field.mesh
    n_a, n_r = mesh.n_angular, mesh.n_radial
    rel = p - mesh.domain.center
    th = np.mod(np.arctan2(rel[1], rel[0]), 2.0 * np.pi)
    sec = min(int(th * n_a / (2.0 * np.pi)), n_a - 1)
    frac = np.hypot(rel[0], rel[1]) / float(mesh.domain.radius(np.asarray(th)))
    block = min(int(np.searchsorted(mesh.plan.radial_fractions, frac, side="right")), n_r - 1)
    for b in (block, max(block - 1, 0), min(block + 1, n_r - 1)):
        for si in (sec, (sec - 1) % n_a, (sec + 1) % n_a):
            for t in [si] if b == 0 else [n_a * (2 * b - 1) + 2 * si, n_a * (2 * b - 1) + 2 * si + 1]:
                cxy = mesh.node_xy[mesh.plan.tri_nodes[t]]
                ref = np.linalg.solve(np.column_stack([cxy[1] - cxy[0], cxy[2] - cxy[0]]), p - cxy[0])
                for _ in range(30):
                    r = fem._shape(ref) @ cxy - p
                    if float(np.hypot(*r)) < 1e-13 * (1.0 + float(np.hypot(*p))):
                        break
                    ref = ref - np.linalg.solve(np.einsum("kc,kd->cd", cxy, fem._dshape(ref)), r)
                if ref[0] >= -1e-9 and ref[1] >= -1e-9 and ref[0] + ref[1] <= 1.0 + 1e-9:
                    return t, ref
    return None


def test_eval_at_points_matches_reference_scan():
    mesh = fem.generate_mesh(FOURIER5, 8, 32)
    field = fem.solve_torsion(mesh)
    rng = np.random.default_rng(5)
    # random points inside, and a band of +-1% of rho around the boundary
    th = 2.0 * np.pi * rng.random(600)
    frac = np.concatenate([np.sqrt(rng.random(300)), 1.0 + 0.02 * (rng.random(300) - 0.5)])
    pts = FOURIER5.center + (frac * FOURIER5.radius(th))[:, None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    found = [_reference_locate(field, p) for p in pts]
    located = np.array([f is not None for f in found])
    assert 50 < np.sum(~located) < 250
    for p in pts[~located]:
        with pytest.raises(fem.MeshError):
            fem.eval_at_points(field, p[None, :])
    els = np.array([f[0] for f in found if f is not None])
    refs = np.array([f[1] for f in found if f is not None])
    want_u, want_g = fem._eval_in_elements(field.mesh, field.u, els, refs)
    u, g = fem.eval_at_points(field, pts[located])
    scale = np.max(np.abs(field.u))
    # a random point lies on no edge, so both find the same element; the
    # Newton steps in curved cells may differ in the last bits
    assert np.max(np.abs(u - want_u)) <= 1e-14 * scale
    assert np.max(np.abs(g - want_g)) <= 1e-12 * scale


def test_domain_quadrature_moments():
    disk = geometry.StarDomain.disk()
    mesh = fem.generate_mesh(disk, 16, 64)
    pts, wts = fem.domain_quadrature(mesh)
    assert abs(np.sum(wts) - np.pi) < 1e-5
    assert np.max(np.abs(np.einsum("q,qc->c", wts, pts))) < 1e-6
    # second moment of the unit disk is pi/4 per axis
    assert abs(np.sum(wts * pts[:, 0] ** 2) - np.pi / 4) < 1e-5


@pytest.mark.parametrize("domain", [geometry.StarDomain.disk(), FOURIER5], ids=["disk", "fourier5"])
def test_seven_point_area_of_affine_cell(domain):
    # the closed-form weights sum to 1, so each affine cell's 7-point area is
    # det J / 2 to rounding; weights held to 15 digits left it 1.3e-15 short
    assert np.sum(fem._QW) == 1.0
    maps = fem.generate_mesh(domain, 8, 32).maps
    affine = np.ones(maps.det.size, dtype=bool)
    affine[maps.curved] = False
    half = 0.5 * maps.det[affine]
    assert np.all(np.abs(np.sum(maps.qp_w[affine], axis=1) - half) <= 2 * np.spacing(half))


def test_harmonic_deficit_field_disk():
    # on the unit disk u equals q = (|x|^2 - 1)/2, so h = q - u is
    # numerically tiny and its Hessian defect integral is the fem error
    disk = geometry.StarDomain.disk()
    field = fem.solve_torsion(fem.generate_mesh(disk, 16, 64))
    q = 0.5 * (np.einsum("ic,ic->i", field.mesh.node_xy, field.mesh.node_xy) - 1.0)
    assert np.max(np.abs(q - field.u)) < 1e-5
    assert identities.cs_deficit(field).hessian_h_sq < 1e-3


def test_solve_shares_mesh_quadrature():
    # one set of element maps per mesh: the solve and domain_quadrature form
    # the same weights from them, to the bit, and the solve's area is their sum
    mesh = fem.generate_mesh(FOURIER5, 8, 32)
    field = fem.solve_torsion(mesh)
    # the name the perfbench worker and workloads read for the mesh
    assert field.space is mesh
    _, wts = fem.domain_quadrature(mesh)
    assert np.array_equal(wts, mesh.maps.qp_w.ravel())
    assert np.sum(wts) == field.area


def test_solver_determinism():
    disk = geometry.StarDomain.disk()
    f1 = fem.solve_torsion(fem.generate_mesh(disk, 8, 32))
    f2 = fem.solve_torsion(fem.generate_mesh(disk, 8, 32))
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.min_points, f2.min_points)


def test_boundary_midside_nodes_on_curve():
    ell = geometry.StarDomain.ellipse(1.5, 1.0)
    mesh = fem.generate_mesh(ell, 8, 32)
    pts = mesh.node_xy[mesh.plan.n_in :]
    a, b = 1.5, 1.0
    lvl = pts[:, 0] ** 2 / a**2 + pts[:, 1] ** 2 / b**2
    assert np.max(np.abs(lvl - 1.0)) < 1e-4  # truncated Fourier boundary


def _reference_edge_tables(mesh):
    # a dict loop over the mesh's triangles: the P2 node ids that each vertex
    # and each edge receives, and the triangle and local edge of each boundary
    # edge, an edge of one triangle, in sector order
    tris, tri_nodes = _reference_triangles(mesh.n_radial, mesh.n_angular), mesh.plan.tri_nodes
    edge_locals = ((0, 1), (1, 2), (2, 0))
    vertex_ids, edge_ids, edge_tris = {}, {}, {}
    for t in range(tris.shape[0]):
        for k in range(3):
            vertex_ids.setdefault(int(tris[t, k]), set()).add(int(tri_nodes[t, k]))
        for le, (la, lb) in enumerate(edge_locals):
            a, b = int(tris[t, la]), int(tris[t, lb])
            key = (a, b) if a < b else (b, a)
            edge_ids.setdefault(key, set()).add(int(tri_nodes[t, 3 + le]))
            edge_tris.setdefault(key, []).append((t, le))
    outer = 1 + (mesh.n_radial - 1) * mesh.n_angular + np.arange(mesh.n_angular)
    bedges = np.stack([outer, np.roll(outer, -1)], axis=-1)
    assert {key for key, on in edge_tris.items() if len(on) == 1} == {tuple(sorted(e)) for e in bedges.tolist()}
    b_tri, b_local, b_forward, b_mid = [], [], [], []
    for a, b in bedges.tolist():
        key = (min(a, b), max(a, b))
        (t, le), = edge_tris[key]
        b_tri.append(t)
        b_local.append(le)
        b_forward.append(int(tris[t, edge_locals[le][0]]) == a)
        b_mid.append(next(iter(edge_ids[key])))
    return vertex_ids, edge_ids, np.array(b_tri), np.array(b_local), np.array(b_forward), np.array(b_mid)


@pytest.mark.parametrize("n_radial,n_angular", [(8, 32), (32, 128)])
def test_p2_topology_matches_reference_loop(n_radial, n_angular):
    dom = geometry.StarDomain(1.0, [0.0, 0.1, 0.05], [0.05, 0.0, 0.03], center=(0.3, 0.2))
    mesh = fem.generate_mesh(dom, n_radial, n_angular)
    vertex_ids, edge_ids, b_tri, b_local, b_forward, b_mid = _reference_edge_tables(mesh)
    # each vertex and each edge maps to exactly one node id, shared by all of
    # its triangles, and the vertices and edges together take every id once
    ids = [i for owner in (vertex_ids, edge_ids) for i in owner.values()]
    assert all(len(i) == 1 for i in ids)
    assert sorted(next(iter(i)) for i in ids) == list(range(mesh.n_nodes))
    assert np.array_equal(mesh.plan.b_tri, b_tri)
    # the lookups read every boundary edge as local edge (1, 2), running forward
    assert np.all(b_local == 1) and np.all(b_forward)
    assert np.array_equal(mesh.plan.tri_nodes[mesh.plan.b_tri, 4], b_mid)
    th_mid = _reference_boundary_thetas(n_angular).mean(axis=1)
    on_curve = np.array([dom.point(th) for th in th_mid])
    assert np.max(np.abs(mesh.node_xy[b_mid] - on_curve)) <= 1e-15


# rho = 1 + 0.5 cos 2theta is symmetric under the point reflection about its
# center, and u has one minimum in each lobe
TWO_LOBE = geometry.StarDomain(1.0, [0.0, 0.5], center=(0.2, -0.1))


def test_min_points_finds_both_minima():
    center = TWO_LOBE.center
    field = fem.solve_torsion(fem.generate_mesh(TWO_LOBE, 16, 64))
    assert field.min_points.shape == (2, 2)
    assert np.max(np.abs(field.min_points[0] + field.min_points[1] - 2.0 * center)) < 1e-9
    assert field.min_points[0][0] < center[0] - 0.4
    assert field.min_points[1][0] > center[0] + 0.4


def _reference_min_points(mesh, u_full):
    # the walk over a node x element incidence matrix that _min_points made
    # before it read the interior stiffness pattern; kept as the reference.
    # Also says whether a two-ring patch reached a boundary node, which the
    # pattern leaves out
    tri_nodes = mesh.plan.tri_nodes
    nt = tri_nodes.shape[0]
    incidence = sp.csr_matrix(
        (np.ones(6 * nt), (tri_nodes.ravel(), np.repeat(np.arange(nt), 6))), shape=(mesh.n_nodes, nt)
    )

    def neighbours(nodes):
        mark = np.zeros(mesh.n_nodes, dtype=bool)
        for node in nodes:
            mark[tri_nodes[incidence.indices[incidence.indptr[node]:incidence.indptr[node + 1]]]] = True
        return np.flatnonzero(mark)

    cand = np.nonzero(u_full <= float(np.min(u_full)) + 1e-9 * float(np.max(np.abs(u_full))))[0]
    unseen = np.zeros(mesh.n_nodes, dtype=bool)
    unseen[cand] = True
    out, on_boundary = [], False
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
        seed = comp[np.lexsort((comp, u_full[comp]))[0]]
        patch = neighbours(neighbours(comp))
        on_boundary |= bool(np.any(patch >= mesh.plan.n_in))
        xy = mesh.node_xy[patch] - mesh.node_xy[seed]
        scale = max(float(np.max(np.abs(xy))), 1e-30)
        xs, ys = xy[:, 0] / scale, xy[:, 1] / scale
        design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
        coef, *_ = np.linalg.lstsq(design, u_full[patch], rcond=None)
        hess = np.array([[2.0 * coef[3], coef[4]], [coef[4], 2.0 * coef[5]]])
        z = mesh.node_xy[seed].copy()
        if np.linalg.det(hess) > 0.0 and hess[0, 0] > 0.0:
            step = np.linalg.solve(hess, -coef[1:3])
            if float(np.hypot(*step)) <= 2.0:
                z = mesh.node_xy[seed] + scale * step
        out.append(z)
    out.sort(key=lambda v: (v[0], v[1]))
    return np.asarray(out), on_boundary


@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (8, 32), (16, 64)])
@pytest.mark.parametrize(
    "domain", [TWO_LOBE, FOURIER5, geometry.StarDomain(1.0, [0.0, 0.0, 0.1])], ids=["two_lobe", "fourier5", "cos3-0.1"]
)
def test_min_points_match_incidence_walk(domain, n_radial, n_angular):
    # the stiffness pattern links the interior nodes that share an element,
    # so the walk over it is the incidence walk wherever no patch reaches
    # the boundary
    field = fem.solve_torsion(fem.generate_mesh(domain, n_radial, n_angular))
    want, on_boundary = _reference_min_points(field.mesh, field.u)
    assert not on_boundary
    assert np.array_equal(field.min_points, want)


def test_solve_forms_m_and_min_points_on_first_read():
    field = fem.solve_torsion(fem.generate_mesh(TWO_LOBE, 8, 32))
    assert not {"M", "min_points", "hessian_samples"} & vars(field).keys()
    m, z = field.M, field.min_points
    assert vars(field)["M"] is m and vars(field)["min_points"] is z
    assert field.M is m and field.min_points is z


# second derivatives of the shape functions as full 2x2 blocks, the layout the
# einsum kernels used
_D2N_FULL = np.array(
    [
        [[4.0, 4.0], [4.0, 4.0]],
        [[4.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 4.0]],
        [[-8.0, -4.0], [-4.0, 0.0]],
        [[0.0, 4.0], [4.0, 0.0]],
        [[0.0, -4.0], [-4.0, -8.0]],
    ]
)


def _reference_kernels(mesh, u_full):
    # the batched einsum kernels that assembled the full matrix and recovered
    # the derivatives before the entry-wise version; kept as the reference
    # the new kernels must reproduce
    coords = mesh.coords
    nt = coords.shape[0]

    def inverse_jacobian(dn):
        jac = np.einsum("tkc,kd->tcd", coords, dn)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], axis=-1)
        return inv.reshape(nt, 2, 2) / det[:, None, None]

    ke = np.zeros((nt, 6, 6))
    fe = np.zeros((nt, 6))
    for qi in range(7):
        gp = np.einsum("kd,tdc->tkc", fem._DN_AT_QP[qi], inverse_jacobian(fem._DN_AT_QP[qi]))
        w = mesh.maps.qp_w[:, qi]
        ke += w[:, None, None] * np.einsum("tkc,tlc->tkl", gp, gp)
        fe += w[:, None] * (-2.0) * fem._N_AT_QP[qi][None, :]
    rows = np.broadcast_to(mesh.plan.tri_nodes[:, :, None], (nt, 6, 6)).ravel()
    cols = np.broadcast_to(mesh.plan.tri_nodes[:, None, :], (nt, 6, 6)).ravel()
    shape = (mesh.n_nodes, mesh.n_nodes)
    a_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=shape).tocsr()
    f_full = np.zeros(mesh.n_nodes)
    np.add.at(f_full, mesh.plan.tri_nodes.ravel(), fe.ravel())
    n_in = mesh.plan.n_in

    u_el = u_full[mesh.plan.tri_nodes]
    href = np.einsum("tk,kde->tde", u_el, _D2N_FULL)
    cmap = np.einsum("tkc,kde->tcde", coords, _D2N_FULL)

    def hessian(dn):
        inv = inverse_jacobian(dn)
        g = np.einsum("td,tdc->tc", np.einsum("tk,kd->td", u_el, dn), inv)
        tmp = href - np.einsum("tc,tcde->tde", g, cmap)
        return np.einsum("tdc,tde,tef->tcf", inv, tmp, inv)

    qp_h = np.empty((nt, 7, 2, 2))
    for qi in range(7):
        qp_h[:, qi] = hessian(fem._DN_AT_QP[qi])
    return (
        a_full[:n_in, :n_in],
        f_full[:n_in],
        np.einsum("tk,qk->tq", u_el, fem._N_AT_QP),
        np.stack([qp_h[..., 0, 0], qp_h[..., 0, 1], qp_h[..., 1, 1]]),
    )


@pytest.mark.parametrize(
    "domain",
    [
        geometry.StarDomain(1.0, [0.0, 0.1, 0.05], [0.05, 0.0, 0.03], center=(0.3, 0.2)),
        geometry.StarDomain.ellipse(1.5, 1.0),
    ],
    ids=["fourier5", "ellipse"],
)
@pytest.mark.parametrize("n_radial,n_angular", [(8, 32), (16, 64)])
def test_element_kernels_match_einsum_reference(domain, n_radial, n_angular):
    mesh = fem.generate_mesh(domain, n_radial, n_angular)
    a_in, b_in, _ = fem._assemble_interior(mesh)
    # both sides differentiate the same u, so no CG round-off enters
    u_full = fem.solve_torsion(mesh).u
    ref = _reference_kernels(mesh, u_full)

    a_ref = ref[0]
    assert a_in.shape == a_ref.shape
    assert abs(a_in - a_ref).max() <= 1e-13 * abs(a_ref).max()
    assert np.max(np.abs(b_in - ref[1])) <= 1e-13 * np.max(np.abs(ref[1]))
    qp_u, qp_hess = ref[2:]

    # the Hessian samples: one per affine cell, 7 per curved cell, point-major
    w, wu, hess, cell = fem._hessian_samples(mesh, u_full)
    curved = mesh.plan.b_tri
    affine = np.setdiff1d(np.arange(mesh.plan.tri_nodes.shape[0]), curved)
    assert np.array_equal(cell, np.concatenate([affine, np.tile(curved, 7)]))
    # an affine cell's reference Hessian is the same at all 7 points up to
    # its map-curvature term, which is round-off there
    want = np.concatenate([qp_hess[:, affine, 0], qp_hess[:, curved].transpose(0, 2, 1).reshape(3, -1)], axis=1)
    assert np.max(np.abs(np.stack(hess) - want)) <= 1e-12 * np.max(np.abs(want))
    # per cell, the weights sum to the 7-point area and wu to the 7-point
    # integral of u_h (an affine cell's area is det J / 2, the 7 weights sum
    # to it within 1.4e-15 relative); on a curved cell each sample is one
    # quadrature point
    area = np.sum(mesh.maps.qp_w, axis=1)
    assert np.max(np.abs(np.bincount(cell, w) - area) / area) <= 1e-14
    int_u = np.sum(mesh.maps.qp_w * qp_u, axis=1)
    assert np.max(np.abs(np.bincount(cell, wu) - int_u)) <= 1e-14 * np.max(np.abs(int_u))
    n_affine = affine.size
    assert np.array_equal(w[n_affine:], mesh.maps.qp_w[curved].T.ravel())
    want = (mesh.maps.qp_w * qp_u)[curved].T.ravel()
    assert np.max(np.abs(wu[n_affine:] - want)) <= 1e-14 * np.max(np.abs(want))
    assert abs(np.sum(w) - np.sum(mesh.maps.qp_w)) <= 1e-14 * np.sum(mesh.maps.qp_w)
    assert abs(np.sum(wu) - np.sum(int_u)) <= 1e-14 * np.sum(np.abs(int_u))


def _long_double_dshape(pts):
    # _dshape evaluated in long double, where the derivatives sum to zero
    xi, eta = pts[:, 0].astype(np.longdouble), pts[:, 1].astype(np.longdouble)
    lam, zero = 1 - xi - eta, np.zeros_like(xi)
    dx = np.stack([1 - 4 * lam, 4 * xi - 1, zero, 4 * (lam - xi), 4 * eta, -4 * eta], axis=-1)
    dy = np.stack([1 - 4 * lam, zero, 4 * eta - 1, -4 * xi, 4 * xi, 4 * (lam - eta)], axis=-1)
    return np.stack([dx, dy], axis=-1)


def _jacobian_error(det, inv, ref):
    # per-element relative (Frobenius) error of J, read back from det J and
    # J^-1 = [[a, b], [c, d]] as det (d, -b, -c, a): two roundings per entry
    a, b, c, d = inv
    jac = np.stack([d * det, -b * det, -c * det, a * det])
    return np.sqrt(np.sum((jac - ref) ** 2, axis=0) / np.sum(ref**2, axis=0))


@pytest.mark.parametrize("n_radial,n_angular", [(16, 64), (32, 128), (64, 256)])
def test_element_maps_accurate_off_centre(n_radial, n_angular):
    # FOURIER5 is centred at (0.3, 0.2): from absolute coordinates an element
    # of size h loses about log10(0.36 / h) digits of J to cancellation
    # (9.5e-15 at 16x64, 4.3e-14 at 64x256)
    mesh = fem.generate_mesh(FOURIER5, n_radial, n_angular)
    coords, maps = mesh.coords, mesh.maps
    dn = _long_double_dshape(fem._QP)
    ref = np.einsum("tkc,qkd->cdqt", coords.astype(np.longdouble), dn).reshape(4, 7, -1)
    # an affine cell takes J once, at the centroid _QP[0]; a curved one at every point
    assert np.max(_jacobian_error(maps.det, maps.inv, ref[:, 0])) <= 1e-15
    det, *inv = fem._element_maps(coords[maps.curved], fem._MAP_QP)
    assert np.max(_jacobian_error(det, inv, ref[:, :, maps.curved])) <= 1e-15
    det, *inv = fem._inverse_jacobian(coords, np.broadcast_to(fem._DN_AT_QP[1], coords.shape))
    assert np.max(_jacobian_error(det, inv, ref[:, 1])) <= 1e-15


@pytest.mark.parametrize(
    "domain",
    [geometry.StarDomain.disk(), geometry.StarDomain.ellipse(1.5, 1.0), FOURIER5],
    ids=["disk", "ellipse", "fourier5"],
)
@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (16, 64)])
def test_only_b_tri_cells_are_curved(domain, n_radial, n_angular):
    # the contract the affine kernels rest on: every cell outside b_tri has
    # its midside nodes bitwise at the midpoints of their edges, so its map
    # is affine; a b_tri cell has its node 4 on the curve
    mesh = fem.generate_mesh(domain, n_radial, n_angular)
    coords = mesh.coords
    midpoints = 0.5 * (coords[:, _EDGE_LOCALS[:, 0]] + coords[:, _EDGE_LOCALS[:, 1]])
    affine = np.setdiff1d(np.arange(mesh.plan.tri_nodes.shape[0]), mesh.plan.b_tri)
    assert np.array_equal(coords[affine, 3:], midpoints[affine])
    assert np.array_equal(mesh.maps.curved, mesh.plan.b_tri)
    th_mid = _reference_boundary_thetas(n_angular).mean(axis=1)
    assert np.array_equal(coords[mesh.plan.b_tri, 4], domain.point(th_mid))


# the local nodes at the ends of the edges whose midsides are local nodes 3, 4, 5
_EDGE_LOCALS = np.array([[0, 1], [1, 2], [2, 0]])


def _reference_triangles(n_radial, n_angular):
    # the vertex ids triangle by triangle: the centre fan, then the pair
    # (a, d, c), (a, c, b) of each ring j and sector i, with a, b on ring j
    # and d, c on ring j + 1
    def vid(j, i):
        return 1 + (j - 1) * n_angular + i % n_angular

    tris = [(0, vid(1, i), vid(1, i + 1)) for i in range(n_angular)]
    for j in range(1, n_radial):
        for i in range(n_angular):
            a, b, c, d = vid(j, i), vid(j, i + 1), vid(j + 1, i + 1), vid(j + 1, i)
            tris += [(a, d, c), (a, c, b)]
    return np.array(tris)


def _reference_vertices(mesh):
    # the vertex array the mesh held: the centre, then vertex
    # 1 + (j - 1) n_angular + i at radial fraction s_j of rho(theta_i)
    n_a, domain = mesh.n_angular, mesh.domain
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    rho = domain.radius(theta)
    s = mesh.plan.radial_fractions
    verts = np.empty((1 + s.size * n_a, 2))
    verts[0] = domain.center
    verts[1:, 0] = (domain.center[0] + s[:, None] * rho * np.cos(theta)).ravel()
    verts[1:, 1] = (domain.center[1] + s[:, None] * rho * np.sin(theta)).ravel()
    return verts


def _reference_boundary_thetas(n_angular):
    # the theta parameters of the endpoints of each boundary edge, sector by sector
    edge = np.arange(n_angular + 1) * (2.0 * np.pi / n_angular)
    return np.stack([edge[:-1], edge[1:]], axis=-1)


def _vertex_node_ids(n_radial, n_angular):
    # the P2 node id of each vertex id: vertex i of ring j sits at lattice
    # (2j, 2i), slot 4j - 3 of sector i
    ring, sector = np.divmod(np.arange(n_radial * n_angular), n_angular)
    return np.concatenate([[0], 1 + (4 * ring + 1) * n_angular + sector])


def _reference_cell_arrays(mesh):
    # the cell coordinates (nt, 6, 2) and quadrature weights (nt, 7) built
    # per triangle and stored, as the P2 space did before it kept only the node
    # positions and the element maps
    n_a = mesh.n_angular
    tris = _reference_triangles(mesh.n_radial, n_a)
    coords = np.empty((tris.shape[0], 6, 2))
    coords[:, :3] = _reference_vertices(mesh)[tris]
    for e, (k, l) in enumerate(_EDGE_LOCALS):
        coords[:, 3 + e] = 0.5 * (coords[:, k] + coords[:, l])
    b_tri = tris.shape[0] - 2 * n_a + 2 * np.arange(n_a)
    th = _reference_boundary_thetas(n_a)
    coords[b_tri, 4] = mesh.domain.point(0.5 * (th[:, 0] + th[:, 1]))
    det = fem._element_maps(coords, fem._MAP_CENTROID)[0][0]
    qp_det = fem._element_maps(coords[b_tri], fem._MAP_QP)[0]
    qp_w = np.ascontiguousarray(((0.5 * fem._QW)[:, None] * det).T)
    qp_w[b_tri] = ((0.5 * fem._QW)[:, None] * qp_det).T
    return coords, qp_w


@pytest.mark.parametrize(
    "domain",
    [geometry.StarDomain.disk(), geometry.StarDomain.ellipse(1.5, 1.0), FOURIER5],
    ids=["disk", "ellipse", "fourier5"],
)
@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (16, 64)])
def test_cell_arrays_formed_on_read_match_per_triangle_reference(domain, n_radial, n_angular):
    # the nodes placed on the lattice, gathered as node_xy[tri_nodes], and
    # the weights formed from det J and the curved cells' weights are bitwise
    # what building and storing them per triangle gave
    mesh = fem.generate_mesh(domain, n_radial, n_angular)
    coords, qp_w = _reference_cell_arrays(mesh)
    want = _vertex_node_ids(n_radial, n_angular)[_reference_triangles(n_radial, n_angular)]
    assert np.array_equal(mesh.plan.tri_nodes[:, :3], want)
    assert np.array_equal(mesh.coords, coords)
    assert np.array_equal(mesh.maps.qp_w, qp_w)


@pytest.mark.parametrize("n_radial,n_angular", [(16, 64), (32, 128), (64, 256)])
def test_affine_cell_hessian_of_quadratic(n_radial, n_angular):
    # q = (x - c).H.(x - c) / 2 interpolated at the P2 nodes: an affine cell
    # is one Hessian sample, the constant J^-T href J^-1 with no map-curvature
    # term, weighted by its area, and it equals H up to the rounding of the
    # nodal values, which grows like 1 / area: area * |hess - H| measured
    # <= 2.9e-15 here (the rounding of q alone allows about as much)
    mesh = fem.generate_mesh(FOURIER5, n_radial, n_angular)
    hess = np.array([[1.0, -0.3], [-0.3, 0.7]])
    xy = mesh.node_xy - FOURIER5.center
    q = 0.5 * np.einsum("ni,ij,nj->n", xy, hess, xy)
    w, _, h, cell = fem._hessian_samples(mesh, q)
    on_affine = ~np.isin(cell, mesh.plan.b_tri)
    affine = np.setdiff1d(np.arange(mesh.plan.tri_nodes.shape[0]), mesh.plan.b_tri)
    assert np.array_equal(cell[on_affine], affine)
    err = np.max(np.abs(np.stack(h)[:, on_affine] - np.array([1.0, -0.3, 0.7])[:, None]), axis=0)
    assert np.allclose(w[on_affine], np.sum(mesh.maps.qp_w[affine], axis=1), rtol=1e-14, atol=0.0)
    assert np.max(err * w[on_affine]) <= 1e-14


def test_folded_curved_element_raises_mesh_error():
    # rho = 1 + 0.45 cos 16 theta puts every boundary vertex of a 16-sector
    # mesh at radius 1.45 and every curved midside node at 0.55, inside the
    # last ring of vertices, so the boundary element maps fold over
    dom = geometry.StarDomain(1.0, [0.0] * 15 + [0.45])
    with pytest.raises(fem.MeshError, match="non-positive Jacobian"):
        fem.generate_mesh(dom, 4, 16)


def test_solve_memory_peak_bounded():
    # the assembly sets the solve's peak, in units of one full (36, nt)
    # element-matrix array: building the full matrix and then slicing out the
    # interior block needed 9.4, one bincount over 36 slots 2.63, and the
    # 21-entry kernel added in place into the CSR data 1.24, or 1.30 now
    # that the solve forms the (nt, 7) weights itself
    mesh = fem.generate_mesh(geometry.StarDomain(1.0, [0.0, 0.0, 0.05]), 32, 128)
    ke_bytes = 36 * mesh.plan.tri_nodes.shape[0] * 8
    tracemalloc.start()
    try:
        fem.solve_torsion(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ke_bytes


def _own_nbytes(objs, plan):
    # bytes of the distinct ndarrays the objects hold, directly or in
    # tuples, leaving out those that share memory with the plan's arrays
    shared = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    seen = {}

    def walk(v):
        if isinstance(v, np.ndarray):
            seen[id(v)] = v
        elif isinstance(v, tuple):
            for e in v:
                walk(e)

    for obj in objs:
        for v in vars(obj).values():
            walk(v)
    return sum(a.nbytes for a in seen.values() if not any(np.shares_memory(a, s) for s in shared))


def test_solved_field_keeps_only_what_it_cannot_re_read():
    # what a kept field holds beyond its plan: u, the P2 node positions and
    # the element maps, 0.75 MB at 32x128.  Storing the mesh vertices as well
    # made it 0.82 MB, and the cell coordinates, the (nt, 7) weights and the
    # triangle table on top 2.23 MB
    mesh = fem.generate_mesh(geometry.StarDomain(1.0, [0.0, 0.0, 0.05]), 32, 128)
    field = fem.solve_torsion(mesh)
    assert _own_nbytes((field, mesh, mesh.maps), mesh.plan) <= 0.8e6
    # the node table depends on the topology alone: two meshes of one
    # topology read the plan's table, with the vertices in triangle order
    other = fem.generate_mesh(FOURIER5, 32, 128)
    want = _vertex_node_ids(32, 128)[_reference_triangles(32, 128)]
    assert other.plan.tri_nodes is mesh.plan.tri_nodes
    assert np.array_equal(mesh.plan.tri_nodes[:, :3], want)


@pytest.fixture
def empty_plans(monkeypatch):
    # a private, empty plan cache: these tests neither read nor evict the shared one
    monkeypatch.setattr(fem, "_plan", functools.lru_cache(maxsize=8)(fem._Plan))
    return fem._plan


def test_cold_plan_memory_peak_bounded(empty_plans):
    # building the topology plan, the mesh and the solve together: 2.84
    # full element-matrix arrays, 3.31 while the mesh stored its cell
    # coordinates and (nt, 7) weights, 4.78 with the 36-entry bincount
    # assembly
    ke_bytes = 36 * 128 * (2 * 32 - 1) * 8
    tracemalloc.start()
    try:
        fem.solve_torsion(fem.generate_mesh(geometry.StarDomain(1.0, [0.0, 0.0, 0.05]), 32, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert empty_plans.cache_info().currsize == 1
    assert peak <= 3 * ke_bytes


def test_plan_shared_per_topology(empty_plans):
    m1 = fem.generate_mesh(geometry.StarDomain.disk(), 8, 32)
    m2 = fem.generate_mesh(FOURIER5, 8, 32)
    assert m1.plan is m2.plan
    assert m1.plan.precond is m2.plan.precond
    assert fem.generate_mesh(FOURIER5, 8, 36).plan is not m1.plan
    assert empty_plans.cache_info().currsize == 2


def _plan_arrays(plan):
    out = {name: v for name, v in vars(plan).items() if isinstance(v, np.ndarray)}
    out.update(pre_factor=plan.precond.factor)
    return out


def test_plan_arrays_read_only(empty_plans):
    arrays = _plan_arrays(fem.generate_mesh(FOURIER5, 8, 32).plan)
    assert {"radial_fractions", "tri_nodes", "b_tri", "indptr", "indices", "slot_up", "slot_lo"} <= set(arrays)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name


def test_ninth_topology_evicts_oldest(empty_plans):
    disk = geometry.StarDomain.disk()
    first = fem.generate_mesh(disk, 4, 16).plan
    for n_angular in range(20, 52, 4):
        fem.generate_mesh(disk, 4, n_angular)
    assert empty_plans.cache_info().currsize == 8
    rebuilt = fem.generate_mesh(FOURIER5, 4, 16).plan
    assert rebuilt is not first
    assert (rebuilt.n_radial, rebuilt.n_angular) == (first.n_radial, first.n_angular)
    want, got = _plan_arrays(first), _plan_arrays(rebuilt)
    assert want.keys() == got.keys()
    for name, arr in want.items():
        assert arr.dtype == got[name].dtype and np.array_equal(arr, got[name]), name


def _reference_element_stiffness(maps):
    # the 36-entry kernel the 21-entry one replaced: the full element
    # matrices entry-major, (36, nt), row 6k + l holding entry (k, l)
    dd = fem._DN_AT_QP[:, :, None, :, None] * fem._DN_AT_QP[:, None, :, None, :]   # (q, k, l, d, e)
    ke_qp = np.stack([dd[..., 0, 0], dd[..., 0, 1] + dd[..., 1, 0], dd[..., 1, 1]], axis=1).reshape(21, 36)
    ke_affine = (fem._QW @ ke_qp.reshape(7, 108)).reshape(3, 36)
    a, b, c, d = maps.inv
    g = np.stack([a * a + b * b, a * c + b * d, c * c + d * d])
    g *= 0.5 * maps.det
    ke = ke_affine.T @ g
    a, b, c, d = maps.qp_inv
    g = np.stack([a * a + b * b, a * c + b * d, c * c + d * d], axis=1)
    g *= maps.qp_w[maps.curved].T[:, None, :]
    ke[:, maps.curved] = ke_qp.T @ g.reshape(21, -1)
    return ke


def _reference_interior_matrix(mesh, ke):
    # the full element matrices ke (36, nt) assembled as before the plan: COO
    # triplets in (local entry, element) order without the Dirichlet rows and
    # columns (ids >= n_in), converted to CSR with each entry's duplicates
    # summed left to right in that order.  scipy's sum_duplicates is not
    # used: it sorts the duplicates first, in no fixed order
    n_in = mesh.plan.n_in
    el = mesh.plan.tri_nodes.T
    rows, cols = np.repeat(el, 6, axis=0).ravel(), np.tile(el, (6, 1)).ravel()
    keep = (rows < n_in) & (cols < n_in)
    rows, cols, vals = rows[keep], cols[keep], ke.ravel()[keep]
    order = np.lexsort((cols, rows))    # stable: duplicates keep their order
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    entry = np.repeat(np.arange(first.size), np.diff(np.r_[first, rows.size]))
    rank = np.arange(rows.size) - first[entry]
    data = np.zeros(first.size)
    for r in range(rank.max() + 1):
        at = rank == r
        data[entry[at]] += vals[at]
    indptr = np.searchsorted(rows[first], np.arange(n_in + 1))
    return sp.csr_matrix((data, cols[first], indptr), shape=(n_in, n_in))


_ASSEMBLY_DOMAINS = {
    "fourier5": FOURIER5,
    "ellipse": geometry.StarDomain.ellipse(1.5, 1.0),
    "two_lobe": geometry.StarDomain(1.0, [0.0, 0.0, 0.5]),
}


@pytest.mark.parametrize("n_radial,n_angular", [(8, 32), (16, 64), (32, 128), (64, 256)])
def test_planned_matrix_matches_coo_reference(n_radial, n_angular):
    # the 21 distinct entries scattered through slot_up and slot_lo sum to
    # the bit what the full matrices summed in (local entry, element) order
    # give: an off-diagonal entry gets at most two terms, and the diagonal
    # ones keep that order
    for name, domain in _ASSEMBLY_DOMAINS.items():
        mesh = fem.generate_mesh(domain, n_radial, n_angular)
        a_in, _, _ = fem._assemble_interior(mesh)
        ke = _reference_element_stiffness(mesh.maps)
        assert np.array_equal(fem._element_stiffness(mesh.maps)[fem._FULL], ke), name
        ref = _reference_interior_matrix(mesh, ke)
        assert np.array_equal(a_in.indptr, ref.indptr), name
        assert np.array_equal(a_in.indices, ref.indices), name
        assert np.array_equal(a_in.data, ref.data), name
    # the centre (dof 0, whose row starts with itself) sums one diagonal entry
    # per fan triangle; a count kept in a narrow integer type wraps at 128
    # sectors and drops this entry
    assert a_in.indices[0] == 0
    assert np.count_nonzero(mesh.plan.slot_up == 0) == n_angular
    assert not np.any(mesh.plan.slot_lo == 0)


@pytest.mark.parametrize("n_radial,n_angular", [(8, 32), (64, 256)])
def test_preconditioner_factor_matches_full_kernel(monkeypatch, empty_plans, n_radial, n_angular):
    # the preconditioner expands the assembly's 21 entries of its few element
    # matrices by _FULL; the full-matrix reference kernel's 36-row product
    # rounds differently on so few cells (the two factors differ by up to
    # 4.5e-16 here), so they agree to round-off only
    plan = fem.generate_mesh(geometry.StarDomain.disk(), n_radial, n_angular).plan
    upper = 6 * fem._UPPER[:, 0] + fem._UPPER[:, 1]
    monkeypatch.setattr(fem, "_element_stiffness", lambda maps: _reference_element_stiffness(maps)[upper])
    ref = fem._PolarPreconditioner(plan).factor
    assert np.max(np.abs(plan.precond.factor - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (8, 32), (64, 256)])
def test_preconditioner_cells_are_disk_mesh_cells(monkeypatch, n_radial, n_angular):
    # the preconditioner lays sector 0's cells on the unit disk by the mesh's
    # own placement, so they are bitwise the disk mesh's cells; a placement of
    # its own differed by up to 1.1e-16 at these sizes
    disk = fem.generate_mesh(geometry.StarDomain.disk(), n_radial, n_angular)
    seen = []
    of = fem._CellMaps.of
    monkeypatch.setattr(fem._CellMaps, "of", lambda coords, curved: seen.append((coords, curved)) or of(coords, curved))
    # a fresh plan, built from the topology alone
    fem._Plan(n_radial, n_angular)
    ((coords, curved),) = seen
    # the fan's first triangle and the first pair of each ring
    cells = np.r_[0, (n_angular * (2 * np.arange(1, n_radial) - 1)[:, None] + [0, 1]).ravel()]
    assert np.array_equal(coords, disk.coords[cells])
    assert np.array_equal(cells[curved], disk.plan.b_tri[:1])


def _reference_h(mesh):
    # the longest edge of every triangle, from the gathered vertices: how
    # generate_mesh took h before it read h off the vertex lattice
    p = _reference_vertices(mesh)[_reference_triangles(mesh.n_radial, mesh.n_angular)]
    edge_vec = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.max(np.hypot(edge_vec[:, 0], edge_vec[:, 1])))


@pytest.mark.parametrize("name", sorted(_ASSEMBLY_DOMAINS))
@pytest.mark.parametrize("n_radial,n_angular", [(16, 64), (32, 128), (64, 256)])
def test_mesh_h_is_longest_triangle_edge(name, n_radial, n_angular):
    mesh = fem.generate_mesh(_ASSEMBLY_DOMAINS[name], n_radial, n_angular)
    assert mesh.h == _reference_h(mesh)


def _reference_polar_lattice(mesh):
    # the midside averaging, wrapping in theta, that placed the P2 nodes on
    # the polar lattice before the per-triangle patterns; kept as the
    # reference they must reproduce exactly.  Mesh vertex 1 + (j-1) n_a + i
    # sits at (2j, 2i), whatever its node id
    n_a = mesh.n_angular
    tri_nodes = mesh.plan.tri_nodes
    lat = np.zeros((mesh.n_nodes, 2), dtype=np.int64)
    v = _reference_triangles(mesh.n_radial, n_a) - 1
    lat[tri_nodes[:, :3], 0] = np.where(v < 0, 0, 2 * (v // n_a + 1))
    lat[tri_nodes[:, :3], 1] = np.where(v < 0, 0, 2 * (v % n_a))
    for e, (la, lb) in enumerate(((0, 1), (1, 2), (2, 0))):
        p, q = tri_nodes[:, la], tri_nodes[:, lb]
        kp = np.where(p == 0, lat[q, 1], lat[p, 1])
        kq = np.where(q == 0, lat[p, 1], lat[q, 1])
        mid = tri_nodes[:, 3 + e]
        lat[mid, 0] = (lat[p, 0] + lat[q, 0]) // 2
        lat[mid, 1] = (kp + kq + np.where(np.abs(kp - kq) > 2, 2 * n_a, 0)) // 2 % (2 * n_a)
    return lat


@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (8, 32), (16, 64)])
def test_polar_lattice_matches_reference(n_radial, n_angular):
    # node id 1 + s n_angular + k is slot s of sector k; read back to (J, K)
    mesh = fem.generate_mesh(FOURIER5, n_radial, n_angular)
    ids = np.arange(1, mesh.n_nodes)
    slot, sector = np.divmod(ids - 1, n_angular)
    jj = np.where(slot == 0, 1, (slot + 3) // 2)
    kk = 2 * sector + np.where(slot == 0, 0, (slot + 1) % 2)
    ref = _reference_polar_lattice(mesh)
    assert np.array_equal(ref[0], [0, 0])
    assert np.array_equal(ref[1:], np.stack([jj, kk], axis=-1))
    # the per-triangle lattice the plan numbers from
    got = fem._polar_lattice(n_radial, n_angular)
    off_centre = mesh.plan.tri_nodes != 0
    assert np.array_equal(got[0][off_centre], ref[mesh.plan.tri_nodes, 0][off_centre])
    assert np.array_equal(got[1][off_centre], ref[mesh.plan.tri_nodes, 1][off_centre])


@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (16, 64)])
def test_node_ids_biject_onto_slots_and_end_on_the_curve(n_radial, n_angular):
    # every (slot, sector) pair holds exactly one node past the centre, and
    # the ids from n_in on are exactly the nodes on the boundary curve
    mesh = fem.generate_mesh(FOURIER5, n_radial, n_angular)
    n_in = mesh.plan.n_in
    assert n_in == 1 + (4 * n_radial - 3) * n_angular
    assert mesh.n_nodes == n_in + 2 * n_angular
    jj, kk = _reference_polar_lattice(mesh)[1:].T
    slot = np.where(jj == 1, 0, 2 * jj - 3 + kk % 2)
    assert np.array_equal(np.sort(slot * n_angular + kk // 2), np.arange(mesh.n_nodes - 1))
    rel = mesh.node_xy - FOURIER5.center
    gap = FOURIER5.radius(np.arctan2(rel[:, 1], rel[:, 0])) - np.hypot(rel[:, 0], rel[:, 1])
    assert np.max(np.abs(gap[n_in:])) <= 1e-14
    assert np.min(gap[:n_in]) > 1e-4


@pytest.mark.parametrize("n_radial,n_angular", [(4, 16), (8, 32), (16, 64)])
def test_polar_preconditioner_inverts_p2_disk_stiffness(n_radial, n_angular):
    # the interior P2 stiffness that solve_torsion assembles on the unit disk;
    # the preconditioner factors it from one sector and must never build it
    a_ref, _, _ = fem._assemble_interior(fem.generate_mesh(geometry.StarDomain.disk(), n_radial, n_angular))
    # a fresh plan, built from the topology alone
    precond = fem._Plan(n_radial, n_angular).precond
    # a random vector loads every Fourier mode, Nyquist included; the unit
    # vector on the centre loads the border row and slots 0-2
    centre = np.zeros(a_ref.shape[0])
    centre[0] = 1.0
    for r in (np.random.default_rng(n_radial).standard_normal(a_ref.shape[0]), centre):
        assert np.linalg.norm(a_ref @ precond(r) - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("n_radial,n_angular", [(16, 64), (32, 128), (64, 256)])
def test_disk_solves_in_one_iteration(n_radial, n_angular):
    field = fem.solve_torsion(fem.generate_mesh(geometry.StarDomain.disk(), n_radial, n_angular))
    assert field.iterations == 1
    assert field.residual_norm <= fem._CG_RTOL


def _predicted_iterations(domain):
    # in the polar frame of the radial map from the disk the metric is
    # [[1 + q^2, -q], [-q, 1]], q = rho'/rho: condition number lam^2 with
    # lam + 1/lam = 2 + max q^2, and CG's bound for a 1e-10 reduction
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    rho, d1 = domain.radius_derivatives(theta, (0, 1))
    trace = 2.0 + np.max((d1 / rho) ** 2)
    lam = 0.5 * (trace + np.sqrt(trace * trace - 4.0))
    return np.log(1e10) / np.log((lam + 1.0) / (lam - 1.0))


@pytest.mark.parametrize(
    "domain,predicted",
    [
        (geometry.StarDomain.ellipse(1.5, 1.0), 14.5),
        (geometry.StarDomain(1.0, [0.0, 0.0, 0.01]), 5.5),
        (geometry.StarDomain(1.0, [0.0, 0.0, 0.05]), 8.9),
        (geometry.StarDomain(1.0, [0.0, 0.0, 0.1]), 12.1),
    ],
    ids=["ellipse", "cos3-0.01", "cos3-0.05", "cos3-0.1"],
)
def test_cg_iterations_follow_radial_map(domain, predicted):
    # measured 15, 6, 10 and 13 at 16x64: at most one above the predicted
    # count, the prediction rounded up to a whole iteration
    assert _predicted_iterations(domain) == pytest.approx(predicted, abs=0.05)
    iters = fem.solve_torsion(fem.generate_mesh(domain, 16, 64)).iterations
    assert iters <= np.ceil(_predicted_iterations(domain)) + 1


def test_cg_iterations_flat_under_refinement():
    # Jacobi-preconditioned CG took 339, 746 and 1630 iterations here, and
    # CG preconditioned by the P1 stiffness of the red refinement 19-20
    ell = geometry.StarDomain.ellipse(1.5, 1.0)
    iters = [fem.solve_torsion(fem.generate_mesh(ell, 16 * 2**k, 64 * 2**k)).iterations for k in range(3)]
    assert max(iters) <= 16
    assert all(fine - coarse <= 2 for coarse, fine in zip(iters, iters[1:]))


@pytest.mark.parametrize(
    "domain",
    [
        geometry.StarDomain.disk(),
        geometry.StarDomain.ellipse(1.5, 1.0),
        geometry.StarDomain(1.0, [0.0, 0.0, 0.2]),
    ],
    ids=["disk", "ellipse", "cos3-0.2"],
)
def test_solve_matches_direct_solve(domain):
    mesh = fem.generate_mesh(domain, 16, 64)
    a_in, b_in, _ = fem._assemble_interior(mesh)
    u_direct = spla.spsolve(a_in.tocsc(), b_in)
    u = fem.solve_torsion(mesh).u[: mesh.plan.n_in]
    assert np.max(np.abs(u - u_direct)) <= 1e-9 * np.max(np.abs(u_direct))


def test_pcg_breakdown_raises_solver_error():
    a_mat = sp.diags([1.0, -1.0])
    with pytest.raises(fem.SolverError, match="broke down") as info:
        fem._pcg(a_mat, np.array([1.0, 2.0]), lambda r: r.copy())
    assert np.isfinite(info.value.residual)


def test_pcg_cap_raises_solver_error():
    # eigenvalues over 12 decades: unpreconditioned CG is far from 1e-10
    # after the cap of 50 sqrt(100) + 10 iterations
    a_mat = sp.diags(np.logspace(-12.0, 0.0, 100))
    with pytest.raises(fem.SolverError, match="iteration cap 510") as info:
        fem._pcg(a_mat, np.ones(100), lambda r: r.copy())
    assert np.isfinite(info.value.residual)


def test_solve_raises_solver_error_on_unreachable_tolerance(monkeypatch):
    # with a zero tolerance the recursive residual shrinks until p.Ap
    # underflows; the solve must raise, never report a false zero residual
    monkeypatch.setattr(fem, "_CG_RTOL", 0.0)
    with pytest.raises(fem.SolverError) as info:
        fem.solve_torsion(fem.generate_mesh(geometry.StarDomain.disk(), 4, 16))
    assert np.isfinite(info.value.residual)
