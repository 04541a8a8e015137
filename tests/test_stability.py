import dataclasses
import pathlib

import numpy as np
import pytest

from bubblestab import cli, fem, geometry, identities, oracles, stability
from test_geometry import _reference_touching_radii

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def two_lobe():
    return geometry.StarDomain(
        base_radius=1.0,
        cos_coeffs=np.array([0.0, 0.35]),
        sin_coeffs=np.zeros(0),
        center=np.zeros(2),
    )


def report_for(analysis, theorem, branch):
    for r in analysis.reports:
        if r.theorem == theorem and r.branch == branch:
            return r
    raise AssertionError("missing report %s/%s" % (theorem, branch))


def test_a_constant_dim2():
    assert stability.a_constant(2) == pytest.approx(16.0 * np.pi**0.25, rel=1e-14)


def test_main_constants_trace(disk_analysis):
    tr = report_for(disk_analysis, "main", "high_dim").constants_trace
    assert tr["alpha_N"] == pytest.approx(np.pi / 256.0, rel=1e-14)
    assert tr["tau"] == 0.25
    assert tr["c_N"] == 1.5
    # c_N enters through the gradient bound c_N d (d + r_e) / r_e, not k_N
    assert tr["k_N"] == pytest.approx(stability.a_constant(2), rel=1e-14)
    assert abs(tr["M"] - 1.0) < 1e-2
    assert abs(tr["r_interior"] - 1.0) < 1e-9


def test_mean_convex_alpha_uses_cubed_dimension(disk_analysis):
    tr = report_for(disk_analysis, "mean_convex", "high_dim").constants_trace
    assert tr["alpha_N"] == pytest.approx(np.pi / 512.0, rel=1e-14)


def test_disk_main_is_genuinely_small(disk_analysis):
    r = report_for(disk_analysis, "main", "high_dim")
    mu = disk_analysis.spectral.mu0_lower
    assert r.eps == pytest.approx(np.pi / 256.0 * mu * mu, rel=1e-6)  # r_i = 1
    assert r.deviation < 1e-10
    assert r.smallness_ok and not r.fallback
    assert r.gap < 1e-9
    assert r.holds
    assert r.mu_source == "lower_bound"


def test_low_dim_branch_has_no_smallness(disk_analysis):
    r = report_for(disk_analysis, "main", "low_dim")
    assert r.eps is None
    assert r.tau == 0.5
    assert r.smallness_ok and not r.fallback
    assert r.holds


def test_low_dim_requires_embedding_constant(disk_analysis):
    bare = dataclasses.replace(disk_analysis, params=stability.StabilityParams(sobolev_c=None))
    with pytest.raises(ValueError, match="sobolev_c"):
        stability.assemble_constants(bare, "main", "low_dim", mu=0.5)


@pytest.fixture(scope="module")
def zero_h_analysis():
    # cos3 at t = 0.1 on 256 samples has sampled min H exactly 0.0
    dom = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.1]))
    return stability.analyze_domain(dom, n_radial=8, n_angular=32, n_trace=256, theorems=())


def test_assemble_constants_validation(disk_analysis, zero_h_analysis):
    with pytest.raises(ValueError, match="unknown theorem"):
        stability.assemble_constants(disk_analysis, "nope", "high_dim", 0.5)
    with pytest.raises(ValueError, match="unknown branch"):
        stability.assemble_constants(disk_analysis, "main", "sideways", 0.5)
    assert not zero_h_analysis.trace.curvature_positive
    with pytest.raises(stability.NotApplicable):
        stability.assemble_constants(zero_h_analysis, "mean_convex", "high_dim", 0.5)


def test_only_the_trace_decides_positive_curvature(zero_h_analysis):
    # a deviation record claiming min H = 1 does not make the H > 0 variants apply
    a = zero_h_analysis
    assert a.trace.min_curvature == 0.0 and a.deviation.min_h == 0.0
    claimed = dataclasses.replace(a, deviation=dataclasses.replace(a.deviation, min_h=1.0))
    for theorem in ("hk", "mean_convex", "obvp"):
        with pytest.raises(stability.NotApplicable):
            stability.assemble_constants(claimed, theorem, "high_dim", a.spectral.mu0_lower)
    _, _, tr = stability.assemble_constants(claimed, "main", "high_dim", a.spectral.mu0_lower)
    assert tr["min_H"] == 0.0


def test_mu_lower_bound_is_conservative(disk_analysis):
    # a smaller mu must never shrink C nor grow eps: using the lower bound
    # in place of the Galerkin upper estimate only weakens the inequality
    for theorem in stability.THEOREMS:
        for branch in stability.BRANCHES:
            c_lo, eps_lo, _ = stability.assemble_constants(disk_analysis, theorem, branch, 0.5)
            c_hi, eps_hi, _ = stability.assemble_constants(disk_analysis, theorem, branch, 4.0)
            assert c_lo > c_hi, (theorem, branch)
            if branch == "high_dim":
                assert eps_lo < eps_hi, theorem
            else:
                assert eps_lo is None and eps_hi is None


def test_galerkin_upper_mu_on_a_nonconvex_domain():
    # cos3 at t = 0.2 is not convex, so no Payne-Weinberger lower bound exists
    # and every report reads the Galerkin upper estimate
    dom = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.2]))
    a = stability.analyze_domain(
        dom,
        n_radial=8,
        n_angular=32,
        n_trace=256,
        theorems=stability.THEOREMS,
        params=stability.StabilityParams(sobolev_c=1.0),
        branches=stability.BRANCHES,
    )
    assert a.spectral.mu0_lower is None
    reports = [r for r in a.reports if isinstance(r, stability.StabilityReport)]
    assert [(r.theorem, r.branch) for r in reports] == [
        ("main", "high_dim"), ("main", "low_dim"), ("main_cm", "high_dim"), ("main_cm", "low_dim")
    ]
    for r in reports:
        assert r.mu_source == "galerkin_upper", r.theorem
        assert r.constants_trace["mu"] == a.spectral.mu0_upper, r.theorem


def test_lower_bound_mu_on_the_disk(disk_analysis):
    assert len(disk_analysis.reports) == len(stability.THEOREMS) * len(stability.BRANCHES)
    for r in disk_analysis.reports:
        assert r.mu_source == "lower_bound", (r.theorem, r.branch)
        assert r.constants_trace["mu"] == disk_analysis.spectral.mu0_lower, (r.theorem, r.branch)


def test_every_report_holds(disk_analysis, ellipse_analysis, cos3_analysis):
    for analysis in (disk_analysis, ellipse_analysis, cos3_analysis):
        assert len(analysis.reports) == len(stability.THEOREMS) * 2
        for r in analysis.reports:
            assert r.holds, (r.theorem, r.branch)


def test_ellipse_high_dim_falls_back(ellipse_analysis):
    # deviation far exceeds the smallness threshold, so the bound degrades
    # to the trivial diameter bound and is flagged
    r = report_for(ellipse_analysis, "main", "high_dim")
    assert not r.smallness_ok
    assert r.fallback
    assert r.bound_rhs == pytest.approx(ellipse_analysis.summary.diameter)
    assert r.deviation > r.eps


def test_center_of_mass_variant(ellipse_analysis):
    r = report_for(ellipse_analysis, "main_cm", "high_dim")
    assert np.max(np.abs(r.z - ellipse_analysis.summary.center_of_mass)) < 1e-12
    assert np.max(np.abs(r.z)) < 1e-9  # symmetric domain


def test_nonpositive_curvature_rejections():
    dom = two_lobe()
    trace = geometry.boundary_trace(dom, 512)
    summary = geometry.geometry_summary(dom, trace)
    field = fem.solve_torsion(fem.generate_mesh(dom, 16, 64))
    dev = stability.deviation_norms(trace, field, summary)
    assert dev.min_h < 0.0
    assert dev.hk_deficit is None and dev.obvp_l1 is None
    spec = stability.spectral_estimate(dom, r_interior=summary.r_interior, area=summary.area)
    analysis = stability.DomainAnalysis(
        dom, trace, summary, field, spec, oracles.gradient_bounds(summary), dev, stability.StabilityParams()
    )
    for theorem in ("hk", "obvp", "mean_convex"):
        with pytest.raises(stability.NotApplicable):
            stability.check_stability(analysis, theorem)
    assert analysis.radii == {}


def same_report(a, b):
    # field by field, so that z compares as an array, bit for bit
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


def test_analyze_domain_reports_equal_check_stability_alone(cos3_analysis, monkeypatch):
    # analyze_domain runs rho_bounds once per distinct point, the torsion
    # minimum and the centre of mass, for its 10 reports; each report is the
    # one check_stability gives on its own, bit for bit
    a = cos3_analysis
    for r in a.reports:
        alone = stability.check_stability(dataclasses.replace(a, radii={}), r.theorem, r.branch)
        assert same_report(r, alone), (r.theorem, r.branch)
    calls = []

    def counted(trace, z):
        calls.append(z)
        return geometry.rho_bounds(trace, z)

    monkeypatch.setattr(stability, "rho_bounds", counted)
    kw = dict(n_radial=8, n_angular=32, n_trace=256, theorems=stability.THEOREMS, branches=stability.BRANCHES)
    assert len(stability.analyze_domain(a.domain, params=a.params, **kw).reports) == 10
    assert len(calls) == 2


def test_check_stability_fills_the_memo_on_first_use():
    # an analysis with no reports has an empty memo; one main_cm check adds
    # the centre of mass alone, and its report is the one analyze_domain gives
    dom = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.05]))
    kw = dict(n_radial=8, n_angular=32, n_trace=256)
    bare = stability.analyze_domain(dom, theorems=(), **kw)
    assert bare.reports == [] and bare.radii == {}
    report = stability.check_stability(bare, "main_cm")
    assert list(bare.radii) == ["center_of_mass"]
    (expected,) = stability.analyze_domain(dom, theorems=("main_cm",), **kw).reports
    assert same_report(report, expected)


def test_trace_size_is_one_rule():
    # 1,024 samples, or four per boundary edge on a finer mesh
    a = stability.analyze_domain(geometry.StarDomain.disk(), n_radial=4, n_angular=320, theorems=())
    assert a.trace.n_samples == 1280
    assert stability.trace_samples(256) == 1024
    assert stability.trace_samples(320) == 1280
    assert stability.trace_samples(16, 256) == 256


def test_inapplicable_theorem_keeps_the_other_reports():
    # cos3 at t = 0.1 has min H exactly 0, so hk, mean_convex and obvp do not
    # apply; main and main_cm must come out as they do when they run alone
    dom = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.1]))
    kw = dict(n_radial=8, n_angular=32, n_trace=256)
    every = stability.analyze_domain(dom, theorems=stability.THEOREMS, **kw)
    alone = stability.analyze_domain(dom, theorems=("main", "main_cm"), **kw)
    assert every.deviation.min_h == 0.0
    assert every.deviation.hk_deficit is None and every.deviation.obvp_l1 is None
    main, main_cm, hk, mean_convex, obvp = every.reports
    assert same_report(main, alone.reports[0]) and same_report(main_cm, alone.reports[1])
    for theorem, rep in (("hk", hk), ("mean_convex", mean_convex), ("obvp", obvp)):
        assert rep == stability.NotApplicableReport(
            theorem, "high_dim", "%s variant needs strictly positive boundary curvature" % theorem
        )


def test_exact_zero_curvature_splits_every_reader():
    # cos3 at t = 0.1 on 1,024 samples has sampled min H exactly 0.0: every
    # reader of H >= 0 applies and every reader of H > 0 does not, and the
    # convexity certificate refuses the trace, so its radii come from the pair scan
    dom = geometry.StarDomain(1.0, cos_coeffs=np.array([0.0, 0.0, 0.1]))
    a = stability.analyze_domain(dom, n_radial=8, n_angular=32, n_trace=1024, theorems=stability.THEOREMS)
    tr = a.trace
    assert tr.min_curvature == 0.0 and tr.curvature_nonnegative and not tr.curvature_positive
    assert geometry._certified_max_curvature(dom, tr) is None
    main, main_cm, hk, mean_convex, obvp = a.reports
    assert main.mu_source == main_cm.mu_source == "lower_bound"  # Payne-Weinberger
    assert all(isinstance(r, stability.NotApplicableReport) for r in (hk, mean_convex, obvp))
    assert a.deviation.hk_deficit is None and a.deviation.obvp_l1 is None
    u_nu = fem.boundary_normal_derivative(a.field, tr.thetas)
    deficit = identities.cs_deficit(a.field)
    suite = {r.name: r for r in identities.identity_suite(a.field, tr, a.summary, u_nu, deficit)}
    assert not suite["heintze_karcher"].applicable
    assert identities.serrin_checks(tr, a.summary, u_nu, deficit).unu_recip_h_l1 is None
    radii = _reference_touching_radii(tr, a.summary.diameter)
    assert (a.summary.r_interior, a.summary.r_exterior) == radii


def test_min_point_variants_read_the_spectral_x0(disk_analysis, ellipse_analysis, cos3_analysis):
    # the Galerkin mu0 is taken at the z of every variant that reads the torsion minimum
    for analysis in (disk_analysis, ellipse_analysis, cos3_analysis):
        for r in analysis.reports:
            if stability.VARIANTS[r.theorem].point == "min_point":
                assert np.array_equal(r.z, analysis.spectral.x0), r.theorem


def test_analyze_domain_computes_deviation_once(monkeypatch):
    # and the gradient bound: every report's constants read the analysis's
    calls = {"deviation_norms": 0, "boundary_normal_derivative": 0, "gradient_bounds": 0}

    def counted(name):
        fn = getattr(stability, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(stability, name, counted(name))
    analysis = stability.analyze_domain(
        geometry.StarDomain.ellipse(1.5, 1.0),
        n_radial=8,
        n_angular=32,
        n_trace=256,
        theorems=stability.THEOREMS,
        params=stability.StabilityParams(sobolev_c=1.0),
        branches=stability.BRANCHES,
    )
    assert len(analysis.reports) == 10
    assert all(isinstance(r, stability.StabilityReport) for r in analysis.reports)
    assert calls == {"deviation_norms": 1, "boundary_normal_derivative": 1, "gradient_bounds": 1}


def test_sweep_uses_convex_lower_bound(sweep_analyses):
    # every cos3 domain with t <= 0.1 is convex (min H = 0 exactly at t = 0.1),
    # so mu comes from the rigorous lower bound, never the Galerkin upper estimate
    for t, a in sweep_analyses:
        assert float(np.min(a.trace.curvatures)) >= 0.0, t
        assert all(r.mu_source == "lower_bound" for r in a.reports), t


def test_sweep_monotone_degradation(sweep_analyses):
    tol = 1e-9
    l1 = [stability.deviation_norms(a.trace, a.field, a.summary).h0_minus_h_l1 for _, a in sweep_analyses]
    inf = [stability.deviation_norms(a.trace, a.field, a.summary).h0_minus_h_inf for _, a in sweep_analyses]
    gaps = [report_for(a, "main", "high_dim").gap for _, a in sweep_analyses]
    for seq in (l1, inf, gaps):
        assert all(b >= a - tol for a, b in zip(seq[:-1], seq[1:])), seq
    for (t, _), g in zip(sweep_analyses, gaps):
        assert g == pytest.approx(2.0 * t, abs=1e-6)


def _assert_min_balls_hold_on_finer_trace(domain, field, trace):
    # each torsion minimum's (rho_i, rho_e) from rho_bounds on the trace, and
    # again on a trace 4x finer: the finer samples may move rho_i down and
    # rho_e up by at most tol = 1e-9 + 2 h^2
    tol = 1e-9 + 2.0 * field.mesh.h ** 2
    fine = geometry.boundary_trace(domain, 4 * len(trace.points))
    assert len(field.min_points) >= 1
    for z in field.min_points:
        rho_i, rho_e = geometry.rho_bounds(trace, z)
        fine_i, fine_e = geometry.rho_bounds(fine, z)
        assert fine_i >= rho_i - tol, (z, fine_i, rho_i, tol)
        assert fine_e <= rho_e + tol, (z, fine_e, rho_e, tol)


def test_aggregate_inclusions(disk_analysis):
    assert len(disk_analysis.field.min_points) == 1
    _assert_min_balls_hold_on_finer_trace(disk_analysis.domain, disk_analysis.field, disk_analysis.trace)


@pytest.mark.parametrize("n_radial,n_angular", [(16, 64), (32, 128)])
def test_two_lobe_inclusions_about_both_minima(n_radial, n_angular):
    dom = cli._domain_from_config(cli.load_config(str(CONFIGS / "two_lobe.json")))
    field = fem.solve_torsion(fem.generate_mesh(dom, n_radial, n_angular))
    assert field.min_points.shape == (2, 2)
    _assert_min_balls_hold_on_finer_trace(dom, field, geometry.boundary_trace(dom, 1024))


def test_analyze_domain_deterministic():
    kw = dict(n_radial=8, n_angular=32, n_trace=256, theorems=("main",))
    a = stability.analyze_domain(geometry.StarDomain.disk(), **kw)
    b = stability.analyze_domain(geometry.StarDomain.disk(), **kw)
    ra, rb = a.reports[0], b.reports[0]
    assert ra.c_stab == rb.c_stab
    assert ra.gap == rb.gap
    assert np.array_equal(ra.z, rb.z)
