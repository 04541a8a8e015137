"""Explicit stability constants and radii-pinching checks.

Each theorem variant bounds rho_e - rho_i (circumscribed minus inscribed
touching radius about a distinguished point z) by C * deviation^tau, where
the deviation measures how far the boundary is from constant mean curvature.
VARIANTS is the one table of what each variant reads:

  variant      z                deviation (DeviationNorms field)       H > 0
  main         torsion minimum  L1 norm of H0 - H (h0_minus_h_l1)      no
  main_cm      center of mass   L1 norm of H0 - H (h0_minus_h_l1)      no
  hk           torsion minimum  Heintze-Karcher deficit (hk_deficit)   yes
  mean_convex  torsion minimum  sup |H0 - H| (h0_minus_h_inf)          yes
  obvp         torsion minimum  L1 norm of u_nu - 1/H (obvp_l1)        yes

A variant marked H > 0 needs a mean-convex boundary, min H > 0, and is not
applicable (NotApplicable) where min H <= 0.

The high-dimension branch carries tau = 1/(N+2) plus an explicit smallness
threshold eps on the deviation; when the deviation exceeds eps the trivial
bound rho_e - rho_i <= diameter is reported as a flagged fallback.  The
low-dimension branch (tau = 1/2) is reached only from the library, through
StabilityParams.sobolev_c; the CLI runs high_dim alone until that embedding
constant is derived rather than set (the ROADMAP item "The paper's planar
exponent tau = 1/2 with an explicit constant").  All composed factors are
exposed in constants_trace.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .fem import TorsionField, boundary_normal_derivative, generate_mesh, solve_torsion
from .geometry import (
    DIM,
    BoundaryTrace,
    GeometrySummary,
    StarDomain,
    boundary_trace,
    geometry_summary,
    rho_bounds,
)
from .identities import heintze_karcher_gap, unu_recip_h_l1
from .oracles import GradientBounds, c_constant, gradient_bounds
from .spectral import SpectralEstimate, mu2_lower_convex, spectral_estimate, unit_ball_volume


@dataclasses.dataclass(frozen=True)
class Variant:
    """What one theorem variant reads (the table in the module docstring)."""

    point: str  # "min_point" (the torsion minimum) or "center_of_mass"
    deviation: str  # the DeviationNorms field it bounds
    needs_positive_h: bool  # min H > 0, a mean-convex boundary


VARIANTS = {
    "main": Variant("min_point", "h0_minus_h_l1", False),
    "main_cm": Variant("center_of_mass", "h0_minus_h_l1", False),
    "hk": Variant("min_point", "hk_deficit", True),
    "mean_convex": Variant("min_point", "h0_minus_h_inf", True),
    "obvp": Variant("min_point", "obvp_l1", True),
}
THEOREMS = tuple(VARIANTS)
BRANCHES = ("high_dim", "low_dim")
# Hoelder exponent of the low-dimension branch for N = 2, any value in (0, 1).
GAMMA = 0.5


@dataclasses.dataclass(frozen=True)
class DeviationNorms:
    """Boundary deviation measures entering the stability bounds.

    hk_deficit and obvp_l1 integrate 1/H, so they are None unless min H > 0
    (min_h, the minimum of H over the trace).
    """

    h0_minus_h_l1: float
    h0_minus_h_inf: float
    min_h: float
    hk_deficit: float | None
    obvp_l1: float | None


def deviation_norms(trace: BoundaryTrace, field: TorsionField, summary: GeometrySummary) -> DeviationNorms:
    w = trace.weights
    diff = summary.H0 - trace.curvatures
    hk = obvp = None
    if trace.curvature_positive:
        hk = heintze_karcher_gap(trace, summary.area)
        obvp = unu_recip_h_l1(trace, boundary_normal_derivative(field, trace.thetas))
    return DeviationNorms(
        h0_minus_h_l1=float(np.sum(w * np.abs(diff))),
        h0_minus_h_inf=float(np.max(np.abs(diff))),
        min_h=trace.min_curvature,
        hk_deficit=hk,
        obvp_l1=obvp,
    )


def a_constant(dim: int) -> float:
    """Interpolation constant a_N = 2^(2+N/(N+2)) (N+2) / N^(N/(N+2)) * omega^(1/N-1/(N+2))."""
    n = float(dim)
    p = n / (n + 2.0)
    return float(2.0 ** (2.0 + p) * (n + 2.0) / n**p * unit_ball_volume(dim) ** (1.0 / n - 1.0 / (n + 2.0)))


def _alpha_constant(dim: int, cubed: bool) -> float:
    n = float(dim)
    denom = (n**3 if cubed else n**2) * 4.0 ** (n + 1.0) * (n - 1.0)
    return unit_ball_volume(dim) / denom


@dataclasses.dataclass(frozen=True)
class StabilityParams:
    """User-tunable inputs to the constant assembly.

    sobolev_c is the embedding constant of the low-dimension branch, which
    is reached only from the library (the CLI runs high_dim alone) and needs
    it set.
    """

    sobolev_c: float | None = None


class NotApplicable(ValueError):
    """The theorem variant's hypotheses fail on this domain (min H <= 0 where it needs H > 0)."""


@dataclasses.dataclass(frozen=True)
class NotApplicableReport:
    """A theorem variant that does not apply; reason is the NotApplicable message."""

    theorem: str
    branch: str
    reason: str


@dataclasses.dataclass(frozen=True)
class StabilityReport:
    theorem: str
    branch: str
    tau: float
    deviation: float
    rho_i: float
    rho_e: float
    gap: float
    c_stab: float
    eps: float | None
    smallness_ok: bool
    bound_rhs: float
    holds: bool
    fallback: bool
    z: np.ndarray
    mu_source: str
    constants_trace: dict[str, float]


def assemble_constants(
    theorem: str,
    branch: str,
    summary: GeometrySummary,
    mu: float,
    m_grad: float,
    min_h: float,
    params: StabilityParams,
):
    """(C, eps, trace) for one theorem variant and branch.

    mu is the harmonic-Poincare constant in use, m_grad the gradient maximum,
    min_h the minimum boundary mean curvature (mean_convex's constants read
    it).  Raises NotApplicable when the variant needs min H > 0 and min_h <= 0.
    eps is None on the low-dimension branch (no smallness condition).
    """
    if theorem not in VARIANTS:
        raise ValueError("unknown theorem %r" % theorem)
    if branch not in BRANCHES:
        raise ValueError("unknown branch %r" % branch)
    if VARIANTS[theorem].needs_positive_h and min_h <= 0.0:
        raise NotApplicable("%s variant needs strictly positive boundary curvature" % theorem)
    n = float(DIM)
    area = summary.area
    d = summary.diameter
    r_i = summary.r_interior
    r_e = summary.r_exterior
    a_n = a_constant(DIM)
    c_n = c_constant(DIM)
    omega = unit_ball_volume(DIM)
    tr: dict[str, float] = {
        "a_N": a_n,
        "c_N": c_n,
        "mu": mu,
        "M": m_grad,
        "area": area,
        "perimeter": summary.perimeter,
        "diameter": d,
        "r_interior": r_i,
        "r_exterior": r_e,
        "H0": summary.H0,
        "min_H": min_h,
    }

    if branch == "high_dim":
        ex = 1.0 / (n + 2.0)
        alpha = _alpha_constant(DIM, cubed=theorem == "mean_convex")
        if theorem in ("main", "main_cm"):
            k_n = a_n * (n - 1.0) ** ex * c_n
            c_stab = k_n * d * (d + r_e) / (mu ** (2.0 * ex) * area ** (1.0 / n) * r_e)
            eps = alpha * mu * mu * r_i ** (n + 2.0)
        elif theorem == "hk":
            k_n = a_n * (n - 1.0) ** ex
            c_stab = k_n * m_grad ** (n * ex) / (mu ** (2.0 * ex) * area ** (1.0 / n))
            eps = alpha * mu * mu * m_grad * m_grad * r_i ** (n + 2.0)
        elif theorem == "mean_convex":
            k_n = a_n * (n * (n - 1.0)) ** ex
            c_stab = k_n * m_grad ** (n * ex) / (
                mu ** (2.0 * ex) * area ** (1.0 / n - ex) * min_h**ex
            )
            eps = alpha * (min_h / area) * mu * mu * m_grad * m_grad * r_i ** (n + 2.0)
        else:  # obvp
            k_n = a_n * (n - 1.0) ** ex
            c_stab = k_n * m_grad ** ((n + 1.0) * ex) / (
                mu ** (2.0 * ex) * area ** (1.0 / n) * r_i**ex
            )
            eps = alpha * mu * mu * m_grad * r_i ** (n + 3.0)
        tr.update({"k_N": k_n, "alpha_N": alpha, "tau": ex})
        return c_stab, eps, tr

    # low-dimension branch: tau = 1/2, requires the embedding constant
    if params.sobolev_c is None:
        raise ValueError("low_dim branch requires params.sobolev_c")
    base = 2.0 * omega ** (1.0 / n) * params.sobolev_c * d**GAMMA * (1.0 + mu) / mu
    if theorem in ("main", "main_cm"):
        c_stab = base * np.sqrt(n - 1.0) * c_n * d * (d + r_e) / (area ** (1.0 / n) * r_e)
    elif theorem == "hk":
        c_stab = base * np.sqrt(n - 1.0) / area ** (1.0 / n)
    elif theorem == "mean_convex":
        c_stab = base * np.sqrt(n * (n - 1.0)) * area ** (0.5 - 1.0 / n) / np.sqrt(min_h)
    else:  # obvp
        c_stab = base * np.sqrt(n - 1.0) / area ** (1.0 / n) * np.sqrt(m_grad / r_i)
    tr.update({"gamma": GAMMA, "sobolev_c": params.sobolev_c, "tau": 0.5})
    return float(c_stab), None, tr


def trace_samples(n_angular: int, n_trace: int = 1024) -> int:
    """Boundary samples for a mesh of n_angular sectors: n_trace, or four per boundary edge if more."""
    return max(n_trace, 4 * n_angular)


@dataclasses.dataclass(eq=False)
class DomainAnalysis:
    """Everything computed for one domain by analyze_domain."""

    domain: StarDomain
    trace: BoundaryTrace
    summary: GeometrySummary
    field: TorsionField
    spectral: SpectralEstimate
    grad_bounds: GradientBounds
    deviation: DeviationNorms
    params: StabilityParams
    reports: list[StabilityReport | NotApplicableReport] = dataclasses.field(default_factory=list)
    # (rho_i, rho_e) by VARIANTS point, filled on first use by check_stability
    radii: dict[str, tuple[float, float]] = dataclasses.field(default_factory=dict)


def check_stability(analysis: DomainAnalysis, theorem: str, branch: str = "high_dim") -> StabilityReport:
    """Evaluate one stability inequality on an analyzed domain.

    The variant's point z, deviation and H > 0 hypothesis come from VARIANTS; a
    variant whose hypothesis fails raises NotApplicable.  The
    harmonic-Poincare constant defaults to the explicit lower bound
    (conservative: it only weakens the inequality being verified) and falls
    back to the Galerkin upper estimate when no lower bound is available.
    rho_i and rho_e about z come from the analysis's radii memo, which this
    call fills on first use.
    """
    summary, spectral, dev = analysis.summary, analysis.spectral, analysis.deviation
    if spectral.mu0_lower is not None:
        mu, mu_source = spectral.mu0_lower, "lower_bound"
    else:
        mu, mu_source = spectral.mu0_upper, "galerkin_upper"
    c_stab, eps, tr = assemble_constants(theorem, branch, summary, mu, analysis.field.M, dev.min_h, analysis.params)

    variant = VARIANTS[theorem]
    z = summary.center_of_mass if variant.point == "center_of_mass" else analysis.field.min_points[0]
    if variant.point not in analysis.radii:
        analysis.radii[variant.point] = rho_bounds(analysis.trace, z)
    rho_i, rho_e = analysis.radii[variant.point]
    gap = rho_e - rho_i
    deviation = getattr(dev, variant.deviation)
    tau = tr["tau"]
    smallness_ok = True if eps is None else bool(deviation < eps)
    if smallness_ok:
        bound_rhs = c_stab * deviation**tau
        fallback = False
    else:
        bound_rhs = summary.diameter
        fallback = True
    return StabilityReport(
        theorem=theorem,
        branch=branch,
        tau=float(tau),
        deviation=float(deviation),
        rho_i=rho_i,
        rho_e=rho_e,
        gap=gap,
        c_stab=float(c_stab),
        eps=None if eps is None else float(eps),
        smallness_ok=smallness_ok,
        bound_rhs=float(bound_rhs),
        holds=bool(gap <= bound_rhs),
        fallback=fallback,
        z=np.array(z, dtype=float),
        mu_source=mu_source,
        constants_trace=tr,
    )


def analyze_domain(
    domain: StarDomain,
    n_radial: int = 32,
    n_angular: int = 128,
    n_trace: int = 1024,
    theorems=("main",),
    params: StabilityParams = StabilityParams(),
    branches=("high_dim",),
) -> DomainAnalysis:
    """Full pipeline: mesh, solve, trace, spectral constants, stability checks.

    The trace has trace_samples(n_angular, n_trace) points.  The deviation
    norms are computed once and shared by every report, and so are rho_i and
    rho_e about each distinct point z, through the analysis's radii memo.
    With theorems=() the result carries the spectral constants and no reports.
    A theorem variant that does not apply to the domain gets a
    NotApplicableReport, and the other reports are unaffected.
    """
    trace = boundary_trace(domain, trace_samples(n_angular, n_trace))
    summary = geometry_summary(domain, trace)
    mesh = generate_mesh(domain, n_radial, n_angular)
    field = solve_torsion(mesh)
    # the Payne-Weinberger bound pi^2/d^2 holds on convex domains only
    mu2 = mu2_lower_convex(summary.diameter) if trace.curvature_nonnegative else None
    spec = spectral_estimate(
        domain,
        r_interior=summary.r_interior,
        area=summary.area,
        x0=field.min_points[0],  # z of every min-point variant
        mu2=mu2,
    )
    analysis = DomainAnalysis(
        domain, trace, summary, field, spec, gradient_bounds(summary), deviation_norms(trace, field, summary), params
    )
    for theorem in theorems:
        for branch in branches:
            try:
                analysis.reports.append(check_stability(analysis, theorem, branch))
            except NotApplicable as exc:
                analysis.reports.append(NotApplicableReport(theorem, branch, str(exc)))
    return analysis
