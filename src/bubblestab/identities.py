"""Integral identities tying the torsion function to boundary curvature.

Each identity is reported as (lhs, rhs, residual), with the relative residual
normalized by max(|lhs|, |rhs|, N |Omega|) so that identities whose sides both
vanish (disk) stay well-scaled.  Volume integrals are sums over the field's
weighted Hessian samples (TorsionField.hessian_samples), so the quadrature
layout stays inside fem; boundary integrals use an analytic trace plus the
one-sided FE normal derivative u_nu on it, which the caller computes once and
passes in together with the cs_deficit report.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .fem import TorsionField
from .geometry import DIM, BoundaryTrace, GeometrySummary


@dataclasses.dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    residual_abs: float
    residual_rel: float
    applicable: bool = True


@dataclasses.dataclass(frozen=True)
class DeficitReport:
    """Cauchy-Schwarz deficit of the Hessian in its three guises.

    cs_deficit = int |hess u|^2 - (lap u)^2 / N  (nonnegative pointwise),
    hessian_h_sq = int |I - hess u|^2 (the same quantity through h = q - u),
    p_min_delta = minimum element-mean of the weak Laplacian of the
    P-function P = |grad u|^2 / 2 - u (nonnegative for the exact solution).
    """

    cs_deficit: float
    hessian_h_sq: float
    p_min_delta: float


def _report(name: str, lhs: float, rhs: float, scale: float, applicable: bool = True) -> IdentityReport:
    res = abs(lhs - rhs)
    return IdentityReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        residual_abs=res,
        residual_rel=res / max(abs(lhs), abs(rhs), scale),
        applicable=applicable,
    )


def _sym_sq(a00, a01, a11):
    """|A|^2 = a00^2 + 2 a01^2 + a11^2 of the symmetric field A = (a00, a01, a11)."""
    return a00 * a00 + 2.0 * a01 * a01 + a11 * a11


def cs_deficit(field: TorsionField) -> DeficitReport:
    """Deficit integrals and the elementwise floor of the P-function Laplacian.

    For the torsion solution, Delta P with P = |grad u|^2/2 - u equals the
    Cauchy-Schwarz density |hess u|^2 - (tr hess u)^2/N, which is nonnegative
    pointwise for any symmetric matrix field.  p_min_delta is the smallest
    element quadrature mean of that density.  Numerically differentiating a
    recovered grad P instead loses the sign: curved boundary cells carry O(1)
    Hessian error, so the divergence route floors near -1, not -1e-6.
    """
    w, _, (h00, h01, h11), cell = field.hessian_samples
    tr = h00 + h11
    w_density = w * (_sym_sq(h00, h01, h11) - tr * tr / DIM)
    deficit = float(np.sum(w_density))
    hess_h = float(np.sum(w * _sym_sq(1.0 - h00, -h01, 1.0 - h11)))   # |I - hess u|^2

    p_min = float(np.min(np.bincount(cell, w_density) / np.bincount(cell, w)))
    return DeficitReport(cs_deficit=deficit, hessian_h_sq=hess_h, p_min_delta=p_min)


def heintze_karcher_gap(trace: BoundaryTrace, area: float) -> float:
    """int 1/H - N |Omega| on the trace (>= 0 by Heintze-Karcher); min H > 0."""
    return float(np.sum(trace.weights / trace.curvatures)) - DIM * area


def unu_recip_h_l1(trace: BoundaryTrace, u_nu: np.ndarray) -> float:
    """L1 norm of u_nu - 1/H on the trace, u_nu on trace.thetas; min H > 0."""
    return float(np.sum(trace.weights * np.abs(u_nu - 1.0 / trace.curvatures)))


def _support(trace: BoundaryTrace) -> np.ndarray:
    """<x - c, nu> = rho^2 / sqrt(rho^2 + rho'^2) on the trace, c the center
    of the polar graph: the weights are sqrt(rho^2 + rho'^2) times the
    uniform theta step."""
    return trace.radii**2 * (2.0 * np.pi / trace.thetas.size) / trace.weights


def identity_suite(
    field: TorsionField, trace: BoundaryTrace, summary: GeometrySummary, u_nu: np.ndarray, deficit: DeficitReport
) -> list[IdentityReport]:
    """All integral identities for one solved domain.

    u_nu is the normal derivative on trace.thetas and deficit the
    cs_deficit(field) report.  Names: fundamental, sbt, heintze_karcher, wps,
    volume, minkowski, deficit_equivalence.  heintze_karcher is flagged not
    applicable when the boundary has non-positive mean curvature somewhere.
    """
    w = trace.weights
    h_curv = trace.curvatures
    area = summary.area
    scale = DIM * area
    r_ref = summary.R_ref
    x_nu = _support(trace)
    deficit_over = deficit.cs_deficit / (DIM - 1)

    reports = [
        _report("fundamental", deficit_over, scale - float(np.sum(w * h_curv * u_nu * u_nu)), scale),
        _report(
            "sbt",
            deficit_over + float(np.sum(w * (u_nu - r_ref) ** 2)) / r_ref,
            float(np.sum(w * (summary.H0 - h_curv) * u_nu * u_nu)),
            scale,
        ),
    ]

    if float(np.min(h_curv)) > 0.0:
        lhs = deficit_over + float(np.sum(w * (1.0 - h_curv * u_nu) ** 2 / h_curv))
        rhs = heintze_karcher_gap(trace, area)
        reports.append(_report("heintze_karcher", lhs, rhs, scale))
    else:
        reports.append(IdentityReport("heintze_karcher", np.nan, np.nan, np.nan, np.nan, applicable=False))

    _, wu, hess, _ = field.hessian_samples
    wps_lhs = -float(np.sum(wu * (_sym_sq(*hess) - DIM)))
    wps_rhs = 0.5 * float(np.sum(w * (u_nu * u_nu - r_ref * r_ref) * (u_nu - x_nu)))
    reports.append(_report("wps", wps_lhs, wps_rhs, scale))

    reports.append(_report("volume", float(np.sum(w * u_nu)), scale, scale))
    reports.append(_report("minkowski", float(np.sum(w * h_curv * x_nu)), summary.perimeter, scale))
    reports.append(_report("deficit_equivalence", deficit.cs_deficit, deficit.hessian_h_sq, scale))
    return reports


@dataclasses.dataclass(frozen=True)
class SerrinChecks:
    """Overdetermined-problem diagnostics on the solved boundary.

    unu_recip_h_l1 is None when mean curvature is not strictly positive.
    support_min is the minimum of <x - center, nu>, positive for domains
    star-shaped about their center.
    """

    unu_recip_h_l1: float | None
    fundamental2_residual_rel: float
    support_min: float
    unu_minus_r_l1: float
    unu_minus_r_l2: float
    unu_minus_r_max: float


def serrin_checks(
    trace: BoundaryTrace, summary: GeometrySummary, u_nu: np.ndarray, deficit: DeficitReport
) -> SerrinChecks:
    """Serrin diagnostics from u_nu on trace.thetas and a cs_deficit report."""
    w = trace.weights
    h_curv = trace.curvatures
    r_ref = summary.R_ref
    scale = DIM * summary.area

    l1 = unu_recip_h_l1(trace, u_nu) if float(np.min(h_curv)) > 0.0 else None
    lhs = deficit.cs_deficit / (DIM - 1)
    rhs = float(np.sum(w * (1.0 - h_curv * u_nu) * u_nu))
    fund2 = _report("fundamental2", lhs, rhs, scale).residual_rel

    x_nu = _support(trace)
    diff = u_nu - r_ref
    return SerrinChecks(
        unu_recip_h_l1=l1,
        fundamental2_residual_rel=fund2,
        support_min=float(np.min(x_nu)),
        unu_minus_r_l1=float(np.sum(w * np.abs(diff))),
        unu_minus_r_l2=float(np.sqrt(np.sum(w * diff * diff))),
        unu_minus_r_max=float(np.max(np.abs(diff))),
    )
