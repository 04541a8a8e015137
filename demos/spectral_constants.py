"""Harmonic-Poincare constants: Galerkin upper estimates against the explicit lower bound."""
import argparse

import numpy as np

from bubblestab import geometry, spectral


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--domain", choices=("disk", "ellipse"), default="disk")
    ap.add_argument("--max-degree", type=int, default=12)
    ap.add_argument("--mu2", type=float, default=None, help="Neumann gap; default pi^2/d^2 (convex)")
    args = ap.parse_args()

    dom = geometry.StarDomain.disk() if args.domain == "disk" else geometry.StarDomain.ellipse(1.5, 1.0)
    trace = geometry.boundary_trace(dom, 1024)
    summary = geometry.geometry_summary(dom, trace)
    x0 = np.asarray(dom.center, dtype=float)

    print("%8s %14s %14s" % ("degree", "mu0 upper", "mubar upper"))
    for deg in range(2, args.max_degree + 1, 2):
        mu0 = spectral.harmonic_rayleigh_min(dom, "point", deg, x0=x0)
        mubar = spectral.harmonic_rayleigh_min(dom, "mean_zero", deg)
        print("%8d %14.8f %14.8f" % (deg, mu0, mubar))

    mu2 = args.mu2 if args.mu2 is not None else spectral.mu2_lower_convex(summary.diameter)
    lower = spectral.mu0_lower_bound(summary.r_interior, summary.area, mu2)
    print("mu2=%.8f  r_i=%.6f  area=%.6f" % (mu2, summary.r_interior, summary.area))
    print("explicit lower bound mu0 >= %.8f" % lower)


if __name__ == "__main__":
    main()
