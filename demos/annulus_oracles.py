"""Closed-form annulus checks and the f(kappa) supremum scan.

f(kappa) compares the hand-derived expression against the printed one and
reports the supremum next to the reference constant, flagging disagreement
instead of correcting it.
"""
import argparse

import numpy as np

from bubblestab import oracles


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n-cells", type=int, default=16384, help="radial ODE resolution")
    args = ap.parse_args()

    dim = args.dim
    print("f(kappa), N=%d" % dim)
    print("%8s %16s %16s" % ("kappa", "printed", "derived"))
    for kappa in np.round(np.arange(0.1, 0.91, 0.1), 10):
        p = oracles.f_kappa(float(kappa), dim, "printed")
        d = oracles.f_kappa(float(kappa), dim, "derived")
        print("%8.2f %16.10f %16.10f" % (kappa, p, d))
    rec = oracles.f_sup(dim)
    print(
        "sup f = %.12f at kappa=%.6f   reference %.6f   discrepancy=%s"
        % (rec.computed, rec.argmax_kappa, rec.claimed, rec.discrepancy)
    )

    print()
    print("annulus torsion, N=%d" % dim)
    print("%8s %14s %14s %14s" % ("kappa", "bnd max", "ode diff", "fd resid"))
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
        spec = oracles.AnnulusSpec(dim=dim, r=kappa, R=1.0)
        ends, _ = oracles.annulus_torsion(spec, np.array([spec.r, spec.R]))
        grid, w_num = oracles.radial_ode_oracle(dim, spec.r, spec.R, args.n_cells)
        w_exact, _ = oracles.annulus_torsion(spec, grid)
        mids = np.linspace(spec.r + 0.2 * (1 - kappa), spec.R - 0.2 * (1 - kappa), 5)
        fd = np.max(np.abs(oracles.fd_laplacian_residual(spec, mids)))
        print(
            "%8.2f %14.3e %14.3e %14.3e"
            % (kappa, np.max(np.abs(ends)), np.max(np.abs(w_num - w_exact)), fd)
        )


if __name__ == "__main__":
    main()
