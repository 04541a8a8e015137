"""Mesh refinement study for the torsion solve on a disk or ellipse.

The disk has the closed form u = (|x|^2 - 1)/2, the ellipse its own
quadratic, so both report true nodal errors and observed orders.
"""
import argparse

import numpy as np

from bubblestab import fem, geometry


def exact_values(name, nodes):
    if name == "disk":
        return 0.5 * (np.einsum("ic,ic->i", nodes, nodes) - 1.0)
    a, b = 1.5, 1.0
    s = a * a * b * b / (a * a + b * b)
    return (nodes[:, 0] ** 2 / a**2 + nodes[:, 1] ** 2 / b**2 - 1.0) * s


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", choices=("disk", "ellipse"), default="disk")
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--n-radial", type=int, default=8)
    ap.add_argument("--n-angular", type=int, default=32)
    args = ap.parse_args()

    dom = geometry.StarDomain.disk() if args.domain == "disk" else geometry.StarDomain.ellipse(1.5, 1.0)
    print("%8s %8s %12s %8s" % ("n_rad", "n_ang", "Linf error", "order"))
    prev = None
    for lev in range(args.levels):
        n_r = args.n_radial * 2**lev
        n_a = args.n_angular * 2**lev
        field = fem.solve_torsion(fem.generate_mesh(dom, n_r, n_a))
        err = float(np.max(np.abs(field.u - exact_values(args.domain, field.mesh.node_xy))))
        order = "" if prev is None else "%8.2f" % np.log2(prev / err)
        print("%8d %8d %12.4e %s" % (n_r, n_a, err, order))
        prev = err


if __name__ == "__main__":
    main()
