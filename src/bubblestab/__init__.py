"""Numerical laboratory for torsion-function soap bubble stability.

Solves the constant-right-hand-side torsion problem on star-shaped planar
domains with a curved P2 finite element method, evaluates the classical
integral identities relating the Cauchy-Schwarz deficit to boundary data,
estimates harmonic Poincare constants, and checks explicit quantitative
stability bounds (inner/outer touching ball gap against mean curvature
deviation) with fully traced constants.

The package root re-exports nothing; import the modules, e.g.
``from bubblestab import fem, stability``.
"""

__version__ = "0.1.0"
