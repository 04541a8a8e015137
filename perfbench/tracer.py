"""Spans around calls into bubblestab's public functions, recorded from outside.

A function is wrapped in every bubblestab module namespace that binds it, so a
call is seen whether it goes through ``bubblestab.fem.solve_torsion``, the
name ``solve_torsion`` imported into ``bubblestab.stability``, or the package
re-export.  Patching only the defining module would miss the calls made
through names imported elsewhere.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# Public functions timed by the traced run, by module.  Helpers they call
# (touching_radii inside geometry_summary, for instance) are not wrapped, so
# their time counts as self time of the traced caller.
TRACED = {
    "geometry": ("boundary_trace", "geometry_summary", "rho_bounds"),
    "fem": ("generate_mesh", "solve_torsion", "boundary_normal_derivative", "domain_quadrature"),
    "spectral": ("spectral_estimate", "harmonic_rayleigh_min"),
    "identities": ("identity_suite", "cs_deficit", "serrin_checks"),
    "stability": ("analyze_domain", "check_stability", "deviation_norms"),
    "oracles": ("gradient_bounds",),
    "cli": ("main",),
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bubblestab" or name.startswith("bubblestab."))
    ]


class Patch:
    """Context manager that swaps functions for wrappers in every namespace.

    ``wrappers`` maps each original function object to its replacement; on
    exit every binding is restored.
    """

    def __init__(self, wrappers: dict):
        self._by_id = {id(orig): (orig, new) for orig, new in wrappers.items()}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()
        return False


class SolveLog:
    """Keeps every TorsionField that solve_torsion returns during one operation.

    The work counters (CG iterations, P2 nodes) and the residual check read
    these returned objects; the log adds one Python call per solve.
    """

    def __init__(self):
        self.fields: list = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def solve_torsion(*args, **kwargs):
            field = fn(*args, **kwargs)
            self.fields.append(field)
            return field

        return solve_torsion


class SpanRecorder:
    """In-memory spans [name, parent index, start, end] for one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def self_times(self) -> list[tuple[str, float]]:
        """(name, duration minus the time its direct child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], (s[3] - s[2]) - child[i]) for i, s in enumerate(self.spans)]


def originals() -> dict[str, object]:
    """The unwrapped traced functions by span name, e.g. "fem.solve_torsion".

    Call once, before any Patch is entered, and build every later patch from
    the result.
    """
    out = {}
    for short, names in TRACED.items():
        mod = importlib.import_module("bubblestab." + short)
        for fname in names:
            out["%s.%s" % (short, fname)] = getattr(mod, fname)
    return out


def patch(funcs: dict[str, object], log: SolveLog, spans: SpanRecorder | None = None) -> Patch:
    """Patch that logs every solve and, when spans is given, records a span per call."""
    wrapped = {}
    for name, orig in funcs.items():
        fn = log.wrap(orig) if name == "fem.solve_torsion" else orig
        if spans is not None:
            fn = spans.wrap(name, fn)
        if fn is not orig:
            wrapped[orig] = fn
    return Patch(wrapped)
