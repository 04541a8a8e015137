"""What the benchmark in perfbench/ uses of the program.

These tests only read perfbench/.  A deleted traced function, a config key
that load_config now rejects, a removed StabilityParams field, or a solved
field attribute that perfbench/ reads and the program no longer sets fails
here before it fails a benchmark run.
"""
import importlib.util
import pathlib
import sys

import numpy as np
from scipy.spatial.distance import pdist

from bubblestab import cli, fem, geometry, stability

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = write
    return mod


def test_traced_functions_resolve():
    tracer = _load("tracer")
    found = tracer.originals()
    assert len(found) == sum(len(names) for names in tracer.TRACED.values()) == 17
    assert all(callable(fn) for fn in found.values())


def test_workload_configs_load(tmp_path):
    workloads = _load("workloads")
    sweep = workloads.SweepCos3(1, str(tmp_path))
    assert "sweep" in cli.load_config(sweep.config)
    ladder = workloads.VerifyLadder(1, str(tmp_path))
    assert sorted(ladder.configs) == ["disk", "ellipse"]
    for path in ladder.configs.values():
        cli.load_config(path)


def test_analyze_small_params(tmp_path):
    small = _load("workloads").AnalyzeSmall(1, str(tmp_path))
    assert small.params == stability.StabilityParams(sobolev_c=1.0)


def test_diameter_on_analyze_small_domains(tmp_path):
    # the rotating calipers over the certified trace's own samples find the
    # all-pairs maximum on the seeded domains of analyze_small, as the same float
    for _, _, domain in _load("workloads").AnalyzeSmall(1, str(tmp_path)).domains:
        points = geometry.boundary_trace(domain, 1024).points
        assert geometry._diameter(points) == float(np.sqrt(np.max(pdist(points, "sqeuclidean"))))


def test_solved_field_attributes():
    # what worker.py and workloads.py read of a solve
    field = fem.solve_torsion(fem.generate_mesh(geometry.StarDomain.disk(), 4, 16))
    assert isinstance(field.iterations, int) and field.iterations > 0
    assert isinstance(field.residual_norm, float)
    assert isinstance(field.area, float) and isinstance(field.M, float)
    n = field.space.n_nodes
    assert isinstance(n, int)
    assert field.u.shape == (n,)
    assert field.space.node_xy.shape == (n, 2)
    assert np.all(np.isfinite(field.u))
