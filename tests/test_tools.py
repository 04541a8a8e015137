import importlib.util
import io
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_compare_of_two_runs_shows_no_moves(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(
        json.dumps(
            {
                "domain": {"base_radius": 1.0, "cos_coeffs": [0.0, 0.1], "sin_coeffs": [0.05], "center": [0.3, 0.2]},
                "mesh": {"n_radial": 4, "n_angular": 16, "refinement_levels": 2},
            }
        )
    )
    cases = [("verify_small", "verify", str(config))]
    runs = [str(tmp_path / name) for name in ("a", "b")]
    codes = [golden.run(out, cases) for out in runs]
    assert codes[0] == codes[1] and set(codes[0]) == {"verify_small"}

    report = io.StringIO()
    assert golden.compare(*runs, file=report)
    lines = report.getvalue().splitlines()
    files = [line for line in lines if line.startswith("verify_small/")]
    assert len(files) == 2
    for line in files:
        assert "non-float fields equal; worst abs 0 at -; worst rel 0 at -" in line

    # a moved float and a changed integer are both reported
    path = os.path.join(runs[1], "verify_small", "verify_level1.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["mesh_h"] *= 1.0 + 1e-6
    payload["n_radial"] += 1
    with open(path, "w") as fh:
        json.dump(payload, fh)
    report = io.StringIO()
    assert not golden.compare(*runs, file=report)
    assert "DIFFER at /n_radial" in report.getvalue()
    assert "worst rel 1e-06 at /mesh_h" in report.getvalue()
