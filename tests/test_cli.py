import csv
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bubblestab
from bubblestab import cli, fem, geometry, identities, stability

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

DISK_SMALL = {"mesh": {"n_radial": 8, "n_angular": 32, "refinement_levels": 2}}


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_ellipse_config_is_exact_ellipse():
    cfg_domain = cli._domain_from_config(cli.load_config(str(CONFIGS / "ellipse.json")))
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    exact = geometry.StarDomain.ellipse(1.5, 1.0).radius(theta)
    assert np.max(np.abs(cfg_domain.radius(theta) - exact)) <= 1e-14


def test_load_config_fills_defaults(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, {}))
    assert cfg["mesh"]["n_radial"] == 32
    assert cfg["params"]["x0_policy"] == "min_point"
    assert cfg["theorems"] == ["main"]
    assert "sweep" not in cfg


def test_load_config_spelled_out_defaults_equal_empty(tmp_path):
    spelled = {
        "domain": {"base_radius": 1.0, "cos_coeffs": [], "sin_coeffs": [], "center": [0.0, 0.0]},
        "mesh": {"n_radial": 32, "n_angular": 128, "refinement_levels": 3},
        "theorems": ["main"],
        "params": {"x0_policy": "min_point"},
        "outputs": {"csv_path": "sweep.csv", "json_path": "report.json"},
    }
    assert cli.load_config(write_cfg(tmp_path, spelled)) == cli.load_config(write_cfg(tmp_path, {}))
    sweep = {"sweep": {"values": [0.1], "mode_k": 3, "parameter": "t"}}
    assert cli.load_config(write_cfg(tmp_path, sweep)) == cli.load_config(write_cfg(tmp_path, {"sweep": {"values": [0.1]}}))


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"mesh": {"n_radial": 3}}, "mesh.n_radial"),
        ({"mesh": {"n_angular": 30}}, "mesh.n_angular"),
        ({"mesh": {"refinement_levels": 0}}, "mesh.refinement_levels"),
        ({"params": {"x0_policy": "weird"}}, "params.x0_policy"),
        ({"params": {"gamma": 1.5}}, "params.gamma"),
        ({"params": {"n_trace": 256}}, "unknown config keys: params.n_trace"),
        ({"sweep": {"values": []}}, "sweep.values"),
        ({"sweep": {"values": [0.2, 0.1]}}, "sweep.values"),
        ({"sweep": {"values": [0.1], "mode_k": 0}}, "sweep.mode_k"),
        ({"theorems": ["nope"]}, "theorems"),
        ({"domain": {"base_radius": -1.0}}, "domain.base_radius"),
        ({"mesh": {"n_radail": 3}}, "mesh.n_radail"),
        ({"theorem": ["hk"]}, "theorem"),
        ({"params": {"sobolev_c": 1.0}}, "params.sobolev_c"),
        ({"sweep": {"values": [0.1], "parameter": "s"}}, "sweep.parameter"),
        ({"mesh": {"refinement_levels": True}}, "mesh.refinement_levels"),
        ({"params": {"basis_degree": True}}, "params.basis_degree"),
        ({"sweep": {"values": [0.1], "mode_k": True}}, "sweep.mode_k"),
        ({"domain": {"base_radius": 10**340}}, "domain.base_radius"),
        ({"params": {"x0_policy": "center_of_mass"}}, "params.x0_policy"),
        ({"domain": {"cos_coeffs": "0.1"}}, "domain.cos_coeffs"),
        ({"domain": {"sin_coeffs": "0.1"}}, "domain.sin_coeffs"),
        ({"domain": {"center": [0.0]}}, "domain.center"),
        ({"outputs": {"csv_path": ""}}, "outputs.csv_path"),
        ({"outputs": {"json_path": ""}}, "outputs.json_path"),
        ({"sweep": {"mode_k": 3}}, "sweep.values' is required"),
        ({"sweep": {"values": [0.0, 0.1]}}, "sweep.values' must contain positive numbers"),
        ({"mesh": 3}, "mesh' must be an object"),
        ({"sweep": []}, "sweep' must be an object"),
        ({"theorems": []}, "theorems' must be a nonempty list"),
        ({"params": {"mu2": None}}, "unknown config keys: params.mu2"),
        ({"params": {"residual_threshold": 0.01}}, "unknown config keys: params.residual_threshold"),
    ],
)
def test_load_config_names_bad_key(tmp_path, payload, fragment):
    with pytest.raises(cli.ConfigError, match=fragment.replace(".", r"\.")):
        cli.load_config(write_cfg(tmp_path, payload))


def test_load_config_bad_files(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(arr))


def test_verify_disk(tmp_path):
    cfg = write_cfg(tmp_path, DISK_SMALL)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    for lev in (0, 1):
        payload = json.loads((out / ("verify_level%d.json" % lev)).read_text())
        names = [r["name"] for r in payload["identities"]]
        assert names[0] == "fundamental" and "deficit_equivalence" in names
        assert payload["solver_residual"] < 1e-8
        assert "serrin" in payload and "deficit" in payload


def test_verify_exit_one_on_tight_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_RESIDUAL_THRESHOLD", 1e-12)
    cfg = write_cfg(tmp_path, DISK_SMALL)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_verify_exit_one_on_solver_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fem, "_CG_RTOL", 0.0)
    payload = {"mesh": {"n_radial": 4, "n_angular": 16, "refinement_levels": 1}}
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: conjugate gradients")


# rho = 1 + 0.45 cos 16 theta folds the curved cells of a 16-sector mesh
# over (see tests/test_fem.py), so generate_mesh raises MeshError
FOLDED = {"mesh": {"n_radial": 4, "n_angular": 16, "refinement_levels": 2}}


@pytest.mark.parametrize("command", ["verify", "convergence", "spectral"])
def test_folded_mesh_exits_one(tmp_path, capsys, command):
    payload = dict(FOLDED, domain={"cos_coeffs": [0.0] * 15 + [0.45]})
    cfg = write_cfg(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip() == "error: non-positive Jacobian in element map"


def test_sweep_folded_mesh_lands_in_error_column(tmp_path):
    payload = dict(FOLDED, sweep={"values": [0.45], "mode_k": 16})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 1
    (row,) = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    assert row["error"] == "MeshError: non-positive Jacobian in element map"


def count_calls(monkeypatch, targets):
    """Call counts by name of each function in targets, counted from now on.

    Each function is wrapped in every bubblestab namespace that binds it, so a
    call through a name imported into another module is counted too.
    """
    calls = dict.fromkeys(targets, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in list(sys.modules.items()) if m is not None and n.split(".")[0] == "bubblestab"]
    for name, fn in targets.items():
        wrapper = counted(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_verify_computes_boundary_inputs_once_per_level(tmp_path, monkeypatch):
    # u_nu, the deficit report and the Hessian samples that the deficit and
    # the wps identity both read are each formed once per level
    calls = count_calls(
        monkeypatch,
        {
            "boundary_normal_derivative": fem.boundary_normal_derivative,
            "cs_deficit": identities.cs_deficit,
            "_hessian_samples": fem._hessian_samples,
        },
    )
    cfg = write_cfg(tmp_path, DISK_SMALL)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    levels = DISK_SMALL["mesh"]["refinement_levels"]
    assert calls == {"boundary_normal_derivative": levels, "cs_deficit": levels, "_hessian_samples": levels}


def test_verify_and_convergence_form_no_min_points(tmp_path, monkeypatch):
    # neither command reads a minimum point; spectral, which reports x0, does
    calls = count_calls(monkeypatch, {"_min_points": fem._min_points})
    cfg = write_cfg(tmp_path, DISK_SMALL)
    for command in ("verify", "convergence"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    assert calls == {"_min_points": 0}
    assert cli.main(["spectral", "--config", cfg, "--out", str(tmp_path / "spectral")]) == 0
    assert calls == {"_min_points": 1}


def sweep_payload(values):
    return {
        "mesh": {"n_radial": 8, "n_angular": 32, "refinement_levels": 1},
        "sweep": {"values": values, "mode_k": 3},
        "theorems": ["main"],
    }


def test_sweep_forms_no_hessian_samples(tmp_path, monkeypatch):
    # only the volume integrals of verify read the Hessian, so no theorem of a
    # sweep pays for it
    calls = count_calls(monkeypatch, {"_hessian_samples": fem._hessian_samples})
    payload = dict(sweep_payload([0.02, 0.05]), theorems=list(stability.THEOREMS))
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "out")]) == 0
    assert calls == {"_hessian_samples": 0}


def test_every_command_sizes_its_trace_by_one_rule(tmp_path, monkeypatch, capsys):
    # verify per level, sweep per row and spectral once all ask trace_samples
    calls = count_calls(monkeypatch, {"trace_samples": stability.trace_samples})
    payload = dict(sweep_payload([0.02, 0.05]), mesh={"n_radial": 4, "n_angular": 16, "refinement_levels": 2})
    cfg = write_cfg(tmp_path, payload)
    for command, count in (("verify", 2), ("sweep", 4), ("spectral", 5)):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert calls == {"trace_samples": count}, command
    # the trace size is not a config key
    payload["params"] = {"n_trace": 256}
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys: params.n_trace" in capsys.readouterr().err


def test_sweep_outputs_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, sweep_payload([0.02, 0.05]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    lines = (out1 / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli._CSV_COLUMNS)
    assert len(lines) == 3
    for row in csv.DictReader(lines):
        assert row["holds"] == "true"
        assert row["error"] == ""
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    detail = json.loads((out1 / "report.json").read_text())
    assert [row["t"] for row in detail["rows"]] == [0.02, 0.05]


def test_sweep_row_failure_lands_in_error_column(tmp_path):
    # t = 1.1 makes the radius vanish, an invalid domain for that row only
    cfg = write_cfg(tmp_path, sweep_payload([0.02, 1.1]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == ""
    assert "DomainError" in lines[2]


def test_sweep_rows_name_their_theorem(tmp_path):
    # with two theorems the rows of one t, error rows included, are told apart by label
    payload = sweep_payload([0.02, 1.1])
    payload["theorems"] = ["main", "hk"]
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 1
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    labels = [(float(row["t"]), row["theorem"]) for row in rows]
    assert labels == [(0.02, "main"), (0.02, "hk"), (1.1, "main"), (1.1, "hk")]
    assert [row["error"] == "" for row in rows] == [True, True, False, False]


def test_sweep_inapplicable_theorem_row(tmp_path):
    # at t = 0.1 min H is exactly 0: the mean_convex row says why it does not
    # apply, and the main row of the same t keeps its numbers
    payload = sweep_payload([0.05, 0.1])
    payload["theorems"] = ["main", "mean_convex"]
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert [(float(row["t"]), row["theorem"]) for row in rows] == [
        (0.05, "main"), (0.05, "mean_convex"), (0.1, "main"), (0.1, "mean_convex")
    ]
    assert [row["error"] for row in rows[:3]] == ["", "", ""]
    assert rows[2]["holds"] == "true" and float(rows[2]["C"]) > 0.0
    assert rows[3]["error"] == "not applicable: mean_convex variant needs strictly positive boundary curvature"
    assert rows[3]["C"] == "" and rows[3]["holds"] == ""


def test_sweep_keeps_base_modes_above_mode_k(tmp_path):
    # the cos 4 theta term of the base domain stays in every swept domain
    payload = sweep_payload([0.01])
    payload["domain"] = {"cos_coeffs": [0.0, 0.0, 0.0, 0.05]}
    out = tmp_path / "out"
    cli.main(["sweep", "--config", write_cfg(tmp_path, payload), "--out", str(out)])
    area = json.loads((out / "report.json").read_text())["rows"][0]["summary"]["area"]
    assert abs(area - np.pi * (1.0 + (0.01**2 + 0.05**2) / 2.0)) <= 1e-12


def test_spectral_disk(tmp_path):
    payload = {
        "mesh": {"n_radial": 8, "n_angular": 32, "refinement_levels": 1},
    }
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    est = json.loads((out / "spectral.json").read_text())
    assert abs(est["mu0_upper"] - 4.0) < 1e-2
    assert est["mu0_lower"] is not None  # convex domain gets the Neumann gap
    assert est["mu0_lower"] < est["mu0_upper"]


def test_oracles_fsup(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["oracles", "--fsup", "--N", "3", "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    rec = json.loads(line)
    assert rec["computed"] == pytest.approx(1.5, abs=1e-6)
    assert rec["discrepancy"] is False
    assert (out / "fsup_N3.json").exists()

    assert cli.main(["oracles", "--fsup", "--N", "2", "--out", str(out)]) == 0
    rec2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec2["computed"] == pytest.approx(1.0, abs=1e-6)
    assert rec2["claimed"] == pytest.approx(1.5)
    assert rec2["discrepancy"] is True


def test_oracles_table(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["oracles", "--out", str(out)]) == 0
    payload = json.loads((out / "oracles.json").read_text())
    assert [row["N"] for row in payload["f_table"]] == list(range(2, 9))
    row4 = payload["f_table"][2]
    for a, b in zip(row4["f_printed"], row4["f_derived"]):
        assert abs(a - b) < 1e-10
    assert len(payload["annulus"]) == 25
    assert all(rec["boundary_abs_max"] < 1e-12 for rec in payload["annulus"])


def test_convergence_disk(tmp_path):
    payload = {"mesh": {"n_radial": 8, "n_angular": 32, "refinement_levels": 3}}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    rec = json.loads((out / "convergence.json").read_text())
    errs = [lev["linf_error"] for lev in rec["levels"]]
    assert errs[0] > errs[1] > errs[2]
    assert all(o > 2.0 for o in rec["orders"])


@pytest.mark.parametrize("center,levels", [([0.0, 0.0], 2), ([0.3, -0.2], 3)])
def test_convergence_zero_spelled_disk_is_the_disk(tmp_path, center, levels):
    # the disk is told by its coefficients' values, not their number: spelled
    # with zeros it gets the disk's nodal errors and orders, byte for byte
    written = []
    for tag, cos, sin in (("empty", [], []), ("zeros", [0.0], [0.0, 0.0])):
        domain = {"cos_coeffs": cos, "sin_coeffs": sin, "center": center}
        mesh = {"n_radial": 4, "n_angular": 16, "refinement_levels": levels}
        cfg = write_cfg(tmp_path, {"domain": domain, "mesh": mesh}, name=tag + ".json")
        out = tmp_path / tag
        assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        written.append((out / "convergence.json").read_bytes())
    assert written[0] == written[1]
    rec = json.loads(written[0])
    assert all("linf_error" in lev for lev in rec["levels"])
    assert len(rec["orders"]) == levels - 1


def test_convergence_needs_two_levels(tmp_path):
    payload = {"mesh": {"n_radial": 8, "n_angular": 32, "refinement_levels": 1}}
    cfg = write_cfg(tmp_path, payload)
    assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_usage_errors(tmp_path):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["verify"]) == 2  # --config required
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_oracles_rejects_dimension_below_two(tmp_path, capsys, n):
    # a usage error, caught by argparse before oracles.f_kappa sees it
    assert cli.main(["oracles", "--fsup", "--N", n, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --N: dim must be >= 2" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["2", "5"])
def test_oracles_rejects_dimension_without_fsup(tmp_path, capsys, n):
    # --N only sets the dimension of --fsup; alone it would be ignored
    assert cli.main(["oracles", "--N", n, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --N: only valid with --fsup" in err
    assert not list(tmp_path.iterdir())


def test_oracles_takes_no_config(tmp_path, capsys):
    # no oracle reads a config, so oracles has no --config to validate
    assert cli.main(["oracles", "--config", str(tmp_path / "x.json"), "--out", str(tmp_path)]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_oracles_fsup_defaults_to_dimension_two(tmp_path, capsys):
    assert cli.main(["oracles", "--fsup", "--out", str(tmp_path)]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["computed"] == pytest.approx(1.0, abs=1e-6)
    assert [p.name for p in tmp_path.iterdir()] == ["fsup_N2.json"]


def checkout_env():
    """Environment whose PYTHONPATH puts the imported bubblestab first."""
    env = dict(os.environ)
    src = str(pathlib.Path(bubblestab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def assert_fsup_n4(command, tmp_path, env=None):
    proc = subprocess.run(
        command + ["oracles", "--fsup", "--N", "4", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["computed"] == pytest.approx(2.0, abs=1e-6)


def test_console_script(tmp_path):
    env = checkout_env()
    proc = subprocess.run(
        [sys.executable, "-m", "bubblestab.cli"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    # run the declared entry point the way an installer's wrapper script does
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["bubblestab"]
    module, attr = entry.split(":")
    wrapper = "import sys; from %s import %s; sys.argv[0] = 'bubblestab'; sys.exit(%s())" % (
        module,
        attr.split(".")[0],
        attr,
    )
    assert_fsup_n4([sys.executable, "-c", wrapper], tmp_path, env)


@pytest.mark.skipif(
    shutil.which("bubblestab") is None,
    reason="the bubblestab console script is not on PATH (package not installed)",
)
def test_installed_console_script(tmp_path):
    assert_fsup_n4(["bubblestab"], tmp_path)


_RUN_PATHS_SCRIPT = """
import json, sys
from bubblestab import cli

cfg, sweep_cfg, out = sys.argv[1:]
codes = [
    cli.main([command, "--config", config, "--out", out])
    for command, config in [("verify", cfg), ("sweep", sweep_cfg), ("spectral", cfg), ("convergence", cfg)]
]
unused = [name for name in ("scipy.spatial", "scipy.optimize", "scipy.special") if name in sys.modules]
from bubblestab import oracles

rec = oracles.f_sup(8)
print(json.dumps({"codes": codes, "unused": unused, "computed": rec.computed, "kappa": rec.argmax_kappa}))
"""


def test_run_paths_import_only_sparse_and_linalg(tmp_path):
    # a fresh interpreter: every run path, then f_sup, which imports scipy.optimize itself
    small = {
        "domain": {"base_radius": 1.0, "cos_coeffs": [0.0, 0.1], "sin_coeffs": [0.05], "center": [0.3, 0.2]},
        "mesh": {"n_radial": 4, "n_angular": 16, "refinement_levels": 2},
    }
    sweep = dict(
        small,
        sweep={"values": [0.01, 0.02], "mode_k": 3},
        theorems=["main", "main_cm", "hk", "mean_convex", "obvp"],
    )
    argv = [write_cfg(tmp_path, small), write_cfg(tmp_path, sweep, "sweep.json"), str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATHS_SCRIPT, *argv], capture_output=True, text=True, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["unused"] == []
    # the value c05 reports
    assert result["computed"] == 4.148018626398776
    assert result["kappa"] == pytest.approx(0.6749, abs=1e-4)
