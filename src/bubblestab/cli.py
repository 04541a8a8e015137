"""Config-driven command line front end.

Subcommands: verify (identity suites over refinement levels), sweep
(stability checks over a perturbation family), spectral, oracles, and
convergence (refinement study of the solver).  All outputs are deterministic:
floats are printed with 17 significant digits, rows keep input order, and no
timestamps or environment data enter the files.

Exit codes: 0 success; 1 verification failure, or a DomainError, MeshError,
SolverError or other ValueError raised by the run; 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import fem, geometry, identities, oracles, stability


class ConfigError(Exception):
    """Malformed configuration; the message names the offending key."""


def _fmt(x) -> str:
    if x is None or isinstance(x, str):
        return x or ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _jsonify(obj):
    """Recursively convert numpy scalars/arrays and dataclasses for json.dump."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- config ------------------------------------------------------------------

def _number(v) -> bool:
    # exact comparison: rejects inf, nan and integers too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and all(_number(x) for x in v)


def _nonempty_str(v) -> bool:
    return isinstance(v, str) and v != ""


_REQUIRED = object()  # the default of a key that has none

# Every config key, "section.key" -> (default, (test, message), ...).
# "theorems" is a value, not an object, and the sweep section is read only
# when the config has one.  Keys are validated in this order, each key's
# tests in turn, and the first test that fails is reported as
# "config key '<key>' <message>".
_CONFIG = {
    "domain.base_radius": (1.0, (lambda v: _number(v) and v > 0, "must be a positive number")),
    "domain.cos_coeffs": ([], (_numbers, "must be a list of numbers")),
    "domain.sin_coeffs": ([], (_numbers, "must be a list of numbers")),
    "domain.center": ([0.0, 0.0], (lambda v: _numbers(v) and len(v) == 2, "must be a pair of numbers")),
    "mesh.n_radial": (32, (lambda v: _integer(v) and v >= 4, "must be an integer >= 4")),
    "mesh.n_angular": (
        128,
        (lambda v: _integer(v) and v >= 16 and v % 4 == 0, "must be an integer multiple of 4, >= 16"),
    ),
    "mesh.refinement_levels": (3, (lambda v: _integer(v) and v >= 1, "must be an integer >= 1")),
    "sweep.values": (
        _REQUIRED,
        (lambda v: isinstance(v, list) and len(v) > 0, "must be a nonempty list"),
        (lambda v: all(_number(x) and x > 0 for x in v), "must contain positive numbers"),
        (lambda v: all(b > a for a, b in zip(v, v[1:])), "must be strictly increasing"),
    ),
    "sweep.mode_k": (3, (lambda v: _integer(v) and v >= 1, "must be an integer >= 1")),
    "sweep.parameter": ("t", (lambda v: v == "t", "must be 't' (the cos(mode_k theta) amplitude)")),
    "theorems": (
        ["main"],
        (
            lambda v: isinstance(v, list) and len(v) > 0 and all(t in stability.THEOREMS for t in v),
            "must be a nonempty list drawn from %s" % (stability.THEOREMS,),
        ),
    ),
    "params.x0_policy": ("min_point", (lambda v: v == "min_point", "must be 'min_point'")),
    "outputs.csv_path": ("sweep.csv", (_nonempty_str, "must be a nonempty string")),
    "outputs.json_path": ("report.json", (_nonempty_str, "must be a nonempty string")),
}
_SECTIONS = list(dict.fromkeys(name.partition(".")[0] for name in _CONFIG))

# verify exits 1 when the finest level's worst residual_rel exceeds this
_RESIDUAL_THRESHOLD = 0.01


def load_config(path: str) -> dict:
    """Read, default-fill, and validate an experiment config against _CONFIG."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = [k for k in raw if k not in _SECTIONS]
    for section in _SECTIONS:
        if section in raw and section not in _CONFIG:
            if not isinstance(raw[section], dict):
                raise ConfigError("config key '%s' must be an object" % section)
            unknown += ["%s.%s" % (section, k) for k in raw[section] if "%s.%s" % (section, k) not in _CONFIG]
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))

    cfg = {}
    for name, (default, *_) in _CONFIG.items():
        section, _, key = name.partition(".")
        if not key:
            cfg[section] = raw.get(section, default)
        elif section != "sweep" or section in raw:
            cfg.setdefault(section, {})[key] = raw.get(section, {}).get(key, default)

    for name, (_, *tests) in _CONFIG.items():
        section, _, key = name.partition(".")
        if section not in cfg:
            continue
        value = cfg[section][key] if key else cfg[section]
        if value is _REQUIRED:
            raise ConfigError("config key '%s' is required" % name)
        for test, message in tests:
            if not test(value):
                raise ConfigError("config key '%s' %s" % (name, message))
    return cfg


def _domain_from_config(cfg: dict) -> geometry.StarDomain:
    dom = cfg["domain"]
    try:
        return geometry.StarDomain(
            base_radius=float(dom["base_radius"]),
            cos_coeffs=np.asarray(dom["cos_coeffs"], dtype=float),
            sin_coeffs=np.asarray(dom["sin_coeffs"], dtype=float),
            center=np.asarray(dom["center"], dtype=float),
        )
    except geometry.DomainError as exc:
        raise ConfigError("config key 'domain' invalid: %s" % exc)


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# -- subcommands -------------------------------------------------------------


def cmd_verify(cfg: dict, out_dir: str) -> int:
    domain = _domain_from_config(cfg)
    n_r = cfg["mesh"]["n_radial"]
    n_a = cfg["mesh"]["n_angular"]
    levels = cfg["mesh"]["refinement_levels"]

    worst_finest = 0.0
    # (trace, summary) by trace size: levels whose size agrees share them
    geom = {}
    for lev in range(levels):
        mesh = fem.generate_mesh(domain, n_r * 2**lev, n_a * 2**lev)
        field = fem.solve_torsion(mesh)
        size = stability.trace_samples(mesh.n_angular)
        if size not in geom:
            trace = geometry.boundary_trace(domain, size)
            geom[size] = trace, geometry.geometry_summary(domain, trace)
        trace, summary = geom[size]
        u_nu = fem.boundary_normal_derivative(field, trace.thetas)
        deficit = identities.cs_deficit(field)
        reports = identities.identity_suite(field, trace, summary, u_nu, deficit)
        serrin = identities.serrin_checks(trace, summary, u_nu, deficit)
        payload = {
            "level": lev,
            "n_radial": mesh.n_radial,
            "n_angular": mesh.n_angular,
            "mesh_h": mesh.h,
            "solver_residual": field.residual_norm,
            "identities": reports,
            "deficit": deficit,
            "serrin": serrin,
        }
        _write_json(_out_path(out_dir, "verify_level%d.json" % lev), payload)
        if lev == levels - 1:
            worst_finest = max(
                (r.residual_rel for r in reports if r.applicable), default=0.0
            )
        # free this level's field, and its cached Hessian samples, before
        # the next level's mesh and solve
        del mesh, field
    print("verify: finest-level worst residual_rel = %s (threshold %s)" % (_fmt(worst_finest), _fmt(_RESIDUAL_THRESHOLD)))
    return 0 if worst_finest <= _RESIDUAL_THRESHOLD else 1


_CSV_COLUMNS = ("t", "theorem", "dev_L1", "dev_inf", "rho_i", "rho_e", "gap", "C", "eps", "tau", "holds", "smallness_ok", "error")


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    if "sweep" not in cfg:
        raise ConfigError("config key 'sweep' is required for the sweep command")
    base = _domain_from_config(cfg)
    sw = cfg["sweep"]
    mode_k = sw["mode_k"]
    theorems = cfg["theorems"]
    n_r = cfg["mesh"]["n_radial"]
    n_a = cfg["mesh"]["n_angular"]

    rows: list[dict] = []
    detail = []
    failed = False
    for t in sw["values"]:
        cos = np.zeros(max(mode_k, base.cos_coeffs.size))
        cos[: base.cos_coeffs.size] = base.cos_coeffs
        cos[mode_k - 1] = t
        try:
            domain = geometry.StarDomain(
                base_radius=base.base_radius,
                cos_coeffs=cos,
                sin_coeffs=base.sin_coeffs,
                center=base.center,
            )
            analysis = stability.analyze_domain(
                domain,
                n_radial=n_r,
                n_angular=n_a,
                theorems=theorems,
            )
        except Exception as exc:  # per-row failure lands in the error column
            for theorem in theorems:
                rows.append({"t": t, "theorem": theorem, "error": "%s: %s" % (type(exc).__name__, exc)})
            failed = True
            continue
        dev = analysis.deviation
        for rep in analysis.reports:
            if isinstance(rep, stability.NotApplicableReport):
                rows.append({"t": t, "theorem": rep.theorem, "error": "not applicable: %s" % rep.reason})
                continue
            rows.append(
                {
                    "t": t,
                    "theorem": rep.theorem,
                    "dev_L1": dev.h0_minus_h_l1,
                    "dev_inf": dev.h0_minus_h_inf,
                    "rho_i": rep.rho_i,
                    "rho_e": rep.rho_e,
                    "gap": rep.gap,
                    "C": rep.c_stab,
                    "eps": rep.eps,
                    "tau": rep.tau,
                    "holds": rep.holds,
                    "smallness_ok": rep.smallness_ok,
                    "error": "",
                }
            )
            if not rep.holds:
                failed = True
        detail.append(
            {
                "t": t,
                "deviation_norms": dev,
                "summary": analysis.summary,
                "spectral": analysis.spectral,
                "gradient_bounds": analysis.grad_bounds,
                "M": analysis.field.M,
                "reports": analysis.reports,
            }
        )

    csv_path = _out_path(out_dir, cfg["outputs"]["csv_path"])
    with open(csv_path, "w") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(col, "")) for col in _CSV_COLUMNS) + "\n")
    _write_json(_out_path(out_dir, cfg["outputs"]["json_path"]), {"mode_k": mode_k, "rows": detail})
    print("sweep: %d rows -> %s" % (len(rows), csv_path))
    return 1 if failed else 0


def cmd_spectral(cfg: dict, out_dir: str) -> int:
    domain = _domain_from_config(cfg)
    est = stability.analyze_domain(
        domain,
        n_radial=cfg["mesh"]["n_radial"],
        n_angular=cfg["mesh"]["n_angular"],
        theorems=(),
    ).spectral
    _write_json(_out_path(out_dir, "spectral.json"), est)
    print(
        "spectral: mu0_upper=%s mubar_upper=%s mu0_lower=%s"
        % (_fmt(est.mu0_upper), _fmt(est.mubar_upper), _fmt(est.mu0_lower))
    )
    return 0


def cmd_oracles(out_dir: str, fsup_dim: int | None = None) -> int:
    if fsup_dim is not None:
        rec = oracles.f_sup(fsup_dim)
        payload = _jsonify(rec)
        print(json.dumps(payload, sort_keys=True))
        _write_json(_out_path(out_dir, "fsup_N%d.json" % fsup_dim), rec)
        return 0
    kappas = np.round(np.arange(0.05, 0.951, 0.05), 10)
    table = []
    for dim in range(2, 9):
        table.append(
            {
                "N": dim,
                "kappa": list(kappas),
                "f_printed": list(oracles.f_kappa(kappas, dim, "printed")),
                "f_derived": list(oracles.f_kappa(kappas, dim, "derived")),
                "f_sup": oracles.f_sup(dim),
            }
        )
    annulus = []
    for dim in range(2, 7):
        for kappa in np.round(np.arange(0.1, 0.91, 0.2), 10):
            spec_a = oracles.AnnulusSpec(dim=dim, r=float(kappa), R=1.0)
            ends, _ = oracles.annulus_torsion(spec_a, np.array([spec_a.r, spec_a.R]))
            mid = 0.5 * (spec_a.r + spec_a.R)
            annulus.append(
                {
                    "N": dim,
                    "kappa": float(kappa),
                    "boundary_abs_max": float(np.max(np.abs(ends))),
                    "fd_laplacian_residual_mid": float(
                        oracles.fd_laplacian_residual(spec_a, np.array([mid]))[0]
                    ),
                }
            )
    _write_json(_out_path(out_dir, "oracles.json"), {"f_table": table, "annulus": annulus})
    print("oracles: wrote f tables for N=2..8 and annulus checks")
    return 0


def cmd_convergence(cfg: dict, out_dir: str) -> int:
    """Refinement study: nodal max error on a disk, probe differences elsewhere.

    Off the disk the order comes from the change of u at 8 fixed probe points
    between successive levels.  That change is small (7.0e-9 at 64x256 on the
    exact 1.5x1 ellipse) and the CG stop leaves about 5e-13 of noise in each
    probe value, so such an order is good to about 4 digits.
    """
    domain = _domain_from_config(cfg)
    levels = cfg["mesh"]["refinement_levels"]
    if levels < 2:
        raise ConfigError("config key 'mesh.refinement_levels' must be >= 2 for convergence")
    n_r = cfg["mesh"]["n_radial"]
    n_a = cfg["mesh"]["n_angular"]
    is_disk = not (np.any(domain.cos_coeffs) or np.any(domain.sin_coeffs))

    records = []
    probe_offsets = None
    probe_vals = []
    for lev in range(levels):
        mesh = fem.generate_mesh(domain, n_r * 2**lev, n_a * 2**lev)
        field = fem.solve_torsion(mesh)
        rec = {"level": lev, "n_radial": mesh.n_radial, "n_angular": mesh.n_angular, "h": mesh.h}
        if is_disk:
            exact, _, _ = oracles.ball_torsion(domain.base_radius, field.mesh.node_xy - domain.center[None, :])
            rec["linf_error"] = float(np.max(np.abs(field.u - exact)))
        else:
            if probe_offsets is None:
                ang = np.pi * np.arange(8) / 4.0
                probe_offsets = 0.3 * domain.radius(ang)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
            vals, _ = fem.eval_at_points(field, domain.center[None, :] + probe_offsets)
            probe_vals.append(vals)
        records.append(rec)
        del mesh, field

    if is_disk:
        errs = [rec["linf_error"] for rec in records]
    else:
        errs = [float(np.max(np.abs(v2 - v1))) for v1, v2 in zip(probe_vals, probe_vals[1:])]
        for rec, d in zip(records[1:], errs):
            rec["probe_diff"] = d
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:]) if b > 0]
    _write_json(_out_path(out_dir, "convergence.json"), {"levels": records, "orders": orders})
    print("convergence: orders %s" % (", ".join(_fmt(o) for o in orders) or "n/a"))
    return 0


def _dimension(text: str) -> int:
    """--N as argparse reads it: oracles.f_kappa needs N >= 2."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("dim must be >= 2, got %d" % n)
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bubblestab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "sweep", "spectral", "oracles", "convergence"):
        p = sub.add_parser(name)
        if name != "oracles":
            p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=".", help="output directory")
        if name == "oracles":
            p.add_argument("--fsup", action="store_true", help="report only the f supremum")
            p.add_argument("--N", type=_dimension, help="dimension for --fsup, >= 2 (default 2)")
            oracles_parser = p
    try:
        args = parser.parse_args(argv)
        if args.command == "oracles" and args.N is not None and not args.fsup:
            oracles_parser.error("argument --N: only valid with --fsup")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "oracles":
            return cmd_oracles(args.out, fsup_dim=(args.N or 2) if args.fsup else None)
        cfg = load_config(args.config)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "spectral":
            return cmd_spectral(cfg, args.out)
        return cmd_convergence(cfg, args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (geometry.DomainError, fem.MeshError, fem.SolverError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
