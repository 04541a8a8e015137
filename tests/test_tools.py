import importlib.util
import io
import json
import os
import resource
import shutil

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

    # two moved floats and a changed integer are all reported; each moved
    # float gets its own line, the largest relative move first
    path = os.path.join(runs[1], "verify_small", "verify_level1.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["mesh_h"] *= 1.0 + 1e-6
    payload["deficit"]["cs_deficit"] *= 1.0 + 1e-3
    payload["n_radial"] += 1
    with open(path, "w") as fh:
        json.dump(payload, fh)
    report = io.StringIO()
    assert not golden.compare(*runs, file=report)
    assert "DIFFER at /n_radial" in report.getvalue()
    assert "worst rel 0.000999 at /deficit/cs_deficit" in report.getvalue()
    lines = report.getvalue().splitlines()
    moved = [line.split(":")[0] for line in lines if line.startswith("    ")]
    assert moved == ["    /deficit/cs_deficit", "    /mesh_h"]
    assert "    /mesh_h: abs %.3g, rel 1e-06" % (payload["mesh_h"] - payload["mesh_h"] / (1.0 + 1e-6)) in lines


def test_golden_run_without_config_and_wall_times(tmp_path):
    # the oracles cases take no --config; their wall times are shown, never compared
    cases = [case for case in golden.GOLDEN if case[2] is None]
    assert [case[:2] for case in cases] == [("oracles", "oracles"), ("oracles_fsup_N8", "oracles --fsup --N 8")]
    runs = [str(tmp_path / name) for name in ("a", "b")]
    assert golden.run(runs[0], cases) == {"oracles": 0, "oracles_fsup_N8": 0}
    shutil.copytree(*runs)
    assert sorted(os.listdir(os.path.join(runs[0], "oracles_fsup_N8"))) == ["fsup_N8.json"]
    with open(os.path.join(runs[0], "wall_s.json")) as fh:
        wall = json.load(fh)
    assert sorted(wall) == ["oracles", "oracles_fsup_N8"] and all(t > 0.0 for t in wall.values())

    # a copy of the run whose wall times differ compares equal
    with open(os.path.join(runs[1], "wall_s.json"), "w") as fh:
        json.dump({case: 1e3 * t for case, t in wall.items()}, fh)
    report = io.StringIO()
    assert golden.compare(*runs, file=report)
    lines = report.getvalue().splitlines()
    t = wall["oracles_fsup_N8"]
    with open(os.path.join(runs[0], "maxrss_mb.json")) as fh:
        rss = json.load(fh)["oracles_fsup_N8"]
    assert "  %-22s 0 0  (%.2f %.2f)  (%.1f %.1f)" % ("oracles_fsup_N8", t, 1e3 * t, rss, rss) in lines
    assert not any(line.startswith("wall_s.json") for line in lines)
    for name in ("oracles/oracles.json", "oracles_fsup_N8/fsup_N8.json"):
        assert "%s: non-float fields equal; worst abs 0 at -; worst rel 0 at -" % name in lines


def test_golden_run_reports_each_case_peak_memory(tmp_path):
    # ru_maxrss of the case's own process, read when run reaps it: a Python
    # process importing numpy and scipy holds tens of MB, and the reaped
    # child counts toward this process's children, whose maximum bounds it
    cases = [case for case in golden.GOLDEN if case[0] == "oracles"]
    runs = [str(tmp_path / name) for name in ("a", "b")]
    assert golden.run(runs[0], cases) == {"oracles": 0}
    with open(os.path.join(runs[0], "maxrss_mb.json")) as fh:
        rss = json.load(fh)
    assert sorted(rss) == ["oracles"]
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    assert 20.0 < rss["oracles"] <= children

    # compare prints both runs' figures next to the wall times and never
    # compares the file: a copy whose memory differs compares equal
    shutil.copytree(*runs)
    with open(os.path.join(runs[1], "maxrss_mb.json"), "w") as fh:
        json.dump({"oracles": 2.0 * rss["oracles"]}, fh)
    report = io.StringIO()
    assert golden.compare(*runs, file=report)
    lines = report.getvalue().splitlines()
    assert lines[0] == "exit codes: equal (wall s) (max RSS MB)"
    assert lines[1].startswith("  %-22s 0 0  (" % "oracles")
    assert lines[1].endswith("  (%.1f %.1f)" % (rss["oracles"], 2.0 * rss["oracles"]))
    assert not any(line.startswith("maxrss_mb.json") for line in lines)


def test_golden_run_records_blas_threads(tmp_path, monkeypatch):
    # the thread settings the cases ran with go to blas_env.json, null when
    # unset; compare names both runs' values on one line and flags that they
    # differ, but never compares the file, so the runs still compare equal
    cases = [case for case in golden.GOLDEN if case[0] == "oracles"]
    runs = [str(tmp_path / name) for name in ("a", "b")]
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    for run, threads in zip(runs, ("1", "2")):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert golden.run(run, cases) == {"oracles": 0}
    with open(os.path.join(runs[0], "blas_env.json")) as fh:
        assert json.load(fh) == {"MKL_NUM_THREADS": None, "OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1"}
    report = io.StringIO()
    assert golden.compare(*runs, file=report)
    lines = report.getvalue().splitlines()
    unset = "MKL_NUM_THREADS=unset OMP_NUM_THREADS=unset"
    assert lines[2] == "blas threads DIFFER: (%s OPENBLAS_NUM_THREADS=1) (%s OPENBLAS_NUM_THREADS=2)" % (unset, unset)
    assert not any(line.startswith("blas_env.json") for line in lines)

    # a run made before the file existed shows as unrecorded, unflagged
    os.remove(os.path.join(runs[0], "blas_env.json"))
    report = io.StringIO()
    assert golden.compare(*runs, file=report)
    assert report.getvalue().splitlines()[2] == "blas threads: (unrecorded) (%s OPENBLAS_NUM_THREADS=2)" % unset


def test_golden_compare_lists_every_mismatch(tmp_path):
    # seven non-float changes in one file are all named after DIFFER at
    runs = [tmp_path / name for name in ("a", "b")]
    rows = [{"theorem": "main", "holds": True, "rows": [1, 2, 3], "note": None, "x": 0.5}]
    for run, flip in zip(runs, (False, True)):
        (run / "case").mkdir(parents=True)
        for name in golden._RUN_FILES:
            (run / name).write_text(json.dumps({"case": 0}))
        payload = [dict(row) for row in rows * 2]
        if flip:
            payload[0].update(theorem="hk", holds=False, rows=[1, 2], note="n/a")
            payload[1].update(theorem="obvp", holds=None)
            payload[1]["rows"][0] = 7
        (run / "case" / "report.json").write_text(json.dumps(payload))
    report = io.StringIO()
    assert not golden.compare(*map(str, runs), file=report)
    (line,) = [line for line in report.getvalue().splitlines() if line.startswith("case/report.json")]
    differ = line.split("DIFFER at ")[1].split("; worst")[0].split(", ")
    assert differ == ["[0]/holds", "[0]/note", "[0]/rows (length)", "[0]/theorem", "[1]/holds", "[1]/rows[0]", "[1]/theorem"]


def test_golden_compare_ranks_moves_by_field_scale(tmp_path):
    # a coordinate that is 0 by symmetry holds only round-off: relative to
    # its own size it moves by O(1), relative to its point by O(1e-14), so a
    # real move of 2e-4 heads the list.  A CSV field is a column
    runs = [tmp_path / name for name in ("a", "b")]
    payloads = (
        {"x0": [0.75, 9.1e-15], "probe_diff": 1.0e-9, "rows": [{"z": [0.5, 2e-15]}, {"z": [0.25, 0.0]}]},
        {"x0": [0.75, 4e-16], "probe_diff": 1.0002e-9, "rows": [{"z": [0.5, -3e-15]}, {"z": [0.25, 0.0]}]},
    )
    tables = ("t,gap\n0.1,0.001\n0.2,2e-15\n", "t,gap\n0.1,0.001\n0.2,1e-15\n")
    for run, payload, table in zip(runs, payloads, tables):
        (run / "case").mkdir(parents=True)
        for name in golden._RUN_FILES:
            (run / name).write_text(json.dumps({"case": 0}))
        (run / "case" / "report.json").write_text(json.dumps(payload))
        (run / "case" / "sweep.csv").write_text(table)
    report = io.StringIO()
    assert golden.compare(*map(str, runs), file=report)
    lines = report.getvalue().splitlines()
    start = lines.index(next(line for line in lines if line.startswith("case/report.json")))
    assert "worst abs 2e-13 at /probe_diff; worst rel 0.0002 at /probe_diff" in lines[start]
    moved = lines[start + 1 : start + 4]
    assert [line.split(":")[0] for line in moved] == ["    /probe_diff", "    /x0[1]", "    /rows[0]/z[1]"]
    # both coordinates sit below 1e-12 of the file's largest float, 0.75:
    # round-off, listed last with the absolute move only
    assert moved[1] == "    /x0[1]: abs %.3g" % (9.1e-15 - 4e-16)
    assert moved[2] == "    /rows[0]/z[1]: abs 5e-15"
    start = lines.index(next(line for line in lines if line.startswith("case/sweep.csv")))
    assert lines[start + 1 :] == ["    [2][1]: abs 1e-15"]


def test_golden_compare_lists_round_off_last(tmp_path):
    # x0 is 0 by symmetry in both coordinates, so its field holds nothing
    # larger than round-off; its 1e-14 move must rank below the 1e-9 relative
    # move of r_exterior, and below z[1], which is small but not round-off
    runs = [tmp_path / name for name in ("a", "b")]
    payloads = (
        {"x0": [1.7e-14, 2.5e-15], "r_exterior": 2.0, "z": [0.5, 1e-10]},
        {"x0": [2.7e-14, 2.5e-15], "r_exterior": 2.0 + 2e-9, "z": [0.5, 1.5e-10]},
    )
    for run, payload in zip(runs, payloads):
        (run / "case").mkdir(parents=True)
        for name in golden._RUN_FILES:
            (run / name).write_text(json.dumps({"case": 0}))
        (run / "case" / "report.json").write_text(json.dumps(payload))
    report = io.StringIO()
    assert golden.compare(*map(str, runs), file=report)
    lines = report.getvalue().splitlines()
    start = lines.index(next(line for line in lines if line.startswith("case/report.json")))
    assert lines[start].endswith("worst rel %.3g at /r_exterior" % ((2.0 + 2e-9 - 2.0) / (2.0 + 2e-9)))
    assert [line.split(":")[0] for line in lines[start + 1 :]] == ["    /r_exterior", "    /z[1]", "    /x0[0]"]
    assert lines[-2] == "    /z[1]: abs %.3g, rel %.3g" % (1.5e-10 - 1e-10, (1.5e-10 - 1e-10) / 0.5)
    assert lines[-1] == "    /x0[0]: abs %.3g" % (2.7e-14 - 1.7e-14)


def test_golden_compare_gates_solver_noise(tmp_path):
    # a verify level whose solve stopped at a relative residual of 1e-11 (the
    # larger of the two files): a move up to 1e-11 times the file's largest
    # float, about 6.0, is solver noise, listed last and never the worst
    # relative move.  lhs moves by 2.4e-10, outside that gate of 6e-11, and
    # rhs and solver_residual by 5e-11 and 6e-12, inside it
    runs = [tmp_path / name for name in ("a", "b")]
    payloads = (
        {"solver_residual": 4e-12, "identities": [{"lhs": 6.0, "rhs": 3.0}]},
        {"solver_residual": 1e-11, "identities": [{"lhs": 6.0 + 4e-11 * 6.0, "rhs": 3.0 + 5e-11}]},
    )
    for run, payload in zip(runs, payloads):
        (run / "case").mkdir(parents=True)
        for name in golden._RUN_FILES:
            (run / name).write_text(json.dumps({"case": 0}))
        (run / "case" / "verify_level0.json").write_text(json.dumps(payload))
    report = io.StringIO()
    assert golden.compare(*map(str, runs), file=report)
    lines = report.getvalue().splitlines()
    start = lines.index(next(line for line in lines if line.startswith("case/verify_level0.json")))
    lhs_move = 6.0 + 4e-11 * 6.0 - 6.0
    assert lines[start].endswith("worst rel %.3g at /identities[0]/lhs" % (lhs_move / (6.0 + 4e-11 * 6.0)))
    assert [line.split(":")[0] for line in lines[start + 1 :]] == [
        "    /identities[0]/lhs",
        "    /identities[0]/rhs",
        "    /solver_residual",
    ]
    assert lines[start + 2] == "    /identities[0]/rhs: abs %.3g" % (3.0 + 5e-11 - 3.0)
    # without the key the same rhs move is a real one
    for run, payload in zip(runs, payloads):
        del payload["solver_residual"]
        (run / "case" / "verify_level0.json").write_text(json.dumps(payload))
    report = io.StringIO()
    assert golden.compare(*map(str, runs), file=report)
    assert "    /identities[0]/rhs: abs %.3g, rel" % (3.0 + 5e-11 - 3.0) in report.getvalue()
