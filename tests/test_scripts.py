"""Smoke runs of the example scripts, so a CLI change cannot break them
unnoticed."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run_from_a_checkout(tmp_path):
    """A script finds the package in ``src/`` with no ``PYTHONPATH`` and
    from any working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(SCRIPTS / "solve_signatures.py"), "--help"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_desk_bench_runs(tmp_path, capsys):
    out = tmp_path / "desk"
    rc = _load("desk_bench").run(["--scale-n", "3", "--replicates", "1",
                                  "--time-limit", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(out / "bench.csv", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    # header, then one row per (paper cell, formulation)
    assert rows[0][:6] == ["corr", "n", "eps", "xi", "seed", "form"]
    solves = [r for r in rows[1:] if len(r) > 5 and r[5] in ("miqp", "persp")]
    assert len(solves) == 27 * 2


def test_pareto_demo_runs(tmp_path, capsys):
    out = tmp_path / "pareto"
    rc = _load("pareto_demo").run(["--n", "4", "--time-limit", "5",
                                   "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(out / "pareto.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [0, 1, 2, 3, 4]
    assert (out / "pareto.svg").read_text().startswith("<svg")


def test_bench_layers_runs(capsys):
    rc = _load("bench_layers").run(["--n", "12", "64", "--calls", "2",
                                    "--repeats", "1", "--relax-calls", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split() == ["n", "form", "build_us", "value_us", "newton_us", "ties",
                                "start_us", "start_ties", "fresh_us"]
    rows = [line.split() for line in lines[2:6]]
    # one row per n x formulation
    assert [r[:2] for r in rows] == [[n, f] for n in ("12", "64")
                                     for f in ("persp", "miqp")]
    assert all(float(r[k]) > 0.0 for r in rows for k in (2, 3, 4, 6, 8))
    # the persp roots' steps hold a level tie, the first steps none
    assert [(r[5], r[7]) for r in rows] == [("1", "0"), ("0", "0")] * 2
    # then the node relaxation: one row per n x formulation x relaxation,
    # with its pricings of the dual, Newton steps and line searches
    assert lines[6].split() == ["n", "form", "relax", "evals", "newton", "search",
                                "relax_us"]
    rows = [line.split() for line in lines[7:19]]
    assert [r[:3] for r in rows] == [[n, f, c] for n in ("12", "64")
                                     for f in ("persp", "miqp")
                                     for c in ("root", "pruned", "open")]
    assert all(float(r[6]) > 0.0 for r in rows)
    # a step runs at most one line search
    assert all(int(r[5]) <= int(r[4]) for r in rows)
    # a pruned child costs its warm-start pricing, which the point is read from
    assert all(r[3:6] == ["1", "0", "0"] for r in rows if r[2] == "pruned")
    # the root takes Newton steps, each pricing the dual once
    assert all(int(r[4]) > 0 and int(r[3]) <= int(r[4]) + 2 for r in rows
               if r[2] == "root")
    # then reduced-cost fixing at the root: one row per n x formulation
    assert lines[19].split() == ["n", "form", "free", "fixed", "removed", "fix_us"]
    rows = [line.split() for line in lines[20:24]]
    assert [r[:2] for r in rows] == [[n, f] for n in ("12", "64")
                                     for f in ("persp", "miqp")]
    assert all(0 <= int(r[3]) <= int(r[2]) and int(r[3]) <= int(r[4])
               and float(r[5]) > 0.0 for r in rows)
    # the persp root of the n = 64 paper cell fixes activities
    assert int(rows[2][3]) > 0
    # then the leaf solve of the root rounding: one row per n x formulation x
    # leaf, with how its descent ended and its Newton steps
    assert lines[24].split() == ["n", "form", "leaf", "end", "newton", "leaf_us"]
    rows = [line.split() for line in lines[25:37]]
    assert [r[:3] for r in rows] == [[n, f, c] for n in ("12", "64")
                                     for f in ("persp", "miqp")
                                     for c in ("full", "cut", "target")]
    assert all(float(r[5]) > 0.0 for r in rows)
    for full, cut, target in zip(rows[::3], rows[1::3], rows[2::3]):
        assert full[3] == "converged" and cut[3:5] == ["bound", "0"]
        # the target stops the descent early, unless its start is the optimum
        assert (target[3] == "target" and int(target[4]) < int(full[4])
                or target[3:5] == full[3:5] == ["converged", "0"])
    assert sum(r[3] == "target" for r in rows) >= 3
    # then the search on the coupled weak n = 30 case: one row per formulation
    assert lines[37].split() == ["n", "form", "status", "nodes", "relax", "descents",
                                 "rays", "pooled", "solve_ms", "pool", "rays_us"]
    rows = [line.split() for line in lines[38:40]]
    assert [r[:2] for r in rows] == [["30", f] for f in ("persp", "miqp")]
    for r in rows:
        relaxations, descents, rays, pooled = map(int, r[4:8])
        # every relaxation descends or is closed by a pooled ray, unless its
        # warm start already prunes it
        assert descents + pooled <= relaxations and rays <= descents
        assert pooled > 0 and float(r[8]) > 0.0
        # the final pool holds the two extra rows' and the budget's unit rays
        # and the rays the descents found, and is tested in one pass
        assert int(r[9]) >= 3 and float(r[10]) > 0.0
    # persp, as benchmarked: 41 relaxations, 20 descents, 3 rays
    assert rows[0][2:8] == ["node-limit", "15", "41", "20", "3", "21"]
    # then the rounding of the root relaxation and the checker on the
    # incumbent it gives: one row per n x formulation
    assert lines[40].split() == ["n", "form", "round_us", "check_us"]
    rows = [line.split() for line in lines[41:45]]
    assert [r[:2] for r in rows] == [[n, f] for n in ("12", "64")
                                     for f in ("persp", "miqp")]
    assert all(float(r[2]) > 0.0 and float(r[3]) > 0.0 for r in rows)
    # then generation and the JSON round trip: one row per n
    assert lines[45].split() == ["n", "gen_us", "save_us", "load_us", "validate_us",
                                 "claims_us"]
    rows = [line.split() for line in lines[46:48]]
    assert [r[0] for r in rows] == ["12", "64"]
    assert all(float(t) > 0.0 for r in rows for t in r[1:])
    # then one line search along the root dual's first Newton direction:
    # one row per n x formulation, with the derivative's probes
    assert lines[48].split() == ["n", "form", "probes", "search_us"]
    rows = [line.split() for line in lines[49:]]
    assert [r[:2] for r in rows] == [[n, f] for n in ("12", "64")
                                     for f in ("persp", "miqp")]
    assert all(int(r[2]) > 0 and float(r[3]) > 0.0 for r in rows)


def test_solve_signatures_runs(tmp_path, capsys, monkeypatch):
    script = _load("solve_signatures")
    # the fixed grid at n = 5, one replicate per cell
    monkeypatch.setattr(script, "N_VALUES", (5,))
    monkeypatch.setattr(script, "REPLICATES", 1)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert script.run([str(path)]) == 0
    capsys.readouterr()
    # the same commit writes the same file, byte for byte
    assert paths[0].read_bytes() == paths[1].read_bytes()
    sigs = json.loads(paths[0].read_text())
    # 12 cells x 2 row sets x 4 (cap, node limit) runs x 2 formulations
    assert len(sigs) == 12 * 2 * 4 * 2
    for key, sig in sigs.items():
        status, objective, bound, nodes, gap, x = eval(
            sig, {"__builtins__": {}}, {"inf": math.inf})
        assert status in ("optimal", "gap-limit", "node-limit", "time-limit",
                          "infeasible")
        assert (x is None) == (objective is None)
        if key.endswith("_nl0"):
            assert nodes == 0
