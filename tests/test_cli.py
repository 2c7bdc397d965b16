"""End-to-end command-line runs against temp directories."""

import csv
import json
import math
import os
import statistics
from dataclasses import replace

import pytest

from mixopt import (GenConfig, SolveParams, branch_and_bound, brute_force,
                    generate, load_json, save_json)
from mixopt import cli
from mixopt.cli import build_parser, knee_point, main, pareto_svg, pareto_sweep

from activity_reference import Act, activities, instance_of
from conftest import random_instance
from lp_reader import parse_lp

BENCH_HEADER = "corr,n,eps,xi,seed,form,status,objective,bound,gap,nodes,time_s"


def _gen(tmp_path, *, corr="strong", n=6, eps=0.2, xi=0.5, seed=8, count=1):
    out = tmp_path / "instances"
    rc = main([
        "gen", "--corr", corr, "--n", str(n), "--eps", str(eps), "--xi", str(xi),
        "--seed", str(seed), "--count", str(count), "--out", str(out),
    ])
    assert rc == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return out, rows


def test_gen_single_cell(tmp_path):
    out, rows = _gen(tmp_path, count=3, seed=7)
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.csv",
        "strong_n6_e0.2_x0.5_s7.json",
        "strong_n6_e0.2_x0.5_s8.json",
        "strong_n6_e0.2_x0.5_s9.json",
    ]
    assert [r["seed"] for r in rows] == ["7", "8", "9"]
    assert rows[0]["corr"] == "strong" and rows[0]["n"] == "6"
    inst = load_json((out / rows[0]["path"]).read_bytes())
    assert inst.n == 6


def test_gen_is_reproducible(tmp_path):
    out1, _ = _gen(tmp_path / "a", count=2)
    out2, _ = _gen(tmp_path / "b", count=2)
    for name in ("strong_n6_e0.2_x0.5_s8.json", "strong_n6_e0.2_x0.5_s9.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_requires_n(tmp_path, capsys):
    rc = main(["gen", "--corr", "strong", "--eps", "0.2", "--xi", "0.5",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--n", "0", "--xi", "0.5"], ["--n", "6", "--xi", "1.5"]])
def test_gen_reports_an_out_of_range_cell(tmp_path, capsys, flags):
    """A cell the generator refuses is an ``error:`` line and exit 1, not a
    traceback."""
    rc = main(["gen", "--corr", "weak", "--eps", "0.1", *flags,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("n must" in err or "xi must" in err)
    assert not (tmp_path / "x").exists()


def test_gen_paper_grid(tmp_path):
    out = tmp_path / "grid"
    rc = main(["gen", "--paper-grid", "--scale-n", "6", "--count", "1",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    with open(out / "manifest.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 27  # 3 classes x 3 epsilons x 3 xis at one size
    assert len({r["seed"] for r in rows}) == 27
    assert {r["corr"] for r in rows} == {"uncorrelated", "weak", "strong"}
    assert all(os.path.exists(out / r["path"]) for r in rows)


def _solve_fields(out):
    fields = {}
    for line in out.strip().splitlines():
        parts = line.split(None, 1)
        fields[parts[0]] = parts[1] if len(parts) > 1 else ""
    return fields


def test_solve_reports_and_exit_zero(tmp_path, capsys):
    out, rows = _gen(tmp_path)
    path = str(out / rows[0]["path"])
    rc = main(["solve", path])
    assert rc == 0
    fields = _solve_fields(capsys.readouterr().out)
    assert fields["status"] == "optimal"
    assert float(fields["gap"]) <= 1e-9
    assert float(fields["bound"]) >= float(fields["objective"]) - 1e-9
    assert int(fields["nodes"]) >= 0


def test_solve_forms_agree(tmp_path, capsys):
    """Both formulations solve to the same optimum, and ``--form`` takes
    no other name: ``misocp`` is refused as an invalid choice."""
    out, rows = _gen(tmp_path)
    path = str(out / rows[0]["path"])
    values = {}
    for form in ("miqp", "persp"):
        assert main(["solve", path, "--form", form]) == 0
        values[form] = float(_solve_fields(capsys.readouterr().out)["objective"])
    assert values["persp"] == pytest.approx(values["miqp"], rel=1e-6)
    with pytest.raises(SystemExit) as refused:
        main(["solve", path, "--form", "misocp"])
    assert refused.value.code == 2 and "invalid choice: 'misocp'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_solver_commands_refuse_the_misocp_alias(tmp_path, capsys, monkeypatch, command):
    """The solver commands take ``--form miqp|persp``, as ``SolveParams``
    does: ``misocp`` is a usage error before any solve (``export`` keeps
    it, as the name of the LP form).  ``bench`` solves both forms and has
    no ``--form``, so there it is an unrecognized argument."""
    path = tmp_path / "inst.json"
    path.write_bytes(save_json(generate(GenConfig("weak", 12, 0.1, 0.5, 3))))
    solves = []
    monkeypatch.setattr(cli, "branch_and_bound", lambda *args: solves.append(args))
    with pytest.raises(SystemExit) as refused:
        main([command, str(path), "--form", "misocp"])
    assert refused.value.code == 2 and not solves
    assert ("unrecognized arguments: --form misocp" if command == "bench"
            else "invalid choice: 'misocp'") in capsys.readouterr().err


def test_bench_takes_no_form(tmp_path, capsys, monkeypatch):
    """``bench`` always solves each row in both forms, and its summary takes
    persp/miqp ratios, so ``--form`` is a usage error there, even with a form
    that ``solve`` and ``sweep`` take."""
    out, _ = _gen(tmp_path)
    solves = []
    monkeypatch.setattr(cli, "branch_and_bound", lambda *args: solves.append(args))
    with pytest.raises(SystemExit) as refused:
        main(["bench", str(out / "manifest.csv"), "--form", "miqp"])
    assert refused.value.code == 2 and not solves
    assert "unrecognized arguments: --form miqp" in capsys.readouterr().err
    assert "form" not in vars(build_parser().parse_args(["bench", "m.csv"]))
    for command in ("solve", "sweep"):
        assert build_parser().parse_args([command, "i.json", "--form", "miqp"]).form == "miqp"


def test_fmt_spells_floats_by_repr():
    for value, text in ((math.inf, "inf"), (-math.inf, "-inf"), (0.1, "0.1"),
                        (-2.5e-300, "-2.5e-300"), (3, "3"), (None, "")):
        assert cli._fmt(value) == text


def test_solve_json_output(tmp_path, capsys):
    out, rows = _gen(tmp_path)
    dest = tmp_path / "sol.json"
    rc = main(["solve", str(out / rows[0]["path"]), "--json", str(dest)])
    assert rc == 0
    blob = json.loads(dest.read_text())
    assert blob["status"] == "optimal"
    assert set(blob) >= {"status", "objective", "bound", "gap", "nodes", "time_s"}
    capsys.readouterr()


def _strict_json(path):
    """The JSON document at ``path``, read by RFC 8259: a bare ``NaN``,
    ``Infinity`` or ``-Infinity`` is an error."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_solve_exit_codes(tmp_path, capsys, rng, two_symmetric):
    # 1: unreadable or invalid input
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["solve", str(bad)]) == 1
    capsys.readouterr()

    # 2: resource limit hit (forced via a zero node budget on a gapped model)
    gapped = tmp_path / "two.json"
    gapped.write_bytes(save_json(two_symmetric))
    report = tmp_path / "report.json"
    assert main(["solve", str(gapped), "--form", "miqp", "--node-limit", "0",
                 "--json", str(report)]) == 2
    assert _solve_fields(capsys.readouterr().out)["status"] == "node-limit"
    assert _strict_json(report)["status"] == "node-limit"

    # 3: proven infeasible (extras demand movement, zero cap forbids it);
    # the report spells the infinite bound and gap null, as RFC 8259 asks
    import dataclasses

    infeasible = dataclasses.replace(random_instance(rng, 4, with_extras=True), m=0)
    dest = tmp_path / "inf.json"
    dest.write_bytes(save_json(infeasible))
    assert main(["solve", str(dest), "--json", str(report)]) == 3
    fields = _solve_fields(capsys.readouterr().out)
    assert (fields["status"], fields["bound"], fields["gap"]) == ("infeasible", "-inf", "inf")
    # no gap tolerance makes a solve without an incumbent optimal
    assert main(["solve", str(dest), "--gap-tol", "inf"]) == 3
    assert _solve_fields(capsys.readouterr().out)["status"] == "infeasible"
    blob = _strict_json(report)
    assert (blob["status"], blob["objective"], blob["bound"], blob["gap"]) == (
        "infeasible", None, None, None)


def test_solve_closed_at_the_root_exits_zero(tmp_path, capsys):
    """A node limit of 0 that the root's rounding makes moot is no limit
    stop: weak n = 12, epsilon 0.2, xi 0.5, as generated, whose persp root
    rounding meets the root bound."""
    path = tmp_path / "closed.json"
    path.write_bytes(save_json(generate(GenConfig("weak", 12, 0.2, 0.5,
                                                  6028932161755819822))))
    assert main(["solve", str(path), "--form", "persp", "--node-limit", "0"]) == 0
    fields = _solve_fields(capsys.readouterr().out)
    assert (fields["status"], fields["nodes"]) == ("optimal", "0")


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_contract(tmp_path, capsys):
    out, _ = _gen(tmp_path, count=2, seed=8)
    dest = tmp_path / "bench.csv"
    rc = main(["bench", str(out / "manifest.csv"), "--out", str(dest)])
    assert rc == 0
    capsys.readouterr()
    text = dest.read_text()
    lines = text.splitlines()
    assert lines[0] == BENCH_HEADER
    assert "# medians per group (ratio base: miqp)" in lines
    data = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
    comment_at = lines.index("# medians per group (ratio base: miqp)")
    records = [ln.split(",") for ln in lines[1:comment_at] if ln]
    assert len(records) == 4  # two instances x two formulations
    assert [r[5] for r in records] == ["miqp", "persp", "miqp", "persp"]
    summary = [ln.split(",") for ln in lines[comment_at + 1:] if ln]
    assert summary[0][0] == "group,value,instances,gap_miqp,gap_persp,time_ratio,node_ratio".split(",")[0]
    groups = {row[0] for row in summary[1:]}
    assert groups == {"all", "corr", "n", "eps", "xi"}


def test_bench_deterministic_modulo_timing(tmp_path, capsys):
    out, _ = _gen(tmp_path, count=2, seed=8)
    dests = []
    for tag in ("one", "two"):
        dest = tmp_path / f"bench_{tag}.csv"
        assert main(["bench", str(out / "manifest.csv"), "--out", str(dest)]) == 0
        dests.append(dest)
    capsys.readouterr()

    def stable_rows(path):
        rows = []
        for line in path.read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if cells[0] in ("corr", "group"):
                continue
            if len(cells) == 12:  # data row: drop wall time
                rows.append(cells[:-1])
            else:  # summary row: drop the time ratio column
                rows.append(cells[:5] + cells[6:])
        return rows

    assert stable_rows(dests[0]) == stable_rows(dests[1])


def test_bench_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,corr,n,eps,xi,seed\n")
    dest = tmp_path / "eb.csv"
    assert main(["bench", str(manifest), "--out", str(dest)]) == 0
    assert dest.read_text() == BENCH_HEADER + "\n"
    capsys.readouterr()


def test_bench_records_per_instance_failures(tmp_path, capsys):
    out, rows = _gen(tmp_path, corr="strong", n=6, seed=7)  # seed 7 is infeasible
    dest = tmp_path / "bench.csv"
    assert main(["bench", str(out / "manifest.csv"), "--out", str(dest)]) == 0
    capsys.readouterr()
    head = dest.read_text().split("\n# medians")[0]
    data = list(csv.DictReader(head.splitlines()))
    assert [r["status"] for r in data] == ["infeasible", "infeasible"]
    assert all(r["objective"] == "" for r in data)


def _malformed(directory, kind):
    """A file ``mixopt solve`` must refuse with an ``error:`` line: not
    UTF-8, or ``rho`` an integer too large for a float (400 zeros) or for
    Python's integer parser (4300 zeros); ``missing`` writes no file."""
    path = directory / f"{kind}.json"
    blob = save_json(generate(GenConfig("weak", 5, 0.1, 0.5, 1)))
    if kind == "not-utf8":
        path.write_bytes(b"\xff" + blob)
    elif kind != "missing":
        zeros = b"0" * (400 if kind == "huge-rho" else 4300)
        path.write_bytes(blob.replace(b'"rho": 1.01', b'"rho": 1' + zeros))
    return path


@pytest.mark.parametrize("kind", ["not-utf8", "huge-rho", "4301-digits"])
def test_solve_refuses_a_malformed_file(tmp_path, capsys, kind):
    path = _malformed(tmp_path, kind)
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_solve_refuses_an_invalid_instance(tmp_path, capsys):
    """A file that parses but breaks a rule of ``validate`` is named with
    the rule it breaks."""
    act = Act(id="a", s=1.0, l=2.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
    path = tmp_path / "bad.json"
    path.write_bytes(save_json(instance_of((act,), rho=1.1, m=1)))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: activity 'a': l > s\n"


def _write_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("kind", ["missing", "not-utf8", "huge-rho", "4301-digits"])
def test_bench_skips_an_unreadable_row(tmp_path, capsys, kind):
    """A row whose file is missing or malformed gets two ``error`` rows,
    and the rows around it are solved."""
    out, rows = _gen(tmp_path)
    bad = dict(rows[0], path=_malformed(out, kind).name, seed="0")
    _write_manifest(out / "manifest.csv", [rows[0], bad, rows[0]])
    dest = tmp_path / "bench.csv"
    assert main(["bench", str(out / "manifest.csv"), "--out", str(dest)]) == 0
    assert f"skipping {bad['path']}: error: " in capsys.readouterr().err
    head = dest.read_text().split("\n# medians")[0]
    data = list(csv.DictReader(head.splitlines()))
    assert [r["status"] for r in data] == ["optimal"] * 2 + ["error"] * 2 + ["optimal"] * 2
    assert [r["seed"] for r in data[2:4]] == ["0", "0"]
    assert all(r[k] == "" for r in data[2:4] for k in BENCH_HEADER.split(",")[7:])


@pytest.mark.parametrize("field", ["n", "eps", "xi", "seed"])
def test_bench_skips_a_row_whose_numbers_do_not_parse(tmp_path, capsys, field):
    """A row whose ``n``, ``eps``, ``xi`` or ``seed`` is not a number gets
    two ``error`` rows that keep its text, the rows around it are solved,
    and the summary counts only them."""
    out, rows = _gen(tmp_path)
    bad = dict(rows[0], **{field: "abc"})
    _write_manifest(out / "manifest.csv", [rows[0], bad, rows[0]])
    dest = tmp_path / "bench.csv"
    assert main(["bench", str(out / "manifest.csv"), "--out", str(dest)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"skipping {bad['path']}: error: ") and err.count("\n") == 1
    head, tail = dest.read_text().split("\n# medians")
    data = list(csv.DictReader(head.splitlines()))
    assert [r["status"] for r in data] == ["optimal"] * 2 + ["error"] * 2 + ["optimal"] * 2
    assert [r[field] for r in data[2:4]] == ["abc", "abc"]
    assert all(r[k] == "" for r in data[2:4] for k in BENCH_HEADER.split(",")[7:])
    assert tail.splitlines()[2].startswith("all,all,2,")


def test_bench_manifest_missing_a_column(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,corr,n\n")
    assert main(["bench", str(manifest)]) == 1
    assert capsys.readouterr().err == "error: manifest missing columns: ['eps', 'seed', 'xi']\n"


def test_bench_manifest_without_header(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("")
    dest = tmp_path / "eb.csv"
    assert main(["bench", str(manifest), "--out", str(dest)]) == 0
    assert dest.read_text() == BENCH_HEADER + "\n"
    capsys.readouterr()


def test_bench_summary_medians_in_first_seen_order(tmp_path, capsys):
    """Each summary row's ``node_ratio`` is the median over its group of
    persp nodes over miqp nodes, read from the data rows; groups come in
    the order the manifest first shows their value."""
    rows = []
    for k, (corr, n, eps, xi) in enumerate([("weak", 7, 0.2, 0.5), ("strong", 6, 0.1, 0.75),
                                            ("weak", 6, 0.2, 0.5)]):
        out, cell = _gen(tmp_path / str(k), corr=corr, n=n, eps=eps, xi=xi, seed=k)
        rows.append(dict(cell[0], path=f"{k}/instances/{cell[0]['path']}"))
    _write_manifest(tmp_path / "manifest.csv", rows)
    dest = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path / "manifest.csv"), "--out", str(dest)]) == 0
    capsys.readouterr()
    head, tail = dest.read_text().split("# medians per group (ratio base: miqp)\n")
    data = list(csv.DictReader(head.splitlines()))
    ratios = []
    for miqp, persp in zip(data[::2], data[1::2]):
        assert (miqp["form"], persp["form"]) == ("miqp", "persp")
        nodes = int(miqp["nodes"])
        ratios.append(int(persp["nodes"]) / nodes if nodes > 0 else None)
    assert any(r is not None for r in ratios)
    groups = [("all", "all", [0, 1, 2]), ("corr", "weak", [0, 2]), ("corr", "strong", [1]),
              ("n", "7", [0]), ("n", "6", [1, 2]), ("eps", "0.2", [0, 2]), ("eps", "0.1", [1]),
              ("xi", "0.5", [0, 2]), ("xi", "0.75", [1])]
    summary = list(csv.DictReader(tail.splitlines()))
    assert [(r["group"], r["value"], r["instances"]) for r in summary] == [
        (g, v, str(len(ks))) for g, v, ks in groups]
    for row, (_, _, ks) in zip(summary, groups):
        vals = [ratios[k] for k in ks if ratios[k] is not None]
        assert row["node_ratio"] == (str(statistics.median(vals)) if vals else "")


# ---------------------------------------------------------------------------
# pareto sweep


def _budget_only_file(tmp_path, rng, n=6):
    inst = random_instance(rng, n, m=n, rho=1.05)
    path = tmp_path / "plain.json"
    path.write_bytes(save_json(inst))
    return path, inst


def test_sweep_monotone_with_knee(tmp_path, capsys, rng):
    path, inst = _budget_only_file(tmp_path, rng)
    dest = tmp_path / "pareto.csv"
    svg = tmp_path / "pareto.svg"
    rc = main(["sweep", str(path), "--out", str(dest), "--svg", str(svg)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "knee: m=" in stdout

    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["m", "m_fraction", "revenue", "revenue_fraction", "status"]
    revs = [float(r["revenue"]) for r in rows if r["revenue"]]
    assert all(b >= a - 1e-9 for a, b in zip(revs, revs[1:]))
    assert float(rows[-1]["revenue_fraction"]) == pytest.approx(1.0)

    top = float(rows[-1]["revenue"])
    psi_sum = sum(a.psi for a in activities(inst))
    first = rows[0]
    assert int(first["m"]) == 0
    assert float(first["revenue"]) == pytest.approx(psi_sum, rel=1e-12)
    assert float(first["revenue_fraction"]) == pytest.approx(psi_sum / top, rel=1e-9)

    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 1


def test_sweep_explicit_caps_and_oracle(tmp_path, capsys, rng):
    path, inst = _budget_only_file(tmp_path, rng)
    dest = tmp_path / "p2.csv"
    assert main(["sweep", str(path), "--m", "0", "3", str(inst.n), "--out", str(dest)]) == 0
    capsys.readouterr()
    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["m"]) for r in rows] == [0, 3, inst.n]
    truth = brute_force(inst)
    assert float(rows[-1]["revenue"]) == pytest.approx(truth.objective, rel=1e-6)


def test_sweep_applies_the_solver_flags(tmp_path, capsys):
    """Each cap is solved under ``--node-limit`` and ``--gap-tol``, as
    ``solve`` solves it: on the weak n = 30 instance of seed 7, the root
    alone leaves a gap at m = 10, so that row ends ``node-limit`` with no
    revenue, and a gap tolerance of 1 accepts the root's incumbent."""
    inst = generate(GenConfig("weak", 30, 0.1, 0.5, 7))
    path = tmp_path / "weak.json"
    path.write_bytes(save_json(inst))
    for gap_tol, statuses in (("0", ["optimal", "node-limit"]), ("1", ["optimal"] * 2)):
        dest = tmp_path / f"gap{gap_tol}.csv"
        assert main(["sweep", str(path), "--m", "5", "10", "--node-limit", "0",
                     "--gap-tol", gap_tol, "--out", str(dest)]) == 0
        capsys.readouterr()
        with open(dest, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == statuses
        for row in rows:
            res = branch_and_bound(replace(inst, m=int(row["m"])),
                                   SolveParams(node_limit=0, gap_tol=float(gap_tol)))
            assert row["status"] == res.status
            assert row["revenue"] == (repr(res.objective) if res.ok else "")


@pytest.mark.parametrize("caps", [["3", "9"], ["-1"]])
def test_sweep_reports_a_cap_out_of_range_before_solving(tmp_path, capsys, monkeypatch,
                                                         caps):
    """A cap outside ``[0, n]`` is an ``error:`` line and exit 1 before the
    first solve, not a traceback after the caps in range are solved; the
    library call ``pareto_sweep`` raises ``ValueError`` with the same words,
    also before its first solve."""
    inst = generate(GenConfig("weak", 6, 0.1, 0.5, 0))
    path = tmp_path / "weak.json"
    path.write_bytes(save_json(inst))
    dest = tmp_path / "p.csv"
    solves = []
    solve = cli.branch_and_bound
    monkeypatch.setattr(cli, "branch_and_bound",
                        lambda *args: solves.append(args) or solve(*args))
    assert main(["sweep", str(path), "--m", *caps, "--out", str(dest)]) == 1
    out = capsys.readouterr()
    message = f"--m {caps[-1]} lies outside [0, 6]"
    assert out.err == f"error: {message}\n" and not out.out
    assert not dest.exists()
    with pytest.raises(ValueError) as err:
        pareto_sweep(inst, None, [int(m) for m in caps])
    assert str(err.value) == message and not solves


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("gap_tol", ["nan", "-0.01"])
def test_a_gap_tolerance_that_is_not_a_nonnegative_number_is_refused(
        tmp_path, capsys, monkeypatch, command, gap_tol):
    """A NaN or negative ``--gap-tol`` is an ``error:`` line and exit 1
    before any solve; ``SolveParams`` raises ``ValueError`` with the same
    words."""
    inst = generate(GenConfig("weak", 6, 0.1, 0.5, 0))
    path = tmp_path / "weak.json"
    path.write_bytes(save_json(inst))
    solves = []
    monkeypatch.setattr(cli, "branch_and_bound", lambda *args: solves.append(args))
    extra = ["--out", str(tmp_path / "p.csv")] if command == "sweep" else []
    assert main([command, str(path), "--gap-tol", gap_tol, *extra]) == 1
    out = capsys.readouterr()
    message = f"gap_tol must be a nonnegative number, got {float(gap_tol)}"
    assert out.err == f"error: {message}\n" and not out.out and not solves
    with pytest.raises(ValueError) as err:
        SolveParams(gap_tol=float(gap_tol))
    assert str(err.value) == message


@pytest.mark.parametrize("flag, value, message", [
    ("--time-limit", "nan", "time_limit must be a nonnegative number, got nan"),
    ("--time-limit", "-1", "time_limit must be a nonnegative number, got -1.0"),
    ("--node-limit", "-3", "node_limit must be nonnegative, got -3")])
def test_a_negative_or_nan_limit_is_refused(tmp_path, capsys, monkeypatch, flag, value,
                                            message):
    """A NaN or negative ``--time-limit`` and a negative ``--node-limit``
    are an ``error:`` line and exit 1 before any solve, as ``SolveParams``
    refuses them; a NaN time limit would otherwise mean no limit."""
    inst = generate(GenConfig("weak", 6, 0.1, 0.5, 0))
    path = tmp_path / "weak.json"
    path.write_bytes(save_json(inst))
    solves = []
    monkeypatch.setattr(cli, "branch_and_bound", lambda *args: solves.append(args))
    assert main(["solve", str(path), flag, value]) == 1
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and not out.out and not solves


def test_pareto_helpers(rng):
    inst = random_instance(rng, 5, m=5, rho=1.05)
    points = pareto_sweep(inst, SolveParams(time_limit=30.0), [0, 2, 5])
    assert [p["m"] for p in points] == [0, 2, 5]
    knee = knee_point(points)
    assert knee is not None and knee["revenue_fraction"] >= 0.995
    svg = pareto_svg(points)
    assert svg.count("<polyline") == 1 and "revenue" in svg


def test_knee_with_negative_revenues(two_symmetric):
    # When even the best revenue is negative, revenue/top >= 1 for every
    # worse point, so a ratio threshold alone would fire at the first
    # feasible m; the knee must still land near the top of the curve.
    acts = tuple(a._replace(psi=-100.0) for a in activities(two_symmetric))
    inst = instance_of(acts, two_symmetric.rho, m=2, extras=two_symmetric.extras)
    points = pareto_sweep(inst, SolveParams(time_limit=30.0), [0, 1, 2])
    assert points[0]["revenue"] == pytest.approx(-200.0)
    assert points[0]["revenue_fraction"] > 1.0  # ratio is misleading here
    knee = knee_point(points)
    assert knee is not None and knee["m"] == 2
    assert knee["revenue_fraction"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# export


def test_export_default_path_and_content(tmp_path, capsys):
    out, rows = _gen(tmp_path)
    src = out / rows[0]["path"]
    assert main(["export", str(src), "--form", "miqp"]) == 0
    capsys.readouterr()
    dest = out / rows[0]["path"].replace(".json", ".miqp.lp")
    assert dest.exists()
    parsed = parse_lp(dest.read_text())
    inst = load_json(src.read_bytes())
    assert parsed.row("budget").rhs == inst.budget_rhs


def test_export_misocp_alias(tmp_path, capsys):
    out, rows = _gen(tmp_path)
    src = out / rows[0]["path"]
    dest = tmp_path / "m.lp"
    assert main(["export", str(src), "--form", "misocp", "--out", str(dest)]) == 0
    capsys.readouterr()
    text = dest.read_text()
    assert text.splitlines()[0] == "\\ misocp"
    assert "qc_0:" in text


def test_parser_defaults():
    args = build_parser().parse_args(["solve", "x.json"])
    assert args.form == "persp"
    assert args.time_limit == 100.0
    assert args.gap_tol == 0.0
