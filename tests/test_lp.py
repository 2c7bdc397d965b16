"""LP text writer: structure, exact numbers, and reader round-trips."""

import math

import pytest

from mixopt import Activity, Instance, build_miqp, build_misocp, export_lp, write_lp
from mixopt.lp import _num

from conftest import random_instance
from lp_reader import ir_objective, ir_row_activity, parse_lp


def _single():
    act = Activity(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.25)
    return Instance(activities=(act,), rho=2.0, m=1, extras=())


def test_section_order_and_structure():
    text = export_lp(_single(), "miqp")
    lines = text.splitlines()
    assert lines[0] == "\\ miqp"
    order = [ln for ln in lines if ln in ("Maximize", "Subject To", "Bounds", "Binary", "End")]
    assert order == ["Maximize", "Subject To", "Bounds", "Binary", "End"]
    assert text.endswith("End\n") or text.endswith("End")


def test_single_activity_miqp_content():
    text = export_lp(_single(), "miqp")
    parsed = parse_lp(text)
    # budget + both range sides + pick + card (the range box is two rows)
    assert [r.name for r in parsed.rows] == ["budget", "rng_lo_0", "rng_hi_0", "pick_0", "card"]
    assert parsed.objective.quad == {"x_0": -1.0}
    assert parsed.objective.lin == {"x_0": 4.0}
    assert parsed.objective.const == 0.25
    assert parsed.binaries == ["zL_0", "zR_0"]
    # the dead decrease indicator is pinned by a `= 0` bound
    assert parsed.bounds["zL_0"] == (0.0, 0.0)


def test_misocp_has_cone_rows_and_epigraph_vars():
    inst = _single()
    text = export_lp(inst, "misocp")
    parsed = parse_lp(text)
    qc = parsed.row("qc_0")
    assert qc.sense == "le" and qc.rhs == 0.0
    assert qc.expr.quad == {"x_0": 1.0}  # -theta
    assert qc.expr.bilin == {("e_0", "zLR_0"): -1.0}
    assert parsed.row("link_0").sense == "eq"
    assert "zLR_0" in parsed.binaries
    assert parsed.objective.lin["e_0"] == -1.0
    assert parsed.objective.quad == {}
    # persp is accepted as an alias and produces the same model
    assert export_lp(inst, "persp") == text


def test_line_width_cap(rng):
    inst = random_instance(rng, 30, with_extras=True)
    for form in ("miqp", "misocp"):
        for line in export_lp(inst, form).splitlines():
            assert len(line) <= 80, line


def test_numbers_round_trip_exactly(rng):
    inst = random_instance(rng, 6, with_extras=True)
    parsed = parse_lp(export_lp(inst, "miqp"))
    assert parsed.row("budget").rhs == inst.budget_rhs  # repr() round-trip
    for k, ex in enumerate(inst.extras):
        row = parsed.row(f"extra_{k}")
        assert row.rhs == ex.rhs
        for i, c in enumerate(ex.coeffs):
            if c != 0.0:
                assert row.expr.lin[f"x_{i}"] == c
    for i, a in enumerate(inst.activities):
        assert parsed.objective.quad[f"x_{i}"] == a.theta
        assert parsed.objective.lin[f"x_{i}"] == a.phi


def test_wrapped_rows_still_parse_exactly(rng):
    inst = random_instance(rng, 30)
    text = export_lp(inst, "miqp")
    assert any(line.startswith("   ") for line in text.splitlines())  # wrapping happened
    parsed = parse_lp(text)
    budget = parsed.row("budget")
    assert budget.expr.lin == {f"x_{i}": 1.0 for i in range(30)}


def test_round_trip_evaluation(rng):
    for _ in range(4):
        inst = random_instance(rng, rng.randint(2, 8), with_extras=rng.random() < 0.5)
        for form, build in (("miqp", build_miqp), ("misocp", build_misocp)):
            ir = build(inst)
            parsed = parse_lp(export_lp(inst, form))
            assert set(parsed.bounds) <= {v.name for v in ir.variables}
            for _ in range(5):
                pt = {v.name: rng.uniform(-2.0, 2.0) for v in ir.variables}
                scale = max(1.0, abs(ir_objective(ir, pt)))
                assert abs(parsed.objective_at(pt) - ir_objective(ir, pt)) <= 1e-9 * scale
                for row in ir.rows:
                    got = parsed.row_activity(row.name, pt)
                    assert abs(got - ir_row_activity(row, pt)) <= 1e-9


def test_write_lp_accepts_raw_ir(rng):
    inst = random_instance(rng, 3)
    assert write_lp(build_miqp(inst)) == export_lp(inst, "miqp")


def test_export_rejects_unknown_form():
    with pytest.raises(ValueError):
        export_lp(_single(), "qp")


def test_reader_rejects_truncated_file():
    text = export_lp(_single(), "miqp")
    with pytest.raises(ValueError):
        parse_lp(text.replace("End", ""))


def test_num_spells_floats_by_repr():
    for value, text in ((math.inf, "inf"), (-math.inf, "-inf"), (0.1, "0.1"), (3, "3.0")):
        assert _num(value) == text
