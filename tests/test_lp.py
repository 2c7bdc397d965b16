"""LP text writer: structure, exact numbers, and reader round-trips.

The exported text is part of the model builders' contract.
``tests/data/lp_digests.json`` holds the sha256 of ``export_lp`` in both
forms for the 27 paper cells at n = 500 and a set of edge instances; a
change that moves an export on purpose re-records them, and says why:

    python3 tests/test_lp.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
if __name__ == "__main__":  # a checkout runs without installing
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from mixopt import (LinearConstraint, batch, build_miqp, build_misocp,
                    export_lp, paper_cells, write_lp)
from mixopt.lp import _num

from activity_reference import Act, activities, instance_of
from conftest import random_instance
from lp_reader import ir_objective, ir_row_activity, parse_lp


def _single():
    act = Act(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.25)
    return instance_of((act,), rho=2.0, m=1, extras=())


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
        for i, c in enumerate(ex.coeffs.tolist()):
            if c != 0.0:
                assert row.expr.lin[f"x_{i}"] == c
    for i, a in enumerate(activities(inst)):
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


LP_DIGESTS = TESTS / "data" / "lp_digests.json"
# one activity per edge of the region rule: a side that starts at the
# baseline, a minimum change of zero (either sign), sides that are single
# points, spend bounds that are signed zeros, and a linear revenue
EDGE_ACTIVITIES = (
    Act("l_eq_s", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.25),
    Act("u_eq_s", s=3.0, l=1.0, u=3.0, delta=0.5, theta=-2.0, phi=-1.0, psi=1.0),
    Act("delta_zero", s=2.0, l=1.0, u=3.0, delta=0.0, theta=-0.5, phi=1.5, psi=0.0),
    Act("delta_neg_zero", s=2.0, l=1.0, u=3.0, delta=-0.0, theta=-0.5, phi=-1.5, psi=2.0),
    Act("single_points", s=2.0, l=1.5, u=2.5, delta=0.5, theta=-3.0, phi=0.5, psi=0.5),
    Act("theta_zero", s=2.0, l=0.5, u=6.0, delta=0.25, theta=0.0, phi=1.0, psi=0.75),
    Act("l_neg_zero", s=0.0, l=-0.0, u=1.0, delta=0.0, theta=-1.0, phi=0.25, psi=0.0),
    Act("u_neg_zero", s=0.0, l=-1.0, u=-0.0, delta=-0.0, theta=-1.0, phi=-0.25, psi=0.0),
)


def lp_instances():
    """The instances whose exports are recorded, by key: the 27 paper
    cells at n = 500 (``batch(paper_cells([500]), 1, 0)``), each edge
    activity alone, and all of them under an extra row with m = 0 and
    m = n."""
    named = [(f"paper_{cell.correlation}_e{cell.epsilon}_x{cell.xi}", inst)
             for cell, _, inst in batch(paper_cells([500]), 1, 0)]
    named += [(a.id, instance_of((a,), rho=1.5, m=1)) for a in EDGE_ACTIVITIES]
    n = len(EDGE_ACTIVITIES)
    extra = LinearConstraint([-float(i % 3 - 1) for i in range(n)], 2.0)  # a >= -2 row
    named += [(f"edges_m{m}", instance_of(EDGE_ACTIVITIES, rho=1.1, m=m, extras=(extra,)))
              for m in (0, n)]
    return named


def lp_digests():
    """The sha256 of ``export_lp`` of each instance of ``lp_instances`` in
    the forms miqp and misocp."""
    return {f"{key}_{form}": hashlib.sha256(export_lp(inst, form).encode()).hexdigest()
            for key, inst in lp_instances() for form in ("miqp", "misocp")}


def test_exports_match_the_recorded_digests():
    want = json.loads(LP_DIGESTS.read_text())
    got = lp_digests()
    assert len(want) == 2 * (27 + len(EDGE_ACTIVITIES) + 2)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} exports moved: {moved}"


if __name__ == "__main__":
    LP_DIGESTS.write_text(json.dumps(lp_digests(), indent=1, sort_keys=True) + "\n")
