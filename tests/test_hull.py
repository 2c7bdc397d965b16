"""Indicator-hull rows, model IR construction, and the MINLP checker."""

import collections
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixopt import (
    CORRELATIONS,
    GenConfig,
    Solution,
    SolveParams,
    branch_and_bound,
    build_miqp,
    build_misocp,
    check_minlp_feasible,
    generate,
    perspective_value,
)

from activity_reference import Act, activities, instance_of
from activity_reference import regions as reference_regions
from conftest import random_instance
from feasibility_reference import check_minlp_feasible as reference_check
from feasibility_reference import objective_value
from lp_reader import ir_objective, ir_row_activity


def test_hull_block_vertices_feasible():
    """Each activity's hull rows in the built model (``rng_lo_i``,
    ``rng_hi_i``, ``pick_i``) admit every (x in region k, z = e_k) vertex
    and the origin with no indicator set."""
    two_range = Act(id="a", s=5.0, l=1.0, u=10.0, delta=2.0,
                    theta=-1.0, phi=1.0, psi=0.0)
    assert (two_range.l - two_range.s, two_range.u - two_range.s) == (-4.0, 5.0)
    insts = [instance_of((two_range,), rho=2.0, m=1, extras=())]
    insts.append(random_instance(random.Random(21), 8, m=8))
    for inst in insts:
        ir = build_miqp(inst)
        rows = {r.name: r for r in ir.rows}
        for i, rb in enumerate(reference_regions(inst)):
            block = [rows[f"{name}_{i}"] for name in ("rng_lo", "rng_hi", "pick")]

            def violated(x, zl, zr):
                pt = {f"x_{i}": x, f"zL_{i}": zl, f"zR_{i}": zr}
                out = []
                for r in block:
                    lhs = sum(c * pt[v] for v, c in r.coeffs)
                    if r.sense == "le" and lhs > r.rhs + 1e-12:
                        out.append(r.name)
                    elif r.sense == "ge" and lhs < r.rhs - 1e-12:
                        out.append(r.name)
                return out

            for iv, zl, zr in ((rb.L, 1.0, 0.0), (rb.R, 0.0, 1.0)):
                if iv is None:
                    continue
                lo, hi = iv
                for x in (lo, (lo + hi) / 2.0, hi):
                    assert violated(x, zl, zr) == []
            assert violated(0.0, 0.0, 0.0) == []  # origin with nothing selected
            if rb.R is not None and rb.R[0] > 0.0:
                # a nonzero change needs an indicator
                assert violated(rb.R[0], 0.0, 0.0) != []
            assert violated(0.0, 1.0, 1.0) != []  # at most one region picked


# ---------------------------------------------------------------------------
# perspective function


def test_perspective_value_basics():
    assert perspective_value(-1.0, 4.0, 0.25, 0.0, 0.0) == 0.25
    assert perspective_value(-1.0, 4.0, 0.25, 2.0, 1.0) == pytest.approx(4.25)
    with pytest.raises(ValueError):
        perspective_value(-1.0, 4.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        perspective_value(-1.0, 4.0, 0.0, 1.0, -0.5)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-10.0, max_value=0.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_perspective_never_exceeds_quadratic(theta, x, z):
    """theta x^2 / z <= theta x^2 on z in (0, 1] for concave theta."""
    persp = perspective_value(theta, 0.0, 0.0, x, z)
    quad = theta * x * x
    assert persp <= quad + 1e-12
    if z == 1.0 or x == 0.0:
        assert persp == pytest.approx(quad, abs=1e-12)


def test_perspective_scaling_identity():
    # t f(x/t) + psi for f(x) = theta x^2 + phi x
    theta, phi, psi, x, z = -2.0, 3.0, 0.5, 1.2, 0.4
    direct = perspective_value(theta, phi, psi, x, z)
    scaled = z * (theta * (x / z) ** 2 + phi * (x / z)) + psi
    assert direct == pytest.approx(scaled, rel=1e-14)


# ---------------------------------------------------------------------------
# model IR


def _both_open():
    a = Act(id="a", s=5.0, l=1.0, u=10.0, delta=1.0, theta=-1.0, phi=4.0, psi=0.5)
    b = Act(id="b", s=6.0, l=2.0, u=9.0, delta=0.5, theta=-2.0, phi=1.0, psi=0.0)
    return instance_of((a, b), rho=1.05, m=1, extras=())


def test_build_miqp_shape():
    inst = _both_open()
    ir = build_miqp(inst)
    names = [v.name for v in ir.variables]
    assert names == ["x_0", "zL_0", "zR_0", "x_1", "zL_1", "zR_1"]
    assert all(v.kind == "binary" for v in ir.variables if v.name.startswith("z"))
    row_names = [r.name for r in ir.rows]
    assert row_names == ["budget", "rng_lo_0", "rng_hi_0", "pick_0", "rng_lo_1", "rng_hi_1", "pick_1", "card"]
    assert ir.cones == ()
    assert ir.quad_obj == (("x_0", "x_0", -1.0), ("x_1", "x_1", -2.0))
    assert ir.const_obj == pytest.approx(0.5)


def test_single_activity_row_count():
    # budget + two range rows + pick + card: the two-sided range box is two
    # LP rows, so a one-activity model has five rows, not four
    inst = instance_of(
        (Act(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0),),
        rho=2.0,
        m=1,
        extras=(),
    )
    ir = build_miqp(inst)
    assert len(ir.rows) == 5
    assert len([t for t in ir.quad_obj]) == 1


def test_closed_region_fixes_indicator():
    # l == s kills the decrease region; its binary must be bound-fixed to 0
    inst = instance_of(
        (Act(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0),),
        rho=2.0,
        m=1,
        extras=(),
    )
    for build in (build_miqp, build_misocp):
        zl = next(v for v in build(inst).variables if v.name == "zL_0")
        assert (zl.lb, zl.ub) == (0.0, 0.0)


def test_build_misocp_shape():
    inst = _both_open()
    ir = build_misocp(inst)
    names = [v.name for v in ir.variables]
    # per-activity base block first, then the perspective extension block
    assert names == [
        "x_0", "zL_0", "zR_0", "x_1", "zL_1", "zR_1",
        "zLR_0", "e_0", "zLR_1", "e_1",
    ]
    assert ir.quad_obj == ()  # curvature lives in the cones
    assert ("e_0", -1.0) in ir.lin_obj and ("e_1", -1.0) in ir.lin_obj
    assert [c.name for c in ir.cones] == ["qc_0", "qc_1"]
    assert ir.cones[0].coeff == 1.0 and ir.cones[1].coeff == 2.0  # -theta
    link = [r for r in ir.rows if r.name.startswith("link_")]
    assert len(link) == 2


def test_misocp_linear_activity_has_no_cone():
    acts = (
        Act(id="a", s=5.0, l=1.0, u=10.0, delta=1.0, theta=-1.0, phi=4.0, psi=0.0),
        Act(id="b", s=5.0, l=1.0, u=10.0, delta=1.0, theta=0.0, phi=2.0, psi=0.0),
    )
    ir = build_misocp(instance_of(acts, rho=1.2, m=2, extras=()))
    assert [c.name for c in ir.cones] == ["qc_0"]
    e1 = next(v for v in ir.variables if v.name == "e_1")
    assert (e1.lb, e1.ub) == (0.0, 0.0)


def test_objective_agreement_between_formulations():
    inst = _both_open()
    miqp, persp = build_miqp(inst), build_misocp(inst)
    pt = {"x_0": 2.0, "zL_0": 0.0, "zR_0": 1.0, "x_1": 0.0, "zL_1": 0.0, "zR_1": 0.0}
    persp_pt = dict(pt)
    for i, cone in enumerate(persp.cones):
        x = pt[f"x_{i}"]
        z = pt[f"zL_{i}"] + pt[f"zR_{i}"]
        persp_pt[f"zLR_{i}"] = z
        persp_pt[cone.e_var] = cone.coeff * x * x / z if z > 0 else 0.0
    assert ir_objective(persp, persp_pt) == pytest.approx(ir_objective(miqp, pt), rel=1e-12)
    assert ir_objective(miqp, pt) == pytest.approx(objective_value(inst, [2.0, 0.0]), rel=1e-12)


def test_objective_at_origin_is_psi_sum():
    inst = _both_open()
    for build in (build_miqp, build_misocp):
        ir = build(inst)
        zero = {v.name: 0.0 for v in ir.variables}
        assert ir.const_obj == inst.psi_sum
        assert ir_objective(ir, zero) == pytest.approx(sum(a.psi for a in activities(inst)))


def test_row_activity_and_extras(rng):
    inst = random_instance(rng, 4, with_extras=True)
    ir = build_miqp(inst)
    extra_rows = [r for r in ir.rows if r.name.startswith("extra_")]
    assert len(extra_rows) == 2
    pt = {v.name: 0.0 for v in ir.variables}
    pt["x_0"] = 1.5
    row = next(r for r in ir.rows if r.name == "budget")
    assert ir_row_activity(row, pt) == pytest.approx(1.5)
    for r, lc in zip(extra_rows, inst.extras):
        assert ir_row_activity(r, pt) == pytest.approx(lc.coeffs.item(0) * 1.5)
        assert r.sense == "le" and r.rhs == pytest.approx(lc.rhs)


def test_cone_slack_sign():
    """A cone row ``e*z >= coeff*x^2`` carries ``coeff = -theta``, which is
    positive, so ``e*z - coeff*x^2`` is nonnegative exactly where the row
    holds."""
    inst = _both_open()
    ir = build_misocp(inst)
    assert [c.coeff for c in ir.cones] == [-a.theta for a in activities(inst)]
    cone = ir.cones[0]
    assert (cone.e_var, cone.z_var, cone.x_var) == ("e_0", "zLR_0", "x_0")
    assert cone.coeff > 0.0

    def slack(e, z=1.0, x=2.0):
        return e * z - cone.coeff * x * x

    assert slack(4.0) == pytest.approx(0.0)  # tight
    assert slack(5.0) > 0.0  # satisfied
    assert slack(3.0) < 0.0


def test_models_declare_each_named_variable_once():
    """Every variable a row, a cone or an objective term of either model
    names is declared exactly once: on generated instances, which carry both
    extra rows, and on one of them with a linear (theta = 0) activity."""
    insts = [generate(GenConfig(correlation=c, n=7, epsilon=0.1, xi=0.75, seed=s))
             for c in CORRELATIONS for s in (1, 2)]
    assert all(len(inst.extras) == 2 for inst in insts)
    acts = list(activities(insts[0]))
    acts[3] = acts[3]._replace(theta=0.0)
    insts.append(instance_of(acts, insts[0].rho, insts[0].m, insts[0].extras))
    for inst in insts:
        for build in (build_miqp, build_misocp):
            ir = build(inst)
            declared = collections.Counter(v.name for v in ir.variables)
            named = {v for row in ir.rows for v, _ in row.coeffs}
            named |= {v for cone in ir.cones for v in (cone.e_var, cone.z_var, cone.x_var)}
            named |= {v for v1, v2, _ in ir.quad_obj for v in (v1, v2)}
            named |= {v for v, _ in ir.lin_obj}
            assert {v: declared[v] for v in named} == dict.fromkeys(named, 1)
            assert len(named) >= 3 * inst.n
    assert len(build_misocp(insts[-1]).cones) == insts[-1].n - 1  # none for theta = 0


# ---------------------------------------------------------------------------
# MINLP feasibility checker


def test_checker_accepts_honest_solution():
    inst = _both_open()
    sol = Solution.from_x(inst, [0.0, 0.0], ["S", "S"])
    assert check_minlp_feasible(inst, sol).ok


def test_checker_catches_minimum_change_violation():
    inst = _both_open()
    sol = Solution.from_x(inst, [0.5, 0.0], ["R", "S"])  # delta_0 = 1.0
    report = check_minlp_feasible(inst, sol)
    assert not report.ok
    assert any("minimum" in v or "region" in v for v in report.violations)


def test_checker_catches_cardinality_violation():
    inst = _both_open()  # m = 1
    sol = Solution.from_x(inst, [1.0, 0.5], ["R", "R"])
    report = check_minlp_feasible(inst, sol)
    assert not report.ok
    assert any("cardinality" in v or "activities" in v for v in report.violations)


def test_checker_catches_budget_violation():
    inst = _both_open()  # budget rhs = 0.05 * 11 = 0.55
    sol = Solution.from_x(inst, [1.0, 0.0], ["R", "S"])
    report = check_minlp_feasible(inst, sol)
    assert not report.ok
    assert any("budget" in v for v in report.violations)


def test_checker_catches_extras_violation(rng):
    inst = random_instance(rng, 3, m=3, rho=100.0, with_extras=True)
    rb0 = reference_regions(inst)[0]
    if rb0.R is None:
        pytest.skip("draw produced no increase region")
    # a big enough increase breaks the tau-row (its rhs is near zero)
    sol = Solution.from_x(inst, [rb0.R[1], 0.0, 0.0], ["R", "S", "S"])
    report = check_minlp_feasible(inst, sol)
    assert any("extra" in v for v in report.violations)


def test_checker_tolerance_is_additive():
    inst = _both_open()
    eps = 5e-10
    sol = Solution.from_x(inst, [0.0, inst.budget_rhs + eps], ["S", "R"])
    # 0.55 + eps lies inside R=[0.5, 3] for activity b, violating only budget
    assert check_minlp_feasible(inst, sol, tol=1e-8).ok
    assert not check_minlp_feasible(inst, sol, tol=1e-12).ok


def test_checker_region_label_mismatch():
    inst = _both_open()
    sol = Solution.from_x(inst, [2.0, 0.0], ["S", "S"])  # x != 0 under label S
    assert not check_minlp_feasible(inst, sol).ok


def test_checker_rejects_malformed_solutions():
    """The checker's other rejections: a length mismatch, a change outside
    the spend bounds, an unknown region, a region the activity does not
    have, and a stored objective that is not the change vector's."""
    inst = _both_open()
    honest = Solution.from_x(inst, [0.0, 0.0], ["S", "S"])

    def violations(sol, target=inst):
        return check_minlp_feasible(target, sol).violations

    for short in (dict(x=(0.0,)), dict(region=("S",))):
        assert violations(dataclasses.replace(honest, **short)) == (
            "expected 2 entries in x/region",)
    # a's spend range allows a change of at most u - s = 5
    out = violations(Solution.from_x(inst, [6.0, 0.0], ["R", "S"]))
    assert any("outside spend bounds" in v for v in out)
    assert violations(Solution.from_x(inst, [0.0, 0.0], ["Q", "S"])) == (
        "activity 'a': unknown region 'Q'",)
    # l = s leaves no decrease region
    c = Act(id="c", s=5.0, l=5.0, u=10.0, delta=1.0, theta=-1.0, phi=4.0, psi=0.0)
    single = instance_of((c,), rho=1.05, m=1, extras=())
    assert reference_regions(single)[0].L is None
    assert violations(Solution.from_x(single, [0.0], ["L"]), single) == (
        "activity 'c': region L does not exist",)
    off = dataclasses.replace(honest, objective=honest.objective + 1.0)
    assert len(violations(off)) == 1 and "stored objective" in violations(off)[0]


def test_checker_fails_nan():
    """A NaN change or stored objective fails the gate, which a rule
    written ``value > limit`` would pass (a NaN compares false): the
    all-stay point with ``x[0]`` at NaN, whose true objective also hides
    that it breaks both extra rows, and the solver's own incumbent with a
    NaN objective; in the scalar reference's words."""
    inst = generate(GenConfig("weak", 12, 0.1, 0.5, 3))
    stay = ["S"] * inst.n
    broken = Solution.from_x(inst, [0.0] * inst.n, stay)
    assert [v.startswith("extra") for v in check_minlp_feasible(inst, broken).violations] == [
        True, True]
    x = [math.nan] + [0.0] * (inst.n - 1)
    incumbent = branch_and_bound(inst, SolveParams(node_limit=50)).incumbent
    assert check_minlp_feasible(inst, incumbent).ok
    for sol in (Solution(tuple(x), tuple(stay), math.nan, tuple(x)),
                Solution.from_x(inst, x, stay),
                dataclasses.replace(incumbent, objective=math.nan)):
        report = check_minlp_feasible(inst, sol)
        assert not report.ok and report.violations == reference_check(inst, sol)
        assert any("stored objective nan" in v or "recomputed nan" in v
                   for v in report.violations)



@pytest.mark.parametrize("head", [(math.inf, -math.inf), (math.nan, math.inf, -math.inf),
                                  (math.nan,), (1e308, 1e308)])
def test_checker_reports_sums_fsum_refuses(head):
    """Changes whose sums ``math.fsum`` refuses (an inf and a -inf, or an
    overflow), and a NaN change, fail the budget, the extra rows and the
    objective instead of raising, in the scalar reference's words; the
    huge changes leave the negated gamma row's sum at -inf, which holds."""
    inst = generate(GenConfig("weak", 12, 0.1, 0.5, 3))
    extras = ["extra 0 violated"] + ["extra 1 violated"] * (head[0] != 1e308)
    x = head + (0.0,) * (inst.n - len(head))
    for region, objective in (("S", 0.0), ("R", math.nan)):
        sol = Solution(x, (region,) * inst.n, objective, x)
        report = check_minlp_feasible(inst, sol)
        assert report.violations == reference_check(inst, sol)
        rows = [v.split(":")[0] for v in report.violations if not v.startswith(("activity",
                                                                               "cardinality"))]
        assert rows == ["budget exceeded", *extras,
                        f"stored objective {objective} != recomputed nan"]

def _random_solution(rng, inst):
    """A solution that breaks the rules now and then: each change is zero,
    inside a region, at a region's or the spend range's end give or take a
    few tolerances, anywhere, or NaN; each claimed region is the one the
    change lies in, another one, or unknown; the stored objective is the
    true one, off by a little or a lot, or NaN."""
    x, region = [], []
    for a, rb in zip(activities(inst), reference_regions(inst)):
        boxes = [box for box in (rb.L, rb.R) if box is not None] + [(0.0, 0.0)]
        lo, hi = rng.choice(boxes + [(a.l - a.s, a.u - a.s)])
        kind = rng.randrange(4)
        if kind == 0:
            v = 0.0
        elif kind == 1:
            v = rng.uniform(lo, hi)
        elif kind == 2:
            v = rng.choice((lo, hi)) + rng.choice((-3, -1, -0.5, 0, 0.5, 1, 3)) * 1e-8
        else:
            v = rng.uniform(-20.0, 20.0) if rng.random() < 0.9 else math.nan
        x.append(v)
        if rng.random() < 0.7:
            region.append("S" if v == 0.0 else "L" if v < 0.0 else "R")
        else:
            region.append(rng.choice(("L", "S", "R", "Q", "", "RS", None, "é")))
    sol = Solution.from_x(inst, x, region)
    off = rng.choice((0.0, 0.0, 1e-9, -1e-6, 1.0, math.nan))
    return dataclasses.replace(sol, objective=sol.objective + off * max(1.0, abs(sol.objective)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_checker_matches_the_scalar_reference(seed):
    """``check_minlp_feasible`` gives the scalar reference's violations
    (``tests/feasibility_reference.py``), message for message and in order,
    on random solutions of random instances (with and without extra rows,
    some activities with no minimum change or a single-point region, tight
    and loose budgets and caps), at tolerances 0, 1e-8 and 1e-3."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 8), with_extras=rng.random() < 0.5,
                           rho=rng.choice((None, 0.9, 1.0, 5.0)))
    acts = []
    for a in activities(inst):
        edge = rng.randrange(4)
        if edge == 0:
            a = a._replace(delta=0.0)
        elif edge == 1 and a.l < a.s:
            a = a._replace(delta=a.s - a.l)
        acts.append(a)
    inst = instance_of(acts, inst.rho, inst.m, inst.extras)
    sol = _random_solution(rng, inst)
    for tol in (0.0, 1e-8, 1e-3):
        assert check_minlp_feasible(inst, sol, tol=tol).violations == reference_check(
            inst, sol, tol)
