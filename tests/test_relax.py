"""Lagrangian per-activity subproblems, node bounds, and fixed-assignment solves.

The grid oracle below re-derives every per-activity optimum from scratch
(dense activation grid plus the exact stationary candidates), sharing no
code with the closed forms under test.
"""

import ast
import collections
import dataclasses
import inspect
import itertools
import json
import math
import random
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from mixopt import (
    CORRELATIONS,
    Cell,
    GenConfig,
    LinearConstraint,
    NodeState,
    batch,
    brute_force,
    dual_value,
    generate,
    root_bounds,
    solve_fixed_assignment,
    solve_node_relaxation,
)
from mixopt import bnb, relax
from mixopt.instance import _region_codes
from mixopt.relax import _node_dual

from activity_reference import Act, activities, instance_of, per_activity_argmax, region_bounds
from activity_reference import regions as reference_regions
from bnb_reference import least_row_use
from conftest import make_activity, random_instance, region_box

_Z_GRID = np.linspace(0.0, 1.0, 20001)


def _grid_region_best(theta, phi_eff, mu, lo, hi, fixed, persp):
    """Independent optimum of one region's priced subproblem."""
    if fixed:
        xs = np.linspace(lo, hi, 20001)
        if theta < 0.0:
            xs = np.append(xs, np.clip(-phi_eff / (2.0 * theta), lo, hi))
        vals = theta * xs * xs + phi_eff * xs
        if persp:
            return float(vals.max()) - mu  # z pinned to 1
        return float(vals.max()) - mu

    # free region: z in [0,1], x in [z*lo, z*hi]
    if theta < 0.0:
        xbar = min(max(-phi_eff / (2.0 * theta), lo), hi)
    else:  # linear revenue: optimum sits on an interval end
        xbar = hi if phi_eff >= 0.0 else lo
    zs = _Z_GRID
    if persp:
        # value z * (theta xbar^2 + phi_eff xbar - mu) is linear in z
        vals = zs * (theta * xbar * xbar + phi_eff * xbar - mu)
        return float(vals.max())
    extra = [1.0]
    if theta < 0.0:
        unclamped = -phi_eff / (2.0 * theta)
        for end in (lo, hi):
            if end != 0.0:
                extra.append(min(max(unclamped / end, 0.0), 1.0))
            # scaled-endpoint branch theta end^2 z^2 + (phi_eff end - mu) z
            denom = 2.0 * theta * end * end
            if denom != 0.0:
                extra.append(min(max(-(phi_eff * end - mu) / denom, 0.0), 1.0))
    zs = np.append(zs, extra)
    xstar = np.clip(xbar if theta < 0.0 else xbar, zs * lo, zs * hi)
    vals = theta * xstar * xstar + phi_eff * xstar - mu * zs
    return float(vals.max())


def _oracle_argmax_value(act, rb, status, lam, mu, form):
    phi_eff = act.phi - sum(lam)
    best = 0.0 if "S" in status else -math.inf
    for region in ("L", "R"):
        iv = rb.L if region == "L" else rb.R
        if iv is None or region not in status:
            continue
        fixed = len(status) == 1
        v = _grid_region_best(act.theta, phi_eff, mu, iv[0], iv[1], fixed, form == "persp")
        best = max(best, v)
    return best


def _regions(bits):
    """The region set a node's bits hold, as ``per_activity_argmax`` takes it."""
    return frozenset(r for r, bit in (("S", 1), ("L", 2), ("R", 4)) if bits & bit)


def _statuses_for(rb):
    out = [frozenset({"S"})]
    opts = {"S"}
    if rb.L is not None:
        opts.add("L")
        out.append(frozenset({"L"}))
    if rb.R is not None:
        opts.add("R")
        out.append(frozenset({"R"}))
    out.append(frozenset(opts))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_per_activity_argmax_matches_grid_oracle(seed):
    rng = random.Random(seed)
    act = make_activity(0, rng)
    if rng.random() < 0.15:  # exercise the linear-revenue corner too
        act = act._replace(theta=0.0)
    rb = region_bounds(act)
    lam = [rng.uniform(0.0, 3.0)]
    mu = rng.choice([0.0, rng.uniform(0.0, 8.0)])
    for form in ("miqp", "persp"):
        for status in _statuses_for(rb):
            x, zl, zr, value = per_activity_argmax(act, rb, status, lam, mu, form)
            expect = _oracle_argmax_value(act, rb, status, lam, mu, form)
            assert value == pytest.approx(expect, rel=1e-9, abs=1e-9)
            # the returned point must attain the value it claims
            z = zl + zr
            assert -1e-12 <= zl <= 1.0 + 1e-12 and -1e-12 <= zr <= 1.0 + 1e-12
            assert z <= 1.0 + 1e-12
            phi_eff = act.phi - sum(lam)
            if z > 1e-12:
                region = "L" if zl > 0 else "R"
                lo, hi = rb.L if region == "L" else rb.R
                assert lo * z - 1e-9 <= x <= hi * z + 1e-9
                quad = act.theta * x * x / z if form == "persp" else act.theta * x * x
                assert quad + phi_eff * x - mu * z == pytest.approx(value, rel=1e-9, abs=1e-9)
            else:
                assert x == pytest.approx(0.0, abs=1e-12)
                assert value == pytest.approx(max(0.0, value), abs=1e-12) or value <= 0.0


def test_per_activity_worked_examples():
    act = Act(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
    rb = region_bounds(act)
    assert rb.R == (0.5, 3.0) and rb.L is None
    free = frozenset({"S", "R"})

    # interior stationary point: x = -phi/(2 theta) = 2
    for form in ("miqp", "persp"):
        x, zl, zr, v = per_activity_argmax(act, rb, free, [0.0], 0.0, form)
        assert (x, zl, zr) == (2.0, 0.0, 1.0)
        assert v == pytest.approx(4.0)

    # activation priced beyond the region's worth: the envelope turns it off...
    x, zl, zr, v = per_activity_argmax(act, rb, free, [0.0], 5.0, "persp")
    assert (x, zl, zr, v) == (0.0, 0.0, 0.0, 0.0)
    # ...while the big-M hull still pays for a fractional sliver
    x, zl, zr, v = per_activity_argmax(act, rb, free, [0.0], 5.0, "miqp")
    assert v == pytest.approx(49.0 / 36.0)
    assert x == pytest.approx(7.0 / 6.0)
    assert v > 0.0  # the dominance gap in miniature

    # nonpositive revenue on the whole region: stay wins
    flat = Act(id="b", s=2.0, l=2.0, u=7.0, delta=2.0, theta=-1.0, phi=0.0, psi=0.0)
    frb = region_bounds(flat)
    assert frb.R == (2.0, 5.0)
    x, zl, zr, v = per_activity_argmax(flat, frb, frozenset({"S", "R"}), [0.0], 0.0, "miqp")
    assert (x, zl, zr, v) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# dual bounds


def _mult_len(inst):
    return 2 + len(inst.extras)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_any_multipliers_upper_bound_the_optimum(seed):
    """Weak duality: every nonnegative multiplier vector is a valid bound."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 6))
    truth = brute_force(inst)
    if truth.status != "optimal":
        return
    root = NodeState.root(inst)
    for _ in range(5):
        mult = [rng.uniform(0.0, 4.0) for _ in range(_mult_len(inst))]
        for form in ("miqp", "persp"):
            assert dual_value(inst, root, form, mult) >= truth.objective - 1e-7


def test_dual_value_sums_per_activity_argmax():
    """The tested per-activity kernel is the one the dual evaluation runs.

    Generated instances keep their two extra rows, so each activity is
    priced through its own coupling column; checked at the root and at a
    node with some activities fixed, for both formulations, at n = 9 and
    n = 150.
    """
    rng = random.Random(17)
    configs = [GenConfig(correlation=corr, n=9, epsilon=0.1, xi=0.5, seed=40 + k)
               for k, corr in enumerate(CORRELATIONS)]
    configs.append(GenConfig(correlation="weak", n=150, epsilon=0.1, xi=0.75, seed=43))
    for cfg in configs:
        inst = generate(cfg)
        assert len(inst.extras) == 2
        b = (inst.budget_rhs,) + tuple(ex.rhs for ex in inst.extras)
        root = NodeState.root(inst)
        node = root
        for i in rng.sample(np.flatnonzero(root.free).tolist(), 3):
            node = node.fix(i, rng.choice(sorted(_regions(node.bits[i]))))
        for state in (root, node):
            for form in ("miqp", "persp"):
                solved = solve_node_relaxation(inst, state, form).multipliers
                drawn = [rng.uniform(0.0, 2.0) for _ in range(len(b) + 1)]
                for mult in (solved, drawn):
                    lam, mu = mult[:-1], mult[-1]
                    expect = math.fsum(a.psi for a in activities(inst)) + mu * inst.m
                    for lam_k, b_k in zip(lam, b):
                        expect += lam_k * b_k
                    for i, (act, rb) in enumerate(zip(activities(inst), reference_regions(inst))):
                        col = (1.0,) + tuple(ex.coeffs[i] for ex in inst.extras)
                        expect += per_activity_argmax(act, rb, _regions(state.bits[i]),
                                                      lam, mu, form, coupling=col)[3]
                    got = dual_value(inst, state, form, mult)
                    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def _with_edge_activities(inst):
    """Cycle the activities through linear revenue, zero minimum change and
    single-point decrease and raise regions, and add a >= row with a zero
    right-hand side (stored as a <= row with rhs -0.0)."""
    acts = []
    for i, a in enumerate(activities(inst)):
        kind = i % 5
        if kind == 0:
            a = a._replace(theta=0.0)
        elif kind == 1:
            a = a._replace(delta=0.0)
        elif kind == 2 and a.l < a.s:
            a = a._replace(delta=a.s - a.l)  # L = [l - s, l - s]
        elif kind == 3 and a.s < a.u:
            a = a._replace(delta=a.u - a.s)  # R = [u - s, u - s]
        acts.append(a)
    row = LinearConstraint(tuple(1.0 + (i % 7) for i in range(inst.n)), "ge", 0.0)
    return instance_of(acts, inst.rho, inst.m, inst.extras + (row,))


def _kernel_nodes(inst, rng):
    """The root, a node with one activity fixed to each of L, S and R, and
    a node saturated by the cardinality cap."""
    root = NodeState.root(inst)
    yield root
    free = np.flatnonzero(root.free).tolist()
    node = root
    for region in ("L", "S", "R"):
        i = next(i for i in free if node.free[i] and region in _regions(node.bits[i]))
        node = node.fix(i, region)
    yield node
    saturated = root
    for i in rng.sample([i for i in free if root.bits[i] & 4], inst.m):
        saturated = saturated.fix(i, "R")
    saturated = saturated.saturate_cardinality(inst.m)
    assert saturated.is_leaf
    yield saturated


def test_node_dual_value_matches_the_scalar_loop():
    """The pricing kernel ``_Dual.value`` on a node's dual is
    ``per_activity_argmax`` run activity by activity: the x, zL, zR and
    per-activity values it keeps (the node's point, as
    ``solve_node_relaxation`` reads it) are the reference's bit for bit,
    and its dual value and subgradient lie within 1e-12 (relative to the
    terms' magnitudes) of the ``fsum`` of the reference's terms.  Each
    pricing follows one at other multipliers, whose results it must
    replace in full.  At n = 12 and 150, with edge activities, and with
    m = 0 and m = n."""
    rng = random.Random(23)
    insts = []
    for n in (12, 150):
        inst = generate(GenConfig(correlation="weak", n=n, epsilon=0.1, xi=0.75, seed=n))
        insts += [inst, dataclasses.replace(inst, extras=()),
                  dataclasses.replace(inst, m=3), _with_edge_activities(inst)]
    edge = _with_edge_activities(insts[0])
    insts += [dataclasses.replace(edge, m=0), dataclasses.replace(edge, m=edge.n)]
    checked = 0
    for inst in insts:
        K = 1 + len(inst.extras)
        b = (inst.budget_rhs,) + tuple(ex.rhs for ex in inst.extras)
        cols = [(1.0,) + tuple(ex.coeffs[i] for ex in inst.extras) for i in range(inst.n)]
        for node in (_kernel_nodes(inst, rng) if 0 < inst.m < inst.n
                     else [NodeState.root(inst)]):
            for form in ("miqp", "persp"):
                dual = _node_dual(inst, node, form == "persp")
                mults = [(0.0,) * (K + 1),
                         tuple(solve_node_relaxation(inst, node, form).multipliers)]
                for _ in range(4):
                    lam = [rng.choice([0.0, rng.uniform(0.0, 3.0)]) for _ in range(K)]
                    mults += [tuple(lam) + (0.0,), tuple(lam) + (rng.uniform(0.0, 5.0),)]
                for other, mult in zip(mults[::-1], mults):
                    lam, mu = mult[:K], mult[K]
                    dual.value(np.array(other))
                    value, grad = dual.value(np.array(mult))
                    assert tuple(dual.at.tolist()) == mult
                    best, z = dual.best, dual.z
                    x, zl, zr, vals = (dual.point.tolist(),
                                       np.where(best == 1, z, 0.0).tolist(),
                                       np.where(best == 2, z, 0.0).tolist(),
                                       dual.terms.tolist())
                    ref = [per_activity_argmax(act, rb, _regions(bits), lam, mu, form,
                                               coupling=col)
                           for act, rb, bits, col in zip(activities(inst), reference_regions(inst),
                                                         node.bits.tolist(), cols)]
                    assert repr(list(zip(x, zl, zr, vals))) == repr(ref)
                    terms = ([a.psi for a in activities(inst)] + [mu * inst.m]
                             + [l * r for l, r in zip(lam, b)] + list(vals))
                    want = math.fsum(terms)
                    scale = math.fsum(abs(t) for t in terms)
                    assert abs(value - want) <= 1e-12 * max(1.0, scale)
                    for k in range(K):
                        use = [col[k] * xi for col, xi in zip(cols, x)]
                        want = b[k] - math.fsum(use)
                        scale = abs(b[k]) + math.fsum(abs(u) for u in use)
                        assert abs(grad[k] - want) <= 1e-12 * max(1.0, scale)
                    z = [a + c for a, c in zip(zl, zr)]
                    want = inst.m - math.fsum(z)
                    assert abs(grad[K] - want) <= 1e-12 * max(1.0, inst.m + math.fsum(z))
                    checked += 1
    assert checked > 200


def test_descent_stops_at_a_target_the_warm_start_reaches(monkeypatch):
    """A child whose dual value at the warm start is at or below its target
    is pruned there: the dual is evaluated once, at the warm start, the
    primal point is read from that evaluation, and the stop is not reported
    as convergence.  Checked at n = 12 and 30."""
    for n in (12, 30):
        inst = generate(GenConfig(correlation="weak", n=n, epsilon=0.1, xi=0.5, seed=n))
        root = NodeState.root(inst)
        child = root.fix(int(np.flatnonzero(root.free)[0]), "S")
        for form in ("miqp", "persp"):
            warm = solve_node_relaxation(inst, root, form).multipliers
            at_warm = dual_value(inst, child, form, warm)
            for target in (at_warm, at_warm + 1.0):
                points = []

                def counted(dual, y):
                    points.append(tuple(y.tolist()))
                    return value(dual, y)

                value = relax._Dual.value
                monkeypatch.setattr(relax._Dual, "value", counted)
                res = solve_node_relaxation(inst, child, form, warm=warm, target=target)
                monkeypatch.undo()
                assert points == [tuple(warm)]
                assert res.upper_bound == at_warm <= target
                assert res.multipliers == tuple(warm)
                assert res.converged is False


def test_relaxation_bound_above_optimum_and_dominance(rng):
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 6))
        truth = brute_force(inst)
        root = NodeState.root(inst)
        res_m = solve_node_relaxation(inst, root, "miqp")
        res_p = solve_node_relaxation(inst, root, "persp")
        if truth.status == "optimal":
            assert res_m.upper_bound >= truth.objective - 1e-7
            assert res_p.upper_bound >= truth.objective - 1e-7
        assert res_p.upper_bound <= res_m.upper_bound + 1e-7
        for res in (res_p, res_m):
            assert ((res.z >= -1e-9) & (res.z <= 1.0 + 1e-9)).all()
            assert (res.z[res.best == 0] == 0.0).all()


def test_root_bounds_paired():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 7), with_extras=rng.random() < 0.5)
        bm, bp = root_bounds(inst)
        assert bp <= bm + 1e-9


# generator configs whose persp root descent stalls (ROADMAP item 1): a Newton
# step of zero, the iteration cap, and a step refused for raising the value
_STALLED_ROOTS = (GenConfig("strong", 500, 0.05, 0.5, 58),
                  GenConfig("strong", 50, 0.05, 0.5, 9),
                  GenConfig("uncorrelated", 300, 0.1, 0.5, 23))


@pytest.mark.xfail(strict=True, reason="the persp root descent stalls (ROADMAP item 1)")
@pytest.mark.parametrize("cfg", _STALLED_ROOTS, ids=lambda cfg: f"{cfg.correlation}-{cfg.n}")
def test_persp_root_descent_converges(cfg):
    """The persp root descent of each instance ends ``converged``.  Today
    each ends ``stalled``, at 3780.90, -327.56 and 2.09, where the miqp
    roots converge at -3881.26, -247.47 and 115.38."""
    inst = generate(cfg)
    dual = _node_dual(inst, NodeState.root(inst), True)
    y = np.zeros(dual.K + 1)
    dual.value(y)
    assert relax._descend(dual, y, -math.inf)[2] == "converged"


@pytest.mark.parametrize("cfg", _STALLED_ROOTS, ids=lambda cfg: f"{cfg.correlation}-{cfg.n}")
def test_root_bounds_keep_persp_below_miqp_on_stalled_roots(cfg):
    """``root_bounds`` prices each form at the other's multipliers too, so
    the persp bound stays at or below the miqp bound when a descent stalls."""
    bm, bp = root_bounds(generate(cfg))
    assert bp <= bm


def test_child_bound_never_exceeds_parent(rng):
    """Fixing a region shrinks the feasible set, so bounds only tighten."""
    for _ in range(12):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=rng.random() < 0.3)
        root = NodeState.root(inst)
        for form in ("miqp", "persp"):
            parent = solve_node_relaxation(inst, root, form)
            free = np.flatnonzero(root.free).tolist()
            if not free:
                continue
            i = rng.choice(free)
            for region in sorted(_regions(root.bits[i])):
                child = root.fix(i, region)
                res = solve_node_relaxation(inst, child, form, warm=parent.multipliers)
                assert res.upper_bound <= parent.upper_bound + 1e-7


def test_all_stay_node_bound_is_exact():
    rng = random.Random(3)
    inst = random_instance(rng, 5)
    node = NodeState.root(inst)
    for i in range(inst.n):
        node = node.fix(i, "S")
    psi_sum = sum(a.psi for a in activities(inst))
    for form in ("miqp", "persp"):
        res = solve_node_relaxation(inst, node, form)
        assert res.upper_bound == pytest.approx(psi_sum, rel=1e-12)


def test_single_activity_loose_budget_bound_is_exact():
    act = Act(id="a", s=2.0, l=1.0, u=6.0, delta=0.5, theta=-1.0, phi=3.0, psi=0.75)
    inst = instance_of((act,), rho=50.0, m=1, extras=())
    rb = reference_regions(inst)[0]
    x, _, _, v = per_activity_argmax(act, rb, _regions(NodeState.root(inst).bits[0]), [0.0],
                                     0.0, "miqp")
    expect = max(v, 0.0) + act.psi
    for form in ("miqp", "persp"):
        res = solve_node_relaxation(inst, NodeState.root(inst), form)
        assert res.upper_bound == pytest.approx(expect, rel=1e-9)
    truth = brute_force(inst)
    assert truth.objective == pytest.approx(expect, rel=1e-9)


def test_unconstrained_cardinality_loose_budget_bound():
    rng = random.Random(5)
    acts = tuple(make_activity(i, rng) for i in range(5))
    inst = instance_of(acts, rho=1e6, m=5, extras=())
    expect = sum(a.psi for a in acts)
    for a, rb in zip(acts, reference_regions(inst)):
        best = 0.0
        for iv in (rb.L, rb.R):
            if iv is None:
                continue
            xs = np.linspace(iv[0], iv[1], 40001)
            best = max(best, float((a.theta * xs * xs + a.phi * xs).max()))
        expect += best
    for form in ("miqp", "persp"):
        res = solve_node_relaxation(inst, NodeState.root(inst), form)
        assert res.upper_bound == pytest.approx(expect, rel=1e-6)


def test_relax_result_shape(rng):
    inst = random_instance(rng, 4)
    res = solve_node_relaxation(inst, NodeState.root(inst), "persp")
    for column in (res.values, res.best, res.z):
        assert isinstance(column, np.ndarray) and column.shape == (4,)
        assert not column.flags.writeable
    assert set(res.best.tolist()) <= {0, 1, 2}
    assert not any(hasattr(res, name) for name in ("x", "z_L", "z_R"))
    assert len(res.multipliers) == _mult_len(inst)
    assert all(m >= 0.0 for m in res.multipliers)
    assert isinstance(res.converged, bool)


def test_warm_start_of_the_wrong_length_is_refused():
    """A warm start must price every row of the node dual: one that is
    short or long is a ``ValueError``, not a silent cold start."""
    inst = generate(GenConfig("weak", 30, 0.1, 0.5, 7))
    root = NodeState.root(inst)
    res = solve_node_relaxation(inst, root, "persp")
    for warm in (res.multipliers[:2], res.multipliers + (0.0,)):
        with pytest.raises(ValueError, match="warm start"):
            solve_node_relaxation(inst, root, "persp", warm=warm)


def test_leaf_multipliers_are_checked():
    """A leaf's ``multipliers`` price its rows and the cardinality: a vector
    of another length is a ``ValueError`` naming the count, and a negative
    entry counts as 0, where the floor's cut is valid.  At -1 on the
    second extra row this leaf's dual falls below the leaf's own value, so
    the floor would cut a leaf that beats it."""
    inst = generate(GenConfig("weak", 30, 0.1, 0.5, 5))
    root = NodeState.root(inst)
    regions = bnb._round_regions(inst, root, solve_node_relaxation(inst, root, "persp"))
    for mult in ((0.0,) * 3, (0.0,) * 5):
        with pytest.raises(ValueError, match=r"not 4 \(rows and cardinality\)"):
            solve_fixed_assignment(inst, regions, multipliers=mult)
    full = solve_fixed_assignment(inst, regions)
    floor = full.value - 1e-6 * max(1.0, abs(full.value))
    assert solve_fixed_assignment(inst, regions, floor=floor,
                                  multipliers=(0.0, 0.0, -1.0, 0.0)) == full


def _hull_lp_feasible(inst, node):
    """HiGHS on the node's hull LP: per activity and open side, x in
    [lo*z, hi*z] with z in [0, 1]; the sides' z sum to at most one, or to
    one when the node fixes a side; then the coupling rows on the summed x
    and the cardinality row on the summed z."""
    n = inst.n
    sides = [[iv if iv is not None and bits & bit else None
              for bit, iv in ((2, rb.L), (4, rb.R))]
             for rb, bits in zip(reference_regions(inst), node.bits.tolist())]
    # variables: x_L, x_R, z_L, z_R, each a block of n
    bounds, A_ub, b_ub, A_eq, b_eq = [], [], [], [], []
    for k in range(2):
        bounds += [(min(s[k][0], 0.0), max(s[k][1], 0.0)) if s[k] else (0.0, 0.0)
                   for s in sides]
    for k in range(2):
        bounds += [(0.0, 1.0) if s[k] else (0.0, 0.0) for s in sides]
    for i, s in enumerate(sides):
        for k in range(2):
            if s[k] is None:
                continue
            lo, hi = s[k]
            for sign, end in ((-1.0, lo), (1.0, hi)):  # lo*z <= x <= hi*z
                row = np.zeros(4 * n)
                row[k * n + i], row[(2 + k) * n + i] = sign, -sign * end
                A_ub.append(row)
                b_ub.append(0.0)
        row = np.zeros(4 * n)
        row[2 * n + i] = row[3 * n + i] = 1.0
        if node.bits[i] & 1:
            A_ub.append(row)
            b_ub.append(1.0)
        else:
            A_eq.append(row)
            b_eq.append(1.0)
    coupling = [((1.0,) * n, inst.budget_rhs)] + [(ex.coeffs, ex.rhs) for ex in inst.extras]
    for coeffs, rhs in coupling:
        A_ub.append(np.concatenate((coeffs, coeffs, np.zeros(2 * n))))
        b_ub.append(rhs)
    A_ub.append(np.concatenate((np.zeros(2 * n), np.ones(2 * n))))
    b_ub.append(float(inst.m))
    res = linprog(np.zeros(4 * n), A_ub=np.array(A_ub), b_ub=b_ub,
                  A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                  bounds=bounds, method="highs")
    assert res.status in (0, 2)
    return res.status == 0


def _polyak_multipliers(inst, node, form, iters=500):
    """The projected subgradient descent with Polyak steps that bounded
    nodes before the Newton method, as an independent minimiser: every
    iterate it visits."""
    dual = _node_dual(inst, node, form == "persp")
    mult = [0.0] * (len(inst.extras) + 2)
    val, grad = dual.value(np.array(mult))
    best, visited = val, [tuple(mult)]
    for _ in range(iters):
        gnorm2 = math.fsum(g * g for g in grad)
        if gnorm2 <= 1e-18 or not math.isfinite(val):
            break
        step = (val - (best - max(0.1, 0.05 * abs(best)))) / gnorm2
        mult = [max(0.0, m - step * g) for m, g in zip(mult, grad)]
        val, grad = dual.value(np.array(mult))
        best = min(best, val)
        visited.append(tuple(mult))
    return visited


def _random_node(inst, rng):
    """The root with a random set of activities fixed to random open
    regions, saturated by the cardinality cap; None past the cap."""
    node = NodeState.root(inst)
    for i in rng.sample(range(inst.n), rng.randint(0, inst.n - 1)):
        if node.free[i]:
            node = node.fix(i, rng.choice(sorted(_regions(node.bits[i]))))
    node = node.saturate_cardinality(inst.m)
    return None if node.fixed_nonzero > inst.m else node


def _best_leaf(inst, node):
    """Best leaf value over the node's assignments with at most m moves."""
    best = -math.inf
    for regions in itertools.product(*[sorted(_regions(b)) for b in node.bits.tolist()]):
        if sum(r != "S" for r in regions) <= inst.m:
            out = solve_fixed_assignment(inst, regions)
            if out.feasible:
                best = max(best, out.value)
    return best


def test_node_bound_is_valid_and_exact():
    """At the root and random nodes of instances with extra rows, in both
    formulations: the Newton method ends on a certificate, its bound is at
    least the best leaf below the node, no dual value at 200 random
    multipliers or along the old subgradient descent lies more than 1e-9
    relative below it, and it is -inf exactly when HiGHS finds the node's
    hull LP infeasible."""
    rng = random.Random(29)
    endings = {True: 0, False: 0}
    for k in range(24):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=True)
        if k % 3 == 0:  # looser extra rows, so that more nodes are feasible
            extras = tuple(dataclasses.replace(ex, rhs=ex.rhs + rng.uniform(0.0, 20.0))
                           for ex in inst.extras)
            inst = dataclasses.replace(inst, extras=extras)
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(2)]
        for node in filter(None, nodes):
            hull_ok = _hull_lp_feasible(inst, node)
            leaf = _best_leaf(inst, node)
            for form in ("miqp", "persp"):
                res = solve_node_relaxation(inst, node, form)
                assert res.converged
                assert (res.upper_bound > -math.inf) == hull_ok
                endings[hull_ok] += 1
                assert res.upper_bound >= leaf - 1e-9 * max(1.0, abs(leaf))
                floor = res.upper_bound - 1e-9 * max(1.0, abs(res.upper_bound))
                mults = _polyak_multipliers(inst, node, form)
                for _ in range(200):
                    scale = 10.0 ** rng.uniform(-2.0, 1.0)
                    mults.append([rng.choice([0.0, rng.uniform(0.0, scale)])
                                  for _ in range(len(res.multipliers))])
                for mult in mults:
                    assert dual_value(inst, node, form, mult) >= floor
    assert min(endings.values()) >= 20  # both verdicts are exercised


def test_pooled_rays_prune_only_infeasible_nodes(monkeypatch):
    """A Farkas ray that one node's descent finds, offered to the other
    nodes of the same instance by ``rays``: every node pruned with it has
    an infeasible hull LP by HiGHS, and its own descent (no rays) ends at
    -inf as well.  On random small instances with extra rows drawn as the
    generator draws them (a third loosened), the root and random nodes, in
    both formulations; nodes are closed by the pooled ray itself, without
    a Newton step, also by rays found below the root and by the rays of
    random leaves' duals."""
    steps = [0]
    newton = relax._Dual.newton

    def counted(self, *args):
        steps[0] += 1
        return newton(self, *args)

    monkeypatch.setattr(relax._Dual, "newton", counted)
    rng = random.Random(43)
    hits = {"root": 0, "node": 0, "leaf": 0}  # by the dual the ray was found on
    pruned = 0
    for k in range(30):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=True)
        if k % 3 == 0:
            extras = tuple(dataclasses.replace(ex, rhs=ex.rhs + rng.uniform(0.0, 20.0))
                           for ex in inst.extras)
            inst = dataclasses.replace(inst, extras=extras)
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(5)]
        nodes = [node for node in nodes if node is not None]
        hull_ok = [_hull_lp_feasible(inst, node) for node in nodes]
        leaf_rng = random.Random(k)  # leaves drawn apart, so the nodes stay as drawn
        leaves = [_random_assignment(inst, leaf_rng) for _ in range(6)]
        leaf_rays = [solve_fixed_assignment(inst, regions).ray for regions in leaves]
        for form in ("miqp", "persp"):
            found = [(j, solve_node_relaxation(inst, node, form).ray)
                     for j, node in enumerate(nodes)]
            found += [(None, ray) for ray in leaf_rays]
            for j, ray in found:
                if ray is None:
                    continue
                assert len(ray) == len(inst.extras) + 2 and min(ray) >= 0.0
                for i, node in enumerate(nodes):
                    if i == j:
                        continue
                    steps[0] = 0
                    res = solve_node_relaxation(inst, node, form, rays=[ray])
                    if res.upper_bound > -math.inf:
                        continue
                    assert res.converged and res.ray is not None
                    assert res.values.size == res.best.size == res.z.size == inst.n
                    if steps[0] == 0:  # closed by the pool
                        assert res.ray == ray
                        hits["leaf" if j is None else "root" if j == 0 else "node"] += 1
                    pruned += 1
                    assert not hull_ok[i]
                    assert solve_node_relaxation(inst, node, form).upper_bound == -math.inf
    assert min(hits.values()) >= 10 and pruned >= sum(hits.values())


def test_child_bounds_are_the_fixed_childs_dual():
    """At a node's multipliers, the bound ``_child_bounds`` gives each free
    (activity, region) pair is the dual value of the node with that
    activity fixed to that region, at the same multipliers, to 1e-12
    relative: on random nodes of generated instances with both extra rows
    (and with edge activities), in both formulations, at n = 9 and 60."""
    rng = random.Random(31)
    insts = []
    for n in (9, 60):
        inst = generate(GenConfig(correlation="weak", n=n, epsilon=0.1, xi=0.75, seed=n))
        assert len(inst.extras) == 2
        insts += [inst, _with_edge_activities(inst)]
    checked = 0
    for inst in insts:
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(4)]
        for node in filter(None, nodes):
            for form in ("miqp", "persp"):
                res = solve_node_relaxation(inst, node, form)
                if res.upper_bound == -math.inf:
                    continue
                bounds = relax._child_bounds(inst, res)
                for i in np.flatnonzero(node.free).tolist():
                    for row, region in enumerate("SLR"):
                        if not node.bits[i] & (1 << row):
                            continue
                        want = dual_value(inst, node.fix(i, region), form,
                                          res.multipliers)
                        assert abs(bounds[row, i] - want) <= 1e-12 * max(1.0, abs(want))
                        checked += 1
    assert checked > 300


def test_regions_numbered_once():
    """One code per region (``instance._region_codes``: S 0, L 1, R 2, 3 for
    any other claim) from node bit to claim column: ``1 << code`` is the
    region's bit in ``NodeState``, the option ``RelaxResult.best`` names on
    an activity fixed there, and the row of ``_child_bounds`` with that
    child's bound; column ``code*n + i`` of the claims holds
    the reference box of the region (``activity_reference.regions``),
    NaN where it is absent; and
    ``bnb._assignment`` reads the bits back.  On generated instances where
    some activity lacks L and some lacks R, in both formulations."""
    insts = [generate(GenConfig(correlation=c, n=12, epsilon=0.1, xi=0.75, seed=s))
             for c in CORRELATIONS for s in range(3)]
    regions = [rb for inst in insts for rb in reference_regions(inst)]
    assert any(rb.L is None for rb in regions) and any(rb.R is None for rb in regions)
    absent = checked = 0
    for inst in insts:
        n, root = inst.n, NodeState.root(inst)
        claims = inst.claims
        for form in ("miqp", "persp"):
            res = solve_node_relaxation(inst, root, form)
            assert (root.bits & 1 << res.best).all()  # an open option
            bounds = relax._child_bounds(inst, res)
            for letter in "SLR":
                code = int(_region_codes(letter)[0])
                bit = 1 << code
                for i, rb in enumerate(reference_regions(inst)):
                    box = region_box(rb, letter)
                    got = claims[:2, code * n + i].tolist()
                    if box is None:
                        assert np.isnan(got).all() and not root.bits[i] & bit
                        absent += 1
                        continue
                    assert got == list(box)
                    child = root.fix(i, letter)
                    assert child.bits[i] == bit
                    assert bnb._assignment(child.bits[i:i + 1]) == (letter,)
                    fixed = solve_node_relaxation(inst, child, form, warm=res.multipliers)
                    assert fixed.best[i] == code
                    want = dual_value(inst, child, form, res.multipliers)
                    assert abs(bounds[code, i] - want) <= 1e-12 * max(1.0, abs(want))
                    checked += 1
    assert absent > 0 and checked > 300
    odd = ["S", "RS", None, "\u00e9", "", "Q", "R", "L"]
    assert _region_codes(odd).tolist() == [0, 3, 3, 3, 3, 3, 2, 1]
    assert _region_codes(["S", "Q", "\u00e9", "L", "R"]).tolist() == [0, 3, 3, 1, 2]


def test_fix_by_reduced_cost_drops_what_the_child_bounds_say():
    """``fix_by_reduced_cost`` against a frozenset model of the node: each
    free activity keeps the regions whose ``_child_bounds`` entry is above
    the threshold, fixed ones keep theirs; the node itself comes back when
    nothing is dropped, None when an activity is left with nothing; and the
    bound returned with it is the largest child bound of a dropped region
    (-inf when none is).  On random nodes of generated instances, at
    thresholds drawn among the child bounds, in both formulations."""
    rng = random.Random(37)
    outcomes = {"same": 0, "none": 0, "fixed": 0}
    for n in (9, 40):
        inst = generate(GenConfig(correlation="weak", n=n, epsilon=0.1, xi=0.75, seed=n))
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(4)]
        for node in filter(None, nodes):
            for form in ("miqp", "persp"):
                res = solve_node_relaxation(inst, node, form)
                if res.upper_bound == -math.inf or node.is_leaf:
                    continue
                bounds = relax._child_bounds(inst, res)
                free = np.flatnonzero(node.free).tolist()
                levels = sorted(bounds[:, free].ravel().tolist())
                for threshold in [-math.inf] + rng.sample(levels, min(6, len(levels))):
                    model = [_regions(b) for b in node.bits.tolist()]
                    gone = [-math.inf]
                    for i in free:
                        gone += [bounds[row, i] for row, r in enumerate("SLR")
                                 if r in model[i] and bounds[row, i] <= threshold]
                        model[i] = frozenset(r for row, r in enumerate("SLR")
                                             if r in model[i] and bounds[row, i] > threshold)
                    out, dropped = relax.fix_by_reduced_cost(node, bounds, threshold)
                    assert dropped == max(gone)
                    if not all(model):
                        assert out is None
                        outcomes["none"] += 1
                    elif model == [_regions(b) for b in node.bits.tolist()]:
                        assert out is node
                        outcomes["same"] += 1
                    else:
                        assert [_regions(b) for b in out.bits.tolist()] == model
                        assert out.bits.dtype == np.int8 and not out.bits.flags.writeable
                        outcomes["fixed"] += 1
    assert min(outcomes.values()) > 0


# ---------------------------------------------------------------------------
# node state


def test_node_state_lifecycle(two_symmetric):
    root = NodeState.root(two_symmetric)
    assert root.bits.dtype == np.int8 and root.bits.tolist() == [5, 5]  # S | R
    assert np.flatnonzero(root.free).tolist() == [0, 1]
    assert not root.is_leaf and root.fixed_nonzero == 0

    child = root.fix(0, "R")
    assert child.fixed_nonzero == 1
    saturated = child.saturate_cardinality(two_symmetric.m)
    assert saturated.bits.tolist() == [4, 1]
    assert saturated.is_leaf

    with pytest.raises(ValueError):
        root.fix(0, "L")  # L never existed for this activity


def test_root_with_zero_cap_pins_everything():
    rng = random.Random(9)
    inst = random_instance(rng, 4, m=0)
    root = NodeState.root(inst)
    assert root.is_leaf
    assert root.bits.tolist() == [1] * 4


def _model_root(inst):
    """A node as the tuple of region sets the bits stand for."""
    if inst.m == 0:
        return [frozenset("S")] * inst.n
    return [frozenset("S" + "L" * (rb.L is not None) + "R" * (rb.R is not None))
            for rb in reference_regions(inst)]


def _assert_matches_model(node, model):
    assert [_regions(b) for b in node.bits.tolist()] == model
    free = [i for i, a in enumerate(model) if len(a) > 1]
    assert np.flatnonzero(node.free).tolist() == free
    assert node.free.tolist() == [len(a) > 1 for a in model]
    assert node.is_leaf == (not free)
    assert node.fixed_nonzero == sum(len(a) == 1 and "S" not in a for a in model)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_node_state_matches_a_frozenset_model(seed):
    """Random ``fix`` and ``saturate_cardinality`` sequences on random
    instances, m = 0 and m = n among them, agree with a model that keeps
    each activity's open regions as a frozenset: ``fix`` of a region the
    model lacks raises, ``fix`` leaves its parent as it was, and ``bits``
    and the cached ``free`` are read-only."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    inst = random_instance(rng, n, m=rng.choice([0, n, rng.randint(0, n)]))
    node, model = NodeState.root(inst), _model_root(inst)
    _assert_matches_model(node, model)
    for _ in range(rng.randint(0, 2 * n)):
        if rng.random() < 0.25:
            m = rng.randint(0, n)
            node = node.saturate_cardinality(m)
            if sum(len(a) == 1 and "S" not in a for a in model) >= m:
                model = [a if len(a) == 1 else frozenset("S") for a in model]
        else:
            i, region = rng.randrange(n), rng.choice("SLR")
            before = node.bits.tolist()
            if region not in model[i]:
                with pytest.raises(ValueError):
                    node.fix(i, region)
                continue
            child = node.fix(i, region)
            assert node.bits.tolist() == before
            node, model = child, model[:i] + [frozenset(region)] + model[i + 1:]
        _assert_matches_model(node, model)
        assert node.bits.dtype == np.int8
        with pytest.raises(ValueError):
            node.bits[0] = 7
        with pytest.raises(ValueError):
            node.free[0] = True


# ---------------------------------------------------------------------------
# fixed-assignment continuous solves


def _scipy_fixed_opt(inst, assignment):
    """Independent concave QP solve over the fixed boxes (None if infeasible)."""
    boxes = []
    for rb, region in zip(reference_regions(inst), assignment):
        iv = region_box(rb, region)
        if iv is None:
            return None
        boxes.append(iv)
    n = inst.n
    rows = [[1.0] * n] + [list(ex.coeffs) for ex in inst.extras]
    rhs = [inst.budget_rhs] + [ex.rhs for ex in inst.extras]
    lp = linprog(c=[0.0] * n, A_ub=rows, b_ub=rhs, bounds=boxes, method="highs")
    if lp.status != 0:
        return None
    theta = np.array([a.theta for a in activities(inst)])
    phi = np.array([a.phi for a in activities(inst)])
    psi = sum(a.psi for a in activities(inst))

    def neg(v):
        return -(theta @ (v * v) + phi @ v)

    best = None
    mid = np.array([(lo + hi) / 2.0 for lo, hi in boxes])
    cons = [{"type": "ineq", "fun": lambda v, a=np.array(r), b=b_: b - a @ v,
             "jac": lambda v, a=np.array(r): -a} for r, b_ in zip(rows, rhs)]
    for x0 in (np.asarray(lp.x), 0.5 * (np.asarray(lp.x) + mid)):
        res = minimize(neg, x0, jac=lambda v: -(2 * theta * v + phi),
                       bounds=boxes, constraints=cons,
                       method="SLSQP", options={"maxiter": 200, "ftol": 1e-14})
        if res.x is not None:
            xv = np.clip(res.x, [b[0] for b in boxes], [b[1] for b in boxes])
            if max((np.array(r) @ xv - b_) for r, b_ in zip(rows, rhs)) <= 1e-8:
                val = float(theta @ (xv * xv) + phi @ xv) + psi
                best = val if best is None else max(best, val)
    return best


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy clips SLSQP steps
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fixed_assignment_matches_scipy(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(2, 5), with_extras=rng.random() < 0.4)
    if rng.random() < 1.0 / 3.0:  # linear revenue on about 30% of activities
        acts = tuple(a._replace(theta=0.0) if rng.random() < 0.3 else a
                     for a in activities(inst))
        inst = instance_of(acts, inst.rho, inst.m, inst.extras)
    assignment = []
    for rb in reference_regions(inst):
        options = ["S"]
        if rb.L is not None:
            options.append("L")
        if rb.R is not None:
            options.append("R")
        assignment.append(rng.choice(options))
    out = solve_fixed_assignment(inst, assignment)
    expect = _scipy_fixed_opt(inst, assignment)
    if expect is None:
        assert not out.feasible
        return
    assert out.feasible
    assert out.value == pytest.approx(expect, rel=1e-6, abs=1e-6)
    scale = max(1.0, abs(out.value))
    assert out.bound >= out.value - 1e-9 * scale
    assert out.bound - out.value <= 1e-9 * scale


def test_fixed_assignment_budget_only_is_tight(rng):
    for _ in range(15):
        inst = random_instance(rng, rng.randint(2, 6))
        assignment = [rng.choice(sorted(_regions(b))) for b in NodeState.root(inst).bits]
        out = solve_fixed_assignment(inst, assignment)
        if not out.feasible:
            continue
        scale = max(1.0, abs(out.value))
        assert out.bound - out.value <= 1e-9 * scale
        assert sum(out.x) <= inst.budget_rhs + 1e-9 * scale


def test_fixed_assignment_infeasible_boxes():
    # two activities forced to increase by 2 against a budget cap of 0.2
    act = dict(l=1.0, u=8.0, delta=2.0, theta=-1.0, phi=5.0, psi=0.0)
    a = Act(id="a", s=2.0, **act)
    b = Act(id="b", s=2.0, **act)
    inst = instance_of((a, b), rho=1.05, m=2, extras=())
    out = solve_fixed_assignment(inst, ["R", "R"])
    assert not out.feasible
    assert out.value == -math.inf


def test_leaf_feasibility_agrees_with_highs():
    """Without a linear-programming pre-check, the leaf solver's verdict
    (not ``feasible`` when no point of the boxes meets the rows) agrees
    with HiGHS on 600 random boxes with 1 to 3 rows, a third with every
    right-hand side within 1e-9 above its row's minimum over the box, and
    some linear activities and single-point boxes."""
    rng = np.random.default_rng(41)
    verdicts = {True: 0, False: 0}
    for k in range(600):
        n, K = int(rng.integers(1, 30)), 1 + k % 3
        lo = rng.uniform(-5.0, 2.0, n)
        hi = lo + rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.9)
        theta = -rng.uniform(0.5, 10.0, n) * (rng.random(n) < 0.8)
        phi = rng.uniform(-5.0, 10.0, n)
        A = rng.uniform(-3.0, 10.0, (K, n))
        A[0] = 1.0 if k % 2 else A[0]
        row_min = np.minimum(A * lo, A * hi).sum(axis=1)
        row_max = np.maximum(A * lo, A * hi).sum(axis=1)
        if k % 3 == 0:
            b = row_min + rng.uniform(0.0, 1e-9, K)
        else:
            b = row_min + rng.uniform(-0.2, 0.6, K) * (row_max - row_min)
        out = relax._box_qp_max(relax._leaf_dual(A, b, phi, theta), lo, hi)
        lp = linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=np.column_stack((lo, hi)),
                     method="highs")
        assert lp.status in (0, 2)
        assert out.feasible == (lp.status == 0), k
        verdicts[lp.status == 0] += 1
    assert min(verdicts.values()) >= 150


def test_stalled_leaf_returns_no_point_off_its_rows():
    """A leaf solve that stalls (a singular Hessian block with a linear
    activity on its kink) returns no point rather than one off its rows,
    and keeps its bound.  The box, 12 activities with 3 rows and a fifth of
    them drawn linear, is one of about 1 in 450 feasible boxes drawn this
    way that stall off a row."""
    rng = np.random.default_rng(139)
    n, K = 12, 3
    lo = rng.uniform(-5.0, 2.0, n)
    hi = lo + rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.9)
    theta = -rng.uniform(0.5, 10.0, n) * (rng.random(n) < 0.8)
    phi = rng.uniform(-5.0, 10.0, n)
    A = rng.uniform(-3.0, 10.0, (K, n))
    row_min = np.minimum(A * lo, A * hi).sum(axis=1)
    row_max = np.maximum(A * lo, A * hi).sum(axis=1)
    b = row_min + rng.uniform(-0.2, 0.6, K) * (row_max - row_min)
    assert (theta == 0.0).any()
    lp = linprog(-phi, A_ub=A, b_ub=b, bounds=np.column_stack((lo, hi)), method="highs")
    assert lp.status == 0
    out = relax._box_qp_max(relax._leaf_dual(A, b, phi, theta), lo, hi)
    assert out.feasible and out.ray is None  # feasible: no ray
    x, value, bound = out.x, out.value, out.bound
    if x is not None:
        assert (A @ np.array(x) <= b + 1e-9 * (1.0 + np.abs(b))).all()
        assert value <= bound + 1e-9 * max(1.0, abs(bound))
    # the bound holds over the feasible set, at HiGHS's vertex too
    assert float(theta @ (lp.x * lp.x) + phi @ lp.x) <= bound + 1e-9 * max(1.0, abs(bound))


def test_fixed_assignment_absent_region_is_infeasible():
    """An assignment to a region the activity does not have, or to no
    region at all, is infeasible at once, with no point and no bound; one
    of the wrong length is refused."""
    act = dict(s=2.0, l=2.0, u=8.0, delta=1.0, theta=-1.0, phi=5.0, psi=1.0)
    a, b = Act(id="a", **act), Act(id="b", **act)  # no decrease side
    inst = instance_of((a, b), rho=2.0, m=2, extras=())
    assert reference_regions(inst)[0].L is None
    for floor in (-math.inf, 0.0):
        for regions in (["L", "S"], ["Q", "S"], ["S", ""], ["RS", ""], [None, "S"]):
            out = solve_fixed_assignment(inst, regions, floor=floor)
            assert (out.x, out.value, out.bound, out.feasible, out.ray) == (
                None, -math.inf, -math.inf, False, None)
    assert solve_fixed_assignment(inst, ["R", "S"]).feasible
    for regions in (["R"], ["R", "S", "S"]):
        with pytest.raises(ValueError):
            solve_fixed_assignment(inst, regions)


def _random_assignment(inst, rng):
    """One open region per activity, drawn at random."""
    return tuple(rng.choice(sorted(_regions(b))) for b in NodeState.root(inst).bits)


def _scaled_revenue(inst, factor):
    """The instance with every revenue coefficient scaled by ``factor``."""
    acts = tuple(a._replace(theta=a.theta * factor, phi=a.phi * factor, psi=a.psi * factor)
                 for a in activities(inst))
    return instance_of(acts, inst.rho, inst.m, inst.extras)


# where a floor sits above a leaf's value, relative to max(1, |value|): the
# cut margin is 1e-9 of the floor, so the floors up to 9e-10 above must not cut
_FLOOR_OFFSETS = (-1e-1, -1e-6, -1e-9, -1e-10, 0.0, 1e-10, 5e-10, 9e-10, 1.1e-9,
                  3e-9, 1e-6, 1e-3, 1e-1, 1.0)


def test_floor_cuts_only_leaves_that_cannot_beat_it():
    """``solve_fixed_assignment`` with a floor and a node's multipliers
    either returns the outcome it returns without them, field for field, or
    cuts the leaf: no point, ``feasible``, no ray and a bound at or below
    ``floor - 1e-9*max(1, |floor|)``; the outcome without a floor then has
    its value and bound at or below the floor.  On generated instances, as
    generated and with the budget row only, with edge activities (linear
    revenue, single-point regions) and with the revenue coefficients scaled
    by 1e6; random assignments; the multipliers of node relaxations (root
    and random nodes, both forms), random ones and none; floors from far
    below to far above each leaf's value, some inside the margin."""
    rng = random.Random(61)
    cells = [Cell(c, 8, 0.1, xi) for c in CORRELATIONS for xi in (0.5, 0.75)]
    insts = []
    for _, _, inst in batch(cells, 1, 5):
        insts += [inst, dataclasses.replace(inst, extras=()),
                  _with_edge_activities(inst), _scaled_revenue(inst, 1e6)]
    kept = cut = 0
    for inst in insts:
        nodes = [NodeState.root(inst), _random_node(inst, rng)]
        mults = [solve_node_relaxation(inst, node, form).multipliers
                 for node in nodes if node is not None for form in ("miqp", "persp")]
        mults = [m for m in mults if min(m) >= 0.0]
        width = len(inst.extras) + 2
        mults += [tuple(rng.choice([0.0, rng.uniform(0.0, 10.0 ** rng.uniform(-2.0, 1.0))])
                        for _ in range(width)) for _ in range(2)]
        mults.append(None)
        for _ in range(3):
            regions = _random_assignment(inst, rng)
            full = solve_fixed_assignment(inst, regions)
            level = full.value if full.x is not None else full.bound
            if level == -math.inf:  # infeasible: floors around the root bound
                level = solve_node_relaxation(inst, nodes[0], "persp").upper_bound
            if level == -math.inf:
                level = 0.0
            for offset in _FLOOR_OFFSETS:
                floor = level + offset * max(1.0, abs(level))
                goal = floor - 1e-9 * max(1.0, abs(floor))
                # the bound carries psi_sum, added after the cut
                slack = 4.0 * math.ulp(max(abs(goal), abs(inst.psi_sum)))
                for mult in mults:
                    out = solve_fixed_assignment(inst, regions, floor=floor,
                                                 multipliers=mult)
                    if out == full:
                        kept += 1
                        continue
                    cut += 1
                    assert (out.x, out.value, out.feasible, out.ray) == (
                        None, -math.inf, True, None)
                    assert out.bound <= goal + slack
                    assert full.value <= floor and full.bound <= floor
                    assert 0.0 < offset or full.x is None
    assert kept > 2000 and cut > 2000


def _leaf_lp_feasible(inst, regions):
    """HiGHS on the leaf's boxes and coupling rows."""
    bounds = [region_box(rb, r) for rb, r in zip(reference_regions(inst), regions)]
    rows = [(1.0,) * inst.n] + [ex.coeffs for ex in inst.extras]
    rhs = [inst.budget_rhs] + [ex.rhs for ex in inst.extras]
    lp = linprog(np.zeros(inst.n), A_ub=np.array(rows), b_ub=rhs, bounds=bounds,
                 method="highs")
    assert lp.status in (0, 2)
    return lp.status == 0


def test_pooled_rays_cut_only_infeasible_leaves(monkeypatch):
    """A Farkas ray of one leaf's dual, or of a node's dual, offered to the
    other assignments of the same instance by ``rays``: every leaf closed
    by it, without a Newton step, has no point of its boxes meeting the
    rows by HiGHS, and its own descent (no rays) ends on a ray as well.  On
    random small instances with extra rows drawn as the generator draws
    them (a third loosened), random assignments, and the root and random
    nodes in both forms."""
    steps = [0]
    newton = relax._Dual.newton

    def counted(self, *args):
        steps[0] += 1
        return newton(self, *args)

    monkeypatch.setattr(relax._Dual, "newton", counted)
    rng = random.Random(47)
    hits = {"leaf": 0, "node": 0}  # by the dual the ray was found on
    for k in range(20):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=True)
        if k % 3 == 0:
            extras = tuple(dataclasses.replace(ex, rhs=ex.rhs + rng.uniform(0.0, 20.0))
                           for ex in inst.extras)
            inst = dataclasses.replace(inst, extras=extras)
        leaves = [_random_assignment(inst, rng) for _ in range(6)]
        found = [("leaf", regions, solve_fixed_assignment(inst, regions).ray)
                 for regions in leaves]
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(3)]
        found += [("node", None, solve_node_relaxation(inst, node, form).ray)
                  for node in nodes if node is not None for form in ("miqp", "persp")]
        for kind, source, ray in found:
            if ray is None:
                continue
            assert len(ray) == len(inst.extras) + 2 and min(ray) >= 0.0
            for regions in leaves:
                if regions == source:
                    continue
                steps[0] = 0
                out = solve_fixed_assignment(inst, regions, rays=[ray])
                if steps[0] or out.feasible:
                    continue
                assert (out.x, out.value, out.bound, out.ray) == (
                    None, -math.inf, -math.inf, ray)
                hits[kind] += 1
                assert not _leaf_lp_feasible(inst, regions)
                own = solve_fixed_assignment(inst, regions)
                assert not own.feasible and own.ray is not None
    assert min(hits.values()) >= 100


def _falls_alone(dual, d):
    """The Farkas test of one ray ``d`` by itself, its sums on Python
    floats, as ``_Dual.falls_along`` ran it before it took a stack."""
    K = dual.K
    s = d[:K] @ dual.A + dual.kappa * d[K]
    db, act = float(dual.e @ d), dual.zeta * d[K] + dual.off
    use = (np.minimum(s * dual.lo, s * dual.hi) + act).min(axis=0)
    return db - float(use.sum()) < -1e-12 * (abs(db) + float(np.abs(use).sum()))


def test_stacked_farkas_test_matches_each_ray_alone():
    """``_Dual.falls_along`` on a pool gives every ray the verdict of the
    ray tested alone (``_falls_alone``), and ``_descend`` ends on the first
    ray of the pool along which the dual falls: on node duals of both forms
    and on leaf duals of random instances with both extra rows (a third of
    them loosened, a third tightened), against shuffled pools of the rows'
    unit rays, the rays the instance's relaxations and leaf solves find, and
    random nonnegative vectors over six decades."""
    rng = random.Random(53)
    seen = collections.Counter()
    for k in range(40):
        inst = random_instance(rng, rng.randint(2, 8), with_extras=True)
        shift = (0.0, 20.0, -20.0)[k % 3]
        inst = dataclasses.replace(inst, extras=tuple(
            dataclasses.replace(ex, rhs=ex.rhs + rng.uniform(0.0, shift)) for ex in inst.extras))
        base, rows = relax._instance_arrays(inst).leaf, len(inst.coupling[0])
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(3)]
        nodes = [node for node in nodes if node is not None]
        leaves = [_random_assignment(inst, rng) for _ in range(3)]
        found = [solve_node_relaxation(inst, node, form).ray
                 for node in nodes for form in ("miqp", "persp")]
        found += [solve_fixed_assignment(inst, regions).ray for regions in leaves]
        pool = np.eye(rows, rows + 1).tolist() + [list(r) for r in found if r is not None]
        pool += [[rng.choice((0.0, 10.0 ** rng.uniform(-3.0, 3.0))) for _ in range(rows + 1)]
                 for _ in range(6)]
        rng.shuffle(pool)
        duals = [("node", _node_dual(inst, node, persp))
                 for node in nodes for persp in (False, True)]
        for regions in leaves:
            leaf = base.with_costs(base.off)
            boxes = [region_box(rb, r) for rb, r in zip(reference_regions(inst), regions)]
            leaf.lo, leaf.hi = (np.array([[box[end] for box in boxes]]) for end in (0, 1))
            duals.append(("leaf", leaf))
        for kind, dual in duals:
            alone = [_falls_alone(dual, np.array(ray)) for ray in pool]
            assert dual.falls_along(np.array(pool)).tolist() == alone
            seen[kind, any(alone)] += 1
            y = np.zeros(rows + 1)
            dual.value(y)
            if any(alone):
                out, val, end = relax._descend(dual, y, -math.inf, pool)
                assert (out.tolist(), val, end) == (pool[alone.index(True)], -math.inf, "ray")
            # the verdicts where they hang on the last bits: the last right-hand
            # side stepped ulp by ulp across one ray's threshold
            ray = next((np.array(r) for r in pool if r[rows] > 0.0), None)
            if ray is not None:
                for e in _across_threshold(dual, ray):
                    near = dual.with_costs(dual.off)
                    near.e = e
                    verdicts = [_falls_alone(near, np.array(r)) for r in pool]
                    assert near.falls_along(np.array(pool)).tolist() == verdicts
                    seen["flips", verdicts[pool.index(ray.tolist())]] += 1
    assert min(seen.values()) >= 10, seen


def _across_threshold(dual, d):
    """Right-hand sides of ``dual``, the last one stepped by single ulps
    from 16 below to 16 above where ray ``d`` sits on the Farkas threshold."""
    K = dual.K
    s = d[:K] @ dual.A + dual.kappa * d[K]
    use = (np.minimum(s * dual.lo, s * dual.hi) + dual.zeta * d[K] + dual.off).min(axis=0)
    total, size = float(use.sum()), float(np.abs(use).sum())
    level = total - 1e-12 * (abs(total) + size)
    e = dual.e.copy()
    e[K] = (level - float(e[:K] @ d[:K])) / d[K]
    out = []
    for step in range(-16, 17):
        shifted = e.copy()
        shifted[K] = e[K] + step * np.spacing(e[K])
        out.append(shifted)
    return out


def test_unit_rays_close_exactly_the_rows_out_of_reach(monkeypatch):
    """The unit ray of each coupling row, offered by ``rays``, against the
    scalar row rule (``bnb_reference.least_row_use``): where a row's least
    use exceeds its right-hand side ``b`` by more than ``1e-9*(1 + |b|)``,
    the node relaxation (both forms) and the leaf solve return a unit ray
    as their ray, of a row that does not clear ``b`` by that margin, with
    no Newton step; where every row clears by that margin, no unit ray
    closes them.  On the root, random nodes and random leaves of generated
    instances with both extra rows (as generated and with their right-hand
    sides lowered) and with the budget row only; each node and leaf also
    with one extra row moved to ``1e-8`` of its least use, on either side."""
    steps = [0]
    newton = relax._Dual.newton

    def counted(self, *args):
        steps[0] += 1
        return newton(self, *args)

    def verdict(inst, node, regions):
        """Whether a row is out of reach, after checking the solves; None
        when a row is within the margin, where either verdict holds."""
        rows = [(use - b, 1e-9 * (1.0 + abs(b))) for use, b in least_row_use(inst, node)]
        out = [miss > margin for miss, margin in rows]
        clear = [miss <= -margin for miss, margin in rows]
        if not any(out) and not all(clear):
            return None
        missed.update(k for k, o in enumerate(out) if o)
        units = [tuple(r) for r in np.eye(len(rows), len(rows) + 1).tolist()]
        for form in ("miqp", "persp") if regions is None else (None,):
            steps[0] = 0
            if regions is None:
                res = solve_node_relaxation(inst, node, form, rays=units)
                ray, closed = res.ray, res.upper_bound == -math.inf
            else:
                leaf = solve_fixed_assignment(inst, regions, rays=units)
                ray, closed = leaf.ray, not leaf.feasible
            if any(out):
                assert closed and ray in units and steps[0] == 0
                assert not clear[units.index(ray)]
            else:
                assert ray not in units
        return any(out)

    monkeypatch.setattr(relax._Dual, "newton", counted)
    rng = random.Random(53)
    cells = [Cell(c, n, 0.1, xi) for c in CORRELATIONS for n in (8, 12)
             for xi in (0.5, 0.75)]
    insts = []
    for _, _, inst in batch(cells, 1, 11):
        lowered = tuple(dataclasses.replace(
            ex, rhs=ex.rhs - rng.uniform(0.0, 0.3) * sum(map(abs, ex.coeffs)))
            for ex in inst.extras)
        insts += [inst, dataclasses.replace(inst, extras=lowered),
                  dataclasses.replace(inst, extras=())]
    verdicts = {(kind, out): 0 for kind in ("node", "leaf", "near") for out in (True, False)}
    missed = set()  # the rows seen out of reach, budget first
    for inst in insts:
        nodes = [NodeState.root(inst)] + [_random_node(inst, rng) for _ in range(6)]
        cases = [(node, None) for node in nodes if node is not None]
        for regions in (_random_assignment(inst, rng) for _ in range(8)):
            bits = np.array([{"S": 1, "L": 2, "R": 4}[r] for r in regions], np.int8)
            cases.append((NodeState(bits), regions))
        for node, regions in cases:
            out = verdict(inst, node, regions)
            if out is not None:
                verdicts["node" if regions is None else "leaf", out] += 1
            if not inst.extras:
                continue
            k = rng.randrange(len(inst.extras))
            use = least_row_use(inst, node)[k + 1][0]
            for side in (-1.0, 1.0):
                extras = list(inst.extras)
                extras[k] = dataclasses.replace(
                    extras[k], rhs=use + side * 1e-8 * (1.0 + abs(use)))
                near = dataclasses.replace(inst, extras=tuple(extras))
                out = verdict(near, node, regions)
                if out is not None:
                    verdicts["near", out] += 1
    assert min(verdicts.values()) >= 15 and missed == {0, 1, 2}


def _node_descents(monkeypatch):
    """Every ``_descend`` call, as (ending, multipliers, full): ``full``
    says whether it ended on a full Newton step, that is, off the start of
    its last Newton step with no line search after it."""
    events, descents = [], []
    newton, exact, descend = relax._Dual.newton, relax._exact_step, relax._descend

    def counted_step(self, kept):
        events.append(self.at.copy())
        return newton(self, kept)

    def counted_search(*args):
        events.append(None)
        return exact(*args)

    def counted_descent(*args):
        before = len(events)
        y, val, end = descend(*args)
        last = events[-1] if len(events) > before else None
        descents.append((end, y, last is not None and not np.array_equal(last, y)))
        return y, val, end

    monkeypatch.setattr(relax._Dual, "newton", counted_step)
    monkeypatch.setattr(relax, "_exact_step", counted_search)
    monkeypatch.setattr(relax, "_descend", counted_descent)
    return descents


def test_kept_full_steps_end_on_their_certificate(monkeypatch):
    """A node descent that keeps a full Newton step, without a line search,
    ends where that step's point passes the KKT test: its bound is exactly
    ``dual_value`` at its multipliers, the KKT residual of the inner
    solution there is at most ``1e-12*(1 + max|rhs|)``, and it ends
    ``"target"`` only on a node whose descent without a target does not end
    on a ray.  On generated instances, as generated and with the budget row
    only, with edge activities and with the revenue scaled by 1e6; in both
    forms, the root from zero, and its children (as the search bounds them)
    and random nodes from the root's multipliers, without a target and with
    targets between the start's dual value and the bound."""
    descents = _node_descents(monkeypatch)
    rng = random.Random(71)
    insts = []
    for _, _, inst in batch([Cell(c, 12, 0.1, 0.5) for c in CORRELATIONS], 1, 9):
        insts += [inst, dataclasses.replace(inst, extras=()),
                  _with_edge_activities(inst), _scaled_revenue(inst, 1e6)]
    kept = {"converged": 0, "target": 0}
    for inst in insts:
        rhs = [inst.budget_rhs, float(inst.m)] + [ex.rhs for ex in inst.extras]
        tol = 1e-12 * (1.0 + max(map(abs, rhs)))
        root = NodeState.root(inst)
        nodes = [root.fix(i, region) for i in np.flatnonzero(root.free).tolist()
                 for region in sorted(_regions(root.bits[i]))]
        nodes += [node for node in (_random_node(inst, rng) for _ in range(2))
                  if node is not None]
        for form in ("miqp", "persp"):
            warm = solve_node_relaxation(inst, root, form).multipliers
            for node, start in [(root, None)] + [(node, warm) for node in nodes]:
                top = dual_value(inst, node, form, start or (0.0,) * len(rhs))
                del descents[:]
                free = solve_node_relaxation(inst, node, form, warm=start)
                on_ray = free.ray is not None
                bottom = top - max(1.0, abs(top)) if on_ray else free.upper_bound
                runs = [(free, descents[:])]
                for target in (0.5 * (top + bottom), bottom + 1e-9 * max(1.0, abs(bottom))):
                    del descents[:]
                    res = solve_node_relaxation(inst, node, form, warm=start, target=target)
                    runs.append((res, descents[:]))
                for res, ends in runs:
                    if not ends or not ends[-1][2]:
                        continue
                    end, y, _ = ends[-1]
                    assert end in kept
                    kept[end] += 1
                    assert res.multipliers == tuple(y.tolist())
                    assert res.converged == (end == "converged")
                    assert repr(res.upper_bound) == repr(
                        dual_value(inst, node, form, res.multipliers))
                    grad = _node_dual(inst, node, form == "persp").value(y)[1]
                    assert relax._kkt_residual(y, grad) <= tol
                    assert end != "target" or not on_ray
    assert kept["converged"] > 30 and kept["target"] > 60


def test_full_steps_keep_at_any_revenue_scale(monkeypatch):
    """The ridge of the Newton system is relative to its Hessian block, so
    scaling the revenue by 1e6 leaves as many root children keeping their
    full Newton step, to within one: on the three n = 12 cells with the
    budget row only (epsilon 0.1, xi 0.5, batch seed 9), every child of
    the root warm-started at the root's multipliers, in both forms.  A
    ridge of ``1e-12*(trace + 1)``, which does not scale with the block,
    keeps 42 unscaled and none scaled."""
    descents = _node_descents(monkeypatch)
    cells = [Cell(c, 12, 0.1, 0.5) for c in CORRELATIONS]
    kept = {}
    for factor in (1.0, 1e6):
        ends = []
        for _, _, inst in batch(cells, 1, 9):
            inst = _scaled_revenue(dataclasses.replace(inst, extras=()), factor)
            root = NodeState.root(inst)
            for form in ("miqp", "persp"):
                warm = solve_node_relaxation(inst, root, form).multipliers
                for i in np.flatnonzero(root.free).tolist():
                    for region in sorted(_regions(root.bits[i])):
                        del descents[:]
                        solve_node_relaxation(inst, root.fix(i, region), form, warm=warm)
                        ends += descents
        kept[factor] = sum(full for _, _, full in ends)
        assert len(ends) == 196
    assert kept[1.0] > 30 and abs(kept[1e6] - kept[1.0]) <= 1


NEWTON_STEPS = Path(__file__).resolve().parent / "data" / "newton_steps.json"
LINE_STEPS = Path(__file__).resolve().parent / "data" / "line_steps.json"


def _seeded_solves(where):
    """Seeded small solves, each labelled in ``where`` as it starts.

    The instances are random n = 6 ones with about 30% linear activities,
    half of them with the two extra rows, and three generated n = 8 cells
    with edge activities (``_with_edge_activities``).  Each solves its root
    relaxation and two random nodes warm-started there, in both forms, and
    five random leaves.
    """
    rng = random.Random(2)
    insts = []
    for k in range(6):
        inst = random_instance(rng, 6, with_extras=k % 2 == 0)
        acts = tuple(a._replace(theta=0.0) if rng.random() < 0.3 else a
                     for a in activities(inst))
        insts.append(instance_of(acts, inst.rho, inst.m, inst.extras))
    for _, _, inst in batch([Cell(c, 8, 0.1, 0.5) for c in CORRELATIONS], 1, 7):
        insts.append(_with_edge_activities(inst))
    for k, inst in enumerate(insts):
        root = NodeState.root(inst)
        for form in ("persp", "miqp"):
            where.append(f"{k}_{form}_root")
            warm = solve_node_relaxation(inst, root, form).multipliers
            for j in range(2):
                node = _random_node(inst, rng)
                if node is not None:
                    where.append(f"{k}_{form}_node{j}")
                    solve_node_relaxation(inst, node, form, warm=warm)
        for j in range(5):
            where.append(f"{k}_leaf_{j}")
            solve_fixed_assignment(inst, _random_assignment(inst, rng))


# the branches of ``_newton_step``'s active-set loop, by the name its
# ``if`` tests: a tie released at a bound, a row dropped, a row joining
_STEP_BRANCHES = {"gone": "released", "drop": "dropped", "join": "joined"}


def _branch_lines(func):
    """The line that each branch of ``func``'s active-set loop runs once
    when taken: the last statement under ``if gone``, ``if drop`` and
    ``if join``, and the one after ``if not back: break``, where a released
    tie is held again."""
    lines, start = inspect.getsourcelines(func)
    loop = next(node for node in ast.walk(ast.parse(textwrap.dedent("".join(lines))))
                if isinstance(node, ast.For))
    out = {}
    for stmt, after in zip(loop.body, loop.body[1:]):
        test = ast.unparse(stmt.test) if isinstance(stmt, ast.If) else None
        if test in _STEP_BRANCHES:
            out[stmt.body[-1].lineno + start - 1] = _STEP_BRANCHES[test]
        elif test == "not back":
            out[after.lineno + start - 1] = "held"
    assert sorted(out.values()) == ["dropped", "held", "joined", "released"]
    return out


def newton_steps():
    """Every ``_Dual.newton`` call of ``_seeded_solves``, by solve, as the
    ``repr`` of ``(d, slack, kept, c, placed)`` in lists, so every bit shows;
    how many calls show each kind of tie, by dual; and how many passes of
    ``_newton_step``'s active-set loop take each branch.

    A call shows a kink tie when the prices it returns differ from the
    dual's (the step drives a tie off its kink), a level tie when it keeps
    one for the next step, and a kept tie when it was handed one.  The
    branches are read from the interpreter's trace of ``_newton_step``
    (``_branch_lines``), so the function under test is not touched.
    """
    steps, kinds, where = {}, collections.Counter(), []
    newton, code = relax._Dual.newton, relax._newton_step.__code__
    branches = _branch_lines(relax._newton_step)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in branches:
            kinds[branches[frame.f_lineno]] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    def recorded(self, kept):
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            d, slack, out, c = step = newton(self, kept)
        finally:
            sys.settrace(before)
        steps.setdefault(where[-1], []).append(repr(
            (d.tolist(), slack.tolist(), out.tolist(), c.tolist(), self.placed.tolist())))
        dual = "leaf" if len(self.lo) == 1 else where[-1].split("_")[1]
        kinds.update((dual, kind) for kind, seen in (
            ("steps", True), ("extras", self.K > 1), ("kink", (c != self.c).any()),
            ("level", out.any()), ("kept", kept.any())) if seen)
        return step

    relax._Dual.newton = recorded
    try:
        _seeded_solves(where)
    finally:
        relax._Dual.newton = newton
    return steps, kinds


# how ``_exact_step`` returns, by the expression it returns
_STEP_RETURNS = {"0.0": "flat", "min(max(probe - slope / rate, left), right)": "closed",
                 "left": "jump", "right": "right",
                 "None if dual.falls_along(d) else left": "ray"}


def _return_lines(func):
    """The line of each ``return`` in ``func``'s own body (not in the
    functions it defines), with the kind ``_STEP_RETURNS`` names."""
    lines, start = inspect.getsourcelines(func)
    out = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Return):
                out[child.lineno + start - 1] = _STEP_RETURNS[ast.unparse(child.value)]
            if not isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child)

    visit(ast.parse(textwrap.dedent("".join(lines))).body[0])
    return out


def line_steps():
    """Every ``_exact_step`` return of ``_seeded_solves``, by solve, as its
    ``repr``; and how many searches ended at each return, and ran on duals
    with one and three options and with linear activities.

    Which ``return`` a search left by is read from the interpreter's trace
    of the call, so the function under test is not touched.  The last
    return reads ``ray`` when it gives None and ``tail`` otherwise (a
    derivative flat below zero for ever, to rounding).
    """
    steps, kinds, where = {}, collections.Counter(), []
    exact = relax._exact_step
    returns = _return_lines(exact)
    left_by = []

    def local(frame, event, arg):
        if event == "return":
            left_by.append(returns[frame.f_lineno])
        return local

    def tracer(frame, event, arg):
        if frame.f_code is exact.__code__:
            frame.f_trace_lines = False
            return local
        return None

    def recorded(dual, y, d, c, t_max):
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            t = exact(dual, y, d, c, t_max)
        finally:
            sys.settrace(before)
        kind = left_by.pop()
        steps.setdefault(where[-1], []).append(repr(None if t is None else float(t)))
        kinds.update([kind if kind != "ray" or t is None else "tail",
                      ("options", len(c)), ("mixed", dual.lin is not None)])
        return t

    relax._exact_step = recorded
    try:
        _seeded_solves(where)
        where.append("jump")
        _jump_search()
    finally:
        relax._exact_step = exact
    return steps, kinds


def _jump_search():
    """A search that ends ``left`` on a jump of the derivative, which the
    seeded solves never do: two options, level to rounding near a crossing
    that a box end lies just below.

    Activity 0 stays (value 0) or sits at 1, worth ``1 - t`` along the
    direction; activity 1 has one open option, priced to leave its box at
    ``1 - 6e-12``.  Level to ``4e-12``, the least-use option is taken from
    ``1 - 4e-12`` on, where the derivative jumps from -0.5 to 0.5; the
    search brackets the box end and the crossing, and its last probe, in
    the band, finds the jump.
    """
    inf, end = math.inf, 1.0 - 6e-12
    lo, hi = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])
    far, zero = np.full((2, 2), inf), np.zeros((2, 2))
    dual = relax._Dual(np.ones((1, 2)), np.array([0.5, 0.0]), 0.0, np.array([2.0, end]),
                       np.array([-1.0, -0.5]), lo, hi, far, far, zero,
                       np.array([[0.0, inf], [0.0, 0.0]]))
    relax._exact_step(dual, np.zeros(2), np.array([1.0, 0.0]),
                      np.broadcast_to(dual.phi, (2, 2)), inf)


def test_newton_steps_match_the_recorded_bits():
    """``_Dual.newton`` returns, call for call, the bits recorded in
    ``tests/data/newton_steps.json``: node duals of both forms and leaf
    duals, with linear activities, extra rows, and kink, level and kept
    ties.  A change that moves a step on purpose re-records the file
    (``PYTHONPATH=src python3 tests/test_relax.py``) and says why."""
    want = json.loads(NEWTON_STEPS.read_text())
    got, kinds = newton_steps()
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} solves moved: {moved}"
    for dual, kind in itertools.product(("persp", "miqp", "leaf"), ("extras", "kink")):
        assert kinds[dual, kind] > 0, (dual, kind)
    for dual, kind in itertools.product(("persp", "miqp"), ("level", "kept")):
        assert kinds[dual, kind] > 0, (dual, kind)
    for branch in ("released", "dropped", "joined", "held"):
        assert kinds[branch] > 0, branch


def test_a_newton_step_without_a_working_row_stays():
    """With no working row the step is zero, the ties keep their starting
    weights and the slack is that of the point with them placed."""
    T = np.array([[1.0, 2.0], [0.5, -1.0]])
    w0, r = [0.25, 0.0], [1.0, 2.0]
    d, w, slack = relax._newton_step(np.eye(2), r, [0.0, 0.0], [False, False],
                                     (T, [0.0, 0.0], [1.0, 1.0], [0.5, -0.5], w0))
    assert d == [0.0, 0.0] and w == w0
    assert slack == (np.array(r) - T @ np.array(w0)).tolist()


def test_line_steps_match_the_recorded_bits():
    """``_exact_step`` returns, search for search, the step lengths
    recorded in ``tests/data/line_steps.json``, over the solves of
    ``newton_steps``; and the searches reach every return: the closed form
    on the last piece, ``left`` where the derivative jumps across zero,
    ``right``, a ray (None) and a flat start (0.0), on duals with one
    option (leaves) and three (nodes), with and without linear activities.
    A change that moves a step on purpose re-records the file
    (``PYTHONPATH=src python3 tests/test_relax.py``) and says why."""
    want = json.loads(LINE_STEPS.read_text())
    got, kinds = line_steps()
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} solves moved: {moved}"
    for kind in ("closed", "jump", "right", "ray", "flat", ("options", 1),
                 ("options", 3), ("mixed", True), ("mixed", False)):
        assert kinds[kind] > 0, kind


if __name__ == "__main__":
    NEWTON_STEPS.write_text(json.dumps(newton_steps()[0], indent=1, sort_keys=True) + "\n")
    LINE_STEPS.write_text(json.dumps(line_steps()[0], indent=1, sort_keys=True) + "\n")
