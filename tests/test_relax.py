"""Lagrangian per-activity subproblems, node bounds, and fixed-assignment solves.

The grid oracle below re-derives every per-activity optimum from scratch
(dense activation grid plus the exact stationary candidates), sharing no
code with the closed forms under test.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from mixopt import (
    CORRELATIONS,
    Activity,
    Cell,
    GenConfig,
    Instance,
    LinearConstraint,
    NodeState,
    batch,
    brute_force,
    compute_regions,
    dual_value,
    generate,
    root_bounds,
    solve_fixed_assignment,
    solve_node_relaxation,
)
from mixopt import relax
from mixopt.relax import _node_dual

from activity_reference import per_activity_argmax
from bnb_reference import least_row_use
from conftest import make_activity, random_instance

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
        act = dataclasses.replace(act, theta=0.0)
    rb = compute_regions(act)
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
                lo, hi = rb.interval(region)
                assert lo * z - 1e-9 <= x <= hi * z + 1e-9
                quad = act.theta * x * x / z if form == "persp" else act.theta * x * x
                assert quad + phi_eff * x - mu * z == pytest.approx(value, rel=1e-9, abs=1e-9)
            else:
                assert x == pytest.approx(0.0, abs=1e-12)
                assert value == pytest.approx(max(0.0, value), abs=1e-12) or value <= 0.0


def test_per_activity_worked_examples():
    act = Activity(id="a", s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
    rb = compute_regions(act)
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
    flat = Activity(id="b", s=2.0, l=2.0, u=7.0, delta=2.0, theta=-1.0, phi=0.0, psi=0.0)
    frb = compute_regions(flat)
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
        for i in rng.sample(root.free_indices(), 3):
            node = node.fix(i, rng.choice(sorted(_regions(node.bits[i]))))
        for state in (root, node):
            for form in ("miqp", "persp"):
                solved = solve_node_relaxation(inst, state, form).multipliers
                drawn = [rng.uniform(0.0, 2.0) for _ in range(len(b) + 1)]
                for mult in (solved, drawn):
                    lam, mu = mult[:-1], mult[-1]
                    expect = math.fsum(a.psi for a in inst.activities) + mu * inst.m
                    for lam_k, b_k in zip(lam, b):
                        expect += lam_k * b_k
                    for i, (act, rb) in enumerate(zip(inst.activities, inst.regions)):
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
    for i, a in enumerate(inst.activities):
        kind = i % 5
        if kind == 0:
            a = dataclasses.replace(a, theta=0.0)
        elif kind == 1:
            a = dataclasses.replace(a, delta=0.0)
        elif kind == 2 and a.l < a.s:
            a = dataclasses.replace(a, delta=a.s - a.l)  # L = [l - s, l - s]
        elif kind == 3 and a.s < a.u:
            a = dataclasses.replace(a, delta=a.u - a.s)  # R = [u - s, u - s]
        acts.append(a)
    row = LinearConstraint(tuple(1.0 + (i % 7) for i in range(inst.n)), "ge", 0.0)
    return dataclasses.replace(inst, activities=tuple(acts),
                               extras=inst.extras + (row,))


def _kernel_nodes(inst, rng):
    """The root, a node with one activity fixed to each of L, S and R, and
    a node saturated by the cardinality cap."""
    root = NodeState.root(inst)
    yield root
    free = root.free_indices()
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
                           for act, rb, bits, col in zip(inst.activities, inst.regions,
                                                         node.bits.tolist(), cols)]
                    assert repr(list(zip(x, zl, zr, vals))) == repr(ref)
                    terms = ([a.psi for a in inst.activities] + [mu * inst.m]
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
        child = root.fix(root.free_indices()[0], "S")
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
        for z in res_p.primal_z + res_m.primal_z:
            assert -1e-9 <= z <= 1.0 + 1e-9


def test_root_bounds_paired():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 7), with_extras=rng.random() < 0.5)
        bm, bp = root_bounds(inst)
        assert bp <= bm + 1e-9


def test_child_bound_never_exceeds_parent(rng):
    """Fixing a region shrinks the feasible set, so bounds only tighten."""
    for _ in range(12):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=rng.random() < 0.3)
        root = NodeState.root(inst)
        for form in ("miqp", "persp"):
            parent = solve_node_relaxation(inst, root, form)
            free = root.free_indices()
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
    psi_sum = sum(a.psi for a in inst.activities)
    for form in ("miqp", "persp"):
        res = solve_node_relaxation(inst, node, form)
        assert res.upper_bound == pytest.approx(psi_sum, rel=1e-12)


def test_single_activity_loose_budget_bound_is_exact():
    act = Activity(id="a", s=2.0, l=1.0, u=6.0, delta=0.5, theta=-1.0, phi=3.0, psi=0.75)
    inst = Instance(activities=(act,), rho=50.0, m=1, extras=())
    rb = inst.regions[0]
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
    inst = Instance(activities=acts, rho=1e6, m=5, extras=())
    expect = sum(a.psi for a in acts)
    for a, rb in zip(acts, inst.regions):
        best = 0.0
        for region in ("L", "R"):
            iv = rb.interval(region) if (rb.L if region == "L" else rb.R) else None
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
    assert len(res.x) == 4 and len(res.z_L) == 4 and len(res.z_R) == 4
    assert res.primal_z == tuple(l + r for l, r in zip(res.z_L, res.z_R))
    assert len(res.multipliers) == _mult_len(inst)
    assert all(m >= 0.0 for m in res.multipliers)
    assert isinstance(res.converged, bool)


def _hull_lp_feasible(inst, node):
    """HiGHS on the node's hull LP: per activity and open side, x in
    [lo*z, hi*z] with z in [0, 1]; the sides' z sum to at most one, or to
    one when the node fixes a side; then the coupling rows on the summed x
    and the cardinality row on the summed z."""
    n = inst.n
    sides = [[iv if iv is not None and bits & bit else None
              for bit, iv in ((2, rb.L), (4, rb.R))]
             for rb, bits in zip(inst.regions, node.bits.tolist())]
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
                    assert len(res.x) == len(res.z_L) == len(res.values) == inst.n
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
                for i in node.free_indices():
                    for row, region in enumerate("SLR"):
                        if not node.bits[i] & (1 << row):
                            continue
                        want = dual_value(inst, node.fix(i, region), form,
                                          res.multipliers)
                        assert abs(bounds[row, i] - want) <= 1e-12 * max(1.0, abs(want))
                        checked += 1
    assert checked > 300


def test_fix_by_reduced_cost_drops_what_the_child_bounds_say():
    """``fix_by_reduced_cost`` against a frozenset model of the node: each
    free activity keeps the regions whose ``_child_bounds`` entry is above
    the threshold, fixed ones keep theirs; the node itself comes back when
    nothing is dropped, None when an activity is left with nothing.  On
    random nodes of generated instances, at thresholds drawn among the
    child bounds, in both formulations."""
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
                free = node.free_indices()
                levels = sorted(bounds[:, free].ravel().tolist())
                for threshold in [-math.inf] + rng.sample(levels, min(6, len(levels))):
                    model = [_regions(b) for b in node.bits.tolist()]
                    for i in free:
                        model[i] = frozenset(r for row, r in enumerate("SLR")
                                             if r in model[i] and bounds[row, i] > threshold)
                    out = relax.fix_by_reduced_cost(inst, node, res, threshold)
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
    assert root.free_indices() == [0, 1]
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
            for rb in inst.regions]


def _assert_matches_model(node, model):
    assert [_regions(b) for b in node.bits.tolist()] == model
    free = [i for i, a in enumerate(model) if len(a) > 1]
    assert node.free_indices() == free
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
    for rb, region in zip(inst.regions, assignment):
        iv = rb.interval(region)
        if iv is None:
            return None
        boxes.append(iv)
    n = inst.n
    rows = [[1.0] * n] + [list(ex.coeffs) for ex in inst.extras]
    rhs = [inst.budget_rhs] + [ex.rhs for ex in inst.extras]
    lp = linprog(c=[0.0] * n, A_ub=rows, b_ub=rhs, bounds=boxes, method="highs")
    if lp.status != 0:
        return None
    theta = np.array([a.theta for a in inst.activities])
    phi = np.array([a.phi for a in inst.activities])
    psi = sum(a.psi for a in inst.activities)

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
        acts = tuple(dataclasses.replace(a, theta=0.0) if rng.random() < 0.3 else a
                     for a in inst.activities)
        inst = dataclasses.replace(inst, activities=acts)
    assignment = []
    for rb in inst.regions:
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
    a = Activity(id="a", s=2.0, **act)
    b = Activity(id="b", s=2.0, **act)
    inst = Instance(activities=(a, b), rho=1.05, m=2, extras=())
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
        out = relax._box_qp_max(theta, phi, lo, hi, A, b)
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
    out = relax._box_qp_max(theta, phi, lo, hi, A, b)
    assert out.feasible and out.ray is None  # feasible: no ray
    x, value, bound = out.x, out.value, out.bound
    if x is not None:
        assert (A @ np.array(x) <= b + 1e-9 * (1.0 + np.abs(b))).all()
        assert value <= bound + 1e-9 * max(1.0, abs(bound))
    # the bound holds over the feasible set, at HiGHS's vertex too
    assert float(theta @ (lp.x * lp.x) + phi @ lp.x) <= bound + 1e-9 * max(1.0, abs(bound))


def test_fixed_assignment_absent_region_is_infeasible():
    """An assignment to a region the activity does not have is infeasible
    at once, with no point and no bound."""
    act = dict(s=2.0, l=2.0, u=8.0, delta=1.0, theta=-1.0, phi=5.0, psi=1.0)
    a, b = Activity(id="a", **act), Activity(id="b", **act)  # no decrease side
    inst = Instance(activities=(a, b), rho=2.0, m=2, extras=())
    assert inst.regions[0].L is None
    for floor in (-math.inf, 0.0):
        out = solve_fixed_assignment(inst, ["L", "S"], floor=floor)
        assert (out.x, out.value, out.bound, out.feasible, out.ray) == (
            None, -math.inf, -math.inf, False, None)
    assert solve_fixed_assignment(inst, ["R", "S"]).feasible


def _random_assignment(inst, rng):
    """One open region per activity, drawn at random."""
    return tuple(rng.choice(sorted(_regions(b))) for b in NodeState.root(inst).bits)


def _scaled_revenue(inst, factor):
    """The instance with every revenue coefficient scaled by ``factor``."""
    acts = tuple(dataclasses.replace(a, theta=a.theta * factor, phi=a.phi * factor,
                                     psi=a.psi * factor) for a in inst.activities)
    return dataclasses.replace(inst, activities=acts)


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
    bounds = [rb.interval(r) for rb, r in zip(inst.regions, regions)]
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
        nodes = [root.fix(i, region) for i in root.free_indices()
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
                for i in root.free_indices():
                    for region in sorted(_regions(root.bits[i])):
                        del descents[:]
                        solve_node_relaxation(inst, root.fix(i, region), form, warm=warm)
                        ends += descents
        kept[factor] = sum(full for _, _, full in ends)
        assert len(ends) == 196
    assert kept[1.0] > 30 and abs(kept[1e6] - kept[1.0]) <= 1
