"""Lagrangian bounding for branch-and-bound nodes.

The coupling rows (budget, extra linear rows, cardinality) are priced into
the objective with nonnegative multipliers; the remainder then separates
into one tiny maximization per activity with a closed form.  Weak duality
makes every multiplier vector yield a valid upper bound on the node's
integer optimum, so a non-converged descent is safe, just loose.

The two formulations differ only in the per-activity subproblem:

* ``miqp`` maximizes the plain quadratic over the continuous hull
  ``{(x, z): l*z <= x <= u*z, z in [0,1]}``.  Fractional activations make
  this bound weak: the minimum-change gap effectively disappears at the
  root.
* ``persp`` maximizes the activation-scaled quadratic ``theta*x^2/z``.
  Its per-region profile is linear in ``z`` (the inner argmax scales with
  ``z``), so the subproblem optimum sits at an integral activation and the
  bound matches the convex envelope of the true disjunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Literal, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, minimize

from .instance import Activity, Instance, Region, RegionBounds

Formulation = Literal["miqp", "persp"]

MIQP: Formulation = "miqp"
PERSPECTIVE: Formulation = "persp"

_INF = math.inf


@dataclass(frozen=True)
class RelaxParams:
    """Dual-descent knobs.

    ``target`` feeds the Polyak step rule (use the incumbent when one is
    known); without it an adaptive target trails the best dual value.
    """

    max_iters: int = 500
    stall_iters: int = 50
    tol: float = 1e-9
    target: Optional[float] = None
    golden_sweeps: int = 2
    golden_iters: int = 40


# Lighter presets used per node inside the tree; the root gets the default.
NODE_PARAMS = RelaxParams(max_iters=60, golden_sweeps=1, golden_iters=25)
LEAF_PARAMS = RelaxParams(max_iters=300, golden_sweeps=3, golden_iters=60)


@dataclass(frozen=True)
class NodeState:
    """Per-activity region availability at a branch-and-bound node.

    ``allowed[i]`` is the set of regions activity ``i`` may still take:
    the full Table of open regions at the root, a singleton once fixed.
    S disappears only by fixing L or R.
    """

    allowed: Tuple[frozenset, ...]

    @classmethod
    def root(cls, inst: Instance) -> "NodeState":
        sets = []
        for rb in inst.regions:
            if inst.m == 0:
                sets.append(frozenset({"S"}))
                continue
            opts = {"S"}
            if rb.L is not None:
                opts.add("L")
            if rb.R is not None:
                opts.add("R")
            sets.append(frozenset(opts))
        return cls(tuple(sets))

    def fix(self, i: int, region: Region) -> "NodeState":
        if region not in self.allowed[i]:
            raise ValueError(f"region {region} not open for activity {i}")
        sets = list(self.allowed)
        sets[i] = frozenset({region})
        return NodeState(tuple(sets))

    def saturate_cardinality(self, m: int) -> "NodeState":
        """Once m activities are fixed nonzero, pin every free one to S."""
        if self.fixed_nonzero < m:
            return self
        sets = [a if len(a) == 1 else frozenset({"S"}) for a in self.allowed]
        return NodeState(tuple(sets))

    @property
    def fixed_nonzero(self) -> int:
        return sum(1 for a in self.allowed if len(a) == 1 and "S" not in a)

    @property
    def is_leaf(self) -> bool:
        return all(len(a) == 1 for a in self.allowed)

    def free_indices(self) -> List[int]:
        return [i for i, a in enumerate(self.allowed) if len(a) > 1]


@dataclass
class RelaxResult:
    upper_bound: float
    x: Tuple[float, ...]
    z_L: Tuple[float, ...]
    z_R: Tuple[float, ...]
    multipliers: Tuple[float, ...]  # (budget, extras..., cardinality)
    converged: bool

    @property
    def primal_z(self) -> Tuple[float, ...]:
        """Combined fractional indicator per activity."""
        return tuple(a + b for a, b in zip(self.z_L, self.z_R))


# ---------------------------------------------------------------------------
# Per-activity subproblems.
#
# A record is (theta, lL, uL, lR, uR, allowS, modeL, modeR) with mode
# 0 = closed, 1 = free, 2 = fixed.  Kept as a plain tuple: these are walked
# in the innermost loop of every dual evaluation.

_CLOSED, _FREE, _FIXED = 0, 1, 2


def _record(act: Activity, rb: RegionBounds, allowed: frozenset):
    def mode(region, present):
        if not present or region not in allowed:
            return _CLOSED
        return _FIXED if len(allowed) == 1 else _FREE

    lL, uL = rb.L if rb.L is not None else (0.0, 0.0)
    lR, uR = rb.R if rb.R is not None else (0.0, 0.0)
    return (act.theta, lL, uL, lR, uR, "S" in allowed,
            mode("L", rb.L is not None), mode("R", rb.R is not None))


def _box_quad_max(theta: float, c: float, lo: float, hi: float) -> Tuple[float, float]:
    """argmax/max of ``theta*x^2 + c*x`` over ``[lo, hi]`` with theta <= 0."""
    if theta < 0.0:
        x = c / (-2.0 * theta)
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
    elif c > 0.0:
        x = hi
    elif c < 0.0:
        x = lo
    else:
        x = lo if lo > 0.0 else (hi if hi < 0.0 else 0.0)
    return x, theta * x * x + c * x


def _activity_best(rec, phi_eff: float, mu: float, persp: bool):
    """Best (value, x, zL, zR) for one activity under priced objective.

    Ties prefer the stay region, then the decrease side; this keeps
    incumbent rounding biased toward the fewest active indicators.
    """
    theta, lL, uL, lR, uR, allow_s, mode_l, mode_r = rec
    if allow_s:
        bv, bx, bzl, bzr = 0.0, 0.0, 0.0, 0.0
    else:
        bv, bx, bzl, bzr = -_INF, 0.0, 0.0, 0.0

    if mode_l == _FIXED:
        x, g = _box_quad_max(theta, phi_eff, lL, uL)
        v = g - mu
        if v > bv:
            bv, bx, bzl, bzr = v, x, 1.0, 0.0
    elif mode_l == _FREE:
        if persp:
            x, g = _box_quad_max(theta, phi_eff, lL, uL)
            v = g - mu
            # profile in z is linear, so the activation sits at an endpoint
            if v > bv:
                bv, bx, bzl, bzr = v, x, 1.0, 0.0
        elif lL < 0.0:
            x, v = _box_quad_max(theta, phi_eff - mu / lL, lL, 0.0)
            if v > bv:
                if mu > 0.0:
                    z = x / lL
                else:
                    z = min(1.0, x / uL) if uL < 0.0 else 1.0
                bv, bx, bzl, bzr = v, x, z, 0.0

    if mode_r == _FIXED:
        x, g = _box_quad_max(theta, phi_eff, lR, uR)
        v = g - mu
        if v > bv:
            bv, bx, bzl, bzr = v, x, 0.0, 1.0
    elif mode_r == _FREE:
        if persp:
            x, g = _box_quad_max(theta, phi_eff, lR, uR)
            v = g - mu
            if v > bv:
                bv, bx, bzl, bzr = v, x, 0.0, 1.0
        elif uR > 0.0:
            x, v = _box_quad_max(theta, phi_eff - mu / uR, 0.0, uR)
            if v > bv:
                if mu > 0.0:
                    z = x / uR
                else:
                    z = min(1.0, x / lR) if lR > 0.0 else 1.0
                bv, bx, bzl, bzr = v, x, 0.0, z
    return bv, bx, bzl, bzr


def per_activity_argmax(act: Activity, rb: RegionBounds, status: frozenset,
                        lam: Sequence[float], mu: float, form: Formulation,
                        coupling: Optional[Sequence[float]] = None,
                        ) -> Tuple[float, float, float, float]:
    """Solve one activity's priced subproblem; returns (x, zL, zR, value).

    ``lam`` holds multipliers for the coupling rows and ``coupling`` the
    activity's coefficients in those rows (all ones by default, matching a
    budget-only instance).  This is the kernel every dual evaluation runs,
    with the priced slope accumulated in the same order.
    """
    lam = tuple(lam)
    if coupling is None:
        coupling = (1.0,) * len(lam)
    phi_eff = act.phi
    for l, c in zip(lam, coupling):
        phi_eff -= l * c
    v, x, zl, zr = _activity_best(_record(act, rb, frozenset(status)), phi_eff,
                                  mu, form == PERSPECTIVE)
    return x, zl, zr, v


# ---------------------------------------------------------------------------
# Node context and dual machinery


class _NodeContext:
    """Arrays precomputed once per node for fast dual evaluations."""

    __slots__ = ("n", "K", "b", "cols", "records", "phi", "psi_sum", "m")

    def __init__(self, inst: Instance, node: NodeState):
        self.n = inst.n
        extras = inst.extras
        self.K = 1 + len(extras)
        self.b = (inst.budget_rhs,) + tuple(ex.rhs for ex in extras)
        self.cols = tuple(
            (1.0,) + tuple(ex.coeffs[i] for ex in extras)
            for i in range(inst.n))
        self.records = tuple(
            _record(a, rb, allowed)
            for a, rb, allowed in zip(inst.activities, inst.regions, node.allowed))
        self.phi = tuple(a.phi for a in inst.activities)
        self.psi_sum = math.fsum(a.psi for a in inst.activities)
        self.m = inst.m


def _dual_eval(ctx: _NodeContext, mult: Sequence[float], persp: bool):
    """Dual value and primal/subgradient data at one multiplier vector."""
    K = ctx.K
    mu = mult[K]
    total = ctx.psi_sum + mu * ctx.m
    for k in range(K):
        total += mult[k] * ctx.b[k]
    n = ctx.n
    x = [0.0] * n
    zl = [0.0] * n
    zr = [0.0] * n
    ax = [0.0] * K
    zsum = 0.0
    records = ctx.records
    phi = ctx.phi
    cols = ctx.cols
    for i in range(n):
        pe = phi[i]
        col = cols[i]
        for k in range(K):
            pe -= mult[k] * col[k]
        v, xi, a, b_ = _activity_best(records[i], pe, mu, persp)
        total += v
        x[i] = xi
        zl[i] = a
        zr[i] = b_
        zsum += a + b_
        for k in range(K):
            ax[k] += col[k] * xi
    grad = [ctx.b[k] - ax[k] for k in range(K)]
    grad.append(ctx.m - zsum)
    return total, x, zl, zr, grad


def _golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int) -> float:
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _descend(eval_at: Callable[[Sequence[float]], Tuple[float, list]], dim: int,
             params: RelaxParams, init: Optional[Sequence[float]] = None):
    """Projected subgradient descent plus coordinate golden refinement.

    ``eval_at(mult)`` returns (dual value, subgradient).  Returns the best
    multiplier vector, the best dual value seen, and a convergence flag.
    """
    if init is not None and len(init) == dim:
        mult = [max(0.0, float(t)) for t in init]
    else:
        mult = [0.0] * dim
    val, grad = eval_at(mult)
    best_val = val
    best_mult = list(mult)
    beta = 1.0
    stall = 0
    tiny = max(params.tol, 1e-12 * (1.0 + abs(best_val)))
    for _ in range(params.max_iters):
        gnorm2 = math.fsum(g * g for g in grad)
        if gnorm2 <= 1e-18:
            break
        if params.target is not None and math.isfinite(params.target):
            target = params.target
        else:
            target = best_val - max(0.1, 0.05 * abs(best_val))
        gap = val - target
        if gap <= 0.0:
            break
        step = beta * gap / gnorm2
        mult = [max(0.0, m - step * g) for m, g in zip(mult, grad)]
        val, grad = eval_at(mult)
        if val < best_val - tiny:
            best_val = val
            best_mult = list(mult)
            stall = 0
        else:
            stall += 1
            if stall >= params.stall_iters:
                beta *= 0.5
                stall = 0
                if beta < 1e-3:
                    break

    # coordinate refinement around the best point seen
    mult = list(best_mult)
    improved_last = _INF
    for _ in range(params.golden_sweeps):
        sweep_start = best_val
        for k in range(dim):
            def fk(t, _k=k):
                trial = list(mult)
                trial[_k] = t
                v, _ = eval_at(trial)
                return v

            hi = max(1.0, 2.0 * mult[k])
            fhi = fk(hi)
            fcur = fk(mult[k])
            expand = 0
            while fhi < fcur and expand < 40:
                hi *= 2.0
                fcur = fhi
                fhi = fk(hi)
                expand += 1
            t_star = _golden_min(fk, 0.0, hi, params.golden_iters)
            v_star = fk(t_star)
            if v_star < best_val:
                best_val = v_star
                mult[k] = t_star
                best_mult = list(mult)
            # keep mult at the best known coordinate value
            mult[k] = best_mult[k]
        improved_last = sweep_start - best_val
    converged = improved_last <= max(params.tol, params.tol * abs(best_val))
    return best_mult, best_val, converged


def dual_value(inst: Instance, node: NodeState, form: Formulation,
               multipliers: Sequence[float]) -> float:
    """Dual bound at an explicit multiplier vector (budget, extras..., card)."""
    ctx = _NodeContext(inst, node)
    val, *_ = _dual_eval(ctx, tuple(multipliers), form == PERSPECTIVE)
    return val


def solve_node_relaxation(inst: Instance, node: NodeState, form: Formulation,
                          params: Optional[RelaxParams] = None,
                          warm: Optional[Sequence[float]] = None) -> RelaxResult:
    """Upper-bound a node by pricing the coupling rows.

    The returned bound is the lowest dual value visited; validity does not
    depend on convergence.  The primal point is the inner solution at the
    best multipliers and may violate the coupling rows; it is meant for
    branching scores and incumbent rounding only.

    Starting from a parent node's multipliers (``warm``) guarantees the
    child bound never exceeds the parent bound: shrinking the region sets
    lowers the dual pointwise, and descent only improves from the start.
    """
    params = params or RelaxParams()
    ctx = _NodeContext(inst, node)
    persp = form == PERSPECTIVE
    cache = {}

    def eval_at(mult):
        key = tuple(mult)
        hit = cache.get(key)
        if hit is None:
            val, x, zl, zr, grad = _dual_eval(ctx, key, persp)
            hit = (val, grad)
            cache[key] = hit
        return hit

    best_mult, best_val, converged = _descend(eval_at, ctx.K + 1, params,
                                              init=warm)
    _, x, zl, zr, _ = _dual_eval(ctx, tuple(best_mult), persp)
    return RelaxResult(upper_bound=best_val, x=tuple(x), z_L=tuple(zl),
                       z_R=tuple(zr), multipliers=tuple(best_mult),
                       converged=converged)


def root_bounds(inst: Instance, params: Optional[RelaxParams] = None,
                ) -> Tuple[float, float]:
    """Root bounds for both formulations under shared dual parameters.

    Each bound is additionally evaluated at the other descent's best
    multipliers; pointwise the activation-scaled subproblem never exceeds
    the hull subproblem, so the returned pair always satisfies
    ``persp <= miqp``.
    """
    params = params or RelaxParams()
    node = NodeState.root(inst)
    res_m = solve_node_relaxation(inst, node, MIQP, params)
    res_p = solve_node_relaxation(inst, node, PERSPECTIVE, params)
    ctx = _NodeContext(inst, node)
    cross_m = _dual_eval(ctx, res_p.multipliers, False)[0]
    cross_p = _dual_eval(ctx, res_m.multipliers, True)[0]
    return min(res_m.upper_bound, cross_m), min(res_p.upper_bound, cross_p)


# ---------------------------------------------------------------------------
# Exact continuous solves for a fixed region assignment.  These close the
# leaves of the search tree and re-optimize rounded incumbents.


@dataclass
class FixedOutcome:
    x: Optional[Tuple[float, ...]]
    value: float
    bound: float
    feasible: bool


def _budget_solve(theta, phi, lo, hi, b0, tol=1e-10):
    """Maximize separable concave revenue over boxes under one budget row.

    Exact up to the multiplier bisection width; linear activities tied at
    the final multiplier absorb any leftover budget.  Returns
    (x, value, bound) or None when the boxes alone exceed the budget.
    """
    n = len(theta)

    def inner(lam):
        xs = []
        for i in range(n):
            x, _ = _box_quad_max(theta[i], phi[i] - lam, lo[i], hi[i])
            xs.append(x)
        return xs

    def value_of(xs):
        return math.fsum(theta[i] * xs[i] * xs[i] + phi[i] * xs[i] for i in range(n))

    xs = inner(0.0)
    total = math.fsum(xs)
    if total <= b0:
        v = value_of(xs)
        return xs, v, v
    if math.fsum(lo) > b0:
        return None

    span = max(max(abs(a), abs(b)) for a, b in zip(lo, hi)) if n else 0.0
    lam_hi = max(1.0, max(phi) + 2.0 * max(-t for t in theta) * span + 1.0)
    while math.fsum(inner(lam_hi)) > b0:
        lam_hi *= 2.0
    lam_lo = 0.0
    for _ in range(200):
        if lam_hi - lam_lo <= tol:
            break
        mid = 0.5 * (lam_lo + lam_hi)
        if math.fsum(inner(mid)) > b0:
            lam_lo = mid
        else:
            lam_hi = mid
    lam = lam_hi
    xs = inner(lam)
    slack = b0 - math.fsum(xs)
    # dual value at lam is a valid upper bound regardless of the width
    bound = value_of(xs) + lam * slack
    # linear activities sitting exactly at the multiplier may take any point
    # of their box; hand them the leftover budget
    if slack > 0.0:
        for i in range(n):
            if slack <= 0.0:
                break
            if theta[i] == 0.0 and abs(phi[i] - lam) <= 1e-7:
                room = hi[i] - xs[i]
                add = room if room < slack else slack
                xs[i] += add
                slack -= add
    return xs, value_of(xs), bound


def _coupled_box_solve(theta, phi, lo, hi, rows_a, rows_b, params: RelaxParams):
    """Separable concave maximization over boxes under several <= rows.

    An exact max-margin LP settles feasibility up front (and doubles as the
    repair anchor).  Dual descent plus a derivative-free polish gives the
    bound; the primal is recovered at the best multipliers, linear ties are
    resolved by a small LP, and any residual row violation is repaired by
    blending toward the anchor.  Returns (x or None, value, bound, feasible).
    """
    n = len(theta)
    K = len(rows_b)
    scale = 1.0 + max(abs(b) for b in rows_b)

    # feasibility first: maximize t subject to A x + t <= b over the boxes
    res = linprog(
        c=[0.0] * n + [-1.0],
        A_ub=[list(rows_a[k]) + [1.0] for k in range(K)],
        b_ub=list(rows_b),
        bounds=[(lo[i], hi[i]) for i in range(n)] + [(None, 1e9)],
        method="highs")
    if res.status != 0 or res.x[-1] < -1e-9 * scale:
        return None, -_INF, -_INF, False
    anchor = [float(t) for t in res.x[:n]]
    margin = float(res.x[-1])

    def eval_at(mult):
        total = math.fsum(mult[k] * rows_b[k] for k in range(K))
        xs = [0.0] * n
        for i in range(n):
            pe = phi[i]
            for k in range(K):
                pe -= mult[k] * rows_a[k][i]
            x, g = _box_quad_max(theta[i], pe, lo[i], hi[i])
            xs[i] = x
            total += g
        grad = [rows_b[k] - math.fsum(rows_a[k][i] * xs[i] for i in range(n))
                for k in range(K)]
        return total, xs, grad

    def wrapped(mult):
        val, _, grad = eval_at(mult)
        return val, grad

    best_mult, bound, _ = _descend(wrapped, K, params)
    polished = minimize(lambda m: eval_at(m)[0], best_mult, method="Powell",
                        bounds=[(0.0, None)] * K,
                        options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 40})
    cand = [max(0.0, float(t)) for t in polished.x]
    cand_val = eval_at(cand)[0]
    if cand_val < bound:
        bound = cand_val
        best_mult = cand
    _, xs, _ = eval_at(best_mult)

    # linear activities priced to zero can sit anywhere in their box; pick
    # the revenue-maximizing placement subject to the remaining capacity
    ties = [i for i in range(n)
            if theta[i] == 0.0
            and abs(phi[i] - math.fsum(best_mult[k] * rows_a[k][i] for k in range(K))) <= 1e-9
            and hi[i] > lo[i]]
    if ties:
        rest_act = [math.fsum(rows_a[k][i] * xs[i] for i in range(n) if i not in ties)
                    for k in range(K)]
        res = linprog(
            c=[-phi[i] for i in ties],
            A_ub=[[rows_a[k][i] for i in ties] for k in range(K)],
            b_ub=[rows_b[k] - rest_act[k] for k in range(K)],
            bounds=[(lo[i], hi[i]) for i in ties],
            method="highs")
        if res.status == 0:
            for j, i in enumerate(ties):
                xs[i] = float(res.x[j])

    def viol(xs_):
        return max(math.fsum(rows_a[k][i] * xs_[i] for i in range(n)) - rows_b[k]
                   for k in range(K))

    v = viol(xs)
    if v > 1e-9 * scale:
        if margin <= 0.0:
            xs = anchor
        else:
            s_needed = 0.0
            for k in range(K):
                ak = math.fsum(rows_a[k][i] * xs[i] for i in range(n)) - rows_b[k]
                if ak > 0.0:
                    bk = math.fsum(rows_a[k][i] * anchor[i] for i in range(n)) - rows_b[k]
                    s_needed = max(s_needed, ak / (ak - bk))
            s_needed = min(1.0, s_needed)
            xs = [x + s_needed * (a - x) for x, a in zip(xs, anchor)]
    value = math.fsum(theta[i] * xs[i] * xs[i] + phi[i] * xs[i] for i in range(n))

    # local primal polish; accepted only if it stays feasible and improves
    th = np.asarray(theta)
    ph = np.asarray(phi)
    a_np = np.asarray(rows_a)
    b_np = np.asarray(rows_b)
    cons = [{"type": "ineq",
             "fun": (lambda v, k=k: float(b_np[k] - a_np[k] @ v)),
             "jac": (lambda v, k=k: -a_np[k])} for k in range(K)]
    res2 = minimize(lambda v: -float(th @ (v * v) + ph @ v),
                    np.asarray(xs), jac=lambda v: -(2.0 * th * v + ph),
                    method="SLSQP", bounds=list(zip(lo, hi)),
                    constraints=cons,
                    options={"maxiter": 100, "ftol": 1e-12})
    if res2.x is not None:
        xv = np.clip(res2.x, lo, hi)
        if float((a_np @ xv - b_np).max()) <= 1e-9 * scale:
            v2 = float(th @ (xv * xv) + ph @ xv)
            if v2 > value:
                xs = [float(t) for t in xv]
                value = v2
    return xs, value, max(bound, value), True


def solve_fixed_assignment(inst: Instance, assignment: Sequence[Region],
                           params: Optional[RelaxParams] = None) -> FixedOutcome:
    """Best change vector for a fully decided region assignment.

    Budget-only instances are solved exactly by multiplier bisection;
    instances with extra rows go through the multi-row dual with primal
    repair.  ``value`` is attained by a feasible point; ``bound`` is a
    certified upper bound for the assignment (they coincide when the solve
    is exact).
    """
    params = params or LEAF_PARAMS
    theta = [a.theta for a in inst.activities]
    phi = [a.phi for a in inst.activities]
    psi_sum = math.fsum(a.psi for a in inst.activities)
    lo, hi = [], []
    for rb, reg in zip(inst.regions, assignment):
        interval = rb.interval(reg)
        if interval is None:
            return FixedOutcome(None, -_INF, -_INF, False)
        lo.append(interval[0])
        hi.append(interval[1])

    if not inst.extras:
        out = _budget_solve(theta, phi, lo, hi, inst.budget_rhs)
        if out is None:
            return FixedOutcome(None, -_INF, -_INF, False)
        xs, value, bound = out
        return FixedOutcome(tuple(xs), value + psi_sum, bound + psi_sum, True)

    rows_a = [(1.0,) * inst.n] + [ex.coeffs for ex in inst.extras]
    rows_b = [inst.budget_rhs] + [ex.rhs for ex in inst.extras]
    xs, value, bound, feasible = _coupled_box_solve(
        theta, phi, lo, hi, rows_a, rows_b, params)
    if not feasible:
        return FixedOutcome(None, -_INF, -_INF, False)
    return FixedOutcome(tuple(xs), value + psi_sum, bound + psi_sum, True)
