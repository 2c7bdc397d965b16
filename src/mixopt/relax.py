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

A node with ``_VECTOR_MIN_N`` or more activities evaluates its dual with a
numpy kernel over whole columns; smaller nodes, where numpy's per-call
overhead outweighs the work, run the scalar loop over ``_activity_best``.
The numpy kernel performs the scalar operations in the scalar order and
sums sequentially, so the two return the same bits.  The descent evaluates
only the dual value and subgradient; the inner solution is built once, at
the best multipliers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Literal, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from .instance import Activity, Instance, Region, RegionBounds

Formulation = Literal["miqp", "persp"]

MIQP: Formulation = "miqp"
PERSPECTIVE: Formulation = "persp"

_INF = math.inf


@dataclass(frozen=True)
class RelaxParams:
    """Dual-descent knobs.

    ``target`` feeds the Polyak step rule (use the incumbent when one is
    known); without it an adaptive target trails the best dual value.  A
    finite target also ends the descent once the best value is at or below
    it, since the node is then pruned whatever follows; such a stop is not
    convergence.
    """

    max_iters: int = 500
    stall_iters: int = 50
    tol: float = 1e-9
    target: Optional[float] = None
    golden_sweeps: int = 2
    golden_iters: int = 40


# Lighter preset used per node inside the tree; the root gets the default.
NODE_PARAMS = RelaxParams(max_iters=60, golden_sweeps=1, golden_iters=25)


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
    budget-only instance).  This is the kernel the scalar dual evaluation
    runs, with the priced slope accumulated in the same order, and the
    reference the numpy kernel matches bit for bit.
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


# From this many activities on, a node's dual is evaluated by the numpy
# kernel: the smallest n at which it beat the scalar loop in both forms in
# each of three runs of scripts/bench_layers.py (--calls 200 --repeats 15,
# 2-core x86_64 VM, Python 3.11, numpy 2.4).  Value and subgradient per
# call, scalar -> numpy, medians of the three runs:
# n = 12 persp 21 -> 42 us, miqp 33 -> 52 us; n = 16 38 -> 43, 45 -> 54;
# n = 20 44 -> 40, 44 -> 53; n = 24 49 -> 42, 55 -> 53; n = 30 63 -> 44,
# 73 -> 54.  Both give the same bits.
_VECTOR_MIN_N = 24


class _NodeContext:
    """Data precomputed once per node for fast dual evaluations.

    From ``_VECTOR_MIN_N`` activities on, ``arrays`` holds the numpy
    kernel's node masks (and through them the instance's columns); smaller
    nodes get the scalar loop's ``records``, ``cols`` and ``phi`` instead.
    """

    __slots__ = ("n", "K", "b", "cols", "records", "phi", "psi_sum", "m",
                 "arrays")

    def __init__(self, inst: Instance, node: NodeState):
        self.n = inst.n
        extras = inst.extras
        self.K = 1 + len(extras)
        self.b = (inst.budget_rhs,) + tuple(ex.rhs for ex in extras)
        self.psi_sum = inst.psi_sum
        self.m = inst.m
        if self.n >= _VECTOR_MIN_N:
            self.arrays = _NodeArrays(inst, node)
            self.cols = self.records = self.phi = None
            return
        self.arrays = None
        self.cols = tuple(
            (1.0,) + tuple(ex.coeffs[i] for ex in extras)
            for i in range(inst.n))
        self.records = tuple(
            _record(a, rb, allowed)
            for a, rb, allowed in zip(inst.activities, inst.regions, node.allowed))
        self.phi = tuple(a.phi for a in inst.activities)


_ABSENT = (math.nan, math.nan)


class _InstanceArrays:
    """The numpy kernel's columns that do not depend on the node.

    The coupling rows (budget first) are the rows of ``A``.  The side
    arrays stack the decrease side as row 0 and the raise side as row 1:
    ``lo`` and ``hi`` hold the region ends (an absent region's read 0.0, as
    in ``_record``), ``outer`` the end away from zero and ``inner`` the end
    next to it.  ``linear`` marks theta = 0, or is None when no one has it.
    """

    __slots__ = ("theta", "phi", "linear", "neg2theta", "A", "b", "has",
                 "lo", "hi", "outer", "inner", "inner_ok")

    def __init__(self, inst: Instance):
        n, acts = inst.n, inst.activities
        self.theta = np.fromiter([a.theta for a in acts], float, n)
        self.phi = np.fromiter([a.phi for a in acts], float, n)
        quad = self.theta < 0.0
        self.linear = None if quad.all() else ~quad
        self.neg2theta = np.where(quad, -2.0 * self.theta, 1.0)
        self.A = np.ones((1 + len(inst.extras), n))
        for k, ex in enumerate(inst.extras, 1):
            self.A[k] = ex.coeffs
        self.b = np.array([inst.budget_rhs] + [ex.rhs for ex in inst.extras])
        ends = np.fromiter(itertools.chain.from_iterable(
            [(rb.L or _ABSENT) + (rb.R or _ABSENT) for rb in inst.regions]),
            float, 4 * n).reshape(n, 4).T
        self.has = ~np.isnan(ends[::2])
        lL, uL, lR, uR = np.where(np.isnan(ends), 0.0, ends)
        self.lo, self.hi = np.array([lL, lR]), np.array([uL, uR])
        self.outer, self.inner = np.array([lL, uR]), np.array([uL, lR])
        self.inner_ok = np.array([uL < 0.0, lR > 0.0])


def _instance_arrays(inst: Instance) -> _InstanceArrays:
    """Built on first use and kept in the instance's ``__dict__``, as
    ``functools.cached_property`` keeps ``Instance.regions``; an instance
    is frozen, so every node of a search shares them."""
    arrays = inst.__dict__.get("_kernel_arrays")
    if arrays is None:
        arrays = inst.__dict__["_kernel_arrays"] = _InstanceArrays(inst)
    return arrays


# bit 1 = S, 2 = L, 4 = R, for every region set a node can hold
_REGION_BITS = {frozenset(regions): bits for regions, bits in (
    ("S", 1), ("L", 2), ("SL", 3), ("R", 4), ("SR", 5), ("LR", 6), ("SLR", 7))}


class _NodeArrays:
    """The node's records (see ``_record``) as masks saying which branch of
    ``_activity_best`` each activity takes, stacked by side like the
    instance's columns: ``open`` marks a side the persp form prices,
    ``hull`` one the miqp form prices, and ``scaled`` the free sides among
    those, whose miqp box ``[lo, hi]`` ends at zero and scales with the
    activation.  Each evaluation refills two buffers: ``sides`` with each
    side's activation, value and x, and ``acc`` with the chosen ones and
    the extra rows' ``A x`` terms after the scalar start values in column 0.
    """

    __slots__ = ("inst_arrays", "stay", "open", "hull", "scaled", "lo", "hi",
                 "inner_ok", "sides", "acc")

    def __init__(self, inst: Instance, node: NodeState):
        cols = self.inst_arrays = _instance_arrays(inst)
        bits = np.fromiter([_REGION_BITS[a] for a in node.allowed], np.int64, inst.n)
        free = (bits & (bits - 1)) != 0  # more than one region left
        self.stay = np.zeros((3, inst.n))  # activation, value, x of the stay region
        self.stay[1] = np.where((bits & 1) != 0, 0.0, -_INF)
        self.open = np.array([(bits & 2) != 0, (bits & 4) != 0]) & cols.has
        self.scaled = self.open & free & np.array([cols.lo[0] < 0.0, cols.hi[1] > 0.0])
        self.hull = (self.open & ~free) | self.scaled
        self.lo = np.array([cols.lo[0], np.where(self.scaled[1], 0.0, cols.lo[1])])
        self.hi = np.array([np.where(self.scaled[0], 0.0, cols.hi[0]), cols.hi[1]])
        self.inner_ok = self.scaled & cols.inner_ok
        self.sides = np.empty((3, 2, inst.n))
        self.acc = np.zeros((len(cols.A) + 2, inst.n + 1))


def _dual_eval_arrays(ctx: _NodeContext, mult: Sequence[float], persp: bool,
                      point: bool = False):
    """``_dual_eval_loop`` on whole columns, bit for bit.

    Every elementwise operation is the scalar one in the scalar order, with
    both sides priced in one pass over ``(2, n)`` arrays; divisions run only
    where the scalar branch divides, comparisons are strict in the order
    stay, decrease, increase, and the sums are one sequential ``np.cumsum``
    seeded with the scalar start values (``np.sum`` and ``@`` sum pairwise
    or through BLAS).  The activation sum adds the chosen side's activation
    without the other side's 0.0, which would only turn -0.0 into 0.0: a
    sum seeded with 0.0 cannot tell the two apart.
    """
    arr = ctx.arrays
    cols = arr.inst_arrays
    K = ctx.K
    mu = mult[K]
    start = ctx.psi_sum + mu * ctx.m
    for k in range(K):
        start += mult[k] * ctx.b[k]
    pe = cols.phi - mult[0]  # the budget row's coefficients are all 1.0
    for k in range(1, K):
        pe -= mult[k] * cols.A[k]

    z, val, x = arr.sides
    if persp:
        c, lo, hi, on = pe, cols.lo, cols.hi, arr.open
    else:
        shift = np.divide(mu, cols.outer, out=np.zeros_like(x), where=arr.scaled)
        c, lo, hi, on = pe - shift, arr.lo, arr.hi, arr.hull
    q = c / cols.neg2theta
    x[...] = q
    np.copyto(x, hi, where=q > hi)
    np.copyto(x, lo, where=q < lo)
    if cols.linear is not None:
        flat = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        np.copyto(x, np.where(c > 0.0, hi, np.where(c < 0.0, lo, flat)),
                  where=cols.linear)
    np.multiply(cols.theta, x, out=val)
    val *= x
    val += c * x
    z[...] = 1.0
    if persp:
        val -= mu
    else:
        np.subtract(val, mu, out=val, where=~arr.scaled)
        if mu > 0.0:
            np.divide(x, cols.outer, out=z, where=arr.scaled)
        else:
            np.divide(x, cols.inner, out=z, where=arr.inner_ok)
            np.minimum(z, 1.0, out=z)

    acc = arr.acc
    acc[1, 0] = start
    chosen = acc[:3, 1:]
    chosen[...] = arr.stay
    take_l = on[0] & (val[0] > chosen[1])
    np.copyto(chosen, arr.sides[:, 0], where=take_l)
    take_r = on[1] & (val[1] > chosen[1])
    np.copyto(chosen, arr.sides[:, 1], where=take_r)
    np.multiply(cols.A[1:], chosen[2], out=acc[3:, 1:])
    sums = np.cumsum(acc, axis=1)[:, -1]
    grad = (cols.b - sums[2:]).tolist()
    grad.append(ctx.m - float(sums[0]))
    if not point:
        return float(sums[1]), grad
    z_l = np.where(take_r, 0.0, np.where(take_l, z[0], 0.0))
    z_r = np.where(take_r, z[1], 0.0)
    return float(sums[1]), grad, chosen[2].tolist(), z_l.tolist(), z_r.tolist()


def _dual_eval(ctx: _NodeContext, mult: Sequence[float], persp: bool,
               point: bool = False):
    """Dual value and subgradient at one multiplier vector.

    Returns (value, subgradient), followed by the inner solution x, zL, zR
    when ``point``; nodes with ``_VECTOR_MIN_N`` or more activities take
    the numpy kernel, which gives the same bits.
    """
    kernel = _dual_eval_loop if ctx.arrays is None else _dual_eval_arrays
    return kernel(ctx, mult, persp, point)


def _dual_eval_loop(ctx: _NodeContext, mult: Sequence[float], persp: bool,
                    point: bool = False):
    """Scalar dual evaluation, one ``_activity_best`` per activity."""
    K = ctx.K
    mu = mult[K]
    total = ctx.psi_sum + mu * ctx.m
    for k in range(K):
        total += mult[k] * ctx.b[k]
    x, zl, zr = [], [], []
    ax = [0.0] * K
    zsum = 0.0
    records = ctx.records
    phi = ctx.phi
    cols = ctx.cols
    for i in range(ctx.n):
        pe = phi[i]
        col = cols[i]
        for k in range(K):
            pe -= mult[k] * col[k]
        v, xi, a, b_ = _activity_best(records[i], pe, mu, persp)
        total += v
        zsum += a + b_
        for k in range(K):
            ax[k] += col[k] * xi
        if point:
            x.append(xi)
            zl.append(a)
            zr.append(b_)
    grad = [ctx.b[k] - ax[k] for k in range(K)]
    grad.append(ctx.m - zsum)
    if not point:
        return total, grad
    return total, grad, x, zl, zr


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
    A finite ``params.target`` also ends the descent: as soon as the best
    value is at or below it, from the first evaluation on and between
    golden coordinates, the descent returns with the flag False.
    """
    goal = params.target
    if goal is None or not math.isfinite(goal):
        goal = -_INF
    if init is not None and len(init) == dim:
        mult = [max(0.0, float(t)) for t in init]
    else:
        mult = [0.0] * dim
    val, grad = eval_at(mult)
    best_val = val
    best_mult = list(mult)
    if best_val <= goal:
        return best_mult, best_val, False
    beta = 1.0
    stall = 0
    tiny = max(params.tol, 1e-12 * (1.0 + abs(best_val)))
    for _ in range(params.max_iters):
        gnorm2 = math.fsum(g * g for g in grad)
        if gnorm2 <= 1e-18:
            break
        if goal > -_INF:
            target = goal
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
            if best_val <= goal:
                return best_mult, best_val, False
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
                if best_val <= goal:
                    return best_mult, best_val, False
            # keep mult at the best known coordinate value
            mult[k] = best_mult[k]
        improved_last = sweep_start - best_val
    converged = improved_last <= max(params.tol, params.tol * abs(best_val))
    return best_mult, best_val, converged


def dual_value(inst: Instance, node: NodeState, form: Formulation,
               multipliers: Sequence[float]) -> float:
    """Dual bound at an explicit multiplier vector (budget, extras..., card)."""
    ctx = _NodeContext(inst, node)
    return _dual_eval(ctx, tuple(multipliers), form == PERSPECTIVE)[0]


def solve_node_relaxation(inst: Instance, node: NodeState, form: Formulation,
                          params: Optional[RelaxParams] = None,
                          warm: Optional[Sequence[float]] = None) -> RelaxResult:
    """Upper-bound a node by pricing the coupling rows.

    The returned bound is the lowest dual value visited; validity does not
    depend on convergence.  With a finite ``params.target`` the descent
    stops once its best value is at or below it (see ``_descend``),
    possibly at the warm start, and ``converged`` is False.  The primal
    point is the inner solution at the best multipliers and may violate
    the coupling rows; it is meant for branching scores and incumbent
    rounding only.

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
            hit = cache[key] = _dual_eval(ctx, key, persp)
        return hit

    best_mult, best_val, converged = _descend(eval_at, ctx.K + 1, params,
                                              init=warm)
    _, _, x, zl, zr = _dual_eval(ctx, tuple(best_mult), persp, point=True)
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
# Exact continuous solve for a fixed region assignment.  It closes the leaves
# of the search tree and re-optimizes rounded incumbents.
#
# The leaf is max sum theta_i x_i^2 + phi_i x_i over boxes lo <= x <= hi and
# rows A x <= b.  Its dual g(lam) = b.lam + sum_i max_{x in box_i}
# theta_i x^2 + (phi_i - a_i.lam) x is convex and piecewise quadratic, and
# bounds the leaf at every lam >= 0.  A projected Newton method on g (a
# nonsmooth Newton method in the sense of Qi & Sun, 1993) with an exact
# breakpoint line search (as in Kiwiel's continuous quadratic knapsack
# algorithms, 2008) descends to its minimum, and stops on the KKT residual
# of the primal point it recovers.

_LEAF_MAX_ITERS = 100


@dataclass
class FixedOutcome:
    x: Optional[Tuple[float, ...]]
    value: float
    bound: float
    feasible: bool


def _newton_step(A, b, lam, work, curv, lo, hi, x, free, tied):
    """Newton direction on the dual and the primal point it aims at.

    ``work`` marks the working rows (a positive multiplier, or violated at
    ``x``) and is updated in place.  Quadratic activities strictly inside
    their box respond to the multipliers with slope ``1/curv``; linear
    activities priced to zero (``tied``) become unknowns ``y`` held on
    their kink (``a_i.d = 0``):

        [ A_W D A_W' + ridge   -A_WT ] [d]   [-(b_W - A_W x_untied)]
        [ -A_WT'                  0  ] [y] = [ 0                   ]

    A working row at a zero multiplier that the step would push negative
    leaves, a tied activity whose ``y`` leaves its box is fixed at the
    bound it crossed, and a row that the placed ties violate joins (unless
    it left before); each change solves the system again.  Returns the
    step ``d`` (zero off the working rows) and ``x`` with the ties placed.
    """
    x = x.copy()
    tied = tied.copy()
    left = np.zeros(len(lam), dtype=bool)
    d = np.zeros(len(lam))
    while work.any():
        rows = np.flatnonzero(work)
        ties = np.flatnonzero(tied)
        k = rows.size
        aw = A[rows]
        af = aw[:, free]
        at = aw[:, ties]
        m = np.zeros((k + ties.size, k + ties.size))
        m[:k, :k] = (af / curv[free]) @ af.T
        m.flat[:k * (k + ties.size):k + ties.size + 1] += (
            1e-12 * (np.trace(m) + 1.0))
        m[:k, k:] = -at
        m[k:, :k] = -at.T
        rhs = np.zeros(k + ties.size)
        rhs[:k] = aw @ np.where(tied, 0.0, x) - b[rows]
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        step, y = sol[:k], sol[k:]
        drop = (lam[rows] == 0.0) & (step < 0.0)
        if drop.any():
            work[rows[drop]] = False
            left[rows[drop]] = True
            continue
        out = (y < lo[ties]) | (y > hi[ties])
        if out.any():
            gone = ties[out]
            x[gone] = np.where(y[out] < lo[gone], lo[gone], hi[gone])
            tied[gone] = False
            continue
        placed = x.copy()
        placed[ties] = y
        join = ~work & ~left & (A @ placed > b)
        if join.any():
            work |= join
            continue
        d[rows] = step
        x = placed
        break
    return d, x


def _exact_step(quad, curv, c, s, lo, hi, db, t_max):
    """Step length in ``[0, t_max]`` that is best for the dual along a direction.

    Along ``lam + t*d`` the priced slopes are ``c - t*s`` and the
    directional derivative ``db - s.x(t)`` is nondecreasing and piecewise
    linear in ``t``: it bends where a quadratic activity reaches a box end
    and jumps where a linear one's price crosses zero.  Bisection over the
    sorted breakpoints finds the piece where it changes sign, and the piece
    is solved in closed form.  Linear activities priced to exactly zero
    leave the kink on the side the step drives them to.  Returns None when
    the derivative stays negative for ever (the dual is unbounded below).
    """
    cq, sq, kq, lq, hq = c[quad], s[quad], curv[quad], lo[quad], hi[quad]
    lin = ~quad
    cl, sl = c[lin], s[lin]
    v0 = np.where((cl > 0.0) | ((cl == 0.0) & (sl < 0.0)), hi[lin], lo[lin])
    v1 = np.where(cl > 0.0, lo[lin], hi[lin])
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = np.where(cl * sl > 0.0, cl / sl, _INF)
        cuts = np.concatenate(((cq - kq * lq) / sq, (cq - kq * hq) / sq, kink))
    cuts = np.sort(cuts[(cuts > 0.0) & (cuts < t_max)])

    def slope(t):
        xq = np.minimum(np.maximum((cq - t * sq) / kq, lq), hq)
        return db - sq @ xq - sl @ np.where(t < kink, v0, v1)

    if slope(0.0) >= 0.0:
        return 0.0
    below, above = -1, cuts.size  # slope < 0 at cuts[below], >= 0 at cuts[above]
    while above - below > 1:
        mid = (below + above) // 2
        if slope(cuts[mid]) >= 0.0:
            above = mid
        else:
            below = mid
    left = cuts[below] if below >= 0 else 0.0
    right = cuts[above] if above < cuts.size else t_max
    probe = 0.5 * (left + right) if right < _INF else left + 1.0
    xu = (cq - probe * sq) / kq
    inside = (xu > lq) & (xu < hq)
    beta = float((sq[inside] * sq[inside] / kq[inside]).sum())
    if beta > 0.0:
        return min(max(probe - slope(probe) / beta, left), right)
    return None if right == _INF else right


def _kkt_residual(lam, r):
    """Projected dual gradient: row slack ``r`` must vanish where the
    multiplier is positive and be nonnegative where it is zero."""
    return float(np.where(lam > 0.0, np.abs(r), np.maximum(-r, 0.0)).max())


def _box_qp_max(theta, phi, lo, hi, A, b):
    """Maximize ``sum theta*x^2 + phi*x`` over ``lo <= x <= hi``, ``A x <= b``.

    ``theta <= 0`` elementwise; arrays are numpy, ``A`` has one row per
    coupling row.  Returns ``(x, value, bound)``, or None when no point of
    the boxes satisfies the rows.  ``bound`` is the dual value at the final
    multipliers, a valid upper bound whatever happened; when the KKT
    residual of ``x`` falls to ``1e-12*(1 + max|b|)`` the two agree to that
    order.  If the iteration cap is reached first, ``x`` is returned as it
    stands and the caller's feasibility check decides whether it counts.
    """
    K, n = A.shape
    if K == 1:
        if math.fsum(np.minimum(A[0] * lo, A[0] * hi)) > b[0]:
            return None
    elif linprog(np.zeros(n), A_ub=A, b_ub=b, bounds=np.column_stack((lo, hi)),
                 method="highs").status != 0:
        return None
    quad = theta < 0.0
    curv = np.where(quad, -2.0 * theta, 1.0)
    lin = np.flatnonzero(~quad)
    # a linear activity priced to exactly zero takes the point closest to
    # zero, as in _box_quad_max
    rest = np.minimum(np.maximum(0.0, lo[lin]), hi[lin])
    flat = ~quad & (hi > lo)
    tie_tol = 1e-12 * (1.0 + np.abs(phi))
    tie_rate = 1e-12 * np.abs(A)
    tol = 1e-12 * (1.0 + float(np.abs(b).max()))
    lam = np.zeros(K)
    for it in range(_LEAF_MAX_ITERS + 1):
        c = phi - lam @ A
        x0 = np.minimum(np.maximum(c / curv, lo), hi)  # inner argmax
        if lin.size:
            cl = c[lin]
            x0[lin] = np.where(cl > 0.0, hi[lin], np.where(cl < 0.0, lo[lin], rest))
        r = b - A @ x0
        x = x0
        if _kkt_residual(lam, r) <= tol:
            break
        tied = flat & (np.abs(c) <= tie_tol + lam @ tie_rate)
        free = quad & (x0 > lo) & (x0 < hi)
        d, x = _newton_step(A, b, lam, (lam > 0.0) | (r < 0.0), curv, lo, hi,
                            x0, free, tied)
        if _kkt_residual(lam, b - A @ x) <= tol or it == _LEAF_MAX_ITERS:
            break
        ratio = np.full(K, _INF)
        shrink = d < 0.0
        ratio[shrink] = lam[shrink] / -d[shrink]
        t_max = float(ratio.min())
        t = _exact_step(quad, curv, np.where(tied, 0.0, c), d @ A, lo, hi,
                        float(d @ b), t_max)
        if t is None:
            return None
        if t == 0.0:
            break
        lam = np.maximum(lam + t * d, 0.0)
        if t == t_max:
            lam[ratio == t_max] = 0.0
    value = float(theta @ (x * x) + phi @ x)
    bound = float(b @ lam + theta @ (x0 * x0) + c @ x0)
    return tuple(x.tolist()), value, bound


def solve_fixed_assignment(inst: Instance, assignment: Sequence[Region],
                           ) -> FixedOutcome:
    """Best change vector for a fully decided region assignment.

    The continuous layer is a separable concave QP over the regions' boxes
    under the budget row and any extra rows, solved exactly by
    ``_box_qp_max``.  ``value`` is attained by the returned point;
    ``bound`` is the dual value at the final multipliers, a certified upper
    bound for the assignment that meets ``value`` once the KKT residual is
    down to rounding.
    """
    lo, hi = [], []
    for rb, reg in zip(inst.regions, assignment):
        interval = rb.interval(reg)
        if interval is None:
            return FixedOutcome(None, -_INF, -_INF, False)
        lo.append(interval[0])
        hi.append(interval[1])
    rows = [(1.0,) * inst.n] + [ex.coeffs for ex in inst.extras]
    rhs = [inst.budget_rhs] + [ex.rhs for ex in inst.extras]
    out = _box_qp_max(np.array([a.theta for a in inst.activities]),
                      np.array([a.phi for a in inst.activities]),
                      np.array(lo), np.array(hi), np.array(rows), np.array(rhs))
    if out is None:
        return FixedOutcome(None, -_INF, -_INF, False)
    xs, value, bound = out
    return FixedOutcome(xs, value + inst.psi_sum, bound + inst.psi_sum, True)
