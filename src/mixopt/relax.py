"""Lagrangian bounding for branch-and-bound nodes.

The coupling rows (budget, extra linear rows, cardinality) are priced into
the objective with nonnegative multipliers; the remainder then separates
into one tiny maximization per activity with a closed form.  Weak duality
makes every multiplier vector yield a valid upper bound on the node's
integer optimum.  The dual has at most four multipliers and is convex and
piecewise quadratic; a projected semismooth Newton method minimises it,
keeping a full step whose point passes the KKT test and otherwise moving
by an exact line search, and stops on a certificate: the KKT residual of
the relaxation point it recovers, or a ray along which the dual falls
without bound, which proves the node's hull relaxation has no point.  The
same method, with one option per activity, solves fixed assignments.

The two formulations differ only in the per-activity subproblem:

* ``miqp`` maximizes the plain quadratic over the continuous hull
  ``{(x, z): l*z <= x <= u*z, z in [0,1]}``.  Fractional activations make
  this bound weak: the minimum-change gap effectively disappears at the
  root.
* ``persp`` maximizes the activation-scaled quadratic ``theta*x^2/z``.
  Its per-region profile is linear in ``z`` (the inner argmax scales with
  ``z``), so the subproblem optimum sits at an integral activation and the
  bound matches the convex envelope of the true disjunction.

One numpy kernel, ``_Dual.value``, prices every option of every activity
at a multiplier vector, for nodes and leaves alike.  It performs the
scalar reference's operations (kept in the tests) in the scalar order and
sums sequentially, so its points and per-activity values are the
reference's bit for bit.  It keeps the prices and each activity's best
option, and the dual value, the Newton step and the relaxation point all
read them: each step prices the dual once.  Only a descent that a ray or
a rejected step ends away from its last pricing prices once more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from .instance import Instance, Region

Formulation = Literal["miqp", "persp"]

MIQP: Formulation = "miqp"
PERSPECTIVE: Formulation = "persp"

_INF = math.inf


# the bit of each region in a node's ``bits``
_BIT = {"S": 1, "L": 2, "R": 4}


@dataclass(frozen=True, eq=False)
class NodeState:
    """Per-activity region availability at a branch-and-bound node.

    ``bits[i]`` holds the regions activity ``i`` may still take, one bit
    each (``_BIT``: 1 = S, 2 = L, 4 = R): every open region at the root,
    one bit once fixed.  S disappears only by fixing L or R.  The int8
    array is read-only: ``fix`` and ``saturate_cardinality`` return a new
    node and leave this one as it was.
    """

    bits: np.ndarray

    def __post_init__(self):
        self.bits.flags.writeable = False

    @classmethod
    def root(cls, inst: Instance) -> "NodeState":
        if inst.m == 0:
            return cls(np.ones(inst.n, np.int8))
        return cls(np.fromiter([1 | 2 * (rb.L is not None) | 4 * (rb.R is not None)
                                for rb in inst.regions], np.int8, inst.n))

    def fix(self, i: int, region: Region) -> "NodeState":
        bit = _BIT[region]
        if not self.bits[i] & bit:
            raise ValueError(f"region {region} not open for activity {i}")
        bits = self.bits.copy()
        bits[i] = bit
        return NodeState(bits)

    @cached_property
    def free(self) -> np.ndarray:
        """Where more than one region is left; read-only, as ``bits``."""
        free = (self.bits & (self.bits - 1)) != 0
        free.flags.writeable = False
        return free

    def saturate_cardinality(self, m: int) -> "NodeState":
        """Once m activities are fixed nonzero, pin every free one to S."""
        if self.fixed_nonzero < m:
            return self
        return NodeState(np.where(self.free, 1, self.bits).astype(np.int8))

    @cached_property
    def fixed_nonzero(self) -> int:
        return int(np.count_nonzero((self.bits == 2) | (self.bits == 4)))

    @property
    def is_leaf(self) -> bool:
        return not self.free.any()

    def free_indices(self) -> List[int]:
        return np.flatnonzero(self.free).tolist()


@dataclass
class RelaxResult:
    upper_bound: float
    x: Tuple[float, ...]
    z_L: Tuple[float, ...]
    z_R: Tuple[float, ...]
    multipliers: Tuple[float, ...]  # (budget, extras..., cardinality)
    converged: bool
    values: Tuple[float, ...]  # each activity's term in the bound
    # the Farkas ray that proves the bound -inf, else None
    ray: Optional[Tuple[float, ...]] = None

    @property
    def primal_z(self) -> Tuple[float, ...]:
        """Combined fractional indicator per activity."""
        return tuple(a + b for a, b in zip(self.z_L, self.z_R))


# ---------------------------------------------------------------------------
# The numpy dual kernel


_ABSENT = (math.nan, math.nan)


class _InstanceArrays:
    """The kernel's columns that do not depend on the node.

    The coupling rows (budget first) are the rows of ``A``.  The side
    arrays stack the decrease side as row 0 and the raise side as row 1:
    ``lo`` and ``hi`` hold the region ends (an absent region's read 0.0),
    ``outer`` the end away from zero and ``inner`` the end next to it,
    and ``index`` is ``arange(n)``, to pick one side per activity.
    ``psi_sum`` and ``m`` are the node dual's constant terms.  The leaf
    solve reads its boxes, rows and revenue from the same columns.  Every
    node and leaf of a search shares them, so the arrays are read-only.
    """

    __slots__ = ("theta", "phi", "A", "b", "psi_sum", "m", "has", "lo", "hi",
                 "outer", "inner", "inner_ok", "index")

    def __init__(self, inst: Instance):
        n, acts = inst.n, inst.activities
        self.psi_sum, self.m = inst.psi_sum, inst.m
        self.theta = np.fromiter([a.theta for a in acts], float, n)
        self.phi = np.fromiter([a.phi for a in acts], float, n)
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
        self.index = np.arange(n)
        for name in self.__slots__:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _instance_arrays(inst: Instance) -> _InstanceArrays:
    """Built on first use and kept in the instance's ``__dict__``, as
    ``functools.cached_property`` keeps ``Instance.regions``; an instance
    is frozen, so every node of a search shares them."""
    arrays = inst.__dict__.get("_kernel_arrays")
    if arrays is None:
        arrays = inst.__dict__["_kernel_arrays"] = _InstanceArrays(inst)
    return arrays


def _prices(phi, A, lam):
    """``phi - lam @ A``, one row at a time in row order, as the scalar
    reference sums (``@`` sums pairwise or through BLAS)."""
    c = phi - lam[0] * A[0]
    for k in range(1, len(A)):
        c -= lam[k] * A[k]
    return c


def _box_max(c, curv, lin, lo, hi):
    """Each option's maximiser of ``theta*x^2 + c*x`` over ``[lo, hi]``,
    given ``curv = -2*theta`` where theta < 0 and 1.0 where ``lin`` marks
    theta = 0 (None when no option is linear).  A linear option priced to
    exactly zero takes the point of its box closest to zero."""
    x = np.minimum(np.maximum(c / curv, lo), hi)
    if lin is not None:
        rest = np.minimum(np.maximum(0.0, lo), hi)
        x = np.where(lin, np.where(c > 0.0, hi, np.where(c < 0.0, lo, rest)), x)
    return x


# ---------------------------------------------------------------------------
# Semismooth Newton machinery, shared by the node dual and the leaf dual.
#
# Both duals are D(y) = const + e.y + sum_i max_o [max_{x in box_io}
# theta_i x^2 + (phi_i - a_i.lam - kappa_io*mu) x - zeta_io*mu] over multipliers
# y = (lam, mu) >= 0.  Each activity takes the best of its options o: one
# for a leaf, where mu prices an empty row; stay, decrease and raise at a
# node, where mu prices the cardinality row.  Option o uses the rows by
# (a_i*x, kappa_io*x + zeta_io).  D is convex and piecewise quadratic.  A
# projected Newton method on D (a nonsmooth Newton method in the sense of Qi
# & Sun, 1993) with an exact breakpoint line search (as in Kiwiel's
# continuous quadratic knapsack algorithms, 2008) descends to its minimum;
# a full step whose point passes the KKT test needs no search.
# It stops on the KKT residual of the primal point it recovers, or on a ray
# along which D falls without bound, which proves that no point of the
# boxes meets the rows.

_NEWTON_MAX_ITERS = 100


def _kkt_residual(lam, r):
    """Projected dual gradient: row slack ``r`` must vanish where the
    multiplier is positive and be nonnegative where it is zero."""
    return float(np.where(lam > 0.0, np.abs(r), np.maximum(-r, 0.0)).max())


def _newton_step(M, r, T, tlo, thi, tgap, w0, lam, work):
    """Newton direction on the dual and the primal point it aims at.

    ``M`` is the dual's generalized Hessian: every quadratic activity
    strictly inside its box responds to the multipliers with slope
    ``1/curv``.  ``r`` is the row slack of the point without its ties.  A
    tie is an activity whose price sits on a kink of the dual: a linear
    activity priced to zero, or two options of equal value.  Its weight
    ``w``, in ``[tlo, thi]``, is an unknown that adds ``w`` times its column
    of ``T`` to the row usage, and the step must keep the tie
    (``-T_j.d = tgap_j``, the tie's residual):

        [ M_WW + ridge   -T_W ] [d]   [-r_W ]
        [ -T_W'            0  ] [w] = [ tgap]

    The ridge is 1e-12 of the trace of ``M_WW`` (1e-12 where that is zero).

    ``work`` marks the working rows (a positive multiplier, or violated)
    and is updated in place.  An active-set loop settles the system: a tie
    whose weight leaves its bounds is released at the bound it crossed;
    then, with every weight in bounds, a working row at a zero multiplier
    that the step would push negative leaves, a row that the placed ties
    violate joins (unless it left before), and a released tie that the step
    would carry back across its kink is held again.  Each change solves the
    system again.  (A row judged by a step whose weights are out of bounds
    can leave when only the tie blocks it, and the step then vanishes.)
    Returns the step ``d`` (zero off the working rows), the weights (``w0``
    where no row works) and the slack of the point with the ties placed.
    """
    r = r.copy()
    w = w0.copy()
    live = np.ones(w.size, dtype=bool)
    left = np.zeros(lam.size, dtype=bool)
    d = np.zeros(lam.size)
    for _ in range(4 * (lam.size + w.size) + 4):
        d[:] = 0.0
        if not work.any():
            break
        rows = np.flatnonzero(work)
        ties = np.flatnonzero(live)
        k = rows.size
        size = k + ties.size
        tw = T[np.ix_(rows, ties)]
        m = np.zeros((size, size))
        m[:k, :k] = M[np.ix_(rows, rows)]
        trace = np.trace(m)
        m.flat[:k * size:size + 1] += 1e-12 * (trace if trace > 0.0 else 1.0)
        m[:k, k:] = -tw
        m[k:, :k] = -tw.T
        rhs = np.concatenate((-r[rows], tgap[ties]))
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        step, y = sol[:k], sol[k:]
        out = (y < tlo[ties]) | (y > thi[ties])
        if out.any():
            gone = ties[out]
            w[gone] = np.where(y[out] < tlo[gone], tlo[gone], thi[gone])
            r -= T[:, gone] @ w[gone]
            live[gone] = False
            continue
        drop = (lam[rows] == 0.0) & (step < 0.0)
        if drop.any():
            work[rows[drop]] = False
            left[rows[drop]] = True
            continue
        w[ties] = y
        d[rows] = step
        join = ~work & ~left & (r - T[:, ties] @ y < 0.0)
        if join.any():
            work |= join
            continue
        lean = -tgap - d @ T  # where each tie's partner ends up against it
        back = ~live & (((w == tlo) & (lean > 0.0)) | ((w == thi) & (lean < 0.0)))
        if not back.any():
            break
        r += T[:, back] @ w[back]
        live |= back
    return d, w, r - T[:, live] @ w[live]


def _falls_without_bound(db, s, lo, hi, act):
    """Farkas test of a ray ``d >= 0`` of the dual.

    Far along ``d`` each activity takes the option and the end of its box
    that use the rows least, ``min(s*lo, s*hi) + act`` in the direction
    (``s`` the option's price slope and ``act`` its activation's; infinite
    for a closed option).  The dual falls without bound when ``db = e.d``
    lies below the sum of those by more than rounding, and then no point of
    the boxes meets the rows.
    """
    use = (np.minimum(s * lo, s * hi) + act).min(axis=0)
    return db - float(use.sum()) < -1e-12 * (abs(db) + float(np.abs(use).sum()))


def _exact_step(quad, curv, c, s, lo, hi, db, t_max, off, act):
    """Step length in ``[0, t_max]`` that is best for the dual along a direction.

    Each row of the ``(P, n)`` arrays is one option of every activity.
    Along ``y + t*d`` an option's priced slope is ``c - t*s`` and its
    activation costs ``off + t*act`` (infinite ``off`` closes the option);
    each activity takes its best option.  The directional derivative
    ``db - sum(s*x(t) + act)`` is nondecreasing and piecewise linear in
    ``t``: it bends where a quadratic option reaches a box end, and jumps
    where a linear one's price crosses zero or an activity's best option
    changes.  A search over the sorted box ends and zero crossings finds
    the piece where it changes sign.  With more than one option, every
    option's value is one quadratic in ``t`` on that piece, and a second
    search over the points where two of an activity's options cross
    narrows it to a piece where the derivative is linear, which is solved
    in closed form.  Linear options priced to exactly zero leave the kink on
    the side the step drives them to.  Returns None when the derivative
    stays below zero for ever, by more than rounding: the dual falls
    without bound along the direction, a ray that proves no point of the
    boxes meets the rows.
    """
    P, n = c.shape
    theta = np.where(quad, -0.5 * curv, 0.0)
    lin = ~quad
    mixed = bool(lin.any())
    cols = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        kink = np.where(lin & (c * s > 0.0), c / s, _INF)
        bend = quad & (off < _INF)
        cuts = np.concatenate((np.where(bend, (c - curv * lo) / s, _INF),
                               np.where(bend, (c - curv * hi) / s, _INF),
                               kink)).ravel()
    v0 = np.where((c > 0.0) | ((c == 0.0) & (s < 0.0)), hi, lo)
    v1 = np.where(c > 0.0, lo, hi)
    if P > 1:  # rounding in the options' values, from their terms at t = 0
        x = np.minimum(np.maximum(c / curv, lo), hi)
        level_tol = 1e-12 * (1.0 + np.abs(theta * x * x) + np.abs(c * x)
                             + np.where(off < _INF, np.abs(off), 0.0)).max(axis=0)

    def state(t, full=False):
        """Slope just after ``t``; with ``full`` also its rate there and the
        options' points.

        Among options level with an activity's best to rounding, the one
        that uses the rows least along the direction is taken: it is the
        best just after ``t``.
        """
        x = np.minimum(np.maximum((c - t * s) / curv, lo), hi)
        if mixed:
            x = np.where(lin, np.where(t < kink, v0, v1), x)
        use = s * x + act
        best = None
        if P > 1:
            val = (theta * x + (c - t * s)) * x - (off + t * act)
            level = val >= val.max(axis=0) - level_tol
            best = np.argmin(np.where(level, use, _INF), axis=0)
            use = use[best, cols]
        slope = db - float(use.sum())
        if not full:
            return slope
        rate = np.where(quad & (x > lo) & (x < hi), s * s / curv, 0.0)
        return slope, float((rate if best is None else rate[best, cols]).sum()), x

    def bracket(points, t_lo, f_lo, t_hi, f_hi, guess):
        """Narrow ``(t_lo, t_hi)``, where the slope ``f_lo`` is negative and
        ``f_hi`` is not (infinite when not known yet), over the points in
        between.  Each probe is the point next to ``guess``, then to the
        root of the slope's chord; two probes in a row on the same side, or
        no chord, make the next probe the middle one."""
        points = np.sort(points[(points > t_lo) & (points < t_hi)])
        i, j, side = -1, points.size, None
        while j - i > 1:
            if guess is None:
                k = (i + j) // 2
            else:
                k = min(max(int(np.searchsorted(points, guess)), i + 1), j - 1)
            f = state(points[k])
            above = f >= 0.0
            if above:
                j, t_hi, f_hi = k, points[k], f
            else:
                i, t_lo, f_lo = k, points[k], f
            if guess is None or above != side:
                guess = (t_lo - f_lo * (t_hi - t_lo) / (f_hi - f_lo)
                         if f_hi < _INF else None)
            else:
                guess = None
            side = above
        return t_lo, f_lo, t_hi, f_hi

    f0 = state(0.0)
    if f0 >= 0.0:
        return 0.0
    left, f_left, right, f_right = bracket(cuts, 0.0, f0, t_max, _INF, 1.0)
    if P > 1:
        # each option is one quadratic in t on (left, right): a + b t + g t^2
        probe = 0.5 * (left + right) if right < _INF else left + 1.0
        x = state(probe, True)[2]
        inside = quad & (x > lo) & (x < hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.where(inside, 0.5 * s * s / curv, 0.0)
            b = np.where(inside, -c * s / curv, -s * x) - act
            a = np.where(inside, 0.5 * c * c / curv, theta * x * x + c * x) - off
            roots = []
            for p, q in ((0, 1), (0, 2), (1, 2))[:P * (P - 1) // 2]:
                da, db_, dg = a[p] - a[q], b[p] - b[q], g[p] - g[q]
                disc = np.sqrt(db_ * db_ - 4.0 * dg * da)
                half = -0.5 * (db_ + np.copysign(disc, db_))
                roots += [np.where(dg != 0.0, half / dg, -da / db_), da / half]
        cross = np.concatenate(roots)
        chord = (left - f_left * (right - left) / (f_right - f_left)
                 if f_right < _INF else None)
        left, f_left, right, f_right = bracket(cross[np.isfinite(cross)], left, f_left,
                                               right, f_right, chord)
    probe = 0.5 * (left + right) if right < _INF else left + 1.0
    slope, rate, _ = state(probe, True)
    if rate > 0.0:
        return min(max(probe - slope / rate, left), right)
    if slope >= 0.0:  # the derivative jumped across zero at ``left``
        return left
    if right < _INF:
        return right
    closed = np.where(off < _INF, act, _INF)
    return None if _falls_without_bound(db, s, lo, hi, closed) else left


class _Dual:
    """A dual of the form above, its one pricing kernel and its Newton step.

    Row ``o`` of the ``(P, n)`` arrays is option ``o`` of every activity.
    The multipliers are ``y = (lam, mu)``: ``lam`` prices the rows ``A``
    (``K`` of them) and ``mu`` the last row, which counts activations.  At
    ``y`` option ``o`` prices ``x`` in ``[lo, hi]`` at
    ``phi - a.lam - mu/span`` and costs ``zeta*mu + off`` (an infinite
    ``off`` closes it), so it uses the rows by ``(a*x, kappa*x + zeta)``
    with ``kappa = 1/span``: ``span`` is the far end of a box that scales
    with its activation, infinite for the others.  Where ``near`` is finite
    the point at ``mu = 0`` takes the largest activation that holds ``x``,
    ``x/near`` capped at one.  ``e`` holds the right-hand sides and
    ``const`` the dual value's constant term.

    ``value(y)`` prices every option and keeps what it finds: ``at`` (the
    ``y``), ``f`` and ``grad`` (the value and subgradient there), ``c``,
    ``x`` and ``val`` (each option's price, maximiser and value), ``best``
    (each activity's best option, the first of equal values), and there
    ``point``, ``terms`` (each activity's term in ``f``) and ``z`` (its
    activation).  ``placed`` is the point the last Newton step recovered,
    each activity at its best option with its kink ties placed.
    """

    __slots__ = ("K", "A", "e", "const", "phi", "theta", "quad", "lin", "curv",
                 "lo", "hi", "span", "scaled", "near", "kappa", "zeta", "off",
                 "index", "at", "f", "grad", "c", "x", "val", "best", "point",
                 "terms", "z", "placed")

    def __init__(self, A, e, const, phi, theta, lo, hi, span, near, zeta, off):
        self.K = len(A)
        self.A, self.e, self.const, self.phi, self.theta = A, e, const, phi, theta
        self.quad = theta < 0.0
        self.lin = None if self.quad.all() else ~self.quad
        self.curv = np.where(self.quad, -2.0 * theta, 1.0)
        self.lo, self.hi, self.span, self.near = lo, hi, span, near
        self.scaled = span < _INF
        self.kappa, self.zeta, self.off = 1.0 / span, zeta, off
        self.index = np.arange(A.shape[1])
        self.placed = None

    def value(self, y: np.ndarray):
        """The dual value and subgradient at ``y``, kept on the dual with
        the prices they come from.

        These are the scalar reference's results summed in activity order,
        bit for bit: each elementwise operation is the reference's, in its
        order; ``np.argmax`` takes the first of equal values, as the
        reference's strict comparisons in the order stay, decrease, raise
        do; and the sums are one sequential ``np.cumsum`` seeded with the
        constant terms.  The activation sum adds the chosen activation
        only, as the reference does.
        """
        K, e, at = self.K, self.e.tolist(), y.tolist()
        mu = at[K]
        f = self.const + mu * e[K]
        for k in range(K):
            f += at[k] * e[k]
        c = _prices(self.phi, self.A, at) - mu / self.span
        x = _box_max(c, self.curv, self.lin, self.lo, self.hi)
        val = self.theta * x * x + c * x - self.zeta * mu - self.off
        best = np.argmax(val.T, axis=1)
        if mu > 0.0:
            z = np.where(self.scaled, x / self.span, self.zeta)
        else:
            z = np.where(self.near < _INF, np.minimum(x / self.near, 1.0),
                         self.zeta + self.scaled)
        pick = best, self.index
        # rows: each coupling row's use, the activations, the values
        acc = np.zeros((K + 2, best.size + 1))
        acc[K + 1, 0] = f
        point, acc[K, 1:], acc[K + 1, 1:] = x[pick], z[pick], val[pick]
        np.multiply(self.A, point, out=acc[:K, 1:])
        sums = np.cumsum(acc, axis=1)[:, -1]
        self.at, self.c, self.x, self.val, self.best = y, c, x, val, best
        self.point, self.z, self.terms = point, acc[K, 1:], acc[K + 1, 1:]
        self.f, self.grad = float(sums[K + 1]), self.e - sums[:K + 1]
        return self.f, self.grad

    def newton(self, kept: np.ndarray):
        """Newton step at ``at``, from the prices ``value`` kept there.

        ``kept`` holds, per activity, the bits (1 << option) of the two
        options it was left tied between by the previous step, or 0; such a
        tie stays in the system, with its residual, until the system
        releases it.  Returns the direction, the slack of the relaxation
        point it recovers, the ties to keep for the next step, and the
        prices the step's line search (``search``) starts from.
        """
        K, A, quad, curv = self.K, self.A, self.quad, self.curv
        y, c, x, val = self.at, self.c, self.x, self.val
        best, idx = self.best, self.index
        mu, n = y[K], A.shape[1]
        lo, hi, lin = self.lo, self.hi, ~quad
        vb, xb, cb = self.terms, self.point.copy(), c[best, idx]
        kb, zb = self.kappa[best, idx], self.zeta[best, idx]
        # ties: a linear activity priced to zero inside its box, or two
        # options of level value that use the rows differently
        tie_rate = 1e-12 * np.vstack((np.abs(A), np.abs(self.kappa).max(axis=0)))
        kink = lin & (lo[best, idx] < hi[best, idx]) & (
            np.abs(cb) <= 1e-12 * (1.0 + np.abs(self.phi)) + y @ tie_rate)
        ki = np.flatnonzero(kink)
        li = pair = np.zeros(0, dtype=np.int64)
        dx = dz = gap = np.zeros(0)
        if len(val) > 1:  # one option per activity ties no two
            others = val.copy()
            others[best, idx] = -_INF
            # a kept tie pairs the best option with its partner, others the two best
            partner = kept & ~(1 << best)
            remembered = (partner != kept) & (partner > 0)
            second = np.where(remembered, partner >> 1 & 1 | (partner >> 2) * 2,
                              np.argmax(others, axis=0))
            x2, v2 = x[second, idx], others[second, idx]
            dx = x2 - xb
            dz = self.kappa[second, idx] * x2 + self.zeta[second, idx] - kb * xb - zb
            level = remembered | (vb - v2 <= 1e-10 * (
                1.0 + np.abs(self.theta * xb * xb) + np.abs(cb * xb) + zb * mu))
            level &= ~kink & (v2 > -_INF) & ((dx != 0.0) | (dz != 0.0))
            li = np.flatnonzero(level)
            dx, dz, gap = dx[li], dz[li], vb[li] - v2[li]
            pair = (1 << best[li]) | (1 << second[li])
        held = np.where(kink, 0.0, xb)
        r = self.e - np.append(A @ held, kb @ held + zb.sum())
        T = np.hstack((np.vstack((A[:, ki], kb[ki])), np.vstack((A[:, li] * dx, dz))))
        tlo = np.concatenate((lo[best[ki], ki], np.zeros(li.size)))
        thi = np.concatenate((hi[best[ki], ki], np.ones(li.size)))
        tgap = np.concatenate((-cb[ki], gap))
        w0 = np.concatenate((xb[ki], np.zeros(li.size)))
        free = quad & (xb > lo[best, idx]) & (xb < hi[best, idx])
        cf = np.vstack((A[:, free], kb[free]))
        d, w, slack = _newton_step((cf / curv[free]) @ cf.T, r, T, tlo, thi, tgap, w0,
                                   y, (y > 0.0) | (r - T @ w0 < 0.0))
        xb[ki] = w[:ki.size]
        self.placed = xb
        w = w[ki.size:]
        inner = (w > 0.0) & (w < 1.0)
        kept = np.zeros(n, dtype=np.int64)
        kept[li[inner]] = pair[inner]
        if ki.size:
            c = c.copy()
            c[best[ki], ki] = 0.0  # the step drives a kink tie off its kink
        return d, slack, kept, c

    def search(self, y: np.ndarray, d: np.ndarray, c: np.ndarray, t_max: float):
        """``_exact_step`` from ``y`` along ``d``, with the prices ``c`` that
        ``newton`` returned with ``d``."""
        K, mu = self.K, y[self.K]
        s = d[:K] @ self.A + self.kappa * d[K]
        return _exact_step(self.quad, self.curv, c, s, self.lo, self.hi,
                           float(self.e @ d), t_max, self.zeta * mu + self.off,
                           self.zeta * d[K])

    def falls_along(self, d: np.ndarray) -> bool:
        """Whether the dual falls without bound along the ray ``d``."""
        K = self.K
        s = d[:K] @ self.A + self.kappa * d[K]
        return _falls_without_bound(float(self.e @ d), s, self.lo, self.hi,
                                    self.zeta * d[K] + self.off)


def _node_dual(inst: Instance, node: NodeState, persp: bool) -> _Dual:
    """A node's dual with three options per activity.

    Rows 0, 1 and 2 are staying (``x = 0``), the decrease side and the
    raise side, open as the node's bits say; the last row is the
    cardinality cap.  A persp side and a fixed miqp side are the region's
    box at activation one (``zeta = 1``); a free miqp side is the box from
    zero to the region's far end (``span``), at the smallest activation
    that holds ``x`` (``zeta = 0``).  An open stay costs -0.0: its value,
    whose ``0*x`` terms can read -0.0, then reads 0.0, as the reference's.
    """
    cols = _instance_arrays(inst)
    bits = node.bits
    on = np.array([(bits & 2) != 0, (bits & 4) != 0]) & cols.has
    lo, hi = np.zeros((3, inst.n)), np.zeros((3, inst.n))
    lo[1:], hi[1:] = cols.lo, cols.hi
    span, near = np.full((2, 3, inst.n), _INF)
    zeta = np.ones((3, inst.n))
    zeta[0] = 0.0
    if not persp:
        free = node.free
        scaled = on & free & np.array([cols.lo[0] < 0.0, cols.hi[1] > 0.0])
        on = (on & ~free) | scaled
        np.copyto(hi[1], 0.0, where=scaled[0])
        np.copyto(lo[2], 0.0, where=scaled[1])
        np.copyto(span[1:], cols.outer, where=scaled)
        np.copyto(near[1:], cols.inner, where=scaled & cols.inner_ok)
        np.copyto(zeta[1:], 0.0, where=scaled)
    off = np.full((3, inst.n), _INF)
    np.copyto(off[0], -0.0, where=(bits & 1) != 0)
    np.copyto(off[1:], 0.0, where=on)
    return _Dual(cols.A, np.append(cols.b, float(cols.m)), cols.psi_sum, cols.phi,
                 cols.theta, lo, hi, span, near, zeta, off)


def _descend(dual: _Dual, y: np.ndarray, goal: float):
    """Projected semismooth Newton method on ``dual`` from ``y``.

    The dual's last ``value`` call was at ``y``.  Each step solves the
    Newton system of ``_Dual.newton`` and moves by an exact line search
    along it, or by the unit step where the search finds no slope beyond
    rounding; a step that raises the value by more than rounding is not
    taken.  The first step that admits the full length tries it before its
    search (warm-started at a parent's multipliers, the Newton step often
    lands on the child's minimum): if the value there rises by no more than
    rounding and the inner solution passes the KKT test, the method ends
    there; otherwise it searches, and tries no full step again.  Returns
    the multipliers, the dual value there, and how the method ended:
    ``"converged"`` when the KKT residual of the inner solution, or of the
    point the Newton step recovers, is down to ``1e-12*(1 + max|e|)``;
    ``"target"`` once a step, the kept full step included, takes the value
    to or below ``goal`` (a node is then pruned, and a leaf cut, whatever
    follows); ``"ray"`` when the dual falls without bound, with the value
    -inf (no point meets the rows); ``"stalled"`` when a step gains nothing
    or the iteration cap is reached.  On a ray the multipliers returned are
    the certificate, a direction ``d >= 0`` with ``dual.falls_along(d)``:
    the Newton direction the line search runs off along, or the last
    iterate.  A ``"converged"`` ending leaves ``dual.placed`` None where the
    inner solution passed the test, and the Newton step's point where that
    passed it.
    """
    val, grad = dual.f, dual.grad
    tol = 1e-12 * (1.0 + float(np.abs(dual.e).max()))
    kept = np.zeros(dual.A.shape[1], dtype=np.int64)
    tried = False
    for it in range(_NEWTON_MAX_ITERS + 1):
        dual.placed = None
        if _kkt_residual(y, grad) <= tol:
            return y, val, "converged"
        d, slack, kept, c = dual.newton(kept)
        if _kkt_residual(y, slack) <= tol:
            return y, val, "converged"
        if it == _NEWTON_MAX_ITERS or not d.any():
            break
        ratio = np.full(y.size, _INF)
        shrink = d < 0.0
        ratio[shrink] = y[shrink] / -d[shrink]
        t_max = float(ratio.min())
        if t_max >= 1.0 and not tried:  # the full step, kept on its certificate
            tried = True
            nxt = np.maximum(y + d, 0.0)
            nxt[ratio == 1.0] = 0.0
            nval, ngrad = dual.value(nxt)
            if (nval <= val + 1e-13 * max(1.0, abs(val))
                    and _kkt_residual(nxt, ngrad) <= tol):
                dual.placed = None  # the point is the inner solution at ``nxt``
                return nxt, nval, "target" if nval <= goal else "converged"
        t = dual.search(y, d, c, t_max)
        if t is None:  # no d < 0, as t_max is infinite
            return d, -_INF, "ray"
        if t == 0.0:  # a flat start to rounding: try the unit step
            t = min(1.0, t_max)
        nxt = np.maximum(y + t * d, 0.0)
        nxt[ratio == t] = 0.0  # t <= t_max: the multipliers the step takes to zero
        nval, ngrad = dual.value(nxt)
        if nval > val + 1e-13 * max(1.0, abs(val)):  # more than rounding
            break
        y, val, grad = nxt, nval, ngrad
        if val <= goal:
            return y, val, "target"
    if dual.falls_along(y):  # the iterates ran off along a ray
        return y, -_INF, "ray"
    return y, val, "stalled"


def dual_value(inst: Instance, node: NodeState, form: Formulation,
               multipliers: Sequence[float]) -> float:
    """Dual bound at an explicit multiplier vector (budget, extras..., card)."""
    dual = _node_dual(inst, node, form == PERSPECTIVE)
    return dual.value(np.array(multipliers, dtype=float))[0]


def solve_node_relaxation(inst: Instance, node: NodeState, form: Formulation,
                          *, warm: Optional[Sequence[float]] = None,
                          target: Optional[float] = None,
                          rays: Sequence[Sequence[float]] = ()) -> RelaxResult:
    """Upper-bound a node by pricing the coupling rows.

    The node dual is minimised by the projected semismooth Newton method of
    ``_descend`` from the warm start (or zero).  ``converged`` is True when
    the method ends on a certificate: the KKT residual of the relaxation
    point it recovers, or a ray along which the dual falls without bound,
    in which case ``upper_bound`` is -inf (the node's hull relaxation has no
    point) and ``ray`` and ``multipliers`` hold that ray.  With a finite
    ``target`` (use the incumbent's prune threshold) the method stops once
    the dual value is at or below it, possibly at the warm start: the node
    is then pruned whatever follows, and ``converged`` is False.  The bound
    is the dual value at the returned multipliers, so it is valid whatever
    the ending.  The primal point is the inner solution there and may
    violate the coupling rows; it is meant for branching scores and
    incumbent rounding only.  It is read from the last pricing, which is at
    those multipliers except after a ray or a rejected step; then the dual
    is priced there once more.

    ``rays`` are Farkas rays found on other nodes (``RelaxResult.ray``) or
    leaves (``FixedOutcome.ray``, whose cardinality entry is 0) of the same
    instance, or a coupling row's unit ray, along which the dual falls when
    the node's open regions miss that row, activity by activity, by more
    than rounding.  Unless the warm start already reaches the target, each
    is tested on this node's dual by ``_Dual.falls_along`` before the
    descent, the test the descent ends on; the first along which the dual
    falls without bound proves the node infeasible as well, and is
    returned as its ray without a descent.

    Starting from a parent node's multipliers (``warm``) guarantees the
    child bound never exceeds the parent bound: shrinking the region sets
    lowers the dual pointwise, and every step descends.
    """
    goal = target if target is not None and math.isfinite(target) else -_INF
    dual = _node_dual(inst, node, form == PERSPECTIVE)
    y = np.zeros(dual.K + 1)
    if warm is not None and len(warm) == y.size:
        y = np.maximum(np.array(warm, dtype=float), 0.0)
    val = dual.value(y)[0]
    if val <= goal:
        end = "target"
    else:
        hit = next((r for r in map(np.array, rays) if dual.falls_along(r)), None)
        if hit is not None:
            y, val, end = hit, -_INF, "ray"
        else:
            y, val, end = _descend(dual, y, goal)
    if not np.array_equal(dual.at, y):  # a ray or a rejected step ended the descent
        dual.value(y)
    mult = tuple(y.tolist())
    best, z = dual.best, dual.z
    return RelaxResult(upper_bound=val, x=tuple(dual.point.tolist()),
                       z_L=tuple(np.where(best == 1, z, 0.0).tolist()),
                       z_R=tuple(np.where(best == 2, z, 0.0).tolist()),
                       multipliers=mult, converged=end in ("converged", "ray"),
                       values=tuple(dual.terms.tolist()),
                       ray=mult if end == "ray" else None)


# ---------------------------------------------------------------------------
# Lagrangian reduced-cost fixing (Fisher, 1981; Beasley, 1993)


def _child_bounds(inst: Instance, res: RelaxResult) -> np.ndarray:
    """The bound of every child "activity i in region r" of the node that
    ``res`` bounds, at the node's multipliers, as a ``(3, n)`` array with
    rows stay, decrease side and raise side (the bit order of a node's
    ``bits``); entries of regions the node does not hold mean
    nothing.

    The node dual is separable, so fixing ``i`` to ``r`` replaces only its
    term ``v_i`` of the dual value ``D``: the child's dual at the same
    multipliers is ``D - v_i + w_ir``, with ``w_iS = 0`` and a side's
    ``w_ir`` its value at activation one over its region box.  A fixed side
    is priced that way in both formulations (``_node_dual``), so the bound
    holds for both and agrees with ``dual_value`` on the child to rounding.
    """
    cols = _instance_arrays(inst)
    mult = res.multipliers
    pe = _prices(cols.phi, cols.A, mult)
    quad = cols.theta < 0.0
    x = _box_max(pe, np.where(quad, -2.0 * cols.theta, 1.0),
                 None if quad.all() else ~quad, cols.lo, cols.hi)
    w = cols.theta * x * x + pe * x - mult[len(cols.A)]
    base = res.upper_bound - np.array(res.values)
    return np.vstack((base, base + w))


def fix_by_reduced_cost(inst: Instance, node: NodeState, res: RelaxResult,
                        threshold: float) -> Optional[NodeState]:
    """Drop every open region of a free activity whose child bound
    (``_child_bounds``) is at or below ``threshold``.

    Use the incumbent's prune threshold: a dropped region holds no
    assignment above it, exactly as a pruned node does.  Returns ``node``
    itself when nothing is dropped (always when ``threshold`` is -inf), or
    None when an activity has no region left, so the node holds nothing
    above the threshold.
    """
    if threshold == -_INF:
        return node
    bits = node.bits
    above = _child_bounds(inst, res) > threshold
    keep = above[0] | (above[1] << 1) | (above[2] << 2)
    left = np.where(node.free, bits & keep, bits)
    if (left == bits).all():
        return node
    if not left.all():
        return None
    return NodeState(left.astype(np.int8))


def root_bounds(inst: Instance) -> Tuple[float, float]:
    """Root bounds for both formulations.

    Each bound is additionally evaluated at the other formulation's
    multipliers; pointwise the activation-scaled subproblem never exceeds
    the hull subproblem, so the returned pair always satisfies
    ``persp <= miqp``.
    """
    node = NodeState.root(inst)
    res_m = solve_node_relaxation(inst, node, MIQP)
    res_p = solve_node_relaxation(inst, node, PERSPECTIVE)
    cross_m = dual_value(inst, node, MIQP, res_p.multipliers)
    cross_p = dual_value(inst, node, PERSPECTIVE, res_m.multipliers)
    return min(res_m.upper_bound, cross_m), min(res_p.upper_bound, cross_p)


# ---------------------------------------------------------------------------
# Exact continuous solve for a fixed region assignment.  It closes the leaves
# of the search tree and re-optimizes rounded incumbents.
#
# The leaf is max sum theta_i x_i^2 + phi_i x_i over boxes lo <= x <= hi and
# rows A x <= b: the Newton machinery above with one option per activity.


@dataclass
class FixedOutcome:
    x: Optional[Tuple[float, ...]]
    value: float
    bound: float
    feasible: bool
    # the leaf dual's Farkas ray that proves no point meets the rows, else None
    ray: Optional[Tuple[float, ...]] = None


def _box_qp_max(theta, phi, lo, hi, A, b, goal=-_INF, multipliers=None, rays=()):
    """Maximize ``sum theta*x^2 + phi*x`` over ``lo <= x <= hi``, ``A x <= b``.

    ``theta <= 0`` elementwise; arrays are numpy, ``A`` has one row per
    coupling row, and none of them is written to.  The dual is ``_Dual``
    with one option per activity and an empty activation row, minimised by
    ``_descend`` from zero.  Returns a ``FixedOutcome`` in the leaf's own
    value.  ``bound`` is the dual value at the final multipliers, a valid
    upper bound whatever happened; when the KKT residual of ``x`` falls to
    ``1e-12*(1 + max|b|)`` the two agree to that order.  If the method
    stalls first, ``x`` is returned as it stands when it meets every row
    within ``1e-9*(1 + |b|)``; otherwise ``x`` is None and ``value`` -inf,
    and ``bound`` still holds.

    The tests run in this order, each ending the solve:
    - the floor: the dual value at ``multipliers`` (one per row of ``A``),
      then at zero, is at or below ``goal``, so by weak duality the leaf
      cannot beat ``goal``;
    - the pooled ``rays`` (Farkas rays found on other duals over the same
      rows, each with one entry per row and one for the activation row):
      the first along which this dual falls without bound
      (``_Dual.falls_along``) proves that no point meets the rows; it
      falls along a row's unit ray when the boxes miss that row by more
      than rounding;
    - the descent, which ends on a ray as well, or at ``goal``
      (``"target"``).
    A solve cut at ``goal`` returns no point, with the dual value it ended
    at as its bound, and stays ``feasible``.  An infeasible one has bound
    -inf and carries its ray.  A solve that is not cut follows the
    iterates of the unfloored one bit for bit.
    """
    K, n = A.shape
    zero, far = np.zeros((1, n)), np.full((1, n), _INF)
    dual = _Dual(A, np.append(b, 0.0), 0.0, phi, theta, lo[None], hi[None], far, far,
                 zero, zero)
    if multipliers is not None and goal > -_INF:
        at = dual.value(np.append(multipliers, 0.0))[0]
        if at <= goal:
            return FixedOutcome(None, -_INF, at, True)
    y = np.zeros(K + 1)
    start = dual.value(y)[0]
    if start <= goal:
        return FixedOutcome(None, -_INF, start, True)
    hit = next((r for r in rays if dual.falls_along(np.array(r))), None)
    if hit is not None:
        return FixedOutcome(None, -_INF, -_INF, False, tuple(hit))
    y, bound, end = _descend(dual, y, goal)
    if end == "ray":
        return FixedOutcome(None, -_INF, -_INF, False, tuple(y.tolist()))
    if end == "target":
        return FixedOutcome(None, -_INF, bound, True)
    x = dual.placed if dual.placed is not None else dual.point
    if end == "stalled" and (A @ x > b + 1e-9 * (1.0 + np.abs(b))).any():
        return FixedOutcome(None, -_INF, bound, True)
    return FixedOutcome(tuple(x.tolist()), float(theta @ (x * x) + phi @ x), bound, True)


# the side of ``_InstanceArrays.lo`` and ``hi`` each region reads; 2 stays
_SIDE = {"L": 0, "R": 1, "S": 2}


def solve_fixed_assignment(inst: Instance, assignment: Sequence[Region], *,
                           floor: float = -_INF,
                           multipliers: Optional[Sequence[float]] = None,
                           rays: Sequence[Tuple[float, ...]] = ()) -> FixedOutcome:
    """Best change vector for a fully decided region assignment.

    The continuous layer is a separable concave QP over the regions' boxes
    (read from ``_InstanceArrays``) under the budget row and any extra
    rows, solved exactly by ``_box_qp_max``.  ``value`` is attained by the
    returned point; ``bound`` is the dual value at the final multipliers, a
    certified upper bound for the assignment that meets ``value`` once the
    KKT residual is down to rounding.  A solve that stalls off the rows
    gives no point (``x`` None, ``value`` -inf) but stays ``feasible`` with
    its bound: no ray proved the boxes miss the rows.  A region the
    activity does not have, or a ray, makes the outcome infeasible; ``ray``
    holds the leaf dual's ray, for ``rays`` of later calls on the instance.

    ``floor`` is the value to beat (the incumbent's), and ``multipliers`` a
    node's ``RelaxResult.multipliers``, whose row entries (all but the last,
    cardinality, one) price the leaf's rows.  The solve stops once the leaf
    provably cannot beat the floor by more than rounding: when its dual
    value, at those multipliers, at zero or along the descent, falls to
    ``floor - 1e-9*max(1, |floor|)`` (as ``bnb._prune_threshold`` allows
    for nodes).  Such a cut outcome has no point and a bound at or below
    that level, and stays ``feasible``; the floor only rises in a search,
    so it stays below every later floor.  ``rays`` are Farkas rays found
    on other leaves (``FixedOutcome.ray``) or nodes (``RelaxResult.ray``)
    of the instance, or a coupling row's unit ray (1 for the row, 0 for
    the others and the cardinality), which closes a leaf whose boxes miss
    that row; they are tested after the floor and before the descent, and
    a node's cardinality entry prices the leaf's empty row.  The defaults
    solve every leaf in full.
    """
    cols = _instance_arrays(inst)
    code = np.fromiter(map(_SIDE.__getitem__, assignment), np.intp, inst.n)
    moves = code < 2
    side = np.where(moves, code, 0)
    if (moves & ~cols.has[side, cols.index]).any():
        return FixedOutcome(None, -_INF, -_INF, False)
    lo = np.where(moves, cols.lo[side, cols.index], 0.0)
    hi = np.where(moves, cols.hi[side, cols.index], 0.0)
    # the cut level in the leaf's own value, which leaves out psi_sum
    goal = floor - 1e-9 * max(1.0, abs(floor)) - inst.psi_sum
    out = _box_qp_max(cols.theta, cols.phi, lo, hi, cols.A, cols.b, goal,
                      None if multipliers is None else multipliers[:-1], rays)
    return FixedOutcome(out.x, out.value + inst.psi_sum, out.bound + inst.psi_sum,
                        out.feasible, out.ray)
