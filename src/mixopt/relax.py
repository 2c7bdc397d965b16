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
option, and the dual value, the Newton step and the arrays a relaxation
hands the search all read them: each step prices the dual once.  Only a
descent that a ray or a rejected step ends away from its last pricing
prices once more.

Every array of a dual that does not depend on the node's bits is built
once per instance and shared read-only (``_InstanceArrays.node`` and
``leaf``): the options' boxes, activations and activation rates, the
right-hand sides, which activities are linear, and the tie tolerances.  A
persp node builds only its options' costs, a miqp node copies the boxes
that its free sides change, and a leaf sets its boxes.

Work sized by the multipliers or the ties runs on Python floats: the
Newton step's system, ties and active-set passes, the KKT test and the
step to the next iterate.  Work over the activities, the linear solve and
every matrix product stay in numpy, as a product's last bit hangs on how
BLAS sums it (with OpenBLAS on x86_64, a (K+1) x 3 product and a sum in
order differ in about a quarter of draws; elementwise operations agree).

The line search (``_exact_step``) probes the directional derivative with
each activity at its least-use option among those level with its best: a
masked minimum over the options where only the sign matters, a strict
``<`` over them in order (the first of equal uses) where the rate does.
The search tree hangs on the last bit of each step, so its candidate points
and its closed form stay fixed; the probe order only finds the piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Sequence, Tuple

import numpy as np

from .instance import _CODE_OF, Instance, Region, _region_codes

Formulation = Literal["miqp", "persp"]

MIQP: Formulation = "miqp"
PERSPECTIVE: Formulation = "persp"

_INF = math.inf


def _persp(form: str) -> bool:
    """Whether ``form`` is persp; a name other than miqp and persp is a ``ValueError``."""
    if form not in (MIQP, PERSPECTIVE):
        raise ValueError(f"unknown formulation {form!r}, not {MIQP!r} or {PERSPECTIVE!r}")
    return form == PERSPECTIVE


@dataclass(frozen=True, eq=False)
class NodeState:
    """Per-activity region availability at a branch-and-bound node.

    ``bits[i]`` holds the regions activity ``i`` may still take, one bit
    each, ``1 << code`` for region code ``code`` (``instance._CODE_OF``:
    S 0, L 1, R 2, so bits 1, 2, 4): every open region at the root, one
    bit once fixed.  S disappears only by fixing L or R.  The int8
    array is read-only: ``fix`` and ``saturate_cardinality`` return a new
    node and leave this one as it was.
    """

    bits: np.ndarray

    def __post_init__(self):
        self.bits.flags.writeable = False

    @classmethod
    def root(cls, inst: Instance) -> "NodeState":
        has = _instance_arrays(inst).has & (inst.m > 0)
        return cls((1 | has[0] << 1 | has[1] << 2).astype(np.int8))

    def fix(self, i: int, region: Region) -> "NodeState":
        bit = 1 << _CODE_OF[region]
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


@dataclass(frozen=True, eq=False)
class RelaxResult:
    upper_bound: float
    multipliers: Tuple[float, ...]  # (budget, extras..., cardinality)
    converged: bool
    # read-only, per activity, from the last pricing: its term in the bound,
    # its chosen option (the region's code, 0 stay, 1 decrease, 2 raise:
    # ``1 << best`` is its bit) and that option's activation (0 when it stays)
    values: np.ndarray
    best: np.ndarray
    z: np.ndarray
    # the Farkas ray that proves the bound -inf, else None
    ray: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        for column in (self.values, self.best, self.z):
            column.flags.writeable = False


# ---------------------------------------------------------------------------
# The numpy dual kernel


class _InstanceArrays:
    """The kernel's columns that do not depend on the node, beyond the
    instance's own (``Instance.columns``, ``claims`` and ``coupling``).

    The side arrays stack the decrease side as row 0 and the raise side as
    row 1: ``has`` where the region exists, ``outer`` its end away from
    zero and ``inner`` the end next to it (an absent region's read 0.0),
    and ``scalable`` and ``inner_ok`` where those ends are off zero.
    ``node`` is the persp node dual without its options' costs
    (``_node_dual``): its boxes, activations and activation rates,
    right-hand sides, linear activities and tie tolerances, which every
    persp node takes as they are and from which a miqp node copies the
    boxes it changes.  ``leaf`` is the leaf dual (``_leaf_dual``), whose
    boxes each leaf sets from the claims.  Every node and leaf of a search
    shares all of these, so the arrays are read-only.
    """

    __slots__ = ("has", "outer", "inner", "inner_ok", "scalable", "node", "leaf")

    def __init__(self, inst: Instance):
        n, (A, b), col = inst.n, inst.coupling, inst.columns
        box = inst.claims[:2, n:3 * n].reshape(2, 2, n)  # lo, hi of sides L, R
        self.has = ~np.isnan(box[0])
        side = np.where(np.isnan(box), 0.0, box)
        (lL, lR), (uL, uR) = side
        self.outer, self.inner = np.array([lL, uR]), np.array([uL, lR])
        self.inner_ok = np.array([uL < 0.0, lR > 0.0])
        self.scalable = np.array([lL < 0.0, uR > 0.0])
        # rows stay, decrease and raise; no box scales with its activation
        lo, hi = np.concatenate((np.zeros((2, 1, n)), side), axis=1)
        far = np.full((3, n), _INF)
        zeta = np.ones((3, n))
        zeta[0] = 0.0
        self.node = _Dual(A, np.append(b, float(inst.m)), inst.psi_sum,
                          col["phi"], col["theta"], lo, hi, far, far, zeta, None)
        self.leaf = _leaf_dual(A, b, col["phi"], col["theta"])
        for value in ([getattr(self, name) for name in self.__slots__]
                      + [getattr(dual, name) for dual in (self.node, self.leaf)
                         for name in _Dual._SHARED]):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _instance_arrays(inst: Instance) -> _InstanceArrays:
    """Built on first use and kept in the instance's ``__dict__``, as
    ``functools.cached_property`` keeps ``Instance.claims``; an instance
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
    multiplier is positive and be nonnegative where it is zero.  A NaN
    slack makes it NaN, which passes no test."""
    res = [abs(g) if y > 0.0 else max(-g, 0.0) for y, g in zip(lam, r)]
    return math.nan if any(map(math.isnan, res)) else max(res)


def _minus(r, v):
    """``r - v`` for a list ``r`` and an array ``v``, as a list."""
    return [a - b for a, b in zip(r, v.tolist())]


def _newton_step(M, r, lam, work, ties=None):
    """Newton direction on the dual and the primal point it aims at.

    ``M`` is the dual's generalized Hessian: every quadratic activity
    strictly inside its box responds to the multipliers with slope
    ``1/curv``.  ``r`` is the row slack of the point without its ties.  A
    tie is an activity whose price sits on a kink of the dual: a linear
    activity priced to zero, or two options of equal value.  ``ties`` is
    None where there is none, else ``(T, tlo, thi, tgap, w0)``: tie ``j``
    has a weight ``w``, in ``[tlo, thi]``, an unknown that adds ``w`` times
    its column of ``T`` to the row usage, and the step must keep the tie
    (``-T_j.d = tgap_j``, the tie's residual):

        [ M_WW + ridge   -T_W ] [d]   [-r_W ]
        [ -T_W'            0  ] [w] = [ tgap]

    The ridge is 1e-12 of the trace of ``M_WW`` (1e-12 where that is zero).
    Without live ties the system is ``M_WW + ridge`` alone; the matrix is
    bordered once, and each pass slices it.

    ``work`` marks the working rows (a positive multiplier, or violated)
    and is updated in place.  An active-set loop settles the system: a tie
    whose weight leaves its bounds is released at the bound it crossed;
    then, with every weight in bounds, a working row at a zero multiplier
    that the step would push negative leaves, a row that the placed ties
    violate joins (unless it left before), and a released tie that the step
    would carry back across its kink is held again.  Each change solves the
    system again.  (A row judged by a step whose weights are out of bounds
    can leave when only the tie blocks it, and the step then vanishes.)
    ``M`` and ``T`` are arrays and the rest lists.  Returns, as lists, the
    step ``d`` (zero off the working rows), the weights (``w0`` where no row
    works) and the slack of the point with the ties placed.
    """
    T, tlo, thi, tgap, w = ties or (None, (), (), (), ())
    rows_n, w = len(r), list(w)
    live, left, big = [True] * len(w), [False] * rows_n, M.tolist()
    if w:  # border the rows' block with the ties' columns
        neg = (-T).tolist()
        big = ([row + neg[i] for i, row in enumerate(big)]
               + [list(col) + [0.0] * len(w) for col in zip(*neg)])
    for _ in range(4 * (rows_n + len(w)) + 4):
        d = [0.0] * rows_n
        rows = [i for i in range(rows_n) if work[i]]
        if not rows:
            break
        ties = [j for j in range(len(w)) if live[j]]
        k, at = len(rows), rows + [rows_n + j for j in ties]
        m = [[big[i][j] for j in at] for i in at]
        trace = float(np.add.reduce([big[i][i] for i in at]))  # as np.trace sums
        for i in range(k):
            m[i][i] += 1e-12 * (trace if trace > 0.0 else 1.0)
        rhs = [-r[i] for i in rows] + [tgap[j] for j in ties]
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(m, rhs, rcond=None)[0]
        step, y = sol[:k].tolist(), sol[k:]
        gone = {j: tlo[j] if v < tlo[j] else thi[j]  # the bound each weight crossed
                for j, v in zip(ties, y.tolist()) if v < tlo[j] or v > thi[j]}
        if gone:
            for j in gone:
                w[j], live[j] = gone[j], False
            r = _minus(r, T[:, list(gone)] @ np.array(list(gone.values())))
            continue
        drop = [i for i, v in zip(rows, step) if lam[i] == 0.0 and v < 0.0]
        if drop:
            for i in drop:
                work[i], left[i] = False, True
            continue
        for i, v in zip(rows, step):
            d[i] = v
        for j, v in zip(ties, y.tolist()):
            w[j] = v
        placed = _minus(r, T[:, ties] @ y) if ties else r
        join = [i for i in range(rows_n) if not (work[i] or left[i]) and placed[i] < 0.0]
        if join:
            for i in join:
                work[i] = True
            continue
        if not w:
            break
        # where each tie's partner ends up against it
        lean = [-g - v for g, v in zip(tgap, (np.array(d) @ T).tolist())]
        back = [j for j in range(len(w)) if not live[j] and (
            (w[j] == tlo[j] and lean[j] > 0.0) or (w[j] == thi[j] and lean[j] < 0.0))]
        if not back:
            break
        r = [a + b for a, b in zip(r, (T[:, back] @ np.array([w[j] for j in back])).tolist())]
        for j in back:
            live[j] = True
    held = [j for j in range(len(w)) if live[j]]
    return d, w, _minus(r, T[:, held] @ np.array([w[j] for j in held])) if held else r


# the option pairs whose values a line search crosses: (0, 1), (0, 2), (1, 2)
_PAIRS = np.array([[0, 0, 1], [1, 2, 2]])


def _exact_step(dual, y, d, c, t_max):
    """Step length in ``[0, t_max]`` that is best for ``dual`` from ``y`` along
    ``d``, with the prices ``c`` that ``_Dual.newton`` returned with ``d``.

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
    boxes meets the rows (``dual.falls_along(d)``).

    A probe for the slope alone takes each activity's least row use among
    its options level with the best (a masked minimum); one for the rate
    too picks that option, the first of equal uses, by a strict ``<`` over
    the options in order.  The slope changes sign once over the sorted
    points: the bits hang on the point sets and the closed form, not on the
    probe order.
    """
    K, quad, curv, lo, hi, lin = dual.K, dual.quad, dual.curv, dual.lo, dual.hi, dual.lin
    s = d[:K] @ dual.A + dual.kappa * d[K]
    db, off, act = float(dual.e @ d), dual.zeta * y[K] + dual.off, dual.zeta * d[K]
    (P, n), theta, slide = c.shape, dual.theta_q, s * s / curv
    with np.errstate(divide="ignore", invalid="ignore"):
        bend = quad & (off < _INF)
        cuts = [np.where(bend, (c - curv * end) / s, _INF) for end in (lo, hi)]
        if lin is not None:
            kink = np.where(lin & (c * s > 0.0), c / s, _INF)
            v0 = np.where((c > 0.0) | ((c == 0.0) & (s < 0.0)), hi, lo)
            v1 = np.where(c > 0.0, lo, hi)
            cuts.append(kink)
    if P > 1:  # rounding in the options' values, from their terms at t = 0
        x = np.minimum(np.maximum(c / curv, lo), hi)
        level_tol = 1e-12 * (1.0 + np.abs(theta * x * x) + np.abs(c * x)
                             + np.where(off < _INF, np.abs(off), 0.0)).max(axis=0)
    ct, x, use, val = (np.empty((P, n)) for _ in range(4))

    def place(t):
        """Each option's point just after ``t``, into ``x``."""
        np.subtract(c, np.multiply(s, t, out=ct), out=ct)
        np.minimum(np.maximum(np.divide(ct, curv, out=x), lo, out=x), hi, out=x)
        if lin is not None:
            np.copyto(x, np.where(t < kink, v0, v1), where=lin)

    def state(t, full=False):
        """Slope just after ``t``, with ``full`` also its rate: each activity
        takes the least-use option of those level with its best."""
        place(t)
        chosen = np.add(np.multiply(s, x, out=use), act, out=use)
        rate = np.where(quad & (x > lo) & (x < hi), slide, 0.0) if full else None
        if P > 1:
            np.multiply(np.add(np.multiply(theta, x, out=val), ct, out=val), x, out=val)
            np.subtract(val, off + t * act, out=val)
            masked = np.where(val >= val.max(axis=0) - level_tol, use, _INF)
            if not full:
                return db - float(masked.min(axis=0).sum())
            best, chosen = np.zeros(n, dtype=np.intp), masked[0]
            for p in range(1, P):
                better = masked[p] < chosen
                best[better], chosen[better] = p, masked[p][better]
            rate = rate.take(best * n + dual.index)
        slope = db - float(chosen.sum())
        return (slope, float(rate.sum())) if full else slope

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
                k = min(max(int(points.searchsorted(guess)), i + 1), j - 1)
            f = state(points[k])
            above = f >= 0.0
            if above:
                j, t_hi, f_hi = k, points[k], f
            else:
                i, t_lo, f_lo = k, points[k], f
            chord = (guess is None or above != side) and f_hi < _INF
            guess = t_lo - f_lo * (t_hi - t_lo) / (f_hi - f_lo) if chord else None
            side = above
        return t_lo, f_lo, t_hi, f_hi

    f0 = state(0.0)
    if f0 >= 0.0:
        return 0.0
    left, f_left, right, f_right = bracket(np.concatenate(cuts).ravel(), 0.0, f0, t_max,
                                           _INF, 1.0)
    if P > 1:
        # each option is one quadratic in t on (left, right): a + b t + g t^2
        probe = 0.5 * (left + right) if right < _INF else left + 1.0
        place(probe)
        inside = quad & (x > lo) & (x < hi)
        p, q = _PAIRS[:, :P * (P - 1) // 2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = np.where(inside, 0.5 * s * s / curv, 0.0)
            b = np.where(inside, -c * s / curv, -s * x) - act
            a = np.where(inside, 0.5 * c * c / curv, theta * x * x + c * x) - off
            da, db_, dg = a[p] - a[q], b[p] - b[q], g[p] - g[q]
            disc = np.sqrt(db_ * db_ - 4.0 * dg * da)
            half = -0.5 * (db_ + np.copysign(disc, db_))
            cross = np.concatenate((np.where(dg != 0.0, half / dg, -da / db_), da / half))
        chord = (left - f_left * (right - left) / (f_right - f_left)
                 if f_right < _INF else None)
        left, f_left, right, f_right = bracket(cross[np.isfinite(cross)], left, f_left,
                                               right, f_right, chord)
    probe = 0.5 * (left + right) if right < _INF else left + 1.0
    slope, rate = state(probe, True)
    if rate > 0.0:
        return min(max(probe - slope / rate, left), right)
    if slope >= 0.0:  # the derivative jumped across zero at ``left``
        return left
    if right < _INF:
        return right
    return None if dual.falls_along(d) else left


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
    ``y``), ``f`` and ``grad`` (the value and subgradient there, floats),
    ``c``, ``x`` and ``val`` (each option's price, maximiser and value),
    ``best`` (each activity's best option, the first of equal values) and
    ``pick`` (its flat index in those), and there ``point``, ``terms``
    (each activity's term in ``f``) and ``z`` (its activation).  ``placed`` is the point the last Newton step recovered,
    each activity at its best option with its kink ties placed.  The rest
    (``_SHARED``) does not depend on ``off``, and ``with_costs`` hands it
    to another dual without a copy.
    """

    # ``rhs`` is ``e`` as floats, ``scaling`` whether any box scales,
    # ``theta_q`` theta where quadratic and +0.0 elsewhere (as the line
    # search reads it), and ``kink_tol`` and ``tie_rate`` a kink tie's
    # tolerances: None without linear activities, which cannot kink
    _SHARED = ("K", "A", "e", "rhs", "const", "phi", "theta", "quad", "lin", "curv",
               "theta_q", "lo", "hi", "span", "scaled", "scaling", "near", "kappa",
               "zeta", "index", "kink_tol", "tie_rate")
    __slots__ = _SHARED + ("off", "at", "f", "grad", "c", "x", "val", "best", "pick",
                           "point", "terms", "z", "placed")

    def __init__(self, A, e, const, phi, theta, lo, hi, span, near, zeta, off):
        self.K = len(A)
        self.A, self.e, self.const, self.phi, self.theta = A, e, const, phi, theta
        self.rhs = e.tolist()
        self.quad = theta < 0.0
        self.lin = None if self.quad.all() else ~self.quad
        self.curv = np.where(self.quad, -2.0 * theta, 1.0)
        self.theta_q = np.where(self.quad, -0.5 * self.curv, 0.0)
        self.index = np.arange(A.shape[1])
        self.kink_tol = self.tie_rate = None
        if self.lin is not None:  # ``_set_boxes`` adds the activation row's rate
            self.kink_tol, self.tie_rate = 1e-12 * (1.0 + np.abs(phi)), 1e-12 * np.abs(A)
        self._set_boxes(lo, hi, span, near, zeta)
        self.off, self.placed = off, None

    def _set_boxes(self, lo, hi, span, near, zeta):
        self.lo, self.hi, self.span, self.near, self.zeta = lo, hi, span, near, zeta
        self.scaled = span < _INF
        self.scaling = bool(self.scaled.any())
        self.kappa = 1.0 / span
        if self.lin is not None:
            self.tie_rate = np.vstack((self.tie_rate[:self.K],
                                       1e-12 * np.abs(self.kappa).max(axis=0)))

    def with_costs(self, off, boxes=None):
        """A dual that shares this one's arrays, with the options' costs
        ``off`` and, where given, the boxes ``(lo, hi, span, near, zeta)``
        in place of this one's."""
        dual = object.__new__(_Dual)
        for name in self._SHARED:
            setattr(dual, name, getattr(self, name))
        if boxes is not None:
            dual._set_boxes(*boxes)
        dual.off, dual.placed = off, None
        return dual

    def value(self, y: np.ndarray):
        """The dual value and subgradient at ``y``, kept on the dual with
        the prices they come from.

        These are the scalar reference's results summed in activity order,
        bit for bit: each elementwise operation is the reference's, in its
        order; ``np.argmax`` takes the first of equal values, as the
        reference's strict comparisons in the order stay, decrease, raise
        do; and the sums are one sequential ``np.cumsum`` seeded with the
        constant terms.  The activation sum adds the chosen activation
        only, as the reference does.  Where no option's box scales with its
        activation, ``mu/span`` is zero and every option of an activity
        has one price, and each activation is its ``zeta``; neither is
        priced.
        """
        K, e, at = self.K, self.rhs, y.tolist()
        mu = at[K]
        f = self.const + mu * e[K]
        for k in range(K):
            f += at[k] * e[k]
        c = _prices(self.phi, self.A, at)
        if self.scaling:
            c = c - mu / self.span
        x = _box_max(c, self.curv, self.lin, self.lo, self.hi)
        val = self.theta * x * x + c * x - self.zeta * mu - self.off
        best = val.T.argmax(axis=1)
        if not self.scaling:  # every option of an activity has its one price
            c, z = c[None].repeat(len(val), 0), self.zeta
        elif mu > 0.0:
            z = np.where(self.scaled, x / self.span, self.zeta)
        else:
            z = np.where(self.near < _INF, np.minimum(x / self.near, 1.0),
                         self.zeta + self.scaled)
        pick = best * best.size + self.index
        # rows: each coupling row's use, the activations, the values
        acc = np.zeros((K + 2, best.size + 1))
        acc[K + 1, 0] = f
        point, acc[K, 1:], acc[K + 1, 1:] = x.take(pick), z.take(pick), val.take(pick)
        np.multiply(self.A, point, out=acc[:K, 1:])
        sums = acc.cumsum(axis=1)[:, -1].tolist()
        self.at, self.c, self.x, self.val, self.best, self.pick = y, c, x, val, best, pick
        self.point, self.z, self.terms = point, acc[K, 1:], acc[K + 1, 1:]
        self.f, self.grad = sums[K + 1], [a - b for a, b in zip(e, sums)]
        return self.f, self.grad

    def newton(self, kept: np.ndarray):
        """Newton step at ``at``, from the prices ``value`` kept there.

        ``kept`` holds, per activity, the bits (1 << option) of the two
        options it was left tied between by the previous step, or 0; such a
        tie stays in the system, with its residual, until the system
        releases it.  Returns the direction, the slack of the relaxation
        point it recovers, the ties to keep for the next step, and the
        prices the step's line search (``_exact_step``) starts from.
        """
        K, A, y, c, x, val = self.K, self.A, self.at, self.c, self.x, self.val
        best, pick, idx, at = self.best, self.pick, self.index, y.tolist()
        mu, n = at[K], A.shape[1]
        lo, hi = self.lo.take(pick), self.hi.take(pick)
        vb, xb = self.terms, self.point.copy()
        cb = c.take(pick) if self.scaling else c[0]
        kb, zb = self.kappa.take(pick), self.zeta.take(pick)
        # ties: a linear activity priced to zero inside its box, or two
        # options of level value that use the rows differently
        ki, level_ties = np.zeros(0, dtype=np.int64), []
        if self.lin is not None:
            ki = np.flatnonzero(self.lin & (lo < hi) & (
                np.abs(cb) <= self.kink_tol + y @ self.tie_rate))
        if len(val) > 1:  # one option per activity ties no two
            others = val.copy()
            others.put(pick, -_INF)
            # a kept tie pairs the best option with its partner, others the two best
            second, remembered = None, False
            if kept.any():
                partner = kept & ~(1 << best)
                remembered = (partner != kept) & (partner > 0)
                second = np.where(remembered, partner >> 1, others.argmax(axis=0))
            v2 = others.max(axis=0) if second is None else others.take(second * n + idx)
            level = remembered | (vb - v2 <= 1e-10 * (
                1.0 + np.abs(self.theta * xb * xb) + np.abs(cb * xb) + zb * mu))
            level[ki] = False
            lv = (level & (v2 > -_INF)).nonzero()[0]  # only these need the second's index
            second = others[:, lv].argmax(axis=0) if second is None else second[lv]
            for i, o in zip(lv.tolist(), second.tolist()):
                x2, xi = x.item(o, i), xb.item(i)
                dx, dz = x2 - xi, (self.kappa.item(o, i) * x2 + self.zeta.item(o, i)
                                   - kb.item(i) * xi - zb.item(i))
                if dx != 0.0 or dz != 0.0:  # the tie moves the rows
                    level_ties.append((i, o, dx, dz, vb.item(i) - others.item(o, i)))
        held = xb.copy()
        held[ki] = 0.0
        r = _minus(self.rhs[:K], A @ held) + [self.rhs[K] - float(kb @ held + zb.sum())]
        free = self.quad & (xb > lo) & (xb < hi)
        cf = np.concatenate((A[:, free], kb[None, free]))
        M = (cf / self.curv[free]) @ cf.T
        ties, start = None, r  # the row slack with the ties at their start
        li, s2, dx, dz, gap = map(list, zip(*level_ties)) if level_ties else ([],) * 5
        if ki.size or li:  # kink ties first, each column its activity's own row use
            nk, fill = ki.size, [0.0] * len(li)
            T = np.vstack((A[:, ki.tolist() + li] * ([1.0] * nk + dx), kb[ki].tolist() + dz))
            w0 = xb[ki].tolist() + fill
            ties = (T, lo[ki].tolist() + fill, hi[ki].tolist() + [1.0] * len(li),
                    (-cb[ki]).tolist() + gap, w0)
            if nk:  # level ties start at weight 0 and move no row
                start = _minus(r, T @ np.array(w0))
        d, w, slack = _newton_step(M, r, at, [a > 0.0 or s < 0.0 for a, s in zip(at, start)],
                                   ties)
        xb[ki] = w[:ki.size]
        self.placed = xb
        kept = np.zeros(n, dtype=np.int64)
        for i, o, v in zip(li, s2, w[ki.size:]):
            if 0.0 < v < 1.0:
                kept[i] = (1 << best.item(i)) | (1 << o)
        if ki.size:
            c = c.copy()
            c.put(pick[ki], 0.0)  # the step drives a kink tie off its kink
        return np.array(d), np.array(slack), kept, c

    def falls_along(self, rays: np.ndarray) -> np.ndarray:
        """Farkas test of each ray ``d >= 0`` of the dual in the stack
        ``rays`` (one ray is a stack of one).

        Far along ``d`` each activity takes the option and the end of its
        box that use the rows least, ``min(s*lo, s*hi) + zeta*d_mu`` in the
        direction (``s`` the option's price slope; ``off`` adds infinity for
        a closed option).  The dual falls without bound when ``e.d`` lies
        below the sum of those by more than rounding, and then no point of
        the boxes meets the rows.  Each ray gets its verdict alone: one-row
        ``matmul`` products (as ``d[:K] @ A``, ``e @ d``) and a sum per row.
        """
        K, d = self.K, np.reshape(rays, (-1, self.K + 1))
        mu = d[:, K, None, None]
        s = d[:, None, :K] @ self.A + self.kappa * mu
        db = (d[:, None, :] @ self.e[:, None])[:, 0, 0]
        use = (np.minimum(s * self.lo, s * self.hi) + (self.zeta * mu + self.off)).min(axis=1)
        return db - use.sum(axis=1) < -1e-12 * (np.abs(db) + np.abs(use).sum(axis=1))


# each option's bit in a node's ``bits``, and its cost where it is open
_OPTION_BITS = np.array([[1], [2], [4]], dtype=np.int8)
_OPEN_COST = np.array([[-0.0], [0.0], [0.0]])


def _node_dual(inst: Instance, node: NodeState, persp: bool) -> _Dual:
    """A node's dual with three options per activity.

    Rows 0, 1 and 2 are staying (``x = 0``), the decrease side and the
    raise side, open as the node's bits say; the last row is the
    cardinality cap.  A persp side and a fixed miqp side are the region's
    box at activation one (``zeta = 1``); a free miqp side is the box from
    zero to the region's far end (``span``), at the smallest activation
    that holds ``x`` (``zeta = 0``).  An open stay costs -0.0: its value,
    whose ``0*x`` terms can read -0.0, then reads 0.0, as the reference's.
    The persp dual is the instance's ``_InstanceArrays.node`` with the
    node's costs; a miqp dual copies from it the boxes a free side changes.
    """
    cols = _instance_arrays(inst)
    base = cols.node
    opened = (node.bits & _OPTION_BITS) != 0
    opened[1:] &= cols.has
    if persp:
        return base.with_costs(np.where(opened, _OPEN_COST, _INF))
    scaled = opened[1:] & node.free & cols.scalable
    opened[1:] &= ~node.free | scaled
    lo, hi, span, near, zeta = (a.copy() for a in (base.lo, base.hi, base.span,
                                                   base.near, base.zeta))
    np.copyto(hi[1], 0.0, where=scaled[0])
    np.copyto(lo[2], 0.0, where=scaled[1])
    np.copyto(span[1:], cols.outer, where=scaled)
    np.copyto(near[1:], cols.inner, where=scaled & cols.inner_ok)
    np.copyto(zeta[1:], 0.0, where=scaled)
    return base.with_costs(np.where(opened, _OPEN_COST, _INF), (lo, hi, span, near, zeta))


def _clipped(y, d, t, ratio):
    """``max(y + t*d, 0)``, zero where the step ratio is ``t`` (``t <= t_max``)."""
    return np.array([0.0 if q == t else max(a + t * b, 0.0) for a, b, q in zip(y, d, ratio)])


def _descend(dual: _Dual, y: np.ndarray, goal: float,
             rays: Sequence[Sequence[float]] = ()):
    """Projected semismooth Newton method on ``dual`` from ``y``.

    The dual's last ``value`` call was at ``y``.  The method ends there
    when the value is at or below ``goal``, or when the dual falls without
    bound along one of ``rays`` (Farkas rays of other duals over the same
    rows, one entry per multiplier; ``dual.falls_along``).  Each step
    solves the Newton system of ``_Dual.newton`` and moves by an exact line
    search along it, or by the unit step where the search finds no slope
    beyond rounding; a step that raises the value by more than rounding is
    not taken.  The first step that admits the full length tries it before its
    search (warm-started at a parent's multipliers, the Newton step often
    lands on the child's minimum): if the value there rises by no more than
    rounding and the inner solution passes the KKT test, the method ends
    there; otherwise it searches, and tries no full step again.  Returns
    the multipliers, the dual value there, and how the method ended:
    ``"converged"`` when the KKT residual of the inner solution, or of the
    point the Newton step recovers, is down to ``1e-12*(1 + max|e|)``;
    ``"target"`` once the start or a step, the kept full step included,
    takes the value to or below ``goal`` (a node is then pruned, and a leaf
    cut, whatever follows); ``"ray"`` when the dual falls without bound,
    with the value -inf (no point meets the rows); ``"stalled"`` when a
    step gains nothing or the iteration cap is reached.  On a ray the
    multipliers returned are the certificate, a direction ``d >= 0`` with
    ``dual.falls_along(d)``: the first pooled ray the dual falls along, the
    Newton direction the line search runs off along, or the last iterate.
    A ``"converged"`` ending leaves ``dual.placed`` None where the inner
    solution passed the test, and the Newton step's point where that
    passed it.
    """
    val, grad = dual.f, dual.grad
    if val <= goal:
        return y, val, "target"
    pool = np.array(rays, dtype=float)
    falls = dual.falls_along(pool)
    if falls.any():
        return pool[falls.argmax()], -_INF, "ray"
    tol = 1e-12 * (1.0 + max(map(abs, dual.rhs)))
    kept = np.zeros(dual.A.shape[1], dtype=np.int64)
    tried = False
    for it in range(_NEWTON_MAX_ITERS + 1):
        dual.placed = None
        at = y.tolist()
        if _kkt_residual(at, grad) <= tol:
            return y, val, "converged"
        d, slack, kept, c = dual.newton(kept)
        if _kkt_residual(at, slack.tolist()) <= tol:
            return y, val, "converged"
        step = d.tolist()
        if it == _NEWTON_MAX_ITERS or not any(step):
            break
        ratio = [a / -b if b < 0.0 else _INF for a, b in zip(at, step)]
        t_max = min(ratio)
        if t_max >= 1.0 and not tried:  # the full step, kept on its certificate
            tried = True
            nxt = _clipped(at, step, 1.0, ratio)
            nval, ngrad = dual.value(nxt)
            if (nval <= val + 1e-13 * max(1.0, abs(val))
                    and _kkt_residual(nxt.tolist(), ngrad) <= tol):
                dual.placed = None  # the point is the inner solution at ``nxt``
                return nxt, nval, "target" if nval <= goal else "converged"
        t = _exact_step(dual, y, d, c, t_max)
        if t is None:  # no d < 0, as t_max is infinite
            return d, -_INF, "ray"
        if t == 0.0:  # a flat start to rounding: try the unit step
            t = min(1.0, t_max)
        nxt = _clipped(at, step, t, ratio)
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
    dual = _node_dual(inst, node, _persp(form))
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
    the ending.  ``values``, ``best`` and ``z`` come from the pricing at
    those multipliers: the last one, except after a ray or a rejected step,
    when the dual is priced there once more.  A ``warm`` start with the
    wrong number of multipliers is a ``ValueError``.

    ``rays`` are Farkas rays found on other nodes (``RelaxResult.ray``) or
    leaves (``FixedOutcome.ray``, whose cardinality entry is 0) of the same
    instance, or a coupling row's unit ray, along which the dual falls when
    the node's open regions miss that row, activity by activity, by more
    than rounding.  Unless the warm start already reaches the target,
    ``_descend`` tests them all on this node's dual in one pass before its
    first step, by the test the descent ends on; the first along which the
    dual falls without bound proves the node infeasible as well, and is
    returned as its ray without a step.

    Starting from a parent node's multipliers (``warm``) guarantees the
    child bound never exceeds the parent bound: shrinking the region sets
    lowers the dual pointwise, and every step descends.
    """
    goal = target if target is not None and math.isfinite(target) else -_INF
    dual = _node_dual(inst, node, _persp(form))
    y = np.zeros(dual.K + 1) if warm is None else np.maximum(np.array(warm, dtype=float), 0.0)
    if y.shape != (dual.K + 1,):
        raise ValueError(f"warm start has {y.size} multipliers, the node dual {dual.K + 1}")
    dual.value(y)
    y, val, end = _descend(dual, y, goal, rays)
    if not np.array_equal(dual.at, y):  # a ray or a rejected step ended the descent
        dual.value(y)
    mult = tuple(y.tolist())
    return RelaxResult(val, mult, end in ("converged", "ray"), dual.terms, dual.best,
                       dual.z, mult if end == "ray" else None)


# ---------------------------------------------------------------------------
# Lagrangian reduced-cost fixing (Fisher, 1981; Beasley, 1993)


def _child_bounds(inst: Instance, res: RelaxResult) -> np.ndarray:
    """The bound of every child "activity i in region r" of the node that
    ``res`` bounds, at the node's multipliers, as a ``(3, n)`` array with
    rows stay, decrease side and raise side (row ``code`` for region code
    ``code``, as a node's bits); entries of regions the node does not hold
    mean nothing.

    The node dual is separable, so fixing ``i`` to ``r`` replaces only its
    term ``v_i`` of the dual value ``D``: the child's dual at the same
    multipliers is ``D - v_i + w_ir``, with ``w_iS = 0`` and a side's
    ``w_ir`` its value at activation one over its region box.  A fixed side
    is priced that way in both formulations (``_node_dual``), so the bound
    holds for both and agrees with ``dual_value`` on the child to rounding.
    """
    node, mult = _instance_arrays(inst).node, res.multipliers
    pe = _prices(node.phi, node.A, mult)
    x = _box_max(pe, node.curv, node.lin, node.lo[1:], node.hi[1:])
    w = node.theta * x * x + pe * x - mult[node.K]
    base = res.upper_bound - res.values
    return np.vstack((base, base + w))


def fix_by_reduced_cost(node: NodeState, bounds: np.ndarray, threshold: float,
                        ) -> Tuple[Optional[NodeState], float]:
    """Drop every open region of a free activity whose child bound
    (``bounds``, the node's ``_child_bounds``) is at or below ``threshold``.

    Use the incumbent's prune threshold: a dropped region holds no
    assignment above it, exactly as a pruned node does.  Returns the node
    left and the largest child bound among the regions dropped (-inf when
    none is).  The node left is ``node`` itself when nothing is dropped
    (always when ``threshold`` is -inf), or None when an activity has no
    region left, so the node holds nothing above the threshold.
    """
    if threshold == -_INF:
        return node, -_INF
    bits = node.bits
    above = bounds > threshold
    keep = above[0] | (above[1] << 1) | (above[2] << 2)
    left = np.where(node.free, bits & keep, bits)
    if (left == bits).all():
        return node, -_INF
    gone = (bits & ~left & _OPTION_BITS) != 0
    dropped = float(bounds[gone].max())
    if not left.all():
        return None, dropped
    return NodeState(left.astype(np.int8)), dropped


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


def _leaf_dual(A, b, phi, theta):
    """The dual of ``max sum theta*x^2 + phi*x`` over ``A x <= b`` (numpy,
    not written to) and the boxes ``_box_qp_max`` sets, one per activity."""
    zero, far = np.zeros((1, A.shape[1])), np.full((1, A.shape[1]), _INF)
    return _Dual(A, np.append(b, 0.0), 0.0, phi, theta, zero, zero, far, far, zero, zero)


def _box_qp_max(leaf, lo, hi, goal=-_INF, multipliers=None, rays=()):
    """Maximize ``sum theta*x^2 + phi*x`` over ``lo <= x <= hi``, ``A x <= b``.

    ``leaf`` is the problem's ``_leaf_dual``, which the solve shares and
    does not change, and ``lo`` and ``hi`` are numpy.  ``_descend``
    minimises the dual with these boxes from ``multipliers`` (one per row of
    ``A``), with 0 for the empty activation row, or from zero without them.
    Returns a ``FixedOutcome`` in the leaf's own value.  ``bound`` is the
    dual value at the final multipliers, a valid upper bound whatever
    happened; when the KKT residual of ``x`` falls to ``1e-12*(1 + max|b|)``
    the two agree to that order.  If the method stalls first, ``x`` is
    returned as it stands when it meets every row within ``1e-9*(1 + |b|)``;
    otherwise ``x`` is None and ``value`` -inf, and ``bound`` still holds.

    The tests run in this order, each ending the solve:
    - the floor, given ``multipliers`` and a finite ``goal``: the dual value
      at zero is at or below ``goal``, so the leaf cannot beat ``goal``;
    - the start: the dual value there is at or below ``goal``;
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
    iterates of the unfloored one from the same multipliers bit for bit.
    """
    theta, phi, A, b = leaf.theta, leaf.phi, leaf.A, leaf.e[:-1]
    dual = leaf.with_costs(leaf.off)
    dual.lo, dual.hi = lo[None], hi[None]
    y = np.zeros(len(A) + 1)
    if multipliers is not None:
        if goal > -_INF and dual.value(y)[0] <= goal:
            return FixedOutcome(None, -_INF, dual.f, True)
        y = np.append(multipliers, 0.0)
    dual.value(y)
    y, bound, end = _descend(dual, y, goal, rays)
    if end == "ray":
        return FixedOutcome(None, -_INF, -_INF, False, tuple(y.tolist()))
    if end == "target":
        return FixedOutcome(None, -_INF, bound, True)
    x = dual.placed if dual.placed is not None else dual.point
    if end == "stalled" and (A @ x > b + 1e-9 * (1.0 + np.abs(b))).any():
        return FixedOutcome(None, -_INF, bound, True)
    return FixedOutcome(tuple(x.tolist()), float(theta @ (x * x) + phi @ x), bound, True)


def solve_fixed_assignment(inst: Instance, assignment: Sequence[Region], *,
                           floor: float = -_INF,
                           multipliers: Optional[Sequence[float]] = None,
                           rays: Sequence[Tuple[float, ...]] = ()) -> FixedOutcome:
    """Best change vector for a fully decided region assignment.

    The continuous layer is a separable concave QP over the regions' boxes
    (read from ``Instance.claims``) under the budget row and any extra
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
    cardinality, one) price the leaf's rows: a vector of another length is
    a ``ValueError``, and negative entries count as 0.  The descent starts
    there, with 0 for the empty activation row, or at zero without them.
    The solve stops once the leaf provably cannot beat the floor by more
    than rounding: when its dual value at zero (priced first, given
    multipliers and a finite floor), at the start or along the descent
    falls to ``floor - 1e-9*max(1, |floor|)`` (as ``bnb._prune_threshold``
    allows for nodes).  Such a cut outcome has no point and a bound at or
    below that level, and stays ``feasible``; the floor only rises in a
    search, so it stays below every later floor.  ``rays`` are Farkas rays
    found on other leaves (``FixedOutcome.ray``) or nodes
    (``RelaxResult.ray``) of the instance, or a coupling row's unit ray (1
    for the row, 0 for the others and the cardinality), which closes a leaf
    whose boxes miss that row, and a node ray's cardinality entry prices the
    empty row; they are tested after the start and before the descent.  The
    defaults solve every leaf in full, from zero.
    """
    leaf = _instance_arrays(inst).leaf
    mult = None if multipliers is None else np.maximum(np.array(multipliers, dtype=float), 0.0)
    if mult is not None and mult.shape != (leaf.K + 1,):
        raise ValueError(f"{mult.size} multipliers, not {leaf.K + 1} (rows and cardinality)")
    code = _region_codes(assignment)
    if code.size != inst.n:
        raise ValueError(f"{code.size} regions for {inst.n} activities")
    lo, hi = inst.claims[:2].take(code * inst.n + leaf.index, axis=1)
    if np.isnan(lo).any():
        return FixedOutcome(None, -_INF, -_INF, False)
    # the cut level in the leaf's own value, which leaves out psi_sum
    goal = floor - 1e-9 * max(1.0, abs(floor)) - inst.psi_sum
    out = _box_qp_max(leaf, lo, hi, goal, None if mult is None else mult[:-1], rays)
    return FixedOutcome(out.x, out.value + inst.psi_sum, out.bound + inst.psi_sum,
                        out.feasible, out.ray)
