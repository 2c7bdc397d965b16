"""The scalar references for one activity: its record, its regions and its
priced subproblem.

``Act`` is one activity as a record of its id and seven fields;
``instance_of`` builds an instance of such records and ``activities``
reads them back from an instance's ids and columns, so that a test states
activities one at a time without reading the package's own code.

``region_bounds`` is the minimum-change rule with Python floats, one
activity at a time, as the package spelled it before the rule moved onto
the instance's columns (``Instance.claims``); the instance tests require
the claim table, read back by ``claimed``, to give its boxes bit for bit,
and every other test reads an instance's regions from ``regions``.

The priced subproblem is solved in closed form with Python floats in the
order the kernel in ``mixopt.relax`` repeats on whole columns.  The kernel
test requires the kernel's points and per-activity values to equal these
bit for bit; the grid oracle of ``test_relax.py`` checks these closed
forms against a dense search.
"""

import math
from collections import namedtuple
from typing import Optional, Sequence, Tuple

from mixopt import PERSPECTIVE, Formulation, Instance, InvalidActivityError

_INF = math.inf

FIELDS = ("s", "l", "u", "delta", "theta", "phi", "psi")
# one activity: ``s`` the baseline spend, ``[l, u]`` the spend interval,
# ``delta`` the minimum change, ``theta/phi/psi`` the revenue curve
Act = namedtuple("Act", ("id",) + FIELDS)
# the decrease and raise intervals of one activity's change, None if absent
Regions = namedtuple("Regions", ("L", "R"))


def instance_of(acts: Sequence[Act], rho: float, m: int, extras=()) -> Instance:
    """The instance of the activities ``acts``: their ids and the table
    of their fields, one row per field."""
    acts = tuple(acts)
    return Instance([a.id for a in acts], [[getattr(a, k) for a in acts] for k in FIELDS],
                    rho, m, extras)


def activities(inst: Instance) -> Tuple[Act, ...]:
    """The activities of ``inst`` in activity order, read from its ids and
    columns as Python floats."""
    rows = zip(*(inst.columns[k].tolist() for k in FIELDS))
    return tuple(Act(i, *row) for i, row in zip(inst.ids, rows))


def activity_violations(a: Act) -> Tuple[str, ...]:
    """The activity rules that ``a`` breaks: finite fields, then
    ``l <= s <= u``, ``theta <= 0`` and ``delta >= 0``."""
    if all(map(math.isfinite, (a.s, a.l, a.u, a.delta, a.theta, a.phi, a.psi))):
        rules = (("l > s", a.l > a.s), ("s > u", a.s > a.u),
                 ("theta > 0", a.theta > 0), ("delta < 0", a.delta < 0))
    else:
        rules = (("non-finite field", True),)
    return tuple(f"activity {a.id!r}: {name}" for name, broken in rules if broken)


def region_bounds(act: Act) -> Regions:
    """The decrease box ``[l-s, -delta]``, there iff ``l - s <= -delta``,
    and the raise box ``[delta, u-s]``, there iff ``delta <= u - s``
    (``-delta`` reads +0.0 when delta is a zero); an activity that breaks
    a rule of ``activity_violations`` is an ``InvalidActivityError`` in
    its words."""
    broken = activity_violations(act)
    if broken:
        raise InvalidActivityError("; ".join(broken))
    lo = act.l - act.s
    hi = act.u - act.s
    neg_delta = -act.delta if act.delta != 0 else 0.0
    L = (lo, neg_delta) if lo <= neg_delta else None
    R = (act.delta, hi) if act.delta <= hi else None
    return Regions(L=L, R=R)


def regions(inst: Instance) -> Tuple[Regions, ...]:
    """``region_bounds`` of each activity of ``inst``, in activity order."""
    return tuple(map(region_bounds, activities(inst)))


def claimed(inst: Instance) -> Tuple[Regions, ...]:
    """Each activity's regions as the package holds them in
    ``inst.claims``: the boxes of its L and R columns, None where they
    read NaN; to be compared with ``regions``."""
    n = inst.n
    lo, hi = inst.claims[:2, n:3 * n].tolist()
    boxes = [None if math.isnan(a) else (a, b) for a, b in zip(lo, hi)]
    return tuple(map(Regions, boxes[:n], boxes[n:]))

# A record is (theta, lL, uL, lR, uR, allowS, modeL, modeR) with mode
# 0 = closed, 1 = free, 2 = fixed.

_CLOSED, _FREE, _FIXED = 0, 1, 2


def _record(act: Act, rb: Regions, allowed: frozenset):
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


def per_activity_argmax(act: Act, rb: Regions, status: frozenset,
                        lam: Sequence[float], mu: float, form: Formulation,
                        coupling: Optional[Sequence[float]] = None,
                        ) -> Tuple[float, float, float, float]:
    """Solve one activity's priced subproblem; returns (x, zL, zR, value).

    ``lam`` holds multipliers for the coupling rows and ``coupling`` the
    activity's coefficients in those rows (all ones by default, matching a
    budget-only instance).  The priced slope is accumulated in the numpy
    kernel's order, and the kernel matches these results bit for bit.
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
