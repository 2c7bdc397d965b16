"""The scalar reference for the incumbent gate.

``check_minlp_feasible`` activity by activity with Python floats, as the
package ran it before the check moved onto the instance's arrays.  The
hull tests require the package's check to give the same violations,
message for message, on random solutions.
"""

import math
from typing import Tuple

from mixopt import Instance, Solution

from activity_reference import activities
from activity_reference import regions as reference_regions


def exact_sum(values) -> float:
    """``math.fsum``, or NaN where it raises on an inf and a -inf or on an
    overflow."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


def objective_value(inst: Instance, x) -> float:
    """Total revenue of a change vector, one activity at a time."""
    return exact_sum(a.theta * v * v + a.phi * v + a.psi
                     for a, v in zip(activities(inst), map(float, x)))


def check_minlp_feasible(inst: Instance, sol: Solution, tol: float = 1e-8) -> Tuple[str, ...]:
    """The violations of ``sol``, within additive ``tol``: spend bounds,
    membership of each change in its claimed region interval, the
    minimum-change rule ``delta*z <= |x| <= M*z`` with
    ``M = max(|l-s|, |u-s|)``, the budget, the cardinality cap, the extra
    rows, and consistency of the stored objective.  Each rule is written
    to fail on a NaN, which compares false; a sum that ``math.fsum``
    refuses is a NaN."""
    out = []
    if len(sol.x) != inst.n or len(sol.region) != inst.n:
        return (f"expected {inst.n} entries in x/region",)
    nonzero = 0
    for a, rb, xi, reg in zip(activities(inst), reference_regions(inst), sol.x, sol.region):
        lo, hi = a.l - a.s, a.u - a.s
        if not lo - tol <= xi <= hi + tol:
            out.append(f"activity {a.id!r}: change {xi} outside spend bounds [{lo}, {hi}]")
        if reg not in ("L", "S", "R"):
            out.append(f"activity {a.id!r}: unknown region {reg!r}")
            continue
        interval = (0.0, 0.0) if reg == "S" else rb.L if reg == "L" else rb.R
        if interval is None:
            out.append(f"activity {a.id!r}: region {reg} does not exist")
            continue
        if not interval[0] - tol <= xi <= interval[1] + tol:
            out.append(f"activity {a.id!r}: change {xi} outside region {reg} "
                       f"interval [{interval[0]}, {interval[1]}]")
        z = 0 if reg == "S" else 1
        big_m = max(abs(lo), abs(hi))
        if not a.delta * z <= abs(xi) + tol:
            out.append(f"activity {a.id!r}: |change| {abs(xi)} below minimum {a.delta}")
        if not abs(xi) <= big_m * z + tol:
            out.append(f"activity {a.id!r}: nonzero change with inactive indicator")
        nonzero += z
    total = exact_sum(sol.x)
    if not total <= inst.budget_rhs + tol:
        out.append(f"budget exceeded: {total} > {inst.budget_rhs}")
    if nonzero > inst.m:
        out.append(f"cardinality exceeded: {nonzero} > {inst.m}")
    for k, ex in enumerate(inst.extras):
        activity = exact_sum(c * v for c, v in zip(ex.coeffs, sol.x))
        if not activity <= ex.rhs + tol:
            out.append(f"extra {k} violated: {activity} > {ex.rhs}")
    obj = objective_value(inst, sol.x)
    if not abs(obj - sol.objective) <= tol * (1.0 + abs(obj)):
        out.append(f"stored objective {sol.objective} != recomputed {obj}")
    return tuple(out)
