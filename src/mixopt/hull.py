"""Convex-hull rows for multi-range semi-continuous variables and the two
mixed-integer model shapes built from them.

A change variable that must lie in one of several disjoint intervals or at
zero gets one indicator per interval plus hull rows
``sum_k l_k z_k <= x <= sum_k u_k z_k`` and ``sum_k z_k <= 1``.  The big-M
quadratic model keeps the concave objective as-is; the cone model replaces
each quadratic term with an epigraph variable tied to the activation level
through a rotated-cone row, which is what makes its continuous relaxation
tight at fractional activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from .instance import (
    Instance,
    InvalidInstanceError,
    Solution,
    ValidationReport,
    _region_codes,
    _revenues,
    validate,
)

Sense = Literal["le", "ge", "eq"]


def perspective_value(theta: float, phi: float, psi: float, x: float, z: float) -> float:
    """Activation-scaled revenue ``theta*x^2/z + phi*x + psi``.

    At ``z == 0`` the only admissible point is ``x == 0`` with value ``psi``.
    """
    if z == 0.0:
        if x != 0.0:
            raise ValueError("perspective undefined at z=0 with x != 0")
        return psi
    if z < 0.0:
        raise ValueError("activation level must be nonnegative")
    return theta * x * x / z + phi * x + psi


# ---------------------------------------------------------------------------
# Model IR


@dataclass(frozen=True)
class Variable:
    name: str
    kind: Literal["continuous", "binary"]
    lb: float
    ub: float


@dataclass(frozen=True)
class LinearRow:
    name: str
    coeffs: Tuple[Tuple[str, float], ...]
    sense: Sense
    rhs: float


@dataclass(frozen=True)
class ConeRow:
    """Rotated-cone row ``e * z >= coeff * x^2`` with ``coeff >= 0``."""

    name: str
    e_var: str
    z_var: str
    x_var: str
    coeff: float


@dataclass(frozen=True)
class ModelIR:
    """Solver-independent model: variables, rows, objective pieces; the
    objective is maximized."""

    name: str
    variables: Tuple[Variable, ...]
    rows: Tuple[LinearRow, ...]
    quad_obj: Tuple[Tuple[str, str, float], ...]
    lin_obj: Tuple[Tuple[str, float], ...]
    const_obj: float
    cones: Tuple[ConeRow, ...] = ()


def _sides(inst: Instance) -> list:
    """Each activity's decrease and raise boxes ``(L, R)``, read from
    ``Instance.claims`` as Python floats; ``None`` where a box is absent."""
    lo, hi = inst.claims[:2, inst.n:3 * inst.n].tolist()
    boxes = [None if math.isnan(a) else (a, b) for a, b in zip(lo, hi)]
    return list(zip(boxes[:inst.n], boxes[inst.n:]))


def _core_rows(inst: Instance) -> Tuple[list, list]:
    """Variables and rows shared by both formulations."""
    n, live = inst.n, inst.m > 0
    variables = []
    rows = [LinearRow("budget", tuple((f"x_{i}", 1.0) for i in range(n)), "le", inst.budget_rhs)]
    for i, (L, R) in enumerate(_sides(inst)):
        # L lies at or below 0 and R at or above, so x spans L's low end to R's high end
        variables += [Variable(f"x_{i}", "continuous", L[0] if L else 0.0, R[1] if R else 0.0),
                      Variable(f"zL_{i}", "binary", 0.0, 1.0 if L and live else 0.0),
                      Variable(f"zR_{i}", "binary", 0.0, 1.0 if R and live else 0.0)]
        boxes = [(f"z{side}_{i}", box) for side, box in (("L", L), ("R", R)) if box]
        for end, (name, sense) in enumerate((("rng_lo", "ge"), ("rng_hi", "le"))):
            terms = ((f"x_{i}", 1.0),) + tuple((z, -box[end]) for z, box in boxes)
            rows.append(LinearRow(f"{name}_{i}", terms, sense, 0.0))
        rows.append(LinearRow(f"pick_{i}", ((f"zL_{i}", 1.0), (f"zR_{i}", 1.0)), "le", 1.0))
    rows.append(LinearRow(
        "card",
        tuple((f"z{side}_{i}", 1.0) for i in range(n) for side in ("L", "R")),
        "le", float(inst.m)))
    for k, ex in enumerate(inst.extras):
        rows.append(LinearRow(
            f"extra_{k}",
            tuple((f"x_{i}", c) for i, c in enumerate(ex.coeffs.tolist()) if c != 0.0),
            "le", ex.rhs))
    return variables, rows


def _require_valid(inst: Instance) -> None:
    rep = validate(inst)
    if not rep.ok:
        raise InvalidInstanceError("; ".join(rep.violations))


def build_miqp(inst: Instance) -> ModelIR:
    """Big-M style model: concave quadratic objective over the hull rows."""
    _require_valid(inst)
    variables, rows = _core_rows(inst)
    theta, phi = inst.columns["theta"].tolist(), inst.columns["phi"].tolist()
    quad = tuple((f"x_{i}", f"x_{i}", t) for i, t in enumerate(theta) if t != 0.0)
    lin = tuple((f"x_{i}", p) for i, p in enumerate(phi))
    return ModelIR(name="miqp", variables=tuple(variables), rows=tuple(rows),
                   quad_obj=quad, lin_obj=lin, const_obj=inst.psi_sum)


def build_misocp(inst: Instance) -> ModelIR:
    """Cone model: per-activity epigraph variable ``e_i`` with
    ``e_i * zLR_i >= -theta_i * x_i^2`` and a purely linear objective."""
    _require_valid(inst)
    variables, rows = _core_rows(inst)
    cones, lin = [], []
    columns = (inst.columns["theta"].tolist(), inst.columns["phi"].tolist(), _sides(inst))
    for i, (theta, phi, (L, R)) in enumerate(zip(*columns)):
        active = (L is not None or R is not None) and inst.m > 0
        variables.append(Variable(f"zLR_{i}", "binary", 0.0, 1.0 if active else 0.0))
        if theta < 0.0:
            variables.append(Variable(f"e_{i}", "continuous", 0.0, math.inf))
            cones.append(ConeRow(f"qc_{i}", f"e_{i}", f"zLR_{i}", f"x_{i}", -theta))
            lin.append((f"e_{i}", -1.0))
        else:
            # theta == 0: the cone row degenerates and e_i = 0 at any optimum
            variables.append(Variable(f"e_{i}", "continuous", 0.0, 0.0))
        lin.append((f"x_{i}", phi))
        rows.append(LinearRow(
            f"link_{i}",
            ((f"zL_{i}", 1.0), (f"zR_{i}", 1.0), (f"zLR_{i}", -1.0)),
            "eq", 0.0))
    return ModelIR(name="misocp", variables=tuple(variables), rows=tuple(rows),
                   quad_obj=(), lin_obj=tuple(lin), const_obj=inst.psi_sum,
                   cones=tuple(cones))


def _fsum(values) -> float:
    """``math.fsum`` of ``values``, or NaN where it raises: on an inf and a
    -inf, or on an overflow."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return math.nan


# signs that make claims' bound rows upper ones: x < lo - tol is -x > -lo + tol
_SIGNS = np.array([[-1.0], [1.0], [-1.0], [1.0], [1.0]])


def check_minlp_feasible(inst: Instance, sol: Solution, tol: float = 1e-8) -> ValidationReport:
    """Reference feasibility check for a candidate solution.

    Verifies, within additive ``tol``: spend bounds, membership of each
    change in its claimed region interval, the minimum-change rule
    ``delta*z <= |x| <= M*z`` with ``M = max(|l-s|, |u-s|)``, the budget,
    the cardinality cap, the extra rows, and consistency of the stored
    objective.  This is the gate every incumbent must pass.

    The activities are checked together, on one gather from
    ``Instance.claims``; the messages come activity by activity,
    in the order the rules above are listed, and an activity whose region
    is unknown or absent gets no further message.  Sums are exact
    (``math.fsum``), or NaN where it raises, which fails the rule.
    """
    n = inst.n
    if len(sol.x) != n or len(sol.region) != n:
        return ValidationReport((f"expected {n} entries in x/region",))
    x = np.array(sol.x, dtype=float)
    code = _region_codes(sol.region)
    claim = inst.claims.take(code * n + np.arange(n), axis=1)
    lacks, bound, size = np.isnan(claim[0]), claim[:5] * _SIGNS + tol, np.abs(x)
    # below the region's box, above it, below the spend bounds, above them;
    # each rule is written to fail on a NaN, which compares false
    past = ~(x * _SIGNS[:4] <= bound[:4])
    small, inactive = ~(claim[5] <= size + tol), ~(size <= bound[4])
    out = []
    for i in (lacks | past.any(axis=0) | small | inactive).nonzero()[0].tolist():
        name, xi, reg = inst.ids[i], sol.x[i], sol.region[i]
        if past[2, i] or past[3, i]:
            out.append(f"activity {name!r}: change {xi} outside spend bounds "
                       f"[{claim.item(2, i)}, {claim.item(3, i)}]")
        if code[i] == 3:
            out.append(f"activity {name!r}: unknown region {reg!r}")
        elif lacks[i]:
            out.append(f"activity {name!r}: region {reg} does not exist")
        else:
            if past[0, i] or past[1, i]:
                out.append(f"activity {name!r}: change {xi} outside region {reg} "
                           f"interval [{claim.item(0, i)}, {claim.item(1, i)}]")
            if small[i]:
                out.append(f"activity {name!r}: |change| {abs(xi)} below minimum "
                           f"{inst.columns['delta'].item(i)}")
            if inactive[i]:
                out.append(f"activity {name!r}: nonzero change with inactive indicator")
    nonzero = int(np.count_nonzero(~lacks & (code > 0)))  # L or R, where it exists
    total = _fsum(sol.x)
    if not total <= inst.budget_rhs + tol:
        out.append(f"budget exceeded: {total} > {inst.budget_rhs}")
    if nonzero > inst.m:
        out.append(f"cardinality exceeded: {nonzero} > {inst.m}")
    with np.errstate(invalid="ignore", over="ignore"):  # the rules below judge an inf or NaN
        rows, revenues = (inst.coupling[0][1:] * x).tolist(), _revenues(inst, x).tolist()
    for k, (ex, row) in enumerate(zip(inst.extras, rows)):
        activity = _fsum(row)
        if not activity <= ex.rhs + tol:
            out.append(f"extra {k} violated: {activity} > {ex.rhs}")
    obj = _fsum(revenues)
    if not abs(obj - sol.objective) <= tol * (1.0 + abs(obj)):
        out.append(f"stored objective {sol.objective} != recomputed {obj}")
    return ValidationReport(tuple(out))
