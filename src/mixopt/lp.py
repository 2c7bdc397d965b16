"""LP-format text export for built models.

The emitted dialect follows the common LP conventions: ``Maximize`` /
``Subject To`` / ``Bounds`` / ``Binary`` / ``End`` sections, quadratic
objective terms inside a ``[ ... ] / 2`` bracket (coefficients are
pre-doubled at emission so the written model evaluates exactly like the
in-memory one), and quadratic constraint rows written as

    qc_0: 2.46 x_0 ^2 - e_0 * zLR_0 <= 0

Numbers are printed with ``repr``, the shortest string that round-trips
to the same float, so a reader recovers the model bit-for-bit.
"""

from __future__ import annotations

import math
from typing import Iterable, List

from .hull import ModelIR, build_miqp, build_misocp
from .instance import Instance

_SENSE = {"le": "<=", "ge": ">=", "eq": "="}


def _num(x: float) -> str:
    return repr(float(x))


def _push_term(tokens: List[str], coef: float, body: str) -> None:
    if coef < 0.0:
        tokens.append("-")
    elif tokens:
        tokens.append("+")
    tokens.append(f"{_num(abs(coef))} {body}".strip())


def _wrap(prefix: str, tokens: Iterable[str]) -> List[str]:
    lines = [prefix]
    for tok in tokens:
        if len(lines[-1]) + 1 + len(tok) > 78:
            lines.append("   " + tok)
        else:
            lines[-1] += " " + tok
    return lines


def write_lp(ir: ModelIR) -> str:
    out: List[str] = [f"\\ {ir.name}", "Maximize"]

    tokens: List[str] = []
    for var, coef in ir.lin_obj:
        if coef != 0.0:
            _push_term(tokens, coef, var)
    if ir.quad_obj:
        qtok: List[str] = []
        for v1, v2, coef in ir.quad_obj:
            body = f"{v1} ^2" if v1 == v2 else f"{v1} * {v2}"
            _push_term(qtok, 2.0 * coef, body)
        if tokens:
            tokens.append("+")
        tokens.extend(["["] + qtok + ["]", "/", "2"])
    if ir.const_obj != 0.0:
        _push_term(tokens, ir.const_obj, "")
    if not tokens:
        tokens = ["0"]
    out.extend(_wrap(" obj:", tokens))

    out.append("Subject To")
    for row in ir.rows:
        tokens = []
        for var, coef in row.coeffs:
            if coef != 0.0:
                _push_term(tokens, coef, var)
        if not tokens:
            tokens = ["0"]
        tokens.extend([_SENSE[row.sense], _num(row.rhs)])
        out.extend(_wrap(f" {row.name}:", tokens))
    for cone in ir.cones:
        out.extend(_wrap(
            f" {cone.name}:",
            [_num(cone.coeff), cone.x_var, "^2", "-", cone.e_var, "*",
             cone.z_var, "<=", "0"]))

    out.append("Bounds")
    for v in ir.variables:
        if v.kind == "binary":
            if v.ub == 0.0:
                out.append(f" {v.name} = 0")
            continue
        if v.lb == v.ub:
            out.append(f" {v.name} = {_num(v.lb)}")
        elif v.ub == math.inf:
            out.append(f" {v.name} >= {_num(v.lb)}")
        else:
            out.append(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}")

    binaries = [v.name for v in ir.variables if v.kind == "binary"]
    if binaries:
        out.append("Binary")
        out.extend(_wrap(" ", binaries))
    out.append("End")
    return "\n".join(out) + "\n"


def export_lp(inst: Instance, form: str) -> str:
    if form in ("miqp",):
        return write_lp(build_miqp(inst))
    if form in ("persp", "misocp"):
        return write_lp(build_misocp(inst))
    raise ValueError(f"unknown formulation {form!r}")
