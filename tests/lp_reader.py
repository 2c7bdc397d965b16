"""A tiny, independent reader for LP-format text.

Used by the export-fidelity tests to re-evaluate objective and rows without
touching the writer's code paths. Understands exactly the dialect the
exporter produces: a Maximize objective with an optional quadratic
``[ ... ] / 2`` bracket and constant term, linear and quadratic rows
(including ``e * z`` bilinear products), a Bounds section, a Binary section,
and End.  ``ir_objective`` and ``ir_row_activity`` evaluate the other side
of the round trip, the ``ModelIR`` the text was written from.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_SENSES = {"<=": "le", ">=": "ge", "=": "eq"}


@dataclass
class Expr:
    lin: Dict[str, float] = field(default_factory=dict)
    quad: Dict[str, float] = field(default_factory=dict)  # var -> coef of var^2
    bilin: Dict[Tuple[str, str], float] = field(default_factory=dict)
    const: float = 0.0

    def value(self, point: Dict[str, float]) -> float:
        total = self.const
        total += math.fsum(c * point.get(v, 0.0) for v, c in self.lin.items())
        total += math.fsum(c * point.get(v, 0.0) ** 2 for v, c in self.quad.items())
        total += math.fsum(
            c * point.get(a, 0.0) * point.get(b, 0.0) for (a, b), c in self.bilin.items()
        )
        return total


@dataclass
class Row:
    name: str
    expr: Expr
    sense: str
    rhs: float


@dataclass
class ParsedLP:
    objective: Expr
    rows: List[Row]
    bounds: Dict[str, Tuple[float, float]]
    binaries: List[str]

    def row(self, name: str) -> Row:
        matches = [r for r in self.rows if r.name == name]
        if len(matches) != 1:
            raise KeyError(name)
        return matches[0]

    def objective_at(self, point: Dict[str, float]) -> float:
        return self.objective.value(point)

    def row_activity(self, name: str, point: Dict[str, float]) -> float:
        return self.row(name).expr.value(point)


def _is_number(tok: str) -> Optional[float]:
    try:
        return float(tok)
    except ValueError:
        return None


def _parse_expr(tokens: List[str]) -> Expr:
    """Fold a token stream (already split on whitespace) into an Expr."""
    expr = Expr()
    sign = 1.0
    bracket: List[Tuple[str, str]] = []  # ("quad", var) entries added in-bracket
    in_bracket = False
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1.0
            i += 1
            continue
        if tok == "-":
            sign = -sign
            i += 1
            continue
        if tok == "[":
            in_bracket = True
            i += 1
            continue
        if tok == "]":
            # the bracket is followed by "/ 2": halve everything added inside
            if i + 2 >= len(tokens) or tokens[i + 1] != "/" or tokens[i + 2] != "2":
                raise ValueError("quadratic bracket not followed by / 2")
            for kind, var in set(bracket):
                if kind == "quad":
                    expr.quad[var] /= 2.0
                else:
                    expr.lin[var] /= 2.0
            bracket.clear()
            in_bracket = False
            i += 3
            continue

        num = _is_number(tok)
        if num is not None and (i + 1 == len(tokens) or _leads_term(tokens, i + 1)):
            expr.const += sign * num
            sign = 1.0
            i += 1
            continue

        coef = 1.0
        if num is not None:
            coef = num
            i += 1
            tok = tokens[i]
        var = tok
        if i + 1 < len(tokens) and tokens[i + 1] == "^2":
            expr.quad[var] = expr.quad.get(var, 0.0) + sign * coef
            if in_bracket:
                bracket.append(("quad", var))
            i += 2
        elif i + 2 < len(tokens) and tokens[i + 1] == "*":
            other = tokens[i + 2]
            key = tuple(sorted((var, other)))
            expr.bilin[key] = expr.bilin.get(key, 0.0) + sign * coef
            i += 3
        else:
            expr.lin[var] = expr.lin.get(var, 0.0) + sign * coef
            if in_bracket:
                bracket.append(("lin", var))
            i += 1
        sign = 1.0
    return expr


def _leads_term(tokens: List[str], i: int) -> bool:
    """True when position i starts a new term (so the number before it was a constant)."""
    return tokens[i] in ("+", "-", "[", "]")


def _split_items(lines: List[str]) -> List[List[str]]:
    """Group wrapped physical lines into logical ``name: body`` items."""
    items: List[List[str]] = []
    for line in lines:
        toks = line.split()
        if not toks:
            continue
        if toks[0].endswith(":"):
            items.append(toks)
        else:
            if not items:
                raise ValueError(f"continuation line before any item: {line!r}")
            items[-1].extend(toks)
    return items


def _parse_constrained(tokens: List[str]) -> Tuple[Expr, str, float]:
    for pos in range(len(tokens) - 1, -1, -1):
        if tokens[pos] in _SENSES:
            rhs = float(tokens[pos + 1])
            return _parse_expr(tokens[:pos]), _SENSES[tokens[pos]], rhs
    raise ValueError("row without a sense token")


def _parse_bound_line(line: str, bounds: Dict[str, Tuple[float, float]]) -> None:
    toks = line.split()
    if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
        bounds[toks[2]] = (float(toks[0]), float(toks[4]))
    elif len(toks) == 3 and toks[1] == "=":
        v = float(toks[2])
        bounds[toks[0]] = (v, v)
    elif len(toks) == 3 and toks[1] == ">=":
        bounds[toks[0]] = (float(toks[2]), math.inf)
    else:
        raise ValueError(f"unrecognized bound line: {line!r}")


def parse_lp(text: str) -> ParsedLP:
    sections: Dict[str, List[str]] = {}
    current: Optional[str] = None
    for raw in text.splitlines():
        if raw.startswith("\\"):
            continue
        stripped = raw.strip()
        header = stripped.lower()
        if header in ("maximize", "subject to", "bounds", "binary", "end"):
            current = header
            sections.setdefault(current, [])
            continue
        if stripped and current is not None:
            sections[current].append(raw)

    if "maximize" not in sections:
        raise ValueError("no Maximize section")

    obj_items = _split_items(sections["maximize"])
    if len(obj_items) != 1:
        raise ValueError("expected exactly one objective")
    objective = _parse_expr(obj_items[0][1:])  # drop "obj:"

    rows: List[Row] = []
    for toks in _split_items(sections.get("subject to", [])):
        name = toks[0][:-1]
        expr, rsense, rhs = _parse_constrained(toks[1:])
        rows.append(Row(name=name, expr=expr, sense=rsense, rhs=rhs))

    bounds: Dict[str, Tuple[float, float]] = {}
    for line in sections.get("bounds", []):
        _parse_bound_line(line, bounds)

    binaries: List[str] = []
    for line in sections.get("binary", []):
        binaries.extend(line.split())

    if "end" not in sections:
        raise ValueError("missing End marker")
    return ParsedLP(objective=objective, rows=rows, bounds=bounds, binaries=binaries)


def ir_objective(ir, point: Dict[str, float]) -> float:
    """The objective of a ``ModelIR`` at ``point`` (every variable named)."""
    total = ir.const_obj
    for v1, v2, c in ir.quad_obj:
        total += c * point[v1] * point[v2]
    for v, c in ir.lin_obj:
        total += c * point[v]
    return total


def ir_row_activity(row, point: Dict[str, float]) -> float:
    """The left-hand side of a ``ModelIR`` row at ``point``."""
    return math.fsum(c * point[v] for v, c in row.coeffs)
