"""Domain model for spend-adjustment problems.

An instance is a set of marketing activities with baseline spends, per-activity
spend bounds, a minimum magnitude for any nonzero change, quadratic revenue
curves, a relative budget cap, optional extra linear constraints, and a cap on
how many activities may change at all.  Each activity's change variable lives
in one of three regions: decrease (L), stay at zero (S), or raise (R).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter, neg
from typing import Dict, Literal, Optional, Tuple, Union

import numpy as np

Region = Literal["L", "S", "R"]


class InstanceError(Exception):
    """Base class for instance-layer failures."""


class ParseError(InstanceError):
    """Malformed JSON or a field of the wrong type."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        super().__init__(message)
        self.line = line
        self.col = col


class SchemaError(InstanceError):
    """A required field is missing or an unknown field is present."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field = field_name


class InvalidActivityError(InstanceError):
    """An activity's fields violate the basic ordering/sign rules."""


class InvalidInstanceError(InstanceError):
    """Instance failed validation where a valid one is required."""


class UnsupportedInstanceError(InstanceError):
    """Instance is outside the supported envelope of an operation."""


_FIELDS = ("s", "l", "u", "delta", "theta", "phi", "psi")  # the numeric fields
_ROW_LENGTH = "extra {}: expected {} coefficients, got {}"  # extra row k's length, against n


def _activity_violations(name: str, fields: Sequence[float]) -> Tuple[str, ...]:
    """The activity rules that activity ``name`` with ``fields`` (in
    ``_FIELDS`` order) breaks: finite fields, then ``l <= s <= u``,
    ``theta <= 0`` and ``delta >= 0``."""
    s, l, u, delta, theta = fields[:5]
    if all(map(math.isfinite, fields)):
        rules = (("l > s", l > s), ("s > u", s > u), ("theta > 0", theta > 0),
                 ("delta < 0", delta < 0))
    else:
        rules = (("non-finite field", True),)
    return tuple(f"activity {name!r}: {rule}" for rule, broken in rules if broken)


@dataclass(frozen=True)
class LinearConstraint:
    """A linear row over the change variables, ``coeffs @ x (le|ge) rhs``.

    Coefficients are positional and aligned with the instance's activity
    order.
    """

    coeffs: Tuple[float, ...]
    sense: Literal["le", "ge"]
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(float, self.coeffs)))
        object.__setattr__(self, "rhs", float(self.rhs))

    def normalized(self) -> "LinearConstraint":
        """Return the equivalent <= form."""
        if self.sense == "le":
            return self
        return LinearConstraint(tuple(map(neg, self.coeffs)), "le", -self.rhs)


@dataclass(frozen=True, eq=False)
class Instance:
    """A full spend-adjustment problem.

    ``ids`` names the activities and ``fields`` holds their numbers, a
    read-only 7 x n float table, one row per field (``_FIELDS``): ``s`` the
    baseline spend, ``[l, u]`` the admissible spend interval (so the change
    ``x`` lives in ``[l - s, u - s]``), ``delta`` the minimum magnitude of
    any nonzero change, and ``theta/phi/psi`` the coefficients of the
    concave revenue response ``theta*x^2 + phi*x + psi``.  The budget
    right-hand side is derived from ``rho``: total change must not exceed
    ``(rho - 1) * sum(s)``.  At most ``m`` activities may change.
    Construction canonicalizes: activities are sorted by id (extra-row
    coefficients are permuted to match) and >= extras are normalized to <=.
    Instances compare by value; a NaN field is unequal, as a float is.
    """

    ids: Tuple[str, ...]
    fields: np.ndarray
    rho: float
    m: int
    extras: Tuple[LinearConstraint, ...] = ()

    def __post_init__(self):
        ids, fields = tuple(map(str, self.ids)), np.ascontiguousarray(self.fields, float)
        if fields.shape != (7, len(ids)):
            raise ValueError(f"fields: expected a 7 x {len(ids)} table, got shape {fields.shape}")
        order, extras = sorted(range(len(ids)), key=ids.__getitem__), self.extras
        if order != list(range(len(ids))):  # a row of another length is left as it is
            extras = tuple(LinearConstraint(tuple(ex.coeffs[i] for i in order), ex.sense, ex.rhs)
                           if len(ex.coeffs) == len(ids) else ex for ex in self.extras)
            ids, fields = tuple(map(ids.__getitem__, order)), fields[:, order]
        fields.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "extras", tuple(ex.normalized() for ex in extras))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "m", int(self.m))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        same = (self.ids, self.rho, self.m, self.extras) == (other.ids, other.rho, other.m, other.extras)
        return same and np.array_equal(self.fields, other.fields)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def budget_rhs(self) -> float:
        return (self.rho - 1.0) * math.fsum(self.columns["s"].tolist())

    @cached_property
    def psi_sum(self) -> float:
        """Revenue at zero change, the constant every bound and leaf adds."""
        return math.fsum(self.columns["psi"].tolist())

    @cached_property
    def columns(self) -> Dict[str, np.ndarray]:
        """Each row of ``fields`` (``s l u delta theta phi psi``) as a
        read-only float array in activity order, by name."""
        return dict(zip(_FIELDS, self.fields))

    @cached_property
    def _broken(self) -> np.ndarray:
        """The indices of the activities that break a rule of ``validate``
        (``_activity_violations``), read from the columns."""
        c = self.columns
        ok = (c["l"] <= c["s"]) & (c["s"] <= c["u"]) & (c["theta"] <= 0.0) & (c["delta"] >= 0.0)
        return (~(ok & np.isfinite(self.fields).all(axis=0))).nonzero()[0]

    @cached_property
    def claims(self) -> np.ndarray:
        """The claim table, read-only: column ``code*n + i`` is activity
        ``i`` claiming region ``code`` (``_region_codes``): lo and hi of its
        box (NaN if absent) and of its spend change, ``M*z`` and ``delta*z``
        (``M = max|spend change|``, ``z`` 1 off S).  The boxes follow the
        minimum-change rule: the decrease box ``[l-s, -delta]`` is there iff
        ``l-s <= -delta`` (+0.0 when delta is a zero), the raise box
        ``[delta, u-s]`` iff ``delta <= u-s``.  An instance with a broken
        activity is an ``InvalidActivityError`` naming the first."""
        if self._broken.size:
            first = self._broken[0]
            raise InvalidActivityError("; ".join(_activity_violations(
                self.ids[first], self.fields[:, first].tolist())))
        n, col, z = self.n, self.columns, np.array([[0.0], [1.0], [1.0], [0.0]])
        low, high, delta = col["l"] - col["s"], col["u"] - col["s"], col["delta"]
        neg_delta = 0.0 - delta  # +0.0 where delta is a zero
        box = np.vstack((np.zeros((2, n)), np.where(low <= neg_delta, (low, neg_delta), math.nan),
                         np.where(delta <= high, (delta, high), math.nan), np.full((2, n), math.nan)))
        claims = np.stack(np.broadcast_arrays(box[::2], box[1::2], low, high, np.maximum(
            np.abs(low), np.abs(high)) * z, delta * z)).reshape(6, -1)
        claims.flags.writeable = False
        return claims

    @cached_property
    def coupling(self) -> Tuple[np.ndarray, np.ndarray]:
        """The coupling rows ``A x <= b``, budget first, as read-only
        arrays ``(A, b)``.  An extra row of another length than ``n`` is an
        ``InvalidInstanceError`` in ``validate``'s words."""
        A = np.ones((1 + len(self.extras), self.n))
        for k, ex in enumerate(self.extras):
            if len(ex.coeffs) != self.n:
                raise InvalidInstanceError(_ROW_LENGTH.format(k, self.n, len(ex.coeffs)))
            A[k + 1] = ex.coeffs
        b = np.array([self.budget_rhs] + [ex.rhs for ex in self.extras])
        A.flags.writeable = b.flags.writeable = False
        return A, b


def _revenues(inst: Instance, x: np.ndarray) -> np.ndarray:
    """Each activity's revenue ``theta*x*x + phi*x + psi`` at its change,
    for the first ``len(x)``."""
    n, col = x.size, inst.columns
    return col["theta"][:n] * x * x + col["phi"][:n] * x + col["psi"][:n]


# the regions by code, 0 stay, 1 decrease, 2 raise (any other claim reads
# 3): a region's code is the row of its option in the node dual and the
# block of its columns in ``Instance.claims``, and ``1 << code`` its node bit
_REGIONS: Tuple[Region, ...] = ("S", "L", "R")
_CODE_OF = {region: code for code, region in enumerate(_REGIONS)}
_LETTER_CODE = np.array([_CODE_OF.get(chr(c), 3) for c in range(128)])


def _region_codes(regions: Sequence) -> np.ndarray:
    """The code of each claimed region, read from the claims' letters at
    once, or one claim at a time unless each is one ASCII letter."""
    try:
        letters = "".join(regions).encode("ascii", "replace")
    except TypeError:  # a claim that is not a string
        letters = b""
    if len(letters) == len(regions) and "" not in regions:
        return _LETTER_CODE.take(np.frombuffer(letters, np.uint8))
    return np.fromiter((_CODE_OF.get(r, 3) for r in regions), np.intp, len(regions))


@dataclass(frozen=True)
class Solution:
    """A candidate assignment: change vector, claimed regions, new spends."""

    x: Tuple[float, ...]
    region: Tuple[Region, ...]
    objective: float
    y: Tuple[float, ...]

    @classmethod
    def from_x(cls, inst: Instance, x: Sequence[float], region: Sequence[Region]) -> "Solution":
        """The solution with changes ``x``: its objective sums the revenues
        exactly (``math.fsum``), and its spends are ``s + x``."""
        v = np.asarray(x, dtype=float)
        head = v[:inst.n]
        obj = math.fsum(_revenues(inst, head).tolist())
        ys = tuple((inst.columns["s"][:head.size] + head).tolist())
        return cls(x=tuple(v.tolist()), region=tuple(region), objective=obj, y=ys)


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(inst: Instance) -> ValidationReport:
    """Field-level checks; returns all violations instead of raising.  The
    rules run on ``Instance.fields`` and the extra rows as arrays, and only
    activities that break one or repeat an id (ids are sorted) are worded."""
    n, ids = inst.n, inst.ids
    dup = {i for i in range(1, n) if ids[i] == ids[i - 1]} if len(set(ids)) < n else set()
    out = [] if n else ["instance has no activities"]
    for i in sorted(dup.union(inst._broken.tolist())):
        if i in dup:
            out.append(f"duplicate activity id {ids[i]!r}")
        out += _activity_violations(ids[i], inst.fields[:, i].tolist())
    if not (math.isfinite(inst.rho) and inst.rho > 0):
        out.append("rho must be finite and positive")
    if inst.m < 0:
        out.append("cardinality cap is negative")
    elif inst.m > n:
        out.append("cardinality cap exceeds activity count")
    for k, ex in enumerate(inst.extras):
        if len(ex.coeffs) != n:
            out.append(_ROW_LENGTH.format(k, n, len(ex.coeffs)))
        if not np.isfinite(np.fromiter(ex.coeffs + (ex.rhs,), float)).all():
            out.append(f"extra {k}: non-finite coefficient or rhs")
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# JSON persistence.  The document layout is fixed:
#   {"rho": number, "m": integer,
#    "activities": [{"id","s","l","u","delta","theta","phi","psi"}...],
#    "extras": [{"coeffs": [number...], "sense": "le"|"ge", "rhs": number}...]}
# Canonical output sorts activities by id, keeps keys in schema order and
# prints numbers with shortest round-trip decimals.

_TOP_KEYS = ("rho", "m", "activities", "extras")
_ACT_KEYS = ("id",) + _FIELDS
_ACT_KEY_SET = frozenset(_ACT_KEYS)
_EXTRA_KEYS = ("coeffs", "sense", "rhs")
_NUMBERS = {int, float}  # the types json.loads gives a number (bool is neither)
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's non-finite floats
# ``json.dumps(doc, indent=2)`` of the document, of one activity and of one extra row
_DOC_JSON = '{\n  "rho": %s,\n  "m": %s,\n  "activities": %s,\n  "extras": %s\n}\n'
_ACT_JSON = "{\n" + ",\n".join(f'      "{k}": %s' for k in _ACT_KEYS) + "\n    }"
_EXTRA_JSON = '{\n      "coeffs": %s,\n      "sense": %s,\n      "rhs": %s\n    }'


def _require_keys(doc: dict, keys: Sequence[str], ctx: str) -> None:
    for k in keys:
        if k not in doc:
            raise SchemaError(k, f"{ctx}: missing field {k!r}")
    for k in doc:
        if k not in keys:
            raise SchemaError(k, f"{ctx}: unknown field {k!r}")


def _finite_numbers(values: list) -> Optional[np.ndarray]:
    """``values`` as a float array if each is a finite number, checked at
    once; otherwise None."""
    if set(map(type, values)) <= _NUMBERS:
        with suppress(OverflowError):  # an integer beyond the float range
            array = np.array(values, float)
            if np.isfinite(array).all():
                return array
    return None


def _num(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{ctx}: expected a number, got {type(value).__name__}")
    if _finite_numbers([value]) is None:
        raise ParseError(f"{ctx}: expected a finite number")
    return float(value)


def _activity_columns(docs: list) -> Tuple[Sequence[str], np.ndarray]:
    """The ids and the 7 x n field table of the activities ``docs``,
    checked a column at a time; when a check fails they are checked one
    field at a time, which names the field."""
    if all(type(ad) is dict and ad.keys() == _ACT_KEY_SET for ad in docs):
        ids, *numbers = [list(map(itemgetter(k), docs)) for k in _ACT_KEYS]
        table = _finite_numbers(list(itertools.chain(*numbers)))
        if set(map(type, ids)) <= {str} and table is not None:
            return ids, table.reshape(7, -1)
    rows = []
    for i, ad in enumerate(docs):
        ctx = f"activities[{i}]"
        if not isinstance(ad, dict):
            raise ParseError(f"{ctx}: expected an object")
        _require_keys(ad, _ACT_KEYS, ctx)
        if not isinstance(ad["id"], str):
            raise ParseError(f"{ctx}.id: expected a string")
        rows.append([_num(ad[k], f"{ctx}.{k}") for k in _FIELDS])
    return [ad["id"] for ad in docs], np.array(rows, float).reshape(-1, 7).T


def load_json(data: Union[str, bytes]) -> Instance:
    """Parse an instance document.

    Raises ParseError for malformed JSON or wrongly-typed values and
    SchemaError for missing/unknown fields.  Semantic checks (orderings,
    signs, cardinality) are left to :func:`validate`.
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg} (line {e.lineno} column {e.colno})",
                         line=e.lineno, col=e.colno) from e
    except ValueError as e:  # not UTF-8, or an integer of too many digits
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    _require_keys(doc, _TOP_KEYS, "document")

    rho = _num(doc["rho"], "rho")
    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, int):
        raise ParseError("m: expected an integer")

    if not isinstance(doc["activities"], list):
        raise ParseError("activities: expected an array")
    ids, fields = _activity_columns(doc["activities"])

    if not isinstance(doc["extras"], list):
        raise ParseError("extras: expected an array")
    extras = []
    for k, ed in enumerate(doc["extras"]):
        ctx = f"extras[{k}]"
        if not isinstance(ed, dict):
            raise ParseError(f"{ctx}: expected an object")
        _require_keys(ed, _EXTRA_KEYS, ctx)
        if not isinstance(ed["coeffs"], list):
            raise ParseError(f"{ctx}.coeffs: expected an array")
        coeffs = ed["coeffs"]
        if _finite_numbers(coeffs) is None:
            coeffs = [_num(c, f"{ctx}.coeffs[{j}]") for j, c in enumerate(coeffs)]
        sense = ed["sense"]
        if sense not in ("le", "ge"):
            raise ParseError(f"{ctx}.sense: expected 'le' or 'ge'")
        extras.append(LinearConstraint(tuple(coeffs), sense, _num(ed["rhs"], f"{ctx}.rhs")))

    return Instance(ids, fields, rho, m, tuple(extras))


def _json_numbers(values: Sequence[float]) -> list:
    """Each float of ``values`` as ``json.dumps`` writes it."""
    text = list(map(float.__repr__, values))
    return text if all(map(math.isfinite, values)) else [_WORDS.get(t, t) for t in text]


def _json_array(items: list, indent: int) -> str:
    """The array of the JSON texts ``items``, one a line at ``indent``."""
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]" if items else "[]"


def save_json(inst: Instance) -> bytes:
    """Serialize to the canonical byte form (load(save(i)) == i): the bytes
    of ``json.dumps(doc, indent=2)`` and a newline, written from the
    columns."""
    n, words = inst.n, _json_numbers(inst.fields.ravel().tolist())
    fields = (words[k * n:(k + 1) * n] for k in range(7))
    acts = list(map(_ACT_JSON.__mod__, zip(map(encode_basestring_ascii, inst.ids), *fields)))
    extras = [_EXTRA_JSON % (_json_array(_json_numbers(ex.coeffs), 8),
                             encode_basestring_ascii(ex.sense), *_json_numbers([ex.rhs]))
              for ex in inst.extras]
    return (_DOC_JSON % (*_json_numbers([inst.rho]), int.__repr__(inst.m),
                         _json_array(acts, 4), _json_array(extras, 4))).encode("utf-8")
