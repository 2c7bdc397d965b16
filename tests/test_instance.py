"""Region preprocessing, validation, and JSON persistence."""

import dataclasses
import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixopt import (
    GenConfig,
    Instance,
    InvalidActivityError,
    LinearConstraint,
    ParseError,
    SchemaError,
    SolveParams,
    Solution,
    ValidationReport,
    branch_and_bound,
    batch,
    check_minlp_feasible,
    export_lp,
    generate,
    load_json,
    paper_cells,
    save_json,
    validate,
)
from mixopt.instance import _CODE_OF
from mixopt.relax import _InstanceArrays, _instance_arrays

from activity_reference import FIELDS, Act, activities, claimed, instance_of
from activity_reference import regions as reference_regions
from conftest import random_instance
from json_reference import save_json as reference_save_json
from validation_reference import validate as reference_validate

# dyadic gap values keep l = s - gl and u = s + gu exactly representable,
# so region bounds can be compared with == rather than a tolerance
GAPS = (0.0, 0.25, 0.5, 1.0, 2.5, 6.0)
DELTAS = (0.0, 0.25, 0.5, 1.0, 2.5, 6.0)
BASE = 8.0


def _make(gl, gu, delta):
    return Act(
        id="a",
        s=BASE,
        l=BASE - gl,
        u=BASE + gu,
        delta=delta,
        theta=-1.0,
        phi=1.0,
        psi=0.0,
    )


def _one(a):
    """The one-activity instance of ``a``."""
    return instance_of((a,), rho=1.0, m=1, extras=())


def _regions(a):
    """The regions the one-activity instance of ``a`` claims."""
    return claimed(_one(a))[0]


def _stay_box(a):
    """The box a one-activity instance of ``a`` holds for claiming S."""
    return _one(a).claims[:2, _CODE_OF["S"]].tolist()


def test_region_grid_exhaustive():
    """Every existence/bound rule over orderings of (l-s, -delta, 0, delta, u-s).

    The gap grids include 0 and repeat each delta value, so all three
    orderings (<, ==, >) of l-s vs -delta and of u-s vs delta are hit.
    """
    t0 = time.perf_counter()
    cases = 0
    for gl, gu, delta in itertools.product(GAPS, GAPS, DELTAS):
        a = _make(gl, gu, delta)
        rb = _regions(a)
        lo, hi = a.l - a.s, a.u - a.s

        # decrease region exists iff l - s <= -delta, range [l-s, -delta]
        assert (rb.L is not None) == (lo <= -delta)
        if lo <= -delta:
            assert rb.L == (lo, -delta)
        else:
            assert rb.L is None

        # increase region exists iff delta <= u - s, range [delta, u-s]
        assert (rb.R is not None) == (delta <= hi)
        if delta <= hi:
            assert rb.R == (delta, hi)
        else:
            assert rb.R is None

        # no-change region always exists and is the origin
        assert _stay_box(a) == [0.0, 0.0]
        cases += 1
    assert cases == len(GAPS) * len(GAPS) * len(DELTAS)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "s,l,u,delta,expect_L,expect_R",
    [
        (5.0, 1.0, 10.0, 2.0, (-4.0, -2.0), (2.0, 5.0)),
        (1.0, 1.0, 10.0, 2.0, None, (2.0, 9.0)),
        (9.0, 1.0, 10.0, 2.0, (-8.0, -2.0), None),
        (5.0, 5.0, 5.0, 1.0, None, None),
    ],
)
def test_region_worked_examples(s, l, u, delta, expect_L, expect_R):
    rb = _regions(Act(id="a", s=s, l=l, u=u, delta=delta, theta=-1.0, phi=0.0, psi=0.0))
    assert rb.L == expect_L
    assert rb.R == expect_R


def test_zero_delta_regions_touch_origin():
    zero_delta = Act(id="a", s=5.0, l=1.0, u=10.0, delta=0.0, theta=-1.0, phi=0.0, psi=0.0)
    rb = _regions(zero_delta)
    assert rb.L == (-4.0, 0.0)
    assert rb.R == (0.0, 5.0)
    assert _stay_box(zero_delta) == [0.0, 0.0]


def test_instance_caches_regions(rng):
    """The claim table is the instance's one region table: built once, and
    holding the reference's boxes (``activity_reference.regions``)."""
    inst = random_instance(rng, 6)
    assert inst.claims is inst.claims  # cached, not rebuilt per access
    assert claimed(inst) == reference_regions(inst)
    assert len(claimed(inst)) == inst.n == 6


# spends and gaps that hit the rule's edges: signed zeros, dyadic values
# whose differences are exact, and values whose differences round
_SPOTS = st.sampled_from((0.0, -0.0, 0.25, 1.0, 8.0, 0.1, 0.7, 1e300)) | st.floats(
    -1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _rule_activities(draw, index):
    """An activity with ``l <= s <= u`` drawn from ``_SPOTS`` (equal values
    in draw order, so either signed zero can come first) and a minimum
    change at a tie (``l-s == -delta`` or ``delta == u-s``), one ulp off
    one, at a zero of either sign, or elsewhere; at times broken by one
    rule of ``validate``."""
    l, s, u = sorted(draw(st.lists(_SPOTS, min_size=3, max_size=3)))
    delta = draw(st.sampled_from((s - l, u - s, 0.0, -0.0)) | st.floats(0.0, 1e6))
    delta = draw(st.sampled_from((delta, delta, math.nextafter(delta, math.inf),
                                  max(0.0, math.nextafter(delta, -math.inf)))))
    fields = dict(s=s, l=l, u=u, delta=delta, theta=-1.0, phi=0.5, psi=0.0)
    brk = draw(st.sampled_from((None,) * 6 + ("l", "u", "theta", "delta", "phi")))
    if brk is not None:
        fields[brk] = {"l": u + 1.0, "u": l - 1.0, "theta": 1.0, "delta": -1.0,
                       "phi": math.nan}[brk]
    return Act(id=f"a{index}", **fields)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(*(_rule_activities(i) for i in range(n)))))
def test_claims_match_the_region_oracle(acts):
    """``Instance.claims`` gives the scalar reference's boxes
    (``activity_reference.region_bounds``), compared by ``repr`` so that
    the sign of a zero counts, on activities at and next to the rule's
    ties, each alone and all together; and on an instance with a broken
    activity, the claims refuse it in the reference's words, naming the
    first."""
    inst = instance_of(acts, rho=1.0, m=1)
    for part in [inst] + list(map(_one, activities(inst))):
        assert _told(claimed, part) == _told(reference_regions, part)


def _told(table, inst):
    """``repr`` of ``table(inst)``, or of the ``InvalidActivityError`` it
    raises."""
    try:
        return repr(table(inst))
    except InvalidActivityError as refused:
        return repr(refused)


def test_budget_rhs():
    a = Act(id="a", s=4.0, l=1.0, u=8.0, delta=0.5, theta=-1.0, phi=1.0, psi=0.0)
    b = Act(id="b", s=6.0, l=1.0, u=8.0, delta=0.5, theta=-1.0, phi=1.0, psi=0.0)
    inst = instance_of((a, b), rho=1.05, m=2, extras=())
    assert inst.budget_rhs == pytest.approx(0.05 * 10.0)
    cut = dataclasses.replace(inst, rho=0.9)
    assert cut.budget_rhs == pytest.approx(-1.0)  # budget cuts are legal


# ---------------------------------------------------------------------------
# validation


def _single(**kw):
    base = dict(id="a", s=2.0, l=1.0, u=5.0, delta=0.5, theta=-1.0, phi=1.0, psi=0.0)
    base.update(kw)
    return instance_of((Act(**base),), rho=1.0, m=1, extras=())


@pytest.mark.parametrize(
    "kw,fragment",
    [
        (dict(u=0.5), "s > u"),
        (dict(s=0.5), "l > s"),
        (dict(delta=-1.0), "delta < 0"),
        (dict(theta=1.0), "theta > 0"),
        (dict(phi=float("nan")), "non-finite field"),
        (dict(u=float("inf")), "non-finite field"),
    ],
)
def test_validate_flags_bad_activities(kw, fragment):
    """One list of activity rules: ``validate`` reports each broken rule,
    and ``Instance.claims`` refuses it with ``InvalidActivityError`` in the
    same words."""
    inst = _single(**kw)
    message = f"activity 'a': {fragment}"
    assert validate(inst).violations == (message,)
    with pytest.raises(InvalidActivityError) as refused:
        inst.claims
    assert str(refused.value) == message


def test_validate_flags_instance_level_problems():
    a = Act(id="a", s=2.0, l=1.0, u=5.0, delta=0.5, theta=-1.0, phi=1.0, psi=0.0)
    assert any("duplicate" in v for v in validate(instance_of((a, a), 1.0, 1, ())).violations)
    assert any("cardinality" in v for v in validate(instance_of((a,), 1.0, 5, ())).violations)
    assert any("cardinality" in v for v in validate(instance_of((a,), 1.0, -1, ())).violations)
    assert any("rho" in v for v in validate(instance_of((a,), -1.0, 1, ())).violations)
    bad_row = LinearConstraint(coeffs=(1.0, 2.0), sense="le", rhs=0.0)
    assert any("expected 1" in v for v in validate(instance_of((a,), 1.0, 1, (bad_row,))).violations)


def test_validate_accepts_clean_instances(rng):
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 8), with_extras=True)
        assert validate(inst).ok, validate(inst).violations


def test_zero_delta_is_valid():
    assert validate(_single(delta=0.0)).ok


# the ways ``_broken`` breaks an instance, one rule each
BREAKS = ("non-finite", "l > s", "s > u", "theta > 0", "delta < 0", "two copies",
          "three copies", "rho", "m < 0", "m > n", "no activities", "short row",
          "long row", "non-finite coefficient", "non-finite rhs")
_NON_FINITE = (math.nan, math.inf, -math.inf)


def _broken(rng, inst, breaks):
    """``inst`` with each of ``breaks`` applied, each to a random activity,
    extra row or field where it needs one."""
    acts, rho, m, extras = list(activities(inst)), inst.rho, inst.m, list(inst.extras)
    for kind in breaks:
        i = rng.randrange(len(acts)) if acts else None
        if kind == "no activities":
            acts = []
        elif kind == "rho":
            rho = rng.choice((0.0, -1.0) + _NON_FINITE)
        elif kind == "m < 0":
            m = -rng.randint(1, 3)
        elif kind == "m > n":
            m = len(acts) + rng.randint(1, 3)
        elif kind in ("short row", "long row", "non-finite coefficient", "non-finite rhs"):
            k = rng.randrange(len(extras)) if extras else None
            if k is None:
                continue
            coeffs, rhs = list(extras[k].coeffs), extras[k].rhs
            if kind == "short row":
                coeffs = coeffs[:-1]
            elif kind == "long row":
                coeffs.append(rng.uniform(1.0, 10.0))
            elif kind == "non-finite rhs":
                rhs = rng.choice(_NON_FINITE)
            elif coeffs:
                coeffs[rng.randrange(len(coeffs))] = rng.choice(_NON_FINITE)
            extras[k] = LinearConstraint(tuple(coeffs), "le", rhs)
        elif i is None:
            continue
        elif kind in ("two copies", "three copies"):
            for j in rng.sample(range(len(acts)), min(len(acts), 2 + (kind == "three copies"))):
                acts[j] = acts[j]._replace(id=acts[i].id)
        else:
            a = acts[i]
            acts[i] = a._replace(**{
                "non-finite": {rng.choice(("s", "l", "u", "delta", "theta", "phi", "psi")):
                               rng.choice(_NON_FINITE)},
                "l > s": {"l": a.s + rng.choice((1e-9, 1.0))},
                "s > u": {"u": a.s - rng.choice((1e-9, 1.0))},
                "theta > 0": {"theta": rng.choice((1e-300, 2.0))},
                "delta < 0": {"delta": rng.choice((-1e-300, -1.0))},
            }[kind])
    return instance_of(acts, rho, m, tuple(extras))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(BREAKS), max_size=4))
def test_validate_matches_the_loop_reference(seed, breaks):
    """``validate`` gives the activity loop's report
    (``tests/validation_reference.py``), message for message and in order,
    on random instances (n from 0 to 8, with and without the two extra rows)
    broken in up to four ways at once: non-finite fields, each activity
    rule, two or three copies of one id, a bad ``rho``, ``m`` below 0 or
    above n, no activities, and extra rows of the wrong length or with a
    non-finite coefficient or right-hand side."""
    rng = random.Random(seed)
    inst = random_instance(rng, rng.randint(1, 8), with_extras=rng.random() < 0.7)
    inst = _broken(rng, inst, breaks)
    assert validate(inst).violations == reference_validate(inst)


@pytest.mark.parametrize("field", ("s", "l", "u", "delta", "theta", "phi", "psi"))
@pytest.mark.parametrize("value", _NON_FINITE)
def test_validate_flags_every_non_finite_field(field, value):
    """Each field of the middle activity at NaN or at either infinity:
    ``validate`` reports that activity alone, in the reference's words."""
    inst = random_instance(random.Random(5), 5, with_extras=True)
    acts = list(activities(inst))
    acts[2] = acts[2]._replace(**{field: value})
    inst = instance_of(acts, inst.rho, inst.m, inst.extras)
    assert validate(inst).violations == reference_validate(inst) == (
        f"activity {acts[2].id!r}: non-finite field",)


@pytest.mark.parametrize("kind", BREAKS)
def test_validate_reports_each_break_as_the_reference(kind):
    """Each way of breaking an instance, alone, on instances with both extra
    rows: ``validate`` reports it, and in the loop reference's words."""
    rng = random.Random(BREAKS.index(kind))
    for _ in range(20):
        inst = _broken(rng, random_instance(rng, rng.randint(3, 8), with_extras=True), [kind])
        assert validate(inst).violations == reference_validate(inst) != ()


# ---------------------------------------------------------------------------
# persistence


def test_json_round_trip(rng):
    inst = random_instance(rng, 5, with_extras=True)
    blob = save_json(inst)
    back = load_json(blob)
    assert back == inst
    # canonical bytes: serialization is a pure function of the instance
    assert save_json(back) == blob


def test_load_json_accepts_str_and_bytes(rng):
    inst = random_instance(rng, 3)
    blob = save_json(inst)
    assert load_json(blob.decode("utf-8")) == inst
    assert load_json(blob) == inst


def test_ge_extra_normalized_to_le(rng):
    inst = random_instance(rng, 4, with_extras=True)
    # construction normalizes every row to <= form
    assert all(row.sense == "le" for row in inst.extras)
    ge = LinearConstraint(coeffs=(1.0, -2.0), sense="ge", rhs=3.0)
    assert ge.normalized() == LinearConstraint(coeffs=(-1.0, 2.0), sense="le", rhs=-3.0)


def test_construction_sorts_by_id_and_permutes_rows():
    """Activities are sorted by id, and the coefficients of every extra row
    of matching length follow them; a row of another length is left for
    ``validate`` to flag."""
    b = Act(id="b", s=2.0, l=1.0, u=5.0, delta=0.5, theta=-1.0, phi=1.0, psi=0.0)
    a = b._replace(id="a", phi=2.0)
    rows = (LinearConstraint(coeffs=(1.0, 2.0), sense="le", rhs=3.0),
            LinearConstraint(coeffs=(4.0, 5.0), sense="ge", rhs=6.0),
            LinearConstraint(coeffs=(7.0, 8.0, 9.0), sense="le", rhs=1.0))
    inst = instance_of((b, a), rho=1.0, m=1, extras=rows)
    assert activities(inst) == (a, b)
    assert inst.extras == (LinearConstraint((2.0, 1.0), "le", 3.0),
                           LinearConstraint((-5.0, -4.0), "le", -6.0),
                           rows[2])
    assert any("expected 2" in v for v in validate(inst).violations)
    # an instance already in id order is kept as given
    assert instance_of((a, b), rho=1.0, m=1, extras=rows[:1]).extras == rows[:1]


@pytest.mark.parametrize(
    "payload,exc",
    [
        ("{not json", ParseError),
        ("[1, 2]", ParseError),
        ('{"rho": 1.0}', SchemaError),
        ('{"rho": 1.0, "m": 0, "activities": [{"id": "a"}], "extras": []}', SchemaError),
    ],
)
def test_load_json_rejects_garbage(payload, exc):
    with pytest.raises(exc):
        load_json(payload)


def _doc(**changes):
    """A valid one-activity, one-extra document with ``changes`` applied:
    a key ``"activities[0].s"`` or ``"extras[0].sense"`` sets that field
    of the entry."""
    doc = {"rho": 1.05, "m": 1,
           "activities": [dict(id="a", s=2.0, l=1.0, u=5.0, delta=0.5, theta=-1.0,
                               phi=1.0, psi=0.0)],
           "extras": [{"coeffs": [1.0], "sense": "le", "rhs": 1.0}]}
    for key, value in changes.items():
        owner, _, field = key.rpartition(".")
        (doc[owner[:-3]][0] if owner else doc)[field] = value
    return json.dumps(doc)


_FIELDS = ("s", "l", "u", "delta", "theta", "phi", "psi")


@pytest.mark.parametrize("changes,exc,message", [
    ({"zeta": 1}, SchemaError, "document: unknown field 'zeta'"),
    ({"activities[0].zeta": 1}, SchemaError, "activities[0]: unknown field 'zeta'"),
    ({"extras[0].zeta": 1}, SchemaError, "extras[0]: unknown field 'zeta'"),
    ({"rho": "1.05"}, ParseError, "rho: expected a number, got str"),
    ({"rho": True}, ParseError, "rho: expected a number, got bool"),
    ({"rho": math.inf}, ParseError, "rho: expected a finite number"),
    ({"rho": -math.inf}, ParseError, "rho: expected a finite number"),
    ({"rho": math.nan}, ParseError, "rho: expected a finite number"),
    ({"m": 1.0}, ParseError, "m: expected an integer"),
    ({"m": False}, ParseError, "m: expected an integer"),
    ({"activities": {}}, ParseError, "activities: expected an array"),
    ({"activities": [1]}, ParseError, "activities[0]: expected an object"),
    ({"activities[0].id": 3}, ParseError, "activities[0].id: expected a string"),
    *[({f"activities[0].{k}": "1"}, ParseError,
       f"activities[0].{k}: expected a number, got str") for k in _FIELDS],
    *[({f"activities[0].{k}": True}, ParseError,
       f"activities[0].{k}: expected a number, got bool") for k in _FIELDS],
    *[({f"activities[0].{k}": math.inf}, ParseError,
       f"activities[0].{k}: expected a finite number") for k in _FIELDS],
    ({"extras": None}, ParseError, "extras: expected an array"),
    ({"extras": ["le"]}, ParseError, "extras[0]: expected an object"),
    ({"extras[0].coeffs": 1.0}, ParseError, "extras[0].coeffs: expected an array"),
    ({"extras[0].coeffs": [None]}, ParseError,
     "extras[0].coeffs[0]: expected a number, got NoneType"),
    ({"extras[0].sense": "eq"}, ParseError, "extras[0].sense: expected 'le' or 'ge'"),
    ({"extras[0].rhs": math.nan}, ParseError, "extras[0].rhs: expected a finite number"),
])
def test_load_json_error_messages(changes, exc, message):
    """Each refusal of ``load_json`` has its type and exact message; an
    ``Infinity`` or ``NaN`` literal is no finite number."""
    with pytest.raises(exc) as info:
        load_json(_doc(**changes))
    assert str(info.value) == message
    assert type(info.value) is exc


_HUGE = "1" + "0" * 400  # an integer beyond the largest float


@pytest.mark.parametrize("blob,message", [
    (b"\xff" + _doc().encode(), "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
    (_doc(rho="RHO").replace('"RHO"', _HUGE).encode(), "rho: expected a finite number"),
    (_doc(rho="RHO").replace('"RHO"', "-" + _HUGE), "rho: expected a finite number"),
    (_doc(**{"activities[0].u": "U"}).replace('"U"', _HUGE),
     "activities[0].u: expected a finite number"),
    (_doc(**{"extras[0].coeffs": ["C"]}).replace('"C"', _HUGE),
     "extras[0].coeffs[0]: expected a finite number"),
    (_doc(rho="RHO").replace('"RHO"', "1" + "0" * 4300),
     "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["not-utf8", "huge-rho", "huge-negative-rho", "huge-u", "huge-coeff", "4301-digits"])
def test_load_json_refuses_malformed_files(blob, message):
    """A file that is not UTF-8, or holds an integer too large for a float
    or for Python's integer parser, is a ``ParseError``."""
    with pytest.raises(ParseError) as info:
        load_json(blob)
    assert str(info.value).startswith(message)


def _many(**changes):
    """A valid document of four activities and one extra row with
    ``changes`` applied: a key ``"activities[i].k"`` sets field ``k`` of
    activity ``i`` (``...k=None`` deletes it), ``"activities[i]"`` replaces
    the entry, and ``"extras[0].coeffs[j]"`` sets one coefficient."""
    doc = json.loads(save_json(generate(GenConfig("weak", 4, 0.1, 0.5, 2))))
    del doc["extras"][1]
    for key, value in changes.items():
        owner, _, field = key.rpartition(".")
        if not owner:
            name, index = field[:-1].split("[")
            doc[name][int(index)] = value
        elif field.startswith("coeffs["):
            doc["extras"][0]["coeffs"][int(field[7:-1])] = value
        else:
            entry = doc["activities"][int(owner[11:-1])]
            entry.pop(field) if value is None else entry.__setitem__(field, value)
    return json.dumps(doc)


@pytest.mark.parametrize("changes,exc,message", [
    ({"activities[2].phi": True}, ParseError, "activities[2].phi: expected a number, got bool"),
    ({"activities[2].l": "1"}, ParseError, "activities[2].l: expected a number, got str"),
    ({"activities[3].psi": math.nan}, ParseError, "activities[3].psi: expected a finite number"),
    ({"activities[1].id": 7}, ParseError, "activities[1].id: expected a string"),
    ({"activities[2]": [1.0]}, ParseError, "activities[2]: expected an object"),
    ({"activities[3].u": None}, SchemaError, "activities[3]: missing field 'u'"),
    ({"activities[1].zeta": 0.0}, SchemaError, "activities[1]: unknown field 'zeta'"),
    # the first entry that breaks a check is named, whatever the later ones break
    ({"activities[1].delta": math.inf, "activities[2].zeta": 0.0, "activities[3]": 5},
     ParseError, "activities[1].delta: expected a finite number"),
    ({"activities[0].s": 2, "activities[2].theta": False}, ParseError,
     "activities[2].theta: expected a number, got bool"),
    ({"extras[0].coeffs[3]": math.inf}, ParseError,
     "extras[0].coeffs[3]: expected a finite number"),
    ({"extras[0].coeffs[1]": True, "extras[0].coeffs[2]": None}, ParseError,
     "extras[0].coeffs[1]: expected a number, got bool"),
])
def test_load_json_names_the_first_bad_entry(changes, exc, message):
    """Among many activities and coefficients, a refusal names the first
    field that breaks a check, as the field-by-field checks always did."""
    with pytest.raises(exc) as info:
        load_json(_many(**changes))
    assert str(info.value) == message
    assert type(info.value) is exc


def test_load_json_takes_integers_as_floats():
    """A document that writes some numbers as integers loads to the same
    instance as the one that writes them all as floats, with every field
    and coefficient stored as a float."""
    rows = [("a", 2, 1.0, 5, 0.5, -1, 4.25, 0), ("b", 3.5, 2, 6.0, 1, -2.5, 3, 1.5),
            ("c", 4.0, 3.0, 8.0, 0.0, -0.5, 1.0, 2.0)]
    keys = ("id", "s", "l", "u", "delta", "theta", "phi", "psi")
    mixed = {"rho": 1, "m": 2, "activities": [dict(zip(keys, r)) for r in rows],
             "extras": [{"coeffs": [1, 2.5, 3], "sense": "ge", "rhs": -4}]}
    floats = dict(json.loads(json.dumps(mixed), parse_int=float), m=2)
    assert any(type(v) is int for entry in mixed["activities"] for v in entry.values())
    back = load_json(json.dumps(mixed))
    assert back == load_json(json.dumps(floats))
    assert save_json(back) == save_json(load_json(json.dumps(floats)))
    assert back.fields.dtype == np.float64
    assert {type(c) for ex in back.extras for c in ex.coeffs + (ex.rhs,)} == {float}
    assert type(back.rho) is float


def test_instance_stores_str_and_float():
    """Ids given as ints or numpy strings are stored as ``str``, fields
    given as numpy scalars, ints or bools as ``float`` in a float table,
    ``rho`` as ``float`` and ``m`` as ``int``."""
    inst = Instance([np.str_("a"), 3], [[np.float64(2.5), 2.5], [1, 1.0], [np.int64(5), 5.0],
                                        [True, 0.5], [np.float32(-1.5), -1.0], [False, 1.0],
                                        [np.float64(0.25), 0.0]], np.float64(1.05), np.int64(1))
    assert inst.ids == ("3", "a") and [type(i) for i in inst.ids] == [str, str]
    assert inst.fields.dtype == np.float64 and type(inst.rho) is float and type(inst.m) is int
    assert activities(inst)[1] == ("a", 2.5, 1.0, 5.0, 1.0, -1.5, 0.0, 0.25)


_PAIR = (Act("a", 2.0, 1.0, 5.0, 0.5, -1.0, 1.0, 0.0), Act("b", 3.0, 1.0, 5.0, 0.5, -1.0, 2.0, 0.0))
_ROW = LinearConstraint((1.0, 2.0), "le", 1.0)


def _pair(acts=_PAIR, rho=1.05, m=1, extras=(_ROW,)):
    return instance_of(acts, rho, m, extras)


def test_instance_compares_by_value():
    """Two separate builds of one instance are equal; a change to an id,
    to any one field, to ``rho``, to ``m`` or to one extra coefficient makes
    them unequal.  A NaN field is unequal across builds, as a float is, and
    a -0.0 field equals 0.0."""
    base = _pair()
    assert base == _pair() and base.fields is not _pair().fields
    changed = [_pair(acts=(_PAIR[0]._replace(id="c"), _PAIR[1])), _pair(rho=1.1), _pair(m=2),
               _pair(extras=(LinearConstraint((1.0, 2.5), "le", 1.0),))]
    changed += [_pair(acts=(_PAIR[0]._replace(**{k: getattr(_PAIR[0], k) + 0.25}), _PAIR[1]))
                for k in FIELDS]
    assert all(base != other and other != base for other in changed)
    nan = (_PAIR[0]._replace(psi=math.nan), _PAIR[1])
    assert _pair(acts=nan) != _pair(acts=nan)
    assert _pair(acts=(_PAIR[0]._replace(psi=-0.0), _PAIR[1])) == base


def test_instance_table_is_read_only_and_of_its_shape():
    """``fields`` is read-only and taken without a copy when it is a
    C-contiguous float table in id order; a table that is not 7 x n is a
    ``ValueError``; ``dataclasses.replace`` keeps the table."""
    table = np.array([[float(k), k + 0.5] for k in range(7)])
    inst = Instance(("a", "b"), table, 1.05, 1)
    assert inst.fields is table and not table.flags.writeable
    with pytest.raises(ValueError):
        inst.fields[0, 0] = 1.0
    assert dataclasses.replace(inst, extras=()).fields is table
    for wrong in (np.zeros((6, 2)), np.zeros((7, 3)), np.zeros((2, 7)), np.zeros(14)):
        with pytest.raises(ValueError, match="expected a 7 x 2 table"):
            Instance(("a", "b"), wrong, 1.05, 1)


def test_instance_tables_have_one_owner():
    """The claim table and the coupling rows are built once, on the
    instance, and read-only; the solver's duals take them, and the activity
    columns, without a copy; and checking a solution builds no dual."""
    cfg = GenConfig("strong", 12, 0.1, 0.75, 0)
    inst = generate(cfg)
    A, b = inst.coupling
    assert inst.claims is inst.claims and inst.coupling is inst.coupling
    assert inst.claims.shape == (6, 4 * inst.n)
    assert A.shape == (1 + len(inst.extras), inst.n) and b.tolist() == (
        [inst.budget_rhs] + [ex.rhs for ex in inst.extras])
    for table in (inst.claims, A, b):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    arrays = _instance_arrays(inst)
    assert len(_InstanceArrays.__slots__) <= 7
    assert arrays.node.A is A and arrays.leaf.A is A
    assert arrays.node.theta is inst.columns["theta"]
    res = branch_and_bound(inst, SolveParams(node_limit=10))
    fresh = generate(cfg)
    report = check_minlp_feasible(fresh, res.incumbent)
    assert isinstance(report, ValidationReport) and report.ok
    assert "_kernel_arrays" not in fresh.__dict__


def test_solution_from_x():
    a = Act(id="a", s=2.0, l=1.0, u=5.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.25)
    inst = instance_of((a,), rho=2.0, m=1, extras=())
    sol = Solution.from_x(inst, [1.0], ["R"])
    assert sol.objective == pytest.approx(-1.0 + 4.0 + 0.25)
    assert sol.y == (3.0,)
    assert sol.region == ("R",)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
def test_round_trip_property(seed, n):
    import random

    inst = random_instance(random.Random(seed), n, with_extras=bool(seed % 2))
    assert load_json(save_json(inst)) == inst


# ids that need escaping, and repeats; numbers of every kind a field can hold
_IDS = st.one_of(st.sampled_from(["a", "b", "", 'q"', "back\\slash", "tab\t", "\x00\x1f",
                                  "\u00e9t\u00e9", "\u2603", "\U0001f600"]), st.text(max_size=6))
_NUMBERS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                                  5e-324, 1.7976931348623157e308, 1e16, 0.1]),
                     st.integers(-2**70, 2**70))


@st.composite
def _any_instance(draw):
    """An instance the generator never emits: any ids, in any order and
    repeated, any numbers, ``ge`` rows and rows of another length."""
    n = draw(st.integers(0, 5))
    acts = [Act(draw(_IDS), *draw(st.lists(_NUMBERS, min_size=7, max_size=7)))
            for _ in range(n)]
    extras = [LinearConstraint(draw(st.lists(_NUMBERS, min_size=size, max_size=size)),
                               draw(st.sampled_from(["le", "ge"])), draw(_NUMBERS))
              for size in draw(st.lists(st.sampled_from([n, n, n + 1]), max_size=3))]
    return instance_of(acts, draw(_NUMBERS), draw(st.integers(-3, 8)), extras)


@settings(max_examples=400, deadline=None)
@given(_any_instance())
def test_save_json_writes_the_bytes_of_json_dumps(inst):
    """``save_json`` writes the bytes of ``json.dumps(doc, indent=2)`` on
    any instance (``tests/json_reference.py``); ``load_json`` reads them
    back to an equal instance when every number is finite, and refuses them
    otherwise."""
    blob = save_json(inst)
    assert blob == reference_save_json(inst)
    numbers = [inst.rho] + [v for a in activities(inst) for v in a[1:]]
    numbers += [v for ex in inst.extras for v in ex.coeffs + (ex.rhs,)]
    if all(map(math.isfinite, numbers)):
        assert load_json(blob) == inst
    else:
        with pytest.raises(ParseError, match="expected a finite number"):
            load_json(blob)


def test_paper_cell_pipeline_builds_no_activity():
    """Generating the paper cell, its JSON round trip, validation, a search
    stopped after the root, the check of its incumbent and both LP exports
    run on the instance's ids and field table."""
    cell = [c for c in paper_cells([500])
            if (c.correlation, c.epsilon, c.xi) == ("weak", 0.1, 0.75)]
    (_, _, made), = batch(cell, 1, 0)
    inst = load_json(save_json(made))
    assert inst == made and validate(inst).ok
    res = branch_and_bound(inst, SolveParams(node_limit=0))
    assert res.incumbent is not None and check_minlp_feasible(inst, res.incumbent).ok
    assert all(export_lp(inst, form) for form in ("miqp", "misocp"))
