"""The loop reference for instance validation.

``validate`` activity by activity with Python floats, as the package ran
it before the rules moved onto the instance's columns.  The instance tests
require the package's ``validate`` to give the same violations, message
for message and in the same order, on random instances.
"""

import math
from typing import Tuple

from mixopt import Instance

from activity_reference import activities, activity_violations


def validate(inst: Instance) -> Tuple[str, ...]:
    """Every violation of ``inst``, in the order the package reports them."""
    out = []
    if inst.n == 0:
        out.append("instance has no activities")
    seen = set()
    for a in activities(inst):
        if a.id in seen:
            out.append(f"duplicate activity id {a.id!r}")
        seen.add(a.id)
        out += activity_violations(a)
    if not (math.isfinite(inst.rho) and inst.rho > 0):
        out.append("rho must be finite and positive")
    if inst.m < 0:
        out.append("cardinality cap is negative")
    elif inst.m > inst.n:
        out.append("cardinality cap exceeds activity count")
    for k, ex in enumerate(inst.extras):
        if len(ex.coeffs) != inst.n:
            out.append(f"extra {k}: expected {inst.n} coefficients, got {len(ex.coeffs)}")
        if not all(math.isfinite(c) for c in ex.coeffs) or not math.isfinite(ex.rhs):
            out.append(f"extra {k}: non-finite coefficient or rhs")
    return tuple(out)
