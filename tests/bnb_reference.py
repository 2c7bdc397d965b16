"""The scalar reference for the search's rounding and branching rules,
and for the row rule that the unit Farkas rays of the rows replace.

The loops walk the activities in index order with Python floats; the
solver's ``mixopt.bnb._round_regions`` and ``mixopt.bnb._branch_index``
apply the same rules to whole numpy columns.  The rule test requires the
two to agree on every node and point it draws.  The row rule
(``least_row_use``) is the oracle of the unit-ray test.
"""

import math
from typing import List, Tuple

from mixopt import Instance, NodeState, Region, RelaxResult

_REGION_OF = {1: "S", 2: "L", 4: "R"}


def round_regions(inst: Instance, node: NodeState, res: RelaxResult,
                  ) -> Tuple[Region, ...]:
    """Snap a fractional relaxation point to a region assignment."""
    regions: List[Region] = []
    scored = []
    free = node.free.tolist()
    for i, bits in enumerate(node.bits.tolist()):
        if not free[i]:
            regions.append(_REGION_OF[bits])
            continue
        zl, zr = res.z_L[i], res.z_R[i]
        if zl + zr <= 0.5:
            regions.append("S")
        else:
            reg = "L" if zl >= zr else "R"
            regions.append(reg)
            scored.append((zl + zr, i))
    # enforce the cardinality cap: keep the strongest indicators
    active = [i for i, r in enumerate(regions) if r != "S"]
    if len(active) > inst.m:
        fixed_active = [i for i in active if not free[i]]
        budgetleft = inst.m - len(fixed_active)
        order = sorted(scored, key=lambda t: (-t[0], t[1]))
        keep = {i for _, i in order[:max(budgetleft, 0)]} | set(fixed_active)
        for i in active:
            if i not in keep:
                regions[i] = "S"
    return tuple(regions)


def branch_index(node: NodeState, res: RelaxResult) -> int:
    """Most fractional combined indicator; lowest index breaks ties.

    Falls back to the lowest-index free activity when the relaxation point
    is already integral.
    """
    free = node.free_indices()
    best_i, best_frac = free[0], -1.0
    for i in free:
        zlr = res.z_L[i] + res.z_R[i]
        frac = min(zlr, 1.0 - zlr)
        if frac > best_frac + 1e-12:
            best_frac = frac
            best_i = i
    return best_i


def least_row_use(inst: Instance, node: NodeState) -> List[Tuple[float, float]]:
    """Each coupling row's least use by the node's open regions and its
    right-hand side, budget first.

    An activity uses a row least at an end of one of its open regions (0
    for S), and the least uses add up in activity order; +inf when an
    activity has no region open.  A row whose least use exceeds its
    right-hand side by more than ``1e-9*(1 + |b|)`` is out of reach: no
    point of the node meets it.
    """
    rows = [((1.0,) * inst.n, inst.budget_rhs)]
    rows += [(ex.coeffs, ex.rhs) for ex in inst.extras]
    out = []
    for coeffs, rhs in rows:
        total = 0.0
        for a, rb, bits in zip(coeffs, inst.regions, node.bits.tolist()):
            uses = [0.0] if bits & 1 else []
            for bit, interval in ((2, rb.L), (4, rb.R)):
                if bits & bit:
                    uses += [a * interval[0], a * interval[1]]
            total += min(uses, default=math.inf)
        out.append((total, rhs))
    return out
