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

from activity_reference import regions as reference_regions

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
        z = float(res.z[i])
        if z <= 0.5:
            regions.append("S")
        else:
            regions.append(_REGION_OF[1 << int(res.best[i])])
            scored.append((z, i))
    # enforce the cardinality cap: keep the strongest activations
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


def branch_index(node: NodeState, res: RelaxResult, bounds) -> int:
    """The product rule on the child bounds ``bounds`` (row ``code``,
    column ``i``) at a fractional point; the lowest free index at an
    integral one.

    A point is fractional when some free activity has
    ``min(z, 1 - z) > 1e-12``.  There each free activity scores the
    product, over its open regions in code order, of the node bound less
    the child bound, floored at ``1e-9 * max(1, |node bound|)``, and the
    first activity with the top score wins.
    """
    free = [i for i, f in enumerate(node.free.tolist()) if f]
    if all(min(float(res.z[i]), 1.0 - float(res.z[i])) <= 1e-12 for i in free):
        return free[0]
    ub = float(res.upper_bound)
    floor = 1e-9 * max(1.0, abs(ub))
    best_i, best_score = free[0], -math.inf
    for i in free:
        score = 1.0
        for code in range(3):
            if node.bits[i] >> code & 1:
                score *= max(ub - float(bounds[code][i]), floor)
        if score > best_score:
            best_i, best_score = i, score
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
        for a, rb, bits in zip(coeffs, reference_regions(inst), node.bits.tolist()):
            uses = [0.0] if bits & 1 else []
            for bit, interval in ((2, rb.L), (4, rb.R)):
                if bits & bit:
                    uses += [a * interval[0], a * interval[1]]
            total += min(uses, default=math.inf)
        out.append((total, rhs))
    return out
