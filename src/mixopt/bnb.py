"""Branch-and-bound over region assignments.

Nodes are ``NodeState`` objects, one int8 array of region bits per node
(1 = S, 2 = L, 4 = R); branching fixes one activity to each of its open
regions (ternary at most: decrease side / stay / increase side).  The root
is the one child of a virtual parent with bound +inf and no multipliers,
and every child, the root included, takes one path: it is dropped when it
breaks the cap, closed when it is a leaf, and otherwise bounded eagerly by
the Lagrangian relaxation, rounded, and pushed with ``min(parent bound, own
bound)``, so bounds are monotone along any path.  The relaxation
minimises the node dual exactly with a semismooth Newton method
warm-started at the parent's multipliers; it stops early once the dual
value reaches the incumbent's prune threshold, and a child pruned that way
is not rounded either.  A relaxation whose dual falls without bound proves
the node's hull relaxation infeasible, so the child is pruned; when that
child is the root, the solve ends ``infeasible`` at 0 nodes.  Each search
keeps one pool of Farkas rays, seeded with the unit ray of each coupling
row and grown by the rays its node and leaf descents find, and every child
and leaf is tested along them before it descends (the ``rays`` of
``solve_node_relaxation`` and ``solve_fixed_assignment``); one whose dual
falls along a ray is closed without a descent.  A dual falls along a row's
unit ray when that row is out of reach activity by activity, beyond
rounding, so this one test closes those children too.  Roundings and
leaves are solved against the incumbent's value as a floor, with the
multipliers of the node they come from (``solve_fixed_assignment``'s
``floor`` and ``multipliers``): a leaf whose dual value falls below the
floor is cut without its full solve, as it could neither be admitted nor
raise the bound.  Roundings and leaves go through the feasibility checker
only when they would beat the incumbent.

A popped node first drops every region whose Lagrangian child bound
(``relax.fix_by_reduced_cost``: the node's dual value with one activity's
term replaced by its value in that region, at the node's multipliers) is at
or below the prune threshold of the incumbent found by then; it is then
saturated, and closed like a leaf child once nothing is left free.  The
fixing runs at pop only, where it sees every incumbent found since the node
was bounded; a root-only solve does none.

Fully fixed assignments collapse to a separable concave program over boxes
and the coupling rows, solved exactly by the same Newton method on its dual
and certified by the KKT residual.

The search is deterministic: best-bound selection with FIFO tie-breaks,
and children are explored in the fixed region order L, S, R.  As a child's
bound is at most its parent's, no open node's bound exceeds the last popped
one, which bounds a search that a limit stops.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .hull import check_minlp_feasible
from .instance import (Instance, InvalidInstanceError, Region, Solution,
                       UnsupportedInstanceError, validate)
from .relax import (PERSPECTIVE, FixedOutcome, Formulation, NodeState,
                    RelaxResult, _BIT, _box_qp_max, fix_by_reduced_cost,
                    solve_fixed_assignment, solve_node_relaxation)

_INF = math.inf

BRUTE_FORCE_MAX_N = 12
_BRUTE_FORCE_CHUNK = 65536  # assignments bracketed per batch


@dataclass(frozen=True)
class SolveParams:
    """Search controls; defaults favor the tighter formulation."""

    formulation: Formulation = PERSPECTIVE
    time_limit: float = 100.0
    gap_tol: float = 0.0
    node_limit: Optional[int] = None


@dataclass
class SolveResult:
    status: str  # optimal | gap-limit | time-limit | node-limit | infeasible
    incumbent: Optional[Solution]
    objective: Optional[float]
    upper_bound: float
    gap: float
    nodes: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "gap-limit")


def _prune_threshold(gap_tol: float, inc_val: float) -> float:
    """Bounds at or below this cannot improve on the incumbent."""
    if not math.isfinite(inc_val):
        return -_INF  # no incumbent yet: keep everything
    return inc_val + max(gap_tol, 1e-9) * max(1.0, abs(inc_val))


# the region of each single bit of a node's ``bits``
_REGION_OF = {bit: region for region, bit in _BIT.items()}


def _assignment(bits: np.ndarray) -> Tuple[Region, ...]:
    """The region assignment that single region bits spell."""
    return tuple(map(_REGION_OF.__getitem__, bits.tolist()))


def _round_regions(inst: Instance, node: NodeState, res: RelaxResult,
                   ) -> Tuple[Region, ...]:
    """Snap a fractional relaxation point to a region assignment.

    A free activity stays when its combined indicator ``z_L + z_R`` is at
    most 0.5, and otherwise takes the side with the larger indicator (L on
    a tie); a fixed one keeps its region.  When more activities move than
    the cardinality cap allows, the free movers with the largest combined
    indicators are kept, the lowest index first among equal ones, and the
    others stay.
    """
    free, z_L, z_R = node.free, np.array(res.z_L), np.array(res.z_R)
    z = z_L + z_R
    moves = free & (z > 0.5)
    bits = np.where(moves, np.where(z_L >= z_R, _BIT["L"], _BIT["R"]),
                    np.where(free, _BIT["S"], node.bits))
    room = max(inst.m - node.fixed_nonzero, 0)
    movers = np.flatnonzero(moves)
    if movers.size > room:
        strongest = movers[np.argsort(-z[movers], kind="stable")]
        bits[strongest[room:]] = _BIT["S"]
    return _assignment(bits)


def _outcome_to_solution(inst: Instance, regions: Sequence[Region],
                         out: FixedOutcome, floor: float = -_INF,
                         ) -> Optional[Solution]:
    """Gate a continuous-layer optimum through the exact checker; one whose
    objective is at or below ``floor`` (the incumbent's value) is None
    unchecked, as it could not replace the incumbent."""
    if not out.feasible or out.x is None:
        return None
    # an activity sitting at zero change is really staying put
    final_regions = tuple("S" if x == 0.0 else reg
                          for x, reg in zip(out.x, regions))
    sol = Solution.from_x(inst, out.x, final_regions)
    if sol.objective <= floor or not check_minlp_feasible(inst, sol, tol=1e-8).ok:
        return None
    return sol


def round_incumbent(inst: Instance, relax: RelaxResult,
                    node: Optional[NodeState] = None) -> Optional[Solution]:
    """Try to turn a node relaxation into a feasible solution.

    The fractional point picks a region per activity (largest indicator,
    stay when both are weak, at most m nonzero), the continuous layer is
    re-optimized for that assignment, and the result is admitted only if
    the exact feasibility checker accepts it.
    """
    if node is None:
        node = NodeState.root(inst)
    regions = _round_regions(inst, node, relax)
    return _outcome_to_solution(inst, regions,
                                solve_fixed_assignment(inst, regions))


def _branch_index(node: NodeState, res: RelaxResult) -> int:
    """The free activity whose combined indicator ``z_L + z_R`` is most
    fractional; the lowest index among those within 1e-12 of the most
    fractional one breaks ties.

    Falls back to the lowest-index free activity when the relaxation point
    is already integral.  A scan by index that moves on only to a fraction
    more than 1e-12 above the best so far picks the same activity, except
    on a chain of fractions each within 1e-12 of the next whose ends lie
    further apart: the scan climbs the chain, this rule takes its first
    activity within 1e-12 of the top.
    """
    free = np.flatnonzero(node.free)
    z = (np.array(res.z_L) + np.array(res.z_R))[free]
    frac = np.minimum(z, 1.0 - z)
    return int(free[np.argmax(frac >= frac.max() - 1e-12)])


_REGION_ORDER: Tuple[Region, ...] = ("L", "S", "R")


def branch_and_bound(inst: Instance, params: Optional[SolveParams] = None,
                     ) -> SolveResult:
    """Exact solve of the adjustment problem by Lagrangian-bounded search.

    The root goes through the same ``expand`` as every child (see the
    module docstring).  A search stopped by a limit reports the last popped
    bound (the root's, before any pop), which no open node's bound exceeds;
    an exhausted one reports the incumbent's value and what leaves closed
    inexactly leave over.  The status is ``optimal`` whenever that bound is
    within the gap tolerance of the incumbent: a limit status (``time-limit``,
    ``node-limit``) is reported only while a gap remains.

    ``params.time_limit`` is checked once per popped node, so a solve
    overruns it by at most the root's relaxation and rounding, or one
    node's work: its fixing, the bounding of its children, and their
    roundings and leaf solves.
    """
    params = params or SolveParams()
    report = validate(inst)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.violations))
    t0 = time.perf_counter()

    inc_sol: Optional[Solution] = None
    inc_val = -_INF
    residual_ub = -_INF  # leftover bound from leaves closed inexactly
    # a cut outcome stays below every later floor, as the incumbent only
    # rises, so the cache may hold it
    assignment_cache: dict = {}
    # Farkas rays: each coupling row's unit ray, then those the node and
    # leaf descents find.  A leaf's dual prices an empty activation row, so
    # its rays have a zero cardinality entry and hold for node duals too.
    rows = 1 + len(inst.extras)
    rays: List[Tuple[float, ...]] = list(map(tuple, np.eye(rows, rows + 1).tolist()))
    # entries are (-bound, ticket, node, relaxation): best bound first,
    # FIFO among equal bounds
    heap: list = []
    seq = itertools.count()

    def solve_leaf(regions: Tuple[Region, ...], res: Optional[RelaxResult]) -> float:
        """Solve an assignment against the incumbent's value as its floor,
        with the multipliers of ``res`` (None at the root), or recall it;
        admit its point when it beats the incumbent, and return its bound."""
        nonlocal inc_sol, inc_val
        out = assignment_cache.get(regions)
        if out is None:
            out = solve_fixed_assignment(
                inst, regions, floor=inc_val,
                multipliers=None if res is None else res.multipliers, rays=rays)
            assignment_cache[regions] = out
            if out.ray is not None and out.ray not in rays:
                rays.append(out.ray)
        sol = _outcome_to_solution(inst, regions, out, inc_val)
        if sol is not None:
            inc_sol, inc_val = sol, sol.objective
        return out.bound

    def expand(children: List[NodeState], bound: float,
               res: Optional[RelaxResult]) -> None:
        """Drop the children over the cap, close the leaves among the rest
        with the multipliers of their parent's relaxation ``res``, then
        bound, round and push the others."""
        nonlocal residual_ub
        children = [c for c in children if c.fixed_nonzero <= inst.m]
        for child in children:
            if child.is_leaf:
                residual_ub = max(residual_ub, solve_leaf(_assignment(child.bits), res))
        # siblings are bounded one at a time, each against the rays found so
        # far, and against the prune threshold from before their roundings, at
        # which the Newton method stops; the threshold only rises, so a child
        # at or below it is pruned, and no point of it is worth rounding
        aim = _prune_threshold(params.gap_tol, inc_val)
        for child in children:
            if child.is_leaf:
                continue
            cres = solve_node_relaxation(inst, child, params.formulation,
                                         warm=None if res is None else res.multipliers,
                                         target=aim, rays=rays)
            if cres.ray is not None and cres.ray not in rays:
                rays.append(cres.ray)
            child_bound = min(bound, cres.upper_bound)
            if child_bound <= aim:
                continue
            solve_leaf(_round_regions(inst, child, cres), cres)
            if child_bound > _prune_threshold(params.gap_tol, inc_val):
                heapq.heappush(heap, (-child_bound, next(seq), child, cres))

    expand([NodeState.root(inst)], _INF, None)
    last_popped_bound = -heap[0][0] if heap else -_INF  # the root's, until a pop
    nodes = 0
    stopped: Optional[str] = None
    while heap:
        if time.perf_counter() - t0 > params.time_limit:
            stopped = "time-limit"
        elif params.node_limit is not None and nodes >= params.node_limit:
            stopped = "node-limit"
        if stopped:
            break
        neg_bound, _, node, res = heapq.heappop(heap)
        last_popped_bound = -neg_bound
        threshold = _prune_threshold(params.gap_tol, inc_val)
        if last_popped_bound <= threshold:
            break  # exhausted within tolerance
        nodes += 1
        # drop the regions whose child bound cannot beat the incumbent found
        # by now; a node left over the cap has no child that ``expand`` keeps
        node = fix_by_reduced_cost(inst, node, res, threshold)
        if node is None:
            continue
        node = node.saturate_cardinality(inst.m)
        if node.is_leaf:
            children = [node]  # closed like a leaf child
        else:
            j = _branch_index(node, res)
            children = [node.fix(j, region).saturate_cardinality(inst.m)
                        for region in _REGION_ORDER if node.bits[j] & _BIT[region]]
        expand(children, last_popped_bound, res)

    ub = max(inc_val, residual_ub, last_popped_bound if stopped else -_INF)
    gap = _INF if inc_sol is None else max(0.0, ub - inc_val) / max(1.0, abs(inc_val))
    status = ("optimal" if gap <= max(params.gap_tol, 1e-9)
              else stopped or ("infeasible" if inc_sol is None else "gap-limit"))
    return SolveResult(status, inc_sol, None if inc_sol is None else inc_val,
                       -_INF if status == "infeasible" else ub, gap, nodes,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Exhaustive reference solver


def brute_force(inst: Instance) -> SolveResult:
    """Enumerate every region assignment and solve each continuous layer.

    Exact oracle for small instances, up to ``BRUTE_FORCE_MAX_N``
    activities (the assignment count grows as fast as ``3**n``), with the
    budget row and any extra rows.  Every assignment's continuous layer is bracketed by a
    batched bisection on the budget multiplier, independent of the leaf
    solver: from above by the dual value at that multiplier with the extra
    rows priced at zero (weak duality), from below by the value of its point
    when the point meets every row.  Assignments are then solved exactly
    over all rows by the leaf solver in order of decreasing upper bound,
    until no upper bound left exceeds the best exact value.  The reported
    node count is the number of assignments enumerated.
    """
    t0 = time.perf_counter()
    report = validate(inst)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.violations))
    if inst.n > BRUTE_FORCE_MAX_N:
        raise UnsupportedInstanceError(
            f"brute force capped at {BRUTE_FORCE_MAX_N} activities, got {inst.n}")

    n = inst.n
    b0 = inst.budget_rhs
    theta = np.array([a.theta for a in inst.activities])
    phi = np.array([a.phi for a in inst.activities])
    rows = np.array([(1.0,) * n] + [ex.coeffs for ex in inst.extras])
    rhs = np.array([b0] + [ex.rhs for ex in inst.extras])

    options: List[List[Tuple[Region, float, float]]] = []
    for rb in inst.regions:
        opts: List[Tuple[Region, float, float]] = [("S", 0.0, 0.0)]
        if inst.m > 0 and rb.L is not None:
            opts.append(("L",) + rb.L)
        if inst.m > 0 and rb.R is not None:
            opts.append(("R",) + rb.R)
        options.append(opts)
    radices = [len(o) for o in options]
    total = 1
    for r in radices:
        total *= r
    lo_opts = [np.array([t[1] for t in o]) for o in options]
    hi_opts = [np.array([t[2] for t in o]) for o in options]

    span = max(max(abs(a.l - a.s), abs(a.u - a.s)) for a in inst.activities)
    lam_top = max(1.0, float(phi.max()) + 2.0 * float((-theta).max()) * span + 1.0)
    neg2theta = -2.0 * theta  # zero entries flagged below
    is_quad = theta < 0.0

    def batch_x(lam: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # lam: (B, 1); returns the inner argmax per activity
        x = np.where(is_quad,
                     (phi - lam) / np.where(is_quad, neg2theta, 1.0),
                     np.where(phi - lam > 0.0, hi, lo))
        return np.clip(x, lo, hi)

    # Per assignment, the bisection's point meets the budget, so its value
    # is a lower bound when it meets the extra rows too, and the dual value
    # at its multiplier is an upper bound; an assignment whose upper bound
    # is below some lower bound cannot win.
    floor = -_INF
    uppers: List[np.ndarray] = []
    codes: List[np.ndarray] = []

    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        idx = np.arange(start, min(start + _BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        rem = idx
        code = np.empty((idx.size, n), dtype=np.int8)
        for i in range(n - 1, -1, -1):
            code[:, i] = rem % radices[i]
            rem = rem // radices[i]
        lo = np.empty((idx.size, n))
        hi = np.empty((idx.size, n))
        for i in range(n):
            lo[:, i] = lo_opts[i][code[:, i]]
            hi[:, i] = hi_opts[i][code[:, i]]
        # no row may be out of reach activity by activity
        reach = (np.minimum(lo[:, None, :] * rows, hi[:, None, :] * rows).sum(axis=2)
                 <= rhs)
        feasible = ((code != 0).sum(axis=1) <= inst.m) & reach.all(axis=1)

        lam = np.zeros(idx.size)
        x = batch_x(lam[:, None], lo, hi)
        need = x.sum(axis=1) > b0
        if need.any():
            lam_lo = np.zeros(idx.size)
            lam_hi = np.full(idx.size, lam_top)
            for _ in range(100):
                mid = 0.5 * (lam_lo + lam_hi)
                xs = batch_x(mid[:, None], lo, hi)
                over = xs.sum(axis=1) > b0
                lam_lo = np.where(over, mid, lam_lo)
                lam_hi = np.where(over, lam_hi, mid)
            lam = np.where(need, lam_hi, 0.0)
            x = np.where(need[:, None], batch_x(lam_hi[:, None], lo, hi), x)
        meets = (x @ rows[1:].T <= rhs[1:]).all(axis=1)
        lower = np.where(feasible & meets, (theta * x * x + phi * x).sum(axis=1), -_INF)
        upper = lam * b0 + (theta * x * x + (phi - lam[:, None]) * x).sum(axis=1)
        floor = max(floor, float(lower.max()))
        keep = feasible & (upper >= floor - 1e-9 * max(1.0, abs(floor)))
        uppers.append(upper[keep])
        codes.append(code[keep])

    upper = np.concatenate(uppers)
    code = np.concatenate(codes)
    best_sol_val = -_INF
    best: Optional[Tuple[Tuple[float, ...], Tuple[Region, ...], float]] = None
    # polish by decreasing upper bound until none left can beat the best
    for j in np.argsort(-upper, kind="stable"):
        if upper[j] <= best_sol_val:
            break
        regions = tuple(options[i][c][0] for i, c in enumerate(code[j]))
        lo = np.array([options[i][c][1] for i, c in enumerate(code[j])])
        hi = np.array([options[i][c][2] for i, c in enumerate(code[j])])
        out = _box_qp_max(theta, phi, lo, hi, rows, rhs)
        if out.x is None:
            continue
        if out.value > best_sol_val:
            best_sol_val = out.value
            best = (out.x, regions, out.value)
    wall = time.perf_counter() - t0
    if best is None:
        return SolveResult("infeasible", None, None, -_INF, _INF, total, wall)
    xs, regions, _ = best
    final_regions = tuple("S" if x == 0.0 else reg
                          for x, reg in zip(xs, regions))
    sol = Solution.from_x(inst, xs, final_regions)
    return SolveResult("optimal", sol, sol.objective, sol.objective, 0.0,
                       total, wall)
