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
and leaf is tested along the whole pool in one pass before it descends
(the ``rays`` of ``solve_node_relaxation`` and ``solve_fixed_assignment``);
one whose dual falls along a ray is closed by the first such ray, without
a descent.  A dual falls along a row's unit ray when that row is out of reach activity
by activity, beyond rounding, so this one test closes those children too.
Roundings and leaves are solved from the multipliers of the node they come
from, against the incumbent's value as a floor
(``solve_fixed_assignment``'s ``multipliers`` and ``floor``): a leaf whose
dual value at zero, at that start or along its descent falls below the
floor is cut without its full solve, as it could neither be admitted nor
raise the bound.  Roundings and leaves go through the feasibility checker
only when they would beat the incumbent.

A popped node first drops every region whose Lagrangian child bound
(``relax.fix_by_reduced_cost``: the node's dual value with one activity's
term replaced by its value in that region, at the node's multipliers) is at
or below the prune threshold of the incumbent found by then; it is then
saturated, and closed like a leaf child once nothing is left free.  The
fixing runs at pop only, where it sees every incumbent found since the node
was bounded; a root-only solve does none.  A node left open branches on
one free activity chosen from the same child bounds, priced once per pop
(``_branch_index``): at a fractional point (in practice a miqp node) the
product rule on the children's drops below the node bound, at an integral
one (every persp node) the lowest free index.

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
import numbers
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .hull import check_minlp_feasible
from .instance import (_CODE_OF, _REGIONS, Instance, InvalidInstanceError, Region,
                       Solution, UnsupportedInstanceError, validate)
from .relax import (PERSPECTIVE, FixedOutcome, Formulation, NodeState, RelaxResult,
                    _box_qp_max, _child_bounds, _instance_arrays, _persp,
                    fix_by_reduced_cost, solve_fixed_assignment, solve_node_relaxation)

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

    def __post_init__(self):
        _persp(self.formulation)  # an unknown name is a ValueError
        if not self.gap_tol >= 0.0:  # NaN as well
            raise ValueError(f"gap_tol must be a nonnegative number, got {self.gap_tol}")
        if not self.time_limit >= 0.0:
            raise ValueError(f"time_limit must be a nonnegative number, got {self.time_limit}")
        limit = self.node_limit
        if limit is not None and (isinstance(limit, bool) or not isinstance(limit, numbers.Integral)):
            raise ValueError(f"node_limit must be an integer or None, got {limit!r}")
        if limit is not None and limit < 0:
            raise ValueError(f"node_limit must be nonnegative, got {limit}")


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


def _assignment(bits: np.ndarray) -> Tuple[Region, ...]:
    """The region assignment that single region bits spell: bit
    ``1 << code`` shifted right once is ``code``, as codes run 0 to 2."""
    return tuple(map(_REGIONS.__getitem__, (bits >> 1).tolist()))


def _round_regions(inst: Instance, node: NodeState, res: RelaxResult,
                   ) -> Tuple[Region, ...]:
    """Snap a fractional relaxation point to a region assignment.

    A free activity moves to its chosen option's region when that option's
    activation ``z`` is above 0.5, and otherwise stays; a fixed one keeps
    its region.  When more activities move than the cardinality cap allows,
    the free movers with the largest activations are kept, the lowest index
    first among equal ones, and the others stay.
    """
    free, z = node.free, res.z
    moves = free & (z > 0.5)
    stay = 1 << _CODE_OF["S"]
    bits = np.where(moves, 1 << res.best, np.where(free, stay, node.bits))
    room = max(inst.m - node.fixed_nonzero, 0)
    movers = np.flatnonzero(moves)
    if movers.size > room:
        strongest = movers[np.argsort(-z[movers], kind="stable")]
        bits[strongest[room:]] = stay
    return _assignment(bits)


def _settled(regions: Sequence[Region], x: np.ndarray) -> Tuple[Region, ...]:
    """``regions`` with every activity at zero change staying put (``S``)."""
    letters = np.frombuffer("".join(regions).encode("ascii"), np.uint8).copy()
    letters[x == 0.0] = ord("S")
    return tuple(letters.tobytes().decode("ascii"))


def _outcome_to_solution(inst: Instance, regions: Sequence[Region],
                         out: FixedOutcome, floor: float = -_INF,
                         ) -> Optional[Solution]:
    """Gate a continuous-layer optimum through the exact checker; one whose
    objective is at or below ``floor`` (the incumbent's value) is None
    unchecked, as it could not replace the incumbent."""
    if not out.feasible or out.x is None:
        return None
    x = np.array(out.x)
    sol = Solution.from_x(inst, x, _settled(regions, x))
    if sol.objective <= floor or not check_minlp_feasible(inst, sol, tol=1e-8).ok:
        return None
    return sol


def _branch_index(node: NodeState, res: RelaxResult, bounds: np.ndarray) -> int:
    """The free activity to branch on, from the node's child bounds
    ``bounds`` (``relax._child_bounds``).

    At a fractional point, where some free activity's chosen option has an
    activation ``z`` with ``min(z, 1 - z) > 1e-12`` (in practice a miqp
    node), the product rule (Achterberg, Koch & Martin, 2005): the free
    activity with the largest product, over its open regions, of the drop
    from the node bound to the child bound, each drop floored at
    ``1e-9 * max(1, |bound|)``; the lowest index among equal products.  At
    an integral point (every persp node) the lowest free index, which the
    most-fractional rule picked there too: the product rule measured worse
    on persp searches (808 -> 1112 nodes over the node-limited solves of
    ``scripts/solve_signatures.py``), so persp searches stay as they were.
    """
    free = np.flatnonzero(node.free)
    z = res.z[free]
    if not (np.minimum(z, 1.0 - z) > 1e-12).any():
        return int(free[0])
    ub = res.upper_bound
    drops = np.maximum(ub - bounds[:, free], 1e-9 * max(1.0, abs(ub)))
    held = node.bits[free] >> np.arange(3)[:, None] & 1 == 1
    drops = np.where(held, drops, 1.0)
    return int(free[np.argmax(drops[0] * drops[1] * drops[2])])


_REGION_ORDER: Tuple[Region, ...] = ("L", "S", "R")


def branch_and_bound(inst: Instance, params: Optional[SolveParams] = None,
                     ) -> SolveResult:
    """Exact solve of the adjustment problem by Lagrangian-bounded search.

    The root goes through the same ``expand`` as every child (see the
    module docstring).  A search stopped by a limit reports the last popped
    bound (the root's, before any pop), which no open node's bound exceeds;
    an exhausted one reports the incumbent's value and what leaves closed
    inexactly leave over.  The status is ``optimal`` whenever there is an
    incumbent and that bound is within the gap tolerance of it: a limit
    status (``time-limit``, ``node-limit``) is reported only while a gap
    remains.

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
    # what the search closed without proving it: the bounds of leaves closed
    # inexactly, and those of nodes and regions dropped within the gap
    # tolerance but above the rounding slack
    residual_ub = -_INF
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

    def drop(bound: float) -> None:
        """Keep the bound of what is dropped within the gap tolerance,
        where it lies above the rounding slack."""
        nonlocal residual_ub
        if bound > _prune_threshold(0.0, inc_val):
            residual_ub = max(residual_ub, bound)

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
                drop(child_bound)
                continue
            solve_leaf(_round_regions(inst, child, cres), cres)
            if child_bound > _prune_threshold(params.gap_tol, inc_val):
                heapq.heappush(heap, (-child_bound, next(seq), child, cres))
            else:
                drop(child_bound)

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
            drop(last_popped_bound)  # the bound of every node left
            break  # exhausted within tolerance
        nodes += 1
        # drop the regions whose child bound cannot beat the incumbent found
        # by now; a node left over the cap has no child that ``expand`` keeps
        bounds = _child_bounds(inst, res)
        node, dropped = fix_by_reduced_cost(node, bounds, threshold)
        drop(dropped)
        if node is None:
            continue
        node = node.saturate_cardinality(inst.m)
        if node.is_leaf:
            children = [node]  # closed like a leaf child
        else:
            j = _branch_index(node, res, bounds)
            children = [node.fix(j, region).saturate_cardinality(inst.m)
                        for region in _REGION_ORDER if node.bits[j] >> _CODE_OF[region] & 1]
        expand(children, last_popped_bound, res)

    ub = max(inc_val, residual_ub, last_popped_bound if stopped else -_INF)
    gap = _INF if inc_sol is None else max(0.0, ub - inc_val) / max(1.0, abs(inc_val))
    status = ("optimal" if inc_sol is not None and gap <= max(params.gap_tol, 1e-9)
              else stopped or ("infeasible" if inc_sol is None else "gap-limit"))
    return SolveResult(status, inc_sol, None if inc_sol is None else inc_val,
                       -_INF if status == "infeasible" else ub, gap, nodes,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Exhaustive reference solver


def brute_force(inst: Instance) -> SolveResult:
    """Enumerate every assignment of open regions; solve each continuous layer.

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

    n, b0, (rows, rhs), index = inst.n, inst.budget_rhs, inst.coupling, np.arange(inst.n)
    theta, phi, leaf = inst.columns["theta"], inst.columns["phi"], _instance_arrays(inst).leaf

    # digit d of activity i is its d-th open region at the root, S first:
    # region code table[i, d], padded with 3 past the open ones
    open_ = NodeState.root(inst).bits[:, None] >> np.arange(3) & 1 == 1
    table = np.sort(np.where(open_, np.arange(3), 3), axis=1)
    radices = open_.sum(axis=1)
    place = np.append(np.cumprod(radices[:0:-1])[::-1], 1)  # digit i's place value
    total = math.prod(radices.tolist())

    span = float(inst.claims[4].max())  # the largest |spend change|
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
        code = table[index, idx[:, None] // place % radices]
        lo, hi = inst.claims[:2].take(code * n + index, axis=1)
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
        out = _box_qp_max(leaf, *inst.claims[:2].take(code[j] * n + index, axis=1))
        if out.x is None:
            continue
        if out.value > best_sol_val:
            best_sol_val = out.value
            best = (out.x, tuple(map(_REGIONS.__getitem__, code[j].tolist())), out.value)
    wall = time.perf_counter() - t0
    if best is None:
        return SolveResult("infeasible", None, None, -_INF, _INF, total, wall)
    xs, regions, _ = best
    sol = Solution.from_x(inst, xs, _settled(regions, np.array(xs)))
    return SolveResult("optimal", sol, sol.objective, sol.objective, 0.0,
                       total, wall)
