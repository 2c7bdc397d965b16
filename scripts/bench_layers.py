#!/usr/bin/env python3
"""Time the dual evaluation, relaxation, fixing, leaf solve and a search.

For each n it generates one instance of the paper cell (weak correlation,
epsilon 0.1, xi 0.75, both extra rows) and solves its root relaxation in
each formulation.  Two layers are timed from there.

The node dual, at the multipliers the root relaxation ends at:
``build_us`` builds it from the node's bits, once per relaxation;
``value_us`` prices it (``_Dual.value``), once per step, which gives the
dual value, the subgradient and the point; ``newton_us`` is the Newton
step, which reads those prices and prices nothing itself.

The node relaxation: the ``root`` from zero multipliers, and one child of
the root (the branching activity fixed to its first open region),
warm-started at the root's multipliers as the search bounds it.  The
``pruned`` child aims at its own dual value at the warm start, so it is
pruned there; the ``open`` child aims 0.1% below the bound its untargeted
relaxation reaches, so it runs the whole Newton method.  ``evals`` counts
its pricings of the dual, ``newton`` its Newton steps and ``search`` the
exact line searches among them (a full step whose point passes the KKT
test ends the descent without one).

Reduced-cost fixing, at the root's multipliers and against the prune
threshold of the incumbent rounded from the root relaxation, as the search
runs it when it pops the root: ``fix_us`` times the call, ``removed``
counts the regions it drops and ``fixed`` the activities it leaves with
one region, of the ``free`` ones (a root it prunes shows every free
region removed and none fixed).

The leaf solve, on the assignment the root relaxation rounds to, as the
search's first rounding solves it: ``full`` with no floor; ``cut`` against
a floor above the root bound, which the leaf's dual value at the root's
multipliers already falls below, so no descent runs; ``target`` with no
multipliers and a floor halfway between the leaf's value and its dual
value at zero, so the descent stops once its dual value gets to the floor
(or runs in full when the two are level).  ``end`` is how the descent
ended (``bound`` when none ran) and ``newton`` counts its Newton steps.

The search, on the ``coupled`` desk case weak n = 30 (generator seed
``SEARCH_SEED``, both extra rows), whose root is hull-feasible while much
of the tree below it is not, stopped after 15 nodes as benchmarked:
``relax`` counts its node relaxations, ``descents`` the Newton descents
they run, ``rays`` the descents that end on a Farkas ray and ``pooled``
the children closed by a pooled ray without a descent of their own: a ray
an earlier descent found, or the unit ray of a row the child cannot reach;
``solve_ms`` times the whole search.

Each time is the median over ``--repeats`` batches of the mean time of
``--calls`` calls (``--relax-calls`` for the relaxations and leaves, one
for the search).

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --n 64 500 --calls 200 --repeats 9

The other layers are not timed yet.
"""

import argparse
import math
import platform
import statistics
import sys
import time

import numpy as np

from mixopt import bnb, gen, relax
from mixopt.bnb import (_REGION_ORDER, SolveParams, _branch_index, _prune_threshold,
                        _round_regions, branch_and_bound, round_incumbent)
from mixopt.relax import (NodeState, dual_value, fix_by_reduced_cost,
                          solve_fixed_assignment, solve_node_relaxation)

SIZES = (12, 16, 20, 24, 30, 48, 64, 100, 500, 1000)
SEED = 3  # the generator seed of the paper cell the ROADMAP numbers use
FORMS = ("persp", "miqp")
RELAXATIONS = ("root", "pruned", "open")
SEARCH_SEED = 9489810283428522141  # the coupled weak n = 30 case


def _regions_held(bits):
    """How many regions each activity holds, from a node's bits."""
    return (bits & 1) + (bits >> 1 & 1) + (bits >> 2 & 1)


def _child_targets(inst, root, root_res, form):
    """The first child of the root, and the targets that prune it at its
    warm start and that leave it open."""
    j = _branch_index(root, root_res)
    region = next(r for r in _REGION_ORDER if root.bits[j] & relax._BIT[r])
    child = root.fix(j, region).saturate_cardinality(inst.m)
    warm = root_res.multipliers
    reach = solve_node_relaxation(inst, child, form, warm=warm).upper_bound
    targets = {"pruned": dual_value(inst, child, form, warm),
               "open": reach - 1e-3 * max(1.0, abs(reach))}
    return child, warm, targets


def counted(call):
    """Pricings, Newton steps and line searches one call makes."""
    counts = [0, 0, 0]
    kernel, newton, exact = relax._Dual.value, relax._Dual.newton, relax._exact_step

    def evaluation(*args, **kwargs):
        counts[0] += 1
        return kernel(*args, **kwargs)

    def step(*args, **kwargs):
        counts[1] += 1
        return newton(*args, **kwargs)

    def search(*args, **kwargs):
        counts[2] += 1
        return exact(*args, **kwargs)

    relax._Dual.value, relax._Dual.newton, relax._exact_step = evaluation, step, search
    try:
        call()
    finally:
        relax._Dual.value, relax._Dual.newton, relax._exact_step = kernel, newton, exact
    return counts


def leaf_floors(inst, root_res, regions):
    """The floor and multipliers of each timed leaf solve."""
    full = solve_fixed_assignment(inst, regions)
    # a floor no leaf reaches cuts the solve at once, at the dual value at zero
    top = solve_fixed_assignment(inst, regions, floor=sys.float_info.max).bound
    bound = root_res.upper_bound
    return {"full": (-math.inf, None),
            "cut": (bound + 1e-6 * max(1.0, abs(bound)), root_res.multipliers),
            "target": (0.5 * (full.value + top), None)}


def leaf_end(call):
    """How the one descent of a leaf solve ended, ``bound`` when none ran."""
    ends = []
    descend = relax._descend

    def descent(*args):
        out = descend(*args)
        ends.append(out[2])
        return out

    relax._descend = descent
    try:
        call()
    finally:
        relax._descend = descend
    return ends[0] if ends else "bound"


def search_counts(call):
    """Node relaxations, their descents, the descents that end on a ray,
    and the relaxations closed by a pooled ray (unit rays included), in one
    search."""
    ends, counts = [], [0, 0, 0, 0]
    descend, bound = relax._descend, bnb.solve_node_relaxation

    def descent(*args):
        out = descend(*args)
        ends.append(out[2])
        return out

    def relaxation(*args, **kwargs):
        before = len(ends)  # leaf solves descend too, outside any window
        res = bound(*args, **kwargs)
        window = ends[before:]
        counts[0] += 1
        counts[1] += len(window)
        counts[2] += window.count("ray")
        counts[3] += res.ray is not None and not window
        return res

    relax._descend, bnb.solve_node_relaxation = descent, relaxation
    try:
        out = call()
    finally:
        relax._descend, bnb.solve_node_relaxation = descend, bound
    return out, counts


def per_call_us(call, calls, repeats):
    """Median over ``repeats`` batches of the mean time of ``calls`` calls."""
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(means)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES),
                    help="activity counts to time")
    ap.add_argument("--calls", type=int, default=100, help="calls per timed batch")
    ap.add_argument("--repeats", type=int, default=7, help="timed batches per figure")
    ap.add_argument("--relax-calls", type=int, default=5,
                    help="node relaxations per timed batch")
    args = ap.parse_args(argv)

    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}")
    cells = []
    for n in args.n:
        inst = gen.generate(gen.GenConfig(correlation=gen.WEAK, n=n, epsilon=0.1,
                                          xi=0.75, seed=SEED))
        root = NodeState.root(inst)
        for form in FORMS:
            cells.append((inst, root, form, solve_node_relaxation(inst, root, form)))

    print(f"{'n':>5} {'form':>5} {'build_us':>9} {'value_us':>9} {'newton_us':>9}")
    for inst, root, form, root_res in cells:
        mult = np.array(root_res.multipliers)
        persp = form == relax.PERSPECTIVE
        build = per_call_us(lambda: relax._node_dual(inst, root, persp),
                            args.calls, args.repeats)
        dual = relax._node_dual(inst, root, persp)
        value = per_call_us(lambda: dual.value(mult), args.calls, args.repeats)
        kept = np.zeros(inst.n, dtype=np.int64)
        newton = per_call_us(lambda: dual.newton(kept), args.calls, args.repeats)
        print(f"{inst.n:5d} {form:>5} {build:9.1f} {value:9.1f} {newton:9.1f}",
              flush=True)

    print(f"{'n':>5} {'form':>5} {'relax':>6} {'evals':>5} {'newton':>6} {'search':>6} "
          f"{'relax_us':>9}")
    for inst, root, form, root_res in cells:
        child, warm, targets = _child_targets(inst, root, root_res, form)
        for kind in RELAXATIONS:
            if kind == "root":
                def call():
                    solve_node_relaxation(inst, root, form)
            else:
                target = targets[kind]

                def call():
                    solve_node_relaxation(inst, child, form, warm=warm, target=target)
            evals, newton, search = counted(call)
            took = per_call_us(call, args.relax_calls, args.repeats)
            print(f"{inst.n:5d} {form:>5} {kind:>6} {evals:5d} {newton:6d} {search:6d} "
                  f"{took:9.1f}", flush=True)

    print(f"{'n':>5} {'form':>5} {'free':>5} {'fixed':>5} {'removed':>7} {'fix_us':>9}")
    for inst, root, form, root_res in cells:
        sol = round_incumbent(inst, root_res, root)
        threshold = _prune_threshold(0.0, sol.objective if sol else -math.inf)
        free = root.free
        out = fix_by_reduced_cost(inst, root, root_res, threshold)
        left = _regions_held(out.bits if out is not None else np.zeros_like(root.bits))
        fixed = int((left[free] == 1).sum())
        removed = int((_regions_held(root.bits) - left)[free].sum())
        took = per_call_us(lambda: fix_by_reduced_cost(inst, root, root_res, threshold),
                           args.calls, args.repeats)
        print(f"{inst.n:5d} {form:>5} {free.sum():5d} {fixed:5d} {removed:7d} {took:9.1f}",
              flush=True)

    print(f"{'n':>5} {'form':>5} {'leaf':>6} {'end':>9} {'newton':>6} {'leaf_us':>9}")
    for inst, root, form, root_res in cells:
        regions = _round_regions(inst, root, root_res)
        for kind, (floor, mult) in leaf_floors(inst, root_res, regions).items():
            def call():
                solve_fixed_assignment(inst, regions, floor=floor, multipliers=mult)
            end = leaf_end(call)
            newton = counted(call)[1]
            took = per_call_us(call, args.relax_calls, args.repeats)
            print(f"{inst.n:5d} {form:>5} {kind:>6} {end:>9} {newton:6d} {took:9.1f}",
                  flush=True)

    inst = gen.generate(gen.GenConfig(correlation=gen.WEAK, n=30, epsilon=0.1,
                                      xi=0.5, seed=SEARCH_SEED))
    print(f"{'n':>5} {'form':>5} {'status':>10} {'nodes':>5} {'relax':>5} "
          f"{'descents':>8} {'rays':>4} {'pooled':>6} {'solve_ms':>9}")
    for form in FORMS:
        params = SolveParams(formulation=form, node_limit=15)
        out, counts = search_counts(lambda: branch_and_bound(inst, params))
        took = per_call_us(lambda: branch_and_bound(inst, params), 1, args.repeats)
        print(f"{inst.n:5d} {form:>5} {out.status:>10} {out.nodes:5d} {counts[0]:5d} "
              f"{counts[1]:8d} {counts[2]:4d} {counts[3]:6d} {took / 1e3:9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
