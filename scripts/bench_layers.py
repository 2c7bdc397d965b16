#!/usr/bin/env python3
"""Time the dual evaluation, relaxation, fixing, leaf solve, a search,
rounding, the checker, generation and the JSON round trip.

For each n it generates one instance of the paper cell (weak correlation,
epsilon 0.1, xi 0.75, both extra rows) and solves its root relaxation in
each formulation.  Two layers are timed from there.

The node dual, at the multipliers the root relaxation ends at:
``build_us`` builds it from the node's bits, once per relaxation;
``value_us`` prices it (``_Dual.value``), once per step, which gives the
dual value, the subgradient and the point; ``newton_us`` is the Newton
step, which reads those prices and prices nothing itself, and ``ties``
counts the ties its system holds (kink and level ties; the persp roots of
the paper cell hold a level tie at most sizes).  ``start_us`` and
``start_ties`` are the same for the root's first step, from zero
multipliers, which holds no tie.  These reuse one dual.  ``fresh_us`` is
what the search pays once per
relaxation: it builds the dual of the root's first child (the one the
relaxations below bound), prices it at the child's warm start (the root's
multipliers) and takes one Newton step there, so nothing a dual keeps
between calls is reused.

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
runs it when it pops the root: ``fix_us`` times the pricing of the child
bounds (``_child_bounds``, which branching reads too) and the call,
``removed`` counts the regions it drops and ``fixed`` the activities it
leaves with one region, of the ``free`` ones (a root it prunes shows
every free region removed and none fixed).

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
``solve_ms`` times the whole search.  ``pool`` counts the rays the search
keeps at its end (the unit rays included), and ``rays_us`` times the test
of that whole pool against the search's root dual, the one pass
(``_Dual.falls_along``) a relaxation or leaf solve makes before it
descends.

Rounding and the checker, per n and formulation: ``round_us`` rounds the
root relaxation to a region assignment (``bnb._round_regions``), and
``check_us`` runs ``check_minlp_feasible`` on the incumbent that the
assignment's leaf solve gives (``-`` when it gives none).  Generation and
the JSON round trip, per n: ``gen_us`` draws the paper cell's instance
(``gen.generate``), ``save_us`` writes it (``save_json``), ``load_us``
reads it back (``load_json``), ``validate_us`` checks it (``validate``,
as every solve does first, on the field rows the instance builds once)
and ``claims_us`` builds its claim table (``Instance.claims``, the region
rule on the instance's columns) on a fresh copy with nothing cached.

The line search, per n and formulation: one ``_exact_step`` along the
first Newton direction of the root dual from zero multipliers, with the
step bound ``_descend`` gives it; ``search_us`` times it and ``probes``
counts the points at which it places the options: the probes of the
directional derivative, and the point the crossings are built from.

Each time is the median over ``--repeats`` batches of the mean time of
``--calls`` calls (``--relax-calls`` for the relaxations, leaves,
generation and the JSON round trip; one for the search).  The times are
host-scaled by ``HostClock`` of ``perfbench/run.py``: each figure is
scaled by how fast a fixed reference loop ran just before and after it,
to a host on which that loop takes 4 ms, so that runs on a shared host
can be compared.  The first line prints the scale factor at the start.

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --n 100 500 1000 --calls 200 --repeats 9
"""

import argparse
import dataclasses
import math
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# a checkout runs without installing: the package comes from ``src/``, and
# the host clock from ``perfbench/``
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mixopt import (bnb, check_minlp_feasible, gen, load_json, relax,  # noqa: E402
                    save_json, validate)
from mixopt.bnb import (_REGION_ORDER, SolveParams, _branch_index,  # noqa: E402
                        _outcome_to_solution, _prune_threshold, _round_regions,
                        branch_and_bound)
from mixopt.instance import _CODE_OF  # noqa: E402
from mixopt.relax import (NodeState, _child_bounds, dual_value,  # noqa: E402
                          fix_by_reduced_cost, solve_fixed_assignment,
                          solve_node_relaxation)
from run import HostClock  # noqa: E402

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
    j = _branch_index(root, root_res, _child_bounds(inst, root_res))
    region = next(r for r in _REGION_ORDER if root.bits[j] >> _CODE_OF[r] & 1)
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


def recorder(ends):
    """A stand-in for ``relax._descend`` that appends to ``ends`` how each
    descent ends.  A call that its start's value at the goal or a pooled
    ray ends runs no descent, and appends nothing."""
    descend = relax._descend

    def descent(dual, y, goal, rays=()):
        runs = dual.f > goal and not dual.falls_along(np.array(rays, dtype=float)).any()
        out = descend(dual, y, goal, rays)
        if runs:
            ends.append(out[2])
        return out

    return descent


def leaf_end(call):
    """How the one descent of a leaf solve ended, ``bound`` when none ran."""
    ends = []
    descend = relax._descend
    relax._descend = recorder(ends)
    try:
        call()
    finally:
        relax._descend = descend
    return ends[0] if ends else "bound"


def search_counts(call):
    """Node relaxations, their descents, the descents that end on a ray,
    and the relaxations closed by a pooled ray (unit rays included), in one
    search; and the search's ray pool, as it stands when the search ends."""
    ends, counts, pool = [], [0, 0, 0, 0], []
    descend, bound = relax._descend, bnb.solve_node_relaxation

    def relaxation(*args, **kwargs):
        before = len(ends)  # leaf solves descend too, outside any window
        pool[:] = [kwargs["rays"]]  # the search's own list, which it grows
        res = bound(*args, **kwargs)
        window = ends[before:]
        counts[0] += 1
        counts[1] += len(window)
        counts[2] += window.count("ray")
        counts[3] += res.ray is not None and not window
        return res

    relax._descend, bnb.solve_node_relaxation = recorder(ends), relaxation
    try:
        out = call()
    finally:
        relax._descend, bnb.solve_node_relaxation = descend, bound
    return out, counts, np.array(pool[0], dtype=float)


def step_ties(dual, kept):
    """How many ties the system of ``dual``'s Newton step holds."""
    seen, newton_step = [], relax._newton_step

    def recorded(M, r, lam, work, ties=None):
        seen.append(0 if ties is None else len(ties[4]))
        return newton_step(M, r, lam, work, ties)

    relax._newton_step = recorded
    try:
        dual.newton(kept)
    finally:
        relax._newton_step = newton_step
    return seen[0]


def first_search(inst, form):
    """The root dual priced at zero, and the arguments of the line search
    along its first Newton direction, with ``_descend``'s step bound."""
    dual = relax._node_dual(inst, NodeState.root(inst), form == relax.PERSPECTIVE)
    y = np.zeros(dual.K + 1)
    dual.value(y)
    d, _, _, c = dual.newton(np.zeros(inst.n, dtype=np.int64))
    shrink = d < 0.0
    t_max = float(np.min(y[shrink] / -d[shrink], initial=math.inf))
    return dual, y, d, c, t_max


def probes(args):
    """How many points one ``_exact_step`` call places the options at (its
    inner ``place``): each probe of the directional derivative, and the
    point the crossings are built from; read from the interpreter's trace."""
    place = next(code for code in relax._exact_step.__code__.co_consts
                 if getattr(code, "co_name", None) == "place")
    count = [0]

    def tracer(frame, event, arg):
        count[0] += frame.f_code is place
        return None

    sys.settrace(tracer)
    try:
        relax._exact_step(*args)
    finally:
        sys.settrace(None)
    return count[0]


def per_call_us(call, calls, repeats, clock):
    """Median over ``repeats`` batches of the mean time of ``calls`` calls,
    scaled by the ``HostClock`` ``clock`` as one timed section."""
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - t0) / calls)
    return 1e6 * clock.scaled(statistics.median(means))


def paper_cell(n):
    """The generator config of the paper cell at ``n`` activities."""
    return gen.GenConfig(correlation=gen.WEAK, n=n, epsilon=0.1, xi=0.75, seed=SEED)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES),
                    help="activity counts to time")
    ap.add_argument("--calls", type=int, default=100, help="calls per timed batch")
    ap.add_argument("--repeats", type=int, default=7, help="timed batches per figure")
    ap.add_argument("--relax-calls", type=int, default=5,
                    help="node relaxations per timed batch")
    args = ap.parse_args(argv)

    clock = HostClock()
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, host scale {HostClock.NOMINAL_S / clock.last:.3f}")
    cells = []
    for n in args.n:
        inst = gen.generate(paper_cell(n))
        root = NodeState.root(inst)
        for form in FORMS:
            cells.append((inst, root, form, solve_node_relaxation(inst, root, form)))

    children = [_child_targets(inst, root, root_res, form)
                for inst, root, form, root_res in cells]
    print(f"{'n':>5} {'form':>5} {'build_us':>9} {'value_us':>9} {'newton_us':>9} "
          f"{'ties':>4} {'start_us':>9} {'start_ties':>10} {'fresh_us':>9}")
    for (inst, root, form, root_res), (child, warm, _) in zip(cells, children):
        mult = np.array(root_res.multipliers)
        persp = form == relax.PERSPECTIVE
        build = per_call_us(lambda: relax._node_dual(inst, root, persp),
                            args.calls, args.repeats, clock)
        dual = relax._node_dual(inst, root, persp)
        value = per_call_us(lambda: dual.value(mult), args.calls, args.repeats, clock)
        kept = np.zeros(inst.n, dtype=np.int64)
        steps = []
        for y in (mult, np.zeros(dual.K + 1)):
            dual.value(y)
            steps += [per_call_us(lambda: dual.newton(kept), args.calls, args.repeats,
                                  clock),
                      step_ties(dual, kept)]

        def fresh():
            step = relax._node_dual(inst, child, persp)
            step.value(np.array(warm))
            step.newton(kept)

        took = per_call_us(fresh, args.calls, args.repeats, clock)
        print(f"{inst.n:5d} {form:>5} {build:9.1f} {value:9.1f} {steps[0]:9.1f} {steps[1]:4d} "
              f"{steps[2]:9.1f} {steps[3]:10d} {took:9.1f}", flush=True)

    print(f"{'n':>5} {'form':>5} {'relax':>6} {'evals':>5} {'newton':>6} {'search':>6} "
          f"{'relax_us':>9}")
    for (inst, root, form, root_res), (child, warm, targets) in zip(cells, children):
        for kind in RELAXATIONS:
            if kind == "root":
                def call():
                    solve_node_relaxation(inst, root, form)
            else:
                target = targets[kind]

                def call():
                    solve_node_relaxation(inst, child, form, warm=warm, target=target)
            evals, newton, search = counted(call)
            took = per_call_us(call, args.relax_calls, args.repeats, clock)
            print(f"{inst.n:5d} {form:>5} {kind:>6} {evals:5d} {newton:6d} {search:6d} "
                  f"{took:9.1f}", flush=True)

    print(f"{'n':>5} {'form':>5} {'free':>5} {'fixed':>5} {'removed':>7} {'fix_us':>9}")
    for inst, root, form, root_res in cells:
        regions = _round_regions(inst, root, root_res)
        sol = _outcome_to_solution(inst, regions, solve_fixed_assignment(inst, regions))
        threshold = _prune_threshold(0.0, sol.objective if sol else -math.inf)
        free = root.free
        out = fix_by_reduced_cost(root, _child_bounds(inst, root_res), threshold)[0]
        left = _regions_held(out.bits if out is not None else np.zeros_like(root.bits))
        fixed = int((left[free] == 1).sum())
        removed = int((_regions_held(root.bits) - left)[free].sum())
        took = per_call_us(
            lambda: fix_by_reduced_cost(root, _child_bounds(inst, root_res), threshold),
            args.calls, args.repeats, clock)
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
            took = per_call_us(call, args.relax_calls, args.repeats, clock)
            print(f"{inst.n:5d} {form:>5} {kind:>6} {end:>9} {newton:6d} {took:9.1f}",
                  flush=True)

    inst = gen.generate(gen.GenConfig(correlation=gen.WEAK, n=30, epsilon=0.1,
                                      xi=0.5, seed=SEARCH_SEED))
    print(f"{'n':>5} {'form':>5} {'status':>10} {'nodes':>5} {'relax':>5} "
          f"{'descents':>8} {'rays':>4} {'pooled':>6} {'solve_ms':>9} {'pool':>4} "
          f"{'rays_us':>9}")
    for form in FORMS:
        params = SolveParams(formulation=form, node_limit=15)
        out, counts, pool = search_counts(lambda: branch_and_bound(inst, params))
        took = per_call_us(lambda: branch_and_bound(inst, params), 1, args.repeats, clock)
        root = relax._node_dual(inst, NodeState.root(inst), form == relax.PERSPECTIVE)
        test = per_call_us(lambda: root.falls_along(pool), args.calls, args.repeats, clock)
        print(f"{inst.n:5d} {form:>5} {out.status:>10} {out.nodes:5d} {counts[0]:5d} "
              f"{counts[1]:8d} {counts[2]:4d} {counts[3]:6d} {took / 1e3:9.1f} "
              f"{len(pool):4d} {test:9.1f}", flush=True)

    print(f"{'n':>5} {'form':>5} {'round_us':>9} {'check_us':>9}")
    for inst, root, form, root_res in cells:
        regions = _round_regions(inst, root, root_res)
        took = per_call_us(lambda: _round_regions(inst, root, root_res),
                           args.calls, args.repeats, clock)
        sol = _outcome_to_solution(inst, regions, solve_fixed_assignment(inst, regions))
        check = "-" if sol is None else "%.1f" % per_call_us(
            lambda: check_minlp_feasible(inst, sol, tol=1e-8), args.calls, args.repeats,
            clock)
        print(f"{inst.n:5d} {form:>5} {took:9.1f} {check:>9}", flush=True)

    print(f"{'n':>5} {'gen_us':>9} {'save_us':>9} {'load_us':>9} {'validate_us':>11} "
          f"{'claims_us':>9}")
    for n in args.n:
        cfg = paper_cell(n)
        inst = gen.generate(cfg)
        blob = save_json(inst)
        took = [per_call_us(call, args.relax_calls, args.repeats, clock)
                for call in (lambda: gen.generate(cfg), lambda: save_json(inst),
                             lambda: load_json(blob))]
        took.append(per_call_us(lambda: validate(inst), args.calls, args.repeats, clock))
        fresh = iter([dataclasses.replace(inst) for _ in range(args.relax_calls * args.repeats)])
        claims = per_call_us(lambda: next(fresh).claims, args.relax_calls, args.repeats, clock)
        print(f"{n:5d} " + " ".join(f"{t:9.1f}" for t in took[:3]) + f" {took[3]:11.1f}"
              f" {claims:9.1f}", flush=True)

    print(f"{'n':>5} {'form':>5} {'probes':>6} {'search_us':>9}")
    for inst, root, form, root_res in cells:
        search = first_search(inst, form)
        took = per_call_us(lambda: relax._exact_step(*search), args.calls, args.repeats, clock)
        print(f"{inst.n:5d} {form:>5} {probes(search):6d} {took:9.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
