"""Acceptance gate: nine desk-scale checks, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every check re-derives its expected values through independent
oracles (exhaustive enumeration, dense grids, a standalone LP re-parser)
rather than through the code under test.
"""

import dataclasses
import itertools
import math
import statistics
import time

import numpy as np

from mixopt import (
    GenConfig,
    SolveParams,
    Solution,
    branch_and_bound,
    brute_force,
    build_miqp,
    build_misocp,
    check_minlp_feasible,
    export_lp,
    generate,
    mix_seed,
    perspective_value,
    root_bounds,
    save_json,
)
from mixopt.cli import pareto_sweep

from activity_reference import Act, activities, claimed, instance_of
from lp_reader import ir_objective, ir_row_activity, parse_lp

BASE_SEED = 20240814
CLASSES = ("uncorrelated", "weak", "strong")


def _report(num, name, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}{tail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. region preprocessing rules, exhaustively


def test_criterion_1_region_grid():
    t0 = time.perf_counter()
    gaps = (0.0, 0.25, 0.5, 1.0, 2.5, 6.0)
    bad = 0
    total = 0
    for gl, gu, delta in itertools.product(gaps, gaps, gaps):
        a = Act(id="a", s=8.0, l=8.0 - gl, u=8.0 + gu, delta=delta,
                theta=-1.0, phi=1.0, psi=0.0)
        lo, hi = a.l - a.s, a.u - a.s
        # staying is the origin: it passes the checker, and a change off zero
        # claimed as S lies outside the region's box
        one = instance_of((a,), rho=1.0, m=1, extras=())
        rb, = claimed(one)
        off = check_minlp_feasible(one, Solution.from_x(one, [-1e-3], ["S"])).violations
        ok = (
            (rb.L is not None) == (lo <= -delta)
            and (rb.R is not None) == (delta <= hi)
            and (rb.L == ((lo, -delta) if lo <= -delta else None))
            and (rb.R == ((delta, hi) if delta <= hi else None))
            and check_minlp_feasible(one, Solution.from_x(one, [0.0], ["S"])).ok
            and "activity 'a': change -0.001 outside region S interval [0.0, 0.0]" in off
        )
        bad += 0 if ok else 1
        total += 1
    elapsed = time.perf_counter() - t0
    _report(1, "region existence/bound rules", bad == 0 and elapsed < 1.0,
            f"{total} orderings, {bad} mismatches, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. exactness against the enumeration oracle


def _oracle_mix(count, offset=0, budget_only=True):
    cells = list(itertools.product(CLASSES, (0.05, 0.2), (0.5, 1.0)))
    out = []
    for i in range(count):
        corr, eps, xi = cells[i % len(cells)]
        n = 4 + i % 7
        cfg = GenConfig(correlation=corr, n=n, epsilon=eps, xi=xi,
                        seed=mix_seed(BASE_SEED, offset + i, 0))
        inst = generate(cfg)
        if budget_only:
            inst = dataclasses.replace(inst, extras=())
        out.append(inst)
    return out


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for inst in _oracle_mix(200):
        truth = brute_force(inst)
        for form in ("miqp", "persp"):
            res = branch_and_bound(inst, SolveParams(formulation=form))
            if res.status != truth.status:
                mismatches += 1
            elif truth.status == "optimal":
                scale = max(1.0, abs(truth.objective))
                if abs(res.objective - truth.objective) > 1e-6 * scale:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(2, "oracle equivalence, both formulations", mismatches == 0 and elapsed < 300.0,
            f"200 instances x 2 forms, {mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. perspective root bound dominates the big-M root bound


def test_criterion_3_relaxation_dominance():
    t0 = time.perf_counter()
    sizes = (8, 15, 30, 45, 60)
    cells = list(itertools.product(CLASSES, (0.05, 0.1, 0.2), (0.5, 0.75, 1.0)))
    violations = 0
    tightenings = []
    for i in range(300):
        corr, eps, xi = cells[i % len(cells)]
        cfg = GenConfig(correlation=corr, n=sizes[i % len(sizes)], epsilon=eps,
                        xi=xi, seed=mix_seed(BASE_SEED, 1000 + i, 0))
        inst = generate(cfg)
        bound_miqp, bound_persp = root_bounds(inst)
        if bound_persp > bound_miqp + 1e-7:
            violations += 1
        tightenings.append(bound_miqp - bound_persp)

    # crafted fractional-root instance: symmetric pair under a unit cap; the
    # big-M hull pays for half-activations the perspective envelope prices out
    act = dict(s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
    crafted = instance_of((Act(id="a", **act), Act(id="b", **act)), rho=10.0, m=1, extras=())
    bm, bp = root_bounds(crafted)
    strict = bm - bp
    elapsed = time.perf_counter() - t0
    _report(3, "perspective bound dominance", violations == 0 and strict >= 1e-3,
            f"300 instances, {violations} violations, median tightening "
            f"{statistics.median(tightenings):.3f}, crafted gap {strict:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. node-count direction at the hardest grid cell


def test_criterion_4_node_count_direction():
    t0 = time.perf_counter()
    nodes = {"miqp": [], "persp": []}
    for i in range(60):
        cfg = GenConfig(correlation=CLASSES[(i // 3) % 3], n=(8, 10, 12)[i % 3],
                        epsilon=0.2, xi=0.5, seed=mix_seed(BASE_SEED, 2000 + i, 0))
        inst = generate(cfg)
        for form in ("miqp", "persp"):
            res = branch_and_bound(inst, SolveParams(formulation=form, time_limit=10.0))
            nodes[form].append(res.nodes)
    med_m = statistics.median(nodes["miqp"])
    med_p = statistics.median(nodes["persp"])
    elapsed = time.perf_counter() - t0
    _report(4, "perspective needs no more nodes (medians)", med_p <= med_m,
            f"60 instances at eps=0.2 xi=0.5, median nodes persp {med_p} vs miqp {med_m}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. generator contract


def test_criterion_5_generator():
    t0 = time.perf_counter()
    cfg = GenConfig(correlation="strong", n=10_000, epsilon=0.1, xi=0.75, seed=BASE_SEED)
    inst = generate(cfg)
    gammas = tuple(-c for c in inst.extras[1].coeffs)
    identity_bad = 0
    support_bad = 0
    for a, tau, gamma in zip(activities(inst), inst.extras[0].coeffs, gammas):
        c = (tau + gamma) / 2.0
        if not (a.theta == -(c + 1.0) and a.phi == c + 1.0 and a.psi == a.phi
                and a.theta + a.phi == 0.0):
            identity_bad += 1
        dec = round(a.delta * 100.0)
        if not (1.0 <= a.l <= 5.0 and 5.0 <= a.u <= 10.0 and a.l <= a.s <= a.u
                and 1.0 <= tau <= 10.0 and 1.0 <= gamma <= 10.0
                and abs(a.delta * 100.0 - dec) < 1e-9):
            support_bad += 1
    regen = save_json(generate(cfg)) == save_json(inst)
    elapsed = time.perf_counter() - t0
    _report(5, "generator identities, supports, reproducibility",
            identity_bad == 0 and support_bad == 0 and regen,
            f"10000 draws, {identity_bad} identity / {support_bad} support misses, "
            f"byte-identical regen {regen}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. cardinality/revenue sweep against the oracle


def test_criterion_6_pareto_sweep():
    t0 = time.perf_counter()
    inst = _oracle_mix(3, offset=500)[2]  # strong class, n = 6, budget-only
    inst = dataclasses.replace(inst, m=inst.n)
    points = pareto_sweep(inst, SolveParams(time_limit=30.0), list(range(inst.n + 1)))
    revs = [p["revenue"] for p in points]
    monotone = all(b >= a - 1e-9 for a, b in zip(revs, revs[1:]))
    truth = brute_force(inst)
    top_ok = abs(revs[-1] - truth.objective) <= 1e-6 * max(1.0, abs(truth.objective))
    psi_sum = math.fsum(a.psi for a in activities(inst))
    zero_ok = revs[0] == psi_sum
    elapsed = time.perf_counter() - t0
    _report(6, "pareto sweep vs enumeration", monotone and top_ok and zero_ok,
            f"n={inst.n}, revenue(0)={revs[0]:.2f} == sum(psi) {zero_ok}, "
            f"revenue(n) matches oracle {top_ok}, monotone {monotone}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. every returned incumbent honors the MINLP constraints


def test_criterion_7_minlp_conformance():
    t0 = time.perf_counter()
    checked = 0
    failures = 0
    insts = _oracle_mix(20, offset=700) + _oracle_mix(10, offset=750, budget_only=False)
    for k, inst in enumerate(insts):
        for params in (
            SolveParams(formulation="miqp"),
            SolveParams(formulation="persp"),
            SolveParams(formulation=("miqp", "persp")[k % 2], node_limit=2),
        ):
            res = branch_and_bound(inst, params)
            if res.incumbent is None:
                continue
            checked += 1
            if not check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(7, "incumbents re-checked at tol 1e-8", failures == 0 and checked > 0,
            f"{checked} incumbents, {failures} violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. perspective inequality, randomized


def test_criterion_8_perspective_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    theta = rng.uniform(-10.0, 0.0, 100_000)
    x = rng.uniform(-5.0, 5.0, 100_000)
    z = 1.0 - rng.uniform(0.0, 1.0, 100_000)  # (0, 1]
    # pin exact equality witnesses into the sample
    z[:500] = 1.0
    x[500:1000] = 0.0
    persp = theta * x * x / z
    quad = theta * x * x
    holds = bool(np.all(persp <= quad + 1e-9 * np.abs(quad)))
    eq_at_one = bool(np.all(persp[:500] == quad[:500]))
    eq_at_zero = bool(np.all(persp[500:1000] == quad[500:1000]))
    spot = all(
        perspective_value(t, 0.0, 0.0, xv, zv) <= t * xv * xv + 1e-9 * abs(t * xv * xv)
        for t, xv, zv in zip(theta[::1000], x[::1000], z[::1000])
    )
    elapsed = time.perf_counter() - t0
    _report(8, "theta x^2/z <= theta x^2 on (0,1]",
            holds and eq_at_one and eq_at_zero and spot,
            f"100000 samples, equality at z=1 {eq_at_one} and x=0 {eq_at_zero}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. the exported text is the model, verified by an independent reader


def _in_bounds_point(ir, rng):
    pt = {}
    for v in ir.variables:
        lo = v.lb if math.isfinite(v.lb) else -3.0
        hi = v.ub if math.isfinite(v.ub) else lo + 6.0
        pt[v.name] = float(rng.uniform(lo, hi))
    return pt


def test_criterion_9_export_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED + 9)
    worst = 0.0
    points = 0
    for i in range(20):
        cfg = GenConfig(correlation=CLASSES[i % 3], n=3 + i % 8, epsilon=0.1,
                        xi=0.75, seed=mix_seed(BASE_SEED, 3000 + i, 0))
        inst = generate(cfg)
        for form, build in (("miqp", build_miqp), ("misocp", build_misocp)):
            ir = build(inst)
            parsed = parse_lp(export_lp(inst, form))
            for _ in range(5):  # 5 per form = 10 points per instance
                pt = _in_bounds_point(ir, rng)
                diff = abs(parsed.objective_at(pt) - ir_objective(ir, pt))
                worst = max(worst, diff / max(1.0, abs(ir_objective(ir, pt))))
                for row in ir.rows:
                    gap = abs(parsed.row_activity(row.name, pt) - ir_row_activity(row, pt))
                    worst = max(worst, gap)
                points += 1
    elapsed = time.perf_counter() - t0
    _report(9, "LP text matches the model IR", worst <= 1e-9,
            f"20 instances x 10 points, worst deviation {worst:.2e}, {elapsed:.1f}s")
