"""Branch-and-bound correctness against the enumeration oracle."""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixopt
from mixopt import (
    CORRELATIONS,
    Cell,
    GenConfig,
    InvalidInstanceError,
    NodeState,
    RelaxResult,
    SolveParams,
    UnsupportedInstanceError,
    batch,
    branch_and_bound,
    brute_force,
    check_minlp_feasible,
    generate,
    mix_seed,
    paper_cells,
    solve_fixed_assignment,
    solve_node_relaxation,
)
from mixopt import bnb, relax
from mixopt.bnb import _outcome_to_solution, _round_regions

import bnb_reference
from activity_reference import Act, activities, instance_of
from activity_reference import regions as reference_regions
from conftest import random_instance

FORMS = ("miqp", "persp")


def test_symmetric_pair_puts_one_at_the_peak(two_symmetric):
    truth = brute_force(two_symmetric)
    assert truth.status == "optimal"
    assert truth.objective == pytest.approx(4.0)
    assert truth.nodes == 4  # S/R per activity, exhaustively
    for form in FORMS:
        res = branch_and_bound(two_symmetric, SolveParams(formulation=form))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0)
        assert sorted(res.incumbent.x) == [0.0, 2.0]
        assert sorted(res.incumbent.region) == ["R", "S"]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=7))
def test_matches_brute_force(seed, n):
    inst = random_instance(random.Random(seed), n)
    truth = brute_force(inst)
    for form in FORMS:
        res = branch_and_bound(inst, SolveParams(formulation=form))
        assert res.status == truth.status
        if truth.status == "optimal":
            assert res.objective == pytest.approx(truth.objective, rel=1e-6, abs=1e-6)
            assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok


def test_brute_force_refuses_what_it_cannot_certify(rng):
    with pytest.raises(UnsupportedInstanceError):
        brute_force(random_instance(rng, 13))
    # extra rows are within its reach: it matches the enumeration oracle
    inst = random_instance(rng, 3, with_extras=True)
    truth = _enumerated_optimum(inst)
    res = brute_force(inst)
    assert res.status == ("infeasible" if truth is None else "optimal")
    if truth is not None:
        assert res.objective == pytest.approx(truth, rel=1e-9, abs=1e-9)


def test_invalid_instances_are_refused(two_symmetric):
    """Both solvers refuse an instance that ``validate`` flags, with its
    violations."""
    bad = dataclasses.replace(two_symmetric, m=5)  # more than n = 2
    for solve in (branch_and_bound, brute_force):
        with pytest.raises(InvalidInstanceError, match="cardinality"):
            solve(bad)


def test_zero_cap_is_instant(rng):
    inst = random_instance(rng, 5, m=0)
    psi_sum = sum(a.psi for a in activities(inst))
    for form in FORMS:
        res = branch_and_bound(inst, SolveParams(formulation=form))
        assert res.status == "optimal"
        assert res.nodes == 0
        assert res.objective == pytest.approx(psi_sum, rel=1e-12)
        assert res.incumbent.region == ("S",) * 5


def test_infeasible_instance_reported(rng):
    # the extra rows demand weighted movement, but the zero cap forbids any
    inst = random_instance(rng, 4, m=0, with_extras=True)
    for form in FORMS:
        res = branch_and_bound(inst, SolveParams(formulation=form))
        assert res.status == "infeasible"
        assert res.incumbent is None and res.objective is None
        assert not res.ok


def test_determinism_across_reruns(rng):
    inst = random_instance(rng, 7, m=4)
    for form in FORMS:
        runs = [branch_and_bound(inst, SolveParams(formulation=form)) for _ in range(3)]
        assert len({r.objective for r in runs}) == 1  # bit-equal, not approx
        assert len({r.upper_bound for r in runs}) == 1
        assert len({r.nodes for r in runs}) == 1
        assert len({r.incumbent.x for r in runs}) == 1


def test_node_count_bounded_by_assignment_space(rng):
    for _ in range(8):
        inst = random_instance(rng, rng.randint(2, 6))
        product = 1
        for rb in reference_regions(inst):
            product *= 1 + (rb.L is not None) + (rb.R is not None)
        for form in FORMS:
            res = branch_and_bound(inst, SolveParams(formulation=form))
            assert res.nodes <= product
            if res.status == "optimal":
                assert res.gap <= 1e-9


def test_node_limit_reports_partial_progress(two_symmetric):
    res = branch_and_bound(two_symmetric, SolveParams(formulation="miqp", node_limit=0))
    assert res.status == "node-limit"
    assert res.nodes == 0
    assert not res.ok
    # the root bound stays honest: the big-M hull gives 7.5 here
    assert res.upper_bound == pytest.approx(7.5)
    assert res.objective is not None  # rounded root incumbent
    assert res.gap == pytest.approx(
        (res.upper_bound - res.objective) / max(1.0, abs(res.objective))
    )


def test_time_limit_zero_still_returns(rng):
    inst = random_instance(rng, 6, m=3)
    res = branch_and_bound(inst, SolveParams(time_limit=0.0))
    assert res.status in ("time-limit", "optimal")
    if res.status == "time-limit":
        assert not res.ok
    if res.objective is not None and res.upper_bound is not None:
        assert res.upper_bound >= res.objective - 1e-9


def test_time_limit_overrun_is_one_node():
    """``time_limit`` is checked once per popped node: the miqp search of
    the strong n = 500 paper cell (epsilon 0.05, xi 0.5, suite seed 0),
    which does not close, ends ``time-limit`` within one node's work of
    its limit."""
    cells = paper_cells(n_values=[500])
    seed = mix_seed(0, cells.index(Cell("strong", 500, 0.05, 0.5)), 0)
    inst = generate(GenConfig("strong", 500, 0.05, 0.5, seed))
    res = branch_and_bound(inst, SolveParams(formulation="miqp", time_limit=0.5))
    assert res.status == "time-limit" and res.nodes > 0
    assert res.wall_time <= 1.0


@pytest.mark.parametrize("field, value", [("time_limit", math.nan), ("time_limit", -1.0),
                                          ("node_limit", -3)])
def test_solve_params_refuse_a_nan_or_negative_limit(field, value):
    """A NaN time limit would mean no limit, and a negative one or a
    negative node limit a search stopped before its root; zero stays valid
    (the tests above stop at the root with it)."""
    with pytest.raises(ValueError, match=f"^{field} must be .*nonnegative"):
        SolveParams(**{field: value})


def test_gap_tol_contract(two_symmetric):
    for tol in (0.5, 2.0):
        res = branch_and_bound(two_symmetric, SolveParams(formulation="miqp", gap_tol=tol))
        assert res.ok
        assert res.upper_bound - res.objective <= tol * max(1.0, abs(res.objective)) + 1e-9


def test_bound_sandwich_and_incumbent_check(rng):
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 6), with_extras=rng.random() < 0.3)
        res = branch_and_bound(inst)
        if res.incumbent is None:
            assert res.status == "infeasible"
            continue
        assert res.upper_bound >= res.objective - 1e-9
        assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok
        assert res.objective == pytest.approx(res.incumbent.objective, rel=1e-12)


def test_cardinality_cap_respected_and_revenue_nested(rng):
    base = random_instance(rng, 5, m=5)
    prev = None
    for m in range(0, 6):
        inst = dataclasses.replace(base, m=m)
        truth = brute_force(inst)
        res = branch_and_bound(inst)
        assert res.objective == pytest.approx(truth.objective, rel=1e-6)
        moved = sum(1 for r in res.incumbent.region if r != "S")
        assert moved <= m
        if prev is not None:
            assert res.objective >= prev - 1e-9  # larger cap never hurts
        prev = res.objective


# ---------------------------------------------------------------------------
# generated instances, as emitted (budget row plus two extra rows)


def _enumerated_optimum(inst):
    """Best leaf over every region assignment with at most m moves.

    Each leaf goes through ``solve_fixed_assignment`` and must certify its
    value; None when no assignment is feasible.
    """
    options = [["S"] + [r for r, iv in (("L", rb.L), ("R", rb.R)) if iv is not None]
               for rb in reference_regions(inst)]
    best = None
    for regions in itertools.product(*options):
        if sum(r != "S" for r in regions) > inst.m:
            continue
        out = solve_fixed_assignment(inst, regions)
        if not out.feasible:
            continue
        assert out.bound - out.value <= 1e-9 * max(1.0, abs(out.value))
        if best is None or out.value > best:
            best = out.value
    return best


@pytest.mark.parametrize("index", range(2 * len(CORRELATIONS)))
def test_matches_enumeration_on_generated_instances(index):
    """The first two seeds of each class at n = 5, extra rows kept."""
    cells = [Cell(c, 5, 0.1, 0.5) for c in CORRELATIONS]
    _, _, inst = batch(cells, 2, 0)[index]
    assert len(inst.extras) == 2
    truth = _enumerated_optimum(inst)
    for form in FORMS:
        res = branch_and_bound(inst, SolveParams(formulation=form))
        if truth is None:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal"
        assert res.objective == pytest.approx(truth, rel=1e-9, abs=1e-9)
        assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok


@pytest.mark.parametrize("index", range(2 * len(CORRELATIONS)))
def test_brute_force_matches_enumeration_with_extra_rows(index):
    """``brute_force`` on the generated n = 5 instances, both extra rows
    kept: its budget-only ranking bound and its all-row polish must find
    the enumeration oracle's optimum, or prove there is none."""
    cells = [Cell(c, 5, 0.1, 0.5) for c in CORRELATIONS]
    _, _, inst = batch(cells, 2, 0)[index]
    assert len(inst.extras) == 2
    truth = _enumerated_optimum(inst)
    res = brute_force(inst)
    if truth is None:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.objective == pytest.approx(truth, rel=1e-9, abs=1e-9)
    assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok


def test_hull_infeasible_root_ends_the_solve():
    """The ``coupled`` desk case weak n = 12, seed 11539782348902174461, as
    generated: HiGHS finds its root hull LP infeasible, so the root dual
    falls without bound along a ray and the solve ends ``infeasible`` at 0
    nodes in both formulations, where a node limit stopped it before.  The
    result holds that ray, and the root's dual falls along it; a relaxation
    that ends otherwise (the feasible root of the weak n = 30 case, bounded
    to convergence or stopped at its warm start by a target) holds none."""
    inst = generate(GenConfig("weak", 12, 0.1, 0.5, 11539782348902174461))
    root = NodeState.root(inst)
    feasible = generate(GenConfig("weak", 30, 0.1, 0.5, 9489810283428522141))
    for form in FORMS:
        res = solve_node_relaxation(inst, root, form)
        assert res.upper_bound == -math.inf and res.converged
        assert res.ray is not None and res.ray == res.multipliers
        dual = relax._node_dual(inst, root, form == "persp")
        assert dual.falls_along(np.array(res.ray))
        out = branch_and_bound(inst, SolveParams(formulation=form, node_limit=15))
        assert (out.status, out.nodes, out.incumbent) == ("infeasible", 0, None)
        froot = NodeState.root(feasible)
        done = solve_node_relaxation(feasible, froot, form)
        stopped = solve_node_relaxation(feasible, froot, form, warm=done.multipliers,
                                        target=done.upper_bound)
        assert done.upper_bound > -math.inf and done.converged and done.ray is None
        assert not stopped.converged and stopped.ray is None


def _linear_instance(seed):
    """A budget-only instance where each activity is linear (theta = 0)
    with probability 1/2."""
    rng = random.Random(seed)
    inst = random_instance(rng, 2 + seed % 6)
    acts = tuple(a._replace(theta=0.0) if rng.random() < 0.5 else a
                 for a in activities(inst))
    return instance_of(acts, inst.rho, inst.m, inst.extras)


@pytest.mark.parametrize("seed", range(60))
def test_brute_force_exact_with_linear_activities(seed):
    """A linear activity puts a kink in the assignment's dual, so the
    bisection's point can undervalue the optimal assignment; brute_force
    must still find it."""
    inst = _linear_instance(seed)
    truth = _enumerated_optimum(inst)
    res = brute_force(inst)
    if truth is None:
        assert res.status == "infeasible"
        return
    assert res.status == "optimal"
    assert res.objective == pytest.approx(truth, rel=1e-9, abs=1e-9)
    assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok
    for form in FORMS:
        out = branch_and_bound(inst, SolveParams(formulation=form))
        assert out.status == "optimal"
        assert out.objective == pytest.approx(res.objective, rel=1e-9, abs=1e-9)


def test_rounded_leaf_passes_the_checker():
    """A feasible rounded leaf at n = 100 yields an incumbent.

    The leaf point has to keep the extra rows to the checker's 1e-8; a
    tolerance that grows with the right-hand side lets it slip past that.
    """
    cells = [Cell(c, 100, 0.1, 0.75) for c in CORRELATIONS]
    for _, cfg, inst in batch(cells, 2, 0):
        root = NodeState.root(inst)
        res = solve_node_relaxation(inst, root, "persp")
        regions = _round_regions(inst, root, res)
        if solve_fixed_assignment(inst, regions).feasible:
            assert _round(inst, res) is not None, cfg.seed


_SOLVES = """
from mixopt import GenConfig, SolveParams, branch_and_bound, generate
for cfg, limit in ((GenConfig("strong", 12, 0.1, 0.5, 17794728303100841390), 15),
                   (GenConfig("weak", 150, 0.1, 0.75, 0), 0)):
    res = branch_and_bound(generate(cfg),
                           SolveParams(formulation="persp", node_limit=limit))
    print(repr(res.objective), repr(res.upper_bound), res.nodes)
"""


def test_solve_does_not_depend_on_blas_threads():
    """A coupled desk solve, and a root solve at n = 150."""
    src = str(Path(mixopt.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run([sys.executable, "-c", _SOLVES], env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert len(outs[0].splitlines()) == 2
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# incumbent rounding


def _relax_point(inst, z, best, upper_bound=math.inf):
    """A relaxation whose pricing chose options ``best`` (0 stay, 1 decrease,
    2 raise) at activations ``z``."""
    return RelaxResult(
        upper_bound=upper_bound,
        multipliers=(0.0,) * (2 + len(inst.extras)),
        converged=True,
        values=np.zeros(inst.n),
        best=np.array(best, dtype=np.intp),
        z=np.array(z, dtype=float),
    )


def _round(inst, res, node=None):
    """The incumbent that the rounding of ``res`` at ``node`` (the root by
    default) gives, solved in full and gated by the checker, as the search
    admits it against no incumbent; None when it gives none."""
    node = node or NodeState.root(inst)
    regions = _round_regions(inst, node, res)
    return _outcome_to_solution(inst, regions, solve_fixed_assignment(inst, regions))


def test_round_integral_point_passes_through(two_symmetric):
    relax = _relax_point(two_symmetric, [1.0, 0.0], [2, 0])
    sol = _round(two_symmetric, relax)
    assert sol is not None
    assert sol.x == (2.0, 0.0)
    assert sol.region == ("R", "S")
    assert sol.objective == pytest.approx(4.0)


def test_round_half_ties_go_to_stay(two_symmetric):
    relax = _relax_point(two_symmetric, [0.5, 0.5], [2, 2])
    sol = _round(two_symmetric, relax)
    assert sol is not None
    assert sol.region == ("S", "S")
    assert sol.x == (0.0, 0.0)
    assert sol.objective == pytest.approx(0.0)  # psi is zero here


def test_round_keeps_only_m_largest(rng):
    acts = tuple(
        Act(id=f"a{i}", s=2.0, l=1.0, u=8.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
        for i in range(3)
    )
    inst = instance_of(acts, rho=5.0, m=2, extras=())
    relax = _relax_point(inst, [0.9, 0.8, 0.7], [2, 2, 2])
    sol = _round(inst, relax)
    assert sol is not None
    assert sol.region == ("R", "R", "S")


def test_round_respects_node_fixings(two_symmetric):
    node = NodeState.root(two_symmetric).fix(0, "S")
    relax = _relax_point(two_symmetric, [0.9, 0.1], [2, 2])
    sol = _round(two_symmetric, relax, node)
    if sol is not None:
        assert sol.region[0] == "S"


def test_round_never_beats_the_oracle(rng):
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 5))
        truth = brute_force(inst)
        relax = solve_node_relaxation(inst, NodeState.root(inst), "persp")
        sol = _round(inst, relax)
        if sol is None:
            continue
        assert check_minlp_feasible(inst, sol, tol=1e-8).ok
        if truth.status == "optimal":
            assert sol.objective <= truth.objective + 1e-9


def test_children_pruned_at_their_bounding_are_not_rounded(monkeypatch):
    """A child whose relaxation bound sits at or below the threshold it was
    bounded against is pruned, so no rounding is spent on it: checked on
    the strong n = 30 desk case with the budget row only, as benchmarked."""
    inst = dataclasses.replace(
        generate(GenConfig("strong", 30, 0.1, 0.5, 7442128715089956104)), extras=())
    aims = {}  # id of a child's relaxation -> the target it was bounded against
    rounded = []

    def bound(inst, node, form, warm=None, target=None, rays=()):
        res = solve_node_relaxation(inst, node, form, warm=warm, target=target,
                                    rays=rays)
        if warm is not None:
            aims[id(res)] = (target, res)
        return res

    def round_regions(inst, node, res):
        rounded.append(res)
        return _round_regions(inst, node, res)

    monkeypatch.setattr(bnb, "solve_node_relaxation", bound)
    monkeypatch.setattr(bnb, "_round_regions", round_regions)
    assert branch_and_bound(inst, SolveParams(formulation="persp",
                                              node_limit=60)).ok
    children = [aims[id(res)] for res in rounded if id(res) in aims]
    assert children
    assert all(res.upper_bound > target for target, res in children)
    # the search does prune children at their bounding
    assert any(target is not None and res.upper_bound <= target
               for target, res in aims.values())


def test_pooled_rays_close_the_infeasible_subtrees(monkeypatch):
    """The ``coupled`` desk case weak n = 30, seed 9489810283428522141, as
    generated (hull-feasible root, infeasible MINLP), persp, node limit 15:
    the search keeps its status, node count and bound to the last bit, and
    its node relaxations, 41 as before, run at most 20 descents, of which
    at most 3 end on a Farkas ray (24 did when every child descended); the
    other children whose dual falls without bound are closed by a ray an
    earlier descent found."""
    inst = generate(GenConfig("weak", 30, 0.1, 0.5, 9489810283428522141))
    ends = _descent_ends(monkeypatch)  # of node relaxations and leaf solves
    relaxations = []

    def bound(*args, **kwargs):
        before = len(ends)
        res = solve_node_relaxation(*args, **kwargs)
        relaxations.append((res, ends[before:]))
        return res

    monkeypatch.setattr(bnb, "solve_node_relaxation", bound)
    out = branch_and_bound(inst, SolveParams(formulation="persp", node_limit=15))
    assert (out.status, out.nodes, repr(out.upper_bound)) == (
        "node-limit", 15, "-518.8817960682761")
    node_ends = [end for _, window in relaxations for end in window]
    assert len(relaxations) == 41 and len(node_ends) <= 20
    assert 0 < node_ends.count("ray") <= 3
    pooled = [res for res, window in relaxations if not window and res.ray is not None]
    assert len(pooled) >= 41 - 20
    assert all(res.upper_bound == -math.inf and res.converged for res in pooled)


def _descent_ends(monkeypatch):
    """How each descent ends, in a list that fills as they run.  A
    ``relax._descend`` call that its start's value at the goal or a pooled
    ray ends runs no descent, and adds nothing."""
    ends = []
    descend = relax._descend

    def counted(dual, y, goal, rays=()):
        runs = dual.f > goal and not any(dual.falls_along(np.array(r)) for r in rays)
        out = descend(dual, y, goal, rays)
        if runs:
            ends.append(out[2])
        return out

    monkeypatch.setattr(relax, "_descend", counted)
    return ends


def _leaf_descents(monkeypatch):
    """How each ``bnb.solve_fixed_assignment`` call ends its descents:
    one list per call, empty when the call descends to no end."""
    ends, calls = _descent_ends(monkeypatch), []

    def leaf(*args, **kwargs):
        before = len(ends)
        out = solve_fixed_assignment(*args, **kwargs)
        calls.append((ends[before:], out))
        return out

    monkeypatch.setattr(bnb, "solve_fixed_assignment", leaf)
    return calls


def test_floor_cuts_leaf_descents_and_keeps_the_search(monkeypatch):
    """Leaves are solved against the incumbent's value: on the strong
    n = 30 desk case with the budget row only, miqp, node limit 60, as
    benchmarked, the search ends as it did when every leaf was solved in
    full, to the last bit, while only 6 of its 35 leaf solves reach a
    descent (26 did)."""
    inst = dataclasses.replace(
        generate(GenConfig("strong", 30, 0.1, 0.5, 7442128715089956104)), extras=())
    calls = _leaf_descents(monkeypatch)
    out = branch_and_bound(inst, SolveParams(formulation="miqp", node_limit=60))
    assert repr((out.status, out.objective, out.upper_bound, out.nodes, out.gap)) == repr(
        ("optimal", 196.4913595232, 196.4913595232, 51, 0.0))
    assert len(calls) == 35
    assert sum(len(window) for window, _ in calls) == 6


@pytest.mark.parametrize("form, want, newton, searches", [
    ("miqp", ("optimal", 196.4913595232, 196.4913595232, 51, 0.0), 66, 17),
    ("persp", ("optimal", 196.4913595232, 196.4913595232, 9, 0.0), 24, 12)])
def test_full_newton_steps_skip_line_searches(form, want, newton, searches,
                                              monkeypatch):
    """Node descents keep a full Newton step whose point passes the KKT
    test without a line search: on the strong n = 30 desk case with the
    budget row only, node limit 60, as benchmarked, the search ends as it
    did when every step ran one, to the last bit (miqp optimal at 51
    nodes, persp at 9), and takes the same node Newton steps; miqp runs 17
    node line searches (66 did), persp 12 as before."""
    inst = dataclasses.replace(
        generate(GenConfig("strong", 30, 0.1, 0.5, 7442128715089956104)), extras=())
    counts = {"newton": 0, "search": 0}  # on node duals: three options
    step, exact = relax._Dual.newton, relax._exact_step

    def counted_step(self, *args):
        counts["newton"] += len(self.lo) == 3
        return step(self, *args)

    def counted_search(dual, *args):
        counts["search"] += len(dual.lo) == 3
        return exact(dual, *args)

    monkeypatch.setattr(relax._Dual, "newton", counted_step)
    monkeypatch.setattr(relax, "_exact_step", counted_search)
    out = branch_and_bound(inst, SolveParams(formulation=form, node_limit=60))
    assert repr((out.status, out.objective, out.upper_bound, out.nodes, out.gap)) == repr(
        want)
    assert counts == {"newton": newton, "search": searches}


def test_product_branching_closes_the_strong_miqp_case():
    """Branching a fractional node on the product of its children's
    Lagrangian drops proves the strong n = 30 desk case with the budget
    row only, miqp, within the benchmarked 60 nodes (the most fractional
    activation stopped there with a gap of 4.2e-3), at the persp
    optimum."""
    inst = dataclasses.replace(
        generate(GenConfig("strong", 30, 0.1, 0.5, 7442128715089956104)), extras=())
    out = branch_and_bound(inst, SolveParams(formulation="miqp", node_limit=60))
    assert (out.status, out.nodes) == ("optimal", 51)
    assert out.objective == branch_and_bound(inst, SolveParams(formulation="persp")).objective


def test_pooled_rays_close_the_infeasible_leaves(monkeypatch):
    """The ``coupled`` desk case weak n = 30, seed 9489810283428522141,
    persp, node limit 15: of its 4 rounding leaves, all infeasible, only
    the first descends to a Farkas ray (all 4 did without a pool); the
    others fall along a ray found earlier, by a leaf or a node, and the
    search keeps its status, node count and bound to the last bit."""
    inst = generate(GenConfig("weak", 30, 0.1, 0.5, 9489810283428522141))
    calls = _leaf_descents(monkeypatch)
    out = branch_and_bound(inst, SolveParams(formulation="persp", node_limit=15))
    assert (out.status, out.nodes, repr(out.upper_bound)) == (
        "node-limit", 15, "-518.8817960682761")
    assert len(calls) == 4
    assert all(not leaf.feasible and leaf.ray is not None for _, leaf in calls)
    assert [window for window, _ in calls] == [["ray"], [], [], []]


@pytest.mark.parametrize("form", FORMS)
def test_rows_out_of_reach_close_without_a_descent(form, monkeypatch):
    """The search's ray pool starts with the unit ray of each row: on the
    weak n = 12 desk case with the budget row only, as benchmarked, every
    node relaxation and leaf solve of a node whose budget row is out of
    reach (``bnb_reference.least_row_use``) runs no descent, and those the
    floor does not cut end on the budget row's unit ray."""
    inst = dataclasses.replace(
        generate(GenConfig("weak", 12, 0.1, 0.5, 11539782348902174461)), extras=())
    ends = _descent_ends(monkeypatch)
    calls = []  # (node, descent endings, ray) per solve

    def bound(inst, node, *args, **kwargs):
        before = len(ends)
        res = solve_node_relaxation(inst, node, *args, **kwargs)
        calls.append((node, ends[before:], res.ray))
        return res

    def leaf(inst, regions, **kwargs):
        before = len(ends)
        out = solve_fixed_assignment(inst, regions, **kwargs)
        bits = np.array([{"S": 1, "L": 2, "R": 4}[r] for r in regions], np.int8)
        calls.append((NodeState(bits), ends[before:], out.ray))
        return out

    monkeypatch.setattr(bnb, "solve_node_relaxation", bound)
    monkeypatch.setattr(bnb, "solve_fixed_assignment", leaf)
    branch_and_bound(inst, SolveParams(formulation=form, node_limit=60))
    closed = []
    for node, window, ray in calls:
        [(use, b)] = bnb_reference.least_row_use(inst, node)
        if use - b > 1e-9 * (1.0 + abs(b)):
            assert window == [] and ray in (None, (1.0, 0.0))
            closed.append(ray)
    assert closed.count((1.0, 0.0)) >= 3


@pytest.mark.parametrize("form", FORMS)
def test_checker_sees_only_candidates_that_beat_the_incumbent(form, monkeypatch):
    """Roundings and leaves at or below the incumbent are dropped before the
    feasibility checker: on the strong n = 30 desk case with the budget row
    only, as benchmarked, every checked candidate's objective beats every
    earlier candidate that passed the check."""
    inst = dataclasses.replace(
        generate(GenConfig("strong", 30, 0.1, 0.5, 7442128715089956104)), extras=())
    checked = []  # (objective, passed) per checker call, in order
    check = bnb.check_minlp_feasible

    def counted(inst, sol, tol):
        report = check(inst, sol, tol=tol)
        checked.append((sol.objective, report.ok))
        return report

    monkeypatch.setattr(bnb, "check_minlp_feasible", counted)
    out = branch_and_bound(inst, SolveParams(formulation=form, node_limit=60))
    assert out.incumbent is not None and len(checked) > 1
    best = -math.inf
    for objective, passed in checked:
        assert objective > best
        if passed:
            best = objective
    assert best == out.objective


def test_bounds_under_a_gap_tolerance_are_valid():
    """A search that stops within a gap tolerance still reports a valid
    bound: every node, child and region it drops within the tolerance
    keeps its bound in the one it reports.  On the n = 30 cells (epsilon
    0.1, xi 0.5, each correlation, generator seeds 1-7; seed 4 is
    infeasible in every class), persp, at gap tolerances 1e-3, 1e-2 and
    0.05: the bound is at least the optimum the exact search proves, to
    1e-9 relative, and the gap is within the tolerance."""
    solves = 0
    for corr in CORRELATIONS:
        for seed in range(1, 8):
            inst = generate(GenConfig(correlation=corr, n=30, epsilon=0.1, xi=0.5, seed=seed))
            exact = branch_and_bound(inst)
            if exact.status == "infeasible":
                continue
            assert exact.status == "optimal"
            optimum = exact.objective
            for gap_tol in (1e-3, 1e-2, 0.05):
                res = branch_and_bound(inst, SolveParams(gap_tol=gap_tol))
                assert res.status == "optimal", (corr, seed, gap_tol)
                assert res.upper_bound >= optimum - 1e-9 * max(1.0, abs(optimum)), (
                    corr, seed, gap_tol)
                assert res.gap <= gap_tol, (corr, seed, gap_tol)
                solves += 1
    assert solves == 54


@pytest.mark.parametrize("n", (6, 7, 8, 9))
def test_search_with_fixing_matches_brute_force(n, monkeypatch):
    """Reduced-cost fixing at node pop changes neither status nor objective:
    generated instances of every correlation class, with both extra rows
    and with the budget row only, in both formulations, against
    ``brute_force``; and the fixing does drop regions on the way."""
    dropped = []
    fix_by_reduced_cost = bnb.fix_by_reduced_cost

    def fix(node, bounds, threshold):
        out = fix_by_reduced_cost(node, bounds, threshold)
        dropped.append(out[0] is not node)
        return out

    monkeypatch.setattr(bnb, "fix_by_reduced_cost", fix)
    cells = [Cell(c, n, 0.1, xi) for c in CORRELATIONS for xi in (0.5, 0.75)]
    generated = [inst for _, _, inst in batch(cells, 1, n)]
    assert all(len(inst.extras) == 2 for inst in generated)
    for inst in generated + [dataclasses.replace(i, extras=()) for i in generated]:
        truth = brute_force(inst)
        for form in FORMS:
            res = branch_and_bound(inst, SolveParams(formulation=form))
            assert res.status == truth.status, form
            if truth.status == "optimal":
                assert res.objective == pytest.approx(truth.objective, rel=1e-9, abs=1e-9)
                assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok
    assert any(dropped)


def test_root_only_solve_is_the_rounded_root():
    """With ``node_limit=0`` the search pops nothing, so no fixing runs: the
    result is the root relaxation and its rounding, to the last bit.  The
    status follows the gap: ``optimal`` with the rounding's value as the
    bound when the rounding closes it, ``node-limit`` with the root bound
    otherwise."""
    cells = [Cell(c, 100, 0.1, 0.75) for c in CORRELATIONS]
    for _, _, inst in batch(cells, 1, 0):
        root = NodeState.root(inst)
        for form in FORMS:
            root_res = solve_node_relaxation(inst, root, form)
            sol = _round(inst, root_res)
            res = branch_and_bound(inst, SolveParams(formulation=form, node_limit=0))
            value = sol and sol.objective
            if sol is not None and root_res.upper_bound <= bnb._prune_threshold(0.0, value):
                want = ("optimal", value, value, sol)
            else:
                want = ("node-limit", value, root_res.upper_bound, sol)
            assert repr((res.status, res.objective, res.upper_bound, res.incumbent)) \
                == repr(want)
            assert res.nodes == 0


# weak n = 12, epsilon 0.2, xi 0.5, as generated: the persp root rounding
# meets the root bound
_CLOSED_AT_ROOT = GenConfig("weak", 12, 0.2, 0.5, 6028932161755819822)


@pytest.mark.parametrize("limit", [dict(node_limit=0), dict(time_limit=0.0)])
def test_root_rounding_that_closes_the_gap_is_optimal_under_a_limit(limit):
    """A limit that binds before the first pop does not hide a proof: when
    the root's rounding meets the root bound, the solve is ``optimal`` at 0
    nodes, with the bound it reports without the limit."""
    inst = generate(_CLOSED_AT_ROOT)
    res = branch_and_bound(inst, SolveParams(formulation="persp", **limit))
    full = branch_and_bound(inst, SolveParams(formulation="persp"))
    assert (res.status, res.nodes, res.gap) == ("optimal", 0, 0.0)
    assert res.objective == res.upper_bound == full.objective == full.upper_bound
    assert res.incumbent == full.incumbent and full.nodes == 0


def _grid_node(rng, n, integral, jitter):
    """A node with random region sets, and a point whose chosen options'
    activations lie on a 1/8 grid (on 0 and 1 only when ``integral``); an
    activity that chose to stay has activation 0.  With ``jitter`` each
    nonzero activation is lowered by 0, 5e-13 or 5e-12 at random: on an
    integral point, its fraction then lies on either side of the 1e-12
    margin past which a point is fractional."""
    bits = np.array([rng.choice((1, 2, 4, 3, 5, 7)) for _ in range(n)], np.int8)
    z, best = [], []
    for _ in range(n):
        option = rng.choice((0, 1, 2))
        eighths = 0 if option == 0 else 8 if integral else rng.randint(0, 8)
        z.append(eighths and eighths / 8 - jitter * rng.choice((0.0, 5e-13, 5e-12)))
        best.append(option)
    return NodeState(bits), z, best


def _grid_bounds(rng, node):
    """A node bound and child bounds below it by drops on a grid that the
    node bound scales: drops of 0 and below, and all of them at the node
    bound 2.5e9, fall to the 1e-9 floor, and products of the others tie
    often.  Entries of regions the node does not hold are NaN or a drop
    larger than any held one, and mean nothing."""
    ub = rng.choice((0.0, 7.5, -40.0, 2.5e9))
    bounds = np.empty((3, node.bits.size))
    for i, bits in enumerate(node.bits.tolist()):
        for code in range(3):
            drops = (-0.25, 0.0, 0.5, 1.0, 2.0) if bits >> code & 1 else (np.nan, 1e3)
            bounds[code, i] = ub - rng.choice(drops)
    return ub, bounds


def test_vectorised_rules_match_the_scalar_reference():
    """``_round_regions`` and ``_branch_index`` pick what the scalar loops
    of ``bnb_reference`` pick, on random nodes and points whose chosen
    options' activations lie on a 1/8 grid, with child bounds on a grid
    (``_grid_bounds``): exact ties between activities, activations of
    exactly 0.5, movers to both sides, more movers than the cap leaves room
    for, activities fixed to a side, fractional and integral points,
    points whose largest fraction lies just within and just past the 1e-12
    margin, equal top branching scores, drops at the 1e-9 floor and free
    activities with a closed region all occur."""
    rng = random.Random(14)
    insts = {n: random_instance(rng, n) for n in range(1, 10)}
    seen = dict(tie=0, sides=0, half=0, capped=0, fixed=0, integral=0, margin=0,
                past_margin=0, fractional=0, equal=0, floor=0, closed=0)
    for trial in range(3000):
        n = rng.randint(1, 9)
        inst = dataclasses.replace(insts[n], m=rng.randint(0, n))
        integral, jitter = trial % 5 < 2, trial % 5 == 1
        node, z, best = _grid_node(rng, n, integral, jitter)
        ub, bounds = _grid_bounds(rng, node)
        res = _relax_point(inst, z, best, ub)
        assert _round_regions(inst, node, res) == bnb_reference.round_regions(inst, node, res)
        free = np.flatnonzero(node.free).tolist()
        movers = [(z[i], best[i]) for i in free if z[i] > 0.5]
        seen["tie"] += len(set(v for v, _ in movers)) < len(movers)
        seen["sides"] += {1, 2} <= {b for _, b in movers}
        seen["half"] += any(z[i] == 0.5 for i in free)
        seen["capped"] += len(movers) > max(inst.m - node.fixed_nonzero, 0) > 0
        seen["fixed"] += node.fixed_nonzero > 0
        if free:
            frac = [min(z[i], 1.0 - z[i]) for i in free]
            seen["margin"] += 0.0 < max(frac) <= 1e-12
            seen["past_margin"] += 1e-12 < max(frac) < 1e-9
            if max(frac) > 1e-12:
                floor = 1e-9 * max(1.0, abs(ub))
                drops = [[ub - bounds[code, i] for code in range(3)
                          if node.bits[i] >> code & 1] for i in free]
                scores = [math.prod(max(d, floor) for d in held) for held in drops]
                seen["fractional"] += 1
                seen["equal"] += scores.count(max(scores)) > 1
                seen["floor"] += any(d <= floor for held in drops for d in held)
                seen["closed"] += any(node.bits[i] in (3, 5, 6) for i in free)
            else:
                seen["integral"] += 1
            assert bnb._branch_index(node, res, bounds) == bnb_reference.branch_index(
                node, res, bounds)
    assert all(seen.values()), seen


def _no_sides(inst):
    """``inst`` with every minimum change above both of an activity's spans,
    so that no activity has an L or an R region."""
    return instance_of((a._replace(delta=1.0 + max(a.s - a.l, a.u - a.s))
                        for a in activities(inst)), inst.rho, inst.m, inst.extras)


@pytest.mark.parametrize("with_extras", [True, False])
@pytest.mark.parametrize("case", ["m=0", "m=n", "no sides"])
def test_root_leaf_edges_match_brute_force(case, with_extras):
    """The root goes through the same path as every child, a root that is a
    leaf too: generated n = 8 instances with a zero cap, with the cap at n,
    and with a positive cap but no activity holding an L or R region, each
    with its extra rows and with the budget row only, in both formulations,
    match ``brute_force``, and a root that is a leaf closes at 0 nodes."""
    cells = [Cell(c, 8, 0.1, xi) for c in CORRELATIONS for xi in (0.5, 0.75)]
    for _, _, inst in batch(cells, 1, 3):
        if not with_extras:
            inst = dataclasses.replace(inst, extras=())
        inst = {"m=0": dataclasses.replace(inst, m=0),
                "m=n": dataclasses.replace(inst, m=inst.n),
                "no sides": _no_sides(inst)}[case]
        leaf = NodeState.root(inst).is_leaf
        assert leaf == (case != "m=n") and (inst.m > 0) == (case != "m=0")
        truth = brute_force(inst)
        for form in FORMS:
            res = branch_and_bound(inst, SolveParams(formulation=form))
            assert res.status == truth.status
            if truth.status == "optimal":
                assert res.objective == pytest.approx(truth.objective, rel=1e-9, abs=1e-9)
                assert check_minlp_feasible(inst, res.incumbent, tol=1e-8).ok
            if leaf:
                assert res.nodes == 0


def test_unknown_formulation_name_is_refused():
    """A formulation other than miqp and persp is a ``ValueError`` at each
    entry point that takes one, not a solve of the miqp dual.  (The command
    line reads misocp as persp: ``test_cli``.)"""
    inst = generate(GenConfig("weak", 12, 0.1, 0.5, 3))
    root = NodeState.root(inst)
    for name in ("misocp", "perspective"):
        with pytest.raises(ValueError, match="unknown formulation"):
            SolveParams(formulation=name)
        with pytest.raises(ValueError, match="unknown formulation"):
            solve_node_relaxation(inst, root, name)
        with pytest.raises(ValueError, match="unknown formulation"):
            relax.dual_value(inst, root, name, [0.0] * (2 + len(inst.extras)))


_NO_SCIPY = """
import sys
from mixopt import GenConfig, SolveParams, branch_and_bound, export_lp, generate
inst = generate(GenConfig("weak", 30, 0.1, 0.75, 0))
assert branch_and_bound(inst, SolveParams(node_limit=100)).incumbent is not None
assert export_lp(inst, "persp").split()[-1] == "End"
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_solve_and_export_load_no_scipy():
    """numpy is the package's one runtime dependency: importing it, solving
    a generated n = 30 instance and exporting its LP load no scipy module
    (importing ``scipy.optimize`` alone about triples a solve's peak RSS)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(mixopt.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr


def test_solve_params_defaults():
    p = SolveParams()
    assert p.formulation == "persp"
    assert p.time_limit == 100.0
    assert p.gap_tol == 0.0
