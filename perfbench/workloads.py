"""The benchmark's workloads: which instances a run solves, and how.

Each workload is a fixed suite generated by ``mixopt.gen.batch`` from
``SUITE_SEED`` (per-replicate seeds from ``mix_seed``), solved with a node
limit and a time limit that never binds; node counts, statuses, objectives
and gaps are then exactly repeatable on any machine, and recorded
reference values cover every case.

The suite is fixed rather than drawn per seed because branch-and-bound
cost differs far more between instances than between runs: resampling
measured per-instance times, drawing each run's instances from its seed
gave a spread (interquartile range over median) of ``solve_s.p50`` across
ten seeds of 0.2 to 0.5 on ``coupled``.
``--seed`` orders the cases instead, so each run visits the suite in its
own order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

from mixopt import gen
from mixopt.bnb import SolveParams
from mixopt.instance import Instance

SUITE_SEED = 0

# A solve that stops on time-limit makes the run invalid: the limits below
# are chosen so that only the node limit can stop a search.
TIME_LIMIT_S = 3600.0

DESK_CELLS = tuple(gen.Cell(c, n, 0.1, 0.5)
                   for n in (12, 30) for c in gen.CORRELATIONS)
PAPER_CELL = gen.Cell(gen.WEAK, 500, 0.1, 0.75)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Tuple[gen.Cell, ...]
    replicates: int
    budget_only: bool  # drop the generator's two extra rows
    forms: Tuple[str, ...]
    node_limit: int


WORKLOADS = {w.name: w for w in (
    # Generated instances as emitted (budget row plus two extra rows).  The
    # leaf solver dominates; the generator's infeasible seeds stay in and
    # end at the node limit, so they show as unresolved.
    Workload("coupled", DESK_CELLS, replicates=1, budget_only=False,
             forms=("persp",), node_limit=15),
    # The same cells with the budget row only: dual evaluation dominates,
    # leaves close by exact bisection, and miqp runs the hull branch of the
    # per-activity kernel next to persp.
    Workload("budget", DESK_CELLS, replicates=1, budget_only=True,
             forms=("persp", "miqp"), node_limit=60),
    # The paper cell at n = 500, stopped after the root: one relaxation and
    # one rounding leaf solve at paper scale, and the gap where it stops.
    Workload("paper", (PAPER_CELL,), replicates=2, budget_only=False,
             forms=("persp",), node_limit=0),
)}


@dataclass(frozen=True)
class Case:
    """One solve of a run: an instance under one formulation."""

    key: str
    form: str
    inst: Instance


def generate(w: Workload) -> List[Tuple[str, Instance]]:
    """The workload's instances, keyed by cell and generator seed."""
    out = []
    for cell, cfg, inst in gen.batch(w.cells, w.replicates, SUITE_SEED):
        if w.budget_only:
            inst = replace(inst, extras=())
        out.append((f"{cell.correlation}_n{cell.n}_s{cfg.seed}", inst))
    return out


def cases(w: Workload, instances: List[Tuple[str, Instance]]) -> List[Case]:
    return [Case(f"{key}_{form}", form, inst)
            for key, inst in instances for form in w.forms]


def ordered(cs: List[Case], seed: int) -> List[Case]:
    """The run's visiting order, fixed by the seed."""
    out = list(cs)
    random.Random(seed).shuffle(out)
    return out


def params(w: Workload, form: str) -> SolveParams:
    return SolveParams(formulation=form, time_limit=TIME_LIMIT_S,
                       node_limit=w.node_limit)
