"""Correctness gate, run on every solve outside the timed region.

A solve fails the gate when:

* its status is not one of the five the solver defines, or it stopped on
  ``time-limit`` (the benchmark's time limit must never bind);
* an incumbent does not pass ``check_minlp_feasible(tol=1e-8)``, or the
  reported objective is not the incumbent's;
* ``objective > upper_bound`` beyond 1e-9 relative;
* it contradicts the recorded reference: an ``optimal`` objective that
  differs from the reference optimum (or, where the reference search
  stopped early, lies outside the reference's incumbent/bound bracket), or
  ``infeasible`` where the reference holds a feasible point.

A ``node-limit`` or ``gap-limit`` stop is unresolved, not failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from mixopt.bnb import SolveResult
from mixopt.hull import check_minlp_feasible
from mixopt.instance import Instance

STATUSES = ("optimal", "gap-limit", "time-limit", "node-limit", "infeasible")
PROVEN = ("optimal", "infeasible")
BOUND_RTOL = 1e-9
# leaves room for a later leaf solver to land on other last digits
OBJ_RTOL = 1e-6

REFS_DIR = Path(__file__).resolve().parent / "refs"


def _finite(x: Optional[float]) -> Optional[float]:
    return x if x is not None and math.isfinite(x) else None


def signature(res: SolveResult) -> Dict:
    """The deterministic part of a result, as recorded and compared."""
    return {"status": res.status, "objective": res.objective,
            "upper_bound": _finite(res.upper_bound), "nodes": res.nodes,
            "gap": _finite(res.gap)}


def stop_gap(sig: Optional[Dict]) -> float:
    """Relative gap where a search stopped: 0 once infeasibility is proven,
    1.0 for a stop without an incumbent or a solve that raised."""
    if sig is None or (sig["objective"] is None and sig["status"] != "infeasible"):
        return 1.0
    return 0.0 if sig["status"] == "infeasible" else sig["gap"]


def load_refs(workload: str) -> Dict[str, Dict]:
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check(inst: Instance, res: SolveResult) -> List[str]:
    """Problems a result shows on its own; empty when it passes."""
    out = []
    if res.status not in STATUSES:
        out.append(f"unknown status {res.status!r}")
    if res.status == "time-limit":
        out.append("stopped on the time limit; the run is invalid")
    if res.incumbent is not None:
        report = check_minlp_feasible(inst, res.incumbent, tol=1e-8)
        out.extend(f"incumbent: {v}" for v in report.violations)
        if res.objective != res.incumbent.objective:
            out.append("objective is not the incumbent's")
        if res.objective > res.upper_bound + BOUND_RTOL * max(1.0, abs(res.objective)):
            out.append(f"objective {res.objective} above bound {res.upper_bound}")
    elif res.objective is not None or res.status in ("optimal", "gap-limit"):
        out.append(f"status {res.status} without an incumbent")
    return out


def against_reference(res: SolveResult, ref: Optional[Dict]) -> List[str]:
    """Problems a result shows next to the recorded reference."""
    if ref is None:
        return ["no reference value recorded"]
    out = []
    ref_obj = ref["objective"]
    if res.status == "optimal" and res.objective is not None:
        if ref["status"] == "optimal":
            if not _close(res.objective, ref_obj, OBJ_RTOL):
                out.append(f"optimal objective {res.objective} != reference {ref_obj}")
        else:
            lo = ref_obj if ref_obj is not None else -math.inf
            hi = ref["upper_bound"] if ref["upper_bound"] is not None else -math.inf
            tol = OBJ_RTOL * max(1.0, abs(res.objective))
            if not lo - tol <= res.objective <= hi + tol:
                out.append(f"optimal objective {res.objective} outside the "
                           f"reference bracket [{lo}, {hi}]")
    if res.status == "infeasible" and ref_obj is not None:
        out.append(f"infeasible, but the reference holds a point worth {ref_obj}")
    return out


class Gate:
    """Gate verdicts for every solve of a run, and each case's first result.

    A repeat of a case must reproduce its first result exactly.
    """

    def __init__(self, refs: Dict[str, Dict]):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, Dict] = {}
        self.problems: List[str] = []

    def record(self, case, res: SolveResult, tag: str = "") -> None:
        self.attempted += 1
        probs = check(case.inst, res) + against_reference(res, self.refs.get(case.key))
        sig = signature(res)
        if case.key in self.first:
            if sig != self.first[case.key]:
                probs.append(f"result differs from the first solve{tag}")
        else:
            self.first[case.key] = sig
        if probs:
            self.failed += 1
            self.problems.extend(f"{case.key}{tag}: {p}" for p in probs)

    def raised(self, case, trace: str, tag: str = "") -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{case.key}{tag}: raised\n{trace}")
