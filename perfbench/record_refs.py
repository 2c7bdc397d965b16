#!/usr/bin/env python3
"""Record the reference results the correctness gate compares against.

    python3 perfbench/record_refs.py --workload budget

Solves every case of the workload's suite once, with the workload's own
limits, and stores status, objective, upper bound, nodes and gap per case
in ``refs/<workload>.json``.
Budget-only instances with n <= 12 are cross-checked once against the
``brute_force`` enumeration here, not on every benchmark run: recording
stops with an error if an optimal objective disagrees with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixopt.bnb import BRUTE_FORCE_MAX_N, branch_and_bound, brute_force  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def against_oracle(res, oracle) -> list:
    """The result must agree with the enumeration: optimum and bounds."""
    if oracle.status == "infeasible":
        ok = res.objective is None and res.status != "optimal"
        return [] if ok else [f"{res.status} {res.objective}, brute force infeasible"]
    best = oracle.objective
    tol = gate.OBJ_RTOL * max(1.0, abs(best))
    out = []
    if res.status == "infeasible":
        out.append(f"infeasible, brute force optimum {best}")
    if res.status == "optimal" and abs(res.objective - best) > tol:
        out.append(f"objective {res.objective}, brute force {best}")
    if res.objective is not None and res.objective > best + tol:
        out.append(f"incumbent {res.objective} above brute force optimum {best}")
    if res.upper_bound < best - tol:
        out.append(f"bound {res.upper_bound} below brute force optimum {best}")
    return out


def record(w) -> dict:
    refs = {}
    for key, inst in workloads.generate(w):
        oracle = None
        if not inst.extras and inst.n <= BRUTE_FORCE_MAX_N:
            oracle = brute_force(inst)
        for case in workloads.cases(w, [(key, inst)]):
            res = branch_and_bound(inst, workloads.params(w, case.form))
            problems = gate.check(inst, res)
            if oracle is not None:
                problems += against_oracle(res, oracle)
            if problems:
                raise SystemExit(f"{case.key}: " + "; ".join(problems))
            ref = gate.signature(res)
            if oracle is not None:
                ref["brute_force"] = oracle.objective
            refs[case.key] = ref
            print(case.key, ref["status"], ref["nodes"], ref["objective"],
                  flush=True)
    return refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    refs = record(workloads.WORKLOADS[args.workload])
    gate.REFS_DIR.mkdir(exist_ok=True)
    path = gate.REFS_DIR / f"{args.workload}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
