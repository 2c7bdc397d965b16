#!/usr/bin/env python3
"""Write the exact signature of every solve on a fixed grid to a JSON file.

A signature is the ``repr`` of a solve's status, objective, bound, node
count, gap and incumbent point, so two runs give the same file exactly
when every solve agrees to the last bit:

    python3 scripts/solve_signatures.py before.json   # at one commit
    python3 scripts/solve_signatures.py after.json    # at another
    cmp before.json after.json

or, to see what moved, ``--against`` the earlier file:

    python3 scripts/solve_signatures.py after.json --against before.json

which prints the keys that moved, split by what moved first: the status,
else the node count, else only value bits (objective, bound, gap or
point), and the largest relative moves of the objective and the bound.

The grid holds the desk cells n 12 and 30 x 3 correlation classes x
epsilon 0.1, 0.2 x xi 0.5, 0.75, two replicates each
(``batch(cells, 2, base_seed=5)``).  Every instance is solved as generated
and with the budget row only, in both formulations, with the generator's
cardinality cap at node limits 0 and 100, and with the cap set to 0 and
to n at node limit 100.
"""

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

# a checkout runs without installing: the package comes from ``src/``
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixopt import CORRELATIONS, Cell, SolveParams, batch, branch_and_bound  # noqa: E402

FORMS = ("miqp", "persp")
N_VALUES = (12, 30)
REPLICATES = 2


def signature(res) -> str:
    x = None if res.incumbent is None else res.incumbent.x
    return repr((res.status, res.objective, res.upper_bound, res.nodes, res.gap, x))


def parse(sig: str):
    """The tuple a signature is the ``repr`` of."""
    return eval(sig, {"__builtins__": {}}, {"inf": math.inf, "nan": math.nan})


def _relative(a, b) -> float:
    """``|a - b|`` relative to the larger magnitude; 0 when equal or either
    is not a finite number."""
    if a == b or not all(isinstance(v, float) and math.isfinite(v) for v in (a, b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: dict, new: dict) -> dict:
    """The keys whose signatures differ, by what moved: ``status``, else
    ``nodes``, else ``bits``; keys in one file only under ``missing``.  Also
    the largest relative moves of the objective and of the bound, each as
    ``(move, key)``, over the keys in both."""
    out = {"status": [], "nodes": [], "bits": [], "missing": [],
           "objective": (0.0, None), "bound": (0.0, None)}
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            out["missing"].append(key)
            continue
        if old[key] == new[key]:
            continue
        a, b = parse(old[key]), parse(new[key])
        out["status" if a[0] != b[0] else "nodes" if a[3] != b[3] else "bits"].append(key)
        for field, i in (("objective", 1), ("bound", 2)):
            out[field] = max(out[field], (_relative(a[i], b[i]), key), key=lambda m: m[0])
    return out


def report(moves: dict, total: int) -> str:
    lines = [f"{sum(len(moves[k]) for k in ('status', 'nodes', 'bits'))} of {total} "
             "signatures moved"]
    for kind in ("status", "nodes", "bits", "missing"):
        lines.append(f"{kind}: {len(moves[kind])}")
        lines += [f"  {key}" for key in moves[kind]]
    for field in ("objective", "bound"):
        move, key = moves[field]
        lines.append(f"largest {field} move: {move:.3g} relative" + (f" ({key})" if key else ""))
    return "\n".join(lines)


def grid():
    """(cell, config, instance) for every instance of the grid, in order."""
    cells = [Cell(c, n, eps, xi) for n in N_VALUES for c in CORRELATIONS
             for eps in (0.1, 0.2) for xi in (0.5, 0.75)]
    return batch(cells, REPLICATES, base_seed=5)


def solves():
    """(key, instance, params) for every solve of the grid, in a fixed order."""
    for cell, cfg, inst in grid():
        name = (f"{cell.correlation}_n{cell.n}_e{cell.epsilon}_x{cell.xi}"
                f"_s{cfg.seed}")
        for rows, base in (("x", inst), ("b", dataclasses.replace(inst, extras=()))):
            runs = [(base.m, 0), (base.m, 100), (0, 100), (base.n, 100)]
            for m, limit in runs:
                variant = dataclasses.replace(base, m=m)
                for form in FORMS:
                    key = f"{name}_{rows}_m{m}_{form}_nl{limit}"
                    yield key, variant, SolveParams(formulation=form, node_limit=limit)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--against", metavar="OLD.json",
                    help="an earlier file: print what moved since it")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    out = {key: signature(branch_and_bound(inst, params))
           for key, inst, params in solves()}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} signatures to {args.out} "
          f"in {time.perf_counter() - t0:.1f} s")
    if args.against:
        with open(args.against) as fh:
            old = json.load(fh)
        print(report(compare(old, out), len(old.keys() | out.keys())))
    return 0


if __name__ == "__main__":
    sys.exit(run())
