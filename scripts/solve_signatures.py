#!/usr/bin/env python3
"""Write the exact signature of every solve on a fixed grid to a JSON file.

A signature is the ``repr`` of a solve's status, objective, bound, node
count, gap and incumbent point, so two runs give the same file exactly
when every solve agrees to the last bit:

    python3 scripts/solve_signatures.py before.json   # at one commit
    python3 scripts/solve_signatures.py after.json    # at another
    cmp before.json after.json

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
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    out = {key: signature(branch_and_bound(inst, params))
           for key, inst, params in solves()}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} signatures to {args.out} "
          f"in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run())
