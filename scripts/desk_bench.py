#!/usr/bin/env python3
"""Generate a desk-scale instance grid and benchmark both formulations.

Writes instances plus a manifest under OUT/instances/ and the comparison
table to OUT/bench.csv. With the defaults (3 sizes x 27 cells x 3
replicates, 10 s per solve) a full run stays in the coffee-break range.

    python3 scripts/desk_bench.py --scale-n 8 10 12 --replicates 3
"""

import argparse
import pathlib
import sys

# a checkout runs without installing: the package comes from ``src/``
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mixopt.cli import main as mixopt  # noqa: E402


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale-n", type=int, nargs="+", default=[8, 10, 12],
                    help="activity counts for the grid")
    ap.add_argument("--replicates", type=int, default=3, help="instances per cell")
    ap.add_argument("--seed", type=int, default=20240814)
    ap.add_argument("--time-limit", type=float, default=10.0)
    ap.add_argument("--out", default="results/desk")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    inst_dir = out / "instances"
    rc = mixopt([
        "gen", "--paper-grid",
        "--scale-n", *[str(n) for n in args.scale_n],
        "--count", str(args.replicates),
        "--seed", str(args.seed),
        "--out", str(inst_dir),
    ])
    if rc != 0:
        return rc
    return mixopt([
        "bench", str(inst_dir / "manifest.csv"),
        "--time-limit", str(args.time_limit),
        "--out", str(out / "bench.csv"),
    ])


if __name__ == "__main__":
    sys.exit(run())
