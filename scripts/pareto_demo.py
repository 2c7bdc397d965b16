#!/usr/bin/env python3
"""Sweep the cardinality cap on one instance and plot the revenue frontier.

Either point it at an existing instance JSON or let it draw one:

    python3 scripts/pareto_demo.py --n 40 --corr weak
    python3 scripts/pareto_demo.py path/to/instance.json --out results/pareto
"""

import argparse
import pathlib
import sys

# a checkout runs without installing: the package comes from ``src/``
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mixopt.cli import main as mixopt  # noqa: E402


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instance", nargs="?", help="instance JSON (generated when omitted)")
    ap.add_argument("--corr", default="strong", choices=["uncorrelated", "weak", "strong"])
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--time-limit", type=float, default=10.0)
    ap.add_argument("--out", default="results/pareto")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out)
    path = args.instance
    if path is None:
        rc = mixopt([
            "gen", "--corr", args.corr, "--n", str(args.n), "--eps", str(args.eps),
            "--xi", "1.0", "--seed", str(args.seed), "--count", "1",
            "--out", str(out / "instances"),
        ])
        if rc != 0:
            return rc
        path = str(out / "instances" /
                   f"{args.corr}_n{args.n}_e{args.eps:g}_x1_s{args.seed}.json")
    return mixopt([
        "sweep", path,
        "--time-limit", str(args.time_limit),
        "--out", str(out / "pareto.csv"),
        "--svg", str(out / "pareto.svg"),
    ])


if __name__ == "__main__":
    sys.exit(run())
