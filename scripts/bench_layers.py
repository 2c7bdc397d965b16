#!/usr/bin/env python3
"""Time the dual evaluation per call, by kernel, formulation and size.

For each n it generates one instance of the paper cell (weak correlation,
epsilon 0.1, xi 0.75, both extra rows) and solves its root relaxation in
each formulation.  At the multipliers that descent ends at, it then times
both kernels, the scalar loop and the numpy kernel, whatever
``_VECTOR_MIN_N`` would pick for that n: ``value_us`` is the value and
subgradient evaluation the descent runs hundreds of times, ``point_us``
the evaluation that also builds the primal point, once per relaxation.
Each figure is the median over ``--repeats`` batches of the mean time of
``--calls`` calls.

    python3 scripts/bench_layers.py
    python3 scripts/bench_layers.py --n 64 500 --calls 200 --repeats 9

Only the dual-evaluation layer is timed so far.
"""

import argparse
import platform
import statistics
import sys
import time

import numpy as np

from mixopt import gen, relax
from mixopt.relax import NodeState, solve_node_relaxation

SIZES = (12, 30, 48, 64, 100, 500, 1000)
SEED = 3  # the generator seed of the paper cell the ROADMAP numbers use
KERNELS = ("scalar", "numpy")
FORMS = ("persp", "miqp")


def _context(inst, node, kernel):
    """The node's dual context for ``kernel``, whatever its size."""
    saved = relax._VECTOR_MIN_N
    relax._VECTOR_MIN_N = 0 if kernel == "numpy" else inst.n + 1
    try:
        return relax._NodeContext(inst, node)
    finally:
        relax._VECTOR_MIN_N = saved


def per_call_us(call, calls, repeats):
    """Median over ``repeats`` batches of the mean time of ``calls`` calls."""
    means = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        means.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(means)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=list(SIZES),
                    help="activity counts to time")
    ap.add_argument("--calls", type=int, default=100, help="calls per timed batch")
    ap.add_argument("--repeats", type=int, default=7, help="timed batches per figure")
    args = ap.parse_args(argv)

    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, _VECTOR_MIN_N = {relax._VECTOR_MIN_N}")
    print(f"{'n':>5} {'form':>5} {'kernel':>6} {'value_us':>9} {'point_us':>9}")
    for n in args.n:
        inst = gen.generate(gen.GenConfig(correlation=gen.WEAK, n=n, epsilon=0.1,
                                          xi=0.75, seed=SEED))
        root = NodeState.root(inst)
        for form in FORMS:
            mult = tuple(solve_node_relaxation(inst, root, form).multipliers)
            persp = form == relax.PERSPECTIVE
            for kernel in KERNELS:
                ctx = _context(inst, root, kernel)
                value = per_call_us(lambda: relax._dual_eval(ctx, mult, persp),
                                    args.calls, args.repeats)
                point = per_call_us(lambda: relax._dual_eval(ctx, mult, persp, True),
                                    args.calls, args.repeats)
                print(f"{n:5d} {form:>5} {kernel:>6} {value:9.1f} {point:9.1f}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
