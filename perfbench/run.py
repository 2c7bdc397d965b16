#!/usr/bin/env python3
"""Layered benchmark for the mixopt branch-and-bound solver.

    python3 perfbench/run.py --workload coupled --seed 3 --seconds 30 --trace 0

Run from the repository root; the solver is imported from ``src/``.
Workloads are defined in ``workloads.py`` (see ``BENCHMARK.json`` for why
each was chosen).  A run generates its workload's instance suite, passes
it through the ``save_json``/``load_json`` round trip, then solves every
case once in an order fixed by the seed, and repeats cases while they fit
in ``--seconds``.  Every result goes through the correctness gate in
``gate.py`` outside the timed region.

Times are host-scaled (see ``HostClock``): each timed section's wall time
is scaled by how fast a fixed reference loop ran just before and after
it, so that the speed swings of a shared host do not show as changes of
the program.  The wall-clock figures are printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
pass in which each case is solved untraced and then traced, with spans
around the calls ``mixopt.bnb`` makes into the relax, hull and instance
modules, and prints the per-layer metrics; the spans are written to
``.perfbench/`` when the run ends.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process, no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
KERNEL_NS = (100, 500, 1000)
KERNEL_MIN_S = 0.3


def reference_work() -> float:
    """Fixed interpreter work whose time tracks the host's current speed."""
    acc = 0.0
    for i in range(30_000):
        acc += math.sqrt(i) * 0.5
    return acc


class HostClock:
    """Scales wall times to a host on which ``reference_work`` takes 4 ms.

    On a shared host the speed of this process swings by a third or more
    over tens of seconds, in step for the solver and the reference loop.
    ``scaled(wall)`` takes the wall time of the section that just ended and
    divides it by the speed seen by the reference runs before and after
    it.  Over ten runs per workload on a 2-core Xeon VM, this cut the spread
    (interquartile range over median) of ``solves_per_s`` from 0.19-0.30
    in wall-clock time to 0.05-0.08.
    """

    NOMINAL_S = 0.004

    def __init__(self):
        self.last = self._reference()

    @staticmethod
    def _reference() -> float:
        """Median of three back-to-back runs, so one hiccup does not count."""
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def scaled(self, wall: float) -> float:
        after = self._reference()
        factor = self.NOMINAL_S / (0.5 * (self.last + after))
        self.last = after
        return wall * factor


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            value = cut[round(p * 10) - 1]
            return p, value, sum(1 for s in samples if s > value)
    return None


# Run in a fresh interpreter, on whichever core it lands: times the import
# of the package with a HostClock of its own.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from run import HostClock
clock = HostClock()
t0 = time.perf_counter()
import mixopt
print(clock.scaled(time.perf_counter() - t0))
"""


def measure_setup(w, clock):
    """Import, generation and the JSON round trip, each repeated.

    Returns the round-tripped instances, whether they equal the generated
    ones, and medians of host-scaled times.  Interpreter start-up is not
    counted.
    """
    from mixopt.instance import load_json, save_json
    import workloads

    import_s, gen_s, save_s, load_s = [], [], [], []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parent), str(SRC)],
            check=True, capture_output=True, text=True).stdout
        import_s.append(float(out))
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rows = workloads.generate(w)
        t1 = time.perf_counter()
        blobs = [save_json(inst) for _, inst in rows]
        t2 = time.perf_counter()
        loaded = [(key, load_json(b)) for (key, _), b in zip(rows, blobs)]
        t3 = time.perf_counter()
        scale = clock.scaled(t3 - t0) / (t3 - t0)
        gen_s.append(scale * (t1 - t0))
        save_s.append(scale * (t2 - t1))
        load_s.append(scale * (t3 - t2))
    round_trip_ok = all(a == b for (_, a), (_, b) in zip(rows, loaded))
    totals = [g + s + l for g, s, l in zip(gen_s, save_s, load_s)]
    return loaded, round_trip_ok, {
        "setup_s": statistics.median(import_s) + statistics.median(totals),
        "gen.generate_s": statistics.median(gen_s),
        "instance.save_json_s": statistics.median(save_s),
        "instance.load_json_s": statistics.median(load_s),
    }


def solve_cases(w, cs, seconds, g, clock):
    """One full pass, then repeats in the same order while they fit.

    Returns (wall, host-scaled) time pairs of each case that did not raise;
    a repeat starts only when the case's first wall time fits in what is
    left of ``seconds``.
    """
    from mixopt.bnb import branch_and_bound
    import workloads

    times = {c.key: [] for c in cs}
    start = time.perf_counter()

    def solve(case):
        p = workloads.params(w, case.form)
        t0 = time.perf_counter()
        try:
            res = branch_and_bound(case.inst, p)
        except Exception:
            g.raised(case, traceback.format_exc())
            return
        wall = time.perf_counter() - t0
        times[case.key].append((wall, clock.scaled(wall)))
        g.record(case, res)

    for case in cs:
        solve(case)
    for case in itertools.cycle([c for c in cs if times[c.key]]):
        if times[case.key][0][0] > seconds - (time.perf_counter() - start):
            break
        solve(case)
    return {k: t for k, t in times.items() if t}


def traced_pass(w, cs, g, clock):
    """Each case untraced, then traced; returns the tracer and both times."""
    from mixopt.bnb import branch_and_bound
    import tracing
    import workloads

    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    nodes = 0
    for case in cs:
        p = workloads.params(w, case.form)
        try:
            t0 = time.perf_counter()
            plain = branch_and_bound(case.inst, p)
            plain_s += clock.scaled(time.perf_counter() - t0)
            with tracing.patched(tracer):
                t0 = time.perf_counter()
                traced = tracer.solve_call(case.key, branch_and_bound, case.inst, p)
                traced_s += clock.scaled(time.perf_counter() - t0)
        except Exception:
            g.raised(case, traceback.format_exc())
            continue
        g.record(case, plain)
        g.record(case, traced, tag=" (traced)")
        nodes += traced.nodes
    return tracer, plain_s, traced_s, nodes


def kernel_timings():
    """dual_value at the root's best multipliers, and the LP export."""
    from mixopt import gen
    from mixopt.lp import export_lp
    from mixopt.relax import NodeState, dual_value, solve_node_relaxation
    import workloads

    cell = workloads.PAPER_CELL
    out = {}
    for n in KERNEL_NS:
        cfg = gen.GenConfig(cell.correlation, n, cell.epsilon, cell.xi,
                            seed=gen.mix_seed(workloads.SUITE_SEED, 0, 0))
        inst = gen.generate(cfg)
        root = NodeState.root(inst)
        mult = solve_node_relaxation(inst, root, "persp").multipliers
        times = []
        while sum(times) < KERNEL_MIN_S or len(times) < 5:
            t0 = time.perf_counter()
            dual_value(inst, root, "persp", mult)
            times.append(time.perf_counter() - t0)
        out[f"relax.dual_value.n{n}_ms"] = (1e3 * statistics.median(times), "ms")
        if n == 500:
            export = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                export_lp(inst, "misocp")
                export.append(time.perf_counter() - t0)
            out["lp.export_lp_s"] = (statistics.median(export), "s")
    return out


def layer_metrics(tracer, plain_s, traced_s, nodes):
    """Per-layer metrics from the spans, and a line naming each ratio's base."""
    import tracing

    summ = tracer.summary()

    def row(name):
        return summ.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "true": 0})

    def frac(a, b):
        return a / b if b else 0.0

    relax = row("relax.solve_node_relaxation")
    leaf = row("relax.solve_fixed_assignment")
    check = row("hull.check_minlp_feasible")
    m = {
        "bnb.nodes": (nodes, "count"),
        "bnb.self_s": (row(tracing.SOLVE_SPAN)["self_s"], "s"),
    }
    for prefix, r, flag in (("relax.solve_node_relaxation", relax, "converged_frac"),
                            ("relax.solve_fixed_assignment", leaf, "feasible_frac")):
        m[f"{prefix}.calls"] = (r["calls"], "count")
        m[f"{prefix}.total_s"] = (r["total_s"], "s")
        m[f"{prefix}.mean_ms"] = (1e3 * frac(r["total_s"], r["calls"]), "ms")
        m[f"{prefix}.{flag}"] = (frac(r["true"], r["calls"]), "ratio")
    m["hull.check_minlp_feasible.calls"] = (check["calls"], "count")
    m["hull.check_minlp_feasible.total_s"] = (check["total_s"], "s")
    m["hull.check_minlp_feasible.ok_frac"] = (frac(check["true"], check["calls"]), "ratio")
    m["instance.validate.total_s"] = (row("instance.validate")["total_s"], "s")
    # share of untraced throughput lost when the same cases run traced
    m["trace.overhead_frac"] = (1.0 - frac(plain_s, traced_s), "ratio")
    bases = (f"converged_frac over {relax['calls']} relaxations, feasible_frac "
             f"over {leaf['calls']} leaf solves, ok_frac over {check['calls']} "
             f"checks; trace.overhead_frac: {traced_s:.3f} s traced against "
             f"{plain_s:.3f} s untraced (host-scaled) for the same cases")
    return m, bases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mixopt" / "__init__.py").is_file():
        print(f"error: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    mach = machine()
    clock = HostClock()
    instances, round_trip_ok, setup = measure_setup(w, clock)
    cs = workloads.ordered(workloads.cases(w, instances), args.seed)
    g = gate.Gate(gate.load_refs(w.name))
    if not round_trip_ok:
        g.problems.append("load_json(save_json(inst)) != inst")

    print(f"workload {w.name}  seed {args.seed}  cases {len(cs)}  "
          f"node_limit {w.node_limit}  trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in mach.items()))

    extra = {}
    if args.trace:
        tracer, plain_s, traced_s, nodes = traced_pass(w, cs, g, clock)
        metrics, bases = layer_metrics(tracer, plain_s, traced_s, nodes)
        metrics.update(kernel_timings())
        for name in ("gen.generate_s", "instance.save_json_s", "instance.load_json_s"):
            metrics[name] = (setup[name], "s")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{w.name}-{args.seed}.jsonl")
    else:
        times = solve_cases(w, cs, args.seconds, g, clock)
        if not times:
            print("error: every solve raised\n" + "\n".join(g.problems), file=sys.stderr)
            return 1
        # each case weighs once, by the median of its repeats
        scaled = [statistics.median(s for _, s in t) for t in times.values()]
        wall = [statistics.median(x for x, _ in t) for t in times.values()]
        samples = [s for t in times.values() for _, s in t]
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "solve_s.p50": (statistics.median(scaled), "s"),
            "solves_per_s": (len(scaled) / math.fsum(scaled), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        extra = {"times": times}
        bases = (f"solve_s.p50 and solves_per_s take each case's median of "
                 f"{min(map(len, times.values()))} to {max(map(len, times.values()))} "
                 f"repeats ({len(samples)} solves); wall clock: solve_s.p50 "
                 f"{statistics.median(wall):.4g} s, solves_per_s "
                 f"{len(wall) / math.fsum(wall):.4g} 1/s")
    first = [g.first.get(c.key) for c in cs]  # None where the solve raised
    proven = sum(1 for f in first if f and f["status"] in gate.PROVEN)
    summary = {
        "solved_frac": (proven / len(cs), "ratio"),
        "gap.mean": (statistics.fmean(map(gate.stop_gap, first)), "ratio"),
        "failed_frac": (g.failed / g.attempted, "ratio"),
    }
    if not args.trace:
        metrics["gap.mean"] = summary["gap.mean"]
    report = {**metrics, **summary}

    for name, (value, unit) in report.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        t = tail(samples)
        if t is None:
            print(f"{'solve_s.tail':<44} {'omitted':>14}   ({len(samples)} solves, "
                  f"too few for {TAIL_MIN_BEYOND} beyond any percentile)")
        else:
            print(f"{'solve_s.tail':<44} {t[1]:>14.6g} s   (p{t[0]:g} of "
                  f"{len(samples)} solves, {t[2]} beyond)")
    print(f"bases: {bases}; solved_frac and gap.mean over the {len(cs)} cases "
          f"({proven} proven; an unresolved stop without incumbent counts as "
          f"gap 1.0); failed_frac "
          f"over {g.attempted} solves")
    for p in g.problems:
        print(f"gate: {p}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": mach, "cases": dict(zip((c.key for c in cs), first)),
                    "metrics": {k: v for k, (v, _) in report.items()}, **extra},
                   indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not g.problems, "attempted": g.attempted, "failed": g.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
