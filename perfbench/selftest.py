#!/usr/bin/env python3
"""Self-test: the benchmark's deterministic outputs repeat exactly.

    python3 perfbench/selftest.py --seed 0 [--workload coupled ...]

For each workload, runs ``run.py`` twice untraced and once traced on the
same seed, each making one pass over its cases, and requires bit-identical
per-case statuses, objectives, bounds, node counts and gaps, the same
``solved_frac`` and ``gap.mean``, and a traced ``bnb.nodes`` equal to the
node total of the untraced runs.  Every run must also pass its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC = ("solved_frac", "gap.mean")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    if not verdict["correct"]:
        raise SystemExit(f"{workload} trace={trace}: gate failed\n{proc.stdout}")
    path = ROOT / ".perfbench" / f"result-{workload}-{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="+", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    failures = 0
    for w in args.workload:
        a, b, t = run(w, args.seed, 0), run(w, args.seed, 0), run(w, args.seed, 1)
        problems = []
        for name, other in (("second run", b), ("traced run", t)):
            if other["cases"] != a["cases"]:
                problems.append(f"{name}: per-case results differ")
            for m in DETERMINISTIC:
                if other["metrics"][m] != a["metrics"][m]:
                    problems.append(f"{name}: {m} {other['metrics'][m]} != {a['metrics'][m]}")
        nodes = sum(c["nodes"] for c in a["cases"].values())
        if t["metrics"]["bnb.nodes"] != nodes:
            problems.append(f"traced bnb.nodes {t['metrics']['bnb.nodes']} != {nodes}")
        print(f"{w}: {'FAIL' if problems else 'PASS'} ({len(a['cases'])} cases, "
              f"{nodes} nodes)")
        for p in problems:
            print(f"  {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
