"""Command-line harness: generate, solve, benchmark, sweep, export.

Exit codes for ``solve``: 0 when the search finished (optimal or within
the gap tolerance), 2 when a time or node limit stopped it, 3 when the
instance is infeasible, 1 on parse or validation failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import gen as genmod
from .bnb import SolveParams, SolveResult, branch_and_bound
from .instance import Instance, InstanceError, load_json, save_json, validate
from .lp import export_lp
from .relax import MIQP, PERSPECTIVE

MANIFEST_FIELDS = ("path", "corr", "n", "eps", "xi", "seed")
BENCH_FIELDS = ("corr", "n", "eps", "xi", "seed", "form", "status",
                "objective", "bound", "gap", "nodes", "time_s")
_KNEE_FRACTION = 0.995  # the share of the maximum revenue that marks the knee


@dataclasses.dataclass
class BenchRecord:
    """Paired solve outcome for one instance; ratios use miqp as base."""

    corr: str
    n: int
    eps: float
    xi: float
    seed: int
    miqp: Optional[SolveResult]
    persp: Optional[SolveResult]

    def ratio(self, field: str) -> Optional[float]:
        """persp over miqp in ``field`` (``wall_time`` or ``nodes``)."""
        if self.miqp is None or self.persp is None or getattr(self.miqp, field) <= 0:
            return None
        return getattr(self.persp, field) / getattr(self.miqp, field)


def _fmt(x) -> str:
    return "" if x is None else str(x)


def _load_instance(path: Path) -> Instance:
    try:
        inst = load_json(path.read_bytes())
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc
    except InstanceError as exc:  # ParseError and SchemaError among them
        raise SystemExit(f"error: {path}: {exc}") from exc
    report = validate(inst)
    if not report.ok:
        raise SystemExit(f"error: {path}: " + "; ".join(report.violations))
    return inst


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    specs = []
    if args.paper_grid:
        n_values = tuple(args.scale_n) if args.scale_n else genmod.PAPER_N
        cells = genmod.paper_cells(n_values=n_values)
        for ci, cell in enumerate(cells):
            for r in range(args.count):
                specs.append((cell.correlation, cell.n, cell.epsilon, cell.xi,
                              genmod.mix_seed(args.seed, ci, r)))
    else:
        missing = [f for f, v in (("--corr", args.corr), ("--n", args.n),
                                  ("--eps", args.eps), ("--xi", args.xi))
                   if v is None]
        if missing:
            raise SystemExit(f"error: gen requires {' '.join(missing)} "
                             "(or --paper-grid)")
        specs = [(args.corr, args.n, args.eps, args.xi, args.seed + r)
                 for r in range(args.count)]
    # every cell is checked before anything is written
    try:
        configs = [genmod.GenConfig(correlation=corr, n=n, epsilon=eps, xi=xi,
                                    seed=seed, rho=args.rho)
                   for corr, n, eps, xi, seed in specs]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, str]] = []
    for cfg in configs:
        name = f"{cfg.correlation}_n{cfg.n}_e{cfg.epsilon:g}_x{cfg.xi:g}_s{cfg.seed}.json"
        (out_dir / name).write_bytes(save_json(genmod.generate(cfg)))
        rows.append({"path": name, "corr": cfg.correlation, "n": str(cfg.n),
                     "eps": f"{cfg.epsilon:g}", "xi": f"{cfg.xi:g}", "seed": str(cfg.seed)})

    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} instance(s); manifest at {manifest}")
    return 0


# ---------------------------------------------------------------------------
# solve


def _solve_params(args, form: str) -> SolveParams:
    try:
        return SolveParams(formulation=form, time_limit=args.time_limit,
                           gap_tol=args.gap_tol, node_limit=args.node_limit)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


_EXIT_BY_STATUS = {"optimal": 0, "gap-limit": 0, "time-limit": 2,
                   "node-limit": 2, "infeasible": 3}


def _cmd_solve(args) -> int:
    inst = _load_instance(Path(args.instance))
    res = branch_and_bound(inst, _solve_params(args, args.form))
    payload = {"status": res.status, "objective": res.objective, "bound": res.upper_bound,
               "gap": res.gap, "nodes": res.nodes, "time_s": res.wall_time}
    for key, value in payload.items():
        print(f"{key:<10} " + (f"{value:.3f}" if key == "time_s" else _fmt(value)))
    if args.json:  # RFC 8259 has no infinity or NaN: such a number is written null
        payload = {key: None if isinstance(value, float) and not math.isfinite(value) else value
                   for key, value in payload.items()}
        if res.incumbent is not None:
            payload["x"] = list(res.incumbent.x)
            payload["regions"] = list(res.incumbent.region)
        Path(args.json).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return _EXIT_BY_STATUS[res.status]


# ---------------------------------------------------------------------------
# bench


def _read_manifest(path: Path) -> List[Dict[str, str]]:
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return []
            missing = set(MANIFEST_FIELDS) - set(reader.fieldnames)
            if missing:
                raise SystemExit(
                    f"error: manifest missing columns: {sorted(missing)}")
            return list(reader)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc


def _bench_row(key: List[str], form: str, res: Optional[SolveResult]) -> List[str]:
    if res is None:
        return key + [form, "error", "", "", "", "", ""]
    return key + [form, res.status, _fmt(res.objective), _fmt(res.upper_bound),
                  _fmt(res.gap), str(res.nodes), f"{res.wall_time:.6f}"]


def _median(values: List[float]) -> Optional[float]:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(vals) if vals else None


def _summary_rows(records: List[BenchRecord]) -> List[List[str]]:
    groups: List[Tuple[str, str, List[BenchRecord]]] = [("all", "all", records)]
    for attr in ("corr", "n", "eps", "xi"):
        for v in dict.fromkeys(getattr(rec, attr) for rec in records):
            groups.append((attr, f"{v:g}" if isinstance(v, float) else str(v),
                           [r for r in records if getattr(r, attr) == v]))
    rows = []
    for label, value, recs in groups:  # each holds a record: ``records`` is not empty
        gaps_m = _median([r.miqp.gap for r in recs if r.miqp is not None])
        gaps_p = _median([r.persp.gap for r in recs if r.persp is not None])
        tr = _median([r.ratio("wall_time") for r in recs])
        nr = _median([r.ratio("nodes") for r in recs])
        rows.append([label, value, str(len(recs)), _fmt(gaps_m), _fmt(gaps_p),
                     _fmt(tr), _fmt(nr)])
    return rows


def _cmd_bench(args) -> int:
    manifest_path = Path(args.manifest)
    entries = _read_manifest(manifest_path)
    records: List[BenchRecord] = []
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_FIELDS)
    for entry in entries:
        key = [entry[k] for k in MANIFEST_FIELDS[1:]]
        try:
            rec = BenchRecord(corr=entry["corr"], n=int(entry["n"]),
                              eps=float(entry["eps"]), xi=float(entry["xi"]),
                              seed=int(entry["seed"]), miqp=None, persp=None)
        except ValueError as exc:  # its error rows keep the row's text; no summary counts it
            print(f"skipping {entry['path']}: error: n, eps, xi and seed must be numbers "
                  f"({exc})", file=sys.stderr)
            writer.writerows(_bench_row(key, form, None) for form in (MIQP, PERSPECTIVE))
            continue
        key = [rec.corr, str(rec.n), f"{rec.eps:g}", f"{rec.xi:g}", str(rec.seed)]
        try:
            inst = _load_instance(manifest_path.parent / entry["path"])
        except SystemExit as exc:
            print(f"skipping {entry['path']}: {exc}", file=sys.stderr)
        else:
            rec.miqp = branch_and_bound(inst, _solve_params(args, MIQP))
            rec.persp = branch_and_bound(inst, _solve_params(args, PERSPECTIVE))
        writer.writerows(_bench_row(key, form, getattr(rec, form)) for form in (MIQP, PERSPECTIVE))
        records.append(rec)

    if records:
        buf.write("\n# medians per group (ratio base: miqp)\n")
        writer.writerow(["group", "value", "instances", "gap_miqp",
                         "gap_persp", "time_ratio", "node_ratio"])
        writer.writerows(_summary_rows(records))
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(records)} instance(s))")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# sweep


def pareto_sweep(inst: Instance, params: Optional[SolveParams] = None,
                 m_values: Optional[Sequence[int]] = None) -> List[Dict[str, object]]:
    """Solve the instance once per cardinality cap under ``params``; rows
    sorted by m.  A solve that a limit stops keeps its row and status, with
    no revenue: only the revenues of finished solves form the frontier.
    A cap outside ``[0, n]`` is a ``ValueError``, raised before any solve."""
    n = inst.n
    if m_values is not None:  # every cap is checked before the first solve
        for m in m_values:
            if not 0 <= m <= n:
                raise ValueError(f"--m {m} lies outside [0, {n}]")
    else:
        step = max(1, math.ceil(n / 20))
        m_values = list(range(0, n + 1, step))
        if m_values[-1] != n:
            m_values.append(n)
    points: List[Dict[str, object]] = []
    for m in sorted(set(int(m) for m in m_values)):
        capped = dataclasses.replace(inst, m=m)
        res = branch_and_bound(capped, params)
        points.append({"m": m, "m_fraction": m / n,
                       "revenue": res.objective if res.ok else None,
                       "status": res.status})
    base_rev = next((p["revenue"] for p in points if p["m"] == n), None)
    for p in points:  # no fraction of a missing or zero base
        rev = p["revenue"]
        p["revenue_fraction"] = None if rev is None or not base_rev else rev / base_rev
    prev = -math.inf
    for p in points:
        if p["revenue"] is None:
            continue
        if p["revenue"] < prev - 1e-9 * max(1.0, abs(prev)):
            raise AssertionError(
                "revenue decreased when the cardinality cap grew "
                f"(m={p['m']}): solver bug, feasible sets are nested")
        prev = p["revenue"]
    return points


def knee_point(points: Sequence[Dict[str, object]]) -> Optional[Dict[str, object]]:
    # Closeness is measured on the revenue scale (top - slack*|top|), not on
    # the reported ratio: when the best achievable revenue is negative every
    # worse point has revenue/top >= 1, which would fire the knee immediately.
    revs = [p["revenue"] for p in points if p.get("revenue") is not None]
    if not revs:
        return None
    top = max(revs)
    cut = top - (1.0 - _KNEE_FRACTION) * abs(top)
    for p in points:
        rev = p.get("revenue")
        if rev is not None and rev >= cut:
            return p
    return None


def pareto_svg(points: Sequence[Dict[str, object]]) -> str:
    """Minimal static chart: one polyline over labeled axes."""
    w, h, ml, mr, mt, mb = 640, 440, 70, 20, 20, 50
    usable = [p for p in points if p["revenue_fraction"] is not None]
    ys = [p["revenue_fraction"] for p in usable] or [0.0, 1.0]
    y_lo = min(min(ys), 0.0)
    y_hi = max(max(ys), 1.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(f):
        return ml + f * (w - ml - mr)

    def sy(f):
        return h - mb - (f - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    pts = " ".join(f"{sx(p['m_fraction']):.2f},{sy(p['revenue_fraction']):.2f}"
                   for p in usable)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>',
    ]
    for i in range(6):
        f = i / 5.0
        x = sx(f)
        parts.append(f'<line x1="{x:.2f}" y1="{h - mb}" x2="{x:.2f}" '
                     f'y2="{h - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{h - mb + 20}" font-size="12" '
                     f'text-anchor="middle">{f:.1f}</text>')
        yv = y_lo + f * (y_hi - y_lo)
        y = sy(yv)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{yv:.2f}</text>')
    parts.append(f'<text x="{(ml + w - mr) / 2}" y="{h - 10}" font-size="13" '
                 'text-anchor="middle">fraction of activities allowed to '
                 'change (m / n)</text>')
    parts.append(f'<text x="15" y="{(mt + h - mb) / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 15 '
                 f'{(mt + h - mb) / 2})">fraction of maximum revenue</text>')
    if pts:
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" '
                     'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_sweep(args) -> int:
    inst = _load_instance(Path(args.instance))
    try:
        points = pareto_sweep(inst, _solve_params(args, args.form),
                              args.m or None)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "m_fraction", "revenue", "revenue_fraction",
                         "status"])
        for p in points:
            writer.writerow([p["m"], _fmt(p["m_fraction"]), _fmt(p["revenue"]),
                             _fmt(p["revenue_fraction"]), p["status"]])
    knee = knee_point(points)
    if knee is not None:
        frac = knee["revenue_fraction"]
        reach = f"{frac:.4f} of maximum revenue" if frac is not None else \
            f"revenue {knee['revenue']:.6g}"
        print(f"knee: m={knee['m']} (m/n={knee['m_fraction']:.3f}) reaches {reach}")
    else:
        print(f"knee: no sweep point reaches {_KNEE_FRACTION} of maximum revenue")
    if args.svg:
        Path(args.svg).write_text(pareto_svg(points))
        print(f"wrote {args.svg}")
    print(f"wrote {out} ({len(points)} point(s))")
    return 0


# ---------------------------------------------------------------------------
# export


def _cmd_export(args) -> int:
    path = Path(args.instance)
    inst = _load_instance(path)
    form = "miqp" if args.form == "miqp" else "misocp"
    text = export_lp(inst, form)
    out = Path(args.out) if args.out else path.with_suffix(f".{form}.lp")
    out.write_text(text)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------


def _add_common_solver_flags(p: argparse.ArgumentParser, form: bool = True) -> None:
    if form:  # ``bench`` solves both
        p.add_argument("--form", default=PERSPECTIVE, choices=[MIQP, PERSPECTIVE],
                       help="bounding formulation")
    p.add_argument("--time-limit", type=float, default=100.0)
    p.add_argument("--gap-tol", type=float, default=0.0)
    p.add_argument("--node-limit", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixopt",
        description="Solver toolkit for budget-coupled spend adjustment "
                    "with minimum-change and cardinality requirements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded instances")
    p.add_argument("--corr", choices=list(genmod.CORRELATIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--xi", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=1.01)
    p.add_argument("--count", type=int, default=1,
                   help="instances per cell (replicates)")
    p.add_argument("--paper-grid", action="store_true",
                   help="full correlation x n x eps x xi grid")
    p.add_argument("--scale-n", type=int, nargs="+", default=None,
                   help="replace the grid's activity counts")
    p.add_argument("--out", default="instances")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    _add_common_solver_flags(p)
    p.add_argument("--json", default=None, help="write a JSON report here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run both formulations over a manifest")
    p.add_argument("manifest")
    _add_common_solver_flags(p, form=False)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="Pareto sweep over the cardinality cap")
    p.add_argument("instance")
    _add_common_solver_flags(p)
    p.add_argument("--m", type=int, nargs="+", default=None,
                   help="explicit cap values (default 0..n)")
    p.add_argument("--out", default="pareto.csv")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export", help="write the model in LP text format")
    p.add_argument("instance")
    p.add_argument("--form", default="miqp", choices=["miqp", "misocp", "persp"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
