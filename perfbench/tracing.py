"""In-memory spans around the calls ``mixopt.bnb`` makes into other layers.

``patched(tracer)`` swaps the names ``mixopt.bnb`` imported from the
relax, hull and instance modules for timing wrappers, and puts them back
on exit.  Nothing under ``src/`` changes.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import mixopt.bnb as bnb

# bnb attribute -> (span name, outcome flag recorded for the ratio metrics)
WRAPPED: Dict[str, tuple] = {
    "solve_node_relaxation": ("relax.solve_node_relaxation",
                              lambda r: r.converged),
    "solve_fixed_assignment": ("relax.solve_fixed_assignment",
                               lambda r: r.feasible),
    "check_minlp_feasible": ("hull.check_minlp_feasible", lambda r: r.ok),
    "validate": ("instance.validate", lambda r: r.ok),
}
SOLVE_SPAN = "bnb.branch_and_bound"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    solve: str
    flag: Optional[bool] = None
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Spans of one run, in start order; ``solve`` tags spans with the case."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.solve = ""

    def call(self, name: str, fn: Callable, *args,
             flag: Optional[Callable] = None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.solve)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                # single-threaded calls: children never overlap each other
                self.spans[parent].child_s += span.duration
        if flag is not None:
            span.flag = bool(flag(out))
        return out

    def solve_call(self, solve_id: str, fn: Callable, *args, **kwargs):
        self.solve = solve_id
        return self.call(SOLVE_SPAN, fn, *args, **kwargs)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, flagged-true count."""
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "true": 0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_s
            row["true"] += bool(s.flag)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "solve": s.solve, "self_s": s.self_s,
                    "flag": s.flag}) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route bnb's calls into other layers through ``tracer``."""
    originals = {name: getattr(bnb, name) for name in WRAPPED}

    def wrapper(name, fn):
        span_name, flag = WRAPPED[name]

        def traced(*args, **kwargs):
            return tracer.call(span_name, fn, *args, flag=flag, **kwargs)
        return traced

    try:
        for name, fn in originals.items():
            setattr(bnb, name, wrapper(name, fn))
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(bnb, name, fn)
