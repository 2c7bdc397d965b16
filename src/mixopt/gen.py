"""Seeded instance generator for the three knapsack-style coefficient classes.

Reproducibility contract
------------------------
The stream is ``numpy.random.Generator(PCG64(SeedSequence(seed)))``.  Draws
happen per activity, in the order ``l, u, s, tau, gamma`` followed by the
class-specific objective coefficients (``theta, phi, psi`` where drawn),
then ``zeta`` and ``eta`` once after the activities.  A variate on
``[lo, hi)`` is ``lo + (hi - lo) * u`` for a double ``u`` of the stream,
which is what ``Generator.uniform(lo, hi)`` computes.  The activities'
doubles come as one block of ``Generator.random``, consumed activity by
activity in the order above, so they are the doubles that one scalar
``uniform`` call per variate would take; ``zeta`` and ``eta`` are two
scalar ``uniform`` calls after the block.

Every drawn variate is rounded half-up to two decimals (ties away from
zero on the shortest decimal rendering) before anything is derived from
it.  The minimum change ``delta = epsilon * s`` is itself rounded the same
way; strongly correlated coefficients are computed exactly from the
rounded ``tau, gamma`` and not re-rounded, which keeps ``theta + phi = 0``
and ``phi = psi`` exact.  The two extra rows keep their derived right-hand
sides unrounded.

Batch seeding: replicate ``r`` of cell ``c`` uses the 64-bit integer
drawn from ``SeedSequence(base_seed, spawn_key=(c, r))``, so any cell or
replicate can be regenerated in isolation.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .instance import Instance, LinearConstraint

UNCORRELATED = "uncorrelated"
WEAK = "weak"
STRONG = "strong"
CORRELATIONS = (UNCORRELATED, WEAK, STRONG)

PAPER_N = (500, 750, 1000)
PAPER_EPSILON = (0.05, 0.10, 0.20)
PAPER_XI = (0.50, 0.75, 1.00)
# the supports [low, low + span) of l, u, tau, gamma and the uncorrelated theta, phi, psi
_LOW = np.array([[1.0], [5.0], [1.0], [1.0], [-10.0], [1.0], [1.0]])
_SPAN = np.array([[4.0], [5.0], [9.0], [9.0], [9.0], [9.0], [9.0]])
EPSILON_MAX = 1e11  # keeps delta = epsilon * s (s <= 10) where rounding is exact


def _round_half_up(x: np.ndarray, per: float) -> np.ndarray:
    """``x`` rounded half-up to a multiple of ``1 / per`` (``per`` 1 or 100)
    on each value's shortest decimal rendering, keeping the sign.  Below
    1e12 a rendering is at or above ``k / per`` or ``(2k + 1) / (2 per)``
    exactly when its float is at or above that decimal's float."""
    a = np.abs(x)
    k = np.floor(a * per)
    k -= k / per > a
    k += (k + 1.0) / per <= a
    k += (2.0 * k + 1.0) / (2.0 * per) <= a
    return np.copysign(k / per, x)


@dataclass(frozen=True)
class GenConfig:
    correlation: str
    n: int
    epsilon: float
    xi: float
    seed: int
    rho: float = 1.01

    def __post_init__(self):
        if self.correlation not in CORRELATIONS:
            raise ValueError(f"unknown correlation class {self.correlation!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be an integer of at least 1, got {self.n!r}")
        if not 0 <= self.epsilon < EPSILON_MAX:
            raise ValueError(f"epsilon must be finite, nonnegative and below {EPSILON_MAX:g}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be finite and positive")


def generate(cfg: GenConfig) -> Instance:
    """Draw one instance; pure function of the config."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    strong = cfg.correlation == STRONG
    # one row of doubles per variate; contiguous rows keep np.dot's summation order
    u = np.ascontiguousarray(rng.random((5 if strong else 8) * cfg.n).reshape(cfg.n, -1).T)
    l, up, tau, gamma = _round_half_up(_LOW[:4] + _SPAN[:4] * u[[0, 1, 3, 4]], 100)
    s = _round_half_up(l + (up - l) * u[2], 100)
    c = (tau + gamma) / 2.0
    if strong:  # exact function of the rounded row coefficients
        theta, phi, psi = -(c + 1.0), c + 1.0, c + 1.0
    else:
        lo, span = _LOW[4:], _SPAN[4:]
        if cfg.correlation == WEAK:
            lo = np.array([-(c + 1.0), c - 1.0, c - 1.0])
            span = np.array([-(c - 1.0), c + 1.0, c + 1.0]) - lo
        theta, phi, psi = _round_half_up(lo + span * u[5:], 100)
    delta = _round_half_up(cfg.epsilon * s, 100)
    zeta = float(_round_half_up(rng.uniform(0.90, 1.00), 100))
    eta = float(_round_half_up(rng.uniform(1.00, 1.10), 100))
    extras = (LinearConstraint(tuple(tau.tolist()), "le", (zeta - 1.0) * float(np.dot(tau, s))),
              LinearConstraint(tuple(gamma.tolist()), "ge", (eta - 1.0) * float(np.dot(gamma, s))))
    m = int(_round_half_up(cfg.xi * cfg.n, 1))
    fields = np.array([s, l, up, delta, theta, phi, psi])
    return Instance([f"a{i:05d}" for i in range(cfg.n)], fields, cfg.rho, m, extras)


@dataclass(frozen=True)
class Cell:
    correlation: str
    n: int
    epsilon: float
    xi: float


def paper_cells(n_values: Sequence[int] = PAPER_N) -> List[Cell]:
    """Experiment grid: correlation x n x epsilon x xi, in that nesting
    order, over ``PAPER_EPSILON`` and ``PAPER_XI``: 27 cells per size."""
    return [Cell(*key) for key in itertools.product(CORRELATIONS, n_values,
                                                    PAPER_EPSILON, PAPER_XI)]


def mix_seed(base_seed: int, cell_index: int, replicate: int) -> int:
    """Declared per-instance seed mix; independent of generation order."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(cell_index, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def batch(cells: Sequence[Cell], replicates: int,
          base_seed: int = 0) -> List[Tuple[Cell, GenConfig, Instance]]:
    """Generate ``replicates`` instances for every cell, deterministically,
    at ``GenConfig``'s default ``rho``."""
    out: List[Tuple[Cell, GenConfig, Instance]] = []
    for ci, cell in enumerate(cells):
        for r in range(replicates):
            cfg = GenConfig(correlation=cell.correlation, n=cell.n, epsilon=cell.epsilon,
                            xi=cell.xi, seed=mix_seed(base_seed, ci, r))
            out.append((cell, cfg, generate(cfg)))
    return out
