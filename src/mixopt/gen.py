"""Seeded instance generator for the three knapsack-style coefficient classes.

Reproducibility contract
------------------------
The stream is ``numpy.random.Generator(PCG64(SeedSequence(seed)))``.  Draws
happen per activity, in the order ``l, u, s, tau, gamma`` followed by the
class-specific objective coefficients (``theta, phi, psi`` where drawn),
then ``zeta`` and ``eta`` once after the activity loop.  Uniform variates
use ``Generator.uniform(lo, hi)``.

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
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .instance import Activity, Instance, LinearConstraint

UNCORRELATED = "uncorrelated"
WEAK = "weak"
STRONG = "strong"
CORRELATIONS = (UNCORRELATED, WEAK, STRONG)

PAPER_N = (500, 750, 1000)
PAPER_EPSILON = (0.05, 0.10, 0.20)
PAPER_XI = (0.50, 0.75, 1.00)


def _round2(x: float) -> float:
    return float(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _half_up_int(x: float) -> int:
    return int(Decimal(repr(x)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


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
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if not self.rho > 0:
            raise ValueError("rho must be positive")


def generate(cfg: GenConfig) -> Instance:
    """Draw one instance; pure function of the config."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    acts: List[Activity] = []
    taus: List[float] = []
    gammas: List[float] = []
    for i in range(cfg.n):
        l = _round2(rng.uniform(1.0, 5.0))
        u = _round2(rng.uniform(5.0, 10.0))
        s = _round2(rng.uniform(l, u))
        tau = _round2(rng.uniform(1.0, 10.0))
        gamma = _round2(rng.uniform(1.0, 10.0))
        if cfg.correlation == UNCORRELATED:
            theta = _round2(rng.uniform(-10.0, -1.0))
            phi = _round2(rng.uniform(1.0, 10.0))
            psi = _round2(rng.uniform(1.0, 10.0))
        elif cfg.correlation == WEAK:
            c = (tau + gamma) / 2.0
            theta = _round2(rng.uniform(-(c + 1.0), -(c - 1.0)))
            phi = _round2(rng.uniform(c - 1.0, c + 1.0))
            psi = _round2(rng.uniform(c - 1.0, c + 1.0))
        else:  # strong: exact function of the rounded row coefficients
            c = (tau + gamma) / 2.0
            theta = -(c + 1.0)
            phi = c + 1.0
            psi = c + 1.0
        delta = _round2(cfg.epsilon * s)
        acts.append(Activity(id=f"a{i:05d}", s=s, l=l, u=u, delta=delta,
                             theta=theta, phi=phi, psi=psi))
        taus.append(tau)
        gammas.append(gamma)
    zeta = _round2(rng.uniform(0.90, 1.00))
    eta = _round2(rng.uniform(1.00, 1.10))
    tau_rhs = (zeta - 1.0) * float(np.dot(taus, [a.s for a in acts]))
    gamma_rhs = (eta - 1.0) * float(np.dot(gammas, [a.s for a in acts]))
    extras = (
        LinearConstraint(coeffs=tuple(taus), sense="le", rhs=tau_rhs),
        LinearConstraint(coeffs=tuple(gammas), sense="ge", rhs=gamma_rhs),
    )
    m = _half_up_int(cfg.xi * cfg.n)
    return Instance(rho=cfg.rho, m=m, activities=tuple(acts), extras=extras)


@dataclass(frozen=True)
class Cell:
    correlation: str
    n: int
    epsilon: float
    xi: float


def paper_cells(n_values: Sequence[int] = PAPER_N,
                epsilons: Sequence[float] = PAPER_EPSILON,
                xis: Sequence[float] = PAPER_XI) -> List[Cell]:
    """Experiment grid: correlation x n x epsilon x xi, in that nesting order."""
    return [Cell(c, n, e, x)
            for c, n, e, x in itertools.product(CORRELATIONS, n_values,
                                                epsilons, xis)]


def mix_seed(base_seed: int, cell_index: int, replicate: int) -> int:
    """Declared per-instance seed mix; independent of generation order."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(cell_index, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def batch(cells: Sequence[Cell], replicates: int, base_seed: int = 0,
          rho: float = 1.01) -> List[Tuple[Cell, GenConfig, Instance]]:
    """Generate ``replicates`` instances for every cell, deterministically."""
    out: List[Tuple[Cell, GenConfig, Instance]] = []
    for ci, cell in enumerate(cells):
        for r in range(replicates):
            cfg = GenConfig(correlation=cell.correlation, n=cell.n,
                            epsilon=cell.epsilon, xi=cell.xi,
                            seed=mix_seed(base_seed, ci, r), rho=rho)
            out.append((cell, cfg, generate(cfg)))
    return out
