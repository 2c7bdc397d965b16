"""Seeded instance generation: supports, correlation classes, reproducibility.

The bytes of every generated instance are part of the generator's
contract.  ``tests/data/instance_digests.json`` holds the sha256 of
``save_json`` for three sets of instances; a change that moves an instance
on purpose re-records it, and says why:

    python3 tests/test_gen.py
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

TESTS = Path(__file__).resolve().parent
if __name__ == "__main__":  # a checkout runs without installing
    sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from mixopt import Cell, GenConfig, batch, generate, mix_seed, paper_cells, save_json, validate
from mixopt.gen import EPSILON_MAX, _round_half_up
from activity_reference import activities
from rounding_reference import half_up_int, round2 as _round2

CLASSES = ("uncorrelated", "weak", "strong")
DIGESTS = TESTS / "data" / "instance_digests.json"
# n = 1, epsilon = 0, xi at both ends and a rho other than the default
EDGES = (dict(n=1, epsilon=0.1, xi=0.5), dict(n=1, epsilon=0.2, xi=0.0),
         dict(n=7, epsilon=0.0, xi=0.5), dict(n=7, epsilon=0.1, xi=0.0),
         dict(n=7, epsilon=0.1, xi=1.0), dict(n=7, epsilon=0.05, xi=0.75, rho=1.07))


def instance_digests():
    """The sha256 of ``save_json`` of each instance, by key: the 27 paper
    cells at n = 500 (``batch(paper_cells([500]), 1, 0)``), the grid of
    ``scripts/solve_signatures.py``, and ``EDGES`` in each class at seeds
    0-2."""
    spec = importlib.util.spec_from_file_location(
        "solve_signatures", TESTS.parent / "scripts" / "solve_signatures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    named = [(f"{tag}_{cell.correlation}_n{cell.n}_e{cell.epsilon}_x{cell.xi}_s{cfg.seed}",
              inst) for tag, rows in (("paper", batch(paper_cells([500]), 1, 0)),
                                      ("desk", script.grid()))
             for cell, cfg, inst in rows]
    for corr in CLASSES:
        for k, edge in enumerate(EDGES):
            for seed in range(3):
                named.append((f"edge{k}_{corr}_s{seed}",
                              generate(GenConfig(correlation=corr, seed=seed, **edge))))
    return {key: hashlib.sha256(save_json(inst)).hexdigest() for key, inst in named}


def test_instances_match_the_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = instance_digests()
    assert len(want) == 27 + 48 + 54
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} instances moved: {moved}"


def _is_2dp(v):
    return abs(v * 100.0 - round(v * 100.0)) < 1e-9


def _gammas(inst):
    # the >= row was normalized to <= at construction, flipping its signs
    return tuple(-c for c in inst.extras[1].coeffs)


@pytest.mark.parametrize("corr", CLASSES)
def test_supports_respected(corr):
    cfg = GenConfig(correlation=corr, n=40, epsilon=0.1, xi=0.75, seed=99)
    inst = generate(cfg)
    assert validate(inst).ok
    taus = inst.extras[0].coeffs
    gammas = _gammas(inst)
    for a, tau, gamma in zip(activities(inst), taus, gammas):
        assert 1.0 <= a.l <= 5.0 and 5.0 <= a.u <= 10.0
        assert a.l <= a.s <= a.u
        assert 1.0 <= tau <= 10.0 and 1.0 <= gamma <= 10.0
        for v in (a.l, a.u, a.s, tau, gamma, a.delta):
            assert _is_2dp(v)
        assert a.delta == _round2(cfg.epsilon * a.s)
        if corr == "uncorrelated":
            assert -10.0 <= a.theta <= -1.0
            assert 1.0 <= a.phi <= 10.0 and 1.0 <= a.psi <= 10.0
            assert _is_2dp(a.theta) and _is_2dp(a.phi) and _is_2dp(a.psi)
        else:
            c = (tau + gamma) / 2.0
            assert abs(a.theta + c) <= 1.0 + 0.005
            assert abs(a.phi - c) <= 1.0 + 0.005
            assert abs(a.psi - c) <= 1.0 + 0.005


def test_strong_identity_exact():
    cfg = GenConfig(correlation="strong", n=60, epsilon=0.05, xi=0.5, seed=4)
    inst = generate(cfg)
    gammas = _gammas(inst)
    for a, tau, gamma in zip(activities(inst), inst.extras[0].coeffs, gammas):
        c = (tau + gamma) / 2.0
        assert a.theta == -(c + 1.0)  # exact, no re-rounding
        assert a.phi == c + 1.0
        assert a.psi == a.phi
        assert a.theta + a.phi == 0.0


def test_extra_rows_shape():
    inst = generate(GenConfig(correlation="weak", n=12, epsilon=0.1, xi=0.5, seed=8))
    assert len(inst.extras) == 2
    assert all(row.sense == "le" for row in inst.extras)
    taus = inst.extras[0].coeffs
    gammas = _gammas(inst)
    tau_spend = sum(t * a.s for t, a in zip(taus, activities(inst)))
    gamma_spend = sum(g * a.s for g, a in zip(gammas, activities(inst)))
    # tau row: zeta in [0.90, 1.00] makes the rhs a required weighted cut
    assert -0.10 * tau_spend - 1e-9 <= inst.extras[0].rhs <= 0.0
    # gamma row arrives as >= with rhs (eta-1)*gamma_spend, eta in [1.00, 1.10]
    assert -0.10 * gamma_spend - 1e-9 <= inst.extras[1].rhs <= 0.0


@pytest.mark.parametrize(
    "n,xi,expect",
    [(5, 0.5, 3), (10, 0.75, 8), (8, 0.5, 4), (4, 0.0, 0), (4, 1.0, 4), (3, 0.5, 2)],
)
def test_cardinality_cap_rounds_half_up(n, xi, expect):
    cfg = GenConfig(correlation="strong", n=n, epsilon=0.1, xi=xi, seed=0)
    assert generate(cfg).m == expect


def test_rho_passthrough():
    inst = generate(GenConfig(correlation="strong", n=4, epsilon=0.1, xi=0.5, seed=0, rho=1.07))
    assert inst.rho == 1.07


def test_numpy_integer_n():
    cfg = GenConfig(correlation="weak", n=np.int64(9), epsilon=0.1, xi=0.5, seed=5)
    assert save_json(generate(cfg)) == save_json(generate(dataclasses.replace(cfg, n=9)))


def test_byte_identical_regeneration():
    cfg = GenConfig(correlation="weak", n=25, epsilon=0.2, xi=1.0, seed=123456789)
    assert save_json(generate(cfg)) == save_json(generate(cfg))


def test_seeds_change_the_draw():
    mk = lambda s: GenConfig(correlation="uncorrelated", n=10, epsilon=0.1, xi=0.5, seed=s)
    assert save_json(generate(mk(1))) != save_json(generate(mk(2)))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(CLASSES),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0.05, 0.1, 0.2]),
    st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_generated_instances_always_validate(corr, n, eps, xi, seed):
    inst = generate(GenConfig(correlation=corr, n=n, epsilon=eps, xi=xi, seed=seed))
    assert validate(inst).ok
    assert inst.n == n
    assert inst.m <= n


@pytest.mark.parametrize(
    "kw,fragment",
    [
        (dict(n=0), "n must"),
        (dict(epsilon=-0.1), "epsilon"),
        (dict(xi=1.5), "xi"),
        (dict(correlation="bogus"), "correlation"),
        (dict(epsilon=math.nan), "epsilon"),
        (dict(epsilon=math.inf), "epsilon"),
        (dict(epsilon=1e27), "epsilon"),
        (dict(epsilon=EPSILON_MAX), "epsilon"),
        (dict(n=2.5), "n must"),
        (dict(n=True), "n must"),
        (dict(rho=math.inf), "rho"),
        (dict(rho=math.nan), "rho"),
    ],
)
def test_config_validation(kw, fragment):
    base = dict(correlation="strong", n=4, epsilon=0.1, xi=0.5, seed=1)
    base.update(kw)
    with pytest.raises(ValueError, match=fragment):
        GenConfig(**base)


def test_largest_epsilon_rounds_as_the_oracle():
    """Up to the largest epsilon ``GenConfig`` takes, each minimum change
    is its Decimal rounding."""
    eps = float(np.nextafter(EPSILON_MAX, 0.0))
    inst = generate(GenConfig(correlation="weak", n=50, epsilon=eps, xi=0.5, seed=3))
    assert [repr(a.delta) for a in activities(inst)] == [
        repr(_round2(eps * a.s)) for a in activities(inst)]


# ---------------------------------------------------------------------------
# the array rounding against the Decimal oracle


def _agrees(x):
    """Whether ``gen._round_half_up`` of the values ``x`` gives, bit for bit
    (signed zeros too), what the Decimal oracle gives value by value, to
    cents, and to the integers of the cardinality cap."""
    x = np.asarray(x, dtype=float)
    cents = _round_half_up(x, 100).tolist()
    units = _round_half_up(x, 1).tolist()
    return (list(map(repr, cents)) == [repr(_round2(v)) for v in x.tolist()]
            and list(map(int, units)) == list(map(half_up_int, x.tolist())))


def _ties(k, per):
    """The ties ``(2k + 1) / (2 per)`` and their float neighbours, of both signs."""
    ties = (2.0 * np.asarray(k, dtype=float) + 1.0) / (2.0 * per)
    x = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    return np.concatenate([x, -x])


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.floats(min_value=-1e12, max_value=1e12, exclude_min=True, exclude_max=True),
    st.integers(min_value=0, max_value=10**14 - 1).map(lambda k: (2 * k + 1) / 200),
    st.integers(min_value=1 - 10**14, max_value=10**14 - 1).map(lambda k: k / 100),
))
def test_array_rounding_matches_the_oracle(x):
    assert _agrees([x])
    assert _agrees([float(np.nextafter(x, 0.0)), float(np.nextafter(x, np.inf)), -x])


def test_array_rounding_matches_the_oracle_on_ties():
    rng = np.random.default_rng(0)
    small = np.arange(20_000)  # every cent tie below 100
    large = rng.integers(0, 10**14 - 1, 20_000)  # ties up to 1e12
    assert _agrees(_ties(np.concatenate([small, large]), 100))
    assert _agrees(_ties(np.concatenate([np.arange(2000), rng.integers(0, 10**12, 2000)]), 1))
    assert _agrees([0.0, -0.0, 0.004, -0.004, 0.005, -0.005, 1e-300, -1e-300, 5e-324])


# ---------------------------------------------------------------------------
# experiment grid


def test_paper_cells_counts_and_order():
    full = paper_cells()
    assert len(full) == 81  # 3 classes x 3 sizes x 3 epsilons x 3 xis
    scaled = paper_cells(n_values=(10,))
    assert len(scaled) == 27
    # correlation varies slowest, xi fastest
    assert scaled[0] == Cell("uncorrelated", 10, 0.05, 0.5)
    assert scaled[1].xi == 0.75
    assert scaled[8] == Cell("uncorrelated", 10, 0.2, 1.0)
    assert scaled[9].correlation == "weak"
    assert {c.correlation for c in scaled} == set(CLASSES)
    assert len(set(scaled)) == 27


def test_batch_shape_and_determinism():
    cells = paper_cells(n_values=(8,))[:4]
    out = batch(cells, 3, base_seed=7)
    assert len(out) == 12
    again = batch(cells, 3, base_seed=7)
    assert [cfg for _, cfg, _ in out] == [cfg for _, cfg, _ in again]
    assert [save_json(i) for *_, i in out] == [save_json(i) for *_, i in again]
    seeds = [cfg.seed for _, cfg, _ in out]
    assert len(set(seeds)) == len(seeds)  # one stream per (cell, replicate)
    for cell, cfg, inst in out:
        assert (cfg.correlation, cfg.n, cfg.epsilon, cfg.xi) == (
            cell.correlation, cell.n, cell.epsilon, cell.xi)
        assert inst.n == cell.n
        assert validate(inst).ok


def test_batch_empty_replicates():
    assert batch(paper_cells(n_values=(8,)), 0) == []


def test_batch_replicates_differ():
    cells = [Cell("strong", 8, 0.2, 0.5)]
    out = batch(cells, 3, base_seed=0)
    blobs = {save_json(inst) for _, _, inst in out}
    assert len(blobs) == 3


def test_mix_seed_is_a_pure_64bit_mix():
    assert mix_seed(5, 0, 0) == mix_seed(5, 0, 0)
    triples = {(b, c, r): mix_seed(b, c, r) for b in (0, 5) for c in (0, 1) for r in (0, 1)}
    assert len(set(triples.values())) == len(triples)
    assert all(0 <= v < 2**64 for v in triples.values())


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(instance_digests(), indent=1, sort_keys=True) + "\n")
