"""Seeded instance generation: supports, correlation classes, reproducibility."""

import decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixopt import Cell, GenConfig, batch, generate, mix_seed, paper_cells, save_json, validate

CLASSES = ("uncorrelated", "weak", "strong")


def _round2(x):
    return float(decimal.Decimal(repr(x)).quantize(decimal.Decimal("0.01"),
                                                   rounding=decimal.ROUND_HALF_UP))


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
    for a, tau, gamma in zip(inst.activities, taus, gammas):
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
    for a, tau, gamma in zip(inst.activities, inst.extras[0].coeffs, gammas):
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
    tau_spend = sum(t * a.s for t, a in zip(taus, inst.activities))
    gamma_spend = sum(g * a.s for g, a in zip(gammas, inst.activities))
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
    ],
)
def test_config_validation(kw, fragment):
    base = dict(correlation="strong", n=4, epsilon=0.1, xi=0.5, seed=1)
    base.update(kw)
    with pytest.raises(ValueError, match=fragment):
        GenConfig(**base)


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
