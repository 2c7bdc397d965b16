"""Shared instance builders for the test suite.

Everything here stays small (n <= 12) so the enumeration oracle in
``mixopt.bnb.brute_force`` is cheap; the heavier seeded batches live in
test_acceptance.py.
"""

import random

import pytest

from mixopt import LinearConstraint

from activity_reference import Act, instance_of


def make_activity(i, rng, theta_range=(-10.0, -0.5), phi_range=(-2.0, 10.0)):
    """One random activity; region availability falls out of the draws."""
    l = rng.uniform(1.0, 5.0)
    u = rng.uniform(5.0, 10.0)
    s = rng.uniform(l, u)
    delta = rng.uniform(0.05, 0.6) * s
    return Act(
        id=f"a{i:03d}",
        s=s,
        l=l,
        u=u,
        delta=delta,
        theta=rng.uniform(*theta_range),
        phi=rng.uniform(*phi_range),
        psi=rng.uniform(0.0, 10.0),
    )


def region_box(rb, region):
    """The change interval of ``region`` in the region bounds ``rb``: the
    origin for S, ``rb.L`` or ``rb.R`` (None when absent) otherwise."""
    return (0.0, 0.0) if region == "S" else rb.L if region == "L" else rb.R


def random_instance(rng, n, *, m=None, rho=None, with_extras=False):
    acts = tuple(make_activity(i, rng) for i in range(n))
    if rho is None:
        rho = rng.uniform(1.0, 1.1)
    if m is None:
        m = rng.randint(0, n)
    extras = ()
    if with_extras:
        taus = [rng.uniform(1.0, 10.0) for _ in range(n)]
        gammas = [rng.uniform(1.0, 10.0) for _ in range(n)]
        zeta = rng.uniform(0.90, 1.00)
        eta = rng.uniform(1.00, 1.10)
        tau_rhs = (zeta - 1.0) * sum(t * a.s for t, a in zip(taus, acts))
        gamma_rhs = (eta - 1.0) * sum(g * a.s for g, a in zip(gammas, acts))
        extras = (
            LinearConstraint(coeffs=tuple(taus), sense="le", rhs=tau_rhs),
            LinearConstraint(coeffs=tuple(gammas), sense="ge", rhs=gamma_rhs),
        )
    return instance_of(acts, rho=rho, m=m, extras=extras)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def two_symmetric():
    """Two identical concave activities, R=[0.5, 3] each, loose budget, m=1.

    The optimum parks one activity at its unconstrained peak x=2 (value 4)
    and leaves the other at no-change.
    """
    act = dict(s=1.0, l=1.0, u=4.0, delta=0.5, theta=-1.0, phi=4.0, psi=0.0)
    a = Act(id="a", **act)
    b = Act(id="b", **act)
    return instance_of((a, b), rho=10.0, m=1, extras=())
