"""Shared helpers: canonical composite and seeded random generators."""

import numpy as np
import pytest

from thermobounds import Loading, Ordering, PhaseProperties, build_composite

# Canonical test composite: k=2/1, mu=1/0.5, theta=0.5/0.5, h=0/1.
# Exact constants (rational arithmetic): L1=10/9, L2=5/6, M1=7/6, M2=8/9,
# and at deltaT=1: D=-6, F=0; K-=18/13, K+=24/17.
def build_unswapped(phase1, phase2, theta1):
    """``build_composite`` for phases already labeled ``mu1 > mu2``."""
    comp, swapped = build_composite(phase1, phase2, theta1)
    assert not swapped
    return comp


CANONICAL = build_unswapped(
    PhaseProperties(k=2.0, mu=1.0, h=0.0),
    PhaseProperties(k=1.0, mu=0.5, h=1.0),
    theta1=0.5,
)
CANONICAL_LOADING = Loading(sigma0=0.0, deltaT=1.0)


def random_composite(rng, ordering=None, h_sign=None):
    """A random valid composite, optionally with prescribed ordering class
    and sign of h2 - h1.

    Moduli are drawn log-uniformly from [0.2, 5] with a minimum relative
    bulk-modulus separation of 1e-3 (well inside the validation gate, and
    enough to keep the contrast factors well conditioned); expansion
    coefficients from [-2, 2] separated by at least 1e-3.  All values are
    Python floats, the number type the CLI passes.
    """
    while True:
        ka, kb = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 2)).tolist()
        mu = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 2))
        mu_hi, mu_lo = np.sort(mu)[::-1].tolist()
        if mu_hi == mu_lo or abs(ka - kb) < 1e-3 * max(ka, kb):
            continue
        if ordering is Ordering.WELL_ORDERED:
            k1, k2 = max(ka, kb), min(ka, kb)
        elif ordering is Ordering.NON_WELL_ORDERED:
            k1, k2 = min(ka, kb), max(ka, kb)
        else:
            k1, k2 = ka, kb
        h1, h2 = rng.uniform(-2.0, 2.0, 2).tolist()
        if abs(h2 - h1) < 1e-3:
            continue
        if h_sign is not None and np.sign(h2 - h1) != h_sign:
            h1, h2 = h2, h1
        theta1 = float(rng.uniform(0.05, 0.95))
        return build_unswapped(
            PhaseProperties(k=k1, mu=mu_hi, h=h1),
            PhaseProperties(k=k2, mu=mu_lo, h=h2),
            theta1,
        )


def random_loading(rng, deltaT_sign=None):
    sigma0 = float(rng.uniform(-10.0, 10.0))
    deltaT = float(rng.uniform(0.2, 3.0) if deltaT_sign else rng.uniform(-3.0, 3.0))
    if deltaT_sign is not None:
        deltaT = deltaT_sign * abs(deltaT)
    return Loading(sigma0=sigma0, deltaT=deltaT)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
