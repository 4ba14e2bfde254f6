"""Shared helpers: canonical composite, seeded random generators, and references.

The references restate the paper's definitions independently of the library's
bound kernel: the maps from effective compliance to X and Y, the compliance
interval, and a dense scan of the bound objective over it.  ``classify_branch``
names the branch the kernel finds at one loading.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from thermobounds import CoatedSphereConfig, Loading, Ordering, PhaseProperties, build_composite
from thermobounds.bounds import BRANCH_IDS, _bound

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


@pytest.fixture
def sphere_builds(monkeypatch):
    """The ``(composite, core_phase)`` of each CoatedSphereConfig built in the test.

    Each build derives that sphere's K, H* and clamped thermal solution once.
    """
    builds, new = [], CoatedSphereConfig.__new__

    def counted(cls, composite, core_phase):
        builds.append((composite, core_phase))
        return new(cls, composite, core_phase)

    monkeypatch.setattr(CoatedSphereConfig, "__new__", staticmethod(counted))
    return builds


def compliance_to_X(compliance, c):
    """Phase 2's parameter X of the effective compliance contraction (C_eff)^{-1} I : I.

    Affine and monotone in the compliance, 1/K_eff for isotropic effective behavior.
    """
    k1, k2 = c.phase1.k, c.phase2.k
    return (1.0 / c.theta2) * (1.0 / k1 - compliance) / (1.0 / k1 - 1.0 / k2)


def compliance_to_Y(compliance, c):
    """Phase 1's parameter Y of the effective compliance contraction."""
    k1, k2 = c.phase1.k, c.phase2.k
    return (1.0 / c.theta1) * (1.0 / k2 - compliance) / (1.0 / k2 - 1.0 / k1)


class ComplianceInterval(NamedTuple):
    """The admissible range [lo, hi] of a phase's parameter and its endpoints' symbols."""

    lo: float
    hi: float
    lo_symbol: str
    hi_symbol: str


def compliance_interval(c, phase):
    """The interval of Y (phase 1) or X (phase 2), by the paper's rule.

    Well-ordered: Y in [L1, M1] and X in [L2, M2]; non-well-ordered: each reversed.
    """
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    symbols = (f"L{phase}", f"M{phase}")
    if c.ordering is Ordering.NON_WELL_ORDERED:
        symbols = symbols[::-1]
    lo, hi = (getattr(c.endpoints, s).t for s in symbols)
    return ComplianceInterval(lo, hi, *symbols)


def interval_scan_min(lo, hi, sigma0, D, n):
    """Dense-scan minimum of sqrt(3)*|(sigma0 - D) t + D| over [lo, hi].

    Evaluates at n equispaced points; the result overestimates the true
    minimum by at most sqrt(3) |sigma0 - D| (hi - lo) / (n - 1).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(lo, hi, n)
        return float(np.min(math.sqrt(3.0) * np.abs((sigma0 - D) * t + D)))


def classify_branch(c, deltaT, target, sigma0):
    """(BoundResult, branch id) of a bound at one loading, ``target`` phase1, phase2 or max.

    The branch id combines the minimizing endpoint family (L or M, of the
    winning phase for "max") with the side of that branch's vanishing stress
    sigma0 falls on; a zero bound is the "Zero" branch.
    """
    result, row = _bound(c, target, sigma0, deltaT)
    return result, BRANCH_IDS[row[5]]
