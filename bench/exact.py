"""Exact rational reference for the bounds, the extremal moduli and H*.

Every quantity is evaluated with ``fractions.Fraction`` from the float
inputs, so the only rounding left is the final conversion to float (and,
for the many rows of a sweep, the cancellation-free evaluation of
``endpoint_terms``).  The formulas are written from the paper's
construction, not taken from ``thermobounds.bounds``:

* the extremal effective bulk moduli are Hashin's coated-sphere moduli,
  ``K = k_t + f / (1/(k_c - k_t) + (1 - f)/(k_t + 4 mu_t/3))`` for a core
  ``c`` of volume fraction ``f`` in a coating ``t``;
* the compliance parameters of phase 2 (X) and phase 1 (Y) are affine in
  the effective compliance ``1/K``, and the contrast factors are their values
  at the two extremal moduli: ``L1 = Y(K-)``, ``M1 = Y(K+)``,
  ``L2 = X(K+)``, ``M2 = X(K-)``;
* the per-phase bound is ``sqrt(3) * min |(sigma0 - D) t + D|`` over ``t``
  between the phase's two contrast factors, found from the signs of the
  affine function at the two ends;
* ``H*`` follows from Levin's exact relation for two-phase media,
  ``H* = [3 (h2 - h1) + 3 K (h1/k2 - h2/k1)] / (1/k1 - 1/k2)``.

Phase labels follow the program's convention (``mu1 > mu2``); ``exact_composite``
relabels raw phases the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ExactComposite:
    k1: Q
    mu1: Q
    h1: Q
    k2: Q
    mu2: Q
    h2: Q
    theta1: Q

    @property
    def theta2(self) -> Q:
        return 1 - self.theta1


@dataclass(frozen=True)
class ExactConstants:
    """Contrast factors, extremal moduli and D per unit temperature change."""

    L1: Q
    L2: Q
    M1: Q
    M2: Q
    K_minus: Q
    K_plus: Q
    D_per_deltaT: Q

    def D(self, deltaT) -> Q:
        return self.D_per_deltaT * Q(deltaT)

    def F(self, deltaT) -> Q:
        return self.D(deltaT) * (1 - 2 / (self.L1 + self.M2))


def exact_composite(phase_a, phase_b, theta_a) -> ExactComposite:
    """Rational composite from raw ``(k, mu, h)`` triples in any label order."""
    (ka, mua, ha), (kb, mub, hb) = phase_a, phase_b
    theta_a = Q(theta_a)
    if mua < mub:
        (ka, mua, ha), (kb, mub, hb), theta_a = (kb, mub, hb), (ka, mua, ha), 1 - theta_a
    return ExactComposite(Q(ka), Q(mua), Q(ha), Q(kb), Q(mub), Q(hb), theta_a)


def hashin_bulk(k_core: Q, k_coat: Q, mu_coat: Q, f_core: Q) -> Q:
    """Effective bulk modulus of Hashin's coated-sphere assemblage."""
    return k_coat + f_core / (1 / (k_core - k_coat) + (1 - f_core) / (k_coat + Q(4, 3) * mu_coat))


def constants(c: ExactComposite) -> ExactConstants:
    K_minus = hashin_bulk(c.k1, c.k2, c.mu2, c.theta1)  # core 1, compliant coating
    K_plus = hashin_bulk(c.k2, c.k1, c.mu1, c.theta2)  # core 2, stiff coating

    def X(K):
        return (1 / c.k1 - 1 / K) / ((1 / c.k1 - 1 / c.k2) * c.theta2)

    def Y(K):
        return (1 / c.k2 - 1 / K) / ((1 / c.k2 - 1 / c.k1) * c.theta1)

    return ExactConstants(
        L1=Y(K_minus),
        L2=X(K_plus),
        M1=Y(K_plus),
        M2=X(K_minus),
        K_minus=K_minus,
        K_plus=K_plus,
        D_per_deltaT=3 * c.k1 * c.k2 * (c.h2 - c.h1) / (c.k2 - c.k1),
    )


def phase_bound(k: ExactConstants, phase: int, sigma0, deltaT) -> Q:
    """Per-phase bound divided by sqrt(3): min of |(sigma0 - D) t + D|."""
    ends = (k.L1, k.M1) if phase == 1 else (k.L2, k.M2)
    D = k.D(deltaT)
    slope = Q(sigma0) - D
    ga, gb = (slope * t + D for t in ends)
    if ga * gb <= 0:
        return Q(0)
    return min(abs(ga), abs(gb))


def max_bound(k: ExactConstants, sigma0, deltaT) -> Q:
    """Max-field bound divided by sqrt(3)."""
    return max(phase_bound(k, 1, sigma0, deltaT), phase_bound(k, 2, sigma0, deltaT))


def h_star(c: ExactComposite, K: Q) -> Q:
    """Effective thermal stress per unit temperature change of a medium with bulk modulus K."""
    return (3 * (c.h2 - c.h1) + 3 * K * (c.h1 / c.k2 - c.h2 / c.k1)) / (1 / c.k1 - 1 / c.k2)


def endpoint_terms(k: ExactConstants) -> tuple:
    """``(t, D (1 - t) / deltaT)`` per endpoint of phase 1 and of phase 2, each rounded once.

    With these the objective is ``sigma0 t + deltaT E_t``, which has no
    cancellation: its rounding error is a few ulps of ``|sigma0| + |deltaT|``
    times the modest ``|t|`` and ``|E_t|``, five orders under the 1e-10
    tolerance.
    """
    D1 = k.D_per_deltaT
    return tuple(
        tuple((float(t), float(D1 * (1 - t))) for t in ends)
        for ends in ((k.L1, k.M1), (k.L2, k.M2))
    )


def max_bound_from_terms(terms: tuple, sigma0: float, deltaT: float) -> float:
    """Max-field bound (including the sqrt(3)) from ``endpoint_terms``."""
    best = 0.0
    for (ta, ea), (tb, eb) in terms:
        ga = sigma0 * ta + deltaT * ea
        gb = sigma0 * tb + deltaT * eb
        if ga * gb > 0.0:
            best = max(best, min(abs(ga), abs(gb)))
    return SQRT3 * best


def bound_error(value: float, reference: float, sigma0: float, deltaT: float) -> float:
    """Error of a computed bound, relative to the program's attainment scale.

    The scale is ``max(bound, |sigma0| + |deltaT|)``, as in the program's own
    ``bound-attainment`` check.
    """
    return abs(value - reference) / max(reference, abs(sigma0) + abs(deltaT), 1e-300)
