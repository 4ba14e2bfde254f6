"""Tests of the exact rational reference the benchmark checks outputs against.

Run with ``python3 -m pytest bench/test_exact.py``; they live outside the
package's ``testpaths``.
"""

from fractions import Fraction as Q

import exact

CANONICAL = ((2.0, 1.0, 0.0), (1.0, 0.5, 1.0), 0.5)


def canonical():
    c = exact.exact_composite(*CANONICAL)
    return c, exact.constants(c)


def test_canonical_contrast_factors():
    _, k = canonical()
    assert (k.L1, k.L2, k.M1, k.M2) == (Q(10, 9), Q(5, 6), Q(7, 6), Q(8, 9))


def test_canonical_D_and_F():
    _, k = canonical()
    assert k.D(1.0) == -6
    assert k.F(1.0) == 0


def test_canonical_extremal_moduli():
    _, k = canonical()
    assert (k.K_minus, k.K_plus) == (Q(18, 13), Q(24, 17))


def test_canonical_bounds():
    # (sigma0, deltaT) = (0, 1): both phase bounds are sqrt(3) * 2/3
    _, k = canonical()
    assert exact.phase_bound(k, 1, 0.0, 1.0) == Q(2, 3)
    assert exact.phase_bound(k, 2, 0.0, 1.0) == Q(2, 3)
    assert exact.max_bound(k, 0.0, 1.0) == Q(2, 3)
    # sigma0 = -3: the objective 3 t - 6 is negative on [5/6, 8/9], least at 8/9
    assert exact.phase_bound(k, 2, -3.0, 1.0) == Q(10, 3)
    # sigma0 = 1: the objective 7 t - 6 vanishes at 6/7, inside [5/6, 8/9]
    assert exact.phase_bound(k, 2, 1.0, 1.0) == 0
    assert exact.max_bound(k, 1.0, 1.0) == exact.phase_bound(k, 1, 1.0, 1.0) > 0


def test_canonical_h_star_matches_coated_sphere_closed_form():
    # clamped coated sphere: A = 3 f (kt ht - kc hc) / (3 kc (1-f) + 3 kt f + 4 mut),
    # H* = 3 kt (A - ht) + 4 mut A
    c, k = canonical()
    assert exact.h_star(c, k.K_minus) == Q(-24, 13)  # core 1
    assert exact.h_star(c, k.K_plus) == Q(-30, 17)  # core 2


def test_relabelling_by_shear_modulus():
    a, b, theta = CANONICAL
    assert exact.exact_composite(b, a, 1.0 - theta) == exact.exact_composite(a, b, theta)


def test_hashin_form_agrees_with_mixture_form():
    # K = kbar - theta1 theta2 (k2 - k1)^2 / (k1 theta2 + k2 theta1 + 4 mu_coat / 3)
    c, k = canonical()
    kbar = c.theta1 * c.k1 + c.theta2 * c.k2
    num = c.theta1 * c.theta2 * (c.k2 - c.k1) ** 2
    base = c.k1 * c.theta2 + c.k2 * c.theta1
    assert k.K_plus == kbar - num / (base + Q(4, 3) * c.mu1)
    assert k.K_minus == kbar - num / (base + Q(4, 3) * c.mu2)


def test_rounded_endpoint_terms_match_exact_bound():
    _, k = canonical()
    terms = exact.endpoint_terms(k)
    for sigma0 in (-7.5, -3.0, 0.0, 0.3, 1.0, 6.0):
        for deltaT in (-2.0, 0.0, 1.0, 2.5):
            reference = float(exact.max_bound(k, sigma0, deltaT)) * exact.SQRT3
            rounded = exact.max_bound_from_terms(terms, sigma0, deltaT)
            assert exact.bound_error(rounded, reference, sigma0, deltaT) < 1e-15
