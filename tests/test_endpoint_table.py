"""The bounds against an exact evaluation of the paper's formula.

Each bound is compared with ``sqrt(3) * min |(sigma0 - D) t + D|`` over the
phase's two contrast factors t, evaluated with ``fractions.Fraction`` from
the float inputs, so the reference is rounded once.  The error is relative
to ``max(bound, |sigma0| + |deltaT|)``, the scale of verify's
``bound-attainment`` check, and must stay within its 1e-10 tolerance: near
the bulk-modulus gate, at low shear moduli and over a wide seeded domain.
"""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from conftest import classify_branch
from thermobounds import (
    CoatedSphereConfig,
    InputError,
    Loading,
    PhaseProperties,
    build_composite,
    effective_properties,
    local_field_constants,
    max_field_lower_bound,
    phase_moment,
    phase_moment_lower_bound,
)
from thermobounds.bounds import BRANCH_IDS, ENDPOINT_CODES, bound_grid

SQRT3 = math.sqrt(3.0)
TOL_ATTAINMENT = 1e-10


def exact_phase_bounds(comp, sigma0, deltaT):
    """Per-phase bounds divided by sqrt(3), exactly, as {phase: Fraction}."""
    k1, mu1, h1 = (Fr(x) for x in (comp.phase1.k, comp.phase1.mu, comp.phase1.h))
    k2, mu2, h2 = (Fr(x) for x in (comp.phase2.k, comp.phase2.mu, comp.phase2.h))
    th1 = Fr(comp.theta1)
    th2 = 1 - th1
    c1, c2 = 4 * mu1 / 3, 4 * mu2 / 3
    kbar, kk = th1 * k1 + th2 * k2, k1 * k2
    ends = {
        1: (k1 * (k2 + c2) / (kk + kbar * c2), k1 * (k2 + c1) / (kk + kbar * c1)),  # L1, M1
        2: (k2 * (k1 + c1) / (kk + kbar * c1), k2 * (k1 + c2) / (kk + kbar * c2)),  # L2, M2
    }
    D = Fr(deltaT) * 3 * kk * (h2 - h1) / (k2 - k1)
    bounds = {}
    for phase, (ta, tb) in ends.items():
        ga, gb = ((Fr(sigma0) - D) * t + D for t in (ta, tb))
        bounds[phase] = Fr(0) if ga * gb <= 0 else min(abs(ga), abs(gb))
    return bounds


def bound_errors(comp, loading):
    """Errors of the phase-1, phase-2 and max-field bounds against the exact ones."""
    exact = exact_phase_bounds(comp, loading.sigma0, loading.deltaT)
    exact["max"] = max(exact.values())
    scale_floor = abs(loading.sigma0) + abs(loading.deltaT)
    errors = {}
    for key, result in (
        (1, phase_moment_lower_bound(comp, loading, 1)),
        (2, phase_moment_lower_bound(comp, loading, 2)),
        ("max", max_field_lower_bound(comp, loading)),
    ):
        reference = SQRT3 * float(exact[key])
        errors[key] = abs(result.value - reference) / max(reference, scale_floor, 1e-300)
    return errors


def near_gate(separation):
    """The canonical composite with k2 moved toward k1 by a relative separation."""
    comp, swapped = build_composite(
        PhaseProperties(2.0, 1.0, 0.0), PhaseProperties(2.0 * (1.0 - separation), 0.5, 1.0), 0.5
    )
    assert not swapped
    return comp


@pytest.mark.parametrize("separation", [1e-6, 1e-9, 1e-11])
def test_near_gate_bounds_are_exact(separation):
    comp = near_gate(separation)
    for loading in (Loading(0.3, 1.0), Loading(-2.5, 0.7), Loading(1.7, -3.0)):
        errors = bound_errors(comp, loading)
        assert max(errors.values()) <= TOL_ATTAINMENT, (separation, loading, errors)


@pytest.mark.parametrize("separation", [1e-6, 1e-9, 1e-11])
def test_near_gate_fields_attain_the_bounds(separation):
    # the designated assemblage's field equals the bound it attains
    comp = near_gate(separation)
    loading = Loading(0.3, 1.0)
    bound = max_field_lower_bound(comp, loading)
    sphere = CoatedSphereConfig(comp, bound.microstructure.core_phase)
    moment = phase_moment(sphere, loading, bound.microstructure.max_attaining_phase, math.inf)
    assert moment == bound.value


def test_low_shear_example_is_exact():
    # c mu << k puts every contrast factor within about 1e-10 of 1, where
    # D (1 - t) cancels as it does near the gate
    comp, _ = build_composite(
        PhaseProperties(6547231.655060104, 0.00022172697430455283, 1.5123422653205516),
        PhaseProperties(6484458.1098774355, 3.766701954033052e-05, 0.08203938560305257),
        0.8440774195461498,
    )
    errors = bound_errors(comp, Loading(1.4408472842902018, -1.2475408320967802))
    assert max(errors.values()) <= TOL_ATTAINMENT, errors


def exact_endpoint_lines(comp):
    """The endpoint table's (t, e) pairs, exactly, as {name: (Fraction, Fraction)}.

    ``e`` is the paper's ``D (1 - t)`` per unit deltaT.
    """
    k1, mu1, h1 = (Fr(x) for x in (comp.phase1.k, comp.phase1.mu, comp.phase1.h))
    k2, mu2, h2 = (Fr(x) for x in (comp.phase2.k, comp.phase2.mu, comp.phase2.h))
    th1 = Fr(comp.theta1)
    c1, c2 = 4 * mu1 / 3, 4 * mu2 / 3
    kbar, kk = th1 * k1 + (1 - th1) * k2, k1 * k2
    D = 3 * kk * (h2 - h1) / (k2 - k1)
    t = {
        "L1": k1 * (k2 + c2) / (kk + kbar * c2),
        "L2": k2 * (k1 + c1) / (kk + kbar * c1),
        "M1": k1 * (k2 + c1) / (kk + kbar * c1),
        "M2": k2 * (k1 + c2) / (kk + kbar * c2),
    }
    return {name: (value, D * (1 - value)) for name, value in t.items()}


@pytest.mark.parametrize("mu1", [1e200, 1e160])
def test_extreme_shear_contrast_is_exact(mu1):
    # scaled by the largest modulus alone, the products of the other three
    # moduli underflowed: to 0 at 1e200 (a ZeroDivisionError), to subnormal
    # numbers with about 11 significant bits at 1e160
    comp, _ = build_composite(
        PhaseProperties(1.0, mu1, 0.0), PhaseProperties(2.0, 1.0, 1.0), 0.5
    )
    for name, exact in exact_endpoint_lines(comp).items():
        for got, want in zip(getattr(comp.endpoints, name), exact):
            assert abs(Fr(got) - want) <= 1e-14 * abs(want), (name, got, float(want))
    for loading in (Loading(0.3, 1.0), Loading(-2.5, 0.7), Loading(1.7, -3.0)):
        errors = bound_errors(comp, loading)
        assert max(errors.values()) <= TOL_ATTAINMENT, (loading, errors)


def test_wide_contrast_probe():
    # moduli over 300 decades: every table entry stays within a few
    # roundoffs of the exact one, and every bound within the tolerance
    rng = np.random.default_rng(11)
    count = 0
    while count < 150:
        k1, k2, mu1, mu2 = (float(x) for x in 10.0 ** rng.uniform(-150.0, 150.0, 4))
        h1, h2 = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        theta1 = float(rng.uniform(1e-9, 1.0 - 1e-9))
        try:
            comp, _ = build_composite(
                PhaseProperties(k1, mu1, h1), PhaseProperties(k2, mu2, h2), theta1
            )
        except InputError:
            continue
        count += 1
        for name, exact in exact_endpoint_lines(comp).items():
            for got, want in zip(getattr(comp.endpoints, name), exact):
                assert abs(Fr(got) - want) <= 1e-14 * abs(want), (comp, name)
        for loading in [Loading(*(float(x) for x in rng.uniform(-3.0, 3.0, 2))) for _ in range(2)]:
            assert max(bound_errors(comp, loading).values()) <= TOL_ATTAINMENT, (comp, loading)
            for core in (1, 2):
                effective_properties(CoatedSphereConfig(comp, core))


def wide_domain_samples(count, seed=8):
    """Valid composites with moduli over sixteen decades and extreme fractions.

    30% of them have bulk moduli close to the 1e-12 equality gate.
    """
    rng = np.random.default_rng(seed)
    samples = []
    while len(samples) < count:
        k1, k2, mu1, mu2 = (float(x) for x in 10.0 ** rng.uniform(-8.0, 8.0, 4))
        if rng.random() < 0.3:
            k2 = k1 * (1.0 + float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.7, -3.0)))
        h1, h2 = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        theta1 = float(rng.uniform(1e-9, 1.0 - 1e-9))
        try:
            comp, _ = build_composite(
                PhaseProperties(k1, mu1, h1), PhaseProperties(k2, mu2, h2), theta1
            )
        except InputError:
            continue
        loadings = [Loading(*(float(x) for x in rng.uniform(-3.0, 3.0, 2))) for _ in range(3)]
        samples.append((comp, loadings))
    return samples


def test_wide_domain_probe():
    worst = 0.0
    for comp, loadings in wide_domain_samples(500):
        for loading in loadings:
            worst = max(worst, *bound_errors(comp, loading).values())
            for core in (1, 2):
                sphere = CoatedSphereConfig(comp, core)
                effective_properties(sphere)
                local_field_constants(sphere, loading)
    assert worst <= TOL_ATTAINMENT


def test_wide_domain_grid_kernel_matches_scalar_path():
    # every loading of the grid the three loadings' sigma0 and deltaT span
    for comp, loadings in wide_domain_samples(100, seed=9):
        sigma0 = [x.sigma0 for x in loadings]
        deltaT = [x.deltaT for x in loadings]
        grid = [(s0, dT) for s0 in sigma0 for dT in deltaT]
        for target in ("phase1", "phase2", "max"):
            rows = bound_grid(comp, target, sigma0, deltaT)
            for (s0, dT), (value, argmin, code, phase, core, row_branch) in zip(grid, rows):
                result, branch = classify_branch(comp, dT, target, s0)
                micro = result.microstructure
                assert (
                    value.hex(), argmin.hex(),
                    ENDPOINT_CODES[code], BRANCH_IDS[row_branch], core or None,
                ) == (
                    result.value.hex(), result.argmin_compliance.hex(),
                    result.at_endpoint, branch, micro.core_phase,
                )
                if target == "max" and core:
                    assert phase == micro.max_attaining_phase
