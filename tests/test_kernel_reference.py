"""The bound kernel against a frozen reference of its rule, bit for bit.

``bound_grid``, the scalar bound functions (whose branch ``conftest``'s
``classify_branch`` names) and verify's regime-table check share one kernel,
so comparing them with each other compares the kernel with itself.  This
module keeps a frozen copy of the scalar rule they once ran (``endpoint_min``
per bounded phase and loading, the max-field tie-break in ``bound_at``, and
the row assembly of ``reference_rows``) as the reference.  It is built from
the public API and ``conftest``'s paper-rule ``compliance_interval`` only, and
every float is compared by ``float.hex``, every code exactly.
"""

import math

import numpy as np
import pytest

from conftest import classify_branch, compliance_interval, random_composite
from test_cli import EDGE_COMPOSITES
from thermobounds import (
    Ordering,
    PhaseProperties,
    build_composite,
    characteristic_constants,
    regime_table,
)
from thermobounds.bounds import BRANCH_IDS, ENDPOINT_CODES, bound_grid, thermal_stress_scale

# ---- reference: frozen, do not edit to follow the library --------------------

SQRT3 = math.sqrt(3.0)
LOWER, UPPER, INTERIOR = range(3)
CORES = {"L1": 1, "M2": 1, "L2": 2, "M1": 2}
#: By attaining endpoint (None for a zero bound): its sphere's core phase (0
#: for none), and its branch's index in BRANCH_IDS right and left of where v = 0.
ROW_CODES = {None: (0, 2, 2)} | {
    symbol: (core, *(BRANCH_IDS.index(f"{symbol[0]}-branch-{side}") for side in ("right", "left")))
    for symbol, core in CORES.items()
}
TARGET_PHASES = {"phase1": (1,), "phase2": (2,), "max": (1, 2)}


def endpoint_min(lo, hi, v_lo, v_hi, sigma0, D):
    """(value, argmin, code) of min sqrt(3)|v| over [lo, hi], v affine in t, v_lo/v_hi at the ends."""
    if sigma0 == D:
        return SQRT3 * abs(D), lo, INTERIOR if D == 0.0 else LOWER
    if (v_lo > 0.0 and v_hi > 0.0) or (v_lo < 0.0 and v_hi < 0.0):
        if abs(v_lo) <= abs(v_hi):
            return SQRT3 * abs(v_lo), lo, LOWER
        return SQRT3 * abs(v_hi), hi, UPPER
    return 0.0, min(max(D / (D - sigma0), lo), hi), INTERIOR


def bounded_phases(c, target, deltaT):
    """Per bounded phase: (phase, t, e deltaT, symbol of the lower end, then of the upper end)."""
    bounded = []
    for phase in TARGET_PHASES[target]:
        iv = compliance_interval(c, phase)
        lo, hi = getattr(c.endpoints, iv.lo_symbol), getattr(c.endpoints, iv.hi_symbol)
        bounded.append((phase, lo.t, lo.e * deltaT, iv.lo_symbol, hi.t, hi.e * deltaT, iv.hi_symbol))
    return bounded


def bound_at(bounded, sigma0, D):
    """(value, argmin, code, symbol, v, phase): the larger bound; on a tie, the larger |argmin|, else phase 1."""
    best = None
    for phase, t_lo, e_lo, s_lo, t_hi, e_hi, s_hi in bounded:
        v_lo = t_lo * sigma0 + e_lo
        v_hi = t_hi * sigma0 + e_hi
        value, argmin, code = endpoint_min(t_lo, t_hi, v_lo, v_hi, sigma0, D)
        if best is None or not (
            best[0] > value or (best[0] >= value and abs(best[1]) >= abs(argmin))
        ):
            best = value, argmin, code, (s_lo, s_hi, None)[code], (v_lo, v_hi, 0.0)[code], phase
    return best


def reference_rows(c, target, sigma0_values, deltaT_values):
    """(value, argmin, code, phase, core, branch) over the grid, sigma0-major."""
    columns = [(thermal_stress_scale(c, d), bounded_phases(c, target, d)) for d in deltaT_values]
    rows = []
    for sigma0 in sigma0_values:
        for D, bounded in columns:
            value, argmin, code, symbol, v, phase = bound_at(bounded, sigma0, D)
            core, right, left = ROW_CODES[symbol]
            rows.append((value, argmin, code, phase, core, left if v < 0.0 else right))
    return rows


# ---- comparisons -------------------------------------------------------------


def hexed(row):
    value, argmin, *codes = row
    return (float(value).hex(), float(argmin).hex(), *codes)


def assert_kernel_is_reference(comp, sigma0_values, deltaT_values):
    loadings = [(s, d) for s in sigma0_values for d in deltaT_values]
    for target in ("phase1", "phase2", "max"):
        expected = reference_rows(comp, target, sigma0_values, deltaT_values)
        got = bound_grid(comp, target, sigma0_values, deltaT_values)
        assert list(map(hexed, got)) == list(map(hexed, expected)), target
        for (sigma0, deltaT), row in zip(loadings, expected):
            value, argmin, code, phase, core, branch = row
            result, name = classify_branch(comp, deltaT, target, sigma0)
            m = result.microstructure
            assert (result.value.hex(), result.argmin_compliance.hex()) == hexed(row)[:2]
            assert result.at_endpoint is ENDPOINT_CODES[code]
            assert name == BRANCH_IDS[branch], (target, sigma0, deltaT)
            assert (m.core_phase, m.coating_phase) == ((core, 3 - core) if core else (None, None))
            assert m.max_attaining_phase == (phase if target == "max" and core else None)


def special_sigma0(comp, deltaT_values):
    """Each deltaT's D and F, every regime-table breakpoint, and the signed zeros."""
    values = [0.0, -0.0]
    for d in deltaT_values:
        consts = characteristic_constants(comp, d)
        values += [consts.D, consts.F]
        for target in ("phase1", "phase2", "max"):
            values += regime_table(comp, d, target).breakpoints
    return values


@pytest.mark.parametrize("ordering", list(Ordering))
def test_random_composites(rng, ordering):
    for _ in range(8):
        comp = random_composite(rng, ordering)
        d = float(rng.uniform(0.2, 3.0))
        deltaT_values = [d, 0.0, -d]  # D = 0 in the middle column
        span = 3.0 * max(1.0, abs(characteristic_constants(comp, d).D))
        sigma0_values = [
            *rng.uniform(-span, span, 40).tolist(),
            *special_sigma0(comp, deltaT_values),
            -math.inf, math.inf, math.nan,
        ]
        assert_kernel_is_reference(comp, sigma0_values, deltaT_values)


@pytest.mark.parametrize("name", sorted(EDGE_COMPOSITES))
def test_edge_composites(name):
    phase1, phase2, theta1 = EDGE_COMPOSITES[name]
    comp, _ = build_composite(PhaseProperties(**phase1), PhaseProperties(**phase2), theta1)
    deltaT_values = [1.0, 0.0, -1.5]
    sigma0_values = [0.3, -1.0, 1.0, *special_sigma0(comp, deltaT_values)]
    assert_kernel_is_reference(comp, sigma0_values, deltaT_values)


def test_the_two_phases_tie(rng):
    # at sigma0 == D both phases' bounds are sqrt(3)|D|, and where both are
    # 0 only the argmins differ: the tie-break picks the max-field row
    ties = 0
    for ordering in Ordering:
        for _ in range(4):
            comp = random_composite(rng, ordering)
            deltaT = float(rng.uniform(-3.0, 3.0))
            D = thermal_stress_scale(comp, deltaT)
            sigma0_values = [D, *np.linspace(-3.0 * abs(D), 3.0 * abs(D), 61).tolist()]
            assert_kernel_is_reference(comp, sigma0_values, [deltaT])
            for s0 in sigma0_values:
                (v1, *_), (v2, *_) = (
                    reference_rows(comp, t, [s0], [deltaT])[0] for t in ("phase1", "phase2")
                )
                ties += v1 == v2
    assert ties >= 8
