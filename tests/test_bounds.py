"""Tests for the bound machinery.

Frozen expected values were derived independently with exact rational
arithmetic (fractions.Fraction re-derivations appear inline); minimization
results are cross-checked against the dense-scan oracle.
"""

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CANONICAL, CANONICAL_LOADING, random_composite, random_loading
from thermobounds import (
    CompositeSpec,
    Endpoint,
    InvalidExponent,
    Loading,
    MicrostructureKind,
    Ordering,
    PhaseProperties,
    affine_abs_min,
    characteristic_constants,
    classify_branch,
    compliance_interval,
    compliance_to_X,
    compliance_to_Y,
    hs_bulk_moduli,
    interval_scan_min,
    max_field_lower_bound,
    phase_moment_lower_bound,
    regime_table,
    validate_composite,
)
from thermobounds.bounds import BRANCH_IDS, ENDPOINT_CODES, bound_arrays

SQRT3 = math.sqrt(3.0)


def exact_constants(k1, mu1, k2, mu2, th1, h1, h2, dT):
    """Rational-arithmetic evaluation of all characteristic constants."""
    k1, mu1, k2, mu2, th1, h1, h2, dT = map(Fr, (k1, mu1, k2, mu2, th1, h1, h2, dT))
    th2 = 1 - th1
    c1, c2 = 4 * mu1 / 3, 4 * mu2 / 3
    kbar = th1 * k1 + th2 * k2
    kk = k1 * k2
    L1 = k1 * (k2 + c2) / (kk + kbar * c2)
    L2 = k2 * (k1 + c1) / (kk + kbar * c1)
    M1 = k1 * (k2 + c1) / (kk + kbar * c1)
    M2 = k2 * (k1 + c2) / (kk + kbar * c2)
    D = dT * 3 * kk * (h2 - h1) / (k2 - k1)
    F = D * (1 - 2 / (L1 + M2))
    Kp = kbar - th1 * th2 * (k2 - k1) ** 2 / (k1 * th2 + k2 * th1 + c1)
    Km = kbar - th1 * th2 * (k2 - k1) ** 2 / (k1 * th2 + k2 * th1 + c2)
    return dict(L1=L1, L2=L2, M1=M1, M2=M2, D=D, F=F, Km=Km, Kp=Kp)


class TestCharacteristicConstants:
    def test_canonical_exact(self):
        c = characteristic_constants(CANONICAL, 1.0)
        ex = exact_constants(2, 1, 1, Fr(1, 2), Fr(1, 2), 0, 1, 1)
        assert ex["L1"] == Fr(10, 9) and ex["L2"] == Fr(5, 6)
        assert ex["M1"] == Fr(7, 6) and ex["M2"] == Fr(8, 9)
        assert ex["D"] == -6 and ex["F"] == 0
        assert c.L1 == pytest.approx(10 / 9, rel=1e-15)
        assert c.L2 == pytest.approx(5 / 6, rel=1e-15)
        assert c.M1 == pytest.approx(7 / 6, rel=1e-15)
        assert c.M2 == pytest.approx(8 / 9, rel=1e-15)
        assert c.D == pytest.approx(-6.0, rel=1e-15)
        assert c.F == pytest.approx(0.0, abs=1e-13)

    def test_random_agree_with_exact(self, rng):
        for _ in range(50):
            comp = random_composite(rng)
            dT = float(rng.uniform(-3, 3))
            c = characteristic_constants(comp, dT)
            ex = exact_constants(
                comp.phase1.k, comp.phase1.mu, comp.phase2.k, comp.phase2.mu,
                comp.theta1, comp.phase1.h, comp.phase2.h, dT,
            )
            for name, val in (("L1", c.L1), ("L2", c.L2), ("M1", c.M1), ("M2", c.M2)):
                assert val == pytest.approx(float(ex[name]), rel=1e-12), name
            assert c.D == pytest.approx(float(ex["D"]), rel=1e-12)

    def test_zero_mismatch_gives_zero_D(self, rng):
        comp = validate_composite(
            CompositeSpec(PhaseProperties(2, 1, 0.7), PhaseProperties(1, 0.5, 0.7), 0.4)
        )
        c = characteristic_constants(comp, 2.5)
        assert c.D == 0.0 and c.F == 0.0
        c = characteristic_constants(CANONICAL, 0.0)
        assert c.D == 0.0 and c.F == 0.0

    def test_F_identity(self, rng):
        for _ in range(50):
            comp = random_composite(rng)
            c = characteristic_constants(comp, float(rng.uniform(-3, 3)))
            assert c.F == pytest.approx(c.D * (1 - 2 / (c.L1 + c.M2)), rel=1e-14, abs=1e-300)

    def test_ordering_inequalities(self, rng):
        for _ in range(200):
            well = random_composite(rng, Ordering.WELL_ORDERED)
            c = characteristic_constants(well, 1.0)
            assert c.L1 > 1.0 > c.L2 and c.M1 > 1.0 > c.M2
            non = random_composite(rng, Ordering.NON_WELL_ORDERED)
            c = characteristic_constants(non, 1.0)
            assert c.L2 > 1.0 > c.L1 and c.M2 > 1.0 > c.M1


class TestBulkModuli:
    def test_canonical(self):
        Km, Kp = hs_bulk_moduli(CANONICAL)
        assert Km == pytest.approx(18 / 13, rel=1e-15)
        assert Kp == pytest.approx(24 / 17, rel=1e-15)
        assert Km < Kp

    def test_relabeling_symmetry(self):
        # swapping which material is "phase 1" while keeping mu1 > mu2 is
        # impossible; but the formulas are symmetric under exchanging the
        # roles of (k1, th1) and (k2, th2) at fixed shear pair
        comp = CANONICAL
        Km, Kp = hs_bulk_moduli(comp)
        mirrored = validate_composite(
            CompositeSpec(
                PhaseProperties(comp.phase2.k, comp.phase1.mu, 0.0),
                PhaseProperties(comp.phase1.k, comp.phase2.mu, 1.0),
                comp.theta2,
            )
        )
        Km2, Kp2 = hs_bulk_moduli(mirrored)
        assert Kp2 == pytest.approx(Kp, rel=1e-14)
        assert Km2 == pytest.approx(Km, rel=1e-14)

    def test_small_contrast_mismatch_is_quadratic(self):
        k1, eps = 1.0, 1e-6
        comp = validate_composite(
            CompositeSpec(
                PhaseProperties(k1 * (1 + eps), 1.0, 0.0),
                PhaseProperties(k1, 0.5, 1.0),
                0.5,
            )
        )
        Km, Kp = hs_bulk_moduli(comp)
        kbar = 0.5 * k1 * (1 + eps) + 0.5 * k1
        # the mismatch term is theta1 theta2 (k2-k1)^2 / (k + 4mu/3) = O(eps^2)
        assert 0.0 < abs(Kp - kbar) < eps**2
        assert 0.0 < abs(Km - kbar) < eps**2

    def test_endpoint_identities_canonical(self):
        Km, Kp = hs_bulk_moduli(CANONICAL)
        c = characteristic_constants(CANONICAL, 1.0)
        assert compliance_to_X(1.0 / Km, CANONICAL) == pytest.approx(c.M2, rel=1e-14)
        assert compliance_to_X(1.0 / Kp, CANONICAL) == pytest.approx(c.L2, rel=1e-14)
        assert compliance_to_Y(1.0 / Km, CANONICAL) == pytest.approx(c.L1, rel=1e-14)
        assert compliance_to_Y(1.0 / Kp, CANONICAL) == pytest.approx(c.M1, rel=1e-14)

    def test_compliance_maps_vanish_at_own_phase(self):
        assert compliance_to_X(1.0 / CANONICAL.phase1.k, CANONICAL) == 0.0
        assert compliance_to_Y(1.0 / CANONICAL.phase2.k, CANONICAL) == 0.0

    def test_endpoint_identities_random(self, rng):
        for _ in range(300):
            comp = random_composite(rng)
            Km, Kp = hs_bulk_moduli(comp)
            c = characteristic_constants(comp, 1.0)
            assert compliance_to_X(1 / Km, comp) == pytest.approx(c.M2, rel=1e-12)
            assert compliance_to_X(1 / Kp, comp) == pytest.approx(c.L2, rel=1e-12)
            assert compliance_to_Y(1 / Km, comp) == pytest.approx(c.L1, rel=1e-12)
            assert compliance_to_Y(1 / Kp, comp) == pytest.approx(c.M1, rel=1e-12)


class TestComplianceInterval:
    def test_well_ordered_assignment(self):
        c = characteristic_constants(CANONICAL, 1.0)
        i2 = compliance_interval(CANONICAL, 2)
        assert (i2.lo, i2.hi) == (c.L2, c.M2)
        assert (i2.lo_symbol, i2.hi_symbol) == ("L2", "M2")
        i1 = compliance_interval(CANONICAL, 1)
        assert (i1.lo, i1.hi) == (c.L1, c.M1)
        assert (i1.lo_symbol, i1.hi_symbol) == ("L1", "M1")

    def test_non_well_ordered_assignment(self, rng):
        comp = random_composite(rng, Ordering.NON_WELL_ORDERED)
        c = characteristic_constants(comp, 1.0)
        i2 = compliance_interval(comp, 2)
        assert (i2.lo, i2.hi) == (c.M2, c.L2)
        i1 = compliance_interval(comp, 1)
        assert (i1.lo, i1.hi) == (c.M1, c.L1)

    def test_lo_below_hi_always(self, rng):
        for _ in range(200):
            comp = random_composite(rng)
            for phase in (1, 2):
                iv = compliance_interval(comp, phase)
                assert iv.lo < iv.hi


class TestAffineAbsMin:
    def test_canonical_phase2(self):
        iv = compliance_interval(CANONICAL, 2)
        value, argmin, tag = affine_abs_min(iv, 0.0, -6.0)
        assert value == pytest.approx(2 * SQRT3 / 3, rel=1e-14)
        assert argmin == iv.hi and tag is Endpoint.UPPER
        # dense-scan oracle
        scan = interval_scan_min(iv.lo, iv.hi, 0.0, -6.0, 1_000_001)
        assert value <= scan <= value + SQRT3 * 6 * (iv.hi - iv.lo) / 1e6

    def test_canonical_phase1(self):
        iv = compliance_interval(CANONICAL, 1)
        value, argmin, tag = affine_abs_min(iv, 0.0, -6.0)
        assert value == pytest.approx(2 * SQRT3 / 3, rel=1e-14)
        assert argmin == iv.lo and tag is Endpoint.LOWER

    def test_degenerate_zero_objective(self):
        iv = compliance_interval(CANONICAL, 2)
        value, argmin, tag = affine_abs_min(iv, 0.0, 0.0)
        assert value == 0.0 and tag is Endpoint.INTERIOR

    def test_constant_objective_at_sigma_equal_D(self):
        iv = compliance_interval(CANONICAL, 2)
        value, argmin, tag = affine_abs_min(iv, -6.0, -6.0)
        assert value == pytest.approx(SQRT3 * 6.0, rel=1e-15)
        assert argmin == iv.lo and tag is Endpoint.LOWER

    def test_interior_zero_crossing(self):
        iv = compliance_interval(CANONICAL, 2)
        # crossing t* = D/(D - s0) inside [5/6, 8/9] for s0 = 1 (t* = 6/7)
        value, argmin, tag = affine_abs_min(iv, 1.0, -6.0)
        assert value == 0.0 and tag is Endpoint.INTERIOR
        assert iv.lo <= argmin <= iv.hi
        assert argmin == pytest.approx(6 / 7, rel=1e-14)

    def test_random_against_scan(self, rng):
        for _ in range(200):
            lo = float(rng.uniform(0.1, 2.0))
            hi = lo + float(rng.uniform(1e-3, 1.0))
            iv = compliance_interval(CANONICAL, 2).__class__(
                lo=lo, hi=hi, phase=2, lo_symbol="L2", hi_symbol="M2"
            )
            s0, D = float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))
            value, argmin, tag = affine_abs_min(iv, s0, D)
            n = 40_001
            scan = interval_scan_min(lo, hi, s0, D, n)
            resolution = SQRT3 * abs(s0 - D) * (hi - lo) / (n - 1)
            assert scan >= value - 1e-12 * max(1.0, value)
            assert scan - value <= resolution + 1e-12
            assert lo <= argmin <= hi

    @given(
        lo=st.floats(0.05, 3.0),
        width=st.floats(1e-4, 2.0),
        s0=st.floats(-20.0, 20.0),
        D=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_against_scan(self, lo, width, s0, D):
        from thermobounds import ComplianceInterval

        iv = ComplianceInterval(lo=lo, hi=lo + width, phase=2, lo_symbol="L2", hi_symbol="M2")
        value, argmin, tag = affine_abs_min(iv, s0, D)
        n = 20_001
        scan = interval_scan_min(iv.lo, iv.hi, s0, D, n)
        resolution = SQRT3 * abs(s0 - D) * width / (n - 1)
        assert value >= 0.0
        assert scan >= value - 1e-9 * max(1.0, value)
        assert scan - value <= resolution + 1e-9 * max(1.0, scan)
        assert (tag is Endpoint.INTERIOR) == (value == 0.0)


class TestPhaseMomentLowerBound:
    def test_canonical_phase2(self):
        r = phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 2)
        assert r.value == pytest.approx(2 * SQRT3 / 3, rel=1e-14)
        assert r.microstructure.core_phase == 1
        assert r.microstructure.coating_phase == 2
        assert r.at_endpoint is Endpoint.UPPER

    def test_canonical_phase1(self):
        r = phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 1)
        assert r.value == pytest.approx(2 * SQRT3 / 3, rel=1e-14)
        assert r.microstructure.core_phase == 1
        assert r.at_endpoint is Endpoint.LOWER

    def test_interior_gap_is_zero_and_undetermined(self):
        # gap of the canonical phase-2 table is (3/4, 6/5)
        r = phase_moment_lower_bound(CANONICAL, Loading(1.0, 1.0), 2)
        assert r.value == 0.0
        assert r.at_endpoint is Endpoint.INTERIOR
        assert r.microstructure.kind is MicrostructureKind.UNDETERMINED

    def test_value_zero_iff_interior(self, rng):
        for _ in range(300):
            comp = random_composite(rng)
            r = phase_moment_lower_bound(comp, random_loading(rng), int(rng.integers(1, 3)))
            assert (r.value == 0.0) == (r.at_endpoint is Endpoint.INTERIOR)
            assert (r.microstructure.kind is MicrostructureKind.UNDETERMINED) == (
                r.value == 0.0
            )
            assert r.value >= 0.0

    def test_attainment_mapping(self, rng):
        # L-family minimizers put the phase in the core, M-family in the coating
        for _ in range(200):
            comp = random_composite(rng)
            loading = random_loading(rng)
            for phase in (1, 2):
                r = phase_moment_lower_bound(comp, loading, phase)
                if r.at_endpoint is Endpoint.INTERIOR:
                    continue
                iv = compliance_interval(comp, phase)
                symbol = iv.lo_symbol if r.at_endpoint is Endpoint.LOWER else iv.hi_symbol
                if symbol[0] == "L":
                    assert r.microstructure.core_phase == phase
                else:
                    assert r.microstructure.coating_phase == phase

    def test_scaling_covariance(self, rng):
        for _ in range(100):
            comp = random_composite(rng)
            loading = random_loading(rng)
            s = float(rng.uniform(0.1, 10.0))
            scaled = validate_composite(
                CompositeSpec(
                    PhaseProperties(s * comp.phase1.k, s * comp.phase1.mu, comp.phase1.h),
                    PhaseProperties(s * comp.phase2.k, s * comp.phase2.mu, comp.phase2.h),
                    comp.theta1,
                )
            )
            c0 = characteristic_constants(comp, loading.deltaT)
            c1 = characteristic_constants(scaled, loading.deltaT)
            for name in ("L1", "L2", "M1", "M2"):
                assert getattr(c1, name) == pytest.approx(getattr(c0, name), rel=1e-12)
            for phase in (1, 2):
                r0 = phase_moment_lower_bound(comp, loading, phase)
                r1 = phase_moment_lower_bound(
                    scaled, Loading(s * loading.sigma0, loading.deltaT), phase
                )
                assert r1.value == pytest.approx(s * r0.value, rel=1e-11, abs=1e-13)

    def test_p_validation(self):
        with pytest.raises(InvalidExponent):
            phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 2, p=1.0)
        with pytest.raises(InvalidExponent):
            phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 2, p=0.5)
        r_inf = phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 2, p=math.inf)
        r_2 = phase_moment_lower_bound(CANONICAL, CANONICAL_LOADING, 2, p=2.0)
        assert r_inf.value == r_2.value  # bounds are p-independent


class TestMaxFieldLowerBound:
    def test_canonical_tie_value(self):
        r = max_field_lower_bound(CANONICAL, CANONICAL_LOADING)
        assert r.value == pytest.approx(2 * SQRT3 / 3, rel=1e-12)
        assert r.microstructure.core_phase == 1
        assert r.microstructure.coating_phase == 2
        assert r.microstructure.max_attaining_phase in (1, 2)

    def test_tie_break_convention_at_sigma_equal_D(self, rng):
        # at sigma0 == D both per-phase values equal sqrt(3)|D| exactly; the
        # documented convention picks the phase with the larger endpoint
        comp = random_composite(rng, Ordering.WELL_ORDERED)
        c = characteristic_constants(comp, 1.0)
        r = max_field_lower_bound(comp, Loading(c.D, 1.0))
        assert r.microstructure.max_attaining_phase == 1  # |L1| > |L2| when well-ordered
        comp = random_composite(rng, Ordering.NON_WELL_ORDERED)
        c = characteristic_constants(comp, 1.0)
        r = max_field_lower_bound(comp, Loading(c.D, 1.0))
        assert r.microstructure.max_attaining_phase == 2  # |M2| > |M1|

    def test_is_pointwise_max(self, rng):
        for _ in range(300):
            comp = random_composite(rng)
            loading = random_loading(rng)
            r = max_field_lower_bound(comp, loading)
            r1 = phase_moment_lower_bound(comp, loading, 1)
            r2 = phase_moment_lower_bound(comp, loading, 2)
            assert r.value == max(r1.value, r2.value)

    def test_unloaded_body(self):
        r = max_field_lower_bound(CANONICAL, Loading(0.0, 0.0))
        assert r.value == 0.0
        assert r.microstructure.kind is MicrostructureKind.UNDETERMINED


# expected (branch, core_phase[, asterisk]) sequences keyed by
# (ordering, sign of D); frozen from the closed-form tables
TABLE_EXPECTATIONS = {
    (Ordering.WELL_ORDERED, -1): {
        "phase2": [("L-branch-left", 2), ("M-branch-left", 1), ("Zero", None),
                   ("L-branch-right", 2)],
        "phase1": [("L-branch-left", 1), ("M-branch-left", 2), ("Zero", None),
                   ("L-branch-right", 1)],
        "max": [("L-branch-left", 1, 1), ("M-branch-left", 1, 2),
                ("L-branch-right", 1, 1)],
    },
    (Ordering.WELL_ORDERED, +1): {
        "phase2": [("L-branch-left", 2), ("Zero", None), ("M-branch-right", 1),
                   ("L-branch-right", 2)],
        "phase1": [("L-branch-left", 1), ("Zero", None), ("M-branch-right", 2),
                   ("L-branch-right", 1)],
        "max": [("L-branch-left", 1, 1), ("M-branch-right", 1, 2),
                ("L-branch-right", 1, 1)],
    },
    (Ordering.NON_WELL_ORDERED, +1): {
        "phase2": [("M-branch-left", 1), ("Zero", None), ("L-branch-right", 2),
                   ("M-branch-right", 1)],
        "phase1": [("M-branch-left", 2), ("Zero", None), ("L-branch-right", 1),
                   ("M-branch-right", 2)],
        "max": [("M-branch-left", 1, 2), ("L-branch-right", 1, 1),
                ("M-branch-right", 1, 2)],
    },
    (Ordering.NON_WELL_ORDERED, -1): {
        "phase2": [("M-branch-left", 1), ("L-branch-left", 2), ("Zero", None),
                   ("M-branch-right", 1)],
        "phase1": [("M-branch-left", 2), ("L-branch-left", 1), ("Zero", None),
                   ("M-branch-right", 2)],
        "max": [("M-branch-left", 1, 2), ("L-branch-left", 1, 1),
                ("M-branch-right", 1, 2)],
    },
}


class TestRegimeTable:
    def test_canonical_phase2_breakpoints(self):
        table = regime_table(CANONICAL, 1.0, "phase2")
        assert len(table.rows) == 4
        assert table.breakpoints[0] == pytest.approx(-6.0, rel=1e-14)
        assert table.breakpoints[1] == pytest.approx(3 / 4, rel=1e-13)
        assert table.breakpoints[2] == pytest.approx(6 / 5, rel=1e-13)

    def test_canonical_max_breakpoints(self):
        table = regime_table(CANONICAL, 1.0, "max")
        assert len(table.rows) == 3
        assert table.breakpoints[0] == pytest.approx(-6.0, rel=1e-14)
        assert table.breakpoints[1] == pytest.approx(0.0, abs=1e-13)

    def test_deltaT_zero_collapses_to_two_rays(self):
        table = regime_table(CANONICAL, 0.0, "phase2")
        assert len(table.rows) == 2
        assert table.breakpoints == (0.0,)
        c = characteristic_constants(CANONICAL, 0.0)
        for s0 in (-3.0, 4.0):
            # bound reduces to sqrt(3)|s0| times the smaller-magnitude endpoint
            assert table.bound_at(s0) == pytest.approx(
                SQRT3 * abs(s0) * min(c.L2, c.M2), rel=1e-13
            )

    @pytest.mark.parametrize("ordering", list(Ordering))
    @pytest.mark.parametrize("d_sign", [-1, +1])
    @pytest.mark.parametrize("dT_sign", [-1, +1])
    def test_row_sequences_match_closed_form_tables(self, rng, ordering, d_sign, dT_sign):
        # sign of D decides the table; it flips with both h2-h1 and deltaT
        k2_gt_k1 = ordering is Ordering.NON_WELL_ORDERED
        h_sign = d_sign * dT_sign * (1 if k2_gt_k1 else -1)
        comp = random_composite(rng, ordering, h_sign=h_sign)
        deltaT = dT_sign * 1.3
        expected = TABLE_EXPECTATIONS[(ordering, d_sign)]
        for target in ("phase1", "phase2", "max"):
            table = regime_table(comp, deltaT, target)
            got = []
            for row in table.rows:
                if target == "max" and row.branch != "Zero":
                    got.append(
                        (row.branch, row.microstructure.core_phase,
                         row.microstructure.max_attaining_phase)
                    )
                else:
                    got.append((row.branch, row.microstructure.core_phase))
            assert got == expected[target], (target, ordering, d_sign)

    def test_pointwise_agreement_with_minimization(self, rng):
        for _ in range(10):
            comp = random_composite(rng)
            deltaT = float(rng.uniform(-3, 3))
            c = characteristic_constants(comp, deltaT)
            span = 3.0 * max(1.0, abs(c.D))
            for target in ("phase1", "phase2", "max"):
                table = regime_table(comp, deltaT, target)
                for s0 in rng.uniform(-span, span, 300):
                    result, branch = classify_branch(comp, deltaT, target, float(s0))
                    row = table.row_for(float(s0))
                    assert row.branch == branch
                    assert row.bound_at(float(s0), table.D) == pytest.approx(
                        result.value, rel=1e-12, abs=1e-12 * span
                    )
                    if row.branch != "Zero":
                        assert row.microstructure == result.microstructure
                    else:
                        assert result.microstructure.kind is MicrostructureKind.UNDETERMINED

    def test_value_continuous_across_breakpoints(self, rng):
        for _ in range(20):
            comp = random_composite(rng)
            deltaT = float(rng.uniform(-3, 3))
            for target in ("phase1", "phase2", "max"):
                table = regime_table(comp, deltaT, target)
                for left, right in zip(table.rows, table.rows[1:]):
                    s = left.sigma_hi
                    assert right.sigma_lo == s
                    v_left = left.bound_at(s, table.D)
                    v_right = right.bound_at(s, table.D)
                    scale = max(v_left, v_right, 1.0)
                    assert abs(v_left - v_right) <= 1e-10 * scale

    def test_intervals_partition_real_line(self, rng):
        for _ in range(20):
            comp = random_composite(rng)
            for target in ("phase1", "phase2", "max"):
                table = regime_table(comp, float(rng.uniform(-2, 2)), target)
                assert table.rows[0].sigma_lo == -math.inf
                assert table.rows[-1].sigma_hi == math.inf
                for a, b in zip(table.rows, table.rows[1:]):
                    assert a.sigma_hi == b.sigma_lo


class TestBranchContinuityInLoading:
    def test_bound_continuous_in_sigma0_and_deltaT(self, rng):
        # sample tightly across breakpoints; jumps must vanish with step
        for _ in range(10):
            comp = random_composite(rng)
            deltaT = float(rng.uniform(0.5, 2.0))
            c = characteristic_constants(comp, deltaT)
            eps = 1e-9 * max(1.0, abs(c.D))
            for target in ("phase1", "phase2", "max"):
                table = regime_table(comp, deltaT, target)
                for bp in table.breakpoints:
                    lo_val, _ = classify_branch(comp, deltaT, target, bp - eps)
                    hi_val, _ = classify_branch(comp, deltaT, target, bp + eps)
                    scale = max(lo_val.value, hi_val.value, abs(c.D), 1.0)
                    assert abs(lo_val.value - hi_val.value) <= 20 * eps + 1e-10 * scale


class TestBoundArrays:
    """The array kernel against the scalar functions, bit for bit."""

    @staticmethod
    def scalar(comp, target, sigma0, deltaT):
        result, branch = classify_branch(comp, deltaT, target, sigma0)
        micro = result.microstructure
        return (
            result.value.hex(), result.argmin_compliance.hex(), result.at_endpoint,
            branch, micro.core_phase, micro.max_attaining_phase,
        )

    @staticmethod
    def kernel(b, target, i):
        core = int(b.core[i])
        max_phase = int(b.phase[i]) if target == "max" and core else None
        return (
            float(b.value[i]).hex(), float(b.argmin[i]).hex(),
            ENDPOINT_CODES[b.endpoint[i]], BRANCH_IDS[b.branch[i]], core or None, max_phase,
        )

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_matches_scalar_path(self, rng, ordering):
        # random loadings; every regime-table breakpoint and its neighbours
        # one ulp away, where rounding can give a zero value at an endpoint;
        # sigma0 == D; deltaT == 0, where D is a signed zero; and subnormal
        # deltaT, where the max-field bound can be 0 at an endpoint
        for comp in [CANONICAL] * (ordering is Ordering.WELL_ORDERED) + [
            random_composite(rng, ordering) for _ in range(8)
        ]:
            sigma0 = list(rng.uniform(-10.0, 10.0, 40))
            deltaT = list(rng.uniform(-3.0, 3.0, 40))
            for dT in (float(rng.uniform(-3.0, 3.0)), 1.0, 0.0, 2e-323, -6e-323):
                D = characteristic_constants(comp, dT).D
                for target in ("phase1", "phase2", "max"):
                    points = [D, -D, 0.0, 5e-324]
                    for bp in regime_table(comp, dT, target).breakpoints:
                        points += [math.nextafter(bp, -math.inf), bp, math.nextafter(bp, math.inf)]
                    sigma0 += points
                    deltaT += [dT] * len(points)
            for target in ("phase1", "phase2", "max"):
                b = bound_arrays(comp, target, sigma0, deltaT)
                assert b.value.shape == (len(sigma0),)
                for i, (s0, dT) in enumerate(zip(sigma0, deltaT)):
                    assert self.kernel(b, target, i) == self.scalar(
                        comp, target, float(s0), float(dT)
                    ), (target, s0, dT)

    def test_broadcasts_loadings(self):
        b = bound_arrays(CANONICAL, "max", [[-1.0], [0.0], [2.0]], [0.0, 1.0])
        assert b.branch.shape == (3, 2)
        for i, s0 in enumerate((-1.0, 0.0, 2.0)):
            for j, dT in enumerate((0.0, 1.0)):
                value, _ = classify_branch(CANONICAL, dT, "max", s0)
                assert b.value[i, j] == value.value

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            bound_arrays(CANONICAL, "phase3", [0.0], [1.0])
