"""Tests for the coated-sphere field construction.

Frozen coefficient values come from an exact rational solve of the 3x3
interface system (noted inline as fractions).  The attainment tests close
the loop against the bound machinery.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    CANONICAL,
    CANONICAL_LOADING,
    build_unswapped,
    random_composite,
    random_loading,
)
from thermobounds import (
    CoatedSphereConfig,
    coated_sphere,
    Endpoint,
    InputError,
    InvalidExponent,
    Loading,
    PhaseProperties,
    ValidatedComposite,
    build_composite,
    characteristic_constants,
    effective_properties,
    local_field_constants,
    make_radial_grid,
    mechanical_coefficients,
    phase_moment,
    phase_moment_lower_bound,
    sample_analytic_fields,
    superposed_shell_coefficients,
    verify_average_identity,
    verify_exact_relation,
)
from thermobounds import verify
from thermobounds.verify import effective_thermal_stress_routes, interface_residuals

SQRT3 = math.sqrt(3.0)

CORE1 = CoatedSphereConfig(composite=CANONICAL, core_phase=1)
CORE2 = CoatedSphereConfig(composite=CANONICAL, core_phase=2)


def wide_domain_probe(count):
    """``count`` seeded (composite, loading) pairs over a wide domain.

    Moduli over sixteen decades, fractions up to 1e-9 from 0 and 1, 30% of
    the bulk moduli close to the equality gate, and loadings in (-3, 3).
    """
    rng = np.random.default_rng(20261018)
    made = 0
    while made < count:
        k1, k2, mu1, mu2 = (float(x) for x in 10.0 ** rng.uniform(-8.0, 8.0, 4))
        if rng.random() < 0.3:
            separation = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.7, -3.0))
            k2 = k1 * (1.0 + separation)
        h1, h2 = (float(x) for x in rng.uniform(-2.0, 2.0, 2))
        theta1 = float(rng.uniform(1e-9, 1.0 - 1e-9))
        try:
            comp, _ = build_composite(
                PhaseProperties(k1, mu1, h1), PhaseProperties(k2, mu2, h2), theta1
            )
        except InputError:
            continue
        made += 1
        yield comp, Loading(*(float(x) for x in rng.uniform(-3.0, 3.0, 2)))


def closed_form_bulk_modulus_routes(cfg):
    """K by the library, and by the mean strain of :func:`mechanical_coefficients` at unit traction."""
    m = mechanical_coefficients(cfg, 1.0)
    mean_strain = cfg.core_fraction * m.core_linear + cfg.coating_fraction * m.coat_linear
    return cfg.K, 1.0 / (3.0 * mean_strain)


def homogeneous_config(k=2.0, mu=1.0, h=0.3, theta1=0.4):
    """Both regions identical; bypasses validation (test-only degenerate)."""
    phase = PhaseProperties(k=k, mu=mu, h=h)
    comp = ValidatedComposite(
        phase1=phase, phase2=phase, theta1=theta1, theta2=1 - theta1,
    )
    return CoatedSphereConfig(composite=comp, core_phase=1)


class TestThermalCoefficients:
    def test_canonical_core1_exact(self):
        # exact solve: (g, A, B) = (-3/13, 3/13, -3/13)
        c = CORE1.thermal
        assert c.core_linear == pytest.approx(-3 / 13, rel=1e-13)
        assert c.coat_linear == pytest.approx(3 / 13, rel=1e-13)
        assert c.coat_inverse_square == pytest.approx(-3 / 13, rel=1e-13)

    def test_canonical_core2_exact(self):
        # exact solve: (g, A, B) = (3/17, -3/17, 3/17)
        c = CORE2.thermal
        assert c.core_linear == pytest.approx(3 / 17, rel=1e-13)
        assert c.coat_linear == pytest.approx(-3 / 17, rel=1e-13)
        assert c.coat_inverse_square == pytest.approx(3 / 17, rel=1e-13)

    def test_matches_closed_form(self, rng):
        # the 3x3 interface solve against the closed forms, for the thermal
        # problem and for the mechanical one
        for _ in range(100):
            comp = random_composite(rng)
            s0 = float(rng.uniform(-5.0, 5.0))
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                per_sigma0, _, clamped = coated_sphere._solve_shell(cfg)
                for solved, closed in (
                    (clamped[:3], cfg.thermal),
                    ([s0 * x for x in per_sigma0[:3]], mechanical_coefficients(cfg, s0)),
                ):
                    scale = max(abs(closed.coat_linear), 1e-300)
                    for x, y in zip(solved, closed):
                        assert abs(x - y) <= 1e-12 * scale

    def test_matches_printed_material_indexed_form_core2(self, rng):
        # for a phase-2 core the closed form reads, in material indices,
        # A = 3 th2 (k1 h1 - k2 h2) / (3 k1 th2 + 4 mu1 + 3 k2 (1 - th2))
        for _ in range(50):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=2)
            k1, mu1, h1 = comp.phase1.k, comp.phase1.mu, comp.phase1.h
            k2, h2 = comp.phase2.k, comp.phase2.h
            th2 = comp.theta2
            den = 3.0 * k1 * th2 + 4.0 * mu1 + 3.0 * k2 * (1.0 - th2)
            A = 3.0 * th2 * (k1 * h1 - k2 * h2) / den
            a3 = th2  # b = 1
            B = -3.0 * a3 * (k1 * h1 - k2 * h2) / den
            g = -3.0 * (1.0 - th2) * (k1 * h1 - k2 * h2) / den
            got = cfg.thermal
            assert got.coat_linear == pytest.approx(A, rel=1e-11, abs=1e-14)
            assert got.coat_inverse_square == pytest.approx(B, rel=1e-11, abs=1e-14)
            assert got.core_linear == pytest.approx(g, rel=1e-11, abs=1e-14)

    def test_interface_residuals_small(self, rng):
        for _ in range(100):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            c = cfg.thermal
            r_u, r_t, r_o = interface_residuals(cfg, c)
            assert r_u <= 1e-12 and r_t <= 1e-12 and r_o <= 1e-12

    def test_residuals_detect_corruption(self):
        c = CORE1.thermal
        bad = type(c)(
            core_linear=c.core_linear * 1.01,
            coat_linear=c.coat_linear,
            coat_inverse_square=c.coat_inverse_square,
        )
        r_u, r_t, _ = interface_residuals(CORE1, bad)
        assert max(r_u, r_t) > 1e-4

    def test_matched_stress_free_strain_gives_zero_field(self):
        # k_core h_core == k_coat h_coat wipes out the mismatch driving term
        comp = build_unswapped(
            PhaseProperties(k=2.0, mu=1.0, h=0.5),
            PhaseProperties(k=1.0, mu=0.5, h=1.0),
            theta1=0.5,
        )
        cfg = CoatedSphereConfig(composite=comp, core_phase=2)
        c = cfg.thermal
        assert c.core_linear == pytest.approx(0.0, abs=1e-15)
        assert c.coat_linear == pytest.approx(0.0, abs=1e-15)
        assert c.coat_inverse_square == pytest.approx(0.0, abs=1e-15)
        # coating is material 1: H* = -3 k1 h1
        assert cfg.H == pytest.approx(-3.0, rel=1e-14)

    def test_zero_eigenstrain(self):
        comp = build_unswapped(
            PhaseProperties(2.0, 1.0, 0.0), PhaseProperties(1.0, 0.5, 0.0), 0.5
        )
        cfg = CoatedSphereConfig(composite=comp, core_phase=1)
        c = cfg.thermal
        assert (c.core_linear, c.coat_linear, c.coat_inverse_square) == (0.0, 0.0, 0.0)
        assert cfg.H == 0.0


class TestMechanicalCoefficients:
    def test_homogeneous_uniform_state(self):
        cfg = homogeneous_config(k=2.0, mu=1.0)
        m = mechanical_coefficients(cfg, 1.5)
        assert m.core_linear == pytest.approx(1.5 / (3 * 2.0), rel=1e-14)
        assert m.coat_linear == pytest.approx(1.5 / (3 * 2.0), rel=1e-14)
        assert m.coat_inverse_square == pytest.approx(0.0, abs=1e-16)
        fields = local_field_constants(cfg, Loading(1.5, 0.0))
        assert fields.tr_sigma_core == pytest.approx(4.5, rel=1e-14)
        assert fields.tr_sigma_coating == pytest.approx(4.5, rel=1e-14)

    def test_zero_load(self):
        m = mechanical_coefficients(CORE1, 0.0)
        assert (m.core_linear, m.coat_linear, m.coat_inverse_square) == (0.0, 0.0, 0.0)

    def test_canonical_core1_unit_traction(self):
        # exact solve at s = 1: (g, A, B) = (5/27, 8/27, -1/18)
        m = mechanical_coefficients(CORE1, 1.0)
        assert m.core_linear == pytest.approx(5 / 27, rel=1e-13)
        assert m.coat_linear == pytest.approx(8 / 27, rel=1e-13)
        assert m.coat_inverse_square == pytest.approx(-1 / 18, rel=1e-13)

    def test_purely_mechanical_moments_hit_bound_formulas(self):
        # deltaT = 0: core-1 moments are sqrt(3)|s0| L1 (phase 1) and
        # sqrt(3)|s0| M2 (phase 2)
        loading = Loading(1.0, 0.0)
        c = characteristic_constants(CANONICAL, 0.0)
        assert phase_moment(CORE1, loading, 1, 2.0) == pytest.approx(
            SQRT3 * c.L1, rel=1e-13
        )
        assert phase_moment(CORE1, loading, 2, 2.0) == pytest.approx(
            SQRT3 * c.M2, rel=1e-13
        )

    def test_interface_residuals_small(self, rng):
        for _ in range(50):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            s0 = float(rng.uniform(-5, 5))
            m = mechanical_coefficients(cfg, s0)
            r_u, r_t, r_o = interface_residuals(cfg, m, traction=s0)
            assert r_u <= 1e-12 and r_t <= 1e-12 and r_o <= 1e-12


class TestEffectiveProperties:
    def test_thermal_stress_canonical(self):
        assert CORE1.H == pytest.approx(-24 / 13, rel=1e-13)
        assert CORE2.H == pytest.approx(-30 / 17, rel=1e-13)

    def test_dual_routes_agree_randomly(self, rng):
        for _ in range(100):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            t, v = effective_thermal_stress_routes(cfg)
            assert t == pytest.approx(v, rel=1e-12, abs=1e-14)

    def test_bulk_modulus_canonical(self):
        assert CORE1.K == pytest.approx(18 / 13, rel=1e-14)
        assert CORE2.K == pytest.approx(24 / 17, rel=1e-14)

    def test_bulk_modulus_homogeneous(self):
        assert homogeneous_config(k=3.0).K == pytest.approx(
            3.0, rel=1e-13
        )

    def test_exact_relation(self, rng):
        assert verify_exact_relation(CORE1) <= 1e-12
        assert verify_exact_relation(CORE2) <= 1e-12
        for _ in range(100):
            comp = random_composite(rng)
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                assert verify_exact_relation(cfg) <= 1e-12

    def test_exact_relation_equal_expansion(self):
        comp = build_unswapped(
            PhaseProperties(2.0, 1.0, 0.8), PhaseProperties(1.0, 0.5, 0.8), 0.5
        )
        for core in (1, 2):
            assert verify_exact_relation(CoatedSphereConfig(comp, core)) <= 1e-12

    def test_average_identity(self, rng):
        assert verify_average_identity(CORE1, Loading(0.0, 0.0)) == 0.0
        assert verify_average_identity(CORE1, Loading(1.0, 1.0)) <= 1e-12
        assert verify_average_identity(CORE2, Loading(-3.0, 2.0)) <= 1e-12
        for _ in range(100):
            comp = random_composite(rng)
            loading = random_loading(rng)
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                assert verify_average_identity(cfg, loading) <= 1e-12


class TestLocalFields:
    def test_canonical_core1_fields(self):
        f = local_field_constants(CORE1, CANONICAL_LOADING)
        assert f.tr_sigma_core == pytest.approx(2.0, rel=1e-12)
        assert f.tr_sigma_coating == pytest.approx(-2.0, rel=1e-12)
        assert f.hydro_norm_coating == pytest.approx(2 * SQRT3 / 3, rel=1e-12)

    def test_canonical_core2_fields(self):
        f = local_field_constants(CORE2, CANONICAL_LOADING)
        assert f.tr_sigma_core == pytest.approx(-3.0, rel=1e-12)
        assert f.tr_sigma_coating == pytest.approx(3.0, rel=1e-12)
        assert f.hydro_norm_core == pytest.approx(SQRT3, rel=1e-12)

    def test_zero_loading(self):
        f = local_field_constants(CORE1, Loading(0.0, 0.0))
        assert f.tr_sigma_core == 0.0 and f.tr_sigma_coating == 0.0

    def test_superposition_linearity(self, rng):
        for _ in range(50):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            s0, dT = float(rng.uniform(-5, 5)), float(rng.uniform(-2, 2))
            full = local_field_constants(cfg, Loading(s0, dT))
            mech = local_field_constants(cfg, Loading(s0, 0.0))
            therm = local_field_constants(cfg, Loading(0.0, dT))
            scale = max(abs(full.tr_sigma_core), abs(full.tr_sigma_coating), 1.0)
            assert full.tr_sigma_core == pytest.approx(
                mech.tr_sigma_core + therm.tr_sigma_core, abs=1e-12 * scale
            )
            assert full.tr_sigma_coating == pytest.approx(
                mech.tr_sigma_coating + therm.tr_sigma_coating, abs=1e-12 * scale
            )

    def test_average_stress_equals_applied(self, rng):
        # volume average of tr sigma must be 3 sigma0 for any loading
        for _ in range(50):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            s0, dT = float(rng.uniform(-5, 5)), float(rng.uniform(-2, 2))
            f = local_field_constants(cfg, Loading(s0, dT))
            fc = cfg.core_fraction
            avg = fc * f.tr_sigma_core + (1 - fc) * f.tr_sigma_coating
            assert avg == pytest.approx(3 * s0, rel=1e-11, abs=1e-11 * max(1, abs(dT)))

    def test_tr_sigma_constant_per_phase(self, rng):
        # the sampled fields stay on the constants in every cell of a grid
        for _ in range(20):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            f = local_field_constants(cfg, loading)
            sampled = sample_analytic_fields(cfg, loading, make_radial_grid(cfg, 200))
            nc = sampled.grid.interface_index + 1
            tr_core, tr_coat = sampled.cell_tr_sigma[:nc], sampled.cell_tr_sigma[nc:]
            scale = max(abs(f.tr_sigma_core), abs(f.tr_sigma_coating), 1e-300)
            assert np.max(np.abs(tr_core - f.tr_sigma_core)) <= 1e-12 * scale
            assert np.max(np.abs(tr_coat - f.tr_sigma_coating)) <= 1e-12 * scale

    def test_displacement_continuous_at_interface(self, rng):
        for _ in range(20):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            total = superposed_shell_coefficients(cfg, loading)
            a = cfg.core_radius()
            u_core = total.core_linear * a
            u_coat = total.coat_linear * a + total.coat_inverse_square / a**2
            scale = max(abs(u_core), abs(u_coat), 1e-300)
            assert abs(u_core - u_coat) <= 1e-11 * scale

    def test_superposed_coefficients_make_one_thermal_solve(self, rng, sphere_builds):
        # the thermal solution and H* are the sphere's, derived once when it
        # is built and not again here
        cases = [(CANONICAL, CANONICAL_LOADING)]
        cases += [(random_composite(rng), random_loading(rng)) for _ in range(20)]
        spheres = [(CoatedSphereConfig(comp, core), loading)
                   for comp, loading in cases for core in (1, 2)]
        assert len(sphere_builds) == len(spheres)
        # the bits of thermal + mechanical at outer traction sigma0 - H* deltaT
        expected = []
        for cfg, loading in spheres:
            th = cfg.thermal
            me = mechanical_coefficients(
                cfg, loading.sigma0 - cfg.H * loading.deltaT
            )
            expected.append([x * loading.deltaT + y for x, y in zip(th, me)])
        sphere_builds.clear()
        for (cfg, loading), bits in zip(spheres, expected):
            total = superposed_shell_coefficients(cfg, loading)
            assert [x.hex() for x in total] == [x.hex() for x in bits]
        assert sphere_builds == []

    def test_a_build_and_a_verify_pass_make_one_solve_per_sphere(self, sphere_builds):
        # K, H* and the thermal solution of each sphere are derived once, when
        # verify builds it; building the composite derives none
        comp, relabeled = build_composite(*CANONICAL[:3])
        assert sphere_builds == []
        verify._verify_checks(comp, CANONICAL_LOADING, verify.ORACLE_REFERENCE_N, relabeled)
        assert sphere_builds == [(comp, 1), (comp, 2)]


def fraction_shell_solve(cfg, eigen_on, outer, traction=0.0):
    """(g, A, B, core trace, coating trace) of the interface conditions in Fractions.

    The rows are the unscaled conditions at the float core radius, solved by
    Gaussian elimination; the traces are ``9 kc (g - hc)`` and ``9 kt (A - ht)``.
    Each value is rounded once, to an infinity of its sign beyond the float range.
    """
    a, kc, kt, mut = (Fraction(x) for x in (cfg.core_radius(), cfg.core.k, cfg.coating.k,
                                            cfg.coating.mu))
    hc, ht = (Fraction(cfg.core.h), Fraction(cfg.coating.h)) if eigen_on else (0, 0)
    rows = [
        [a, -a, -1 / a**2, Fraction(0)],  # u continuous at r = a
        [3 * kc, -3 * kt, 4 * mut / a**3, 3 * kc * hc - 3 * kt * ht],  # sigma_rr too
        [Fraction(0), Fraction(1), Fraction(1), Fraction(0)] if outer == "clamped"
        else [Fraction(0), 3 * kt, -4 * mut, Fraction(traction) + 3 * kt * ht],
    ]
    for i in range(3):
        pivot = next(r for r in range(i, 3) if rows[r][i] != 0)
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(3):
            if r != i:
                factor = rows[r][i] / rows[i][i]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[i])]

    def rounded(x):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    g, A, B = (row[3] / row[i] for i, row in enumerate(rows))
    return tuple(map(rounded, (g, A, B, 9 * kc * (g - hc), 9 * kt * (A - ht))))


#: (eigen_on, outer, traction) of the unit-traction, traction-free thermal and
#: clamped thermal solutions, in the order ``_solve_shell`` returns them
VERIFY_SOLVES = ((False, "traction", 1.0), (True, "traction", 0.0), (True, "clamped"))


class TestExactShellSolve:
    def test_equals_rounded_fraction_solve_over_wide_domain(self):
        # drawn like test_endpoint_table's wide-contrast probe: moduli over
        # 300 decades, fractions in (1e-9, 1 - 1e-9); coefficients and
        # region traces alike
        rng = np.random.default_rng(10)
        count = 0
        while count < 200:
            k1, k2, mu1, mu2 = (float(x) for x in 10.0 ** rng.uniform(-150.0, 150.0, 4))
            h1, h2, _ = (float(x) for x in rng.uniform(-2.0, 2.0, 3))
            theta1 = float(rng.uniform(1e-9, 1.0 - 1e-9))
            try:
                comp, _ = build_composite(
                    PhaseProperties(k1, mu1, h1), PhaseProperties(k2, mu2, h2), theta1
                )
            except InputError:
                continue
            count += 1
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                for got, args in zip(coated_sphere._solve_shell(cfg), VERIFY_SOLVES):
                    assert tuple(got) == fraction_shell_solve(cfg, *args), (comp, core, args)

    def test_traces_equal_rounded_fraction_solve(self, rng):
        # verify's three solves on ordinary composites and the wide-domain probe
        composites = [random_composite(rng) for _ in range(100)]
        composites += [comp for comp, _ in wide_domain_probe(200)]
        for comp in composites:
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                for got, args in zip(coated_sphere._solve_shell(cfg), VERIFY_SOLVES):
                    assert tuple(got) == fraction_shell_solve(cfg, *args), (comp, core, args)

    def test_out_of_range_coefficient_is_an_infinity(self):
        # a coating of moduli 5e-324 takes a unit traction with A near 1/k,
        # beyond the float range
        comp = build_unswapped(
            PhaseProperties(k=2.0, mu=1.0, h=0.0), PhaseProperties(k=5e-324, mu=5e-324, h=1.0), 0.5
        )
        cfg = CoatedSphereConfig(composite=comp, core_phase=1)
        got = coated_sphere._solve_shell(cfg)[0]
        expected = fraction_shell_solve(cfg, False, "traction", 1.0)
        assert tuple(got) == expected
        assert expected[1] == math.inf


class TestClosedFormPath:
    def test_library_never_solves_the_interface_system(self, monkeypatch):
        # the 3x3 solve is verify's independent route; the library's field
        # and effective-constant functions use the closed forms only
        def refuse(*args, **kwargs):
            raise AssertionError("library path called the 3x3 interface solve")

        monkeypatch.setattr(coated_sphere, "_solve_shell", refuse)
        for cfg in (CORE1, CORE2):
            effective_properties(cfg)
            local_field_constants(cfg, Loading(0.3, 1.0))
            for phase in (1, 2):
                phase_moment(cfg, Loading(0.3, 1.0), phase, math.inf)
            sample_analytic_fields(cfg, Loading(0.3, 1.0), make_radial_grid(cfg, 16))

    def test_high_contrast_bulk_modulus_exact(self):
        # moduli 1e6 against 1 and 1e-6: kbar - num/den cancelled here and
        # the bulk-modulus dual-route check raised ConsistencyFailure
        comp = build_unswapped(
            PhaseProperties(k=1e6, mu=1e6, h=0.0),
            PhaseProperties(k=1.0, mu=1e-6, h=1.0),
            0.5,
        )
        for core in (1, 2):
            cfg = CoatedSphereConfig(composite=comp, core_phase=core)
            K = effective_properties(cfg).K_effective
            kc, kt, mut, f = (
                Fraction(x) for x in (cfg.core.k, cfg.coating.k, cfg.coating.mu, cfg.core_fraction)
            )
            exact = kt + f / (1 / (kc - kt) + 3 * (1 - f) / (3 * kt + 4 * mut))
            assert abs(Fraction(K) - exact) <= Fraction(1e-12) * exact

    def test_tiny_theta1_uses_the_composites_fractions(self):
        # theta2 = fl(1 - theta1) and 1 - theta2 differ from theta1 by about
        # 1e-9 relative here; with 1 - a^3 as the coating fraction the
        # bulk-modulus dual-route check raised ConsistencyFailure on core 2
        comp = build_unswapped(
            PhaseProperties(k=0.0463359381764292, mu=159699.71756020925, h=-1.225354603819703),
            PhaseProperties(k=1.4544765086278303e-08, mu=0.0006001194232230362, h=0.26403267491544513),
            1.2050190118228602e-08,
        )
        cfg = CoatedSphereConfig(composite=comp, core_phase=2)
        assert cfg.coating_fraction == comp.theta1 != 1.0 - cfg.core_fraction
        closed, via_mech = closed_form_bulk_modulus_routes(cfg)
        assert abs(closed - via_mech) <= 1e-12 * closed
        assert cfg.K == closed

    def test_soft_core_thermal_routes_agree(self):
        # a core 1e10 times stiffer than its coating: g is close to hc, and
        # the volume-average route formed g - hc by subtraction, so the H*
        # dual-route check raised ConsistencyFailure
        comp = build_unswapped(
            PhaseProperties(k=40570862.99970614, mu=285.80276798368124, h=-0.29402756101936145),
            PhaseProperties(
                k=0.0020610642794395015, mu=0.0038451689321523054, h=-0.22172748424880018
            ),
            0.00038263871929215414,
        )
        cfg = CoatedSphereConfig(composite=comp, core_phase=1)
        via_traction, via_average = effective_thermal_stress_routes(cfg)
        assert abs(via_traction - via_average) <= 1e-12 * abs(via_traction)
        assert cfg.H == via_traction

    def test_wide_domain_probe_effective_constants_agree_with_their_second_routes(self):
        # H* and K against the second routes the library once compared them
        # with, at 1e-12
        for comp, loading in wide_domain_probe(1000):
            for core in (1, 2):
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                props = effective_properties(cfg)
                local_field_constants(cfg, loading)
                t, a = effective_thermal_stress_routes(cfg)
                assert t == props.H_effective_scalar
                coat = cfg.coating
                scale = max(abs(t), abs(a), 3.0 * abs(coat.k * coat.h), 1e-300)
                assert abs(t - a) <= 1e-12 * scale, (comp, core)
                closed, via_mech = closed_form_bulk_modulus_routes(cfg)
                assert closed == props.K_effective
                assert abs(via_mech - closed) <= 1e-12 * max(abs(via_mech), abs(closed)), (comp, core)


class TestPhaseMoment:
    def test_p_independence(self):
        vals = [phase_moment(CORE1, CANONICAL_LOADING, 2, p) for p in (2, 4, 8, math.inf)]
        assert max(vals) == min(vals)

    def test_invalid_exponent(self):
        for bad in (1.0, 0.0, -2.0, float("nan")):
            with pytest.raises(InvalidExponent):
                phase_moment(CORE1, CANONICAL_LOADING, 2, bad)

    def test_zero_loading_gives_zero(self):
        assert phase_moment(CORE1, Loading(0.0, 0.0), 1, 4.0) == 0.0

    def test_canonical_attainment_value(self):
        assert phase_moment(CORE1, CANONICAL_LOADING, 2, 4.0) == pytest.approx(
            2 * SQRT3 / 3, rel=1e-12
        )


class TestAttainment:
    def test_bound_attained_for_random_endpoint_minimizers(self, rng):
        count = 0
        while count < 150:
            comp = random_composite(rng)
            loading = random_loading(rng)
            for phase in (1, 2):
                result = phase_moment_lower_bound(comp, loading, phase)
                if result.at_endpoint is Endpoint.INTERIOR:
                    continue
                scale = SQRT3 * (abs(loading.sigma0) + abs(loading.deltaT) + 1.0)
                if result.value < 1e-4 * scale:
                    continue  # stay away from the vanishing edge
                cfg = CoatedSphereConfig(
                    composite=comp, core_phase=result.microstructure.core_phase
                )
                for p in (2.0, 4.0, math.inf):
                    moment = phase_moment(cfg, loading, phase, p)
                    assert moment == pytest.approx(result.value, rel=1e-10)
                count += 1

    def test_exact_route_attains_every_endpoint_bound_over_wide_domain(self):
        # verify's attainment residual, by the exact shell solve's traces; the
        # superposition route it replaced cancelled on 192 of these phases
        for comp, loading in wide_domain_probe(1000):
            solves = verify._unit_solves(CoatedSphereConfig(comp, core) for core in (1, 2))
            for phase in (1, 2):
                result = phase_moment_lower_bound(comp, loading, phase)
                if result.at_endpoint is Endpoint.INTERIOR:
                    continue
                residual = verify._attainment_residual(
                    solves, loading.sigma0, loading.deltaT, result.value, phase,
                    result.microstructure.core_phase,
                )
                assert residual <= 1e-10, (comp, loading, phase)

    def test_jensen_equality_case(self, rng):
        # for constant per-phase fields the p-moment equals the magnitude of
        # the phase average, the equality case of the mean-vs-moment bound
        for _ in range(50):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            f = local_field_constants(cfg, loading)
            for phase, tr in ((cfg.core_phase, f.tr_sigma_core),
                              (cfg.coating_phase, f.tr_sigma_coating)):
                mean_mag = abs(tr) / SQRT3
                for p in (2.0, 5.0):
                    assert phase_moment(cfg, loading, phase, p) == pytest.approx(
                        mean_mag, rel=1e-13, abs=1e-15
                    )

    def test_vanishing_stress_at_band_edges(self, rng):
        # at sigma0 = D (1 - 1/endpoint) the designated assemblage carries
        # exactly zero hydrostatic stress in phase 2
        for _ in range(30):
            comp = random_composite(rng)
            dT = float(rng.uniform(0.3, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
            c = characteristic_constants(comp, dT)
            if c.D == 0.0:
                continue
            for endpoint, core in ((c.M2, 1), (c.L2, 2)):
                s0 = c.D * (1.0 - 1.0 / endpoint)
                cfg = CoatedSphereConfig(composite=comp, core_phase=core)
                f = local_field_constants(cfg, Loading(s0, dT))
                value = f.tr_sigma_core if core == 2 else f.tr_sigma_coating
                scale = abs(c.D) + abs(s0)
                assert abs(value) / SQRT3 <= 1e-10 * scale
