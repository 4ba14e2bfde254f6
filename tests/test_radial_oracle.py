import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import (
    CANONICAL,
    CANONICAL_LOADING,
    interval_scan_min,
    random_composite,
    random_loading,
)
from thermobounds import (
    CoatedSphereConfig,
    InvalidExponent,
    Loading,
    PhaseProperties,
    SingularSystem,
    build_composite,
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    sampled_moment,
    solve_radial_bvp,
)
from thermobounds.radial_oracle import RadialGrid
from test_coated_sphere import homogeneous_config

SQRT3 = math.sqrt(3.0)

CORE1 = CoatedSphereConfig(composite=CANONICAL, core_phase=1)
# high contrast: phase1 k = mu = 1e6, phase2 k = 1, mu = 1e-6
HIGH_CONTRAST, _ = build_composite(
    PhaseProperties(k=1e6, mu=1e6, h=0.0), PhaseProperties(k=1.0, mu=1e-6, h=1.0), 0.5
)
# core 2's coating is 4e-9 thick: four FV cells at n = 4096
THIN_COATING, _ = build_composite(
    PhaseProperties(k=0.0463359381764292, mu=159699.71756020925, h=-1.225354603819703),
    PhaseProperties(k=1.4544765086278303e-08, mu=0.0006001194232230362, h=0.26403267491544513),
    1.2050190118228602e-08,
)
# k = 3,300 mu in phase 1: the cyclic reduction that the closed form replaced
# was 1.1e-11 from the decimal solve here
K_OVER_MU, _ = build_composite(
    PhaseProperties(k=5366.677205874445, mu=1.6124694975392813, h=-1.5833745578744658),
    PhaseProperties(k=0.9683160328275743, mu=2.2462753955748993, h=-0.09239139572936628),
    0.4188686428732334,
)
# shear moduli 1e200 and 1e160 times the other phase's: floats round the
# assembled system's rows away, and the cyclic reduction read 1 and 2
SHEAR_CONTRAST = {
    mu1: build_composite(PhaseProperties(1.0, mu1, 0.0), PhaseProperties(2.0, 1.0, 1.0), 0.5)[0]
    for mu1 in (1e200, 1e160)
}
# composite, and the decimal digits that resolve its rows
REFERENCE_CASES = {
    "canonical": (CANONICAL, 60),
    "high-contrast": (HIGH_CONTRAST, 60),
    "thin-coating": (THIN_COATING, 60),
    "k-over-mu": (K_OVER_MU, 60),
    "shear-1e200": (SHEAR_CONTRAST[1e200], 500),
    "shear-1e160": (SHEAR_CONTRAST[1e160], 300),
}


def fv_system(config, loading, grid, num=float):
    """The finite-volume system that solve_radial_bvp solves, assembled row by row.

    Returns lists (lower, upper, row_sum, rhs): row i reads
    ``lower[i] u[i-1] + diag[i] u[i] + upper[i] u[i+1] = rhs[i]`` with
    ``diag = row_sum - lower - upper``.  A cell [r0, r1] of P-wave modulus M
    couples its two nodes by M r0 r1 / h and adds -h M to each node's row
    sum; Lame's lambda and the thermal stress 3 k h deltaT enter only where
    they jump, at the interface node and the outer surface.  The moduli and
    the geometry are combined in the arithmetic of ``num``: float, as the
    oracle assembled the system before it solved it in closed form, or
    Decimal in the current context, which keeps the identity M + 2 lambda = 3k
    that floats round away at a shear contrast of 1e200.  The thermal stresses
    and sigma0 are the floats that the oracle reads.
    """
    core, coat = config.core, config.coating
    n, i = grid.n, grid.interface_index
    r = [num(0.0)] + [num(x) for x in grid.nodes.tolist()]
    h = [r[j + 1] - r[j] for j in range(n)]
    (mc, lc), (mt, lt) = ((num(p.k) + 4 * num(p.mu) / 3, num(p.k) - 2 * num(p.mu) / 3)
                          for p in (core, coat))
    sc, st = (num(3.0 * p.k * p.h * loading.deltaT) for p in (core, coat))
    pwave = [mc] * (i + 1) + [mt] * (n - i - 1)
    hm = [hj * m for hj, m in zip(h, pwave)]
    lower = [m * r0 * r1 / hj for m, r0, r1, hj in zip(pwave, r, r[1:], h)]
    upper = lower[1:] + [num(0.0)]
    row_sum = [-x - y for x, y in zip(hm, hm[1:])] + [-hm[-1] - 2 * lt]
    row_sum[i] += 2 * r[i + 1] * (lt - lc)
    rhs = [num(0.0)] * n
    rhs[i] = (st - sc) * r[i + 1] ** 2
    rhs[-1] = -st - num(loading.sigma0)
    return lower, upper, row_sum, rhs


def decimal_solve(config, loading, grid, digits):
    """The system of :func:`fv_system`, assembled and solved by elimination row
    by row in decimal arithmetic of ``digits`` digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        lower, upper, row_sum, rhs = fv_system(config, loading, grid, Decimal)
        diag = [s - lo - up for s, lo, up in zip(row_sum, lower, upper)]
        for i in range(1, len(diag)):
            m = lower[i] / diag[i - 1]
            diag[i] -= m * upper[i - 1]
            rhs[i] -= m * rhs[i - 1]
        x = rhs
        x[-1] /= diag[-1]
        for i in reversed(range(len(diag) - 1)):
            x[i] = (rhs[i] - upper[i] * x[i + 1]) / diag[i]
    return x


def relative_error(u, exact) -> float:
    """max |u - exact| / max |exact|, the difference taken in decimal."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(max(abs(Decimal(x) - y) for x, y in zip(u.tolist(), exact))
                     / max(abs(y) for y in exact))


def geometric_coating_grid(config, n):
    """n nodes: a uniform core, then coating nodes at a (1/a)^(i/m), i = 1..m.

    m = round(n L / (1 + L)) with L = ln(1/a), so the spacing matches on both
    sides of the interface; the last node is exactly 1.
    """
    a = config.core_radius()
    L = math.log(1.0 / a)
    m = round(n * L / (1.0 + L))
    core = np.linspace(0.0, a, n - m + 1)[1:]
    coat = a * (1.0 / a) ** (np.arange(1, m + 1) / m)
    coat[-1] = 1.0
    return RadialGrid(np.concatenate([core, coat]), n - m - 1)


class TestGrid:
    def test_interface_node_exact(self):
        for n in (16, 100, 1000):
            grid = make_radial_grid(CORE1, n)
            a = CORE1.core_radius()
            assert grid.nodes[grid.interface_index] == a
            assert grid.n == n
            assert grid.nodes[-1] == 1.0
            assert np.all(np.diff(grid.nodes) > 0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            make_radial_grid(CORE1, 8)

    def test_volume_weights_are_the_cell_differences_of_r_cubed(self):
        for core in (1, 2):
            for n in (16, 257, 4096):
                grid = make_radial_grid(CoatedSphereConfig(CANONICAL, core), n)
                expected = np.diff(np.concatenate(([0.0], grid.nodes)) ** 3)
                assert grid.volume_weights.tobytes() == expected.tobytes()

    def test_the_constructor_accepts_each_built_grid(self):
        # make_radial_grid skips the constructor's checks, which its own imply
        for theta1 in (0.05, 0.5, 0.95):
            comp, _ = build_composite(CANONICAL.phase1, CANONICAL.phase2, theta1)
            for core in (1, 2):
                for n in (16, 17, 255, 4096):
                    grid = make_radial_grid(CoatedSphereConfig(comp, core), n)
                    rebuilt = RadialGrid(grid.nodes, grid.interface_index)
                    assert type(grid) is RadialGrid
                    assert rebuilt.interface_index == grid.interface_index
                    assert rebuilt.nodes.tobytes() == grid.nodes.tobytes()
                    assert rebuilt.volume_weights.tobytes() == grid.volume_weights.tobytes()

    @pytest.mark.parametrize("theta1, core", [(1e-300, 2), (1.0 - 2.0**-53, 1)])
    def test_a_sphere_whose_cells_collapse_is_refused(self, theta1, core):
        comp, _ = build_composite(CANONICAL.phase1, CANONICAL.phase2, theta1)
        message = "core radius 1.0 leaves 4096-node grid cells of zero volume"
        with pytest.raises(SingularSystem, match=f"^{message}$"):
            make_radial_grid(CoatedSphereConfig(comp, core), 4096)

    def test_extreme_fractions_keep_cells_on_both_sides(self, rng):
        for theta1 in (0.05, 0.95):
            comp = random_composite(rng)
            comp = type(comp)(
                phase1=comp.phase1, phase2=comp.phase2,
                theta1=theta1, theta2=1 - theta1,
            )
            for core in (1, 2):
                grid = make_radial_grid(CoatedSphereConfig(comp, core), 64)
                assert 4 <= grid.interface_index + 1 <= grid.n - 4


class TestSolver:
    def test_homogeneous_uniform_state_exact(self):
        cfg = homogeneous_config(k=2.0, mu=1.0)
        grid = make_radial_grid(cfg, 64)
        sol = solve_radial_bvp(cfg, Loading(1.0, 0.0), grid)
        # linear displacement states are exactly representable
        assert np.max(np.abs(sol.cell_tr_sigma - 3.0)) <= 1e-10
        assert np.max(np.abs(sol.u - grid.nodes / 6.0)) <= 1e-12

    def test_canonical_agreement_at_4096(self):
        grid = make_radial_grid(CORE1, 4096)
        sol = solve_radial_bvp(CORE1, CANONICAL_LOADING, grid)
        assert sol.tr_sigma_core == pytest.approx(2.0, rel=1e-6)
        assert sol.tr_sigma_coating == pytest.approx(-2.0, rel=1e-6)

    def test_second_order_convergence(self):
        errs = []
        for n in (128, 256, 512):
            grid = make_radial_grid(CORE1, n)
            sol = solve_radial_bvp(CORE1, CANONICAL_LOADING, grid)
            ana = sample_analytic_fields(CORE1, CANONICAL_LOADING, grid)
            errs.append(compare_fields(ana, sol))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize("composite", [CANONICAL, HIGH_CONTRAST])
    def test_second_order_convergence_up_to_65536_nodes(self, composite):
        loading = Loading(0.3, 1.0)
        for core in (1, 2):
            config = CoatedSphereConfig(composite=composite, core_phase=core)
            errs = []
            for n in (16384, 32768, 65536):
                grid = make_radial_grid(config, n)
                errs.append(compare_fields(
                    sample_analytic_fields(config, loading, grid),
                    solve_radial_bvp(config, loading, grid),
                ))
            assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
            assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.25)

    def test_clamped_thermal_matches_shell_coefficients(self, rng):
        # an outer traction of H* deltaT holds u(1) = 0: the clamped thermal field
        for _ in range(10):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            dT = float(rng.uniform(-2, 2))
            grid = make_radial_grid(cfg, 2048)
            sol = solve_radial_bvp(cfg, Loading(cfg.H * dT, dT), grid)
            th = cfg.thermal
            tr_core = 9 * cfg.core.k * (th.core_linear - cfg.core.h) * dT
            tr_coat = 9 * cfg.coating.k * (th.coat_linear - cfg.coating.h) * dT
            scale = max(abs(tr_core), abs(tr_coat), 1e-300)
            assert abs(sol.tr_sigma_core - tr_core) <= 1e-5 * scale
            assert abs(sol.tr_sigma_coating - tr_coat) <= 1e-5 * scale

    @pytest.mark.parametrize("theta1", [0.5, 1e-4])
    def test_second_order_convergence_on_a_geometric_coating(self, theta1):
        # nothing of the scheme assumes uniform spacing: a coating graded
        # towards the interface converges at the uniform grid's order
        comp, _ = build_composite(CANONICAL.phase1, CANONICAL.phase2, theta1)
        config = CoatedSphereConfig(comp, 1)
        loading = Loading(0.3, 1.0)
        errs = []
        for n in (256, 1024, 4096):
            grid = geometric_coating_grid(config, n)
            errs.append(compare_fields(
                sample_analytic_fields(config, loading, grid),
                solve_radial_bvp(config, loading, grid),
            ))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.25)

    def test_huge_moduli_raise_singular_system_without_warning(self):
        # the coating's P-wave modulus overflows to inf, and inf * 0 at the centre is nan
        comp, _ = build_composite(
            PhaseProperties(k=1e308, mu=1e308, h=0.0), CANONICAL.phase2, 0.5
        )
        config = CoatedSphereConfig(comp, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem):
                solve_radial_bvp(config, Loading(0.3, 1.0), make_radial_grid(config, 64))

    def test_random_agreement(self, rng):
        for _ in range(10):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            grid = make_radial_grid(cfg, 2048)
            sol = solve_radial_bvp(cfg, loading, grid)
            ana = sample_analytic_fields(cfg, loading, grid)
            assert compare_fields(ana, sol) <= 5e-6


class TestReferenceSystem:
    """The closed-form solve against the finite-volume system it solves, assembled row by row."""

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    @pytest.mark.parametrize("n", [16, 17, 4096])
    def test_u_solves_the_assembled_system_to_roundoff(self, name, n):
        # each row's residual is roundoff in the row's largest term
        composite, _ = REFERENCE_CASES[name]
        loading = Loading(0.3, 1.0)
        for core in (1, 2):
            config = CoatedSphereConfig(composite, core)
            grid = make_radial_grid(config, n)
            u = solve_radial_bvp(config, loading, grid).u
            lower, upper, row_sum, rhs = map(np.array, fv_system(config, loading, grid))
            left, right = np.append(0.0, u[:-1]), np.append(u[1:], 0.0)
            terms = (lower * left, (row_sum - lower - upper) * u, upper * right, -rhs)
            scale = np.sum(np.abs(terms), axis=0)
            assert np.max(np.abs(np.sum(terms, axis=0)) / scale) <= 1e-14, core

    @pytest.mark.parametrize("n", [16, 17])
    @pytest.mark.parametrize("composite", [CANONICAL, HIGH_CONTRAST, K_OVER_MU])
    def test_u_matches_a_dense_solve(self, composite, n):
        loading = Loading(0.3, 1.0)
        for core in (1, 2):
            config = CoatedSphereConfig(composite, core)
            grid = make_radial_grid(config, n)
            lower, upper, row_sum, rhs = map(np.array, fv_system(config, loading, grid))
            dense = np.diag(row_sum - lower - upper) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
            u = solve_radial_bvp(config, loading, grid).u
            assert np.max(np.abs(u - np.linalg.solve(dense, rhs))) <= 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("name", REFERENCE_CASES)
    def test_u_matches_the_decimal_solve(self, name):
        # the assembled rows cancel (cond ~ n^2); the closed form does not,
        # and it is within a few ulps of the exact discrete solution
        composite, digits = REFERENCE_CASES[name]
        loading = Loading(0.3, 1.0)
        for core in (1, 2):
            config = CoatedSphereConfig(composite, core)
            grid = make_radial_grid(config, 4096)
            u = solve_radial_bvp(config, loading, grid).u
            assert relative_error(u, decimal_solve(config, loading, grid, digits)) <= 1e-14, core

    def test_overflowing_displacements_raise_singular_system_without_warning(self):
        # moduli of 1e-10 under sigma0 = 1e300: u ~ 3e309 is beyond the float range
        comp, _ = build_composite(
            PhaseProperties(2e-10, 1e-10, 0.0), PhaseProperties(1e-10, 5e-11, 1.0), 0.5
        )
        message = "^direct solve returned non-finite displacements$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for core in (1, 2):
                config = CoatedSphereConfig(comp, core)
                with pytest.raises(SingularSystem, match=message):
                    solve_radial_bvp(config, Loading(1e300, 0.0), make_radial_grid(config, 64))


class TestScan:
    def test_canonical_scan(self):
        got = interval_scan_min(5 / 6, 8 / 9, 0.0, -6.0, 1_000_001)
        assert got == pytest.approx(2 * SQRT3 / 3, abs=1e-5)

    def test_zero_objective(self):
        assert interval_scan_min(0.3, 0.9, 0.0, 0.0, 100) == 0.0

    def test_interior_crossing_near_zero(self):
        # crossing at t* = 0.5 inside [0.2, 0.8]
        n = 100_001
        got = interval_scan_min(0.2, 0.8, 2.0, -2.0, n)
        assert got <= SQRT3 * 4.0 * 0.6 / (n - 1)

    def test_never_below_exact_min(self, rng):
        for _ in range(100):
            lo = float(rng.uniform(0.1, 2.0))
            hi = lo + float(rng.uniform(0.01, 1.0))
            s0, D = float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))
            # the closed form: 0 where the objective changes sign on [lo, hi], else the smaller end
            v_lo, v_hi = (s0 - D) * lo + D, (s0 - D) * hi + D
            crosses = min(v_lo, v_hi) <= 0.0 <= max(v_lo, v_hi)
            exact = 0.0 if crosses else SQRT3 * min(abs(v_lo), abs(v_hi))
            n = 10_001
            scan = interval_scan_min(lo, hi, s0, D, n)
            assert scan >= exact - 1e-12
            assert scan - exact <= SQRT3 * abs(s0 - D) * (hi - lo) / (n - 1) + 1e-12

    def test_overflow_is_a_value_not_a_warning(self):
        # (sigma0 - D) t overflows to inf away from t = 0, where the minimum is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interval_scan_min(0.0, 1e300, 1e300, -1e300, 11)
        assert got == SQRT3 * 1e300

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            interval_scan_min(0.0, 1.0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            interval_scan_min(1.0, 0.0, 0.0, 0.0, 10)


class TestSampledMoment:
    def test_constant_field_any_p(self):
        cfg = homogeneous_config(k=2.0, mu=1.0)
        grid = make_radial_grid(cfg, 64)
        sol = solve_radial_bvp(cfg, Loading(2.0, 0.0), grid)
        for p in (2.0, 3.0, 8.0):
            assert sampled_moment(sol, 1, p) == pytest.approx(6.0 / SQRT3, rel=1e-9)

    def test_p_independence_of_analytic_field(self, rng):
        for _ in range(20):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            grid = make_radial_grid(cfg, 256)
            ana = sample_analytic_fields(cfg, loading, grid)
            for phase in (1, 2):
                vals = [sampled_moment(ana, phase, p) for p in (2.0, 3.0, 4.0, 8.0)]
                ref = max(abs(v) for v in vals)
                if ref > 0:
                    assert (max(vals) - min(vals)) / ref <= 1e-8

    def test_zero_field(self):
        grid = make_radial_grid(CORE1, 64)
        sol = solve_radial_bvp(CORE1, Loading(0.0, 0.0), grid)
        assert sampled_moment(sol, 1, 2.0) == 0.0

    def test_moments_over_the_phase_cells(self):
        # each phase's moment is the quadrature over its run, bit for bit, on the
        # sampled and the FV fields of either core; a phase with no cells raises
        for core in (1, 2):
            cfg = CoatedSphereConfig(CANONICAL, core)
            grid = make_radial_grid(cfg, 64)
            nc = grid.interface_index + 1
            for sol in (sample_analytic_fields(cfg, CANONICAL_LOADING, grid),
                        solve_radial_bvp(cfg, CANONICAL_LOADING, grid)):
                for phase in (1, 2):
                    run = slice(nc) if phase == core else slice(nc, None)
                    w = grid.volume_weights[run]
                    vals = np.abs(sol.cell_tr_sigma[run]) / SQRT3
                    for p in (2.0, 3.0):
                        expected = float((np.sum(vals**p * w) / np.sum(w)) ** (1.0 / p))
                        assert sampled_moment(sol, phase, p).hex() == expected.hex()
                with pytest.raises(ValueError):
                    sampled_moment(sol, 3, 2.0)

    def test_overflow_is_a_value_not_a_warning(self):
        # |tr sigma| ~ 1e200: its square would overflow, so the moment is
        # taken in units of the largest value, and it is finite
        grid = make_radial_grid(CORE1, 64)
        sol = sample_analytic_fields(CORE1, Loading(1e200, 0.0), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampled_moment(sol, 1, 2.0) == 1.9245008972987522e200

    def test_exponent_validation(self):
        grid = make_radial_grid(CORE1, 64)
        sol = solve_radial_bvp(CORE1, CANONICAL_LOADING, grid)
        for bad in (1.0, 0.0, math.inf, float("nan")):
            with pytest.raises(InvalidExponent):
                sampled_moment(sol, 1, bad)


class TestCompareFields:
    def test_identical_is_zero(self):
        grid = make_radial_grid(CORE1, 128)
        ana = sample_analytic_fields(CORE1, CANONICAL_LOADING, grid)
        assert compare_fields(ana, ana) == 0.0

    def test_coarse_error_consistent_with_second_order(self):
        grid_c = make_radial_grid(CORE1, 64)
        grid_f = make_radial_grid(CORE1, 4096)
        err_c = compare_fields(
            sample_analytic_fields(CORE1, CANONICAL_LOADING, grid_c),
            solve_radial_bvp(CORE1, CANONICAL_LOADING, grid_c),
        )
        err_f = compare_fields(
            sample_analytic_fields(CORE1, CANONICAL_LOADING, grid_f),
            solve_radial_bvp(CORE1, CANONICAL_LOADING, grid_f),
        )
        expected_ratio = (4096 / 64) ** 2
        assert err_c / err_f == pytest.approx(expected_ratio, rel=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["u", "cell_tr_sigma"])
    def test_a_non_finite_value_in_either_field_is_not_finite(self, bad, field):
        # max(err, nan) keeps err: a nan must not read as the finite part's error
        grid = make_radial_grid(CORE1, 64)
        ana = sample_analytic_fields(CORE1, CANONICAL_LOADING, grid)
        for which in ("analytic", "numeric"):
            values = getattr(ana, field).copy()
            values[3] = bad
            broken = ana._replace(**{field: values})
            pair = (broken, ana) if which == "analytic" else (ana, broken)
            err = compare_fields(*pair)
            assert not math.isfinite(err), (which, err)

    def test_zero_fields(self):
        # at loading (0, 0) both fields vanish and compare as 0; against a zero
        # analytic field the other field scales the error, which reads 1
        grid = make_radial_grid(CORE1, 64)
        unloaded = Loading(0.0, 0.0)
        ana = sample_analytic_fields(CORE1, unloaded, grid)
        fv = solve_radial_bvp(CORE1, unloaded, grid)
        assert not (ana.u.any() or ana.cell_tr_sigma.any() or fv.u.any() or fv.cell_tr_sigma.any())
        assert compare_fields(ana, fv) == 0.0
        assert compare_fields(ana, sample_analytic_fields(CORE1, CANONICAL_LOADING, grid)) == 1.0

    def test_grid_mismatch_rejected(self):
        g1 = make_radial_grid(CORE1, 64)
        g2 = make_radial_grid(CORE1, 128)
        a1 = sample_analytic_fields(CORE1, CANONICAL_LOADING, g1)
        a2 = sample_analytic_fields(CORE1, CANONICAL_LOADING, g2)
        with pytest.raises(ValueError):
            compare_fields(a1, a2)

    def test_equal_grid_objects_compare_and_unequal_nodes_raise(self):
        grid = make_radial_grid(CORE1, 64)
        ana = sample_analytic_fields(CORE1, CANONICAL_LOADING, grid)
        fv = solve_radial_bvp(CORE1, CANONICAL_LOADING, grid)
        twin = make_radial_grid(CORE1, 64)
        assert twin is not grid
        assert compare_fields(ana, fv._replace(grid=twin)) == compare_fields(ana, fv) > 0.0
        nodes = grid.nodes.copy()
        nodes[0] *= 0.5
        with pytest.raises(ValueError):
            compare_fields(ana, fv._replace(grid=RadialGrid(nodes, grid.interface_index)))


class TestAnalyticFields:
    def test_overflowing_coefficients_give_nan_without_warning(self):
        # phase 2 at k = mu = 5e-324: the closed-form coating coefficients of
        # core 1 are +-inf, and the coating's u is nan, under the suite's
        # error::RuntimeWarning filter
        comp, _ = build_composite(
            PhaseProperties(2.0, 1.0, 0.0), PhaseProperties(5e-324, 5e-324, 1.0), 0.5
        )
        cfg = CoatedSphereConfig(comp, 1)
        sampled = sample_analytic_fields(cfg, Loading(0.3, 1.0), make_radial_grid(cfg, 64))
        nc = sampled.grid.interface_index + 1
        assert np.all(np.isfinite(sampled.u[:nc])) and np.all(np.isnan(sampled.u[nc:]))
