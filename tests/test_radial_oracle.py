import math
import warnings

import numpy as np
import pytest

from conftest import CANONICAL, CANONICAL_LOADING, random_composite, random_loading
from thermobounds import (
    CoatedSphereConfig,
    InvalidExponent,
    Loading,
    NonConvergent,
    PhaseProperties,
    build_composite,
    compare_fields,
    effective_thermal_stress,
    interval_scan_min,
    make_radial_grid,
    radial_oracle,
    sample_analytic_fields,
    sampled_moment,
    solve_radial_bvp,
    thermal_coefficients,
)
from thermobounds.bounds import affine_abs_min
from thermobounds.radial_oracle import RadialGrid, _solve_tridiagonal
from test_coated_sphere import homogeneous_config

SQRT3 = math.sqrt(3.0)

CORE1 = CoatedSphereConfig(composite=CANONICAL, core_phase=1)
# high contrast: phase1 k = mu = 1e6, phase2 k = 1, mu = 1e-6
HIGH_CONTRAST, _ = build_composite(
    PhaseProperties(k=1e6, mu=1e6, h=0.0), PhaseProperties(k=1.0, mu=1e-6, h=1.0), 0.5
)


def thomas(lower, diag, upper, rhs):
    """Reference tridiagonal solve: Gaussian elimination one row at a time."""
    diag, rhs = list(diag), list(rhs)
    for i in range(1, len(diag)):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    x = [0.0] * len(diag)
    for i in reversed(range(len(diag))):
        x[i] = (rhs[i] - (upper[i] * x[i + 1] if i + 1 < len(diag) else 0.0)) / diag[i]
    return np.array(x)


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def zero_pivot_solve(lower, upper, row_sum, rhs):
    """The cyclic-reduction solve of the same system with a zero diagonal."""
    return _solve_tridiagonal(lower, upper, lower + upper, rhs)


def fv_systems(config, loading, n):
    """The tridiagonal systems solve_radial_bvp hands to its solver, and its u."""
    systems = []

    def record(*args):
        systems.append(args)
        return _solve_tridiagonal(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial_oracle, "_solve_tridiagonal", record)
        sol = solve_radial_bvp(config, loading, make_radial_grid(config, n))
    return systems, sol.u


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

    def test_extreme_fractions_keep_cells_on_both_sides(self, rng):
        for theta1 in (0.05, 0.95):
            comp = random_composite(rng)
            comp = type(comp)(
                phase1=comp.phase1, phase2=comp.phase2,
                theta1=theta1, theta2=1 - theta1, ordering=comp.ordering,
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
            sol = solve_radial_bvp(cfg, Loading(effective_thermal_stress(cfg) * dT, dT), grid)
            th = thermal_coefficients(cfg)
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

    def test_random_agreement(self, rng):
        for _ in range(10):
            comp = random_composite(rng)
            cfg = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
            loading = random_loading(rng)
            grid = make_radial_grid(cfg, 2048)
            sol = solve_radial_bvp(cfg, loading, grid)
            ana = sample_analytic_fields(cfg, loading, grid)
            assert compare_fields(ana, sol) <= 5e-6


class TestTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 4096, 4097])
    def test_random_dominant_systems_match_references(self, rng, n):
        for _ in range(3):
            lower, upper, rhs = rng.normal(size=(3, n))
            lower[0] = upper[-1] = 0.0
            diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.5, 1.5, n)
            diag *= rng.choice([-1.0, 1.0], n)
            x = _solve_tridiagonal(lower, upper, lower + diag + upper, rhs)
            ref = thomas(lower, diag, upper, rhs)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
            if n <= 17:
                np.testing.assert_allclose(dense(lower, diag, upper) @ x, rhs, rtol=0, atol=1e-13)
                np.testing.assert_allclose(
                    x, np.linalg.solve(dense(lower, diag, upper), rhs), rtol=1e-12, atol=1e-14
                )

    @pytest.mark.parametrize("n", [16, 17, 4096, 4097])
    @pytest.mark.parametrize("composite", [CANONICAL, HIGH_CONTRAST])
    def test_fv_systems_match_references(self, composite, n):
        for core in (1, 2):
            config = CoatedSphereConfig(composite=composite, core_phase=core)
            (system,), u = fv_systems(config, Loading(0.3, 1.0), n)
            lower, upper, row_sum, rhs = system
            diag = row_sum - lower - upper
            # the FV matrix is ill-conditioned (cond ~ n^2), which bounds
            # how closely two elimination orders can agree
            ref = thomas(lower, diag, upper, rhs)
            assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
            if n <= 17:
                np.testing.assert_allclose(
                    u, np.linalg.solve(dense(lower, diag, upper), rhs), rtol=1e-10
                )

    def test_zero_pivot_gives_nonfinite_solution_without_warning(self):
        lower, upper = np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _solve_tridiagonal(lower, upper, np.array([1.0, 3.0, 4.0]), np.ones(3))
        assert not np.all(np.isfinite(x))

    def test_zero_pivot_in_fv_solve_raises_nonconvergent(self, monkeypatch):
        monkeypatch.setattr(radial_oracle, "_solve_tridiagonal", zero_pivot_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent):
                solve_radial_bvp(CORE1, CANONICAL_LOADING, make_radial_grid(CORE1, 64))


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
        from thermobounds import ComplianceInterval

        for _ in range(100):
            lo = float(rng.uniform(0.1, 2.0))
            hi = lo + float(rng.uniform(0.01, 1.0))
            s0, D = float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))
            iv = ComplianceInterval(lo=lo, hi=hi, phase=2, lo_symbol="L2", hi_symbol="M2")
            exact, _, _ = affine_abs_min(iv, s0, D)
            n = 10_001
            scan = interval_scan_min(lo, hi, s0, D, n)
            assert scan >= exact - 1e-12
            assert scan - exact <= SQRT3 * abs(s0 - D) * (hi - lo) / (n - 1) + 1e-12

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
        # each phase's moment is the masked quadrature, bit for bit, on the
        # sampled and the FV fields of either core; a phase with no cells raises
        for core in (1, 2):
            cfg = CoatedSphereConfig(CANONICAL, core)
            grid = make_radial_grid(cfg, 64)
            for sol in (sample_analytic_fields(cfg, CANONICAL_LOADING, grid),
                        solve_radial_bvp(cfg, CANONICAL_LOADING, grid)):
                for phase in (1, 2):
                    mask = grid.core_cells if phase == core else ~grid.core_cells
                    w = grid.volume_weights[mask]
                    vals = np.abs(sol.cell_tr_sigma[mask]) / SQRT3
                    for p in (2.0, 3.0):
                        expected = float((np.sum(vals**p * w) / np.sum(w)) ** (1.0 / p))
                        assert sampled_moment(sol, phase, p).hex() == expected.hex()
                with pytest.raises(ValueError):
                    sampled_moment(sol, 3, 2.0)

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
        core = sampled.grid.core_cells
        assert np.all(np.isfinite(sampled.u[core])) and np.all(np.isnan(sampled.u[~core]))
