"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its stated scale and tolerance with a fixed seed.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from conftest import (
    build_unswapped,
    classify_branch,
    compliance_interval,
    compliance_to_X,
    compliance_to_Y,
    interval_scan_min,
    random_composite,
    random_loading,
)
from thermobounds import (
    CoatedSphereConfig,
    Endpoint,
    Loading,
    MicrostructureKind,
    Ordering,
    PhaseProperties,
    characteristic_constants,
    compare_fields,
    hs_bulk_moduli,
    local_field_constants,
    make_radial_grid,
    phase_moment,
    phase_moment_lower_bound,
    regime_table,
    sample_analytic_fields,
    sampled_moment,
    solve_radial_bvp,
)
from thermobounds.bounds import BRANCH_IDS, bound_grid

SQRT3 = math.sqrt(3.0)
SEED = 745_991
SCALAR_STRIDE = 25


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_ordering_inequalities():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        c = characteristic_constants(random_composite(rng, Ordering.WELL_ORDERED), 1.0)
        if not (c.L1 > 1.0 > c.L2 and c.M1 > 1.0 > c.M2):
            failures += 1
    for _ in range(1000):
        c = characteristic_constants(
            random_composite(rng, Ordering.NON_WELL_ORDERED), 1.0
        )
        if not (c.L2 > 1.0 > c.L1 and c.M2 > 1.0 > c.M1):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "ordering inequalities on 2000 random specs",
        failures == 0 and elapsed < 1.0,
        f"failures={failures}, {elapsed:.2f}s",
    )


def test_criterion_02_endpoint_identities():
    rng = np.random.default_rng(SEED + 2)
    # canonical spot values, exact fractions
    canonical = build_unswapped(PhaseProperties(2, 1, 0), PhaseProperties(1, 0.5, 1), 0.5)
    Km, Kp = hs_bulk_moduli(canonical)
    spot_ok = (
        abs(Km - 18 / 13) < 1e-15
        and abs(Kp - 24 / 17) < 1e-15
        and abs(compliance_to_X(1 / Km, canonical) - 8 / 9) < 1e-14
        and abs(compliance_to_X(1 / Kp, canonical) - 5 / 6) < 1e-14
        and abs(compliance_to_Y(1 / Km, canonical) - 10 / 9) < 1e-14
        and abs(compliance_to_Y(1 / Kp, canonical) - 7 / 6) < 1e-14
    )
    worst = 0.0
    for _ in range(1000):
        comp = random_composite(rng)
        Km, Kp = hs_bulk_moduli(comp)
        c = characteristic_constants(comp, 1.0)
        for got, want in (
            (compliance_to_X(1 / Km, comp), c.M2),
            (compliance_to_X(1 / Kp, comp), c.L2),
            (compliance_to_Y(1 / Km, comp), c.L1),
            (compliance_to_Y(1 / Kp, comp), c.M1),
        ):
            worst = max(worst, abs(got - want) / abs(want))
    report(
        2,
        "compliance endpoint identities on 1000 random specs",
        spot_ok and worst <= 1e-12,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_03_attainment():
    rng = np.random.default_rng(SEED + 3)
    count, worst = 0, 0.0
    while count < 200:
        comp = random_composite(rng)
        loading = random_loading(rng)
        phase = int(rng.integers(1, 3))
        result = phase_moment_lower_bound(comp, loading, phase)
        if result.at_endpoint is Endpoint.INTERIOR:
            continue
        # generic endpoint minimizers only: skip the thin sliver where the
        # bound nearly vanishes and a relative comparison loses meaning
        scale = SQRT3 * (abs(loading.sigma0) + abs(loading.deltaT) + 1.0)
        if result.value < 1e-4 * scale:
            continue
        sphere = CoatedSphereConfig(
            composite=comp, core_phase=result.microstructure.core_phase
        )
        for p in (2.0, 4.0, math.inf):
            moment = phase_moment(sphere, loading, phase, p)
            worst = max(worst, abs(moment - result.value) / result.value)
        count += 1
    report(
        3,
        "coated-sphere attainment of 200 endpoint-minimizer bounds (p=2,4,inf)",
        worst <= 1e-10,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(SEED + 4)
    start = time.perf_counter()
    worst = 0.0
    cases = []
    for _ in range(50):
        comp = random_composite(rng)
        loading = random_loading(rng)
        sphere = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
        cases.append((sphere, loading))
        grid = make_radial_grid(sphere, 4096)
        sol = solve_radial_bvp(sphere, loading, grid)
        ana = sample_analytic_fields(sphere, loading, grid)
        scale = max(abs(ana.tr_sigma_core), abs(ana.tr_sigma_coating), 1e-300)
        err = max(
            abs(sol.tr_sigma_core - ana.tr_sigma_core),
            abs(sol.tr_sigma_coating - ana.tr_sigma_coating),
        ) / scale
        worst = max(worst, err)
    orders = []
    for sphere, loading in cases[:5]:
        ns = [256, 512, 1024, 2048]
        errs = []
        for n in ns:
            grid = make_radial_grid(sphere, n)
            errs.append(
                compare_fields(
                    sample_analytic_fields(sphere, loading, grid),
                    solve_radial_bvp(sphere, loading, grid),
                )
            )
        orders.append(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)
    report(
        4,
        "finite-volume oracle matches analytic fields (50 sets, n=4096)",
        worst <= 1e-6 and orders_ok and elapsed < 30.0,
        f"worst rel err {worst:.2e}, orders {[f'{o:.2f}' for o in orders]}, {elapsed:.1f}s",
    )


def test_criterion_05_exact_thermal_relation():
    from thermobounds import verify_exact_relation

    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(200):
        comp = random_composite(rng)
        for core in (1, 2):
            worst = max(
                worst, verify_exact_relation(CoatedSphereConfig(comp, core))
            )
    report(
        5,
        "exact effective thermal-stress relation (200 specs, both cores)",
        worst <= 1e-12,
        f"worst residual {worst:.2e}",
    )


def test_criterion_06_average_stress_identity():
    from thermobounds import verify_average_identity

    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(200):
        comp = random_composite(rng)
        loading = random_loading(rng)
        for core in (1, 2):
            worst = max(
                worst,
                verify_average_identity(CoatedSphereConfig(comp, core), loading),
            )
    report(
        6,
        "phase-2 average-stress identity (200 loadings, both cores)",
        worst <= 1e-12,
        f"worst residual {worst:.2e}",
    )


def test_criterion_07_regime_table_agreement():
    # the direct side is the grid kernel, checked against the scalar
    # classify_branch on every SCALAR_STRIDE-th sample
    rng = np.random.default_rng(SEED + 7)
    samples = 10_000
    worst_val = 0.0
    mismatches = 0
    coated = MicrostructureKind.COATED_SPHERES
    for ordering in (Ordering.WELL_ORDERED, Ordering.NON_WELL_ORDERED):
        for h_sign in (-1, +1):
            for dT_sign in (-1, +1):
                comp = random_composite(rng, ordering, h_sign=h_sign)
                deltaT = dT_sign * float(rng.uniform(0.5, 2.0))
                c = characteristic_constants(comp, deltaT)
                span = 3.0 * max(1.0, abs(c.D))
                sigmas = rng.uniform(-span, span, samples).tolist()
                for target in ("phase1", "phase2", "max"):
                    table = regime_table(comp, deltaT, target)
                    rows = bound_grid(comp, target, sigmas, [deltaT])
                    direct = [
                        (s0, value, branch, core, phase)
                        for s0, (value, _, _, phase, core, branch) in zip(sigmas, rows)
                    ]
                    for s0, value, branch, core, phase in direct[::SCALAR_STRIDE]:
                        result, scalar_branch = classify_branch(comp, deltaT, target, s0)
                        m = result.microstructure
                        assert result.value == value and scalar_branch == BRANCH_IDS[branch]
                        assert m.core_phase == (core or None)
                        if target == "max" and core:
                            assert m.max_attaining_phase == phase
                    # each sample against the table row that contains it
                    for s0, value, branch, core, phase in direct:
                        row = table.row_for(s0)
                        via = row.bound_at(s0)
                        err = abs(value - via) / max(value, via, 1e-300)
                        if err > worst_val or err != err:  # a nan stays
                            worst_val = err
                        m = row.microstructure
                        agrees = branch == BRANCH_IDS.index(row.branch)
                        if row.branch == "Zero":
                            agrees = agrees and core == 0
                        else:
                            agrees = (
                                agrees and m.kind == coated and m.core_phase == core
                                and m.coating_phase == 3 - core
                                and (phase == m.max_attaining_phase if target == "max"
                                     else m.max_attaining_phase is None)
                            )
                        mismatches += not agrees
    report(
        7,
        "regime tables match minimization pointwise (8 sign combos x 3 targets x 1e4)",
        worst_val <= 1e-12 and mismatches == 0,
        f"worst value err {worst_val:.2e}, branch/microstructure mismatches {mismatches}",
    )


def test_criterion_08_deltaT_zero_reduction():
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for _ in range(200):
        comp = random_composite(rng)
        s0 = float(rng.uniform(-10, 10))
        for phase in (1, 2):
            result = phase_moment_lower_bound(comp, Loading(s0, 0.0), phase)
            iv = compliance_interval(comp, phase)
            expected = SQRT3 * abs(s0) * min(abs(iv.lo), abs(iv.hi))
            scan = interval_scan_min(iv.lo, iv.hi, s0, 0.0, 200_001)
            resolution = SQRT3 * abs(s0) * (iv.hi - iv.lo) / 200_000
            scale = max(expected, 1e-300)
            worst = max(worst, abs(result.value - expected) / scale)
            assert result.value <= scan + 1e-12 <= result.value + resolution + 1e-9
    report(
        8,
        "deltaT=0 reduction to sqrt(3)|sigma0| x smaller endpoint (200 specs)",
        worst <= 1e-12,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_09_vanishing_stress_regimes():
    rng = np.random.default_rng(SEED + 9)
    checked = 0
    worst_gap = 0.0
    worst_edge = 0.0
    while checked < 100:
        comp = random_composite(rng)
        dT = float(rng.uniform(0.3, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        c = characteristic_constants(comp, dT)
        if c.D == 0.0:
            continue
        iv = compliance_interval(comp, 2)
        gap_lo = min(c.D * (1 - 1 / iv.lo), c.D * (1 - 1 / iv.hi))
        gap_hi = max(c.D * (1 - 1 / iv.lo), c.D * (1 - 1 / iv.hi))
        # strictly inside the undetermined gap the bound is exactly zero
        for frac in (0.25, 0.5, 0.75):
            s0 = gap_lo + frac * (gap_hi - gap_lo)
            result = phase_moment_lower_bound(comp, Loading(s0, dT), 2)
            worst_gap = max(worst_gap, result.value)
            assert result.microstructure.kind is MicrostructureKind.UNDETERMINED
        # at the gap edges the designated assemblage has zero hydrostatic
        # stress in phase 2
        for endpoint, core in ((c.M2, 1), (c.L2, 2)):
            s0 = c.D * (1.0 - 1.0 / endpoint)
            fields = local_field_constants(
                CoatedSphereConfig(comp, core), Loading(s0, dT)
            )
            tr2 = fields.tr_sigma_core if core == 2 else fields.tr_sigma_coating
            worst_edge = max(worst_edge, (abs(tr2) / SQRT3) / (abs(c.D) + abs(s0)))
        checked += 1
    report(
        9,
        "vanishing-stress regimes: zero bound in gap, zero phase-2 field at edges",
        worst_gap == 0.0 and worst_edge <= 1e-10,
        f"gap max bound {worst_gap:.1e}, edge field {worst_edge:.2e}",
    )


def test_criterion_10_p_independence_of_integrated_moments():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(50):
        comp = random_composite(rng)
        sphere = CoatedSphereConfig(composite=comp, core_phase=int(rng.integers(1, 3)))
        loading = random_loading(rng)
        grid = make_radial_grid(sphere, 512)
        ana = sample_analytic_fields(sphere, loading, grid)
        for phase in (1, 2):
            vals = [sampled_moment(ana, phase, p) for p in (2.0, 3.0, 4.0, 8.0)]
            ref = max(abs(v) for v in vals)
            if ref > 0.0:
                worst = max(worst, (max(vals) - min(vals)) / ref)
    report(
        10,
        "integrated moments p-independent across p in {2,3,4,8} (50 configs)",
        worst <= 1e-8,
        f"worst spread {worst:.2e}",
    )
