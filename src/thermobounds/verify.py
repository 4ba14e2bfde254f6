"""Independent routes and checks behind ``thermobounds verify``.

The library evaluates each quantity once, by its closed form.  This module
recomputes them by other routes (the 3x3 interface system solved exactly by
``coated_sphere._solve_shell``, once per sphere for its three unit loads and
also for the region stresses; the volume average of the stress; the
finite-volume oracle), and :func:`_verify_checks` runs every check on one
composite as report rows.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

from .bounds import (
    SQRT3,
    Endpoint,
    _bounded_phases,
    _max_rows,
    _phase_rows,
    characteristic_constants,
    phase_moment_lower_bound,
    regime_table,
)
from .coated_sphere import (
    CoatedSphereConfig,
    ShellCoefficients,
    _solve_shell,
    _thermal_denominator,
    effective_bulk_modulus,
    effective_properties,
    effective_thermal_stress,
    local_field_constants,
    mechanical_coefficients,
    thermal_coefficients,
)
from .errors import NonConvergent, SingularSystem
from .materials import Loading, ValidatedComposite, _swap_phase
from .radial_oracle import (
    MIN_NODES,
    _phase_moments,
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    solve_radial_bvp,
)

TOL_IDENTITY = 1e-12
TOL_ATTAINMENT = 1e-10
TOL_ORACLE = 1e-6       # at the reference grid size below
ORACLE_REFERENCE_N = 4096
TOL_P_INDEPENDENCE = 1e-8
TABLE_AGREEMENT_SAMPLES = 200


def interface_residuals(
    config: CoatedSphereConfig, coeffs: ShellCoefficients, traction: float | None = None
) -> tuple[float, float, float]:
    """Normalized residuals of the three shell conditions for given coefficients.

    Returns (displacement continuity at a, radial-traction continuity at a,
    outer condition), each scaled by the magnitude of the terms entering the
    condition so an exact solution gives residuals at roundoff level.
    ``traction`` names the problem the coefficients solve: None for the
    thermal one at unit deltaT with a clamped surface, ``u(1) = 0``; a number
    for the eigenstrain-free one (deltaT = 0) with that outer traction.
    """
    deltaT = 1.0 if traction is None else 0.0
    a = config.core_radius()
    core, coat = config.core, config.coating
    g, A, B = coeffs.core_linear, coeffs.coat_linear, coeffs.coat_inverse_square

    u_core = g * a
    u_coat = A * a + B / a**2
    s_u = max(abs(g) * a, abs(A) * a, abs(B) / a**2, 1e-300)
    r_u = abs(u_core - u_coat) / s_u

    srr_core = 3.0 * core.k * (g - core.h * deltaT)
    srr_coat = 3.0 * coat.k * (A - coat.h * deltaT) - 4.0 * coat.mu * B / a**3
    s_t = max(
        abs(3.0 * core.k * g),
        abs(3.0 * core.k * core.h * deltaT),
        abs(3.0 * coat.k * A),
        abs(4.0 * coat.mu * B) / a**3,
        abs(3.0 * coat.k * coat.h * deltaT),
        1e-300,
    )
    r_t = abs(srr_core - srr_coat) / s_t

    if traction is None:
        r_o = abs(A + B) / s_u
    else:
        srr_b = 3.0 * coat.k * (A - coat.h * deltaT) - 4.0 * coat.mu * B
        r_o = abs(srr_b - traction) / max(s_t, abs(traction))
    return r_u, r_t, r_o


def effective_thermal_stress_routes(config: CoatedSphereConfig) -> tuple[float, float]:
    """H* (per unit temperature change) by the library's route and by the volume average.

    Route one is :func:`~thermobounds.coated_sphere.effective_thermal_stress`,
    the outer radial traction of the thermal solution.  Route two is the
    volume average of the stress (the trace-free part of the coating strain
    integrates to zero over the shell, so only the linear coefficients
    enter).  The core's strain g - hc is taken in its cancellation-free form
    (-3 c kt ht - hc (3 kt f + 4 mut)) / den, with c the coating fraction: g
    is close to hc when the core is much stiffer than the coating, and their
    difference would cancel.
    """
    core, coat = config.core, config.coating
    f, c = config.core_fraction, config.coating_fraction
    core_strain = (
        -3.0 * c * coat.k * coat.h - core.h * (3.0 * coat.k * f + 4.0 * coat.mu)
    ) / _thermal_denominator(core, coat, f, c)
    A = thermal_coefficients(config).coat_linear
    via_average = 3.0 * (f * core.k * core_strain + c * coat.k * (A - coat.h))
    return effective_thermal_stress(config), via_average


def verify_exact_relation(config: CoatedSphereConfig) -> float:
    """Residual of the exact effective thermal-stress relation.

    For isotropic two-phase media the contraction (C_eff)^{-1} H_eff : I is
    pinned by the effective compliance contraction:

        H*/K = [3 (h2-h1)/K + 3 (h1/k2 - h2/k1)] / (1/k1 - 1/k2)

    Returns the residual relative to the magnitude of the terms involved
    (0 means the relation holds to machine precision).
    """
    comp = config.composite
    k1, h1 = comp.phase1.k, comp.phase1.h
    k2, h2 = comp.phase2.k, comp.phase2.h
    props = effective_properties(config)
    # (C_eff)^{-1}(H* I) = H*/(3K) I, and I : I = 3
    lhs = props.H_effective_scalar * props.compliance_contraction
    t1 = 3.0 * (h2 - h1) * props.compliance_contraction
    t2 = 3.0 * (h1 / k2 - h2 / k1)
    den = 1.0 / k1 - 1.0 / k2
    rhs = (t1 + t2) / den
    scale = max(abs(lhs), abs(rhs), (abs(t1) + abs(t2)) / abs(den), 1e-300)
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def verify_average_identity(config: CoatedSphereConfig, loading: Loading) -> float:
    """Residual of the phase-2 average-stress identity.

    The volume integral of the stress trace over phase 2 is determined by
    the effective constants alone:

        tr<chi2 sigma> = 3 k2/(k2-k1) * (sigma0 - k1 sigma0 / K
                         + k1 deltaT H*/K + k1 deltaT <lambda>:I)

    with <lambda>:I = 3 (theta1 h1 + theta2 h2).  The left side is evaluated
    from the local field constants.  Returns the residual relative to the
    magnitude of the contributing terms.
    """
    comp = config.composite
    k1, h1 = comp.phase1.k, comp.phase1.h
    k2, h2 = comp.phase2.k, comp.phase2.h
    props = effective_properties(config)
    fields = local_field_constants(config, loading)

    tr_phase2 = (
        fields.tr_sigma_core
        if config.core_phase == 2
        else fields.tr_sigma_coating
    )
    lhs = comp.theta2 * tr_phase2

    s0, dT = loading.sigma0, loading.deltaT
    rh_contraction = props.H_effective_scalar * props.compliance_contraction
    lam = 3.0 * (comp.theta1 * h1 + comp.theta2 * h2)
    prefac = 3.0 * k2 / (k2 - k1)
    terms = (
        s0,
        -k1 * s0 * props.compliance_contraction,
        k1 * dT * rh_contraction,
        k1 * dT * lam,
    )
    rhs = prefac * sum(terms)
    scale = max(abs(lhs), abs(rhs), abs(prefac) * sum(abs(t) for t in terms))
    return abs(lhs - rhs) / scale if scale > 0.0 else 0.0


def _unit_solves(comp: ValidatedComposite) -> dict:
    """The exact shell solutions per unit load, by core phase.

    ``solves[core]`` is the triple of ``_solve_shell`` solutions of the
    sphere with that core: at unit outer traction, at unit deltaT with a
    traction-free surface, and at unit deltaT clamped.  Their region traces
    are exact, rounded once, and independent of the endpoint table the
    bounds read.
    """
    return {core: _solve_shell(CoatedSphereConfig(comp, core)) for core in (1, 2)}


def _attainment_residual(solves, sigma0, deltaT, value, phase, core) -> float:
    """Relative gap between a bound and the moment, by :func:`_unit_solves`, of its assemblage."""
    by_sigma0, by_deltaT = (s.tr_core if phase == core else s.tr_coating for s in solves[core][:2])
    trace = by_sigma0 * sigma0 + by_deltaT * deltaT
    scale = max(value, abs(sigma0) + abs(deltaT), 1e-300)
    return abs(abs(trace) / SQRT3 - value) / scale


def _oracle_field_error(sphere, loading, grid, analytic) -> tuple[float, str]:
    """Field error of the finite-volume oracle on ``grid``, of ``grid.n`` nodes, and its note.

    Below the reference node count a failing finite error is extrapolated to
    ORACLE_REFERENCE_N with the convergence order measured against a grid of
    half the size, or of MIN_NODES; a non-finite one is returned as it is.
    Raises SingularSystem or NonConvergent from the solves.
    """
    err = compare_fields(analytic, solve_radial_bvp(sphere, loading, grid))
    if grid.n >= ORACLE_REFERENCE_N or err <= TOL_ORACLE or not math.isfinite(err):
        return err, ""
    half = make_radial_grid(sphere, max(MIN_NODES, grid.n // 2))
    err_half = compare_fields(
        sample_analytic_fields(sphere, loading, half),
        solve_radial_bvp(sphere, loading, half),
    )
    if err > 0.0 and err_half > err:
        order = math.log(err_half / err) / math.log(2.0)
        extrapolated = err * (grid.n / ORACLE_REFERENCE_N) ** order
    else:
        order = float("nan")
        extrapolated = err
    return extrapolated, (
        f"discretization-limited at n={grid.n} (raw {err:.17g}); "
        f"order {order:.17g} extrapolation to n={ORACLE_REFERENCE_N}"
    )


def _verify_checks(
    comp: ValidatedComposite, loading: Loading, grid_n: int, relabeled: bool = False
) -> dict:
    """All verification checks as report columns (status pass/fail each).

    Cores and phases are labelled, and the rows ordered, in the caller's
    numbering, whose phase 1 is ``comp``'s phase 2 when ``relabeled``.
    Notes write numbers with 17 significant digits, as the CLI does.
    """
    import numpy as np

    internal = (_swap_phase(1, relabeled), _swap_phase(2, relabeled))  # of the caller's 1 and 2
    rows = []
    moduli = {
        f"{name}{label}": getattr(comp.phase1 if phase == 1 else comp.phase2, name)
        for label, phase in zip((1, 2), internal) for name in ("k", "mu")
    }
    inputs = moduli  # of the rows being added; a failing row names those that are subnormal

    def add(name, orientation, residual, tol, note=""):
        status = "pass" if residual <= tol else "fail"
        if status == "fail" and not note:
            note = "; ".join(
                f"{n} = {x:.17g} is subnormal" for n, x in inputs.items() if x < sys.float_info.min
            )
            if not note and not math.isfinite(residual):
                note = "the residual is not finite: a compared value overflowed"
        rows.append((name, orientation, residual, tol, status, note))

    solves = _unit_solves(comp)
    for label, core in zip((1, 2), internal):
        sphere = CoatedSphereConfig(composite=comp, core_phase=core)
        tag = f"core{label}"
        # the continuity residuals divide by a^2 and a^3, which carry too few
        # bits to resolve them when a^3 is subnormal
        inputs = {"the core fraction a^3": sphere.core_fraction, **moduli}

        # the closed-form coefficients the library uses, against the shell
        # conditions and against the 3x3 interface solve
        th = thermal_coefficients(sphere)
        r_u, r_t, r_o = interface_residuals(sphere, th)
        add("thermal-displacement-continuity", tag, r_u, TOL_IDENTITY)
        add("thermal-traction-continuity", tag, r_t, TOL_IDENTITY)
        add("thermal-outer-clamped", tag, r_o, TOL_IDENTITY)

        solved = solves[core][2]
        scale = max(abs(solved.coat_linear), abs(th.coat_linear), 1e-300)
        disc = max(
            abs(solved.core_linear - th.core_linear),
            abs(solved.coat_linear - th.coat_linear),
            abs(solved.coat_inverse_square - th.coat_inverse_square),
        ) / scale
        add("thermal-closed-form-agreement", tag, disc, TOL_IDENTITY)

        me = mechanical_coefficients(sphere, loading.sigma0)
        r_u, r_t, r_o = interface_residuals(sphere, me, traction=loading.sigma0)
        add("mechanical-displacement-continuity", tag, r_u, TOL_IDENTITY)
        add("mechanical-traction-continuity", tag, r_t, TOL_IDENTITY)
        add("mechanical-outer-traction", tag, r_o, TOL_IDENTITY)

        h1, h2 = effective_thermal_stress_routes(sphere)
        disc = abs(h1 - h2) / max(abs(h1), abs(h2), 1e-300)
        add("effective-thermal-stress-dual-route", tag, disc, TOL_IDENTITY)
        # K by the mean strain f g + c A of the exactly solved unit-traction shell
        m = solves[core][0]
        mean_strain = sphere.core_fraction * m.core_linear + sphere.coating_fraction * m.coat_linear
        k1, k2 = effective_bulk_modulus(sphere), 1.0 / (3.0 * mean_strain)
        disc = abs(k1 - k2) / max(abs(k1), abs(k2))
        add("effective-bulk-modulus-dual-route", tag, disc, TOL_IDENTITY)
        add("exact-thermal-relation", tag, verify_exact_relation(sphere), TOL_IDENTITY)
        residual = verify_average_identity(sphere, loading)
        add("average-stress-identity", tag, residual, TOL_IDENTITY)

        # independent finite-volume oracle
        try:
            grid = make_radial_grid(sphere, grid_n)
        except SingularSystem as exc:
            note = f"no FV grid: {exc}"
            add("oracle-field-agreement", tag, math.inf, TOL_ORACLE, note)
            add("moment-exponent-independence", tag, math.inf, TOL_P_INDEPENDENCE, note)
            continue
        analytic = sample_analytic_fields(sphere, loading, grid)
        try:
            err, note = _oracle_field_error(sphere, loading, grid, analytic)
        except (SingularSystem, NonConvergent) as exc:
            err, note = math.inf, f"no FV solution: {exc}"
        add("oracle-field-agreement", tag, err, TOL_ORACLE, note)

        # moment exponent independence of the quadrature moments
        spread = 0.0
        for phase in (1, 2):
            vals = _phase_moments(analytic, phase, (2.0, 3.0, 4.0, 8.0))
            ref = max(abs(v) for v in vals)
            if not all(map(math.isfinite, vals)):
                spread = math.inf
            elif ref > 0.0:
                spread = max(spread, (max(vals) - min(vals)) / ref)
        add("moment-exponent-independence", tag, spread, TOL_P_INDEPENDENCE)
    inputs = moduli

    # attainment of the bounds by the designated assemblages, whose fields
    # come from the exact shell solves rather than the endpoint table
    for label, phase in zip((1, 2), internal):
        result = phase_moment_lower_bound(comp, loading, phase)
        if result.at_endpoint is not Endpoint.INTERIOR:
            residual = _attainment_residual(
                solves, loading.sigma0, loading.deltaT, result.value, phase,
                result.microstructure.core_phase,
            )
            add("bound-attainment", f"phase{label}", residual, TOL_ATTAINMENT)

    # regime tables agree with the direct minimization; a D that overflowed
    # leaves no finite sigma0 range to sample, and a table whose breakpoint is
    # not finite (a line with t = 0) none to compare.  The tables share the
    # kernel's rows of each phase over the samples.
    D = characteristic_constants(comp, loading.deltaT).D
    span = max(1.0, 3.0 * abs(D), abs(loading.sigma0))
    finite, n = math.isfinite(2.0 * span), TABLE_AGREEMENT_SAMPLES
    targets = (*(f"phase{phase}" for phase in internal), "max")
    if finite:
        sample_array = -span + (2.0 * span) * (np.arange(n) + 0.5) / n
        samples = sample_array.tolist()
        bounded = _bounded_phases(comp, "max", loading.deltaT)
        first, second = (_phase_rows(entry, samples, D) for entry in bounded)
        rows_of = {"phase1": first, "phase2": second, "max": _max_rows(first, second)}
    for label, target in zip(("phase1", "phase2", "max"), targets):
        table = regime_table(comp, loading.deltaT, target)
        bad = [bp for bp in table.breakpoints if not math.isfinite(bp)]
        if not finite or bad:
            note = (f"the regime table's breakpoint {bad[0]:.17g} is not finite" if finite
                    else f"D = {D:.17g}: the sampled sigma0 range is not finite")
            add("regime-table-agreement", label, math.inf, TOL_IDENTITY, note)
            continue
        # the samples ascend: each row evaluates its run of them (as RegimeTable.row_for
        # picks) as one array; the residuals are the scalar formula's, and a nan stays
        direct, via, start = np.array([row[0] for row in rows_of[target]]), np.empty(n), 0
        with np.errstate(over="ignore", invalid="ignore"):
            for region in table.rows:
                stop = bisect_right(samples, region.sigma_hi, start)
                via[start:stop] = region.bound_at(sample_array[start:stop])
                start = stop
            residual = np.abs(direct - via) / np.maximum(np.maximum(direct, np.abs(via)), span)
        add("regime-table-agreement", label, float(np.max(residual)), TOL_IDENTITY)

    names = ("check", "orientation", "residual", "tolerance", "status", "note")
    return dict(zip(names, zip(*rows)))
