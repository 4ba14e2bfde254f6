"""Cross-check of the closed-form fields against the finite-volume oracle.

Solves the layered-sphere problem numerically at increasing resolution and
compares displacements and stress traces with the shell solution.  The
error contracts by a factor of four per grid doubling (second order), and
the per-phase stress traces recover the analytic constants.
"""

from thermobounds import (
    CoatedSphereConfig,
    Loading,
    PhaseProperties,
    build_composite,
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    sampled_moment,
    solve_radial_bvp,
)

composite, _ = build_composite(
    PhaseProperties(k=2.0, mu=1.0, h=0.0),
    PhaseProperties(k=1.0, mu=0.5, h=1.0),
    theta1=0.5,
)
sphere = CoatedSphereConfig(composite=composite, core_phase=1)
loading = Loading(sigma0=1.5, deltaT=1.0)

print("grid refinement study (traction outer condition):")
print(f"{'n':>6} {'max rel error':>14} {'ratio':>7}")
prev = None
for n in (128, 256, 512, 1024, 2048, 4096):
    grid = make_radial_grid(sphere, n)
    numeric = solve_radial_bvp(sphere, loading, grid)
    analytic = sample_analytic_fields(sphere, loading, grid)
    err = compare_fields(analytic, numeric)
    ratio = f"{prev / err:7.2f}" if prev else "      -"
    print(f"{n:6d} {err:14.3e} {ratio}")
    prev = err
print()

grid = make_radial_grid(sphere, 4096)
numeric = solve_radial_bvp(sphere, loading, grid)
analytic = sample_analytic_fields(sphere, loading, grid)
print("per-phase stress traces at n = 4096:")
print(f"  core:    numeric {numeric.tr_sigma_core:+.8f}  "
      f"analytic {analytic.tr_sigma_core:+.8f}")
print(f"  coating: numeric {numeric.tr_sigma_coating:+.8f}  "
      f"analytic {analytic.tr_sigma_coating:+.8f}")
print()

print("quadrature moments of the numeric field are exponent-independent")
print("(the hydrostatic stress is constant per phase):")
for p in (2.0, 3.0, 4.0, 8.0):
    m1 = sampled_moment(numeric, 1, p)
    m2 = sampled_moment(numeric, 2, p)
    print(f"  p = {p:3.0f}: phase-1 moment {m1:.8f}, phase-2 moment {m2:.8f}")
