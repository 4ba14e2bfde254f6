"""Exact fields inside the attaining coated-sphere assemblages.

Constructs both orientations (core phase 1 and core phase 2), shows that
the hydrostatic stress is constant per phase, that the per-phase moments
meet the closed-form bounds with equality, and that the effective-property
identities hold to machine precision.  Ends with the loading that drives
the hydrostatic stress in one phase exactly to zero.
"""

import math

from thermobounds import (
    CoatedSphereConfig,
    Loading,
    PhaseProperties,
    build_composite,
    characteristic_constants,
    effective_properties,
    local_field_constants,
    phase_moment,
    phase_moment_lower_bound,
    verify_average_identity,
    verify_exact_relation,
)

composite, _ = build_composite(
    PhaseProperties(k=2.0, mu=1.0, h=0.0),
    PhaseProperties(k=1.0, mu=0.5, h=1.0),
    theta1=0.5,
)
loading = Loading(sigma0=0.0, deltaT=1.0)

for core in (1, 2):
    sphere = CoatedSphereConfig(composite=composite, core_phase=core)
    fields = local_field_constants(sphere, loading)
    print(f"core phase {core} (coating phase {sphere.coating_phase}):")
    print(f"  tr sigma: core {fields.tr_sigma_core:+.6f}, "
          f"coating {fields.tr_sigma_coating:+.6f}")
    props = effective_properties(sphere)
    print(f"  effective bulk modulus K = {props.K_effective:.6f}")
    print(f"  effective thermal stress H* = {props.H_effective_scalar:.6f}")
    print(f"  exact thermal relation residual:  {verify_exact_relation(sphere):.2e}")
    print(f"  average-stress identity residual: "
          f"{verify_average_identity(sphere, loading):.2e}")
    print()

print("attainment: the designated assemblage achieves the bound exactly")
for phase in (1, 2):
    bound = phase_moment_lower_bound(composite, loading, phase)
    sphere = CoatedSphereConfig(
        composite=composite, core_phase=bound.microstructure.core_phase
    )
    moment = phase_moment(sphere, loading, phase, p=math.inf)
    print(f"  phase {phase}: bound {bound.value:.12f}  "
          f"assemblage moment {moment:.12f}")
print()

# pick the loading at the edge of the undetermined gap: the coating of the
# core-1 assemblage then carries zero hydrostatic stress, so all of the
# applied load turns into pure shear there
consts = characteristic_constants(composite, loading.deltaT)
sigma_edge = consts.D * (1.0 - 1.0 / consts.M2)
sphere = CoatedSphereConfig(composite=composite, core_phase=1)
fields = local_field_constants(sphere, Loading(sigma_edge, 1.0))
print(f"at sigma0 = D(1 - 1/M2) = {sigma_edge:.6f} the phase-2 (coating) field")
print(f"vanishes: tr sigma coating = {fields.tr_sigma_coating:.2e}")
