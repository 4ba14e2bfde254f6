"""Optimal lower bounds on local hydrostatic stress in two-phase thermoelastic composites.

The package computes, for an isotropic two-phase thermoelastic composite
under macroscopic hydrostatic stress and uniform temperature change:

* the optimal lower bounds on the per-phase L^p moments (1 < p <= inf) of
  the local hydrostatic stress, and on the maximum local hydrostatic stress;
* the regime classification of the bound as the applied stress varies, with
  the attaining coated-sphere microstructure per regime;
* the exact local fields inside the attaining coated-sphere assemblages,
  their effective constants, and verification identities;
* independent numerical oracles (a finite-volume layered-sphere solver,
  quadrature moments) that cross-check the closed-form fields and moments.

All quantities are unit-agnostic: supply moduli and stresses in one
consistent unit system.
"""

from .bounds import (
    Endpoint,
    MicrostructureKind,
    characteristic_constants,
    max_field_lower_bound,
    phase_moment_lower_bound,
    regime_table,
    thermal_stress_scale,
)
from .coated_sphere import (
    CoatedSphereConfig,
    effective_properties,
    hs_bulk_moduli,
    local_field_constants,
    mechanical_coefficients,
    phase_moment,
    superposed_shell_coefficients,
)
from .errors import (
    EqualBulkModuli,
    EqualShearModuli,
    InputError,
    InvalidExponent,
    NonPositiveModulus,
    SingularSystem,
    VolumeFractionOutOfRange,
)
from .materials import (
    Loading,
    Ordering,
    PhaseProperties,
    ValidatedComposite,
    build_composite,
)
from .radial_oracle import (
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    sampled_moment,
    solve_radial_bvp,
)
from .verify import verify_average_identity, verify_exact_relation

__version__ = "0.1.0"
