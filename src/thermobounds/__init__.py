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

``import thermobounds`` loads ``errors``, ``materials``, ``bounds`` and
``coated_sphere``, none of which imports numpy.  The oracles of
``radial_oracle`` and the routes of ``verify`` load on first access: their
names here, and the two submodule attributes, resolve through the module's
``__getattr__``, which binds each as a plain global.  Of the commands,
``bounds``, ``table`` and ``sweep`` load ``radial_oracle`` (for the
``--grid-n`` limits the parser prints) but not ``verify``; ``verify`` and
``sweep --residuals`` load ``verify`` and, in its array checks, numpy.
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
__version__ = "0.1.0"

# name -> the submodule that defines it, imported on the name's first access
_LAZY = {
    "compare_fields": "radial_oracle",
    "make_radial_grid": "radial_oracle",
    "sample_analytic_fields": "radial_oracle",
    "sampled_moment": "radial_oracle",
    "solve_radial_bvp": "radial_oracle",
    "radial_oracle": "radial_oracle",
    "verify_average_identity": "verify",
    "verify_exact_relation": "verify",
    "verify": "verify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups find a plain global
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
