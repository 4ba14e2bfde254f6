"""Exception types raised by input validation and the finite-volume oracle.

Validation errors (subclasses of :class:`InputError`) signal unusable input
and map to exit code 2 in the command-line tool.  Independent computations
of one quantity are compared by ``thermobounds verify``, which reports a
disagreement as a failing row rather than raising.
"""


class InputError(ValueError):
    """Base class for all rejected-input conditions."""


class NonPositiveModulus(InputError):
    """A bulk or shear modulus is zero, negative, or not finite."""


class VolumeFractionOutOfRange(InputError):
    """A volume fraction is not strictly inside (0, 1)."""


class EqualBulkModuli(InputError):
    """The two phases have (numerically) equal bulk moduli.

    Equal bulk moduli make the thermal-mismatch stress scale and the
    compliance-to-interval maps singular; such media are rejected rather
    than handled by a limit.
    """


class EqualShearModuli(InputError):
    """The two phases have equal shear moduli.

    The internal labeling convention requires a strict shear ordering, so
    classification is undefined in this case.
    """


class InvalidExponent(InputError):
    """Moment exponent p outside the supported range (1, inf]."""


class SingularSystem(RuntimeError):
    """The finite-volume oracle cannot solve the discretized radial problem.

    Its one refusal: non-finite coefficients, a closed-form solve that returns
    non-finite displacements (where they overflow, say), or a grid whose cells
    would have zero volume, when the core fraction is too close to 0 or 1 for
    the requested node count.
    """
