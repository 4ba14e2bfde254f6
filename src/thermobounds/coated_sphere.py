"""Exact local fields inside a coated-sphere assemblage.

A coated sphere is a core of one phase (radius ``a``) inside a concentric
coating of the other phase (outer radius ``b = 1``), with ``a^3`` equal to
the core phase's volume fraction.  Filling space with scaled copies of this
prototype yields an assemblage whose per-phase fields equal those of the
single prototype, so one sphere suffices for every reported quantity.

The radially symmetric displacement is ``u = g*r`` in the core and
``u = A*r + B/r^2`` in the coating.  Two sub-problems are solved on the
prototype:

* thermal: eigenstrain ``h_i * I`` per phase at unit temperature change,
  displacement clamped at the outer surface (``u(b) = 0``); the outer
  radial traction of this solution is the effective thermal stress scalar
  ``H*`` per unit temperature change (``CoatedSphereConfig.thermal`` and
  ``CoatedSphereConfig.H``).
* mechanical: no eigenstrain, prescribed outer radial traction.

The composite loaded by macroscopic stress ``sigma0 * I`` and temperature
change ``deltaT`` carries the superposition of the deltaT-scaled thermal
solution (average stress ``H* deltaT * I``) and the mechanical solution at
outer traction ``sigma0 - H* deltaT`` (average stress makes up the rest),
so the total average stress is exactly ``sigma0 * I``.  Equivalently, the
total field solves the eigenstrain problem with outer traction ``sigma0``.

The hydrostatic part of the stress is constant in each phase (the ``B/r^2``
displacement term is trace-free in strain), which is what lets these
configurations attain the moment bounds with equality: each region's
constant mean stress is one line ``t sigma0 + e deltaT`` of the composite's
endpoint table (``ValidatedComposite.endpoints``), the line that
:meth:`~thermobounds.materials.EndpointTable.regions` assigns it.
:func:`local_field_constants` and
:func:`phase_moment` read their traces ``3 (t sigma0 + e deltaT)`` from
that table, as the bounds do, and so does the oracle's sampler of the
analytic fields (:func:`~thermobounds.radial_oracle.sample_analytic_fields`),
which takes u(r) from :func:`superposed_shell_coefficients`.

Both sub-problems are solved in closed form, which gives the displacement:
the thermal one once per sphere, when a :class:`CoatedSphereConfig` is
built, with its effective constants (K* as Hashin's extremal modulus and H*
as the outer traction of the thermal solution), the mechanical one by
:func:`mechanical_coefficients`.  The bounds read none of them.  The
3x3 interface system the closed forms solve is kept in ``_solve_shell``,
solved exactly over the integers for all three unit loads of a sphere at
once (unit outer traction; unit deltaT, traction-free and clamped) and
rounded once per coefficient and per region trace: the route to the region
stresses that does not read the table.  Only :mod:`thermobounds.verify`,
which holds every other independent route and check, calls it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .bounds import SQRT3
from .materials import Loading, PhaseProperties, ValidatedComposite, _Derived, check_exponent


class ShellCoefficients(NamedTuple):
    """Displacement coefficients of one shell solution.

    ``u = core_linear * r`` in the core and
    ``u = coat_linear * r + coat_inverse_square / r^2`` in the coating.
    """

    core_linear: float
    coat_linear: float
    coat_inverse_square: float


class _SphereFields(NamedTuple):
    composite: ValidatedComposite
    core_phase: int
    #: Derived on construction.  The fractions are the composite's own:
    #: ``core_fraction`` is a^3, and ``coating_fraction`` is not formed as 1 - a^3.
    coating_phase: int
    core: PhaseProperties
    coating: PhaseProperties
    core_fraction: float
    coating_fraction: float
    K: float
    H: float
    thermal: ShellCoefficients


class CoatedSphereConfig(_Derived, _SphereFields):
    """A coated-sphere assemblage built from a validated composite.

    ``core_phase`` selects which material fills the core; the coating is the
    other phase.  The outer radius is 1, so the cube of the core radius
    equals the core phase's volume fraction.  The constructor takes
    ``composite`` and ``core_phase`` and derives the other fields, and the
    record compares, hashes and pickles by those two, as a derived field may
    be nan.

    ``K`` is Hashin's modulus of a core fraction f of modulus kc in a coating
    (kt, mut), K = kt + f / (1/(kc - kt) + 3 (1 - f)/(3 kt + 4 mut)), over a
    common denominator: K = (3 k1 k2 + 4 mut kbar) / (3 (k1 th2 + k2 th1) + 4 mut)
    with kbar = th1 k1 + th2 k2.  Every term is positive, so nothing cancels
    at high modulus contrast, nothing divides by k1 - k2, and on the scaled
    moduli (``ValidatedComposite.scaled_moduli``) no product overflows.  With
    c = 1 - f the coating's own fraction, ``thermal`` is the clamped thermal
    solution at unit deltaT::

        den = 3 kt f + 4 mut + 3 kc c
        A = -B = 3 f (kt*ht - kc*hc) / den,   g = -3 c (kt*ht - kc*hc) / den

    (den is a sum of positive terms, and g does not divide by f), and ``H``
    (H*) its outer radial traction 3 kt (A - ht) - 4 mut B, on the raw moduli.
    """

    __slots__ = ()
    _INPUTS = 2

    def __new__(cls, composite, core_phase):
        if core_phase not in (1, 2):
            raise ValueError(f"core_phase must be 1 or 2, got {core_phase}")
        p1, p2, th1, th2 = composite[:4]
        s, k1, mu1, k2, mu2 = composite.scaled_moduli
        if core_phase == 1:
            core, coat, f, c, mut = p1, p2, th1, th2, mu2
        else:
            core, coat, f, c, mut = p2, p1, th2, th1, mu1
        kbar, kdual = th1 * k1 + th2 * k2, 3.0 * (k1 * th2 + k2 * th1)
        K = (3.0 * k1 * k2 + 4.0 * mut * kbar) / (kdual + 4.0 * mut)
        mismatch = coat.k * coat.h - core.k * core.h
        den = _thermal_denominator(core, coat, f, c)
        A = 3.0 * f * mismatch / den
        B = -A
        thermal = ShellCoefficients(-3.0 * c * mismatch / den, A, B)
        H = 3.0 * coat.k * (A - coat.h) - 4.0 * coat.mu * B
        derived = (3 - core_phase, core, coat, f, c, K * s, H, thermal)
        return tuple.__new__(cls, (composite, core_phase, *derived))

    def core_radius(self) -> float:
        return self.core_fraction ** (1.0 / 3.0)


def _thermal_denominator(core: PhaseProperties, coat: PhaseProperties, f: float, c: float) -> float:
    """den = 3 kt f + 4 mut + 3 kc c of :class:`CoatedSphereConfig`, with c = 1 - f."""
    return 3.0 * coat.k * f + 4.0 * coat.mu + 3.0 * core.k * c


def hs_bulk_moduli(c: ValidatedComposite) -> tuple[float, float]:
    """The two extremal effective bulk moduli (K_minus, K_plus): the spheres' ``K``.

    Every microstructure's effective compliance contraction lies between
    1/K_plus and 1/K_minus; the spheres with core phase 1 and 2 realize the ends.
    """
    return CoatedSphereConfig(c, 1).K, CoatedSphereConfig(c, 2).K


class LocalFieldConstants(NamedTuple):
    """Per-phase constants of the local stress field.

    ``tr_sigma_*`` is the (constant) trace of the stress in each region;
    the magnitude of the hydrostatic stress tensor is ``|tr sigma|/sqrt(3)``.
    """

    tr_sigma_core: float
    tr_sigma_coating: float
    hydro_norm_core: float
    hydro_norm_coating: float


class EffectiveProperties(NamedTuple):
    """Effective constants of the assemblage.

    ``H_effective_scalar`` multiplies the identity in the macroscopic law's
    thermal stress term (per unit temperature change);
    ``compliance_contraction`` is 1/K_effective for this isotropic medium.
    """

    K_effective: float
    H_effective_scalar: float
    compliance_contraction: float


def _quotient(num: int, den: int) -> float:
    """num / den rounded once; an infinity of its sign where that overflows."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


#: :func:`_solve_shell`'s :class:`ShellCoefficients` and the core's and coating's stress traces
_ShellSolution = namedtuple(
    "_ShellSolution", "core_linear coat_linear coat_inverse_square tr_core tr_coating"
)


def _solve_shell(config: CoatedSphereConfig) -> tuple[_ShellSolution, ...]:
    """Solve the 3x3 interface/boundary system for (g, A, B) exactly, per unit load.

    Returns the solutions per unit outer traction with no eigenstrain, per
    unit deltaT with a traction-free surface, and per unit deltaT clamped
    (``u(1) = A + B = 0``), in that order.  Rows: displacement continuity at
    r=a times a^2, radial traction continuity at r=a times a^3, and the
    outer condition (prescribed traction ``sigma_rr(1)``, or clamped).  The
    eigenstrain (at unit temperature change) enters only the right-hand
    sides of the traction rows.  Each entry is a sum of products of float
    inputs, so one power of two ``s`` that makes every input an integer
    makes every row integer, and Cramer's rule gives each coefficient, and
    the region stress traces ``9 kc (g - hc)`` and ``9 kt (A - ht)``, as one
    quotient of integers, rounded once; one beyond the float range is an
    infinity of its sign.

    This is the independent route to the closed forms of the clamped
    thermal solution (``CoatedSphereConfig.thermal``) and of
    :func:`mechanical_coefficients` and to the endpoint table's region
    stresses; only :mod:`thermobounds.verify` calls it.
    """
    core, coat = config.core, config.coating
    inputs = (config.core_radius(), core.k, coat.k, coat.mu, core.h, coat.h)
    ratios = [x.as_integer_ratio() for x in inputs]
    s = max(d for _, d in ratios)  # every denominator is a power of two
    a, kc, kt, mut, hc, ht = (n * (s // d) for n, d in ratios)
    a3 = a**3
    # row i is (m_i1, m_i2, m_i3 | r_i), each scaled by a power of s; r_1 = m_31 = 0
    m11, m12, m13 = a3, -a3, -(s**3)
    m21, m22, m23 = 3 * kc * a3 * s, -3 * kt * a3 * s, 4 * mut * s**4
    minor23 = m12 * m23 - m13 * m22  # rows 1 and 2, columns 2 and 3

    def solve(m32, m33, r2, r3, hc, ht):
        minor13 = m12 * m33 - m13 * m32  # rows 1 and 3, columns 2 and 3
        det = m11 * (m22 * m33 - m23 * m32) - m21 * minor13
        g = r3 * minor23 - r2 * minor13  # g, A and B times det
        A = m11 * (r2 * m33 - m23 * r3) + m21 * m13 * r3
        B = m11 * (m22 * r3 - r2 * m32) - m21 * m12 * r3
        # 9 k (g - h) times s^2 det, as k and h are s times theirs
        traces = 9 * kc * (g * s - hc * det), 9 * kt * (A * s - ht * det)
        return _ShellSolution(
            *(_quotient(x, det) for x in (g, A, B)), *(_quotient(x, s * s * det) for x in traces)
        )

    r2 = 3 * a3 * (kc * hc - kt * ht)
    m32, m33 = 3 * kt * s, -4 * mut * s  # the traction row, s^2 times its moduli terms
    return (
        solve(m32, m33, 0, s * s, 0, 0),
        solve(m32, m33, r2, 3 * kt * ht, hc, ht),
        solve(1, 1, r2, 0, hc, ht),
    )


def mechanical_coefficients(config: CoatedSphereConfig, sigma0: float) -> ShellCoefficients:
    """Shell coefficients of the eigenstrain-free problem with outer traction sigma0.

    With s = sigma0, f = a^3 and (kc, kt, mut) the core/coating moduli:

        den = 9 kt kc + 12 mut (kt (1 - f) + kc f)
        g = s (3 kt + 4 mut) / den
        A = s (3 kc + 4 mut) / den
        B = 3 s f (kt - kc) / den

    Every term of ``den`` is positive, and the moduli are scaled
    (``ValidatedComposite.scaled_moduli``), so it neither cancels nor
    overflows.  The coating fraction 1 - f is the composite's own.
    """
    s, k1, mu1, k2, mu2 = config.composite.scaled_moduli
    kc, kt, mut = (k1, k2, mu2) if config.core_phase == 1 else (k2, k1, mu1)
    f, c = config.core_fraction, config.coating_fraction
    den = 9.0 * kt * kc + 12.0 * mut * (kt * c + kc * f)
    return ShellCoefficients(
        core_linear=sigma0 * (3.0 * kt + 4.0 * mut) / den / s,
        coat_linear=sigma0 * (3.0 * kc + 4.0 * mut) / den / s,
        coat_inverse_square=3.0 * sigma0 * f * (kt - kc) / den / s,
    )


def superposed_shell_coefficients(
    config: CoatedSphereConfig, loading: Loading
) -> ShellCoefficients:
    """Total displacement coefficients under (sigma0, deltaT) loading.

    The mechanical part is solved at outer traction sigma0 - H* deltaT so
    that the superposed field carries average stress sigma0 * I.
    """
    th = config.thermal
    me = mechanical_coefficients(config, loading.sigma0 - config.H * loading.deltaT)
    dT = loading.deltaT
    return ShellCoefficients(
        core_linear=th.core_linear * dT + me.core_linear,
        coat_linear=th.coat_linear * dT + me.coat_linear,
        coat_inverse_square=th.coat_inverse_square * dT + me.coat_inverse_square,
    )


def local_field_constants(
    config: CoatedSphereConfig, loading: Loading
) -> LocalFieldConstants:
    """Per-phase trace of stress and hydrostatic magnitude under loading.

    The trace is constant in each region, ``3 (t sigma0 + e deltaT)`` with
    the region's line of the endpoint table
    (:meth:`~thermobounds.materials.EndpointTable.regions`).
    """
    s0, dT = loading.sigma0, loading.deltaT
    core, coat = config.composite.endpoints.regions(config.core_phase)
    tr_core = 3.0 * (core.t * s0 + core.e * dT)
    tr_coat = 3.0 * (coat.t * s0 + coat.e * dT)
    return LocalFieldConstants(tr_core, tr_coat, abs(tr_core) / SQRT3, abs(tr_coat) / SQRT3)


def phase_moment(
    config: CoatedSphereConfig, loading: Loading, phase: int, p: float
) -> float:
    """L^p moment of |hydrostatic stress| over one phase of the assemblage.

    Because the hydrostatic stress is constant per phase, the moment equals
    that constant for every p in (1, inf], including p = inf (the per-phase
    maximum).
    """
    check_exponent(p)
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    line = config.composite.endpoints.regions(config.core_phase)[phase != config.core_phase]
    return SQRT3 * abs(line.t * loading.sigma0 + line.e * loading.deltaT)


def effective_properties(config: CoatedSphereConfig) -> EffectiveProperties:
    """Bundle of effective constants (bulk modulus, thermal stress, compliance)."""
    return EffectiveProperties(config.K, config.H, 1.0 / config.K)

