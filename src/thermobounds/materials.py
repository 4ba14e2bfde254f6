"""Phase properties, loading, and composite validation.

Each phase is an isotropic linear thermoelastic material described by its
bulk modulus ``k``, shear modulus ``mu``, and scalar thermal expansion
coefficient ``h`` (the stress-free strain under a unit temperature change is
``h * I``).  A composite is two such phases mixed at prescribed volume
fractions.

The library is unit-agnostic: every stress-dimensioned quantity (``k``,
``mu``, the applied stress) must be expressed in one consistent unit system,
and ``h * deltaT`` must come out as dimensionless strain.

Internally, phase labels always satisfy ``mu1 > mu2``.  Inputs ordered the
other way are relabeled by :func:`build_composite`, which reports whether a
swap happened so callers can translate results back to their own numbering.  Given that shear convention, the bulk moduli decide the elastic
ordering class: ``k1 > k2`` is the well-ordered case (phase 1 stiffer in
both moduli), ``k2 > k1`` the non-well-ordered case.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    EqualBulkModuli,
    EqualShearModuli,
    InvalidExponent,
    NonPositiveModulus,
    VolumeFractionOutOfRange,
)

# Two bulk moduli closer than this (relative) are treated as equal and the
# composite is rejected; beyond the gate, comparisons are strict.
BULK_EQUALITY_RTOL = 1e-12


class Ordering(Enum):
    """Elastic ordering of the two phases (given the mu1 > mu2 convention)."""

    WELL_ORDERED = "well-ordered"          # k1 > k2
    NON_WELL_ORDERED = "non-well-ordered"  # k2 > k1


class PhaseProperties(NamedTuple):
    """One isotropic thermoelastic phase.

    Parameters
    ----------
    k : float
        Bulk modulus, > 0 (stress units).
    mu : float
        Shear modulus, > 0 (stress units).
    h : float
        Thermal expansion coefficient (strain per unit temperature).  May be
        zero or negative.
    """

    k: float
    mu: float
    h: float


class _LoadingFields(NamedTuple):
    sigma0: float
    deltaT: float


class Loading(_LoadingFields):
    """Imposed macroscopic hydrostatic stress sigma0 and temperature change deltaT.

    The macroscopic stress tensor is ``sigma0 * I``; both entries may be any
    finite real number, which construction checks.
    """

    __slots__ = ()

    def __new__(cls, sigma0, deltaT):
        if not math.isfinite(sigma0):
            raise ValueError(f"sigma0 must be finite, got {sigma0}")
        if not math.isfinite(deltaT):
            raise ValueError(f"deltaT must be finite, got {deltaT}")
        return tuple.__new__(cls, (sigma0, deltaT))


class EndpointLine(NamedTuple):
    """A bound endpoint: the mean stress ``t sigma0 + e deltaT`` of a coated-sphere region."""

    t: float
    e: float


class EndpointTable(NamedTuple):
    """The four endpoint lines, in the closed forms of :func:`_endpoint_table`."""

    L1: EndpointLine
    L2: EndpointLine
    M1: EndpointLine
    M2: EndpointLine

    def regions(self, core_phase: int) -> tuple[EndpointLine, EndpointLine]:
        """The core's and the coating's line of the sphere with this core phase.

        Li is the region of phase i when it is the core, Mi when it is the coating.
        """
        return (self.L1, self.M2) if core_phase == 1 else (self.L2, self.M1)


class _CompositeFields(NamedTuple):
    phase1: PhaseProperties
    phase2: PhaseProperties
    theta1: float
    theta2: float
    ordering: Ordering
    scaled_moduli: tuple
    endpoints: EndpointTable


class ValidatedComposite(_CompositeFields):
    """A composite that passed :func:`build_composite`.

    Carries the ordering classification alongside the raw fields.  All
    downstream operations take a ``ValidatedComposite`` and may assume
    ``mu1 > mu2``, ``k1 != k2``, and ``0 < theta1 < 1``.

    The constructor takes the first five fields and derives the last two.
    ``endpoints`` is the endpoint table that the bounds and the
    coated-sphere fields read (:func:`_endpoint_table`).  ``scaled_moduli``
    is ``(s, k1/s, mu1/s, k2/s, mu2/s)`` with ``s`` a power of two; closed
    forms that multiply moduli take the scaled ones and scale back by ``s``.
    Powers of two scale exactly, so ordinary inputs keep every bit, and a
    product of two scaled moduli neither overflows nor underflows (see
    :func:`_scaled_moduli`).
    """

    __slots__ = ()

    def __new__(cls, phase1, phase2, theta1, theta2, ordering):
        scaled = _scaled_moduli(phase1, phase2)
        endpoints = _endpoint_table(scaled, theta1, theta2, phase2.h - phase1.h)
        return tuple.__new__(cls, (phase1, phase2, theta1, theta2, ordering, scaled, endpoints))

    def __getnewargs__(self):
        return self[:5]

    def phase(self, index: int) -> PhaseProperties:
        """Return phase properties by material index (1 or 2)."""
        if index == 1:
            return self.phase1
        if index == 2:
            return self.phase2
        raise ValueError(f"phase index must be 1 or 2, got {index}")


def _scaled_moduli(p1: PhaseProperties, p2: PhaseProperties) -> tuple:
    """``(s, k1/s, mu1/s, k2/s, mu2/s)`` with ``s`` a power of two.

    ``s = 2**E`` with E the midpoint of the binary exponents of the largest
    and the smallest modulus (held inside the normal range), so the scaled
    moduli lie within a factor of about ``sqrt(max/min)`` of 1 and a
    product of two of them within ``[min/max, max/min]``: no such product
    overflows or underflows while max/min stays below about 1e300.
    Multiplying or dividing by ``s`` is exact unless the result overflows or
    underflows, and then gives inf or 0 as any float product does.
    """
    k1, mu1, k2, mu2 = p1.k, p1.mu, p2.k, p2.mu
    E = (math.frexp(max(k1, mu1, k2, mu2))[1] + math.frexp(min(k1, mu1, k2, mu2))[1]) // 2
    s = math.ldexp(1.0, max(-1021, min(1021, E)))
    return s, k1 / s, mu1 / s, k2 / s, mu2 / s


def _endpoint_table(scaled_moduli: tuple, th1: float, th2: float, h_jump: float) -> EndpointTable:
    """The endpoint table, one :class:`EndpointLine` per coated-sphere region.

    From :func:`_scaled_moduli`'s tuple, the fractions and ``h_jump = h2 - h1``;
    :meth:`EndpointTable.regions` says which line is which sphere's core or
    coating.  With kk = k1 k2, c_i = 4 mu_i/3, kbar = th1 k1 + th2 k2,
    d_i = kk + kbar c_i and dh = 3 kk (h2 - h1)::

        L1 = k1 (k2 + c2)/d2      e_L1 =  dh c2 th2/d2
        L2 = k2 (k1 + c1)/d1      e_L2 = -dh c1 th1/d1
        M1 = k1 (k2 + c1)/d1      e_M1 =  dh c1 th2/d1
        M2 = k2 (k1 + c2)/d2      e_M2 = -dh c2 th1/d2

    ``e`` is the paper's ``D (1 - t)`` per unit deltaT with its division by
    k2 - k1 cancelled, so nothing cancels near the bulk-modulus gate.  As
    ``3 (h2 - h1) (kk/d_i) c th``, no product of three moduli underflows.
    """
    s, k1, mu1, k2, mu2 = scaled_moduli
    c1 = 4.0 * mu1 / 3.0
    c2 = 4.0 * mu2 / 3.0
    kbar = th1 * k1 + th2 * k2
    kk = k1 * k2
    d1 = kk + kbar * c1
    d2 = kk + kbar * c2
    dh = 3.0 * h_jump
    dh1, dh2 = dh * (kk / d1), dh * (kk / d2)
    return EndpointTable(
        L1=EndpointLine(k1 * (k2 + c2) / d2, dh2 * c2 * th2 * s),
        L2=EndpointLine(k2 * (k1 + c1) / d1, -dh1 * c1 * th1 * s),
        M1=EndpointLine(k1 * (k2 + c1) / d1, dh1 * c1 * th2 * s),
        M2=EndpointLine(k2 * (k1 + c2) / d2, -dh2 * c2 * th1 * s),
    )


def _check_phase(tag: str, p: PhaseProperties) -> None:
    for name, v in (("k", p.k), ("mu", p.mu)):
        if not (math.isfinite(v) and v > 0.0):
            raise NonPositiveModulus(f"{tag}.{name} must be finite and > 0, got {v}")
    if not math.isfinite(p.h):
        raise NonPositiveModulus(f"{tag}.h must be finite, got {p.h}")


def check_exponent(p, finite: bool = False) -> float:
    """Return the moment exponent ``p`` if it lies in (1, inf].

    With ``finite`` the accepted range is (1, inf).  Raises InvalidExponent
    for anything else, including NaN and non-numbers.
    """
    try:
        ok = p > 1.0 and not (finite and math.isinf(p))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        limit = "inf)" if finite else "inf]"
        raise InvalidExponent(f"moment exponent must lie in (1, {limit}, got {p!r}")
    return p


def build_composite(
    phase1: PhaseProperties, phase2: PhaseProperties, theta1: float
) -> tuple[ValidatedComposite, bool]:
    """Validate two phases and a volume fraction, relabeling so that ``mu1 > mu2``.

    Returns the composite together with a flag telling whether the phases
    were swapped, so results computed in the internal convention can be
    reported in the caller's original numbering.  A swapped composite stores
    ``theta1 = 1 - t`` for the caller's fraction ``t``.

    Raises
    ------
    NonPositiveModulus
        A modulus is not finite and positive, or an ``h`` is not finite.
    EqualShearModuli
        ``mu1 == mu2``; the labeling convention is strict and the ordering
        classification would be undefined.
    VolumeFractionOutOfRange
        ``theta1`` (after relabeling) is not strictly inside (0, 1).
    EqualBulkModuli
        ``k1`` and ``k2`` agree within ``BULK_EQUALITY_RTOL`` (relative).
    """
    _check_phase("phase1", phase1)
    _check_phase("phase2", phase2)
    if phase1.mu == phase2.mu:
        raise EqualShearModuli(
            f"shear moduli are equal (mu={phase1.mu}); relabeling undefined"
        )
    swapped = phase1.mu < phase2.mu
    if swapped:
        phase1, phase2, theta1 = phase2, phase1, 1.0 - theta1
    if not (math.isfinite(theta1) and 0.0 < theta1 < 1.0):
        raise VolumeFractionOutOfRange(
            f"theta1 must lie strictly inside (0, 1), got {theta1}"
        )
    k1, k2 = phase1.k, phase2.k
    if abs(k1 - k2) <= BULK_EQUALITY_RTOL * max(abs(k1), abs(k2)):
        raise EqualBulkModuli(
            f"bulk moduli coincide within {BULK_EQUALITY_RTOL:g} relative "
            f"(k1={k1}, k2={k2})"
        )
    ordering = Ordering.WELL_ORDERED if k1 > k2 else Ordering.NON_WELL_ORDERED
    return ValidatedComposite(phase1, phase2, theta1, 1.0 - theta1, ordering), swapped


def _swap_phase(phase: int | None, relabeled: bool) -> int | None:
    """Map a phase number either way between the caller's and the internal numbering."""
    if phase is None:
        return None
    return 3 - phase if relabeled else phase
