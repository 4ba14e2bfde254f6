"""Optimal lower bounds on local hydrostatic stress moments.

For a two-phase thermoelastic composite under macroscopic hydrostatic stress
``sigma0 * I`` and temperature change ``deltaT``, the per-phase L^p moments
of the local hydrostatic stress admit optimal lower bounds of the form

    bound_i = min over t in [lo_i, hi_i] of sqrt(3) * |(sigma0 - D) * t + D|

where ``D`` is a thermal-mismatch stress scale and ``[lo_i, hi_i]`` is the
interval of values the dimensionless compliance parameter of phase ``i``
can take over all microstructures with the given volume fractions.  The
interval endpoints are the four contrast factors ``L1, L2, M1, M2``; which
pair applies, and in which order, depends on the elastic ordering class.
The minimum is always achieved either at an interval endpoint, in which
case a coated-sphere assemblage attains the bound exactly, or at an
interior zero crossing, in which case the bound is 0.

Because the attaining local field is constant per phase, the bound value is
the same for every moment exponent p in (1, inf]; p enters the API only for
interface symmetry with the moment evaluators and is validated when given.

:func:`bound_arrays` evaluates a bound, its attaining microstructure and
its regime-table branch over whole arrays of loadings in one numpy pass,
with the same floating-point operations as the scalar functions, so every
element equals the scalar result bit for bit.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .materials import Loading, Ordering, ValidatedComposite, check_exponent

SQRT3 = math.sqrt(3.0)

#: Branch identifiers used in regime tables.  ``L``/``M`` name the interval
#: endpoint family the minimizer sits on; ``left``/``right`` say on which
#: side of that branch's vanishing point sigma0 lies.
BRANCH_IDS = (
    "L-branch-left",
    "M-branch-left",
    "Zero",
    "M-branch-right",
    "L-branch-right",
)


class Endpoint(Enum):
    """Where the affine absolute-value minimum is achieved."""

    LOWER = "lower"
    UPPER = "upper"
    INTERIOR = "interior"


class MicrostructureKind(Enum):
    COATED_SPHERES = "coated-spheres"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Microstructure:
    """Descriptor of the microstructure attaining a bound.

    ``max_attaining_phase`` is filled only for max-field bounds: the phase
    whose per-phase bound realizes the maximum (the asterisk phase).
    """

    kind: MicrostructureKind
    core_phase: int | None = None
    coating_phase: int | None = None
    max_attaining_phase: int | None = None

    def __post_init__(self):
        if self.kind is MicrostructureKind.COATED_SPHERES:
            if self.core_phase == self.coating_phase:
                raise ValueError("core and coating phases must differ")


UNDETERMINED = Microstructure(kind=MicrostructureKind.UNDETERMINED)


@dataclass(frozen=True)
class BoundConstants:
    """Characteristic combinations of moduli, fractions, and thermal data.

    ``L1, L2, M1, M2`` are dimensionless contrast factors (the compliance
    interval endpoints).  ``D`` is the thermal-mismatch stress scale and
    ``F = D * (1 - 2/(L1 + M2))`` the stress at which the two per-phase
    branches of the max-field bound cross.  Well-ordered composites satisfy
    ``L1 > 1 > L2`` and ``M1 > 1 > M2``; non-well-ordered ones the reverse.
    """

    L1: float
    L2: float
    M1: float
    M2: float
    D: float
    F: float


@dataclass(frozen=True)
class ComplianceInterval:
    """Admissible range of one phase's dimensionless compliance parameter.

    ``lo_symbol``/``hi_symbol`` name which contrast factor each endpoint is
    ("L2", "M2" for phase 2; "L1", "M1" for phase 1); the order depends on
    the elastic ordering class.
    """

    lo: float
    hi: float
    phase: int
    lo_symbol: str
    hi_symbol: str


@dataclass(frozen=True)
class BoundResult:
    """A lower bound value plus where/how it is attained.

    ``value >= 0`` always.  ``at_endpoint`` is INTERIOR exactly when the
    value is 0, in which case no attaining microstructure is singled out
    (kind UNDETERMINED); otherwise the minimizer is an interval endpoint and
    ``microstructure`` names the coated-sphere assemblage attaining the
    bound.
    """

    value: float
    argmin_compliance: float
    at_endpoint: Endpoint
    microstructure: Microstructure


@dataclass(frozen=True)
class RegimeRow:
    """One sigma0 interval of a regime table.

    ``endpoint_value`` is the interval endpoint whose branch applies (None
    for the Zero branch).  ``sigma_lo``/``sigma_hi`` may be ``-inf``/``inf``;
    consecutive rows share their breakpoint.
    """

    sigma_lo: float
    sigma_hi: float
    branch: str
    endpoint_value: float | None
    microstructure: Microstructure

    def bound_at(self, sigma0: float, D: float) -> float:
        """Evaluate this row's closed-form bound at sigma0."""
        if self.branch == "Zero":
            return 0.0
        return SQRT3 * abs((sigma0 - D) * self.endpoint_value + D)


@dataclass(frozen=True)
class RegimeTable:
    """Piecewise classification of a bound as sigma0 ranges over the reals.

    The table is generated from the minimization itself (breakpoints are the
    zero-crossing stresses ``D * (1 - 1/t)`` at the interval endpoints, plus
    ``D`` and, for the max-field target, the branch crossover ``F``), so it
    agrees pointwise with the direct bound evaluation for every sign
    combination of the inputs.
    """

    target: str
    D: float
    breakpoints: tuple[float, ...]
    rows: tuple[RegimeRow, ...]

    def bound_at(self, sigma0):
        """The bound at sigma0, a float or an array of them, row by row."""
        if np.ndim(sigma0) == 0:
            return self.row_for(sigma0).bound_at(sigma0, self.D)
        sigma0 = np.asarray(sigma0, dtype=float)
        index = self._row_index(sigma0)
        value = np.zeros(sigma0.shape)
        for i, row in enumerate(self.rows):
            mask = index == i
            value[mask] = row.bound_at(sigma0[mask], self.D)
        return value

    def row_for(self, sigma0: float) -> RegimeRow:
        """Return the row containing sigma0.

        At a shared breakpoint both adjacent rows contain sigma0 and
        evaluate to the same value; the earlier row is returned.
        """
        return self.rows[int(self._row_index(sigma0))]

    def _row_index(self, sigma0):
        """Index of the first row whose ``sigma_hi`` is at least sigma0."""
        index = np.searchsorted([row.sigma_hi for row in self.rows], sigma0, side="left")
        if np.any(index == len(self.rows)):
            raise ValueError(f"sigma0={sigma0} not covered by table")
        return index


def _lm_factors(c: ValidatedComposite) -> tuple[float, float, float, float]:
    """The four contrast factors (L1, L2, M1, M2)."""
    k1, mu1 = c.phase1.k, c.phase1.mu
    k2, mu2 = c.phase2.k, c.phase2.mu
    c1 = 4.0 * mu1 / 3.0
    c2 = 4.0 * mu2 / 3.0
    kbar = c.theta1 * k1 + c.theta2 * k2
    kk = k1 * k2
    L1 = k1 * (k2 + c2) / (kk + kbar * c2)
    L2 = k2 * (k1 + c1) / (kk + kbar * c1)
    M1 = k1 * (k2 + c1) / (kk + kbar * c1)
    M2 = k2 * (k1 + c2) / (kk + kbar * c2)
    return L1, L2, M1, M2


def thermal_stress_scale(c: ValidatedComposite, deltaT: float) -> float:
    """The thermal-mismatch stress scale D = deltaT * 3 k1 k2 (h2-h1)/(k2-k1).

    Vanishes when the expansion coefficients match or deltaT is zero; its
    sign depends on the signs of deltaT, h2-h1, and k2-k1.
    """
    k1, k2 = c.phase1.k, c.phase2.k
    return deltaT * 3.0 * k1 * k2 * (c.phase2.h - c.phase1.h) / (k2 - k1)


def characteristic_constants(c: ValidatedComposite, deltaT: float) -> BoundConstants:
    """Compute (L1, L2, M1, M2, D, F) for a composite and temperature change."""
    L1, L2, M1, M2 = _lm_factors(c)
    D = thermal_stress_scale(c, deltaT)
    F = D * (1.0 - 2.0 / (L1 + M2))
    return BoundConstants(L1=L1, L2=L2, M1=M1, M2=M2, D=D, F=F)


def hs_bulk_moduli(c: ValidatedComposite) -> tuple[float, float]:
    """The two extremal effective bulk moduli (K_minus, K_plus).

    Every microstructure's effective compliance contraction lies between
    1/K_plus and 1/K_minus; the two coated-sphere assemblages realize the
    ends (core phase 2 gives K_plus, core phase 1 gives K_minus).  Hashin's
    modulus of a core fraction f of modulus kc in a coating (kt, mut),
    K = kt + f / (1/(kc - kt) + 3 (1 - f)/(3 kt + 4 mut)), is written here
    over a common denominator,

        K = (3 k1 k2 + 4 mut kbar) / (3 (k1 th2 + k2 th1) + 4 mut),

    with kbar = th1 k1 + th2 k2 and mut the coating's shear modulus (mu2
    for K_minus, mu1 for K_plus).  Every term is positive, so nothing
    cancels at high modulus contrast, and nothing divides by k1 - k2.
    """
    k1, mu1 = c.phase1.k, c.phase1.mu
    k2, mu2 = c.phase2.k, c.phase2.mu
    th1, th2 = c.theta1, c.theta2
    kbar = th1 * k1 + th2 * k2
    kdual = 3.0 * (k1 * th2 + k2 * th1)
    K_minus = (3.0 * k1 * k2 + 4.0 * mu2 * kbar) / (kdual + 4.0 * mu2)
    K_plus = (3.0 * k1 * k2 + 4.0 * mu1 * kbar) / (kdual + 4.0 * mu1)
    return K_minus, K_plus


def compliance_to_X(compliance: float, c: ValidatedComposite) -> float:
    """Map the effective compliance contraction to phase 2's parameter X.

    ``compliance`` is the scalar (C_eff)^{-1} I : I, i.e. 1/K_eff for
    isotropic effective behavior.  Affine and monotone in the compliance.
    """
    k1, k2 = c.phase1.k, c.phase2.k
    return (1.0 / c.theta2) * (1.0 / k1 - compliance) / (1.0 / k1 - 1.0 / k2)


def compliance_to_Y(compliance: float, c: ValidatedComposite) -> float:
    """Map the effective compliance contraction to phase 1's parameter Y."""
    k1, k2 = c.phase1.k, c.phase2.k
    return (1.0 / c.theta1) * (1.0 / k2 - compliance) / (1.0 / k2 - 1.0 / k1)


def compliance_interval(c: ValidatedComposite, phase: int) -> ComplianceInterval:
    """The admissible interval of X (phase 2) or Y (phase 1).

    Well-ordered: X in [L2, M2], Y in [L1, M1].  Non-well-ordered: X in
    [M2, L2], Y in [M1, L1].  The endpoints correspond to the two extremal
    effective bulk moduli via :func:`compliance_to_X`/``_Y``.
    """
    L1, L2, M1, M2 = _lm_factors(c)
    well = c.ordering is Ordering.WELL_ORDERED
    if phase == 2:
        pairs = ((L2, "L2"), (M2, "M2")) if well else ((M2, "M2"), (L2, "L2"))
    elif phase == 1:
        pairs = ((L1, "L1"), (M1, "M1")) if well else ((M1, "M1"), (L1, "L1"))
    else:
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    (lo, lo_sym), (hi, hi_sym) = pairs
    return ComplianceInterval(lo=lo, hi=hi, phase=phase, lo_symbol=lo_sym, hi_symbol=hi_sym)


def affine_abs_min(
    interval: ComplianceInterval, sigma0: float, D: float
) -> tuple[float, float, Endpoint]:
    """Minimize sqrt(3)*|(sigma0 - D) t + D| over t in [interval.lo, interval.hi].

    Exact closed form, never a scan.  Returns (value, argmin, endpoint tag).
    If the zero crossing t* = D/(D - sigma0) lies in the closed interval the
    minimum is 0 with INTERIOR tag and argmin t*.  When sigma0 == D the
    objective is the constant sqrt(3)|D|; the lower endpoint is reported as
    the (arbitrary) minimizer, except that for D == 0 the value is 0 and the
    tag is INTERIOR to preserve "value 0 iff INTERIOR".
    """
    lo, hi = interval.lo, interval.hi
    if sigma0 == D:
        if D == 0.0:
            return 0.0, lo, Endpoint.INTERIOR
        return SQRT3 * abs(D), lo, Endpoint.LOWER
    t_star = D / (D - sigma0)
    if lo <= t_star <= hi:
        return 0.0, t_star, Endpoint.INTERIOR
    if t_star < lo:
        t, tag = lo, Endpoint.LOWER
    else:
        t, tag = hi, Endpoint.UPPER
    return SQRT3 * abs((sigma0 - D) * t + D), t, tag


def _endpoint_symbol(interval: ComplianceInterval, tag: Endpoint) -> str:
    return interval.lo_symbol if tag is Endpoint.LOWER else interval.hi_symbol


def _microstructure_for(symbol: str) -> Microstructure:
    """Attaining assemblage for an endpoint minimizer.

    An L-family minimizer is attained by the fields inside the core of a
    coated sphere whose core is that phase; an M-family minimizer by the
    fields inside the coating of the opposite-core assemblage.  Either way
    the core phase equals the phase index for L and the other phase for M.
    """
    phase = int(symbol[1])
    other = 3 - phase
    core = phase if symbol[0] == "L" else other
    return Microstructure(
        kind=MicrostructureKind.COATED_SPHERES, core_phase=core, coating_phase=3 - core
    )


def phase_moment_lower_bound(
    c: ValidatedComposite, loading: Loading, phase: int, p: float | None = None
) -> BoundResult:
    """Optimal lower bound on the L^p moment of |hydrostatic stress| in a phase.

    The value is independent of p (the attaining field is constant per
    phase); p is validated if supplied.  The microstructure descriptor names
    the coated-sphere assemblage attaining the bound, or UNDETERMINED when
    the bound is 0.
    """
    if p is not None:
        check_exponent(p)
    D = thermal_stress_scale(c, loading.deltaT)
    interval = compliance_interval(c, phase)
    value, argmin, tag = affine_abs_min(interval, loading.sigma0, D)
    if tag is Endpoint.INTERIOR:
        micro = UNDETERMINED
    else:
        micro = _microstructure_for(_endpoint_symbol(interval, tag))
    return BoundResult(
        value=value, argmin_compliance=argmin, at_endpoint=tag, microstructure=micro
    )


def max_field_lower_bound(
    c: ValidatedComposite, loading: Loading, p: float | None = None
) -> BoundResult:
    """Lower bound on the maximum local |hydrostatic stress| over the body.

    Takes the larger of the two per-phase bounds.  The winning phase is
    recorded as ``max_attaining_phase``; on ties the phase whose minimizing
    endpoint has the larger magnitude wins (a documented convention, which
    reproduces the asterisk assignments of the closed-form tables at shared
    breakpoints).
    """
    if p is not None:
        check_exponent(p)
    r1 = phase_moment_lower_bound(c, loading, 1)
    r2 = phase_moment_lower_bound(c, loading, 2)
    if r1.value > r2.value:
        winner, phase = r1, 1
    elif r2.value > r1.value:
        winner, phase = r2, 2
    elif abs(r1.argmin_compliance) >= abs(r2.argmin_compliance):
        winner, phase = r1, 1
    else:
        winner, phase = r2, 2
    if winner.at_endpoint is Endpoint.INTERIOR or winner.value == 0.0:
        return BoundResult(
            value=winner.value,
            argmin_compliance=winner.argmin_compliance,
            at_endpoint=Endpoint.INTERIOR,
            microstructure=UNDETERMINED,
        )
    micro = Microstructure(
        kind=winner.microstructure.kind,
        core_phase=winner.microstructure.core_phase,
        coating_phase=winner.microstructure.coating_phase,
        max_attaining_phase=phase,
    )
    return BoundResult(
        value=winner.value,
        argmin_compliance=winner.argmin_compliance,
        at_endpoint=winner.at_endpoint,
        microstructure=micro,
    )


def classify_branch(
    c: ValidatedComposite, deltaT: float, target: str, sigma0: float
) -> tuple[BoundResult, str]:
    """Evaluate a bound and name the closed-form branch it sits on.

    ``target`` is one of ``"phase1"``, ``"phase2"``, ``"max"``.  The branch
    id combines the minimizing endpoint family (L or M, for the winning
    phase when target is "max") with the side of that branch's vanishing
    stress sigma0 falls on; a zero bound is the "Zero" branch.
    """
    loading = Loading(sigma0=sigma0, deltaT=deltaT)
    D = thermal_stress_scale(c, deltaT)
    if target == "max":
        result = max_field_lower_bound(c, loading)
        if result.at_endpoint is Endpoint.INTERIOR:
            return result, "Zero"
        interval = compliance_interval(c, result.microstructure.max_attaining_phase)
    elif target in ("phase1", "phase2"):
        result = phase_moment_lower_bound(c, loading, int(target[-1]))
        if result.at_endpoint is Endpoint.INTERIOR:
            return result, "Zero"
        interval = compliance_interval(c, int(target[-1]))
    else:
        raise ValueError(f"target must be phase1|phase2|max, got {target!r}")
    symbol = _endpoint_symbol(interval, result.at_endpoint)
    vanish = D * (1.0 - 1.0 / result.argmin_compliance)
    side = "left" if sigma0 < vanish else "right"
    return result, f"{symbol[0]}-branch-{side}"


#: Endpoint tags by their codes in :attr:`BoundArrays.endpoint`.
ENDPOINT_CODES = (Endpoint.LOWER, Endpoint.UPPER, Endpoint.INTERIOR)
_LOWER, _UPPER, _INTERIOR = range(3)
_BRANCH_CODE = {name: i for i, name in enumerate(BRANCH_IDS)}


@dataclass(frozen=True)
class BoundArrays:
    """A bound over arrays of loadings, as computed by :func:`bound_arrays`.

    Every field has the broadcast shape of the loadings, and element ``i``
    holds what the scalar functions give at loading ``i``:

    * ``value``, ``argmin``: ``BoundResult.value``/``argmin_compliance``;
    * ``endpoint``: index into :data:`ENDPOINT_CODES` (``at_endpoint``);
    * ``phase``: the phase bounded, for the max-field target the winning
      phase (``max_attaining_phase`` where the endpoint is not INTERIOR);
    * ``core``: core phase of the attaining coated-sphere assemblage, 0
      where the microstructure is undetermined;
    * ``branch``: index into :data:`BRANCH_IDS`, as :func:`classify_branch`.
    """

    value: np.ndarray
    argmin: np.ndarray
    endpoint: np.ndarray
    phase: np.ndarray
    core: np.ndarray
    branch: np.ndarray


def _phase_arrays(c: ValidatedComposite, phase: int, sigma0: np.ndarray, D: np.ndarray):
    """(value, argmin, endpoint, core) of one phase's bound, elementwise.

    The operations and their order are those of :func:`affine_abs_min` and
    :func:`phase_moment_lower_bound`.  Where ``sigma0 == D``,
    ``t* = D/(D - sigma0)`` is inf or nan, so it lies in no interval, and the
    lower endpoint is taken as the scalar path does.
    """
    interval = compliance_interval(c, phase)
    lo, hi = interval.lo, interval.hi
    t_star = D / (D - sigma0)
    flat = sigma0 == D
    inside = (lo <= t_star) & (t_star <= hi)
    lower = (t_star < lo) | flat
    t = np.where(lower, lo, hi)
    interior = inside | (flat & (D == 0.0))
    value = np.where(interior, 0.0, SQRT3 * np.abs((sigma0 - D) * t + D))
    argmin = np.where(inside, t_star, t)
    endpoint = np.where(interior, _INTERIOR, np.where(lower, _LOWER, _UPPER))
    core = np.where(
        interior,
        0,
        np.where(
            lower,
            _microstructure_for(interval.lo_symbol).core_phase,
            _microstructure_for(interval.hi_symbol).core_phase,
        ),
    )
    return value, argmin, endpoint, core


def bound_arrays(c: ValidatedComposite, target: str, sigma0, deltaT) -> BoundArrays:
    """Evaluate a bound and its branch over broadcast arrays of loadings.

    ``target`` is ``"phase1"``, ``"phase2"`` or ``"max"``.  Element by
    element the result equals, bit for bit, :func:`phase_moment_lower_bound`
    or :func:`max_field_lower_bound` together with :func:`classify_branch`
    at ``Loading(sigma0, deltaT)``, including the max-field tie rule, but
    each per-phase minimization runs once over the whole array.
    """
    sigma0, deltaT = np.broadcast_arrays(
        np.asarray(sigma0, dtype=float), np.asarray(deltaT, dtype=float)
    )
    D = thermal_stress_scale(c, deltaT)
    with np.errstate(divide="ignore", invalid="ignore"):
        if target == "max":
            v1, a1, e1, c1 = _phase_arrays(c, 1, sigma0, D)
            v2, a2, e2, c2 = _phase_arrays(c, 2, sigma0, D)
            first = (v1 > v2) | ((v1 >= v2) & (np.abs(a1) >= np.abs(a2)))
            value = np.where(first, v1, v2)
            argmin = np.where(first, a1, a2)
            phase = np.where(first, 1, 2)
            endpoint = np.where(first, e1, e2)
            zero = (endpoint == _INTERIOR) | (value == 0.0)
            endpoint = np.where(zero, _INTERIOR, endpoint)
            core = np.where(zero, 0, np.where(first, c1, c2))
        elif target in ("phase1", "phase2"):
            index = int(target[-1])
            value, argmin, endpoint, core = _phase_arrays(c, index, sigma0, D)
            phase = np.full(sigma0.shape, index)
        else:
            raise ValueError(f"target must be phase1|phase2|max, got {target!r}")
        # an L-family endpoint has the bounded phase as its core
        family_l = core == phase
        left = sigma0 < D * (1.0 - 1.0 / argmin)
    branch = np.where(
        left,
        np.where(family_l, _BRANCH_CODE["L-branch-left"], _BRANCH_CODE["M-branch-left"]),
        np.where(family_l, _BRANCH_CODE["L-branch-right"], _BRANCH_CODE["M-branch-right"]),
    )
    branch = np.where(endpoint == _INTERIOR, _BRANCH_CODE["Zero"], branch)
    return BoundArrays(
        value=value, argmin=argmin, endpoint=endpoint, phase=phase, core=core, branch=branch
    )


def _representatives(breakpoints: list[float]) -> list[float]:
    """One generic sigma0 per open region between consecutive breakpoints."""
    reps = [breakpoints[0] - (1.0 + 0.5 * abs(breakpoints[0]))]
    for a, b in zip(breakpoints, breakpoints[1:]):
        reps.append(0.5 * (a + b))
    reps.append(breakpoints[-1] + (1.0 + 0.5 * abs(breakpoints[-1])))
    return reps


def regime_table(c: ValidatedComposite, deltaT: float, target: str) -> RegimeTable:
    """Build the sigma0-regime table for a per-phase or max-field bound.

    Breakpoints come from the minimization itself: the vanishing stresses
    ``D (1 - 1/t)`` of the two interval endpoints plus ``D`` for per-phase
    targets, and ``{D, F}`` for the max-field target.  With ``D == 0`` the
    table collapses to two rays meeting at 0.  Each region's branch and
    microstructure are classified by evaluating the bound at a point inside,
    so the table agrees with the direct minimization for every sign
    combination of ordering, ``h2 - h1``, and ``deltaT``.
    """
    consts = characteristic_constants(c, deltaT)
    D = consts.D
    if target == "max":
        bps = [0.0] if D == 0.0 else sorted((D, consts.F))
    elif target in ("phase1", "phase2"):
        interval = compliance_interval(c, int(target[-1]))
        if D == 0.0:
            bps = [0.0]
        else:
            bps = sorted(
                (D, D * (1.0 - 1.0 / interval.lo), D * (1.0 - 1.0 / interval.hi))
            )
    else:
        raise ValueError(f"target must be phase1|phase2|max, got {target!r}")

    edges = [-math.inf, *bps, math.inf]
    rows = []
    for rep, lo, hi in zip(_representatives(bps), edges[:-1], edges[1:]):
        result, branch = classify_branch(c, deltaT, target, rep)
        endpoint = None if branch == "Zero" else result.argmin_compliance
        rows.append(
            RegimeRow(
                sigma_lo=lo,
                sigma_hi=hi,
                branch=branch,
                endpoint_value=endpoint,
                microstructure=result.microstructure,
            )
        )
    return RegimeTable(target=target, D=D, breakpoints=tuple(bps), rows=tuple(rows))
