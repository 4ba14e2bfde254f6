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

Because the assemblages attain the bounds, each endpoint's objective
``(sigma0 - D) t + D`` is the constant mean stress ``t sigma0 + e deltaT``
of one coated-sphere region.  Everything here reads these four ``(t, e)``
pairs from the composite's endpoint table (``ValidatedComposite.endpoints``),
whose closed form does not cancel near the bulk-modulus gate as
``D (1 - t)`` does:

* a phase's bound is 0 when its two endpoint stresses differ in sign or
  either is 0, and otherwise sqrt(3) times the smaller magnitude, attained
  by the sphere whose region that endpoint is;
* a regime-table breakpoint is where an endpoint stress vanishes,
  ``sigma0 = -e deltaT / t``, and a branch's side is that stress's sign.

``D`` stays where the output prints it (the pivot breakpoint, ``F``, the
``table`` formulas) and gives the argmin of a zero bound.

Because the attaining local field is constant per phase, the bound value is
the same for every moment exponent p in (1, inf]; p enters the API only for
interface symmetry with the moment evaluators and is validated when given.

:func:`bound_grid` evaluates a bound, its attaining microstructure and its
regime-table branch row by row over a grid of loadings; the CLI's
``bounds`` and ``sweep`` rows and ``verify``'s regime-table samples all run
its one scalar kernel, and this module builds no arrays.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

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


class _MicrostructureFields(NamedTuple):
    kind: MicrostructureKind
    core_phase: int | None
    coating_phase: int | None
    max_attaining_phase: int | None


class Microstructure(_MicrostructureFields):
    """Descriptor of the microstructure attaining a bound.

    ``max_attaining_phase`` is filled only for max-field bounds: the phase
    whose per-phase bound realizes the maximum (the asterisk phase).  A
    coated-sphere descriptor's core and coating phases must differ.
    """

    __slots__ = ()

    def __new__(cls, kind, core_phase=None, coating_phase=None, max_attaining_phase=None):
        if kind is MicrostructureKind.COATED_SPHERES and core_phase == coating_phase:
            raise ValueError("core and coating phases must differ")
        return tuple.__new__(cls, (kind, core_phase, coating_phase, max_attaining_phase))


UNDETERMINED = Microstructure(kind=MicrostructureKind.UNDETERMINED)


class BoundConstants(NamedTuple):
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


class ComplianceInterval(NamedTuple):
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


class BoundResult(NamedTuple):
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


class RegimeRow(NamedTuple):
    """One sigma0 interval of a regime table.

    ``endpoint_value`` is the factor t of the endpoint whose branch applies
    and ``endpoint_offset`` its thermal stress ``e * deltaT`` at the table's
    deltaT (both None for the Zero branch).  ``sigma_lo``/``sigma_hi`` may be
    ``-inf``/``inf``; consecutive rows share their breakpoint.
    """

    sigma_lo: float
    sigma_hi: float
    branch: str
    endpoint_value: float | None
    microstructure: Microstructure
    endpoint_offset: float | None

    def bound_at(self, sigma0: float) -> float:
        """This row's bound ``sqrt(3) |t sigma0 + e deltaT|`` at sigma0."""
        if self.branch == "Zero":
            return 0.0
        return SQRT3 * abs(self.endpoint_value * sigma0 + self.endpoint_offset)


_SIGMA_HI = attrgetter("sigma_hi")


class RegimeTable(NamedTuple):
    """Piecewise classification of a bound as sigma0 ranges over the reals.

    The table is generated from the bound itself: its breakpoints (see
    :func:`regime_table`) are where the mean stress ``t sigma0 + e deltaT``
    of an endpoint-table line vanishes, plus the pivot ``D`` and, for the
    max-field target, the branch crossover ``F``; each row evaluates that
    line's ``sqrt(3) |t sigma0 + e deltaT|``.  So it agrees pointwise with
    the direct bound evaluation for every sign combination of the inputs.
    """

    target: str
    D: float
    breakpoints: tuple[float, ...]
    rows: tuple[RegimeRow, ...]

    def bound_at(self, sigma0: float) -> float:
        """The bound at sigma0, by the row :meth:`row_for` picks."""
        return self.row_for(sigma0).bound_at(sigma0)

    def row_for(self, sigma0: float) -> RegimeRow:
        """Return the row containing sigma0, the first whose ``sigma_hi`` is at least it.

        At a shared breakpoint both adjacent rows contain sigma0 and
        evaluate to the same value; the earlier row is returned.
        """
        index = bisect_left(self.rows, sigma0, key=_SIGMA_HI)
        if index == len(self.rows) or sigma0 != sigma0:  # bisect puts a NaN first
            raise ValueError(f"sigma0={sigma0} not covered by table")
        return self.rows[index]


def thermal_stress_scale(c: ValidatedComposite, deltaT: float) -> float:
    """The thermal-mismatch stress scale D = deltaT * 3 k1 k2 (h2-h1)/(k2-k1).

    Vanishes when the expansion coefficients match or deltaT is zero; its
    sign depends on the signs of deltaT, h2-h1, and k2-k1.  The bounds use
    it only at ``sigma0 == D`` and for the argmin of a zero bound.  With
    moduli near the top of the float range D overflows to an infinity, and
    with matching expansion coefficients it is zero even then.
    """
    k1, k2 = c.phase1.k, c.phase2.k
    dh = c.phase2.h - c.phase1.h
    if dh == 0.0:  # the moduli's product could overflow, giving inf * 0 = nan
        return deltaT * dh / (k2 - k1)
    return deltaT * 3.0 * k1 * k2 * dh / (k2 - k1)


def characteristic_constants(c: ValidatedComposite, deltaT: float) -> BoundConstants:
    """Compute (L1, L2, M1, M2, D, F) for a composite and temperature change."""
    L1, L2, M1, M2 = (line.t for line in c.endpoints)
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
    cancels at high modulus contrast, and nothing divides by k1 - k2.  The
    moduli are scaled (``ValidatedComposite.scaled_moduli``), so no product
    overflows.
    """
    s, k1, mu1, k2, mu2 = c.scaled_moduli
    th1, th2 = c.theta1, c.theta2
    kbar = th1 * k1 + th2 * k2
    kdual = 3.0 * (k1 * th2 + k2 * th1)
    K_minus = (3.0 * k1 * k2 + 4.0 * mu2 * kbar) / (kdual + 4.0 * mu2)
    K_plus = (3.0 * k1 * k2 + 4.0 * mu1 * kbar) / (kdual + 4.0 * mu1)
    return K_minus * s, K_plus * s


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


#: The endpoint symbols (lower, upper) of a phase's compliance interval.
_INTERVAL_SYMBOLS = {
    (Ordering.WELL_ORDERED, 1): ("L1", "M1"), (Ordering.NON_WELL_ORDERED, 1): ("M1", "L1"),
    (Ordering.WELL_ORDERED, 2): ("L2", "M2"), (Ordering.NON_WELL_ORDERED, 2): ("M2", "L2"),
}


def compliance_interval(c: ValidatedComposite, phase: int) -> ComplianceInterval:
    """The admissible interval of X (phase 2) or Y (phase 1).

    Well-ordered: X in [L2, M2], Y in [L1, M1].  Non-well-ordered: X in
    [M2, L2], Y in [M1, L1].  The endpoints correspond to the two extremal
    effective bulk moduli via :func:`compliance_to_X`/``_Y``.
    """
    if phase not in (1, 2):
        raise ValueError(f"phase must be 1 or 2, got {phase}")
    lo, hi = _INTERVAL_SYMBOLS[c.ordering, phase]
    return ComplianceInterval(
        lo=getattr(c.endpoints, lo).t,
        hi=getattr(c.endpoints, hi).t,
        phase=phase,
        lo_symbol=lo,
        hi_symbol=hi,
    )


#: Endpoint tags by their codes, which the kernel and BoundArrays.endpoint hold.
ENDPOINT_CODES = (Endpoint.LOWER, Endpoint.UPPER, Endpoint.INTERIOR)
_LOWER, _UPPER, _INTERIOR = range(3)


def _endpoint_min(lo, hi, v_lo, v_hi, sigma0, D):
    """(value, argmin, code) of min sqrt(3)|v| over [lo, hi], v affine in t, v_lo/v_hi at the ends.

    0 and INTERIOR when the end values differ in sign or either is 0, with
    the zero crossing ``D/(D - sigma0)``, held in the interval, as argmin;
    else the smaller end (LOWER on a tie).  At ``sigma0 == D`` the objective
    is the constant sqrt(3)|D|: LOWER, or INTERIOR when D is 0.  ``code``
    indexes :data:`ENDPOINT_CODES`.
    """
    if sigma0 == D:
        return SQRT3 * abs(D), lo, _INTERIOR if D == 0.0 else _LOWER
    if (v_lo > 0.0 and v_hi > 0.0) or (v_lo < 0.0 and v_hi < 0.0):
        if abs(v_lo) <= abs(v_hi):
            return SQRT3 * abs(v_lo), lo, _LOWER
        return SQRT3 * abs(v_hi), hi, _UPPER
    return 0.0, min(max(D / (D - sigma0), lo), hi), _INTERIOR


def affine_abs_min(
    interval: ComplianceInterval, sigma0: float, D: float
) -> tuple[float, float, Endpoint]:
    """Minimize sqrt(3)*|(sigma0 - D) t + D| over t in [interval.lo, interval.hi].

    The paper's form on a bare interval, by the bounds' sign test.  Returns
    (value, argmin, endpoint tag).  The bounds evaluate the objective as
    ``t sigma0 + e deltaT`` from the endpoint table instead, which does not
    cancel near the bulk-modulus gate.
    """
    lo, hi = interval.lo, interval.hi
    value, argmin, code = _endpoint_min(
        lo, hi, (sigma0 - D) * lo + D, (sigma0 - D) * hi + D, sigma0, D
    )
    return value, argmin, ENDPOINT_CODES[code]


#: Attaining assemblage by endpoint and max-field winner (None for a phase
#: bound): Li is the core of the sphere with a phase-i core, Mi the coating
#: (phase i) of the opposite-core sphere.
_CORES = {"L1": 1, "M2": 1, "L2": 2, "M1": 2}
_ATTAINING = {
    (symbol, winner): Microstructure(MicrostructureKind.COATED_SPHERES, core, 3 - core, winner)
    for symbol, core in _CORES.items()
    for winner in (None, 1, 2)
}
#: By attaining endpoint (None for a zero bound): its sphere's core phase (0
#: for none), and its branch's index in BRANCH_IDS right and left of where v = 0.
_ROW_CODES = {None: (0, 2, 2)} | {
    symbol: (core, *(BRANCH_IDS.index(f"{symbol[0]}-branch-{side}") for side in ("right", "left")))
    for symbol, core in _CORES.items()
}
_TARGET_PHASES = {"phase1": (1,), "phase2": (2,), "max": (1, 2)}


def _bounded_phases(c: ValidatedComposite, target: str, deltaT) -> list:
    """Per bounded phase: (phase, t, e deltaT, symbol of the lower end, then of the upper end)."""
    if target not in _TARGET_PHASES:
        raise ValueError(f"target must be phase1|phase2|max, got {target!r}")
    bounded = []
    for phase in _TARGET_PHASES[target]:
        s_lo, s_hi = _INTERVAL_SYMBOLS[c.ordering, phase]
        lo, hi = getattr(c.endpoints, s_lo), getattr(c.endpoints, s_hi)
        bounded.append((phase, lo.t, lo.e * deltaT, s_lo, hi.t, hi.e * deltaT, s_hi))
    return bounded


def _bound_at(bounded: list, sigma0: float, D: float):
    """(value, argmin, code, symbol, v, phase) of the bound over :func:`_bounded_phases` at sigma0.

    ``symbol`` names the attaining endpoint (None when INTERIOR), ``v`` its
    mean stress ``t sigma0 + e deltaT``.  Of two phases the larger bound
    wins; on a tie, the one whose argmin has the larger magnitude, else phase 1.
    """
    best = None
    for phase, t_lo, e_lo, s_lo, t_hi, e_hi, s_hi in bounded:
        v_lo = t_lo * sigma0 + e_lo
        v_hi = t_hi * sigma0 + e_hi
        value, argmin, code = _endpoint_min(t_lo, t_hi, v_lo, v_hi, sigma0, D)
        if best is None or not (
            best[0] > value or (best[0] >= value and abs(best[1]) >= abs(argmin))
        ):
            best = value, argmin, code, (s_lo, s_hi, None)[code], (v_lo, v_hi, 0.0)[code], phase
    return best


def _bound(c: ValidatedComposite, target: str, sigma0: float, deltaT: float):
    """(BoundResult, attaining symbol or None, its mean stress) for a target."""
    D = thermal_stress_scale(c, deltaT)
    value, argmin, code, symbol, v, phase = _bound_at(_bounded_phases(c, target, deltaT), sigma0, D)
    winner = phase if target == "max" else None
    micro = UNDETERMINED if symbol is None else _ATTAINING[symbol, winner]
    return BoundResult(value, argmin, ENDPOINT_CODES[code], micro), symbol, v


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
    return _bound(c, f"phase{phase}", loading.sigma0, loading.deltaT)[0]


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
    return _bound(c, "max", loading.sigma0, loading.deltaT)[0]


def classify_branch(
    c: ValidatedComposite, deltaT: float, target: str, sigma0: float
) -> tuple[BoundResult, str]:
    """Evaluate a bound and name the closed-form branch it sits on.

    ``target`` is one of ``"phase1"``, ``"phase2"``, ``"max"``.  The branch
    id combines the minimizing endpoint family (L or M, for the winning
    phase when target is "max") with the side of that branch's vanishing
    stress sigma0 falls on: the sign of the endpoint's mean stress, as every
    t is positive.  A zero bound is the "Zero" branch.
    """
    result, symbol, v = _bound(c, target, sigma0, deltaT)
    return result, _branch_name(symbol, v)


def _branch_name(symbol: str | None, v: float) -> str:
    _, right, left = _ROW_CODES[symbol]
    return BRANCH_IDS[left if v < 0.0 else right]


class BoundArrays(NamedTuple):
    """A bound over a grid of loadings, as computed by :func:`bound_grid`.

    Every field is a list over the grid's rows, and element ``i`` holds
    what the scalar functions give at loading ``i``:

    * ``value``, ``argmin``: ``BoundResult.value``/``argmin_compliance``;
    * ``endpoint``: index into :data:`ENDPOINT_CODES` (``at_endpoint``);
    * ``phase``: the phase bounded, for the max-field target the winning
      phase (``max_attaining_phase`` where the endpoint is not INTERIOR);
    * ``core``: core phase of the attaining coated-sphere assemblage, 0
      where the microstructure is undetermined;
    * ``branch``: index into :data:`BRANCH_IDS`, as :func:`classify_branch`.
    """

    value: list
    argmin: list
    endpoint: list
    phase: list
    core: list
    branch: list


def bound_grid(c: ValidatedComposite, target: str, sigma0_values, deltaT_values) -> BoundArrays:
    """A bound and its branch over the sigma0 x deltaT grid, sigma0-major.

    Each row runs :func:`classify_branch`'s kernel, with D and every ``e
    deltaT`` hoisted per deltaT value, so it holds the scalar functions' bits.
    """
    columns = [(thermal_stress_scale(c, d), _bounded_phases(c, target, d)) for d in deltaT_values]
    rows = []
    for sigma0 in sigma0_values:
        for D, bounded in columns:
            value, argmin, code, symbol, v, phase = _bound_at(bounded, sigma0, D)
            core, right, left = _ROW_CODES[symbol]
            rows.append((value, argmin, code, phase, core, left if v < 0.0 else right))
    return BoundArrays(*map(list, zip(*rows)))


def _representatives(breakpoints: list[float]) -> list[float]:
    """One generic sigma0 per open region between consecutive breakpoints."""
    reps = [breakpoints[0] - (1.0 + 0.5 * abs(breakpoints[0]))]
    for a, b in zip(breakpoints, breakpoints[1:]):
        reps.append(0.5 * (a + b))
    reps.append(breakpoints[-1] + (1.0 + 0.5 * abs(breakpoints[-1])))
    return reps


def regime_table(c: ValidatedComposite, deltaT: float, target: str) -> RegimeTable:
    """Build the sigma0-regime table for a per-phase or max-field bound.

    Breakpoints come from the endpoint table: the vanishing stresses
    ``-e deltaT / t`` of the two interval endpoints plus the pivot ``D`` for
    per-phase targets, and ``{D, F}`` for the max-field target; a line whose
    ``t`` underflowed to 0 gives a nan breakpoint.  With ``D == 0`` the table
    collapses to two rays meeting at 0.  Each region's
    branch and microstructure are classified by evaluating the bound at a
    point inside, so the table agrees with the direct bound for every sign
    combination of ordering, ``h2 - h1``, and ``deltaT``.
    """
    consts = characteristic_constants(c, deltaT)
    D = consts.D
    _, t_lo, e_lo, _, t_hi, e_hi, _ = _bounded_phases(c, target, deltaT)[0]
    if D == 0.0:
        bps = [0.0]
    elif target == "max":
        bps = sorted((D, consts.F))
    else:
        bps = sorted((D, *(-e / t if t else math.nan for t, e in ((t_lo, e_lo), (t_hi, e_hi)))))

    edges = [-math.inf, *bps, math.inf]
    rows = []
    for rep, lo, hi in zip(_representatives(bps), edges[:-1], edges[1:]):
        result, symbol, v = _bound(c, target, rep, deltaT)
        line = getattr(c.endpoints, symbol) if symbol else None
        t, offset = (line.t, line.e * deltaT) if line else (None, None)
        rows.append(
            RegimeRow(
                sigma_lo=lo,
                sigma_hi=hi,
                branch=_branch_name(symbol, v),
                endpoint_value=t,
                microstructure=result.microstructure,
                endpoint_offset=offset,
            )
        )
    return RegimeTable(target=target, D=D, breakpoints=tuple(bps), rows=tuple(rows))
