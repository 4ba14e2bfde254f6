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

One kernel, :func:`_phase_rows`, evaluates a phase's bound, attaining sphere
and regime-table branch over a column of sigma0 values; :func:`_max_rows`
merges two phases' rows.  The scalar functions run it on one row, and
:func:`bound_grid` and ``verify``'s regime-table samples (for all three of its
tables) on a column per phase.  This module builds no arrays;
:meth:`RegimeRow.bound_at` also evaluates an array that a caller passes in.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from operator import attrgetter
from typing import NamedTuple

from .materials import EndpointTable, Loading, Ordering, ValidatedComposite, check_exponent

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

    def bound_at(self, sigma0: float | np.ndarray) -> float | np.ndarray:
        """This row's bound ``sqrt(3) |t sigma0 + e deltaT|`` at a float or float array sigma0."""
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
_ZERO = BRANCH_IDS.index("Zero")

#: By endpoint: its sphere's core phase, by EndpointTable.regions on a table of the line
#: names, and its branch in BRANCH_IDS right and left of where v = 0.
_END_CODES = {
    symbol: (core, *(BRANCH_IDS.index(f"{symbol[0]}-branch-{side}") for side in ("right", "left")))
    for core in (1, 2) for symbol in EndpointTable(*EndpointTable._fields).regions(core)
}
#: Attaining assemblage by core phase (0 for none) and max-field winner (None for a phase).
_ATTAINING = {
    (core, winner): Microstructure(MicrostructureKind.COATED_SPHERES, core, 3 - core, winner)
    if core else UNDETERMINED
    for core in (0, 1, 2) for winner in (None, 1, 2)
}
#: Per bounded phase: (phase, then each end's index in the endpoint table and its codes).
_PHASE_ENDS = {
    (ordering, target): [
        (phase, *(x for s in _INTERVAL_SYMBOLS[ordering, phase]
                  for x in (EndpointTable._fields.index(s), _END_CODES[s])))
        for phase in phases
    ]
    for ordering in Ordering
    for target, phases in {"phase1": (1,), "phase2": (2,), "max": (1, 2)}.items()
}


def _bounded_phases(c: ValidatedComposite, target: str, deltaT) -> list:
    """Per bounded phase: (phase, then each end's t, e deltaT and codes, lower end first)."""
    ends = _PHASE_ENDS.get((c.ordering, target))
    if ends is None:
        raise ValueError(f"target must be phase1|phase2|max, got {target!r}")
    lines, bounded = c.endpoints, []
    for phase, lo, lo_codes, hi, hi_codes in ends:
        lo, hi = lines[lo], lines[hi]
        bounded.append((phase, lo.t, lo.e * deltaT, lo_codes, hi.t, hi.e * deltaT, hi_codes))
    return bounded


def _phase_rows(entry, sigma0_values, D: float) -> list:
    """The rows (value, argmin, code, phase, core, branch) of one bounded phase at each sigma0.

    The bound is min sqrt(3)|v| over the phase's interval, v = t sigma0 + e deltaT: 0 and
    INTERIOR where v's ends differ in sign or either is 0, with the zero crossing
    ``D/(D - sigma0)``, held in the interval, as argmin; else the smaller end (LOWER on a
    tie).  At ``sigma0 == D`` v is the constant D: LOWER, or INTERIOR when D is 0.  The
    codes index ENDPOINT_CODES and BRANCH_IDS; ``core`` is 0 where no sphere attains.
    """
    phase, t_lo, e_lo, lo_codes, t_hi, e_hi, hi_codes = entry
    (core_lo, right_lo, left_lo), (core_hi, right_hi, left_hi) = lo_codes, hi_codes
    rows = []
    for sigma0 in sigma0_values:
        v_lo = t_lo * sigma0 + e_lo
        v_hi = t_hi * sigma0 + e_hi
        if sigma0 == D:
            if D == 0.0:
                rows.append((0.0, t_lo, _INTERIOR, phase, 0, _ZERO))
            else:
                branch = left_lo if v_lo < 0.0 else right_lo
                rows.append((SQRT3 * abs(D), t_lo, _LOWER, phase, core_lo, branch))
        elif (v_lo > 0.0 and v_hi > 0.0) or (v_lo < 0.0 and v_hi < 0.0):
            if abs(v_lo) <= abs(v_hi):
                branch = left_lo if v_lo < 0.0 else right_lo
                rows.append((SQRT3 * abs(v_lo), t_lo, _LOWER, phase, core_lo, branch))
            else:
                branch = left_hi if v_hi < 0.0 else right_hi
                rows.append((SQRT3 * abs(v_hi), t_hi, _UPPER, phase, core_hi, branch))
        else:
            rows.append((0.0, min(max(D / (D - sigma0), t_lo), t_hi), _INTERIOR, phase, 0, _ZERO))
    return rows


def _max_rows(first: list, second: list) -> list:
    """Max-field rows: per row, the larger bound of two phases' :func:`_phase_rows`.

    On a tie the larger |argmin| wins, else ``first``; a nan gives ``second``'s row.
    """
    rows = []
    for a, b in zip(first, second):
        rows.append(a if a[0] > b[0] or (a[0] >= b[0] and abs(a[1]) >= abs(b[1])) else b)
    return rows


def _rows(bounded: list, sigma0_values, D: float) -> list:
    """A target's rows over :func:`_bounded_phases`: its one phase's, or the max of two."""
    rows = _phase_rows(bounded[0], sigma0_values, D)
    return _max_rows(rows, _phase_rows(bounded[1], sigma0_values, D)) if len(bounded) == 2 else rows


def affine_abs_min(
    interval: ComplianceInterval, sigma0: float, D: float
) -> tuple[float, float, Endpoint]:
    """Minimize sqrt(3)*|(sigma0 - D) t + D| over t in [interval.lo, interval.hi].

    The paper's form on a bare interval: one row of :func:`_phase_rows` with the ends
    ``(lo, D (1 - lo))`` and ``(hi, D (1 - hi))``.  Returns (value, argmin, endpoint tag).
    The bounds read the endpoint table's lines, which do not cancel near the bulk-modulus gate.
    """
    lo, hi, codes = interval.lo, interval.hi, (0, _ZERO, _ZERO)
    entry = (interval.phase, lo, D * (1.0 - lo), codes, hi, D * (1.0 - hi), codes)
    value, argmin, code, *_ = _phase_rows(entry, (sigma0,), D)[0]
    return value, argmin, ENDPOINT_CODES[code]


def _bound(c: ValidatedComposite, target: str, sigma0: float, deltaT: float):
    """(BoundResult, :func:`bound_grid`'s row) of a target at one loading."""
    D, bounded = thermal_stress_scale(c, deltaT), _bounded_phases(c, target, deltaT)
    value, argmin, code, phase, core, _ = row = _rows(bounded, (sigma0,), D)[0]
    micro = _ATTAINING[core, phase if target == "max" else None]
    # the fields need no checks, so tuple.__new__ skips the generated __new__
    return tuple.__new__(BoundResult, (value, argmin, ENDPOINT_CODES[code], micro)), row


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
    result, row = _bound(c, target, sigma0, deltaT)
    return result, BRANCH_IDS[row[5]]


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

    Per deltaT value, D and every ``e deltaT`` are hoisted and the kernel runs
    once per phase over the sequence ``sigma0_values``; the scalar functions
    run it on one row, so the rows hold their bits.
    """
    columns = [
        _rows(_bounded_phases(c, target, d), sigma0_values, thermal_stress_scale(c, d))
        for d in deltaT_values
    ]
    rows = [row for at in zip(*columns) for row in at]
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
    bounded = _bounded_phases(c, target, deltaT)
    _, t_lo, e_lo, _, t_hi, e_hi, _ = bounded[0]
    if D == 0.0:
        bps = [0.0]
    elif target == "max":
        bps = sorted((D, consts.F))
    else:
        bps = sorted((D, *(-e / t if t else math.nan for t, e in ((t_lo, e_lo), (t_hi, e_hi)))))

    edges = [-math.inf, *bps, math.inf]
    found, rows = _rows(bounded, _representatives(bps), D), []
    for (_, _, _, phase, core, branch), lo, hi in zip(found, edges[:-1], edges[1:]):
        line = c.endpoints.regions(core)[phase != core] if core else None
        t, offset = (line.t, line.e * deltaT) if line else (None, None)
        rows.append(
            RegimeRow(
                sigma_lo=lo,
                sigma_hi=hi,
                branch=BRANCH_IDS[branch],
                endpoint_value=t,
                microstructure=_ATTAINING[core, phase if target == "max" else None],
                endpoint_offset=offset,
            )
        )
    return RegimeTable(target=target, D=D, breakpoints=tuple(bps), rows=tuple(rows))
