"""Command-line front end.

Four subcommands, each reading a JSON config file:

* ``bounds``  -- print the optimal lower bound for one phase (or the
  max-field bound) at the configured loading.
* ``table``   -- print the sigma0 regime table for a bound target.
* ``verify``  -- run the full verification suite (interface residuals,
  dual-route effective constants, exact relations, attainment, oracle
  comparison, regime-table agreement) for both coated-sphere orientations.
* ``sweep``   -- evaluate bounds over a grid of loadings and write them to
  a file.  The whole grid is evaluated in one numpy pass of
  :func:`~thermobounds.bounds.bound_arrays`, which gives the same bits as
  the scalar functions; ``bounds`` evaluates its one row with the scalar
  :func:`~thermobounds.bounds.classify_branch`.  Only ``sweep`` and
  ``verify`` load numpy.

Config schema::

    {
      "phase1":  {"k": 2.0, "mu": 1.0, "h": 0.0},
      "phase2":  {"k": 1.0, "mu": 0.5, "h": 1.0},
      "theta1":  0.5,
      "loading": {"sigma0": 0.0, "deltaT": 1.0}
    }

For ``sweep``, ``sigma0`` and/or ``deltaT`` may instead be a range object
``{"start": -10, "stop": 10, "count": 81}`` (count >= 2, start < stop).
Every loading value must be finite.

Phases in the output are reported in the caller's original numbering even
when the internal shear-ordering convention required relabeling; the
``relabeled`` field records whether that happened.  CSV writes numbers
with 17 significant digits; JSON lines write each float as its shortest
round-trip ``repr``, as :func:`json.dumps` does.  Both are round-trip exact
for doubles.  Infinite values appear as the strings "-inf"/"inf".  CSV quotes
a text only when it contains a comma, a double quote, CR or LF, doubling each
embedded double quote, as ``csv.writer``'s default QUOTE_MINIMAL does.  Each
report is joined into one string and written with one ``write`` call.  Output
is deterministic: identical configs produce byte-identical output.

:func:`main` is reentrant: it builds the argument parser on its first call
and reuses it, and repeated calls in one process write the same bytes and
return the same exit codes as calls in fresh processes.

Exit codes: 0 success, 1 verification/internal failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from . import __version__
from .bounds import (
    BRANCH_IDS,
    ENDPOINT_CODES,
    SQRT3,
    Endpoint,
    MicrostructureKind,
    bound_arrays,
    characteristic_constants,
    classify_branch,
    phase_moment_lower_bound,
    regime_table,
)
from .coated_sphere import (
    CoatedSphereConfig,
    _solve_shell,
    effective_bulk_modulus_routes,
    effective_thermal_stress_routes,
    interface_residuals,
    mechanical_coefficients,
    superposed_traces,
    thermal_coefficients,
    verify_average_identity,
    verify_exact_relation,
)
from .errors import (
    ConsistencyFailure,
    InputError,
    InvalidExponent,
    NonConvergent,
    SingularSystem,
)
from .materials import (
    Loading,
    PhaseProperties,
    ValidatedComposite,
    build_composite,
    check_exponent,
)
from .radial_oracle import (
    _phase_moments,
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    solve_radial_bvp,
)

TOL_IDENTITY = 1e-12
TOL_ATTAINMENT = 1e-10
TOL_ORACLE = 1e-6       # at the reference grid size below
ORACLE_REFERENCE_N = 4096
TOL_P_INDEPENDENCE = 1e-8
TABLE_AGREEMENT_SAMPLES = 200


class ConfigError(InputError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class SweepRange:
    start: float
    stop: float
    count: int

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def values(self) -> list[float]:
        step = self.step
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class RunConfig:
    """A parsed config; the loadings are floats unless sweep ranges were allowed."""

    composite: ValidatedComposite
    relabeled: bool
    sigma0: float | SweepRange
    deltaT: float | SweepRange


def fmt(x) -> str:
    """17-significant-digit text form; infinities as inf/-inf, None empty."""
    if type(x) is float:
        return "%.17g" % x  # the text of format(x, ".17g"), infinities included
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_text(x) -> str:
    """JSON text of one value; infinities as the strings "inf"/"-inf"."""
    if isinstance(x, float) and math.isinf(x):
        x = "inf" if x > 0 else "-inf"
    return json.dumps(x)


class Coded(NamedTuple):
    """A report column whose row ``i`` holds ``values[codes[i]]``.

    Each entry of ``values`` is formatted once, however many rows it fills.
    Entries are told apart by position, never by value, so ``-0.0`` and
    ``0.0``, or ``True`` and ``1``, keep their own texts.
    """

    values: tuple
    codes: np.ndarray


def _csv_text(x) -> str:
    """:func:`fmt`, quoting a ``str`` as ``csv.writer``'s default QUOTE_MINIMAL does.

    That is, only when it holds ``,``, ``"``, ``\\r`` or ``\\n``, with each ``"`` doubled.
    """
    if isinstance(x, str) and ("," in x or '"' in x or "\r" in x or "\n" in x):
        return '"' + x.replace('"', '""') + '"'
    return fmt(x)


def _column_texts(column, text) -> list[str]:
    """The text of every row of one column.

    A column is a :class:`Coded`, a float ndarray (CSV formats it with
    ``'%.17g'``, the text of :func:`fmt`), or a sequence of values of any type.
    An ndarray is told by its ``tolist`` method, so that emit needs no numpy.
    """
    if isinstance(column, Coded):
        table = [text(v) for v in column.values]
        return [table[c] for c in column.codes.tolist()]
    if hasattr(column, "tolist"):
        column = column.tolist()
        if text is _csv_text:
            return ["%.17g" % x for x in column]
    return [text(v) for v in column]


def emit_rows(columns: dict, fmt_name: str, stream) -> None:
    """Write report columns as RFC-4180 CSV (with header) or JSON lines.

    ``columns`` maps each column name, in output order, to its rows (see
    :func:`_column_texts`); all columns have the same length.  Each column is
    formatted in one pass; then the report is joined into one string for one ``write``.
    """
    text = _json_text if fmt_name == "json" else _csv_text
    texts = [_column_texts(column, text) for column in columns.values()]
    if fmt_name == "json":
        template = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in columns) + "}\n"
        stream.write("".join([template % row for row in zip(*texts)]))
    else:
        lines = [",".join(map(_csv_text, columns)), *map(",".join, zip(*texts)), ""]
        stream.write("\r\n".join(lines))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config is missing required key {key!r}")
    return doc[key]


def _parse_phase(doc: dict, key: str) -> PhaseProperties:
    sub = _require(doc, key)
    if not isinstance(sub, dict):
        raise ConfigError(f"{key!r} must be an object with k, mu, h")
    try:
        return PhaseProperties(
            k=float(_require(sub, "k")),
            mu=float(_require(sub, "mu")),
            h=float(_require(sub, "h")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key!r}: {exc}") from exc


def _parse_axis(value, name: str, allow_sweep: bool):
    if isinstance(value, dict):
        if not allow_sweep:
            raise ConfigError(
                f"{name!r} is a sweep range, which only the sweep command accepts"
            )
        try:
            rng = SweepRange(
                start=float(_require(value, "start")),
                stop=float(_require(value, "stop")),
                count=int(_require(value, "count")),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name!r}: {exc}") from exc
        if rng.count < 2:
            raise ConfigError(f"{name!r}: sweep count must be >= 2, got {rng.count}")
        if not (math.isfinite(rng.start) and math.isfinite(rng.stop)):
            raise ConfigError(f"{name!r}: sweep start and stop must be finite")
        if not rng.start < rng.stop:
            raise ConfigError(f"{name!r}: sweep needs start < stop")
        if not math.isfinite(rng.step):
            raise ConfigError(f"{name!r}: sweep step overflows")
        return rng
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name!r} must be a number or a range object") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{name!r} must be finite, got {x}")
    return x


def load_run_config(path: str, allow_sweep: bool = False) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    phase1 = _parse_phase(doc, "phase1")
    phase2 = _parse_phase(doc, "phase2")
    try:
        theta1 = float(_require(doc, "theta1"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'theta1': {exc}") from exc
    loading = _require(doc, "loading")
    if not isinstance(loading, dict):
        raise ConfigError("'loading' must be an object with sigma0 and deltaT")
    sigma0 = _parse_axis(_require(loading, "sigma0"), "sigma0", allow_sweep)
    deltaT = _parse_axis(_require(loading, "deltaT"), "deltaT", allow_sweep)

    composite, swapped = build_composite(phase1, phase2, theta1)
    return RunConfig(
        composite=composite, relabeled=swapped, sigma0=sigma0, deltaT=deltaT
    )


def _swap_phase(phase: int | None, relabeled: bool) -> int | None:
    """Map a phase number between the caller's and the internal numbering.

    The relabeling map is an involution, so this serves both directions.
    """
    if phase is None:
        return None
    return 3 - phase if relabeled else phase


def _internal_target(flag: str, relabeled: bool) -> str:
    """The bound target of a --phase or --target flag, in the internal numbering."""
    return "max" if flag == "max" else f"phase{_swap_phase(int(flag[-1]), relabeled)}"


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise InvalidExponent(f"moment exponent must be a number or 'inf', got {text!r}")
    return check_exponent(p)


def _superposed_trace_coefficients(comp: ValidatedComposite) -> np.ndarray:
    """:func:`superposed_traces` per unit sigma0 and per unit deltaT, by [unit, core, phase].

    That route is affine in the loading and independent of the endpoint
    table the bounds read.  Core 0 (no designated assemblage) stays 0.
    """
    import numpy as np

    coefficients = np.zeros((2, 3, 3))
    for core in (1, 2):
        sphere = CoatedSphereConfig(composite=comp, core_phase=core)
        for unit, per_unit in zip((Loading(1.0, 0.0), Loading(0.0, 1.0)), coefficients):
            per_unit[core, core], per_unit[core, 3 - core] = superposed_traces(sphere, unit)
    return coefficients


def _attainment_residuals(coefficients, sigma0, deltaT, value, phase, core):
    """Relative gap between bounds and the moments, by ``coefficients``, of their assemblages."""
    import numpy as np

    per_sigma0, per_deltaT = coefficients
    trace = per_sigma0[core, phase] * sigma0 + per_deltaT[core, phase] * deltaT
    scale = np.maximum(np.maximum(value, np.abs(sigma0) + np.abs(deltaT)), 1e-300)
    return np.abs(np.abs(trace) / SQRT3 - value) / scale


def _axis_values(axis: float | SweepRange) -> list[float]:
    return axis.values() if isinstance(axis, SweepRange) else [axis]


def _bound_columns(cfg: RunConfig, phase_flag: str, p: float, residuals: bool = False) -> dict:
    """Bound report columns over the sigma0 x deltaT grid in sigma0-major order.

    One :func:`bound_arrays` pass evaluates every row.  The grid axes, the
    constant columns and the code columns of the :class:`BoundArrays` are
    :class:`Coded`, so each distinct value is formatted once.  With
    ``residuals`` each row also gets the attainment residual of its bound
    (None when the bound is 0 and no assemblage is designated).
    """
    import numpy as np

    comp, relabeled = cfg.composite, cfg.relabeled
    target = _internal_target(phase_flag, relabeled)
    sigma_values, delta_values = _axis_values(cfg.sigma0), _axis_values(cfg.deltaT)
    ns, nd = len(sigma_values), len(delta_values)
    sigma_codes = np.repeat(np.arange(ns), nd)
    delta_codes = np.tile(np.arange(nd), ns)
    sigma0 = np.asarray(sigma_values, dtype=float)[sigma_codes]
    deltaT = np.asarray(delta_values, dtype=float)[delta_codes]
    b = bound_arrays(comp, target, sigma0, deltaT)
    zeros = np.zeros(ns * nd, dtype=np.intp)  # the codes of a constant column
    # indexed by core phase; core 0: the bound is 0 and no assemblage is designated
    phases = (None, _swap_phase(1, relabeled), _swap_phase(2, relabeled))
    coated = MicrostructureKind.COATED_SPHERES.value
    columns = {
        "sigma0": Coded(tuple(sigma_values), sigma_codes),
        "deltaT": Coded(tuple(delta_values), delta_codes),
        "phase": Coded((phase_flag,), zeros),
        "p": Coded((p,), zeros),
        "value": b.value,
        "argmin": b.argmin,
        "at_endpoint": Coded(tuple(e.value for e in ENDPOINT_CODES), b.endpoint),
        "branch": Coded(BRANCH_IDS, b.branch),
        "microstructure": Coded((MicrostructureKind.UNDETERMINED.value, coated, coated), b.core),
        "core_phase": Coded(phases, b.core),
        "coating_phase": Coded((None, phases[2], phases[1]), b.core),
        "max_attaining_phase": (
            Coded(phases, np.where(b.core != 0, b.phase, 0))
            if target == "max" else Coded((None,), zeros)
        ),
        "relabeled": Coded((relabeled,), zeros),
    }
    if residuals:
        residual = _attainment_residuals(
            _superposed_trace_coefficients(comp), sigma0, deltaT, b.value, b.phase, b.core
        )
        columns["attainment_residual"] = [
            r if core else None for r, core in zip(residual.tolist(), b.core.tolist())
        ]
    return columns


def cmd_bounds(args) -> int:
    """The one row of :func:`_bound_columns` at the configured loading, by the scalar kernel."""
    cfg = load_run_config(args.config)
    p, relabeled = _parse_p(args.p), cfg.relabeled
    target = _internal_target(args.phase, relabeled)
    result, branch = classify_branch(cfg.composite, cfg.deltaT, target, cfg.sigma0)
    micro = result.microstructure
    row = {
        "sigma0": cfg.sigma0,
        "deltaT": cfg.deltaT,
        "phase": args.phase,
        "p": p,
        "value": result.value,
        "argmin": result.argmin_compliance,
        "at_endpoint": result.at_endpoint.value,
        "branch": branch,
        "microstructure": micro.kind.value,
        "core_phase": _swap_phase(micro.core_phase, relabeled),
        "coating_phase": _swap_phase(micro.coating_phase, relabeled),
        "max_attaining_phase": _swap_phase(micro.max_attaining_phase, relabeled),
        "relabeled": relabeled,
    }
    emit_rows({name: [value] for name, value in row.items()}, args.format, sys.stdout)
    return 0


def _formula_text(branch: str, endpoint: float | None, D: float) -> str:
    if branch == "Zero":
        return "0"
    e, d = fmt(endpoint), fmt(D)
    if branch.endswith("left"):
        return f"sqrt(3)*((({d}) - sigma0)*{e} - ({d}))"
    return f"sqrt(3)*((sigma0 - ({d}))*{e} + ({d}))"


def cmd_table(args) -> int:
    cfg = load_run_config(args.config)
    deltaT = cfg.deltaT
    table = regime_table(cfg.composite, deltaT, _internal_target(args.target, cfg.relabeled))
    if not all(map(math.isfinite, (table.D, *table.breakpoints))):
        note = f"D = {fmt(table.D)}: the regime table's breakpoints are not finite"
        print(note, file=sys.stderr)
        return 1
    rows, n = table.rows, len(table.rows)
    micros = [r.microstructure for r in rows]
    columns = {
        "target": [args.target] * n,
        "deltaT": [deltaT] * n,
        "D": [table.D] * n,
        "sigma0_min": [r.sigma_lo for r in rows],
        "sigma0_max": [r.sigma_hi for r in rows],
        "branch": [r.branch for r in rows],
        "endpoint": [r.endpoint_value for r in rows],
        "formula": [_formula_text(r.branch, r.endpoint_value, table.D) for r in rows],
        "microstructure": [m.kind.value for m in micros],
        "core_phase": [_swap_phase(m.core_phase, cfg.relabeled) for m in micros],
        "coating_phase": [_swap_phase(m.coating_phase, cfg.relabeled) for m in micros],
        "max_attaining_phase": [
            _swap_phase(m.max_attaining_phase, cfg.relabeled) for m in micros
        ],
        "relabeled": [cfg.relabeled] * n,
    }
    emit_rows(columns, args.format, sys.stdout)
    return 0


def _oracle_field_error(sphere, loading, grid, analytic, grid_n) -> tuple[float, str]:
    """Field error of the finite-volume oracle on ``grid`` (``grid_n`` nodes) and its note.

    Below the reference node count a failing error is extrapolated to
    ORACLE_REFERENCE_N with the convergence order measured against a grid of
    half the size.  Raises SingularSystem or NonConvergent from the solves.
    """
    err = compare_fields(analytic, solve_radial_bvp(sphere, loading, grid))
    if grid_n >= ORACLE_REFERENCE_N or err <= TOL_ORACLE:
        return err, ""
    half = make_radial_grid(sphere, max(16, grid_n // 2))
    err_half = compare_fields(
        sample_analytic_fields(sphere, loading, half),
        solve_radial_bvp(sphere, loading, half),
    )
    if err > 0.0 and err_half > err:
        order = math.log(err_half / err) / math.log(2.0)
        extrapolated = err * (grid_n / ORACLE_REFERENCE_N) ** order
    else:
        order = float("nan")
        extrapolated = err
    return extrapolated, (
        f"discretization-limited at n={grid_n} (raw {fmt(err)}); "
        f"order {fmt(order)} extrapolation to n={ORACLE_REFERENCE_N}"
    )


def _verify_checks(comp: ValidatedComposite, loading: Loading, grid_n: int) -> dict:
    """All verification checks as report columns (status pass/fail each).

    Cores and phases are numbered as in ``comp``, the internal numbering.
    """
    import numpy as np

    rows = []

    def add(name, orientation, residual, tol, note=""):
        status = "pass" if residual <= tol else "fail"
        if status == "fail" and not note and not math.isfinite(residual):
            note = "the residual is not finite: a compared value overflowed"
        rows.append((name, orientation, residual, tol, status, note))

    for core in (1, 2):
        sphere = CoatedSphereConfig(composite=comp, core_phase=core)
        tag = f"core{core}"
        # the continuity residuals divide by a^2 and a^3, which carry too few
        # bits to resolve them when a^3 is subnormal
        fraction = sphere.core_fraction
        subnormal = (
            f"the core fraction a^3 = {fmt(fraction)} is subnormal"
            if fraction < sys.float_info.min else ""
        )

        # the closed-form coefficients the library uses, against the shell
        # conditions and against the 3x3 interface solve
        th = thermal_coefficients(sphere)
        r_u, r_t, r_o = interface_residuals(sphere, th, deltaT=1.0, outer="clamped")
        add("thermal-displacement-continuity", tag, r_u, TOL_IDENTITY, subnormal)
        add("thermal-traction-continuity", tag, r_t, TOL_IDENTITY, subnormal)
        add("thermal-outer-clamped", tag, r_o, TOL_IDENTITY)

        solved = _solve_shell(sphere, eigen_on=True, outer="clamped")
        scale = max(abs(solved.coat_linear), abs(th.coat_linear), 1e-300)
        disc = max(
            abs(solved.core_linear - th.core_linear),
            abs(solved.coat_linear - th.coat_linear),
            abs(solved.coat_inverse_square - th.coat_inverse_square),
        ) / scale
        add("thermal-closed-form-agreement", tag, disc, TOL_IDENTITY)

        me = mechanical_coefficients(sphere, loading.sigma0)
        r_u, r_t, r_o = interface_residuals(
            sphere, me, deltaT=0.0, outer="traction", traction=loading.sigma0
        )
        add("mechanical-displacement-continuity", tag, r_u, TOL_IDENTITY, subnormal)
        add("mechanical-traction-continuity", tag, r_t, TOL_IDENTITY, subnormal)
        add("mechanical-outer-traction", tag, r_o, TOL_IDENTITY)

        h1, h2 = effective_thermal_stress_routes(sphere)
        disc = abs(h1 - h2) / max(abs(h1), abs(h2), 1e-300)
        add("effective-thermal-stress-dual-route", tag, disc, TOL_IDENTITY)
        solved = _solve_shell(sphere, eigen_on=False, outer="traction", traction=1.0)
        k1, k2 = effective_bulk_modulus_routes(sphere, solved)
        disc = abs(k1 - k2) / max(abs(k1), abs(k2))
        add("effective-bulk-modulus-dual-route", tag, disc, TOL_IDENTITY)
        add("exact-thermal-relation", tag, verify_exact_relation(sphere), TOL_IDENTITY)
        residual = verify_average_identity(sphere, loading)
        add("average-stress-identity", tag, residual, TOL_IDENTITY)

        # independent finite-volume oracle
        try:
            grid = make_radial_grid(sphere, grid_n)
        except SingularSystem as exc:
            note = f"no FV grid: {exc}"
            add("oracle-field-agreement", tag, math.inf, TOL_ORACLE, note)
            add("moment-exponent-independence", tag, math.inf, TOL_P_INDEPENDENCE, note)
            continue
        analytic = sample_analytic_fields(sphere, loading, grid)
        try:
            err, note = _oracle_field_error(sphere, loading, grid, analytic, grid_n)
        except (SingularSystem, NonConvergent) as exc:
            err, note = math.inf, f"no FV solution: {exc}"
        add("oracle-field-agreement", tag, err, TOL_ORACLE, note)

        # moment exponent independence of the quadrature moments
        spread = 0.0
        for phase in (1, 2):
            vals = _phase_moments(analytic, phase, (2.0, 3.0, 4.0, 8.0))
            ref = max(abs(v) for v in vals)
            if not all(map(math.isfinite, vals)):
                spread = math.inf
            elif ref > 0.0:
                spread = max(spread, (max(vals) - min(vals)) / ref)
        add("moment-exponent-independence", tag, spread, TOL_P_INDEPENDENCE)

    # attainment of the bounds by the designated assemblages, whose fields
    # come from the superposition route rather than the endpoint table
    coefficients = _superposed_trace_coefficients(comp)
    for phase in (1, 2):
        result = phase_moment_lower_bound(comp, loading, phase)
        if result.at_endpoint is not Endpoint.INTERIOR:
            residual = _attainment_residuals(
                coefficients, loading.sigma0, loading.deltaT, result.value, phase,
                result.microstructure.core_phase,
            )
            add("bound-attainment", f"phase{phase}", float(residual), TOL_ATTAINMENT)

    # regime tables agree with the direct minimization; a D that overflowed
    # leaves no finite sigma0 range to sample
    D = characteristic_constants(comp, loading.deltaT).D
    span = max(1.0, 3.0 * abs(D), abs(loading.sigma0))
    finite, n = math.isfinite(2.0 * span), TABLE_AGREEMENT_SAMPLES
    samples = -span + (2.0 * span) * (np.arange(n) + 0.5) / n if finite else None
    for target in ("phase1", "phase2", "max"):
        if not finite:
            note = f"D = {fmt(D)}: the sampled sigma0 range is not finite"
            add("regime-table-agreement", target, math.inf, TOL_IDENTITY, note)
            continue
        direct = bound_arrays(comp, target, samples, loading.deltaT).value
        via_table = regime_table(comp, loading.deltaT, target).bound_at(samples)
        scale = np.maximum(np.maximum(direct, np.abs(via_table)), span)
        worst = float(np.max(np.abs(direct - via_table) / scale))
        add("regime-table-agreement", target, worst, TOL_IDENTITY)

    names = ("check", "orientation", "residual", "tolerance", "status", "note")
    return dict(zip(names, zip(*rows)))


def _exchanged_numbering(checks: dict) -> dict:
    """Report columns of :func:`_verify_checks` with core and phase numbers 1 and 2 exchanged.

    The rows are put back in report order: the core rows by core number, then
    each later check's rows by phase, with ``max`` last.
    """
    exchanged = {"core1": "core2", "core2": "core1", "phase1": "phase2", "phase2": "phase1"}
    rows = [(name, exchanged.get(o, o), *rest) for name, o, *rest in zip(*checks.values())]
    first = {}  # the report position of each check's first row
    for i, (name, *_) in enumerate(rows):
        first.setdefault(name, i)
    rank = {"core1": 0, "core2": 1, "phase1": 0, "phase2": 1, "max": 2}
    rows.sort(key=lambda row: (0 if row[1].startswith("core") else first[row[0]], rank[row[1]]))
    return dict(zip(checks, zip(*rows)))


def cmd_verify(args) -> int:
    import numpy as np

    cfg = load_run_config(args.config)
    if args.grid_n < 16:
        raise ConfigError(f"--grid-n must be >= 16, got {args.grid_n}")
    # a value that overflows fails its rows with a note instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        checks = _verify_checks(cfg.composite, Loading(cfg.sigma0, cfg.deltaT), args.grid_n)
    if cfg.relabeled:
        checks = _exchanged_numbering(checks)
    emit_rows(checks, args.format, sys.stdout)
    if "fail" in checks["status"]:
        i = checks["status"].index("fail")
        print(
            f"FAILED {checks['check'][i]} [{checks['orientation'][i]}]: "
            f"residual {fmt(checks['residual'][i])} > tolerance {fmt(checks['tolerance'][i])}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, allow_sweep=True)
    if not isinstance(cfg.sigma0, SweepRange) and not isinstance(cfg.deltaT, SweepRange):
        raise ConfigError("sweep needs at least one of sigma0/deltaT to be a range")
    columns = _bound_columns(cfg, args.phase, _parse_p(args.p), args.residuals)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit_rows(columns, args.format, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc
    print(f"wrote {len(columns['value'])} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermobounds",
        description=(
            "Optimal lower bounds on local hydrostatic stress in two-phase "
            "thermoelastic composites."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to JSON config file")
        sp.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )

    sp = sub.add_parser("bounds", help="optimal lower bound at the configured loading")
    common(sp)
    sp.add_argument("--phase", choices=("1", "2", "max"), default="max")
    sp.add_argument("--p", default="2", help="moment exponent in (1, inf]; 'inf' allowed")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("table", help="sigma0 regime table for a bound target")
    common(sp)
    sp.add_argument("--target", choices=("phase1", "phase2", "max"), default="max")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--grid-n", type=int, default=ORACLE_REFERENCE_N)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="evaluate bounds over a loading grid")
    common(sp)
    sp.add_argument("--out", required=True, help="output file path")
    sp.add_argument("--phase", choices=("1", "2", "max"), default="max")
    sp.add_argument("--p", default="2")
    sp.add_argument(
        "--residuals",
        action="store_true",
        help="add the closed-form attainment residual to each row",
    )
    sp.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on first use and then shared."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ConsistencyFailure as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
