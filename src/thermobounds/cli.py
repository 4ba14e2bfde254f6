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
  the scalar functions; ``bounds`` uses the same pass with one row.

Config schema::

    {
      "phase1":  {"k": 2.0, "mu": 1.0, "h": 0.0},
      "phase2":  {"k": 1.0, "mu": 0.5, "h": 1.0},
      "theta1":  0.5,
      "loading": {"sigma0": 0.0, "deltaT": 1.0}
    }

For ``sweep``, ``sigma0`` and/or ``deltaT`` may instead be a range object
``{"start": -10, "stop": 10, "count": 81}`` (count >= 2, start < stop).

Phases in the output are reported in the caller's original numbering even
when the internal shear-ordering convention required relabeling; the
``relabeled`` field records whether that happened.  Numbers are written
with 17 significant digits (round-trip exact for doubles); infinite table
breakpoints appear as the strings "-inf"/"inf".  Output is deterministic:
identical configs produce byte-identical output.

Exit codes: 0 success, 1 verification/internal failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    BRANCH_IDS,
    ENDPOINT_CODES,
    Endpoint,
    MicrostructureKind,
    bound_arrays,
    characteristic_constants,
    phase_moment_lower_bound,
    regime_table,
)
from .coated_sphere import (
    CoatedSphereConfig,
    effective_bulk_modulus_routes,
    effective_thermal_stress_routes,
    interface_residuals,
    mechanical_coefficients,
    phase_moment,
    thermal_coefficients,
    thermal_coefficients_closed_form,
    verify_average_identity,
    verify_exact_relation,
)
from .errors import ConsistencyFailure, InputError, InvalidExponent
from .materials import (
    CompositeSpec,
    Loading,
    PhaseProperties,
    ValidatedComposite,
    normalize_phase_labels,
    validate_composite,
)
from .radial_oracle import (
    compare_fields,
    make_radial_grid,
    sample_analytic_fields,
    sampled_moment,
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

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class RunConfig:
    composite: ValidatedComposite
    relabeled: bool
    sigma0: float | SweepRange
    deltaT: float | SweepRange


def fmt(x) -> str:
    """17-significant-digit text form; infinities as inf/-inf, None empty."""
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


def _json_value(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def emit_rows(rows: list[dict], fmt_name: str, stream) -> None:
    """Write report rows as RFC-4180 CSV (with header) or JSON lines."""
    if not rows:
        return
    if fmt_name == "json":
        for row in rows:
            stream.write(json.dumps({k: _json_value(v) for k, v in row.items()}))
            stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\r\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(row[k]) for k in header])


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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name!r}: {exc}") from exc
        if rng.count < 2:
            raise ConfigError(f"{name!r}: sweep count must be >= 2, got {rng.count}")
        if not rng.start < rng.stop:
            raise ConfigError(f"{name!r}: sweep needs start < stop")
        return rng
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name!r} must be a number or a range object") from exc


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

    spec, swapped = normalize_phase_labels(
        CompositeSpec(phase1=phase1, phase2=phase2, theta1=theta1)
    )
    composite = validate_composite(spec)
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


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise InvalidExponent(f"moment exponent must be a number or 'inf', got {text!r}")
    if math.isnan(p) or p <= 1.0:
        raise InvalidExponent(f"moment exponent must lie in (1, inf], got {text}")
    return p


def _attainment_residual(
    comp: ValidatedComposite, loading: Loading, value: float, phase: int, core: int
) -> float:
    """Relative gap between a bound and the moment of its attaining assemblage."""
    sphere = CoatedSphereConfig(composite=comp, core_phase=core)
    moment = phase_moment(sphere, loading, phase, 2.0)
    scale = max(value, abs(loading.sigma0) + abs(loading.deltaT), 1e-300)
    return abs(moment - value) / scale


def _bound_rows(
    cfg: RunConfig,
    sigma_values: list[float],
    delta_values: list[float],
    phase_flag: str,
    p: float,
    residuals: bool = False,
) -> list[dict]:
    """Bound rows over the sigma0 x deltaT grid in sigma0-major order.

    One :func:`bound_arrays` pass evaluates every row.  With ``residuals``
    each row also gets the attainment residual of its bound (None when the
    bound is 0 and no assemblage is designated).
    """
    comp, relabeled = cfg.composite, cfg.relabeled
    coated = MicrostructureKind.COATED_SPHERES.value
    undetermined = MicrostructureKind.UNDETERMINED.value
    if phase_flag == "max":
        target = "max"
    else:
        target = f"phase{_swap_phase(int(phase_flag), relabeled)}"
    sigma0 = np.repeat(np.asarray(sigma_values, dtype=float), len(delta_values))
    deltaT = np.tile(np.asarray(delta_values, dtype=float), len(sigma_values))
    b = bound_arrays(comp, target, sigma0, deltaT)
    rows = []
    for s0, dT, value, argmin, endpoint, phase, core, branch in zip(
        sigma0.tolist(), deltaT.tolist(), b.value.tolist(), b.argmin.tolist(),
        b.endpoint.tolist(), b.phase.tolist(), b.core.tolist(), b.branch.tolist(),
    ):
        row = {
            "sigma0": s0,
            "deltaT": dT,
            "phase": phase_flag,
            "p": p,
            "value": value,
            "argmin": argmin,
            "at_endpoint": ENDPOINT_CODES[endpoint].value,
            "branch": BRANCH_IDS[branch],
            # core 0: the bound is 0 and no assemblage is designated
            "microstructure": coated if core else undetermined,
            "core_phase": _swap_phase(core, relabeled) if core else None,
            "coating_phase": _swap_phase(3 - core, relabeled) if core else None,
            "max_attaining_phase": (
                _swap_phase(phase, relabeled) if core and target == "max" else None
            ),
            "relabeled": relabeled,
        }
        if residuals:
            row["attainment_residual"] = (
                _attainment_residual(comp, Loading(s0, dT), value, phase, core)
                if core else None
            )
        rows.append(row)
    return rows


def _scalar_loading(cfg: RunConfig) -> tuple[float, float]:
    if isinstance(cfg.sigma0, SweepRange) or isinstance(cfg.deltaT, SweepRange):
        raise ConfigError("this command needs scalar sigma0 and deltaT")
    return cfg.sigma0, cfg.deltaT


def cmd_bounds(args) -> int:
    cfg = load_run_config(args.config)
    sigma0, deltaT = _scalar_loading(cfg)
    p = _parse_p(args.p)
    emit_rows(_bound_rows(cfg, [sigma0], [deltaT], args.phase, p), args.format, sys.stdout)
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
    _, deltaT = _scalar_loading(cfg)
    if args.target == "max":
        target = "max"
    else:
        target = f"phase{_swap_phase(int(args.target[-1]), cfg.relabeled)}"
    table = regime_table(cfg.composite, deltaT, target)
    rows = []
    for r in table.rows:
        micro = r.microstructure
        rows.append(
            {
                "target": args.target,
                "deltaT": deltaT,
                "D": table.D,
                "sigma0_min": r.sigma_lo,
                "sigma0_max": r.sigma_hi,
                "branch": r.branch,
                "endpoint": r.endpoint_value,
                "formula": _formula_text(r.branch, r.endpoint_value, table.D),
                "microstructure": micro.kind.value,
                "core_phase": _swap_phase(micro.core_phase, cfg.relabeled),
                "coating_phase": _swap_phase(micro.coating_phase, cfg.relabeled),
                "max_attaining_phase": _swap_phase(micro.max_attaining_phase, cfg.relabeled),
                "relabeled": cfg.relabeled,
            }
        )
    emit_rows(rows, args.format, sys.stdout)
    return 0


def _verify_checks(comp: ValidatedComposite, loading: Loading, grid_n: int) -> list[dict]:
    """All verification checks as report rows (status pass/fail each)."""
    checks: list[dict] = []

    def add(name, orientation, residual, tol, note=""):
        checks.append(
            {
                "check": name,
                "orientation": orientation,
                "residual": residual,
                "tolerance": tol,
                "status": "pass" if residual <= tol else "fail",
                "note": note,
            }
        )

    for core in (1, 2):
        sphere = CoatedSphereConfig(composite=comp, core_phase=core)
        tag = f"core{core}"

        th = thermal_coefficients(sphere)
        r_u, r_t, r_o = interface_residuals(sphere, th, deltaT=1.0, outer="clamped")
        add("thermal-displacement-continuity", tag, r_u, TOL_IDENTITY)
        add("thermal-traction-continuity", tag, r_t, TOL_IDENTITY)
        add("thermal-outer-clamped", tag, r_o, TOL_IDENTITY)

        cf = thermal_coefficients_closed_form(sphere)
        scale = max(abs(th.coat_linear), abs(cf.coat_linear), 1e-300)
        disc = max(
            abs(th.core_linear - cf.core_linear),
            abs(th.coat_linear - cf.coat_linear),
            abs(th.coat_inverse_square - cf.coat_inverse_square),
        ) / scale
        add("thermal-closed-form-agreement", tag, disc, TOL_IDENTITY)

        me = mechanical_coefficients(sphere, loading.sigma0)
        r_u, r_t, r_o = interface_residuals(
            sphere, me, deltaT=0.0, outer="traction", traction=loading.sigma0
        )
        add("mechanical-displacement-continuity", tag, r_u, TOL_IDENTITY)
        add("mechanical-traction-continuity", tag, r_t, TOL_IDENTITY)
        add("mechanical-outer-traction", tag, r_o, TOL_IDENTITY)

        h1, h2 = effective_thermal_stress_routes(sphere)
        add(
            "effective-thermal-stress-dual-route",
            tag,
            abs(h1 - h2) / max(abs(h1), abs(h2), 1e-300),
            TOL_IDENTITY,
        )
        k1, k2 = effective_bulk_modulus_routes(sphere)
        add(
            "effective-bulk-modulus-dual-route",
            tag,
            abs(k1 - k2) / max(abs(k1), abs(k2)),
            TOL_IDENTITY,
        )
        add("exact-thermal-relation", tag, verify_exact_relation(sphere), TOL_IDENTITY)
        add(
            "average-stress-identity",
            tag,
            verify_average_identity(sphere, loading),
            TOL_IDENTITY,
        )

        # independent finite-volume oracle
        grid = make_radial_grid(sphere, grid_n)
        numeric = solve_radial_bvp(sphere, loading, grid)
        analytic = sample_analytic_fields(sphere, loading, grid)
        err = compare_fields(analytic, numeric)
        if grid_n >= ORACLE_REFERENCE_N or err <= TOL_ORACLE:
            add("oracle-field-agreement", tag, err, TOL_ORACLE)
        else:
            # coarse grid: extrapolate to the reference size using the
            # measured convergence order before judging
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
            add(
                "oracle-field-agreement",
                tag,
                extrapolated,
                TOL_ORACLE,
                note=(
                    f"discretization-limited at n={grid_n} (raw {fmt(err)}); "
                    f"order {fmt(order)} extrapolation to n={ORACLE_REFERENCE_N}"
                ),
            )

        # moment exponent independence of the quadrature moments
        spread = 0.0
        for phase in (1, 2):
            vals = [sampled_moment(analytic, phase, p) for p in (2.0, 3.0, 4.0, 8.0)]
            ref = max(abs(v) for v in vals)
            if ref > 0.0:
                spread = max(spread, (max(vals) - min(vals)) / ref)
        add("moment-exponent-independence", tag, spread, TOL_P_INDEPENDENCE)

    # attainment of the bounds by the designated assemblages
    for phase in (1, 2):
        result = phase_moment_lower_bound(comp, loading, phase)
        if result.at_endpoint is Endpoint.INTERIOR:
            continue
        residual = _attainment_residual(
            comp, loading, result.value, phase, result.microstructure.core_phase
        )
        add("bound-attainment", f"phase{phase}", residual, TOL_ATTAINMENT)

    # regime tables agree with the direct minimization
    consts = characteristic_constants(comp, loading.deltaT)
    span = max(1.0, 3.0 * abs(consts.D), abs(loading.sigma0))
    samples = [
        -span + (2.0 * span) * (i + 0.5) / TABLE_AGREEMENT_SAMPLES
        for i in range(TABLE_AGREEMENT_SAMPLES)
    ]
    for target in ("phase1", "phase2", "max"):
        table = regime_table(comp, loading.deltaT, target)
        direct = bound_arrays(comp, target, samples, loading.deltaT).value.tolist()
        worst = 0.0
        for s0, value in zip(samples, direct):
            via_table = table.bound_at(s0)
            scale = max(value, abs(via_table), span)
            worst = max(worst, abs(value - via_table) / scale)
        add("regime-table-agreement", target, worst, TOL_IDENTITY)

    return checks


def cmd_verify(args) -> int:
    cfg = load_run_config(args.config)
    sigma0, deltaT = _scalar_loading(cfg)
    if args.grid_n < 16:
        raise ConfigError(f"--grid-n must be >= 16, got {args.grid_n}")
    checks = _verify_checks(cfg.composite, Loading(sigma0, deltaT), args.grid_n)
    emit_rows(checks, args.format, sys.stdout)
    failed = [c for c in checks if c["status"] != "pass"]
    if failed:
        first = failed[0]
        print(
            f"FAILED {first['check']} [{first['orientation']}]: "
            f"residual {fmt(first['residual'])} > tolerance {fmt(first['tolerance'])}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, allow_sweep=True)
    if not isinstance(cfg.sigma0, SweepRange) and not isinstance(cfg.deltaT, SweepRange):
        raise ConfigError("sweep needs at least one of sigma0/deltaT to be a range")
    p = _parse_p(args.p)
    sigma_values = (
        cfg.sigma0.values() if isinstance(cfg.sigma0, SweepRange) else [cfg.sigma0]
    )
    delta_values = (
        cfg.deltaT.values() if isinstance(cfg.deltaT, SweepRange) else [cfg.deltaT]
    )
    rows = _bound_rows(cfg, sigma_values, delta_values, args.phase, p, args.residuals)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit_rows(rows, args.format, fh)
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out!r}: {exc}") from exc
    print(f"wrote {len(rows)} rows to {args.out}")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
