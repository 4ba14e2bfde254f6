"""Command-line front end.

Four subcommands, each reading a JSON config file:

* ``bounds``  -- print the optimal lower bound for one phase (or the
  max-field bound) at the configured loading.
* ``table``   -- print the sigma0 regime table for a bound target.
* ``verify``  -- run the full verification suite of
  :mod:`thermobounds.verify` (interface residuals, dual-route effective
  constants, exact relations, attainment, oracle comparison, regime-table
  agreement) for both coated-sphere orientations.
* ``sweep``   -- evaluate bounds over a grid of loadings and write them to
  a file.  ``bounds`` and ``sweep`` build their rows with one call of
  :func:`~thermobounds.bounds.bound_grid` (a 1 x 1 grid for ``bounds``),
  which runs the bound kernel of
  :func:`~thermobounds.bounds.phase_moment_lower_bound` and
  :func:`~thermobounds.bounds.max_field_lower_bound` over each deltaT value's
  column of sigma0 values.

Importing this module loads the package's layers but not
:mod:`thermobounds.verify`: ``verify`` and ``sweep --residuals`` import it
when they run, and only the ``verify`` command loads numpy, in the checks it
runs.  ``bounds``, ``table`` and a plain ``sweep`` load neither; this
module uses no arrays.

Config schema::

    {
      "phase1":  {"k": 2.0, "mu": 1.0, "h": 0.0},
      "phase2":  {"k": 1.0, "mu": 0.5, "h": 1.0},
      "theta1":  0.5,
      "loading": {"sigma0": 0.0, "deltaT": 1.0}
    }

For ``sweep``, ``sigma0`` and/or ``deltaT`` may instead be a range object
``{"start": -10, "stop": 10, "count": 81}`` (count >= 2, start < stop).
Every loading value must be finite, and a sweep has at most
``MAX_SWEEP_ROWS`` rows.

Phases in the output are reported in the caller's original numbering even
when the internal shear-ordering convention required relabeling; the
``relabeled`` field records whether that happened.  CSV writes numbers
with 17 significant digits; JSON lines write each float as its shortest
round-trip ``repr``, as :func:`json.dumps` does.  Both are round-trip exact
for doubles.  JSON writes a nan or infinity as the string "nan", "inf" or "-inf",
the text CSV writes, since JSON has no such numbers.  CSV quotes
a text only when it contains a comma, a double quote, CR or LF, doubling each
embedded double quote, as ``csv.writer``'s default QUOTE_MINIMAL does.  Each
report is joined into one string and written with one ``write`` call.  Output
is deterministic: identical configs produce byte-identical output.

:func:`main` is reentrant: it builds the argument parser on its first call
and reuses it, and repeated calls in one process write the same bytes and
return the same exit codes as calls in fresh processes.

Exit codes: 0 success, 1 a failing verification row (or a ``table``
whose breakpoints are not finite), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from array import array
from typing import NamedTuple

from . import __version__
from .bounds import (
    BRANCH_IDS,
    ENDPOINT_CODES,
    _ATTAINING,
    Microstructure,
    bound_grid,
    regime_table,
)
from .coated_sphere import CoatedSphereConfig
from .errors import InputError, InvalidExponent
from .materials import (
    Loading,
    PhaseProperties,
    ValidatedComposite,
    _swap_phase,
    build_composite,
    check_exponent,
)
from .radial_oracle import MAX_NODES, MIN_NODES, ORACLE_REFERENCE_N


class ConfigError(InputError):
    """Malformed or incomplete run configuration."""


MAX_SWEEP_ROWS = 250_000  # about 600 bytes of peak memory per row


class SweepRange(NamedTuple):
    start: float
    stop: float
    count: int

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def values(self) -> list[float]:
        step = self.step
        return [self.start + i * step for i in range(self.count)]


class RunConfig(NamedTuple):
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
    return "%.17g" % x


def _json_text(x) -> str:
    """JSON text of one value; a nan or infinity as the string "nan", "inf" or "-inf"."""
    if isinstance(x, float) and not math.isfinite(x):
        x = str(x)  # a float's repr; a numpy float's repr would name its type
    return json.dumps(x)


class Coded(NamedTuple):
    """A report column whose row ``i`` holds ``values[codes[i]]``, codes a list or an int array.

    Each entry of ``values`` is formatted once, however many rows it fills.
    Entries are told apart by position, never by value, so ``-0.0`` and
    ``0.0``, or ``True`` and ``1``, keep their own texts.  Under a tuple of
    names it spans those adjacent columns, each entry a tuple of their values.
    """

    values: tuple
    codes: list


def _coded(column: list, keys: list) -> Coded:
    """``column`` as a :class:`Coded`; rows with equal ``keys`` hold the same entry and share it."""
    entries = dict(zip(keys, column))
    position = dict(zip(entries, range(len(entries))))
    return Coded(tuple(entries.values()), list(map(position.__getitem__, keys)))


def _csv_text(x) -> str:
    """:func:`fmt`, quoting a ``str`` as ``csv.writer``'s default QUOTE_MINIMAL does.

    That is, only when it holds ``,``, ``"``, ``\\r`` or ``\\n``, with each ``"`` doubled.
    """
    if isinstance(x, str) and ("," in x or '"' in x or "\r" in x or "\n" in x):
        return '"' + x.replace('"', '""') + '"'
    return fmt(x)


def _spanning(names: tuple, text):
    """``text`` for a row of the columns ``names``: their texts joined as in a report row."""
    seps = ["," if text is _csv_text else f", {json.dumps(name)}: " for name in names[1:]]

    def joined(values) -> str:
        return text(values[0]) + "".join([sep + text(v) for sep, v in zip(seps, values[1:])])

    return joined


def _column_texts(column, text) -> list[str]:
    """The text of every row of one column.

    A column is a :class:`Coded`, a float array (CSV formats it with
    ``'%.17g'``, the text of :func:`fmt`), or a sequence of values of any type.
    An array (numpy's or ``array.array``) is told by its ``tolist`` method, so
    that emit needs no numpy.
    """
    if isinstance(column, Coded):
        return list(map([text(v) for v in column.values].__getitem__, column.codes))
    if hasattr(column, "tolist"):
        column = column.tolist()
        if text is _csv_text:
            return ["%.17g" % x for x in column]
    return [text(v) for v in column]


def emit_rows(columns: dict, fmt_name: str, stream) -> None:
    """Write report columns as RFC-4180 CSV (with header) or JSON lines.

    ``columns`` maps each column name, in output order, to its rows (see
    :func:`_column_texts`), a tuple of names spanning adjacent columns; all have
    the same length.  Each column is formatted in one pass; then the report is
    joined into one string for one ``write``.
    """
    text = _json_text if fmt_name == "json" else _csv_text
    spans = [key if isinstance(key, tuple) else (key,) for key in columns]
    texts = [
        _column_texts(column, _spanning(names, text) if len(names) > 1 else text)
        for names, column in zip(spans, columns.values())
    ]
    if fmt_name == "json":
        template = "{" + ", ".join(f"{json.dumps(names[0])}: %s" for names in spans) + "}\n"
        stream.write("".join([template % row for row in zip(*texts)]))
    else:
        header = ",".join([_csv_text(name) for names in spans for name in names])
        stream.write("\r\n".join([header, *map(",".join, zip(*texts)), ""]))


def _require(doc: dict, key: str, where: str = ""):
    if key not in doc:
        raise ConfigError(f"{where}config is missing required key {key!r}")
    return doc[key]


def _number(doc: dict, key: str, where: str = "", kind=float):
    """``kind(doc[key])``, each message prefixed by ``where`` (``"'phase1': "`` in a phase).

    A JSON boolean or string, which float() and int() read as numbers, is refused, and
    so is a value that kind() or float() cannot take: an integer beyond the float range
    raises OverflowError there.
    """
    value = _require(doc, key, where)
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{where}{key!r} must be a number, got {json.dumps(value)}")
    try:
        number = kind(value)
        float(number)  # an int() result, such as a sweep count, that a float cannot hold
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}{key!r}: {exc}") from exc
    return number


def _parse_phase(doc: dict, key: str) -> PhaseProperties:
    sub = _require(doc, key)
    if not isinstance(sub, dict):
        raise ConfigError(f"{key!r} must be an object with k, mu, h")
    where = f"{key!r}: "
    return PhaseProperties(*(_number(sub, name, where) for name in ("k", "mu", "h")))


def _parse_axis(doc: dict, name: str, allow_sweep: bool):
    value = _require(doc, name)
    if isinstance(value, dict):
        if not allow_sweep:
            raise ConfigError(
                f"{name!r} is a sweep range, which only the sweep command accepts"
            )
        where = f"{name!r}: "
        rng = SweepRange(
            start=_number(value, "start", where),
            stop=_number(value, "stop", where),
            count=_number(value, "count", where, int),
        )
        if isinstance(value["count"], float) and value["count"] != rng.count:
            raise ConfigError(f"{name!r}: sweep count {value['count']!r} is not a whole number")
        if rng.count < 2:
            raise ConfigError(f"{name!r}: sweep count must be >= 2, got {rng.count}")
        if rng.count > MAX_SWEEP_ROWS:
            raise ConfigError(f"{name!r}: sweep count {value['count']!r} is more than "
                              f"the {MAX_SWEEP_ROWS} rows of a sweep")
        if not (math.isfinite(rng.start) and math.isfinite(rng.stop)):
            raise ConfigError(f"{name!r}: sweep start and stop must be finite")
        if not rng.start < rng.stop:
            raise ConfigError(f"{name!r}: sweep needs start < stop")
        if not math.isfinite(rng.step):
            raise ConfigError(f"{name!r}: sweep step overflows")
        return rng
    if not isinstance(value, (int, float)):  # a string, a list or null
        raise ConfigError(f"{name!r} must be a number or a range object")
    x = _number(doc, name)
    if not math.isfinite(x):
        raise ConfigError(f"{name!r} must be finite, got {x}")
    return x


def load_run_config(path: str, allow_sweep: bool = False) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests values too deeply to parse") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    phase1 = _parse_phase(doc, "phase1")
    phase2 = _parse_phase(doc, "phase2")
    theta1 = _number(doc, "theta1")
    loading = _require(doc, "loading")
    if not isinstance(loading, dict):
        raise ConfigError("'loading' must be an object with sigma0 and deltaT")
    sigma0 = _parse_axis(loading, "sigma0", allow_sweep)
    deltaT = _parse_axis(loading, "deltaT", allow_sweep)

    composite, swapped = build_composite(phase1, phase2, theta1)
    return RunConfig(
        composite=composite, relabeled=swapped, sigma0=sigma0, deltaT=deltaT
    )


def _internal_target(flag: str, relabeled: bool) -> str:
    """The bound target of a --phase or --target flag, in the internal numbering."""
    return "max" if flag == "max" else f"phase{_swap_phase(int(flag[-1]), relabeled)}"


def _parse_p(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise InvalidExponent(f"moment exponent must be a number or 'inf', got {text!r}")
    return check_exponent(p)


def _axis_values(axis: float | SweepRange) -> list[float]:
    return axis.values() if isinstance(axis, SweepRange) else [axis]


def _attaining(m: Microstructure, relabeled: bool) -> tuple:
    """The columns microstructure to relabeled of an assemblage, in the caller's numbering."""
    phases = (m.core_phase, m.coating_phase, m.max_attaining_phase)
    return (m.kind.value, *(_swap_phase(phase, relabeled) for phase in phases), relabeled)


def _bound_columns(cfg: RunConfig, phase_flag: str, p: float, residuals: bool = False) -> dict:
    """Bound report columns over the sigma0 x deltaT grid in sigma0-major order.

    One :func:`bound_grid` call evaluates every row.  A row is five segments,
    each formatted once per distinct value: sigma0; (deltaT, phase, p);
    value; argmin; at_endpoint to relabeled.  With ``residuals`` each row also
    gets the attainment residual of its bound (None where the bound is 0).
    """
    comp, relabeled = cfg.composite, cfg.relabeled
    target = _internal_target(phase_flag, relabeled)
    sigma_values, delta_values = _axis_values(cfg.sigma0), _axis_values(cfg.deltaT)
    ns, nd = len(sigma_values), len(delta_values)
    rows = bound_grid(comp, target, sigma_values, delta_values)

    def attainment(code, phase, core, branch) -> tuple:
        """The columns from at_endpoint to relabeled of a row with these codes."""
        micro = _ATTAINING[core, phase if target == "max" else None]
        return (ENDPOINT_CODES[code].value, BRANCH_IDS[branch], *_attaining(micro, relabeled))

    keys = [row[2:] for row in rows]
    attaining = _coded(keys, keys)
    argmin = [row[1] for row in rows]
    columns = {
        "sigma0": Coded(tuple(sigma_values), [i for i in range(ns) for _ in range(nd)]),
        ("deltaT", "phase", "p"): Coded(
            tuple((d, phase_flag, p) for d in delta_values), [*range(nd)] * ns
        ),
        "value": array("d", [row[0] for row in rows]),
        # an endpoint row's argmin is the endpoint's t, the same object in every such row
        "argmin": _coded(argmin, [*map(id, argmin)]),
        ("at_endpoint", "branch", "microstructure", "core_phase", "coating_phase",
         "max_attaining_phase", "relabeled"): Coded(
            tuple(attainment(*key) for key in attaining.values), attaining.codes
        ),
    }
    if residuals:
        from .verify import _attainment_residual, _unit_solves

        solves = _unit_solves(CoatedSphereConfig(comp, core) for core in (1, 2))
        loadings = [(s, d) for s in sigma_values for d in delta_values]
        columns["attainment_residual"] = [
            _attainment_residual(solves, s, d, value, phase, core) if core else None
            for (s, d), (value, _, _, phase, core, _) in zip(loadings, rows)
        ]
    return columns


def cmd_bounds(args) -> int:
    cfg = load_run_config(args.config)
    emit_rows(_bound_columns(cfg, args.phase, _parse_p(args.p)), args.format, sys.stdout)
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
    rows = table.rows
    columns = {
        ("target", "deltaT", "D"): Coded(((args.target, deltaT, table.D),), [0] * len(rows)),
        "sigma0_min": [r.sigma_lo for r in rows],
        "sigma0_max": [r.sigma_hi for r in rows],
        "branch": [r.branch for r in rows],
        "endpoint": [r.endpoint_value for r in rows],
        "formula": [_formula_text(r.branch, r.endpoint_value, table.D) for r in rows],
        ("microstructure", "core_phase", "coating_phase", "max_attaining_phase", "relabeled"): [
            _attaining(r.microstructure, cfg.relabeled) for r in rows
        ],
    }
    emit_rows(columns, args.format, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    cfg = load_run_config(args.config)
    if not MIN_NODES <= args.grid_n <= MAX_NODES:
        raise ConfigError(f"--grid-n must be from {MIN_NODES} to {MAX_NODES}, got {args.grid_n}")
    from .verify import _verify_checks

    loading = Loading(cfg.sigma0, cfg.deltaT)
    checks = _verify_checks(cfg.composite, loading, args.grid_n, cfg.relabeled)
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
    if isinstance(cfg.sigma0, SweepRange) and isinstance(cfg.deltaT, SweepRange):
        rows = cfg.sigma0.count * cfg.deltaT.count
        if rows > MAX_SWEEP_ROWS:
            raise ConfigError(
                f"'sigma0' and 'deltaT': sweep counts give {rows} rows, more than {MAX_SWEEP_ROWS}"
            )
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

    def bound_options(sp):
        sp.add_argument(
            "--phase", choices=("1", "2", "max"), default="max",
            help="phase to bound, in the config's numbering, or max for the max-field bound",
        )
        sp.add_argument("--p", default="2", help="moment exponent in (1, inf]; 'inf' allowed")

    sp = sub.add_parser("bounds", help="optimal lower bound at the configured loading")
    common(sp)
    bound_options(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("table", help="sigma0 regime table for a bound target")
    common(sp)
    sp.add_argument(
        "--target", choices=("phase1", "phase2", "max"), default="max",
        help="bound to tabulate: phase1 or phase2 (the config's numbering), or max (max-field)",
    )
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument(
        "--grid-n", type=int, default=ORACLE_REFERENCE_N,
        help=f"nodes of the finite-volume oracle's grid ({MIN_NODES} to {MAX_NODES}, "
        "default %(default)s)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="evaluate bounds over a loading grid")
    common(sp)
    sp.add_argument("--out", required=True, help="output file path")
    bound_options(sp)
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


if __name__ == "__main__":
    sys.exit(main())
