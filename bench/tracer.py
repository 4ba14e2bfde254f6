"""Span tracing of thermobounds from outside the program.

``Tracer.install`` wraps the public functions of each layer module and
replaces every reference to them in the package's modules: the defining
module, the package namespace, and the names that ``cli``, ``bounds``,
``coated_sphere`` and ``radial_oracle`` import from each other.  Each call
records one span (id, parent id, function, operation, start, end) in a
flat in-memory array; spans are written out only at the end.

A span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over its functions.  Time outside
every wrapped function (argparse, the CLI's row loops, the benchmark's own
glue) falls to the operation's root span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time
from array import array

LAYERS = ("materials", "bounds", "coated_sphere", "radial_oracle", "cli")

# Functions traced besides a layer's module-level public functions.  The
# regime-table evaluators are methods that verify calls 600 times per run;
# _solve_shell is the 3x3 shell solve the coated_sphere counts are made of.
EXTRA = {
    "bounds": ("RegimeTable.bound_at", "RegimeTable.row_for", "RegimeRow.bound_at"),
    "coated_sphere": ("_solve_shell",),
}
# The CLI's parse and emit boundaries; its per-cell formatter is left out,
# since wrapping a call made thirteen times per row would swamp the row.
CLI_FUNCTIONS = ("build_parser", "load_run_config", "emit_rows")
PARSE_FUNCTIONS = ("cli.build_parser", "cli.load_run_config")


def _grid_nodes(args, kwargs) -> int:
    return (kwargs["grid"] if "grid" in kwargs else args[2]).n


# Work units counted per call: grid nodes solved by the FV oracle.
UNITS = {"radial_oracle.solve_radial_bvp": _grid_nodes}

ROOT = "op"
FIELDS = ("id", "parent", "function", "op", "start_ns", "end_ns")


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.calls = [0]
        self.incl_ns = [0]
        self.self_ns = [0]
        self.units = [0]
        self.spans = array("q")  # FIELDS, flattened, in order of span end
        self.op = -1
        self._stack = []  # open spans: [span id, start ns, child ns]
        self._ids = itertools.count()

    def _close(self, fid: int, frame: list, end: int) -> None:
        sid, start, child = frame
        dur = end - start
        self.calls[fid] += 1
        self.incl_ns[fid] += dur
        self.self_ns[fid] += dur - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self.spans.extend((sid, parent, fid, self.op, start, end))

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.append([next(self._ids), time.perf_counter_ns(), 0])

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self._close(0, self._stack.pop(), end)

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        for counts in (self.calls, self.incl_ns, self.self_ns, self.units):
            counts.append(0)
        units = UNITS.get(qualname)
        stack, ids, clock, close = self._stack, self._ids, time.perf_counter_ns, self._close
        work = self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if units is not None:
                work[fid] += units(args, kwargs)
            frame = [next(ids), clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(fid, frame, end)

        return traced

    def install(self) -> None:
        """Wrap the layer functions of the imported thermobounds package."""
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"thermobounds.{layer}"]
            if layer == "cli":
                names = CLI_FUNCTIONS
            else:
                names = [n for n, obj in vars(mod).items()
                         if callable(obj) and not isinstance(obj, type)
                         and getattr(obj, "__module__", None) == mod.__name__
                         and not n.startswith("_")]
                names = [*names, *EXTRA.get(layer, ())]
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(mod, cls)
                fn = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{name}", fn)
                wrapped[id(fn)] = wrapper
                setattr(owner, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname == "thermobounds" or modname.startswith("thermobounds."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])

    def summary(self) -> dict:
        """Calls, inclusive and self time and work units per traced function."""
        return {
            name: {"calls": self.calls[i], "incl_ns": self.incl_ns[i],
                   "self_ns": self.self_ns[i], "units": self.units[i]}
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="") as fh:
            fh.write(",".join(FIELDS) + "\n")
            spans, names = self.spans, self.names
            for j in range(0, len(spans), 6):
                sid, parent, fid, op, start, end = spans[j:j + 6]
                fh.write(f"{sid},{parent},{names[fid]},{op},{start},{end}\n")


def layer_metrics(summary: dict, ops: int, rows: int) -> dict:
    """The per-layer metrics of one traced run, from ``Tracer.summary``."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def layer_self_ms(layer):
        ns = sum(v["self_ns"] for k, v in summary.items() if k.startswith(layer + "."))
        return ns / 1e6 / ops

    fv_ns = get("radial_oracle.solve_radial_bvp", "incl_ns")
    fv_nodes = get("radial_oracle.solve_radial_bvp", "units")
    return {
        "cli.parse_ms_per_op": (
            sum(get(n, "self_ns") for n in PARSE_FUNCTIONS) / 1e6 / ops, "ms"),
        "cli.emit_ms_per_op": (get("cli.emit_rows", "self_ns") / 1e6 / ops, "ms"),
        "materials.ms_per_op": (layer_self_ms("materials"), "ms"),
        "bounds.self_ms_per_op": (layer_self_ms("bounds"), "ms"),
        "bounds.phase_bound_calls_per_row": (
            get("bounds.phase_moment_lower_bound", "calls") / rows, "count"),
        "bounds.interval_calls_per_row": (
            get("bounds.compliance_interval", "calls") / rows, "count"),
        "coated_sphere.self_ms_per_op": (layer_self_ms("coated_sphere"), "ms"),
        "coated_sphere.shell_solves_per_op": (
            get("coated_sphere._solve_shell", "calls") / ops, "count"),
        "radial_oracle.self_ms_per_op": (layer_self_ms("radial_oracle"), "ms"),
        "radial_oracle.fv_unknowns_per_s": (fv_nodes / (fv_ns / 1e9) if fv_ns else 0.0, "1/s"),
    }
