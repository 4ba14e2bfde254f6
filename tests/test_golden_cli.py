"""Byte-exact golden files for the CLI's bounds, table, sweep and verify output.

Each case runs one command on a config in ``tests/golden/`` and compares
the bytes it writes (stdout, or the ``--out`` file for sweep) with
``tests/golden/<case>``.  The configs cover the canonical composite, one
that is relabeled and non-well-ordered, a loading with ``sigma0 == D``, one
with ``deltaT = 0``, and sweep grids that pass through both exactly.
``verify`` runs on the four single-loading configs at ``--grid-n 256`` and
on the canonical one at the default grid size.

verify's residuals go through numpy reductions (the finite-volume oracle and
its field comparison), so a different numpy build may move a last digit of
them.  Its golden files are then regenerated, with the column report below.

To rewrite the golden files from the current code, after a change that is
meant to alter the output::

    PYTHONPATH=src python tests/test_golden_cli.py

Before it overwrites a file, it prints each column that changed with its
largest relative change over the numbers in its cells (a formula's numbers
count one by one), or the count of rows whose text changed otherwise.
"""

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import pytest

from thermobounds.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"csv": "csv", "json": "jsonl"}


def _cases():
    """(golden file name, argv with a bare config name) for every case."""
    for config in ("canonical", "relabeled", "flat", "zero-deltaT"):
        for phase in ("1", "2", "max"):
            for fmt, ext in FORMATS.items():
                yield (f"bounds-{config}-phase{phase}.{ext}",
                       ["bounds", config, "--phase", phase, "--format", fmt])
    yield "bounds-canonical-phase2-pinf.csv", ["bounds", "canonical", "--phase", "2", "--p", "inf"]
    for config in ("canonical", "relabeled", "zero-deltaT"):
        for target in ("phase1", "phase2", "max"):
            for fmt, ext in FORMATS.items():
                yield (f"table-{config}-{target}.{ext}",
                       ["table", config, "--target", target, "--format", fmt])
    for config in ("canonical-grid", "relabeled-grid"):
        for fmt, ext in FORMATS.items():
            yield f"sweep-{config}-max.{ext}", ["sweep", config, "--format", fmt]
            yield (f"sweep-{config}-max-residuals.{ext}",
                   ["sweep", config, "--format", fmt, "--residuals"])
        for phase in ("1", "2"):
            yield (f"sweep-{config}-phase{phase}-residuals.csv",
                   ["sweep", config, "--phase", phase, "--residuals"])
    for config in ("canonical", "relabeled", "flat", "zero-deltaT"):
        for fmt, ext in FORMATS.items():
            yield (f"verify-{config}-n256.{ext}",
                   ["verify", config, "--grid-n", "256", "--format", fmt])
    yield "verify-canonical.csv", ["verify", "canonical"]


CASES = dict(_cases())


def run_case(argv: list[str], out_dir: Path) -> bytes:
    """Run one case and return the bytes it wrote."""
    command, config, *rest = argv
    argv = [command, str(GOLDEN / f"{config}.json"), *rest]
    out_file = out_dir / "sweep-out"
    if command == "sweep":
        argv += ["--out", str(out_file)]
    stdout = io.StringIO(newline="")
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    if command == "sweep":
        return out_file.read_bytes()
    return stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == (GOLDEN / name).read_bytes()


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _columns(name: str, data: bytes) -> dict[str, list[str]]:
    """Cell texts by column of one golden file (JSON values as JSON text)."""
    text = data.decode("utf-8")
    if name.endswith(".jsonl"):
        rows = [json.loads(line) for line in text.splitlines()]
        return {key: [json.dumps(row.get(key)) for row in rows] for key in (rows[0] if rows else {})}
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    return {key: [row[i] for row in rows] for i, key in enumerate(header)}


def _relative_change(old: str, new: str) -> float | None:
    """Largest relative change over the numbers of two cells, None if their text differs otherwise."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    change = 0.0
    for a, b in zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))):
        if a != b and not (a != a and b != b):
            scale = max(abs(a), abs(b))
            change = max(change, abs(a - b) / scale if scale not in (0.0, float("inf")) else 1.0)
    return change


def describe_changes(name: str, old: bytes, new: bytes) -> list[str]:
    """One line per changed column of a golden file: its largest relative change."""
    before, after = _columns(name, old), _columns(name, new)
    if list(before) != list(after) or len(next(iter(before.values()), [])) != len(
        next(iter(after.values()), [])
    ):
        return [f"{name}: columns or row count changed"]
    lines = []
    for key in after:
        pairs = [(a, b) for a, b in zip(before[key], after[key]) if a != b]
        changes = [_relative_change(a, b) for a, b in pairs]
        if None in changes:
            lines.append(f"{name}: {key}: text changed in {changes.count(None)} of {len(after[key])} rows")
        elif pairs:
            lines.append(
                f"{name}: {key}: {len(pairs)} of {len(after[key])} rows, "
                f"largest relative change {max(changes):.3g}"
            )
    return lines


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: run_case(argv, Path(tmp)) for name, argv in CASES.items()}
    for name, data in outputs.items():
        path = GOLDEN / name
        if not path.exists():
            print(f"{name}: new file")
        elif path.read_bytes() != data:
            print("\n".join(describe_changes(name, path.read_bytes(), data)))
    for name, data in outputs.items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
