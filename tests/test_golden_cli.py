"""Byte-exact golden files for the CLI's bounds, table and sweep output.

Each case runs one command on a config in ``tests/golden/`` and compares
the bytes it writes (stdout, or the ``--out`` file for sweep) with
``tests/golden/<case>``.  The configs cover the canonical composite, one
that is relabeled and non-well-ordered, a loading with ``sigma0 == D``, one
with ``deltaT = 0``, and sweep grids that pass through both exactly.

To rewrite the golden files from the current code, after a change that is
meant to alter the output::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            (GOLDEN / name).write_bytes(run_case(argv, Path(tmp)))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
