"""Byte-identity corpus: every CLI command on 174 configs, written for ``diff -r``.

Usage::

    python tests/corpus.py OUTDIR
    python tests/corpus.py --digest FILE

It runs the CLI of the checkout it sits in (its ``src/`` comes first on the
path) through :func:`thermobounds.cli.main`, in this one process, and writes
what each run produced.  A change that is meant to leave every output as it
was runs this script in the parent's checkout and in its own, into two
directories, and ``diff -r`` of the two is the check; ``diff -rq A B | wc -l``
counts the runs that differ.  pytest does not collect this file.

With ``--digest`` it writes, instead of the records, one line per run: the
run's path under OUTDIR and the first 16 hex digits of the sha256 of its
record (of the bytes of its file).  ``tests/corpus.sha256`` is that file for
the committed code, and ``tests/test_corpus.py`` runs the corpus in tier-1
and names each run whose digest moved.  Like the golden files, the digests
pin the bits of one Python and numpy build (3.11.7 and 2.4.6).  After a
change that is meant to alter some outputs, regenerate it with::

    python tests/corpus.py --digest tests/corpus.sha256

The 174 configs:

* 160 ``random_composite`` draws from ``numpy.random.default_rng(17172)``,
  each followed by its loading, a ``random_loading`` draw from the same
  generator (``tests/conftest.py``).  Every second one (odd index) is written
  relabeled: phase 1 and phase 2 exchanged, so the library swaps them back,
  with theta1 kept as drawn.  The library then stores theta2 = t for the
  listed t.
* 14 edge configs, each taken from the test that defines it: the
  high-contrast composite (``test_radial_oracle.HIGH_CONTRAST``), the shear
  contrasts mu1 = 1e200 and 1e160, the D-overflow composite with h2 = 1e10
  and 0, the subnormal-moduli phase with h = 1, 1e308 and -1e308, theta1 =
  5e-324 and 1 - 2**-53 on the canonical phases, the thin coating, the
  huge moduli and the huge expansion coefficients
  (``test_cli.EDGE_COMPOSITES``) and the low-shear example.  Each is loaded
  at sigma0 = 0.3, deltaT = 1, except the low-shear example, which keeps
  its own loading.

The 26 runs per config: ``verify`` in CSV at ``--grid-n 4096`` and in JSON
at ``--grid-n 256``; ``bounds`` for each ``--phase`` (1, 2, max) and
``table`` for each ``--target`` (phase1, phase2, max), each in CSV and JSON;
and ``sweep`` for each phase and format, with and without ``--residuals``,
over sigma0 from -10 to 10 (5 values) and deltaT from -3 to 3 (3 values).

``OUTDIR/<config>/`` holds the ``config.json`` (and ``sweep.json``) the runs
read, and one ``<run>.txt`` per run: the exit code, stdout, stderr, each
warning raised (category and message), an exception that escaped ``main``
(type and message), and for ``sweep`` the ``--out`` file.  The temporary
path in sweep's "wrote N rows to PATH" line is replaced by ``OUT``, and the
config's path, where a message names it, by ``CONFIG``.  The last line
printed counts the runs that recorded a warning or an escaped exception: the
CLI hides neither, so a floating-point warning that an array function lets
escape shows up there as well as in ``diff -r``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import numpy as np  # noqa: E402

from conftest import random_composite, random_loading  # noqa: E402
from test_cli import EDGE_COMPOSITES, PSTAR  # noqa: E402
from test_radial_oracle import HIGH_CONTRAST  # noqa: E402
from thermobounds.cli import main  # noqa: E402

SEED = 17172
RANDOM_DRAWS = 160
EDGE_LOADING = {"sigma0": 0.3, "deltaT": 1.0}
SWEEP_LOADING = {
    "sigma0": {"start": -10.0, "stop": 10.0, "count": 5},
    "deltaT": {"start": -3.0, "stop": 3.0, "count": 3},
}


def _doc(phase1, phase2, theta1, loading=EDGE_LOADING):
    return {"phase1": dict(phase1), "phase2": dict(phase2), "theta1": theta1,
            "loading": dict(loading)}


def configs():
    """(name, config document) for each of the 174 configs, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for i in range(RANDOM_DRAWS):
        comp = random_composite(rng)
        loading = random_loading(rng)._asdict()
        p1, p2 = comp.phase1._asdict(), comp.phase2._asdict()
        if i % 2:
            yield f"random-{i:03d}-relabeled", _doc(p2, p1, comp.theta1, loading)
        else:
            yield f"random-{i:03d}", _doc(p1, p2, comp.theta1, loading)

    canonical = PSTAR["phase1"], PSTAR["phase2"]
    d_overflow_1, d_overflow_2, _ = EDGE_COMPOSITES["D-overflow"]
    subnormal_1, subnormal_2, _ = EDGE_COMPOSITES["subnormal"]
    yield "edge-high-contrast", _doc(
        HIGH_CONTRAST.phase1._asdict(), HIGH_CONTRAST.phase2._asdict(), HIGH_CONTRAST.theta1
    )
    # TestVerify::test_extreme_shear_contrast_gives_a_complete_report
    for mu1 in (1e200, 1e160):
        yield f"edge-mu1-{mu1:g}", _doc(
            {"k": 1.0, "mu": mu1, "h": 0.0}, {"k": 2.0, "mu": 1.0, "h": 1.0}, 0.5
        )
    # TestVerify::test_overflowing_D_gives_a_complete_report
    for h2 in (1e10, 0.0):
        yield f"edge-D-overflow-h2-{h2:g}", _doc(d_overflow_1, dict(d_overflow_2, h=h2), 0.5)
    # TestVerify::test_out_of_range_fields_give_no_traceback
    for h in (1.0, 1e308, -1e308):
        yield f"edge-subnormal-h-{h:g}", _doc(subnormal_1, dict(subnormal_2, h=h), 0.5)
    # TestVerify's fractions at the ends of (0, 1)
    for theta1 in (5e-324, 1.0 - 2.0**-53):
        yield f"edge-theta1-{theta1!r}", _doc(*canonical, theta1)
    for name in ("thin-coating", "huge-moduli", "huge-expansion"):
        yield f"edge-{name}", _doc(*EDGE_COMPOSITES[name])
    # TestVerify::test_low_shear_example_attains_its_bounds
    yield "edge-low-shear", _doc(
        {"k": 6547231.655060104, "mu": 0.00022172697430455283, "h": 1.5123422653205516},
        {"k": 6484458.1098774355, "mu": 3.766701954033052e-05, "h": 0.08203938560305257},
        0.8440774195461498,
        {"sigma0": 1.4408472842902018, "deltaT": -1.2475408320967802},
    )


def runs():
    """(run name, argv after the config path) for each of the 26 runs."""
    yield "verify-csv-n4096", ["verify", "--grid-n", "4096"]
    yield "verify-json-n256", ["verify", "--format", "json", "--grid-n", "256"]
    for fmt in ("csv", "json"):
        for phase in ("1", "2", "max"):
            yield f"bounds-phase{phase}-{fmt}", ["bounds", "--phase", phase, "--format", fmt]
        for target in ("phase1", "phase2", "max"):
            yield f"table-{target}-{fmt}", ["table", "--target", target, "--format", fmt]
        for phase in ("1", "2", "max"):
            for residuals in ([], ["--residuals"]):
                name = f"sweep-phase{phase}-{fmt}{'-residuals' if residuals else ''}"
                yield name, ["sweep", "--phase", phase, "--format", fmt, *residuals]


def run_one(config: Path, argv: list[str], scratch: Path) -> tuple[str, bool]:
    """One run's record (exit code, stdout, stderr, warnings and sweep file),
    and whether it recorded a warning or an escaped exception."""
    command, *options = argv
    out = scratch / "sweep.out"
    out.unlink(missing_ok=True)
    full = [command, str(config), *options] + (["--out", str(out)] if command == "sweep" else [])
    stdout, stderr = io.StringIO(newline=""), io.StringIO(newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code, escaped = str(main(full)), False
            except Exception as exc:  # noqa: BLE001 - a traceback is an output too
                code, escaped = f"raised {type(exc).__name__}: {exc}", True

    def normalised(text):
        return text.replace(str(out), "OUT").replace(str(config), "CONFIG")

    parts = [f"exit: {code}", "--- stdout", normalised(stdout.getvalue()),
             "--- stderr", normalised(stderr.getvalue())]
    parts += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
    if command == "sweep":
        parts += ["--- sweep", out.read_text() if out.exists() else "(no file)"]
    return "\n".join(parts) + "\n", escaped or bool(caught)


def records(outdir: Path):
    """Run the corpus with its config files under ``outdir``: (path, record,
    whether it recorded a warning or an escaped exception) of each run."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for name, doc in configs():
            folder = outdir / name
            folder.mkdir(parents=True, exist_ok=False)
            config, sweep = folder / "config.json", folder / "sweep.json"
            config.write_text(json.dumps(doc))
            sweep.write_text(json.dumps(dict(doc, loading=SWEEP_LOADING)))
            for run, argv in runs():
                path = sweep if argv[0] == "sweep" else config
                yield f"{name}/{run}.txt", *run_one(path, argv, scratch)


def digest(record: str) -> str:
    """The first 16 hex digits of the sha256 of a record's file."""
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def read_digests(path: Path) -> dict[str, str]:
    """{run path: digest} from a ``--digest`` file."""
    return dict(line.split(" ") for line in path.read_text().splitlines())


def main_corpus(outdir: Path, digest_file: Path | None = None) -> int:
    """Write each run's record under ``outdir``, or only its digest line to ``digest_file``."""
    count = flagged = 0
    lines = []
    for path, record, raised_or_warned in records(outdir):
        if digest_file is None:
            (outdir / path).write_text(record)
        else:
            lines.append(f"{path} {digest(record)}\n")
        count += 1
        flagged += raised_or_warned
    if digest_file is None:
        print(f"wrote {count} runs to {outdir}")
    else:
        digest_file.write_text("".join(lines))
        print(f"wrote {count} run digests to {digest_file}")
    print(f"{flagged} runs recorded a warning or an escaped exception")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] != "--digest":
        sys.exit(main_corpus(Path(sys.argv[1])))
    if len(sys.argv) == 3 and sys.argv[1] == "--digest":
        with tempfile.TemporaryDirectory() as configs_dir:
            sys.exit(main_corpus(Path(configs_dir), Path(sys.argv[2])))
    sys.exit("usage: python tests/corpus.py OUTDIR | --digest FILE")
