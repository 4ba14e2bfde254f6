"""Metamorphic relations of the CLI's outputs, run on random composites.

Each relation changes a config in a way whose effect on the output is known
exactly, runs :func:`thermobounds.cli.main` on both configs in JSON, and
compares.  The changes are exact in IEEE arithmetic (a power-of-two scale, a
sign, a relabeling with an exact complementary fraction), so the relations
hold bit for bit and need no reference implementation:

* R1 units: the four moduli and sigma0 times 2**j.  The stress columns of
  ``bounds``, ``table`` and ``sweep`` (sigma0 and value; D and the sigma0
  range of a regime) scale by exactly 2**j, the formula by its text of D,
  and every other column stays.  ``verify``'s residuals come from routes
  whose bits may move, so its rows keep their check, orientation and
  status, and whether they have a note, at ``--grid-n 256``.
* R2 sign: (sigma0, deltaT) -> (-sigma0, -deltaT) keeps every bound value.
* R3 expansion: (h1, h2, deltaT) -> (2 h1, 2 h2, deltaT/2) keeps every bound value.
* R4 order: the phases listed the other way, with fraction 1 - theta1, keep
  every bound value in the caller's numbering.

The composites come from ``random.Random("relations")``: moduli log-uniform
in [0.2, 5], h uniform in [-2, 2], theta1 a multiple of 2**-52 in
[0.05, 0.95] (so 1 - theta1 is exact), sigma0 uniform in [-10, 10] and
deltaT in [-3, 3].  ``sweep`` runs each over a fixed 9 x 3 loading grid, and
``verify`` only the first 20, to keep the file near 2 s.
"""

import contextlib
import functools
import io
import json
import math
import random
from pathlib import Path

import pytest

from thermobounds.cli import main

DRAWS = 60
VERIFY_DRAWS = 20
PHASES = ("1", "2", "max")
STRESS_COLUMNS = {"bounds": {"sigma0", "value"}, "table": {"D", "sigma0_min", "sigma0_max"}}
SWEEP_LOADING = {
    "sigma0": {"start": -10.0, "stop": 10.0, "count": 9},
    "deltaT": {"start": -3.0, "stop": 3.0, "count": 3},
}


def _draws():
    rng = random.Random("relations")

    def log_uniform():
        return math.exp(rng.uniform(math.log(0.2), math.log(5.0)))

    docs = []
    while len(docs) < DRAWS:
        ka, kb, mua, mub = (log_uniform() for _ in range(4))
        ha, hb = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        theta1 = math.ldexp(rng.randint(math.ceil(0.05 * 2**52), math.floor(0.95 * 2**52)), -52)
        sigma0, deltaT = rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)
        if mua == mub or abs(ka - kb) <= 1e-9 * max(ka, kb):
            continue
        docs.append({
            "phase1": {"k": ka, "mu": mua, "h": ha},
            "phase2": {"k": kb, "mu": mub, "h": hb},
            "theta1": theta1,
            "loading": {"sigma0": sigma0, "deltaT": deltaT},
        })
    return docs


DOCS = _draws()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(doc, *argv)``: exit code and parsed JSON rows of one CLI run, cached."""
    folder = tmp_path_factory.mktemp("relations")

    @functools.cache
    def cached(text, argv):
        config, out = folder / "config.json", folder / "sweep.out"
        config.write_text(text)
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(config), *argv[1:], "--format", "json", *extra])
        lines = out.read_text() if argv[0] == "sweep" else stdout.getvalue()
        return code, [json.loads(line) for line in lines.splitlines()]

    return lambda doc, *argv: cached(json.dumps(doc), argv)


def _float(x):
    """A JSON cell as a float: infinities are written as the strings "inf" and "-inf"."""
    return float(x) if isinstance(x, str) else x


def _same(x, y) -> bool:
    """Bitwise equality of two cells (so -0.0 is not 0.0)."""
    return repr(x) == repr(y)


def _scaled(doc, j):
    """R1: the moduli and sigma0 (or its sweep range) times 2**j."""
    phases = {key: dict(doc[key], k=math.ldexp(doc[key]["k"], j), mu=math.ldexp(doc[key]["mu"], j))
              for key in ("phase1", "phase2")}
    sigma0 = doc["loading"]["sigma0"]
    if isinstance(sigma0, dict):
        sigma0 = dict(sigma0, **{end: math.ldexp(sigma0[end], j) for end in ("start", "stop")})
    else:
        sigma0 = math.ldexp(sigma0, j)
    return dict(doc, **phases, loading=dict(doc["loading"], sigma0=sigma0))


def _unit_violations(base, scaled, j, stress):
    """The cells of ``scaled`` rows that break R1 against the ``base`` rows."""
    if len(base) != len(scaled):
        return [f"{len(base)} rows became {len(scaled)}"]
    bad = []
    for i, (b, s) in enumerate(zip(base, scaled)):
        for key, value in b.items():
            if key in stress:
                want = math.ldexp(_float(value), j)
                ok = _same(_float(s[key]), want)
            elif key == "formula":
                # the formula writes D with 17 significant digits
                d_base, d_scaled = ("(%.17g)" % _float(row["D"]) for row in (b, s))
                ok = s[key] == value.replace(d_base, d_scaled)
            else:
                ok = _same(s[key], value)
            if not ok:
                bad.append(f"row {i} {key}: {value!r} -> {s[key]!r}")
    return bad


def _bound_values(run, doc, phase):
    code, rows = run(doc, "bounds", "--phase", phase)
    assert code == 0
    return [repr(row["value"]) for row in rows]


@pytest.mark.parametrize("j", [1, -1, 64, -64])
def test_r1_units_scale_the_stress_columns(run, j):
    failures = []
    for n, doc in enumerate(DOCS):
        sweep_doc = dict(doc, loading=SWEEP_LOADING)
        cases = [(doc, "bounds", "--phase", phase) for phase in PHASES]
        cases += [(doc, "table", "--target", target) for target in ("phase1", "phase2", "max")]
        cases += [(sweep_doc, "sweep", "--phase", "max")]
        for config, *argv in cases:
            base_code, base = run(config, *argv)
            code, scaled = run(_scaled(config, j), *argv)
            stress = STRESS_COLUMNS["table" if argv[0] == "table" else "bounds"]
            bad = _unit_violations(base, scaled, j, stress)
            if code != base_code:
                bad.append(f"exit {base_code} -> {code}")
            failures += [f"draw {n} {' '.join(argv)}: {b}" for b in bad]
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("j", [1, -1, 64, -64, 256, -256])
def test_r1_units_keep_the_verify_statuses(run, j):
    failures = []
    for n, doc in enumerate(DOCS[:VERIFY_DRAWS]):
        results = [run(config, "verify", "--grid-n", "256") for config in (doc, _scaled(doc, j))]
        (base_code, base), (code, scaled) = results
        fields = [[(r["check"], r["orientation"], r["status"], bool(r["note"])) for r in rows]
                  for rows in (base, scaled)]
        if code != base_code:
            failures.append(f"draw {n}: exit {base_code} -> {code}")
        failures += [f"draw {n}: {b} -> {s}" for b, s in zip(*fields) if b != s]
        if len(base) != len(scaled):
            failures.append(f"draw {n}: {len(base)} rows became {len(scaled)}")
    assert not failures, "\n".join(failures[:20])


def test_r2_flipping_the_loading_keeps_the_bound_values(run):
    failures = []
    for n, doc in enumerate(DOCS):
        loading = doc["loading"]
        flipped = dict(doc, loading={"sigma0": -loading["sigma0"], "deltaT": -loading["deltaT"]})
        for phase in PHASES:
            before, after = (_bound_values(run, d, phase) for d in (doc, flipped))
            if before != after:
                failures.append(f"draw {n} phase {phase}: {before} -> {after}")
    assert not failures, "\n".join(failures[:20])


def test_r3_doubling_the_expansion_at_half_deltaT_keeps_the_bound_values(run):
    failures = []
    for n, doc in enumerate(DOCS):
        doubled = dict(
            doc,
            **{key: dict(doc[key], h=2.0 * doc[key]["h"]) for key in ("phase1", "phase2")},
            loading=dict(doc["loading"], deltaT=doc["loading"]["deltaT"] / 2.0),
        )
        for phase in PHASES:
            before, after = (_bound_values(run, d, phase) for d in (doc, doubled))
            if before != after:
                failures.append(f"draw {n} phase {phase}: {before} -> {after}")
    assert not failures, "\n".join(failures[:20])


def test_r4_listing_the_phases_the_other_way_keeps_the_bound_values(run):
    failures = []
    for n, doc in enumerate(DOCS):
        other = dict(doc, phase1=doc["phase2"], phase2=doc["phase1"], theta1=1.0 - doc["theta1"])
        for phase, other_phase in zip(PHASES, ("2", "1", "max")):
            before, after = _bound_values(run, doc, phase), _bound_values(run, other, other_phase)
            if before != after:
                failures.append(f"draw {n} phase {phase}: {before} -> {after}")
    assert not failures, "\n".join(failures[:20])
