"""The three benchmark workloads: seeded inputs, the timed operation, the check.

Inputs are drawn with the standard library's ``random`` only, so making
them imports nothing that ``import thermobounds`` would otherwise pay for.
Input ``i`` of a run comes from its own generator seeded with
``"<workload>-<seed>-<i>"``; a shorter list is a prefix of a longer one.
Input 0 is the warm-up operation that ends set-up; inputs 1..n are timed.

Composites are drawn like the test suite's ``random_composite``: moduli
log-uniform in [0.2, 5] with bulk moduli at least 1e-3 apart (relative),
expansion coefficients in [-2, 2] at least 1e-3 apart, theta1 in
[0.05, 0.95].  Raw phases come in random label order, so about half the
composites are relabelled by the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import exact

TOL_BOUND = 1e-10  # the program's attainment tolerance
TOL_IDENTITY = 1e-12  # the program's identity tolerance

SWEEP_SIGMA0_COUNT = 20
SWEEP_DELTAT_COUNT = 10
SWEEP_ROWS = SWEEP_SIGMA0_COUNT * SWEEP_DELTAT_COUNT
VERIFY_ROWS = 31  # 13 checks per orientation, 2 attainment rows, 3 regime tables
# verify leaves out the composites on which its own checks fail now and then
# (see README.md): a phase with k/mu > 4 (Poisson's ratio > 0.385), where the
# FV oracle misses its 1e-6 tolerance at n = 4096; and near-cancelling thermal
# terms, which the H* dual-route and thermal closed-form checks measure
# against the small result alone, so that roundoff can exceed 1e-12
VERIFY_MAX_K_OVER_MU = 4.0
VERIFY_MIN_THERMAL_SHARE = 1e-2
NEAR_GATE_EVERY = 10  # scatter: timed operations 10, 20, 30, ... are near-gate


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def random_phases(rng: random.Random, max_k_over_mu: float = math.inf):
    """Two raw ``(k, mu, h)`` phases in random label order, and theta of the first."""
    while True:
        ka, kb, mua, mub = (_log_uniform(rng, 0.2, 5.0) for _ in range(4))
        ha, hb = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        if (mua != mub and abs(ka - kb) >= 1e-3 * max(ka, kb) and abs(ha - hb) >= 1e-3
                and max(ka / mua, kb / mub) <= max_k_over_mu):
            return (ka, mua, ha), (kb, mub, hb), rng.uniform(0.05, 0.95)


def _config(phase_a, phase_b, theta_a, sigma0, deltaT) -> dict:
    def phase(p):
        return {"k": p[0], "mu": p[1], "h": p[2]}

    return {
        "phase1": phase(phase_a),
        "phase2": phase(phase_b),
        "theta1": theta_a,
        "loading": {"sigma0": sigma0, "deltaT": deltaT},
    }


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Workload:
    """One workload: its inputs, the timed operation and the check of its output."""

    name: str
    # operations, over all worker processes, per second of --seconds; an
    # operation, its check and its share of run.py's reference work take
    # about 1/ops_per_second seconds on the machine of README.md
    ops_per_second: int
    rows_per_op: int  # CSV rows, check rows or screened composites

    def expected_failures(self, n: int) -> set[int]:
        """Timed operations (1-based) that fail because of a known fault."""
        return set()

    def reference(self, inp):
        """What ``check`` compares an output with, made once per input by ``run.py``."""
        return None


class Sweep(Workload):
    """``thermobounds sweep --phase max`` over a 20 x 10 loading grid, CSV to a file."""

    name = "sweep"
    ops_per_second = 50
    rows_per_op = SWEEP_ROWS

    def inputs(self, seed: int, n: int, workdir: str) -> list[dict]:
        out = []
        for i in range(n + 1):
            rng = random.Random(f"{self.name}-{seed}-{i}")
            phase_a, phase_b, theta_a = random_phases(rng)
            sigma0 = {"start": rng.uniform(-10.0, -1.0), "stop": rng.uniform(1.0, 10.0),
                      "count": SWEEP_SIGMA0_COUNT}
            deltaT = {"start": rng.uniform(-3.0, 0.0), "stop": rng.uniform(0.5, 3.0),
                      "count": SWEEP_DELTAT_COUNT}
            path = os.path.join(workdir, f"sweep-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_config(phase_a, phase_b, theta_a, sigma0, deltaT), fh)
            out_path = os.path.join(workdir, "sweep-out.csv")
            out.append({
                "argv": ["sweep", path, "--out", out_path, "--phase", "max"],
                "out": out_path,
                "phases": (phase_a, phase_b, theta_a),
                "sigma0": sigma0,
                "deltaT": deltaT,
            })
        return out

    def run(self, tb, inp):
        return _run_cli(tb.cli, inp["argv"])

    def reference(self, inp):
        return exact.endpoint_terms(exact.constants(exact.exact_composite(*inp["phases"])))

    def check(self, inp, terms, output) -> list[str]:
        rc, text = output
        if rc != 0 or text != f"wrote {SWEEP_ROWS} rows to {inp['out']}\n":
            return [f"exit {rc}, stdout {text!r}"]
        with open(inp["out"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != SWEEP_ROWS:
            return [f"{len(rows)} rows, expected {SWEEP_ROWS}"]
        s, d = inp["sigma0"], inp["deltaT"]
        errors = []
        for j, row in enumerate(rows):
            sigma0, deltaT = float(row["sigma0"]), float(row["deltaT"])
            grid = (_grid(s, j // SWEEP_DELTAT_COUNT), _grid(d, j % SWEEP_DELTAT_COUNT))
            if not all(_on_grid(x, g) for x, g in zip((sigma0, deltaT), grid)):
                errors.append(f"row {j}: loading ({sigma0}, {deltaT}) is off the grid {grid}")
                continue
            reference = exact.max_bound_from_terms(terms, sigma0, deltaT)
            err = exact.bound_error(float(row["value"]), reference, sigma0, deltaT)
            if not err <= TOL_BOUND:
                errors.append(f"row {j}: bound error {err:.3g}")
        return errors


def _grid(axis: dict, i: int) -> float:
    return axis["start"] + (axis["stop"] - axis["start"]) * i / (axis["count"] - 1)


def _on_grid(x: float, g: float) -> bool:
    # the two ways of stepping a range differ in the last bits only
    return abs(x - g) <= 1e-12 * max(abs(g), 1.0)


def _thermal_terms_cancel(c: exact.ExactComposite, consts: exact.ExactConstants) -> bool:
    """True when k1 h1 - k2 h2 or H* of either orientation is under 1% of its terms."""
    kh1, kh2 = c.k1 * c.h1, c.k2 * c.h2
    scale = VERIFY_MIN_THERMAL_SHARE * max(abs(kh1), abs(kh2))
    return abs(kh1 - kh2) < scale or any(
        abs(exact.h_star(c, K)) < 3 * scale for K in (consts.K_minus, consts.K_plus))


class Verify(Workload):
    """``thermobounds verify`` at the default --grid-n 4096, one composite per operation.

    Loadings are drawn so that both per-phase bounds are nonzero, which
    gives every operation both attainment rows and the same 31 check rows.
    Composites are redrawn as the comment at VERIFY_MAX_K_OVER_MU says.
    """

    name = "verify"
    ops_per_second = 45
    rows_per_op = VERIFY_ROWS

    def inputs(self, seed: int, n: int, workdir: str) -> list[dict]:
        out = []
        for i in range(n + 1):
            rng = random.Random(f"{self.name}-{seed}-{i}")
            while True:
                phase_a, phase_b, theta_a = random_phases(rng, VERIFY_MAX_K_OVER_MU)
                c = exact.exact_composite(phase_a, phase_b, theta_a)
                consts = exact.constants(c)
                if not _thermal_terms_cancel(c, consts):
                    break
            while True:
                sigma0, deltaT = rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)
                floor = 1e-3 * (abs(sigma0) + abs(deltaT))
                if all(exact.phase_bound(consts, p, sigma0, deltaT) > floor for p in (1, 2)):
                    break
            path = os.path.join(workdir, f"verify-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_config(phase_a, phase_b, theta_a, sigma0, deltaT), fh)
            out.append({"argv": ["verify", path]})
        return out

    def run(self, tb, inp):
        return _run_cli(tb.cli, inp["argv"])

    def check(self, inp, ref, output) -> list[str]:
        rc, text = output
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        errors = [f"{r['check']} [{r['orientation']}] {r['status']}: residual {r['residual']}"
                  for r in rows if r["status"] != "pass"]
        if rc != 0:
            errors.append(f"exit {rc}")
        if len(rows) != VERIFY_ROWS:
            errors.append(f"{len(rows)} check rows, expected {VERIFY_ROWS}")
        return errors


def _near_gate_cases() -> list[tuple]:
    """Ten fixed composites whose bulk moduli are 1e-11 to 1e-7 apart (relative).

    They do not depend on the seed: each fails its bound check every time,
    because ``bounds`` loses the bound to cancellation this close to the
    1e-12 equality gate while the coated-sphere field stays exact.
    """
    rng = random.Random("near-gate")
    cases = []
    for j in range(NEAR_GATE_EVERY):
        (ka, mua, ha), (_, mub, hb), theta_a = random_phases(rng)
        kb = ka * (1.0 + 10.0 ** (-11.0 + 4.0 * j / (NEAR_GATE_EVERY - 1)))
        sigma0 = rng.uniform(-2.0, 2.0)
        deltaT = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        cases.append(((ka, mua, ha), (kb, mub, hb), theta_a, sigma0, deltaT))
    return cases


class Scatter(Workload):
    """Library screening loop: one candidate composite per operation, no CLI.

    Each operation builds the composite from raw phases, takes the max-field
    bound, the effective properties and local fields of both coated-sphere
    orientations, and the designated assemblage's moment.  Every tenth timed
    operation is a fixed near-gate composite (see ``_near_gate_cases``).
    """

    name = "scatter"
    ops_per_second = 1800
    rows_per_op = 1  # one screened composite

    def inputs(self, seed: int, n: int, workdir: str) -> list[tuple]:
        near_gate = _near_gate_cases()
        out = []
        for i in range(n + 1):
            if i and i % NEAR_GATE_EVERY == 0:
                out.append(near_gate[(i // NEAR_GATE_EVERY - 1) % NEAR_GATE_EVERY])
                continue
            rng = random.Random(f"{self.name}-{seed}-{i}")
            phase_a, phase_b, theta_a = random_phases(rng)
            out.append((phase_a, phase_b, theta_a,
                        rng.uniform(-10.0, 10.0), rng.uniform(-3.0, 3.0)))
        return out

    def expected_failures(self, n: int) -> set[int]:
        return set(range(NEAR_GATE_EVERY, n + 1, NEAR_GATE_EVERY))

    def run(self, tb, inp):
        phase_a, phase_b, theta_a, sigma0, deltaT = inp
        composite, swapped = tb.build_composite(
            tb.PhaseProperties(*phase_a), tb.PhaseProperties(*phase_b), theta_a)
        loading = tb.Loading(sigma0, deltaT)
        bound = tb.max_field_lower_bound(composite, loading)
        spheres = []
        for core in (1, 2):
            sphere = tb.CoatedSphereConfig(composite=composite, core_phase=core)
            spheres.append((tb.effective_properties(sphere),
                            tb.local_field_constants(sphere, loading)))
        micro = bound.microstructure
        designated = tb.CoatedSphereConfig(composite=composite, core_phase=micro.core_phase)
        moment = tb.phase_moment(designated, loading, micro.max_attaining_phase, math.inf)
        return composite, swapped, bound, spheres, moment

    def reference(self, inp) -> tuple:
        """Swap flag, relabelled (k1, mu1, k2, mu2), bound, (K, H*) per core, H* scale, volumes.

        A tuple rather than a dict: every worker holds the references of all
        its operations, and their size counts in its peak RSS.
        """
        phase_a, phase_b, theta_a, sigma0, deltaT = inp
        c = exact.exact_composite(phase_a, phase_b, theta_a)
        consts = exact.constants(c)
        return (
            phase_a[1] < phase_b[1],
            tuple(float(x) for x in (c.k1, c.mu1, c.k2, c.mu2)),
            float(exact.max_bound(consts, sigma0, deltaT)) * exact.SQRT3,
            tuple((float(K), float(exact.h_star(c, K))) for K in (consts.K_minus, consts.K_plus)),
            3.0 * max(abs(float(c.k1 * c.h1)), abs(float(c.k2 * c.h2))),
            (float(c.theta1), float(c.theta2)),
        )

    def check(self, inp, ref, output) -> list[str]:
        phase_a, phase_b, theta_a, sigma0, deltaT = inp
        composite, swapped, bound, spheres, moment = output
        ref_swapped, relabelled, ref_bound, ref_spheres, h_scale, volume = ref
        errors = []
        if swapped != ref_swapped or (
            composite.phase1.k, composite.phase1.mu, composite.phase2.k, composite.phase2.mu
        ) != relabelled:
            errors.append(f"relabelling: swapped={swapped}")
        for what, value in (("max bound", bound.value), ("designated moment", moment)):
            err = exact.bound_error(value, ref_bound, sigma0, deltaT)
            if not err <= TOL_BOUND:
                errors.append(f"{what} error {err:.3g}")
        for core, (K, H), (props, fields) in zip((1, 2), ref_spheres, spheres):
            K_err = abs(props.K_effective - K) / K
            H_err = abs(props.H_effective_scalar - H) / max(abs(H), h_scale)
            # the stress trace averages to 3 sigma0 over the assemblage; each
            # phase's trace 9 k (e - h deltaT) is measured against its terms
            core_phase, coat_phase = composite.phase(core), composite.phase(3 - core)
            parts = (volume[core - 1] * fields.tr_sigma_core,
                     volume[2 - core] * fields.tr_sigma_coating)
            terms = (
                volume[core - 1] * (abs(fields.tr_sigma_core)
                                    + 9.0 * core_phase.k * abs(core_phase.h * deltaT)),
                volume[2 - core] * (abs(fields.tr_sigma_coating)
                                    + 9.0 * coat_phase.k * abs(coat_phase.h * deltaT)),
            )
            avg_err = abs(sum(parts) - 3.0 * sigma0) / max(*terms, 3.0 * abs(sigma0))
            for what, err in (("K_eff", K_err), ("H*", H_err), ("mean stress trace", avg_err)):
                if not err <= TOL_IDENTITY:
                    errors.append(f"core{core} {what} error {err:.3g}")
        return errors


WORKLOADS = {w.name: w for w in (Sweep(), Verify(), Scatter())}
