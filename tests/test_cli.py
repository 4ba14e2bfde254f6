import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import thermobounds
from conftest import classify_branch, random_composite, random_loading
from thermobounds import Ordering, characteristic_constants, regime_table
from thermobounds.bounds import (
    BRANCH_IDS,
    ENDPOINT_CODES,
    SQRT3,
    MicrostructureKind,
    bound_grid,
    thermal_stress_scale,
)
from thermobounds import CoatedSphereConfig, Loading, PhaseProperties, build_composite
from thermobounds import compare_fields, sample_analytic_fields
from thermobounds.materials import EndpointLine, _swap_phase
from thermobounds import bounds, cli, verify
from thermobounds.cli import Coded, emit_rows, main
from test_endpoint_table import wide_domain_samples

PSTAR = {
    "phase1": {"k": 2.0, "mu": 1.0, "h": 0.0},
    "phase2": {"k": 1.0, "mu": 0.5, "h": 1.0},
    "theta1": 0.5,
    "loading": {"sigma0": 0.0, "deltaT": 1.0},
}


CORE_CHECKS = (
    "thermal-displacement-continuity",
    "thermal-traction-continuity",
    "thermal-outer-clamped",
    "thermal-closed-form-agreement",
    "mechanical-displacement-continuity",
    "mechanical-traction-continuity",
    "mechanical-outer-traction",
    "effective-thermal-stress-dual-route",
    "effective-bulk-modulus-dual-route",
    "exact-thermal-relation",
    "average-stress-identity",
    "oracle-field-agreement",
    "moment-exponent-independence",
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestBounds:
    def test_canonical_phase2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "bounds", cfg, "--phase", "2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["value"]) == pytest.approx(1.154701, abs=1e-6)
        assert row["core_phase"] == "1" and row["coating_phase"] == "2"
        assert row["branch"] == "M-branch-left"
        assert row["relabeled"] == "false"

    def test_json_rows_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "bounds", cfg, "--phase", "max", "--format", "json")
        assert code == 0
        row = json.loads(out.strip())
        assert set(row) >= {
            "sigma0", "deltaT", "phase", "p", "value", "argmin", "at_endpoint",
            "branch", "core_phase", "coating_phase", "max_attaining_phase",
            "relabeled",
        }
        assert row["value"] == pytest.approx(1.1547005, abs=1e-6)

    def test_p_inf_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "bounds", cfg, "--phase", "2", "--p", "inf")
        assert code == 0

    def test_equal_bulk_moduli_exit_2(self, tmp_path, capsys):
        doc = dict(PSTAR, phase1={"k": 1.0, "mu": 1.0, "h": 0.0})
        cfg = write_config(tmp_path, doc)
        code, _, err = run(capsys, "bounds", cfg)
        assert code == 2
        assert "EqualBulkModuli" in err

    def test_invalid_exponent_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, _, err = run(capsys, "bounds", cfg, "--p", "1")
        assert code == 2
        assert "InvalidExponent" in err

    def test_empty_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code, _, err = run(capsys, "bounds", cfg)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "bounds", "/nonexistent/config.json")
        assert code == 2

    def test_caller_labeling_preserved_through_swap(self, tmp_path, capsys):
        # same composite with the materials listed in the other order
        swapped_doc = {
            "phase1": PSTAR["phase2"],
            "phase2": PSTAR["phase1"],
            "theta1": 0.5,
            "loading": PSTAR["loading"],
        }
        cfg_a = write_config(tmp_path, PSTAR, "a.json")
        cfg_b = write_config(tmp_path, swapped_doc, "b.json")
        _, out_a, _ = run(capsys, "bounds", cfg_a, "--phase", "2")
        _, out_b, _ = run(capsys, "bounds", cfg_b, "--phase", "1")
        row_a, row_b = parse_csv(out_a)[0], parse_csv(out_b)[0]
        assert float(row_a["value"]) == pytest.approx(float(row_b["value"]), rel=1e-15)
        assert row_b["relabeled"] == "true"
        # caller's phase 1 is the internal phase 2; core/coating reported in
        # caller numbering
        assert row_a["core_phase"] == "1" and row_b["core_phase"] == "2"
        assert row_a["coating_phase"] == "2" and row_b["coating_phase"] == "1"

    def test_scalar_row_equals_the_sweep_row(self, tmp_path, capsys):
        # bounds and sweep build their rows with one bound_grid call; their
        # reports must be the bytes of the per-loading classify_branch reference
        docs = list(bounds_cases(np.random.default_rng(4040)))
        assert len(docs) >= 300
        cfg, out = str(tmp_path / "config.json"), tmp_path / "rows.out"
        for i, doc in enumerate(docs):
            Path(cfg).write_text(json.dumps(doc))
            parsed = cli.load_run_config(cfg)
            p = ("2", "inf", "1.5")[i % 3]
            for flag in ("1", "2", "max"):
                columns = reference_bound_columns(parsed, flag, float(p))
                for fmt_name in ("csv", "json"):
                    argv = ("bounds", cfg, "--phase", flag, "--format", fmt_name, "--p", p)
                    assert run(capsys, *argv) == (0, _emit(columns, fmt_name), ""), (doc, flag)
            for j, grid in enumerate(sweep_grids(doc["loading"], with_zero_deltaT=i % 4 == 0)):
                Path(cfg).write_text(json.dumps(dict(doc, loading=grid)))
                parsed = cli.load_run_config(cfg, allow_sweep=True)
                # each of the 12 flag and format combinations every 12 configs
                flag = ("1", "2", "max")[(i + j) % 3]
                fmt_name, residuals = SWEEP_FORMATS[(i + j) // 3 % len(SWEEP_FORMATS)]
                columns = reference_bound_columns(parsed, flag, float(p), residuals)
                argv = ["sweep", cfg, "--out", str(out), "--phase", flag, "--p", p,
                        "--format", fmt_name, *["--residuals"] * residuals]
                rows = len(columns["value"])
                assert run(capsys, *argv) == (0, f"wrote {rows} rows to {out}\n", "")
                assert out.read_bytes().decode() == _emit(columns, fmt_name), (doc, grid, flag)


def reference_bound_columns(cfg, phase_flag, p, residuals=False) -> dict:
    """The columns of a ``bounds`` or ``sweep`` report by one :func:`classify_branch` per loading.

    The reference the CLI's grid-kernel reports must match byte for byte.
    """
    comp, relabeled = cfg.composite, cfg.relabeled
    target = cli._internal_target(phase_flag, relabeled)
    sigma_values, delta_values = cli._axis_values(cfg.sigma0), cli._axis_values(cfg.deltaT)
    ns, nd = len(sigma_values), len(delta_values)
    sigma_codes = [i for i in range(ns) for _ in range(nd)]
    delta_codes = [j for _ in range(ns) for j in range(nd)]
    value, argmin, endpoint, branch, core, phase = [], [], [], [], [], []
    for i, j in zip(sigma_codes, delta_codes):
        result, name = classify_branch(comp, delta_values[j], target, sigma_values[i])
        m = result.microstructure
        value.append(result.value)
        argmin.append(result.argmin_compliance)
        endpoint.append(ENDPOINT_CODES.index(result.at_endpoint))
        branch.append(BRANCH_IDS.index(name))
        core.append(m.core_phase or 0)
        # the phase bounded: the winner of a max-field bound, where one is designated
        phase.append(m.max_attaining_phase or 0 if target == "max" else int(target[-1]))
    zeros = [0] * (ns * nd)  # the codes of a constant column
    # indexed by core phase; core 0: the bound is 0 and no assemblage is designated
    phases = (None, _swap_phase(1, relabeled), _swap_phase(2, relabeled))
    coated = MicrostructureKind.COATED_SPHERES.value
    columns = {
        "sigma0": Coded(tuple(sigma_values), sigma_codes),
        "deltaT": Coded(tuple(delta_values), delta_codes),
        "phase": Coded((phase_flag,), zeros),
        "p": Coded((p,), zeros),
        "value": value,
        "argmin": argmin,
        "at_endpoint": Coded(tuple(e.value for e in ENDPOINT_CODES), endpoint),
        "branch": Coded(BRANCH_IDS, branch),
        "microstructure": Coded((MicrostructureKind.UNDETERMINED.value, coated, coated), core),
        "core_phase": Coded(phases, core),
        "coating_phase": Coded((None, phases[2], phases[1]), core),
        "max_attaining_phase": (
            Coded(phases, [w if c else 0 for w, c in zip(phase, core)])
            if target == "max" else Coded((None,), zeros)
        ),
        "relabeled": Coded((relabeled,), zeros),
    }
    if residuals:
        solves = verify._unit_solves(CoatedSphereConfig(comp, core) for core in (1, 2))
        residual = []
        for i, j, v, c, ph in zip(sigma_codes, delta_codes, value, core, phase):
            if not c:
                residual.append(None)
                continue
            s0, dT = sigma_values[i], delta_values[j]
            by_sigma0, by_deltaT, _ = solves[c]
            if ph == c:
                trace = by_sigma0.tr_core * s0 + by_deltaT.tr_core * dT
            else:
                trace = by_sigma0.tr_coating * s0 + by_deltaT.tr_coating * dT
            scale = max(v, abs(s0) + abs(dT), 1e-300)
            residual.append(abs(abs(trace) / SQRT3 - v) / scale)
        columns["attainment_residual"] = residual
    return columns


#: the (--format, --residuals) of the sweeps of test_scalar_row_equals_the_sweep_row
SWEEP_FORMATS = [(fmt_name, residuals) for fmt_name in ("csv", "json") for residuals in (False, True)]


def sweep_grids(loading, with_zero_deltaT=False):
    """Sweep loadings whose first row is ``loading``, and one with a row at deltaT == 0.

    A first row at sigma0 == D stays there.  The second grid's rows at
    deltaT == 0 include sigma0 == 0 == D.
    """
    sigma0, deltaT = loading["sigma0"], loading["deltaT"]
    yield {
        "sigma0": {"start": sigma0, "stop": sigma0 + max(1.0, abs(sigma0)), "count": 3},
        "deltaT": {"start": deltaT, "stop": deltaT + 1.0, "count": 2},
    }
    if with_zero_deltaT:
        # steps of exactly 1: the rows land on -1, 0 and 1, and on -2 .. 2
        yield {
            "sigma0": {"start": -2.0, "stop": 2.0, "count": 5},
            "deltaT": {"start": -1.0, "stop": 1.0, "count": 3},
        }


def _doc(phase1, phase2, theta1, sigma0, deltaT):
    return {
        "phase1": phase1._asdict(),
        "phase2": phase2._asdict(),
        "theta1": theta1,
        "loading": {"sigma0": sigma0, "deltaT": deltaT},
    }


def bounds_cases(rng):
    """Configs of 320 composites: ordinary, wide-domain, relabeled, zero bounds and sigma0 == D."""
    wide = [(comp, loading) for comp, loadings in wide_domain_samples(80, seed=12)
            for loading in loadings[:1]]
    ordinary = [(random_composite(rng), random_loading(rng)) for _ in range(80)]
    for comp, loading in ordinary + wide:
        yield _doc(comp.phase1, comp.phase2, comp.theta1, loading.sigma0, loading.deltaT)
    for comp, loading in ordinary[:40] + wide[:40]:
        # listed with the lower shear modulus first, so the CLI relabels them
        yield _doc(comp.phase2, comp.phase1, comp.theta2, loading.sigma0, loading.deltaT)
    for i in range(40):
        # inside the zero row of a phase-1 table; every fifth at D = sigma0 = 0
        comp, sigma0, deltaT = random_composite(rng), 0.0, 0.0
        if i % 5:
            deltaT = random_loading(rng).deltaT
            (zero,) = [r for r in regime_table(comp, deltaT, "phase1").rows if r.branch == "Zero"]
            sigma0 = 0.5 * (zero.sigma_lo + zero.sigma_hi)
        assert classify_branch(comp, deltaT, "phase1", sigma0)[1] == "Zero"
        yield _doc(comp.phase1, comp.phase2, comp.theta1, sigma0, deltaT)
    for comp, loading in ordinary[40:60] + wide[40:60]:
        D = thermal_stress_scale(comp, loading.deltaT)
        yield _doc(comp.phase1, comp.phase2, comp.theta1, D, loading.deltaT)


HUGE_PHASE = {"k": 1e300, "mu": 1e300, "h": 0.0}


class TestTable:
    def test_bounds_inside_each_row_names_its_assemblage(self, tmp_path, capsys, rng):
        # table and bounds print the attaining assemblage through one helper; at a sigma0
        # strictly inside a table row, bounds must name that row's
        columns = ("branch", "microstructure", "core_phase", "coating_phase",
                   "max_attaining_phase", "relabeled")
        checked = 0
        for i in range(60):
            comp, loading = random_composite(rng), random_loading(rng)
            p1, p2 = comp.phase1._asdict(), comp.phase2._asdict()
            if i % 2:  # listed relabeled
                p1, p2 = p2, p1
            doc = {"phase1": p1, "phase2": p2, "theta1": comp.theta1, "loading": loading._asdict()}
            cfg = write_config(tmp_path, doc)
            for flag, target in (("1", "phase1"), ("2", "phase2"), ("max", "max")):
                code, out, _ = run(capsys, "table", cfg, "--target", target)
                assert code == 0
                for row in parse_csv(out):
                    lo, hi = float(row["sigma0_min"]), float(row["sigma0_max"])
                    if math.isinf(lo):
                        sigma0 = hi - (1.0 + abs(hi))
                    elif math.isinf(hi):
                        sigma0 = lo + (1.0 + abs(lo))
                    else:
                        sigma0 = 0.5 * (lo + hi)
                    assert lo < sigma0 < hi
                    point = dict(doc, loading={"sigma0": sigma0, "deltaT": loading.deltaT})
                    point_cfg = write_config(tmp_path, point, "point.json")
                    code, out, _ = run(capsys, "bounds", point_cfg, "--phase", flag)
                    (bound,) = parse_csv(out)
                    assert [bound[c] for c in columns] == [row[c] for c in columns], (
                        i, target, sigma0
                    )
                    checked += 1
        assert checked >= 60 * 3 * 2

    def test_canonical_phase2_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "table", cfg, "--target", "phase2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[0]["sigma0_min"] == "-inf" and rows[-1]["sigma0_max"] == "inf"
        assert float(rows[0]["sigma0_max"]) == pytest.approx(-6.0)
        assert float(rows[1]["sigma0_max"]) == pytest.approx(0.75)
        assert float(rows[2]["sigma0_max"]) == pytest.approx(1.2)
        assert [r["branch"] for r in rows] == [
            "L-branch-left", "M-branch-left", "Zero", "L-branch-right",
        ]

    def test_deltaT_zero_two_rows(self, tmp_path, capsys):
        doc = dict(PSTAR, loading={"sigma0": 0.0, "deltaT": 0.0})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run(capsys, "table", cfg, "--target", "phase2")
        assert code == 0
        assert len(parse_csv(out)) == 2

    def test_max_three_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "table", cfg, "--target", "max")
        rows = parse_csv(out)
        assert code == 0 and len(rows) == 3
        assert float(rows[0]["sigma0_max"]) == pytest.approx(-6.0)
        assert float(rows[1]["sigma0_max"]) == pytest.approx(0.0, abs=1e-12)

    def test_formula_strings_evaluate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        _, out, _ = run(capsys, "table", cfg, "--target", "phase2")
        for row in parse_csv(out):
            expr = row["formula"].replace("sqrt(3)", str(math.sqrt(3.0)))
            for s0 in (-8.0, 0.5):
                val = eval(expr, {"__builtins__": {}}, {"sigma0": s0})  # noqa: S307
                assert val == val  # evaluates to a number

    @pytest.mark.parametrize("target", ["phase1", "phase2", "max"])
    @pytest.mark.parametrize("phase1, phase2", [
        pytest.param(HUGE_PHASE, {"k": 5e299, "mu": 5e299, "h": 1e10}, id="10000000000.0"),
        pytest.param(HUGE_PHASE, {"k": 5e299, "mu": 5e299, "h": 0.0}, id="0.0"),
        pytest.param(PSTAR["phase1"], {"k": 5e-324, "mu": 5e-324, "h": 1.0}, id="5e-324"),
    ])
    def test_non_finite_D(self, tmp_path, capsys, phase1, phase2, target):
        # D = -inf at h2 = 1e10: the table printed breakpoints of -inf and nan
        # and exited 0; at h2 = 0, D = 0 and the table is finite.  At moduli of
        # 5e-324 the L2 line's t is 0, and a per-phase table raised ZeroDivisionError
        cfg = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2))
        code, out, err = run(capsys, "table", cfg, "--target", target)
        if phase2["h"] == 1e10:
            assert (code, out) == (1, "")
            assert err.startswith("D = -inf: ") and err.count("\n") == 1
        elif phase2["h"] == 0.0:
            rows = parse_csv(out)
            assert code == 0 and [r["D"] for r in rows] == ["-0", "-0"]
        elif target == "max":
            assert code == 0 and all(math.isfinite(float(r["D"])) for r in parse_csv(out))
        else:
            assert (code, out) == (1, "")
            assert err.endswith("breakpoints are not finite\n") and err.count("\n") == 1


class TestVerify:
    def test_passes_at_coarse_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, out, _ = run(capsys, "verify", cfg, "--grid-n", "256")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["status"] == "pass" for r in rows)
        oracle_rows = [r for r in rows if r["check"] == "oracle-field-agreement"]
        assert len(oracle_rows) == 2
        assert all("discretization-limited" in r["note"] for r in oracle_rows)

    def test_one_exact_solve_per_sphere(self, tmp_path, capsys, monkeypatch):
        # per core, one solve gives the unit-traction, unit-deltaT and clamped
        # thermal solutions that the attainment, bulk-modulus and closed-form rows share
        calls = []
        solve = verify._solve_shell
        monkeypatch.setattr(
            verify, "_solve_shell", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs)
        )
        assert run(capsys, "verify", write_config(tmp_path, PSTAR))[0] == 0
        assert len(calls) == 2

    def test_one_kernel_pass_per_phase_over_the_table_samples(self, tmp_path, capsys, monkeypatch):
        # the three regime tables share each phase's rows over the 200
        # samples; every other pass is one row, or one per table region
        passes = []
        for module in (bounds, verify):
            kernel = module._phase_rows
            monkeypatch.setattr(
                module, "_phase_rows",
                lambda entry, s, D, kernel=kernel: passes.append(len(s)) or kernel(entry, s, D),
            )
        assert run(capsys, "verify", write_config(tmp_path, PSTAR))[0] == 0
        assert [n for n in passes if n > 5] == [verify.TABLE_AGREEMENT_SAMPLES] * 2

    def test_one_row_evaluation_per_table_row_over_its_samples(self, tmp_path, capsys, monkeypatch):
        # each regime-table row evaluates its whole run of samples as one array
        comp, _ = build_composite(
            PhaseProperties(**PSTAR["phase1"]), PhaseProperties(**PSTAR["phase2"]), PSTAR["theta1"]
        )
        deltaT = PSTAR["loading"]["deltaT"]
        expected = sum(len(regime_table(comp, deltaT, t).rows) for t in ("phase1", "phase2", "max"))
        calls, bound_at = [], bounds.RegimeRow.bound_at
        monkeypatch.setattr(
            bounds.RegimeRow, "bound_at",
            lambda row, sigma0: calls.append(type(sigma0)) or bound_at(row, sigma0),
        )
        assert run(capsys, "verify", write_config(tmp_path, PSTAR))[0] == 0
        assert calls == [np.ndarray] * expected

    def test_verify_grid_too_small_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, _, err = run(capsys, "verify", cfg, "--grid-n", "4")
        assert code == 2

    @pytest.mark.parametrize("theta1", [5e-324, 1e-300, 1e-16, 1.0 - 2.0**-53])
    def test_extreme_fraction_fails_as_rows(self, tmp_path, capsys, theta1):
        # a core fraction that rounds a to 1, or underflows the FV cells or
        # the 3x3 system, gives failing rows, not an exception
        cfg = write_config(tmp_path, dict(PSTAR, theta1=theta1))
        code, out, err = run(capsys, "verify", cfg)
        assert code == 1 and err.startswith("FAILED ")
        rows = parse_csv(out)
        for core in ("core1", "core2"):
            assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
        for row in rows:
            if row["residual"] == "inf":
                assert row["status"] == "fail" and row["note"]
        assert run(capsys, "bounds", cfg)[0] == 0

    def test_subnormal_core_fraction_notes_the_continuity_rows(self, tmp_path, capsys):
        # a^3 = 5e-324 keeps too few bits for the continuity residuals, which
        # divide by a^2 and a^3: the rows fail, and each says why
        doc = dict(PSTAR, theta1=5e-324, loading={"sigma0": 0.3, "deltaT": 1.0})
        code, out, _ = run(capsys, "verify", write_config(tmp_path, doc))
        assert code == 1
        rows = {(r["check"], r["orientation"]): r for r in parse_csv(out)}
        for kind in ("thermal", "mechanical"):
            for quantity in ("displacement", "traction"):
                row = rows[f"{kind}-{quantity}-continuity", "core1"]
                assert row["status"] == "fail"
                assert "core fraction a^3 = 4.9406564584124654e-324 is subnormal" in row["note"]
                assert rows[f"{kind}-{quantity}-continuity", "core2"]["note"] == ""

    def test_singular_fv_solve_fails_as_row(self, tmp_path, capsys):
        # a coating of relative thickness 4e-9 for core 2: four FV cells at
        # n = 4096.  Its row passes at 7.3e-10, the residual of the exact
        # discrete solution (a 60-digit decimal solve) rounded to floats; the
        # cyclic-reduction solve read 2.9e-3 there.  Core 1's core is as thin,
        # and its finite residual fails the row
        doc = {
            "phase1": {"k": 0.0463359381764292, "mu": 159699.71756020925, "h": -1.225354603819703},
            "phase2": {"k": 1.4544765086278303e-08, "mu": 0.0006001194232230362,
                       "h": 0.26403267491544513},
            "theta1": 1.2050190118228602e-08,
            "loading": {"sigma0": 0.3, "deltaT": 1.0},
        }

        def oracle_rows(doc):
            code, out, err = run(capsys, "verify", write_config(tmp_path, doc))
            assert code == 1 and err.startswith("FAILED ")
            rows = parse_csv(out)
            for core in ("core1", "core2"):
                assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
            return [
                (float(r["residual"]), r["status"], r["note"])
                for r in rows if r["check"] == "oracle-field-agreement"
            ]

        (core1, status1, note1), (core2, status2, note2) = oracle_rows(doc)
        assert 1e-3 < core1 < 1e-2 and (status1, note1) == ("fail", "")
        assert 7e-10 < core2 < 8e-10 and (status2, note2) == ("pass", "")
        # a solution beyond the float range (moduli of 1e-10 under sigma0 = 1e300)
        # fails the row instead of raising
        tiny = dict(
            PSTAR,
            phase1={"k": 2e-10, "mu": 1e-10, "h": 0.0},
            phase2={"k": 1e-10, "mu": 5e-11, "h": 1.0},
            loading={"sigma0": 1e300, "deltaT": 0.0},
        )
        assert oracle_rows(tiny) == [
            (math.inf, "fail", "no FV solution: direct solve returned non-finite displacements")
        ] * 2

    @pytest.mark.parametrize("case", ["two grids", "5e-324", "1e-300"])
    def test_oracle_rows_are_those_of_each_sphere_solved_alone(
        self, tmp_path, capsys, monkeypatch, case
    ):
        # verify solves the FV system of each sphere that has a grid (core 2
        # has none at theta1 = 1e-300, neither core at 5e-324) once, and the
        # sphere's oracle row is that solution's field error
        theta1 = {"5e-324": 5e-324, "1e-300": 1e-300}.get(case, 0.5)
        doc = dict(PSTAR, theta1=theta1, loading={"sigma0": 0.3, "deltaT": 1.0})
        solved, solve = [], verify.solve_radial_bvp
        monkeypatch.setattr(verify, "solve_radial_bvp", lambda *a: solved.append(a) or solve(*a))
        _, out, _ = run(capsys, "verify", write_config(tmp_path, doc))
        cores = [sphere.core_phase for sphere, _, _ in solved]
        assert cores == {"two grids": [1, 2], "5e-324": [], "1e-300": [1]}[case]
        rows = {r["orientation"]: r for r in parse_csv(out) if r["check"] == "oracle-field-agreement"}
        for sphere, loading, grid in solved:
            analytic = sample_analytic_fields(sphere, loading, grid)
            alone = compare_fields(analytic, solve(sphere, loading, grid))
            assert rows[f"core{sphere.core_phase}"]["residual"] == cli.fmt(alone)

    @pytest.mark.parametrize("grid_n", ["256", "4096"])
    def test_non_finite_analytic_field_fails_the_oracle_row(self, tmp_path, capsys, grid_n):
        # moduli 300 decades apart: the analytic fields overflow while the FV
        # solution stays finite; on core 2 both field errors are nan, which a
        # max() that drops a nan reads as 0
        doc = {
            "phase1": {"k": 2.1614644222756487e-124, "mu": 4.573142948893027e+223,
                       "h": 0.4581301141272345},
            "phase2": {"k": 1.88422328481602e+161, "mu": 3.266154148503649e-274,
                       "h": -1.8202390260158552},
            "theta1": 0.6965964297036646,
            "loading": {"sigma0": -3.3809170796198496, "deltaT": 2.2854318434841483},
        }
        code, out, _ = run(capsys, "verify", write_config(tmp_path, doc), "--grid-n", grid_n)
        assert code == 1
        for core in ("core1", "core2"):
            (row,) = [r for r in parse_csv(out)
                      if r["check"] == "oracle-field-agreement" and r["orientation"] == core]
            assert not math.isfinite(float(row["residual"])), row
            assert row["status"] == "fail"
            assert row["note"] == "the residual is not finite: a compared value overflowed"


    def test_huge_moduli_give_a_complete_report(self, tmp_path, capsys):
        # products of moduli of 1e200 overflowed in the closed forms, and
        # verify stopped with a ZeroDivisionError traceback
        cfg = write_config(tmp_path, dict(PSTAR, phase1={"k": 1e200, "mu": 1e200, "h": 0.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", cfg)
            assert run(capsys, "bounds", cfg)[0] == 0
        rows = parse_csv(out)
        for core in ("core1", "core2"):
            assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
        attained = [r for r in rows if r["check"] == "bound-attainment"]
        assert attained and all(r["status"] == "pass" for r in attained)
        assert [r["orientation"] for r in rows if r["check"] == "regime-table-agreement"] == [
            "phase1", "phase2", "max"
        ]
        failed = [r for r in rows if r["status"] == "fail"]
        assert all(r["note"] for r in failed)
        assert code == (1 if failed else 0) and (err.startswith("FAILED ") or not failed)

    def test_non_finite_fv_coefficients_fail_the_oracle_rows(self, tmp_path, capsys):
        # at k = mu = 1e308 the FV system's coefficients overflow: both oracle
        # rows fail with the solver's note, in a complete report
        cfg = write_config(tmp_path, dict(PSTAR, phase1={"k": 1e308, "mu": 1e308, "h": 0.0}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", cfg)
        rows = parse_csv(out)
        for core in ("core1", "core2"):
            assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
        oracle = [r for r in rows if r["check"] == "oracle-field-agreement"]
        assert [(r["residual"], r["status"], r["note"]) for r in oracle] == [
            ("inf", "fail", "no FV solution: non-finite coefficients in radial system")
        ] * 2
        assert code == 1 and err.startswith("FAILED ")

    @pytest.mark.parametrize("mu1", [1e200, 1e160])
    def test_extreme_shear_contrast_gives_a_complete_report(self, tmp_path, capsys, mu1):
        # with the moduli scaled by the largest one, bounds stopped with a
        # ZeroDivisionError traceback at mu1 = 1e200; every verify row passes
        phase1, phase2 = {"k": 1.0, "mu": mu1, "h": 0.0}, {"k": 2.0, "mu": 1.0, "h": 1.0}
        cfg = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "bounds", cfg)[0] == 0
            code, out, err = run(capsys, "verify", cfg)
        rows = parse_csv(out)
        for core in ("core1", "core2"):
            assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
        passing = [r for r in rows if r["check"] in ("bound-attainment", "regime-table-agreement")]
        assert len(passing) == 5
        # the oracle rows pass too, at 9.6e-8 and 3.0e-13 (a 500-digit decimal
        # solve gives the same); the cyclic-reduction solve read 1 and 2
        assert code == 0 and all(r["status"] == "pass" for r in rows) and not err

    @pytest.mark.parametrize("h2", [1e10, 0.0])
    def test_overflowing_D_gives_a_complete_report(self, tmp_path, capsys, h2):
        # 3 k1 k2 (h2 - h1) overflows: D is -inf at h2 = 1e10, where verify
        # stopped with a ValueError traceback from the regime table's row lookup, and
        # 0 at h2 = 0, where it was nan
        phase1, phase2 = {"k": 1e300, "mu": 1e300, "h": 0.0}, {"k": 5e299, "mu": 5e299, "h": h2}
        loading = {"sigma0": 0.3, "deltaT": 1.0}
        cfg = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2, loading=loading))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "bounds", cfg)[0] == 0
            code, out, err = run(capsys, "verify", cfg)
        rows = parse_csv(out)
        for core in ("core1", "core2"):
            assert [r["check"] for r in rows if r["orientation"] == core] == list(CORE_CHECKS)
        table_rows = [r for r in rows if r["check"] == "regime-table-agreement"]
        assert [r["orientation"] for r in table_rows] == ["phase1", "phase2", "max"]
        if h2:
            assert code == 1 and err.startswith("FAILED ")
            for r in table_rows:
                assert r["status"] == "fail" and r["note"].startswith("D = -inf: ")
            # non-finite moments passed with residual 0, and nan residuals had no note
            moments = [r for r in rows if r["check"] == "moment-exponent-independence"]
            assert [r["status"] for r in moments] == ["fail", "fail"]
            assert all(r["note"] for r in rows if r["status"] == "fail")
        else:
            assert code == 0 and all(r["status"] == "pass" for r in rows)

    @pytest.mark.parametrize("phase1, phase2, expected_code", [
        ({"k": 1e6, "mu": 1e6, "h": 0.0}, {"k": 1.0, "mu": 1e-6, "h": 1.0}, 0),
        ({"k": 1e200, "mu": 1e200, "h": 0.0}, PSTAR["phase2"], 0),
        ({"k": 1.0, "mu": 1e200, "h": 0.0}, {"k": 2.0, "mu": 1.0, "h": 1.0}, None),
    ])
    def test_3x3_rows_pass_at_high_contrast(
        self, tmp_path, capsys, phase1, phase2, expected_code
    ):
        # the float 3x3 solve missed 1e-12 here: 1.6e-10 at a condition
        # number of 9e6, and 3.7e183 at moduli of 1e200
        loading = {"sigma0": 0.3, "deltaT": 1.0}
        cfg = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2, loading=loading))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "verify", cfg)
        solved = [
            r for r in parse_csv(out)
            if r["check"] in ("thermal-closed-form-agreement", "effective-bulk-modulus-dual-route")
        ]
        assert len(solved) == 4 and all(r["status"] == "pass" for r in solved)
        assert expected_code is None or code == expected_code

    @pytest.mark.parametrize("phase2", [
        {"k": 5e-324, "mu": 5e-324, "h": 1.0},
        {"k": 5e-324, "mu": 5e-324, "h": 1e308},
        {"k": 5e-324, "mu": 5e-324, "h": -1e308},
        {"k": 1.0, "mu": 0.5, "h": 1e308},
        {"k": 1.0, "mu": 0.5, "h": -1e308},
    ])
    def test_out_of_range_fields_give_no_traceback(self, tmp_path, capsys, phase2):
        # a coating of moduli 5e-324 takes a unit traction with A beyond the
        # float range, and h = +-1e308 overflows the thermal fields; verify
        # exits 1 as before, without a traceback or a warning
        loading = {"sigma0": 0.3, "deltaT": 1.0}
        cfg = write_config(tmp_path, dict(PSTAR, phase2=phase2, loading=loading))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", cfg)
        assert code == 1 and err.count("\n") == 1
        assert all(r["note"] for r in parse_csv(out) if r["status"] == "fail")

    @pytest.mark.parametrize("phase1, phase2, check", [
        ({"k": 1e308, "mu": 1e308, "h": 0.0}, PSTAR["phase2"], "exact-thermal-relation"),
        (PSTAR["phase1"], {"k": 5e-324, "mu": 5e-324, "h": 1e308}, "average-stress-identity"),
        (PSTAR["phase1"], {"k": 5e-324, "mu": 5e-324, "h": -1e308}, "average-stress-identity"),
    ], ids=["huge-moduli", "subnormal-h-1e308", "subnormal-h--1e308"])
    def test_a_nan_identity_residual_fails(self, tmp_path, capsys, phase1, phase2, check):
        # H* or a field is nan in core 2: a nan scale made both identities
        # return 0, and the row passed
        doc = dict(PSTAR, phase1=phase1, phase2=phase2, loading={"sigma0": 0.3, "deltaT": 1.0})
        _, out, _ = run(capsys, "verify", write_config(tmp_path, doc), "--grid-n", "64")
        (row,) = [r for r in parse_csv(out) if (r["check"], r["orientation"]) == (check, "core2")]
        assert (row["residual"], row["status"]) == ("nan", "fail")
        assert row["note"]

    def test_low_shear_example_attains_its_bounds(self, tmp_path, capsys):
        # c mu << k: the superposition route verify compared the bounds with
        # cancelled, and both rows failed at 5.6e-9 and 2.05e-10
        doc = {
            "phase1": {"k": 6547231.655060104, "mu": 0.00022172697430455283,
                       "h": 1.5123422653205516},
            "phase2": {"k": 6484458.1098774355, "mu": 3.766701954033052e-05,
                       "h": 0.08203938560305257},
            "theta1": 0.8440774195461498,
            "loading": {"sigma0": 1.4408472842902018, "deltaT": -1.2475408320967802},
        }
        _, out, _ = run(capsys, "verify", write_config(tmp_path, doc), "--grid-n", "256")
        rows = [r for r in parse_csv(out) if r["check"] == "bound-attainment"]
        assert [(r["orientation"], r["status"]) for r in rows] == [
            ("phase1", "pass"), ("phase2", "pass")
        ]

    def test_max_table_agrees_where_a_line_is_nan(self, tmp_path, capsys):
        # the M1 line's t and the L2 line's e are nan: verify's former array
        # kernel counted a nan end as not interior, and the row failed with
        # residual nan
        phase2 = {"k": 5e-324, "mu": 5e-324, "h": 1e308}
        doc = dict(PSTAR, phase2=phase2, loading={"sigma0": 0.3, "deltaT": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, out, _ = run(capsys, "verify", write_config(tmp_path, doc), "--grid-n", "256")
        (row,) = [r for r in parse_csv(out)
                  if (r["check"], r["orientation"]) == ("regime-table-agreement", "max")]
        assert (row["residual"], row["status"]) == ("0", "pass")

    def test_subnormal_moduli_give_a_complete_report(self, tmp_path, capsys):
        # the library raised on the bulk-modulus mismatch and verify printed
        # no report; now each failing row names the subnormal moduli, or the
        # regime table's breakpoint that a line with t = 0 leaves undefined
        phase2 = {"k": 5e-324, "mu": 5e-324, "h": 1.0}
        doc = dict(PSTAR, phase2=phase2, loading={"sigma0": 0.3, "deltaT": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", write_config(tmp_path, doc))
        assert code == 1 and err.startswith("FAILED ") and err.count("\n") == 1
        rows = {(r["check"], r["orientation"]): r for r in parse_csv(out)}
        for core in ("core1", "core2"):
            assert [check for check, o in rows if o == core] == list(CORE_CHECKS)
        subnormal = "k2 = 4.9406564584124654e-324 is subnormal; mu2 = 4.9406564584124654e-324 is subnormal"
        for key in (("effective-bulk-modulus-dual-route", "core1"),
                    ("mechanical-outer-traction", "core2"), ("average-stress-identity", "core2")):
            assert (rows[key]["residual"], rows[key]["status"], rows[key]["note"]) == ("1", "fail", subnormal)
        for target in ("phase1", "phase2"):
            row = rows["regime-table-agreement", target]
            assert row["note"] == "the regime table's breakpoint nan is not finite"
        assert all(r["note"] for r in rows.values() if r["status"] == "fail")

    def test_rows_in_the_callers_numbering(self, tmp_path, capsys):
        # the relabeled config, and the same composite written in the
        # internal numbering: each row of one is the other's row with core
        # or phase number 1 and 2 exchanged, and the rows are in one order
        golden = Path(__file__).resolve().parent / "golden"
        doc = json.loads((golden / "relabeled.json").read_text())
        internal = dict(doc, phase1=doc["phase2"], phase2=doc["phase1"], theta1=1.0 - doc["theta1"])
        reports = [
            parse_csv(run(capsys, "verify", write_config(tmp_path, d, f"{i}.json"))[1])
            for i, d in enumerate((doc, internal))
        ]
        exchanged = {"core1": "core2", "core2": "core1", "phase1": "phase2", "phase2": "phase1"}
        caller, internal_rows = reports
        by_key = {(r["check"], r["orientation"]): r for r in internal_rows}
        assert len(caller) == len(internal_rows) == 31
        for row in caller:
            o = row["orientation"]
            assert row == dict(by_key[row["check"], exchanged.get(o, o)], orientation=o)
        keys = [[(r["check"], r["orientation"]) for r in rows] for rows in reports]
        assert keys[0] == keys[1]

    def test_bound_attainment_detects_a_wrong_table_entry(self):
        # the bounds and the library's coated-sphere fields read one table;
        # verify compares the bound with the exact shell solve's traces instead
        comp, _ = build_composite(
            PhaseProperties(2.0, 1.0, 0.0), PhaseProperties(1.0, 0.5, 1.0), 0.5
        )
        loading = Loading(0.0, 1.0)

        def attainment():
            checks = verify._verify_checks(comp, loading, 256)
            return {
                orientation: status
                for name, orientation, status in zip(
                    checks["check"], checks["orientation"], checks["status"]
                )
                if name == "bound-attainment"
            }

        assert attainment() == {"phase1": "pass", "phase2": "pass"}
        line = comp.endpoints.L1  # the attaining endpoint of phase 1 here
        perturbed = comp.endpoints._replace(L1=EndpointLine(line.t, line.e * (1.0 + 1e-6)))
        comp = comp._replace(endpoints=perturbed)
        assert attainment() == {"phase1": "fail", "phase2": "pass"}


class TestSweep:
    def test_grid_cardinality_and_order(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={
                "sigma0": {"start": -2.0, "stop": 2.0, "count": 5},
                "deltaT": {"start": -2.0, "stop": 2.0, "count": 5},
            },
        )
        cfg = write_config(tmp_path, doc)
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "sweep", cfg, "--out", str(out_path))
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 25
        # sigma0-major ordering
        sig = [float(r["sigma0"]) for r in rows]
        assert sig == sorted(sig)
        assert [float(r["deltaT"]) for r in rows[:5]] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_values_continuous_along_sweep(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -10.0, "stop": 10.0, "count": 81},
                     "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "sweep", cfg, "--out", str(out_path), "--phase", "2")
        assert code == 0
        rows = parse_csv(out_path.read_text())
        assert len(rows) == 81
        values = [float(r["value"]) for r in rows]
        step = 0.25
        # |slope| of every branch is bounded by sqrt(3) * max interval endpoint
        max_slope = math.sqrt(3.0) * 1.2
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= max_slope * step + 1e-9

    def test_count_one_rejected(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": 1}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        code, _, err = run(capsys, "sweep", cfg, "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("count", [2.9, 3.5])
    def test_fractional_count_rejected(self, tmp_path, capsys, count):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": count}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", cfg, "--out", str(out_path))
        assert code == 2 and out == "" and "ConfigError" in err and "not a whole number" in err
        assert not out_path.exists()

    def test_whole_float_count_accepted(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": 3.0}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        out_path = tmp_path / "x.csv"
        assert run(capsys, "sweep", cfg, "--out", str(out_path))[0] == 0
        assert len(parse_csv(out_path.read_text())) == 3

    @pytest.mark.parametrize("phase2", [
        {"k": 5e299, "mu": 5e299, "h": 1e10},  # D overflows; e deltaT is inf * 0 at deltaT 0
        {"k": 5e-324, "mu": 5e-324, "h": 1.0},  # the M1 line's t is nan
        {"k": 5e-324, "mu": 5e-324, "h": -1e308},
    ], ids=["D-overflow", "subnormal", "subnormal-huge-h"])
    def test_rows_are_the_bounds_rows_where_a_line_is_nan(self, tmp_path, capsys, phase2):
        phase1 = {"k": 1e300, "mu": 1e300, "h": 0.0} if phase2["k"] > 1.0 else PSTAR["phase1"]
        grid = {"sigma0": {"start": -1.0, "stop": 1.0, "count": 3},
                "deltaT": {"start": -1.5, "stop": 1.5, "count": 3}}
        cfg = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2, loading=grid))
        out_path = tmp_path / "rows.csv"
        for flag in ("1", "2", "max"):
            assert run(capsys, "sweep", cfg, "--out", str(out_path), "--phase", flag)[0] == 0
            header, *rows = out_path.read_text().splitlines()
            assert len(rows) == 9
            for row in rows:
                sigma0, deltaT = map(float, row.split(",")[:2])
                loading = {"sigma0": sigma0, "deltaT": deltaT}
                one = write_config(tmp_path, dict(PSTAR, phase1=phase1, phase2=phase2,
                                                  loading=loading), "one.json")
                code, out, _ = run(capsys, "bounds", one, "--phase", flag)
                assert (code, out.splitlines()) == (0, [header, row])
        # the grid kernel, which verify samples the regime tables with, holds
        # classify_branch's bits at each loading, nan included
        comp, _ = build_composite(
            PhaseProperties(**phase1), PhaseProperties(**phase2), PSTAR["theta1"]
        )
        loadings = [(s, d) for s in (-1.0, 0.0, 1.0) for d in (-1.5, 0.0, 1.5)]
        for target in ("phase1", "phase2", "max"):
            rows = bound_grid(comp, target, [-1.0, 0.0, 1.0], [-1.5, 0.0, 1.5])
            for (sigma0, deltaT), row in zip(loadings, rows):
                value, argmin, code, phase, core, row_branch = row
                result, branch = classify_branch(comp, deltaT, target, sigma0)
                m = result.microstructure
                assert (
                    value.hex(), argmin.hex(), ENDPOINT_CODES[code],
                    BRANCH_IDS[row_branch], core or None,
                ) == (
                    result.value.hex(), result.argmin_compliance.hex(), result.at_endpoint,
                    branch, m.core_phase,
                ), (target, sigma0, deltaT)
                if target == "max" and core:
                    assert phase == m.max_attaining_phase

    def test_scalar_only_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, _, _ = run(capsys, "sweep", cfg, "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": 3}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        code, _, err = run(capsys, "sweep", cfg, "--out", "/nonexistent/dir/x.csv")
        assert code == 2

    def test_residuals_column(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -5.0, "stop": -3.0, "count": 3}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "sweep", cfg, "--out", str(out_path), "--phase", "2", "--residuals"
        )
        assert code == 0
        for row in parse_csv(out_path.read_text()):
            assert float(row["attainment_residual"]) <= 1e-10


GOOD_RANGE = {"start": -1.0, "stop": 1.0, "count": 5}
HUGE_INT = 10**400
TOO_LARGE = "int too large to convert to float"
NON_FINITE_SCALARS = {
    "sigma0-nan": ({"sigma0": math.nan, "deltaT": 1.0}, "deltaT"),
    "deltaT-inf": ({"sigma0": 0.0, "deltaT": math.inf}, "sigma0"),
}
NON_FINITE_RANGES = {
    "start-neg-inf": {"start": -math.inf, "stop": 1.0, "count": 5},
    "stop-nan": {"start": 0.0, "stop": math.nan, "count": 5},
    "step-overflow": {"start": -1e308, "stop": 1e308, "count": 5},
    "count-inf": {"start": 0.0, "stop": 1.0, "count": math.inf},
}


@pytest.mark.parametrize(
    "command, loading",
    [
        pytest.param(command, loading, id=f"{command}-{name}")
        for command in ("bounds", "table", "verify")
        for name, (loading, _) in NON_FINITE_SCALARS.items()
    ]
    + [
        # sweep needs a range on the other axis to reach the scalar check
        pytest.param("sweep", {**loading, finite: GOOD_RANGE}, id=f"sweep-{name}")
        for name, (loading, finite) in NON_FINITE_SCALARS.items()
    ]
    + [
        pytest.param("sweep", {"sigma0": rng, "deltaT": 1.0}, id=f"sweep-{name}")
        for name, rng in NON_FINITE_RANGES.items()
    ],
)
def test_non_finite_loading_exit_2(tmp_path, capsys, command, loading):
    # json.dumps writes NaN/Infinity, which Python's JSON parser reads back
    cfg = write_config(tmp_path, dict(PSTAR, loading=loading))
    out_path = tmp_path / "rows.csv"
    extra = ["--out", str(out_path)] if command == "sweep" else []
    code, out, err = run(capsys, command, cfg, *extra)
    assert code == 2 and out == ""
    assert "ConfigError" in err
    assert not out_path.exists()


SWEEP_RANGE_BACKWARDS = {"start": 1.0, "stop": -1.0, "count": 3}
# by case: command, config (a document, or the file's text or bytes), further arguments, stderr
REJECTED_INPUTS = {
    "not-json": ("bounds", "{", (), "ConfigError: config 'CONFIG' is not valid JSON: "
                 "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "root-list": ("bounds", "[]", (), "ConfigError: config root must be a JSON object"),
    "not-utf8": ("bounds", b"\xff\xfe{}", (), "ConfigError: config 'CONFIG' is not UTF-8 text: "
                 "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "nested-too-deep": ("bounds", '{"phase1": ' + "[" * 5000, (),
                        "ConfigError: config 'CONFIG' nests values too deeply to parse"),
    "int-too-many-digits": ("bounds", '{"theta1": ' + "1" * 5000 + "}", (),
                            "ConfigError: config 'CONFIG' is not valid JSON: Exceeds the limit "
                            "(4300 digits) for integer string conversion: value has 5000 digits; "
                            "use sys.set_int_max_str_digits() to increase the limit"),
    "phase-number": ("bounds", dict(PSTAR, phase1=3), (),
                     "ConfigError: 'phase1' must be an object with k, mu, h"),
    "k-text": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], k="x")), (),
               "ConfigError: 'phase1': 'k' must be a number, got \"x\""),
    "h-nan": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], h=math.nan)), (),
              "NonPositiveModulus: phase1.h must be finite, got nan"),
    "theta1-text": ("bounds", dict(PSTAR, theta1="x"), (),
                    "ConfigError: 'theta1' must be a number, got \"x\""),
    "theta1-null": ("bounds", dict(PSTAR, theta1=None), (),
                    "ConfigError: 'theta1': float() argument must be a string or a real number, "
                    "not 'NoneType'"),
    "loading-list": ("bounds", dict(PSTAR, loading=[0.0, 1.0]), (),
                     "ConfigError: 'loading' must be an object with sigma0 and deltaT"),
    "sigma0-text": ("bounds", dict(PSTAR, loading={"sigma0": "x", "deltaT": 1.0}), (),
                    "ConfigError: 'sigma0' must be a number or a range object"),
    "range-to-bounds": ("bounds", dict(PSTAR, loading={"sigma0": GOOD_RANGE, "deltaT": 1.0}), (),
                        "ConfigError: 'sigma0' is a sweep range, which only the sweep command "
                        "accepts"),
    "range-backwards": ("sweep", dict(PSTAR, loading={"sigma0": SWEEP_RANGE_BACKWARDS,
                                                      "deltaT": 1.0}), ("--out", "OUT"),
                        "ConfigError: 'sigma0': sweep needs start < stop"),
    "p-text": ("bounds", PSTAR, ("--p", "abc"),
               "InvalidExponent: moment exponent must be a number or 'inf', got 'abc'"),
    # float() and int() read a JSON boolean as 1 or 0; the schema wants a number
    "k-bool": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], k=True)), (),
               "ConfigError: 'phase1': 'k' must be a number, got true"),
    "mu-bool": ("bounds", dict(PSTAR, phase2=dict(PSTAR["phase2"], mu=False)), (),
                "ConfigError: 'phase2': 'mu' must be a number, got false"),
    "h-bool": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], h=False)), (),
               "ConfigError: 'phase1': 'h' must be a number, got false"),
    "theta1-bool": ("bounds", dict(PSTAR, theta1=True), (),
                    "ConfigError: 'theta1' must be a number, got true"),
    "sigma0-bool": ("bounds", dict(PSTAR, loading={"sigma0": False, "deltaT": 1.0}), (),
                    "ConfigError: 'sigma0' must be a number, got false"),
    "deltaT-bool": ("bounds", dict(PSTAR, loading={"sigma0": 0.0, "deltaT": True}), (),
                    "ConfigError: 'deltaT' must be a number, got true"),
    "sweep-deltaT-bool": ("sweep", dict(PSTAR, loading={"sigma0": GOOD_RANGE, "deltaT": True}),
                          ("--out", "OUT"), "ConfigError: 'deltaT' must be a number, got true"),
    "start-bool": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, start=False),
                                                 "deltaT": 1.0}), ("--out", "OUT"),
                   "ConfigError: 'sigma0': 'start' must be a number, got false"),
    "stop-bool": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, stop=True),
                                                "deltaT": 1.0}), ("--out", "OUT"),
                  "ConfigError: 'sigma0': 'stop' must be a number, got true"),
    "count-bool": ("sweep", dict(PSTAR, loading={"sigma0": 0.0,
                                                 "deltaT": dict(GOOD_RANGE, count=True)}),
                   ("--out", "OUT"), "ConfigError: 'deltaT': 'count' must be a number, got true"),
    # float() and int() read a numeric JSON string as its number; the schema wants a number
    "k-numeric-text": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], k="2.0")), (),
                       "ConfigError: 'phase1': 'k' must be a number, got \"2.0\""),
    "theta1-numeric-text": ("bounds", dict(PSTAR, theta1="0.5"), (),
                            "ConfigError: 'theta1' must be a number, got \"0.5\""),
    "sigma0-numeric-text": ("bounds", dict(PSTAR, loading={"sigma0": "0", "deltaT": 1.0}), (),
                            "ConfigError: 'sigma0' must be a number or a range object"),
    "count-numeric-text": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, count="5"),
                                                         "deltaT": 1.0}), ("--out", "OUT"),
                           "ConfigError: 'sigma0': 'count' must be a number, got \"5\""),
    # a JSON integer beyond the float range, which float() refuses with OverflowError
    "k-huge-int": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], k=HUGE_INT)), (),
                   f"ConfigError: 'phase1': 'k': {TOO_LARGE}"),
    "mu-huge-int": ("bounds", dict(PSTAR, phase2=dict(PSTAR["phase2"], mu=HUGE_INT)), (),
                    f"ConfigError: 'phase2': 'mu': {TOO_LARGE}"),
    "h-huge-int": ("bounds", dict(PSTAR, phase1=dict(PSTAR["phase1"], h=-HUGE_INT)), (),
                   f"ConfigError: 'phase1': 'h': {TOO_LARGE}"),
    "theta1-huge-int": ("bounds", dict(PSTAR, theta1=HUGE_INT), (),
                        f"ConfigError: 'theta1': {TOO_LARGE}"),
    "sigma0-huge-int": ("bounds", dict(PSTAR, loading={"sigma0": HUGE_INT, "deltaT": 1.0}), (),
                        f"ConfigError: 'sigma0': {TOO_LARGE}"),
    "deltaT-huge-int": ("table", dict(PSTAR, loading={"sigma0": 0.0, "deltaT": -HUGE_INT}), (),
                        f"ConfigError: 'deltaT': {TOO_LARGE}"),
    # int() takes it, but the sweep step divides by it as a float
    "count-huge-int": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, count=HUGE_INT),
                                                     "deltaT": 1.0}), ("--out", "OUT"),
                       f"ConfigError: 'sigma0': 'count': {TOO_LARGE}"),
    # work and memory grow with these two inputs; each has a ceiling
    "count-above-ceiling": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, count=1e300),
                                                          "deltaT": 1.0}), ("--out", "OUT"),
                            "ConfigError: 'sigma0': sweep count 1e+300 is more than the "
                            "250000 rows of a sweep"),
    "rows-above-ceiling": ("sweep", dict(PSTAR, loading={"sigma0": dict(GOOD_RANGE, count=1000),
                                                         "deltaT": dict(GOOD_RANGE, count=251)}),
                           ("--out", "OUT"), "ConfigError: 'sigma0' and 'deltaT': sweep counts "
                           "give 251000 rows, more than 250000"),
    "grid-n-above-ceiling": ("verify", PSTAR, ("--grid-n", "1000000000"),
                             "ConfigError: --grid-n must be from 16 to 1048576, got 1000000000"),
}


@pytest.mark.parametrize("command, config, extra, message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS)
def test_rejected_input_names_its_fault(tmp_path, capsys, command, config, extra, message):
    # json.dumps writes NaN, which Python's JSON parser reads back
    cfg = tmp_path / "config.json"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    else:
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out_path = tmp_path / "rows.csv"
    extra = [str(out_path) if arg == "OUT" else arg for arg in extra]
    code, out, err = run(capsys, command, str(cfg), *extra)
    assert (code, out, err.replace(str(cfg), "CONFIG")) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_only_verify_and_residuals_derive_sphere_constants(tmp_path, capsys, sphere_builds):
    # the bounds read the endpoint table alone; a sphere's K, H* and thermal
    # solution are derived only where verify or --residuals builds the sphere
    doc = dict(PSTAR, loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": 5}, "deltaT": 1.0})
    cfg, swept = write_config(tmp_path, PSTAR), write_config(tmp_path, doc, "swept.json")
    sweep = ["sweep", swept, "--out", str(tmp_path / "rows.csv")]
    build_composite(PhaseProperties(2.0, 1.0, 0.0), PhaseProperties(1.0, 0.5, 1.0), 0.5)
    for argv in (["bounds", cfg], ["table", cfg], sweep):
        assert run(capsys, *argv)[0] == 0
    assert sphere_builds == []
    for argv in (["verify", cfg, "--grid-n", "64"], [*sweep, "--residuals"]):
        assert run(capsys, *argv)[0] == 0
        assert [core for _, core in sphere_builds] == [1, 2]
        sphere_builds.clear()


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "table", cfg, "--target", "max", "--format", "json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_sweep_file_byte_identical(self, tmp_path, capsys):
        doc = dict(
            PSTAR,
            loading={"sigma0": {"start": -1.0, "stop": 1.0, "count": 9}, "deltaT": 1.0},
        )
        cfg = write_config(tmp_path, doc)
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(capsys, "sweep", cfg, "--out", str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path, capsys):
        # main() builds its parser once; later calls in the process must
        # write what a call in a fresh interpreter writes
        cfg = write_config(tmp_path, PSTAR)
        grid_loading = {"sigma0": {"start": -2.0, "stop": 2.0, "count": 5}, "deltaT": 1.0}
        grid = write_config(tmp_path, dict(PSTAR, loading=grid_loading), "grid.json")
        out_path = tmp_path / "rows.csv"
        calls = [
            ["bounds", cfg, "--format", "json"],
            ["sweep", grid, "--out", str(out_path)],
            ["verify", cfg, "--grid-n", "8"],
            ["bounds", cfg],
        ]
        src = str(Path(thermobounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}

        def written(argv):
            return out_path.read_bytes() if argv[0] == "sweep" else None

        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "thermobounds", *argv],
                env=env, capture_output=True, timeout=60,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr, written(argv)))
        assert [f[0] for f in fresh] == [0, 0, 2, 0]
        for _ in range(2):
            for argv, expected in zip(calls, fresh):
                code, out, err = run(capsys, *argv)
                assert (code, out.encode(), err.encode(), written(argv)) == expected
        assert cli._parser.cache_info().misses == 1


def test_every_option_has_help():
    subcommands = next(a for a in cli.build_parser()._actions if a.choices)
    for name, sp in subcommands.choices.items():
        for action in sp._actions:
            assert action.help, (name, action.dest)


def _emit(columns, fmt_name):
    stream = io.StringIO(newline="")
    emit_rows(columns, fmt_name, stream)
    return stream.getvalue()


#: values of one column, and the CSV and JSON text of each; these are the
#: texts of format(x, ".17g") and json.dumps, infinities as "inf"/"-inf"
EMIT_CASES = {
    "infinities": ([math.inf, -math.inf, 1.5], ["inf", "-inf", "1.5"], ['"inf"', '"-inf"', "1.5"]),
    # JSON has no nan; a bare NaN is refused by strict parsers
    "nan": ([math.nan, 1.5, -math.nan], ["nan", "1.5", "nan"], ['"nan"', "1.5", '"nan"']),
    "signed-zeros": ([-0.0, 0.0, -0.0], ["-0", "0", "-0"], ["-0.0", "0.0", "-0.0"]),
    "none-and-float": ([None, 0.1, None], ["", "0.10000000000000001", ""], ["null", "0.1", "null"]),
    "bool-and-int": ([True, 1, False, 0], ["true", "1", "false", "0"], ["true", "1", "false", "0"]),
    "quoting": (
        ["x, y", 'say "hi"', "two\nlines", "plain"],
        ['"x, y"', '"say ""hi"""', '"two\nlines"', "plain"],
        ['"x, y"', '"say \\"hi\\""', '"two\\nlines"', '"plain"'],
    ),
}


def _column_forms(values):
    """Every kind of column emit_rows takes, each holding ``values``."""
    forms = {
        "list": list(values),
        "coded": Coded(tuple(values), np.arange(len(values))),
        # list codes, each entry given once, in reverse order
        "coded-list": Coded(tuple(values[::-1]), list(range(len(values)))[::-1]),
    }
    if all(type(v) is float for v in values):
        forms["ndarray"] = np.array(values)
    return forms


#: str columns whose CSV text must be that of csv.writer
STDLIB_CSV_CASES = {
    "lone-cr": {"i": ["0", "1", "2"], "v": ["\r", "a\rb", "\r\n"]},
    "empty-string": {"i": ["0", "1"], "v": ["", "x"]},
    "specials": {"i": list("01234"), "v": ["x, y", 'say "hi"', "two\nlines", '"', " plain "]},
    "comma-in-name": {"a,b": ["1"], 'say "c"': ["2"], "d": ["3"]},
    "zero-rows": {"a": [], "b,c": []},
}


def _stdlib_csv(columns):
    """The text ``csv.writer`` gives ``columns``; emit_rows must give the same."""
    stream = io.StringIO(newline="")
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    return stream.getvalue()


def _spanned(columns, names):
    """``columns`` with the adjacent ``names`` as one :class:`Coded` span with list codes.

    Its entries are the rows' tuples, each given once, in reverse order.
    """
    rows = list(zip(*(columns[name] for name in names)))
    span = Coded(tuple(rows[::-1]), list(range(len(rows)))[::-1])
    spanned = {}
    for name, column in columns.items():
        if name == names[0]:
            spanned[tuple(names)] = span
        elif name not in names:
            spanned[name] = column
    return spanned


class WriteSpy:
    """A stream that records the text of each ``write`` call and has no other method."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class TestEmitRows:
    @pytest.mark.parametrize("case", sorted(EMIT_CASES))
    def test_texts_of_every_column_kind(self, case):
        values, csv_texts, json_texts = EMIT_CASES[case]
        index = list(range(len(values)))
        csv_expected = "i,v\r\n" + "".join(f"{i},{t}\r\n" for i, t in zip(index, csv_texts))
        json_expected = "".join(f'{{"i": {i}, "v": {t}}}\n' for i, t in zip(index, json_texts))
        for form in _column_forms(values).values():
            columns = {"i": index, "v": form}
            assert _emit(columns, "csv") == csv_expected
            assert _emit(columns, "json") == json_expected

    def test_coded_values_are_told_apart_by_position(self):
        # -0.0 == 0.0 and True == 1, but each keeps its own text
        codes = np.array([0, 1, 2, 3, 3, 2, 1, 0])
        columns = {"v": Coded((-0.0, 0.0, True, 1), codes), "flag": [True] * 4 + [1] * 4}
        texts = ["-0", "0", "true", "1"]
        rows = [f"{texts[c]},{'true' if i < 4 else '1'}" for i, c in enumerate(codes)]
        assert _emit(columns, "csv") == "v,flag\r\n" + "".join(r + "\r\n" for r in rows)
        texts = ["-0.0", "0.0", "true", "1"]
        assert _emit(columns, "json") == "".join(
            f'{{"v": {texts[c]}, "flag": {"true" if i < 4 else "1"}}}\n'
            for i, c in enumerate(codes)
        )

    @pytest.mark.parametrize("case", sorted(STDLIB_CSV_CASES))
    def test_csv_matches_stdlib_writer(self, case):
        columns = STDLIB_CSV_CASES[case]
        expected = _stdlib_csv(columns)
        coded = {name: Coded(tuple(v), np.arange(len(v))) for name, v in columns.items()}
        assert _emit(columns, "csv") == expected
        assert _emit(coded, "csv") == expected

    def test_coded_entry_is_quoted_once(self, monkeypatch):
        quoted = []
        csv_text = cli._csv_text
        monkeypatch.setattr(cli, "_csv_text", lambda x: quoted.append(x) or csv_text(x))
        # numpy scalars take fmt's '%.17g' fallback, infinities included
        w = [1.0, np.float64(np.inf), np.float64(-np.inf), np.int64(7), np.float64(0.1)]
        columns = {"v": Coded(("x, y", "plain"), np.array([0, 1, 0, 1, 0])), "w": w}
        assert _emit(columns, "csv") == (
            'v,w\r\n"x, y",1\r\nplain,inf\r\n"x, y",-inf\r\nplain,7\r\n'
            '"x, y",0.10000000000000001\r\n'
        )
        assert quoted.count("x, y") == 1 and quoted.count("plain") == 1

    @pytest.mark.parametrize("case", sorted(STDLIB_CSV_CASES))
    def test_spanning_coded_equals_its_columns(self, case):
        columns = STDLIB_CSV_CASES[case]
        expected = {fmt_name: _emit(columns, fmt_name) for fmt_name in ("csv", "json")}
        assert expected["csv"] == _stdlib_csv(columns)
        names = list(columns)
        for start in range(len(names) - 1):
            for stop in range(start + 2, len(names) + 1):
                spanned = _spanned(columns, names[start:stop])
                assert len(spanned) == len(names) - (stop - start) + 1
                for fmt_name in ("csv", "json"):
                    assert _emit(spanned, fmt_name) == expected[fmt_name], (start, stop)

    def test_spanning_entries_are_told_apart_by_position(self):
        codes = [0, 1, 1, 0, 2]
        entries = ((-0.0, True), (0.0, 1), ("x, y", None))
        columns = {"i": list(range(5)), ("v", "w"): Coded(entries, codes)}
        texts = ["-0,true", "0,1", '"x, y",']
        assert _emit(columns, "csv") == "i,v,w\r\n" + "".join(
            f"{i},{texts[c]}\r\n" for i, c in enumerate(codes))
        texts = ['-0.0, "w": true', '0.0, "w": 1', '"x, y", "w": null']
        assert _emit(columns, "json") == "".join(
            f'{{"i": {i}, "v": {texts[c]}}}\n' for i, c in enumerate(codes))

    def test_spanning_columns_keep_the_header_order(self):
        columns = {"a": [1], ("b", "c"): Coded(((2, 3),), [0]), "d": [4], ("e", "f"): [(5, 6)]}
        assert _emit(columns, "csv") == "a,b,c,d,e,f\r\n1,2,3,4,5,6\r\n"
        assert _emit(columns, "json") == '{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6}\n'

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("config", ["canonical.json", "canonical-grid.json"])
    def test_one_write_per_report(self, fmt_name, config):
        cfg = cli.load_run_config(str(Path(__file__).parent / "golden" / config), allow_sweep=True)
        reports = [
            cli._bound_columns(cfg, "max", 2.0, residuals=True),
            verify._verify_checks(cfg.composite, Loading(0.3, 1.0), 64),
            {"a": [], "b": []},
        ]
        for columns in reports:
            spy = WriteSpy()
            emit_rows(columns, fmt_name, spy)
            assert spy.writes == [_emit(columns, fmt_name)]


def scalar_table_agreement(comp, sigma0, deltaT, target, samples=200):
    """verify's regime-table-agreement residual, one classify_branch per sample.

    inf where verify samples nothing: the sigma0 range or a breakpoint is not
    finite.  A nan residual of any sample makes the result nan.
    """
    span = max(1.0, 3.0 * abs(characteristic_constants(comp, deltaT).D), abs(sigma0))
    table = regime_table(comp, deltaT, target)
    if not math.isfinite(2.0 * span) or not all(map(math.isfinite, table.breakpoints)):
        return math.inf
    residuals = []
    for i in range(samples):
        s0 = -span + (2.0 * span) * (i + 0.5) / samples
        direct, _ = classify_branch(comp, deltaT, target, s0)
        via_table = table.bound_at(s0)
        scale = max(direct.value, abs(via_table), span)
        residuals.append(abs(direct.value - via_table) / scale)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


#: composites whose endpoint table has a nan entry, as in
#: TestSweep::test_rows_are_the_bounds_rows_where_a_line_is_nan, and the thin
#: coating of TestVerify::test_singular_fv_solve_fails_as_row
EDGE_COMPOSITES = {
    "D-overflow": ({"k": 1e300, "mu": 1e300, "h": 0.0}, {"k": 5e299, "mu": 5e299, "h": 1e10}, 0.5),
    "subnormal": (PSTAR["phase1"], {"k": 5e-324, "mu": 5e-324, "h": 1.0}, 0.5),
    "subnormal-huge-h": (PSTAR["phase1"], {"k": 5e-324, "mu": 5e-324, "h": -1e308}, 0.5),
    "thin-coating": (
        {"k": 0.0463359381764292, "mu": 159699.71756020925, "h": -1.225354603819703},
        {"k": 1.4544765086278303e-08, "mu": 0.0006001194232230362, "h": 0.26403267491544513},
        1.2050190118228602e-08,
    ),
    "huge-moduli": ({"k": 1e308, "mu": 1e308, "h": 0.0}, PSTAR["phase2"], 0.5),
    "huge-expansion": ({"k": 2.0, "mu": 1.0, "h": 1e300}, {"k": 1.0, "mu": 0.5, "h": -1e300}, 0.5),
}


class TestVerifyTableAgreement:
    @staticmethod
    def assert_residuals_equal_scalar_loop(capsys, cfg, comp, sigma0, deltaT):
        _, out, _ = run(capsys, "verify", cfg, "--grid-n", "64")
        rows = [r for r in parse_csv(out) if r["check"] == "regime-table-agreement"]
        assert [r["orientation"] for r in rows] == ["phase1", "phase2", "max"]
        for row in rows:
            expected = scalar_table_agreement(comp, sigma0, deltaT, row["orientation"])
            assert float(row["residual"]).hex() == expected.hex(), row

    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_residuals_equal_scalar_loop(self, tmp_path, capsys, rng, ordering):
        for j in range(3):
            comp = random_composite(rng, ordering)
            sigma0, deltaT = float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-3.0, 3.0))
            doc = {
                "phase1": comp.phase1._asdict(),
                "phase2": comp.phase2._asdict(),
                "theta1": comp.theta1,
                "loading": {"sigma0": sigma0, "deltaT": deltaT},
            }
            cfg = write_config(tmp_path, doc, f"c{j}.json")
            self.assert_residuals_equal_scalar_loop(capsys, cfg, comp, sigma0, deltaT)

    @pytest.mark.parametrize("name", sorted(EDGE_COMPOSITES))
    def test_residuals_equal_scalar_loop_on_edge_composites(self, tmp_path, capsys, name):
        phase1, phase2, theta1 = EDGE_COMPOSITES[name]
        comp, _ = build_composite(PhaseProperties(**phase1), PhaseProperties(**phase2), theta1)
        for j, (sigma0, deltaT) in enumerate([(0.3, 1.0), (-1.0, 0.0), (1.0, -1.5)]):
            doc = {"phase1": phase1, "phase2": phase2, "theta1": theta1,
                   "loading": {"sigma0": sigma0, "deltaT": deltaT}}
            cfg = write_config(tmp_path, doc, f"c{j}.json")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_residuals_equal_scalar_loop(capsys, cfg, comp, sigma0, deltaT)

    @pytest.mark.parametrize("name", sorted(EDGE_COMPOSITES))
    def test_checks_raise_no_warning_outside_the_cli(self, name):
        # called directly: each array function of the oracle turns an overflow
        # into inf or nan itself, so no caller needs an np.errstate of its own
        phase1, phase2, theta1 = EDGE_COMPOSITES[name]
        comp, relabeled = build_composite(PhaseProperties(**phase1), PhaseProperties(**phase2), theta1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma0, deltaT in [(0.3, 1.0), (-1.0, 0.0), (1.0, -1.5)]:
                verify._verify_checks(comp, Loading(sigma0, deltaT), 64, relabeled)

    def test_a_nan_sample_keeps_the_residual_nan(self, monkeypatch):
        # one nan sample in each phase's pass over the 200, with 0 residuals
        # before and after it; the max-field rows take phase 2's nan row
        comp, _ = build_composite(
            PhaseProperties(**PSTAR["phase1"]), PhaseProperties(**PSTAR["phase2"]), 0.5
        )
        kernel, passes = verify._phase_rows, []

        def nan_at_sample_100(entry, sigma0_values, D):
            passes.append(len(sigma0_values))
            rows = kernel(entry, sigma0_values, D)
            rows[100] = (math.nan, *rows[100][1:])
            return rows

        monkeypatch.setattr(verify, "_phase_rows", nan_at_sample_100)
        checks = verify._verify_checks(comp, Loading(0.3, 1.0), 64)
        rows = [(o, r.hex(), s) for c, o, r, s in zip(
            checks["check"], checks["orientation"], checks["residual"], checks["status"]
        ) if c == "regime-table-agreement"]
        assert passes == [200, 200]
        assert rows == [(o, "nan", "fail") for o in ("phase1", "phase2", "max")]


def _run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter with ``args`` as its argv; return the process."""
    src = str(Path(thermobounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, capture_output=True, timeout=60)


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, thermobounds.cli; sys.exit('scipy' in sys.modules)"
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


#: one-shot queries, sweeps and the scalar library path, none of which builds
#: an array; each runs with the argv (config, grid config, sweep output path)
SCALAR_PATHS = {
    "import": "import thermobounds\ncode = 0",
    "bounds": (
        "from thermobounds.cli import main\n"
        "code = 0\n"
        "for flags in (['--phase', '1'], ['--phase', '2'], ['--phase', 'max'],\n"
        "              ['--format', 'json']):\n"
        "    code = code or main(['bounds', sys.argv[1], *flags])"
    ),
    "table": (
        "from thermobounds.cli import main\n"
        "code = 0\n"
        "for target in ('phase1', 'phase2', 'max'):\n"
        "    code = code or main(['table', sys.argv[1], '--target', target])"
    ),
    "sweep": (
        "from thermobounds.cli import main\n"
        "code = 0\n"
        "for fmt in ('csv', 'json'):\n"
        "    for phase in ('1', '2', 'max'):\n"
        "        for extra in ([], ['--residuals']):\n"
        "            argv = ['sweep', sys.argv[2], '--out', sys.argv[3], '--format', fmt]\n"
        "            code = code or main([*argv, '--phase', phase, *extra])"
    ),
    "library": (
        "import math\n"
        "import thermobounds as tb\n"
        "comp, _ = tb.build_composite(\n"
        "    tb.PhaseProperties(1.0, 0.5, 1.0), tb.PhaseProperties(2.0, 1.0, 0.0), 0.4)\n"
        "loading = tb.Loading(0.3, 1.0)\n"
        "bound = tb.max_field_lower_bound(comp, loading)\n"
        "for core in (1, 2):\n"
        "    sphere = tb.CoatedSphereConfig(comp, core)\n"
        "    tb.effective_properties(sphere)\n"
        "    tb.local_field_constants(sphere, loading)\n"
        "    tb.phase_moment(sphere, loading, bound.microstructure.max_attaining_phase, math.inf)\n"
        "table = tb.regime_table(comp, loading.deltaT, 'max')\n"
        "assert table.bound_at(0.3) == table.row_for(0.3).bound_at(0.3) == bound.value\n"
        "code = 0"
    ),
}


@pytest.mark.parametrize("path", sorted(SCALAR_PATHS))
def test_scalar_paths_leave_numpy_unloaded(path, tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    configs = [str(golden / "canonical.json"), str(golden / "canonical-grid.json")]
    code = f"import sys\n{SCALAR_PATHS[path]}\nsys.exit(code or 3 * ('numpy' in sys.modules))"
    proc = _run_fresh(code, *configs, str(tmp_path / "rows.out"))
    assert proc.returncode == 0, proc.stderr


_SWEEP = (
    "from thermobounds.cli import main\n"
    "code = main(['sweep', sys.argv[2], '--out', sys.argv[3]%s])"
)
#: which of the two lazily loaded modules each path loads, with the argv of SCALAR_PATHS
LAZY_MODULE_PATHS = {
    "import": (SCALAR_PATHS["import"], []),
    "bounds": (SCALAR_PATHS["bounds"], ["radial_oracle"]),
    "table": (SCALAR_PATHS["table"], ["radial_oracle"]),
    "sweep": (_SWEEP % "", ["radial_oracle"]),
    "sweep --residuals": (_SWEEP % ", '--residuals'", ["radial_oracle", "verify"]),
    "verify": (
        "from thermobounds.cli import main\ncode = main(['verify', sys.argv[1]])",
        ["radial_oracle", "verify"],
    ),
}


@pytest.mark.parametrize("path", sorted(LAZY_MODULE_PATHS))
def test_only_verify_paths_load_verify(path, tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    configs = [str(golden / "canonical.json"), str(golden / "canonical-grid.json")]
    snippet, expected = LAZY_MODULE_PATHS[path]
    code = (
        f"import sys\n{snippet}\n"
        "loaded = [m for m in ('radial_oracle', 'verify') if f'thermobounds.{m}' in sys.modules]\n"
        f"sys.exit(code or (f'loaded {{loaded}}' if loaded != {expected!r} else 0))"
    )
    proc = _run_fresh(code, *configs, str(tmp_path / "rows.out"))
    assert proc.returncode == 0, proc.stderr


LAZY_NAMES = {
    "compare_fields": "radial_oracle",
    "make_radial_grid": "radial_oracle",
    "sample_analytic_fields": "radial_oracle",
    "sampled_moment": "radial_oracle",
    "solve_radial_bvp": "radial_oracle",
    "verify_average_identity": "verify",
    "verify_exact_relation": "verify",
}


@pytest.mark.parametrize("name", [*sorted(LAZY_NAMES), "radial_oracle", "verify"])
def test_lazy_name_is_the_defining_modules_object(name, monkeypatch):
    # unbound first, so that the lookup goes through the package's __getattr__
    monkeypatch.delattr(thermobounds, name, raising=False)
    value = getattr(thermobounds, name)
    module = sys.modules[f"thermobounds.{LAZY_NAMES.get(name, name)}"]
    assert value is (module if name in ("radial_oracle", "verify") else vars(module)[name])
    assert vars(thermobounds)[name] is value


def test_package_dir_lists_unloaded_names(monkeypatch):
    for name in [*LAZY_NAMES, "radial_oracle", "verify"]:
        monkeypatch.delattr(thermobounds, name, raising=False)
    package = Path(thermobounds.__file__).parent
    names = [
        n for n in dir(thermobounds)
        if not n.startswith("_") and not (package / f"{n}.py").exists()
    ]
    assert len(names) == 33
    assert set(LAZY_NAMES) <= set(names)
    assert {"radial_oracle", "verify"} <= set(dir(thermobounds))


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'ORACLE_REFERENCE_N'"):
        thermobounds.ORACLE_REFERENCE_N
    assert not hasattr(thermobounds, "no_such_name")


def test_oracle_reference_n_lives_beside_the_grid_limits():
    from thermobounds import radial_oracle

    assert verify.ORACLE_REFERENCE_N is radial_oracle.ORACLE_REFERENCE_N == 4096
    assert cli.build_parser().parse_args(["verify", "c.json"]).grid_n == 4096


def test_cli_import_leaves_dataclasses_unloaded():
    # the records are NamedTuples, so importing generates no dataclass code
    code = "import sys, thermobounds.cli; sys.exit('dataclasses' in sys.modules)"
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_every_layer_module():
    # the benchmark's tracer wraps the functions of each of these modules,
    # and the names it reads besides them must be where it looks
    code = (
        "import sys, thermobounds.cli\n"
        "layers = ('materials', 'bounds', 'coated_sphere', 'radial_oracle', 'cli')\n"
        "missing = any(f'thermobounds.{layer}' not in sys.modules for layer in layers)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "sys.exit(missing)"
    )
    proc = _run_fresh(code, str(Path(__file__).resolve().parents[1] / "bench"))
    assert proc.returncode == 0, proc.stderr


def test_traced_verify_makes_one_shell_solve_per_sphere():
    # the benchmark's shell_solves_per_op counts the wrapped
    # coated_sphere._solve_shell: two per canonical verify pass
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracer import Tracer\n"
        "from thermobounds.cli import main\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.begin_op(0)\n"
        "code = main(['verify', sys.argv[2]])\n"
        "tracer.end_op()\n"
        "calls = tracer.summary()['coated_sphere._solve_shell']['calls']\n"
        "sys.exit(code or (f'{calls} shell solves' if calls != 2 else 0))"
    )
    root = Path(__file__).resolve().parents[1]
    proc = _run_fresh(code, str(root / "bench"), str(root / "tests" / "golden" / "canonical.json"))
    assert proc.returncode == 0, proc.stderr


def test_cli_sweep_leaves_csv_unloaded(tmp_path):
    # CSV reports are joined directly; nothing needs the csv module
    code = (
        "import sys\n"
        "from thermobounds.cli import main\n"
        "code = main(['sweep', sys.argv[1], '--out', sys.argv[2]])\n"
        "sys.exit(code or 3 * ('csv' in sys.modules))"
    )
    config = str(Path(__file__).resolve().parent / "golden" / "canonical-grid.json")
    proc = _run_fresh(code, config, str(tmp_path / "rows.csv"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rows.csv").read_text().startswith("sigma0,deltaT,")


def test_verify_runs_without_scipy():
    code = (
        "import sys\n"
        "from thermobounds.cli import main\n"
        "code = main(['verify', sys.argv[1]])\n"
        "sys.exit(code or 3 * ('scipy' in sys.modules))"
    )
    config = str(Path(__file__).resolve().parent / "golden" / "canonical.json")
    proc = _run_fresh(code, config)
    assert proc.returncode == 0, proc.stderr


# The oracle-field-agreement residuals (n = 4096) that verify printed on the
# golden configs at commit 86f95a9, whose FV oracle assembled the flux and
# hoop terms separately and solved with scipy's banded LU.  Every row of
# those four runs passed.  That verify labelled the cores in the internal
# numbering; the relabeled config's are given here in the caller's, in
# which they are exchanged.
EARLIER_ORACLE_RESIDUALS = {
    ("canonical", "core1"): 1.0711458919843148e-07,
    ("canonical", "core2"): 9.694807194075379e-08,
    ("relabeled", "core1"): 4.3809387626738736e-08,
    ("relabeled", "core2"): 2.6205671143290815e-07,
    ("flat", "core1"): 1.737365806775415e-10,
    ("flat", "core2"): 1.5589840529628418e-10,
    ("zero-deltaT", "core1"): 1.0666039678142171e-08,
    ("zero-deltaT", "core2"): 1.3983207379299398e-08,
}
# The float64 roundoff of those residuals, measured against a long-double
# solve of the same scheme, reached 4.6e-10 (the flat config's field is
# linear in r, so its residual was that roundoff alone).
EARLIER_ORACLE_ROUNDOFF = 5e-10


@pytest.mark.parametrize("config", ["canonical", "relabeled", "flat", "zero-deltaT"])
def test_verify_agrees_with_earlier_oracle(capsys, config):
    path = str(Path(__file__).resolve().parent / "golden" / f"{config}.json")
    code, out, _ = run(capsys, "verify", path)
    rows = parse_csv(out)
    assert code == 0 and len(rows) == 31 and all(r["status"] == "pass" for r in rows)
    for row in rows:
        if row["check"] == "oracle-field-agreement":
            earlier = EARLIER_ORACLE_RESIDUALS[(config, row["orientation"])]
            difference = abs(float(row["residual"]) - earlier)
            assert difference <= max(0.01 * earlier, EARLIER_ORACLE_ROUNDOFF)
