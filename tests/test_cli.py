import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermobounds
from conftest import random_composite
from thermobounds import Ordering, characteristic_constants, classify_branch, regime_table
from thermobounds.cli import main

PSTAR = {
    "phase1": {"k": 2.0, "mu": 1.0, "h": 0.0},
    "phase2": {"k": 1.0, "mu": 0.5, "h": 1.0},
    "theta1": 0.5,
    "loading": {"sigma0": 0.0, "deltaT": 1.0},
}


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


class TestTable:
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

    def test_verify_grid_too_small_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PSTAR)
        code, _, err = run(capsys, "verify", cfg, "--grid-n", "4")
        assert code == 2


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


def scalar_table_agreement(comp, sigma0, deltaT, target, samples=200):
    """verify's regime-table-agreement residual, one classify_branch per sample."""
    span = max(1.0, 3.0 * abs(characteristic_constants(comp, deltaT).D), abs(sigma0))
    table = regime_table(comp, deltaT, target)
    worst = 0.0
    for i in range(samples):
        s0 = -span + (2.0 * span) * (i + 0.5) / samples
        direct, _ = classify_branch(comp, deltaT, target, s0)
        via_table = table.bound_at(s0)
        scale = max(direct.value, abs(via_table), span)
        worst = max(worst, abs(direct.value - via_table) / scale)
    return worst


class TestVerifyTableAgreement:
    @pytest.mark.parametrize("ordering", list(Ordering))
    def test_residuals_equal_scalar_loop(self, tmp_path, capsys, rng, ordering):
        for j in range(3):
            comp = random_composite(rng, ordering)
            sigma0, deltaT = float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-3.0, 3.0))
            doc = {
                "phase1": vars(comp.phase1),
                "phase2": vars(comp.phase2),
                "theta1": comp.theta1,
                "loading": {"sigma0": sigma0, "deltaT": deltaT},
            }
            cfg = write_config(tmp_path, doc, f"c{j}.json")
            _, out, _ = run(capsys, "verify", cfg, "--grid-n", "64")
            rows = [r for r in parse_csv(out) if r["check"] == "regime-table-agreement"]
            assert [r["orientation"] for r in rows] == ["phase1", "phase2", "max"]
            for row in rows:
                expected = scalar_table_agreement(comp, sigma0, deltaT, row["orientation"])
                assert float(row["residual"]) == expected


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(thermobounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, thermobounds.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
