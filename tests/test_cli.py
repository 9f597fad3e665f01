"""Command-line surface: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fmls
from fmls.cli import main
from fmls.greens import default_pricing_grid, discretized_price
from fmls.model import OptionSpec, StableModel
from fmls.series import Truncation, convergence_table, price_series

PRICE_ARGS = [
    "price",
    "--spot", "3800",
    "--strike", "4000",
    "--rate", "0.01",
    "--sigma", "0.2",
    "--tau", "1",
    "--alpha", "1.7",
]


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """Run ``python -m fmls`` in a child process on the same package as the
    in-process tests, whether or not PYTHONPATH names it."""
    src = str(Path(fmls.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fmls", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestPriceCommand:
    def test_series_price(self, capsys):
        code, out, _ = run_main(capsys, PRICE_ARGS + ["--engine", "series"])
        assert code == 0
        price = float(out.splitlines()[0].split()[1])
        assert price == pytest.approx(256.035, abs=0.001)

    def test_gilpelaez_price(self, capsys):
        code, out, _ = run_main(
            capsys, PRICE_ARGS + ["--engine", "gilpelaez", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "gil_pelaez"
        assert payload["price"] == pytest.approx(256.04, abs=0.01)

    def test_bs_engine(self, capsys):
        code, out, _ = run_main(
            capsys, PRICE_ARGS + ["--engine", "bs", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["price"] == pytest.approx(235.52, abs=0.01)

    def test_json_round_trip_is_bit_identical(self, capsys):
        code, out, _ = run_main(capsys, PRICE_ARGS + ["--format", "json"])
        assert code == 0
        parsed = json.loads(out)["price"]
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        direct = price_series(m, s, Truncation(n_max=24, m_max=32)).price
        assert parsed == direct  # exact float equality

    def test_alpha_range_exit_code(self, capsys):
        code, _, err = run_main(
            capsys,
            ["price", "--spot", "3800", "--strike", "4000", "--rate", "0.01",
             "--sigma", "0.2", "--tau", "1", "--alpha", "0.9"],
        )
        assert code == 2
        assert "alpha" in err

    def test_unknown_flag_exit_code(self, capsys):
        code = main(PRICE_ARGS + ["--bogus", "1"])
        capsys.readouterr()
        assert code == 2

    def test_missing_flag_exit_code(self, capsys):
        code = main(["price", "--spot", "3800"])
        capsys.readouterr()
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        code, _, err = run_main(
            capsys, PRICE_ARGS + ["--nmax", "2", "--mmax", "2", "--tol", "1e-9"]
        )
        assert code == 3
        assert "numerical" in err

    def test_discretization_default_grid_without_warning(self, capsys):
        # argparse keeps the last --alpha, so this prices at alpha = 1.5.
        argv = PRICE_ARGS + ["--alpha", "1.5", "--engine", "discretization"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_main(capsys, argv + ["--format", "json"])
        assert code == 0
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.5)
        assert json.loads(out)["price"] == discretized_price(m, s).price

    def test_refine_prices_on_the_refined_default_grid(self, capsys):
        code, out, _ = run_main(
            capsys,
            PRICE_ARGS + ["--engine", "discretization", "--refine", "1", "--format", "json"],
        )
        assert code == 0
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        grid = default_pricing_grid(m, s, refine=1)
        assert json.loads(out)["price"] == discretized_price(m, s, grid).price

    def test_negative_refine_exit_code(self, capsys):
        code, _, err = run_main(
            capsys, PRICE_ARGS + ["--engine", "discretization", "--refine", "-1"]
        )
        assert code == 2
        assert "refine" in err

    def test_help_lists_refine_and_no_grid_flags(self, capsys):
        code, out, _ = run_main(capsys, ["price", "--help"])
        assert code == 0
        assert "--refine" in out
        assert "--points" not in out and "--width" not in out

    def test_csv_format(self, capsys):
        code, out, _ = run_main(capsys, PRICE_ARGS + ["--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "price,engine,terms_used,error_estimate"
        assert float(lines[1].split(",")[0]) == pytest.approx(256.035, abs=0.001)


class TestTableCommand:
    TABLE_ARGS = [
        "table",
        "--spot", "3800",
        "--strike", "4000",
        "--rate", "0.01",
        "--sigma", "0.2",
        "--tau", "1",
        "--alpha", "1.7",
    ]

    def test_csv_matches_library_exactly(self, capsys):
        code, out, _ = run_main(capsys, self.TABLE_ARGS + ["--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,1,2,3,4,5,6,7"
        s = OptionSpec(spot=3800, strike=4000, rate=0.01, sigma=0.2, tau=1.0)
        m = StableModel.from_spec(s, 1.7)
        table = convergence_table(m, s, Truncation(n_max=8, m_max=7, tail_tol=0.0))
        for n, line in enumerate(lines[1:10]):
            cells = line.split(",")
            assert cells[0] == str(n)
            got = np.array([float(c) for c in cells[1:]])
            assert np.array_equal(got, table.terms[n])  # 17 digits round-trip
        call = np.array([float(c) for c in lines[10].split(",")[1:]])
        assert np.array_equal(call, table.partial_sums)

    def test_single_cell_table(self, capsys):
        code, out, _ = run_main(
            capsys, self.TABLE_ARGS + ["--nmax", "0", "--mmax", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,1"
        assert len(lines) == 3  # header, one term row, call row

    def test_human_table_shows_call_row(self, capsys):
        code, out, _ = run_main(capsys, self.TABLE_ARGS)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("call")

    def test_has_no_tolerance_flag(self, capsys):
        code, _, _ = run_main(capsys, self.TABLE_ARGS + ["--tol", "0"])
        assert code == 2


class TestCompareCommand:
    def test_default_matrix_reproduces_series_row(self, capsys):
        code, out, _ = run_main(capsys, ["compare", "--engines", "series", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "spot,engine,alpha,price"
        got = {}
        for line in lines[1:]:
            spot, engine, alpha, price = line.split(",")
            got[(float(spot), float(alpha))] = float(price)
        expected_otm = [284.52, 268.52, 256.04, 246.60, 239.83, 235.52]
        expected_itm = [547.67, 523.25, 502.53, 485.07, 470.56, 458.79]
        for alpha, e_otm, e_itm in zip(
            [1.5, 1.6, 1.7, 1.8, 1.9, 2.0], expected_otm, expected_itm
        ):
            assert got[(3800.0, alpha)] == pytest.approx(e_otm, abs=0.01)
            assert got[(4200.0, alpha)] == pytest.approx(e_itm, abs=0.01)

    def test_single_cell(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["compare", "--spots", "3800", "--alphas", "1.7", "--engines", "series",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[3]) == pytest.approx(256.04, abs=0.01)

    def test_json_failed_cell_is_null_with_a_note(self, capsys):
        # The density engine's contour tail check fails at alpha = 1.01.
        code, out, _ = run_main(
            capsys,
            ["compare", "--spots", "3800", "--alphas", "1.01", "--engines",
             "discretization", "--format", "json"],
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["prices"] == [None]
        assert row["notes"][0]

    @pytest.mark.parametrize("engine", ["series", "gilpelaez", "discretization"])
    def test_cell_is_the_price_command_with_its_defaults(self, capsys, engine):
        code, out, _ = run_main(
            capsys,
            ["compare", "--spots", "3800", "--alphas", "1.7", "--engines", engine,
             "--format", "json"],
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        code, out, _ = run_main(
            capsys, PRICE_ARGS + ["--engine", engine, "--format", "json"]
        )
        assert code == 0
        assert row["prices"] == [json.loads(out)["price"]]

    def test_unknown_engine(self, capsys):
        code, _, err = run_main(capsys, ["compare", "--engines", "montecarlo"])
        assert code == 2
        assert "engine" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_main(capsys, ["compare", "--engines", "series,gilpelaez"])
        _, out2, _ = run_main(capsys, ["compare", "--engines", "series,gilpelaez"])
        assert out1 == out2


class TestDensityCommand:
    DENSITY_ARGS = ["density", "--alpha", "2.0", "--sigma", "0.2", "--tau", "1"]

    def test_gaussian_export_matches_heat_kernel(self, capsys):
        code, out, _ = run_main(capsys, self.DENSITY_ARGS + ["--points", "201"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,density"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        ys, dens = data[:, 0], data[:, 1]
        want = np.exp(-(ys**2) / (2 * 0.04)) / (0.2 * math.sqrt(2 * math.pi))
        assert float(np.max(np.abs(dens - want))) <= 1e-8

    def test_export_normalization(self, capsys):
        code, out, _ = run_main(capsys, self.DENSITY_ARGS + ["--points", "801"])
        assert code == 0
        data = np.array(
            [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        )
        mass = np.trapezoid(data[:, 1], data[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_low_alpha_warns_on_stderr(self):
        proc = run_module(
            ["density", "--alpha", "1.5", "--sigma", "0.2", "--tau", "1", "--points", "5"]
        )
        assert proc.returncode == 0
        assert "grid edge" in proc.stderr

    def test_contour_flag(self, capsys):
        code1, out1, _ = run_main(capsys, self.DENSITY_ARGS + ["--points", "11", "--c1", "0.4"])
        code2, out2, _ = run_main(capsys, self.DENSITY_ARGS + ["--points", "11", "--c1", "0.6"])
        assert code1 == code2 == 0
        a = np.array([float(l.split(",")[1]) for l in out1.strip().splitlines()[1:]])
        b = np.array([float(l.split(",")[1]) for l in out2.strip().splitlines()[1:]])
        assert float(np.max(np.abs(a - b))) <= 1e-8


class TestImpliedVolCommand:
    def test_round_trip(self, capsys):
        code, out, _ = run_main(capsys, PRICE_ARGS + ["--format", "json"])
        target = json.loads(out)["price"]
        code, out, _ = run_main(
            capsys,
            ["implied-vol", "--spot", "3800", "--strike", "4000", "--rate", "0.01",
             "--tau", "1", "--alpha", "1.7", "--target", repr(target),
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["sigma"] == pytest.approx(0.2, abs=1e-6)

    def test_bound_violation_exit_code(self, capsys):
        code, _, err = run_main(
            capsys,
            ["implied-vol", "--spot", "3800", "--strike", "4000", "--rate", "0.01",
             "--tau", "1", "--alpha", "1.7", "--target", "3800"],
        )
        assert code == 2
        assert "bounds" in err


class TestModuleInvocation:
    def test_subprocess_price(self):
        proc = run_module(PRICE_ARGS + ["--format", "json"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["price"] == pytest.approx(256.035, abs=0.001)

    def test_help_exits_zero(self):
        proc = run_module(["--help"])
        assert proc.returncode == 0
        assert "price" in proc.stdout
