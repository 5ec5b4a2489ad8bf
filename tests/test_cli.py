import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhcool import cli, dynamics, oracle, spectral, steady
from nhcool.cli import CHAIN_FLAGS, build_parser, main
from nhcool.model import HoppingMatrix, ModeParams, build_hopping_matrix, chain_from_config

LN2 = math.log(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestRabi:
    def test_default_curve(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--output", str(out), "--grid", "401"]) == 0
        header, rows = read_csv(out)
        assert header == ["tau", "n_1", "n_2"]
        assert len(rows) == 401
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert rows[-1, 0] == pytest.approx(2.0 * math.pi, rel=1e-12)
        # quarter period: the excitation has fully left site 1
        quarter = rows[100]
        assert quarter[0] == pytest.approx(math.pi / 2, rel=1e-12)
        assert quarter[1] == pytest.approx(0.0, abs=1e-12)
        # fraction of samples with n_1 > n_2 tracks 2 atan(1/2)/pi
        frac = np.mean(rows[:, 1] > rows[:, 2])
        assert frac == pytest.approx(2.0 * math.atan(0.5) / math.pi, abs=0.01)

    def test_grid_and_periods_contract(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--output", str(out), "--grid", "1000", "--periods", "2"]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1000
        assert rows[-1, 0] == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_zero_periods_single_point(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--periods", "0", "--grid", "1", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows.tolist() == [[0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("config", [{}, {"n_modes": 3, "bonds": [{"index": 0, "t": 0.5}]}])
    def test_period_follows_t(self, tmp_path, config):
        # a bond override does not change the period, which is pi / --t
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "rabi.csv"
        argv = ["rabi", "--t", "2", "--periods", "1", "--grid", "5", "--config", str(cfg)]
        assert main([*argv, "--output", str(out)]) == 0
        assert read_csv(out)[1][-1, 0] == math.pi / 2

    def test_symmetric_option(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--output", str(out), "--A", "0", "--grid", "201"]) == 0
        _, rows = read_csv(out)
        assert rows[:, 1] == pytest.approx(np.cos(rows[:, 0]) ** 2, abs=1e-10)

    def test_strong_asymmetry_starts_on_site_1(self, tmp_path):
        # a dense eigenbasis gave n_1 = 9.3e-36 here, with exit 0
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--A", "3", "--n-modes", "20", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == 1.0
        assert rows[:, 1:].sum(axis=1) == pytest.approx(np.ones(len(rows)), rel=1e-13)

    def test_strong_asymmetry_finishes(self, tmp_path):
        # the step follows sqrt(t_fwd t_bwd), not t e^A: a step of 1 / ||h||_1
        # would need about 3e9 of them here
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--A", "20", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        c2, s2 = np.cos(rows[:, 0]) ** 2, np.sin(rows[:, 0]) ** 2
        assert rows[:, 1] == pytest.approx(c2 / (c2 + math.exp(40.0) * s2), abs=1e-12)

    @pytest.mark.parametrize("argv,message", [
        (["--periods", "1e300"], "Taylor steps, more than 100000"),
        (["--A", "700"], "Taylor steps, more than 100000"),
        (["--periods", "-1"], "--periods must be >= 0, got -1.0"),
        (["--periods", "0", "--grid", "3"], "--periods 0 gives one time, not --grid 3"),
    ])
    def test_unserved_grid_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", *argv, "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSweepA:
    def test_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep-A", "--output", str(out),
            "--ea-min", "1", "--ea-max", "5", "--ea-count", "5",
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["exp_asymmetry", "n_1", "n_2"]
        assert rows[0, 0] == 1.0
        assert rows[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert rows[0, 2] == pytest.approx(1.0, rel=1e-12)
        row_ea2 = rows[np.argmin(np.abs(rows[:, 0] - 2.0))]
        assert row_ea2[1] == pytest.approx(0.400, abs=1e-3)
        assert rows[:, 1] + rows[:, 2] == pytest.approx(np.full(5, 2.0), rel=1e-12)


class TestChainProfile:
    def test_two_mode_row_values(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["chain-profile", "--output", str(out), "--sizes", "2"]) == 0
        header, rows = read_csv(out)
        assert header == ["N", "site", "n_i", "n_i_spectral"]
        assert rows[0, 2] == pytest.approx(0.400, abs=1e-3)
        assert rows[0, 3] == pytest.approx(0.400, abs=1e-3)
        assert rows[1, 2] == pytest.approx(1.600, abs=1e-3)

    def test_default_sizes(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["chain-profile", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 5 + 10 + 15
        ten = rows[rows[:, 0] == 10]
        # interior slope of log n_i approaches log 4 per site
        slopes = np.diff(np.log(ten[:, 2]))
        assert slopes[5:] == pytest.approx(np.full(4, math.log(4.0)), rel=0.02)

    def test_flat_profile_when_hermitian(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["chain-profile", "--output", str(out), "--sizes", "6", "--A", "0"]) == 0
        _, rows = read_csv(out)
        assert rows[:, 2] == pytest.approx(np.ones(6), rel=1e-10)
        assert rows[:, 3] == pytest.approx(np.ones(6), rel=1e-10)


class TestScaling:
    def test_columns_and_monotonicity(self, tmp_path):
        out = tmp_path / "scaling.csv"
        assert main([
            "scaling", "--output", str(out), "--n-min", "2", "--n-max", "12",
            "--kappas", "1e-3,1e-2",
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["N", "kappa", "n_1", "plateau", "n_1_spectral"]
        assert len(rows) == 2 * 11
        for kappa in (1e-3, 1e-2):
            sel = rows[rows[:, 1] == kappa]
            assert np.all(np.diff(sel[:, 2]) <= 1e-15)  # n_1 non-increasing in N
            assert len(set(sel[:, 3])) == 1  # plateau column constant per kappa
        # larger kappa, larger plateau
        p1 = rows[rows[:, 1] == 1e-3][0, 3]
        p2 = rows[rows[:, 1] == 1e-2][0, 3]
        assert p2 > p1


class TestAttached:
    def test_grid_shape_and_cooling(self, tmp_path):
        out = tmp_path / "attached.csv"
        assert main([
            "attached", "--output", str(out), "--n-modes", "6",
            "--kappa0-count", "3", "--t0-count", "3",
        ]) == 0
        header, rows = read_csv(out)
        assert header == ["kappa_0", "t_0", "n_0"]
        assert len(rows) == 9
        assert np.all(rows[:, 2] < 1.0)

    def test_command_flags_read_from_config(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"n_modes": 4, "kappa0_count": 2, "t0_count": 3}))
        out = tmp_path / "attached.csv"
        assert main(["attached", "--config", str(cfg), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6


class TestSteadyCommand:
    def test_plain_chain(self, tmp_path):
        out = tmp_path / "steady.csv"
        assert main(["steady", "--output", str(out), "--n-modes", "3"]) == 0
        header, rows = read_csv(out)
        assert header == ["site", "n"]
        assert rows[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert rows[:, 1].sum() == pytest.approx(3.0, rel=1e-10)

    def test_attached_mode_included(self, tmp_path):
        out = tmp_path / "steady.csv"
        assert main([
            "steady", "--output", str(out), "--n-modes", "4",
            "--t0", "1.0", "--kappa0", "0.01",
        ]) == 0
        _, rows = read_csv(out)
        assert rows[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rows[0, 1] < 1.0

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps({"n_modes": 2, "t": 1.0, "A": LN2,
                                   "kappa": 0.05, "n_th": 1.0}))
        out_cfg = tmp_path / "a.csv"
        out_flag = tmp_path / "b.csv"
        assert main(["steady", "--config", str(cfg), "--output", str(out_cfg)]) == 0
        assert main([
            "steady", "--config", str(cfg), "--kappa", "0.01", "--output", str(out_flag),
        ]) == 0
        _, rows_cfg = read_csv(out_cfg)
        _, rows_flag = read_csv(out_flag)
        ref = tmp_path / "ref.csv"
        assert main(["steady", "--n-modes", "2", "--kappa", "0.01", "--output", str(ref)]) == 0
        _, rows_ref = read_csv(ref)
        assert rows_flag[:, 1] == pytest.approx(rows_ref[:, 1], rel=1e-14)
        assert abs(rows_cfg[0, 1] - rows_flag[0, 1]) > 1e-6  # config value differed

    def test_bond_overrides_from_config(self, tmp_path):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps({
            "n_modes": 3, "t": 1.0, "A": 0.0, "kappa": 0.01, "n_th": 1.0,
            "bonds": [{"index": 0, "t": 1.0, "A": LN2}],
        }))
        out = tmp_path / "steady.csv"
        assert main(["steady", "--config", str(cfg), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        # first bond non-reciprocal, second Hermitian: site 1 is cooled
        assert rows[0, 1] < 1.0
        assert rows[:, 1].sum() == pytest.approx(3.0, rel=1e-10)

    def test_stdout_output(self, capsys):
        assert main(["steady", "--n-modes", "2", "--output", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("site,n\n")


@pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
class TestOracleCommand:
    def test_canonical_config_reports_violation(self, tmp_path):
        # the trace-corrected master equation settles well above the rate
        # equations, so the default 10% gate trips; the data is still written
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--output", str(out), "--n-th", "0.1",
                     "--kappa", "0.05", "--cutoff", "4"])
        assert code == 4
        header, rows = read_csv(out)
        assert header == ["mode", "n_rate", "n_dynamics", "n_oracle"]
        assert len(rows) == 2
        assert rows[:, 2] == pytest.approx(rows[:, 1], rel=1e-3)

    def test_relaxed_gate_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--output", str(out), "--n-th", "0.1",
                     "--kappa", "0.05", "--cutoff", "4", "--max-rel-dev", "1.5"])
        assert code == 0

    def test_zero_temperature_agrees(self, tmp_path):
        # every layer returns exactly 0; 0 against 0 is agreement, not 0/0
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--output", str(out), "--n-th", "0",
                     "--kappa", "0.05", "--cutoff", "3"])
        assert code == 0
        _, rows = read_csv(out)
        assert np.all(rows[:, 1:] == 0.0)

    def test_zero_temperature_deviation_in_one_mode_fails(self, tmp_path, monkeypatch):
        # mode 1 agrees at 0, mode 2 does not: nonzero against 0 deviates
        # without bound, and the agreeing mode must not hide it
        monkeypatch.setattr(oracle, "oracle_steady", lambda *args, **kw: np.array([0.0, 1e-3]))
        code = main(["oracle", "--output", str(tmp_path / "oracle.csv"), "--n-th", "0",
                     "--kappa", "0.05", "--cutoff", "3", "--max-rel-dev", "1e6"])
        assert code == 4


class TestExitCodesAndDeterminism:
    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as err:
            main(["rabi", "--no-such-flag"])
        assert err.value.code == 2

    def test_usage_error_from_bad_value(self, tmp_path):
        assert main(["rabi", "--output", str(tmp_path / "x.csv"), "--grid", "0"]) == 2
        assert main(["steady", "--n-modes", "2", "--kappa", "-1",
                     "--output", str(tmp_path / "y.csv")]) == 2

    # a config file describes the computation: its output path is not a config key
    @pytest.mark.parametrize("command,key", [("steady", "kapa"), ("attached", "jobs"),
                                             ("steady", "output")])
    def test_unknown_config_key_is_usage_error(self, tmp_path, command, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n_modes": 2, key: 4}))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("site", ["0", "5"])
    def test_start_site_outside_chain_is_usage_error(self, tmp_path, site):
        out = tmp_path / "x.csv"
        assert main(["rabi", "--start-site", site, "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["scaling", "--n-min", "5", "--n-max", "3"],
        ["sweep-A", "--ea-count", "0"],
        ["attached", "--kappa0-count", "0"],
        ["scaling", "--kappas", ""],
        ["chain-profile", "--sizes", ""],
    ])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, argv):
        # these wrote a header-only CSV and exited 0
        out = tmp_path / "x.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert "usage error: the requested grid is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [[1, 2], "n_modes"])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "x.csv"
        assert main(["steady", "--config", str(cfg), "--output", str(out)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_error_exit_code(self, tmp_path):
        code = main(["steady", "--n-modes", "2", "--kappa", "0",
                     "--output", str(tmp_path / "z.csv")])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--output", "/nonexistent/dir/x.csv"],
        ["--config", "/nonexistent/dir/config.json"],
    ], ids=["output", "config"])
    def test_io_error_exit_code(self, capsys, argv):
        assert main(["steady", *argv]) == 3
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chain-profile", "--sizes", "5,10"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "steady.csv"
        assert main(["steady", "--n-modes", "2", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        from nhcool import make_uniform_chain, solve_steady_chain
        ss = solve_steady_chain(make_uniform_chain(2, 1.0, LN2, 0.01, 1.0))
        assert rows[:, 1].tolist() == ss.occupations.tolist()


class TestNonFiniteInputs:
    @pytest.mark.parametrize("flag,value", [
        ("--kappa", "nan"), ("--A", "inf"), ("--n-th", "nan"), ("--n-th", "inf"),
    ])
    def test_steady_rejects_non_finite(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        assert main(["steady", "--n-modes", "3", flag, value, "--output", str(out)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-A", "--ea-min", "nan", "--ea-count", "2"],
        ["rabi", "--periods", "nan", "--grid", "2"],
    ])
    def test_grid_flags_reject_non_finite(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        # at the defaults the oracle deviates by 63.9%, yet a NaN limit passed it
        ("--max-rel-dev", "nan", "--max-rel-dev must be >= 0, got nan"),
        ("--dyn-rel-dev", "nan", "--dyn-rel-dev must be >= 0, got nan"),
        ("--max-rel-dev", "-1", "--max-rel-dev must be >= 0, got -1.0"),
        ("--tol", "nan", "tol must be >= 0, got nan"),
        ("--tol", "-1", "tol must be >= 0, got -1.0"),
    ])
    def test_oracle_limits_reject_nan_and_negative(self, tmp_path, capsys, flag, value, message):
        # no TruncationWarning: the limits are checked before the solve, and
        # the tol gate before the top levels
        out = tmp_path / "x.csv"
        assert main(["oracle", flag, value, "--output", str(out)]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    def test_oracle_infinite_limit_turns_its_check_off(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["oracle", "--max-rel-dev", "inf", "--output", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("argv", [
        ["steady", "--n-modes", "3", "--A", "400"],
        ["chain-profile", "--sizes", "3", "--A", "400"],
        ["sweep-A", "--ea-min", "1e200", "--ea-max", "1e200", "--ea-count", "1"],
    ])
    def test_overflowing_rates_are_rejected(self, tmp_path, capsys, argv):
        # finite amplitudes whose rate t^2 e^{2A} / kappa overflows used to
        # give nan rows and exit 0
        out = tmp_path / "x.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert "bond 0 produces a transition rate that is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["steady", "--t", "1e200", "--A", "1"],
         "bond 0 produces a transition rate that is not finite"),
        (["scaling", "--t", "1e200", "--A", "1", "--n-max", "3"],
         "bond 0: t_fwd * t_bwd = (inf+0j) overflows or is not finite"),
        # these two wrote inf after two RuntimeWarnings and exited 0
        (["chain-profile", "--sizes", "3", "--n-th", "1e308"],
         "an occupation overflows the double range"),
        (["scaling", "--n-max", "3", "--n-th", "1e308"],
         "an occupation overflows the double range"),
    ])
    def test_overflowing_amplitude_product_is_one_usage_error(self, tmp_path, argv, message):
        # a fresh interpreter with the default warning filters, so a numpy
        # RuntimeWarning would reach stderr instead of being raised
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nhcool.cli", *argv, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith(f"usage error: {message}")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--ea-min", "0"), ("--ea-min", "-1"), ("--ea-max", "0"), ("--ea-max", "nan"),
        ("--ea-max", "inf"), ("--ea-min", "inf"),
    ])
    def test_sweep_a_rejects_nonpositive_exp_asymmetry(self, tmp_path, capsys, flag, value):
        # math.log(e^A) failed with "math domain error", which named no flag
        out = tmp_path / "x.csv"
        assert main(["sweep-A", flag, value, "--output", str(out)]) == 2
        assert f"usage error: {flag} is exp(A) and must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--kappa0-max", "inf", "--kappa0-max must be positive and finite, got inf"),
        ("--kappa0-max", "-1", "--kappa0-max must be positive and finite, got -1.0"),
        ("--kappa0-min", "0", "--kappa0-min must be positive and finite, got 0.0"),
        ("--kappa0-min", "nan", "--kappa0-min must be positive and finite, got nan"),
        ("--t0-max", "inf", "--t0-max must be finite, got inf"),
        ("--t0-min", "nan", "--t0-min must be finite, got nan"),
    ])
    def test_attached_grid_bounds_are_one_usage_error(self, tmp_path, flag, value, message):
        # numpy built the grid first: a RuntimeWarning, then an error that named no flag
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nhcool.cli", "attached", flag, value, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["attached", "--t0-min=-1e308", "--t0-max", "1e308"],
         "--t0-max - --t0-min must be finite, got inf"),
        (["attached", "--t0-min=-1e308", "--t0-max", "1e308", "--t0-count", "1"],
         "--t0-max - --t0-min must be finite, got inf"),
        (["rabi", "--periods", "1e308", "--t", "1e-5"],
         "--periods * pi / --t must be finite, got inf"),
        (["rabi", "--periods", "1e308", "--t", "1e-5", "--grid", "1"],
         "--periods * pi / --t must be finite, got inf"),
        (["rabi", "--periods", "inf"], "--periods * pi / --t must be finite, got inf"),
        (["rabi", "--periods", "nan"], "--periods must be >= 0, got nan"),
    ])
    def test_grid_spans_are_one_usage_error(self, tmp_path, argv, message):
        # finite bounds whose span overflows: numpy warned while building the
        # grid, then the solve rejected its nan or inf times naming no flag
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nhcool.cli", *argv, "--output", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"usage error: {message}\n"
        assert not out.exists()

    def test_scaling_plateau_overflow_is_usage_error(self, tmp_path, capsys):
        # plateau_limit ran before any rate check and raised OverflowError (exit 1)
        out = tmp_path / "x.csv"
        assert main(["scaling", "--A", "400", "--n-max", "3", "--output", str(out)]) == 2
        assert "usage error: t**2 exp(2 A) is not finite" in capsys.readouterr().err
        assert not out.exists()


# --- grid commands: one stacked solve, the CSV of point-by-point calls ---------

GRID_CONFIGS = {
    # per-bond overrides as in the benchmark's sweeps
    "bonds": {"t": 1.02, "A": 0.67, "kappa": 0.01, "n_th": 1.0, "bonds": [
        {"index": k, "t": 1.0 + 0.013 * (k - 4), "A": LN2 * (1.0 + 0.021 * (4 - k))}
        for k in range(9)]},
    "A3": {"t": 1.0, "A": 3.0, "kappa": 1e-6, "n_th": 1.0},
}
GRID_ARGV = {
    "attached": ["attached", "--kappa0-count", "7", "--t0-count", "5"],
    "sweep-A": ["sweep-A", "--ea-count", "60"],
    "scaling": ["scaling", "--n-min", "10", "--n-max", "40"],
}


def _pointwise_csv(command, cfg):
    """The CSV of ``GRID_ARGV[command]``, from one public call per grid point."""
    t, a, kappa, n_th = cfg["t"], cfg["A"], cfg["kappa"], cfg["n_th"]

    def chain(**keys):
        return chain_from_config({"t": t, "A": a, "kappa": kappa, "n_th": n_th,
                                  "bonds": cfg.get("bonds"), **keys})

    if command == "attached":
        spec = chain(n_modes=15)
        header, rows = ["kappa_0", "t_0", "n_0"], [
            (k0, t0, steady.solve_with_attached(spec, ModeParams(k0, n_th), t0).occupations[0])
            for k0 in np.geomspace(1e-4, 1e-1, 7) for t0 in np.linspace(0.05, 2.0, 5)]
    elif command == "sweep-A":
        header, rows = ["exp_asymmetry", "n_1", "n_2"], [
            (ea, *steady.closed_form_two_mode(t, math.log(ea), kappa, kappa, n_th))
            for ea in np.linspace(1.0, 5.0, 60)]
    else:
        edge = {n: spectral.spectral_occupations(spectral.diagonalize(
            build_hopping_matrix(chain(n_modes=n, kappa=0.0))), n_th)[0] for n in range(10, 41)}
        header, rows = ["N", "kappa", "n_1", "plateau", "n_1_spectral"], [
            (n, k, steady.solve_steady_chain(chain(n_modes=n, kappa=k)).occupations[0],
             steady.plateau_limit(t, a, k, n_th), edge[n])
            for k in (1e-4, 1e-3, 1e-2) for n in range(10, 41)]
    return _csv(header, rows)


def _csv(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


@pytest.mark.parametrize("config", sorted(GRID_CONFIGS))
@pytest.mark.parametrize("command", sorted(GRID_ARGV))
def test_grid_csv_is_the_pointwise_csv(tmp_path, command, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(GRID_CONFIGS[config]))
    out = tmp_path / "grid.csv"
    assert main([*GRID_ARGV[command], "--config", str(cfg), "--output", str(out)]) == 0
    assert out.read_text() == _pointwise_csv(command, GRID_CONFIGS[config])


# the other commands, at the per-bond config (the oracle's chain keeps its first two bonds)
LIBRARY_ARGV = {
    "rabi": ["rabi", "--n-modes", "10", "--grid", "40", "--start-site", "3"],
    "chain-profile": ["chain-profile", "--sizes", "10,13"],
    "oracle": ["oracle", "--n-modes", "3", "--cutoff", "3", "--max-rel-dev", "inf"],
    "steady": ["steady", "--n-modes", "10"],
    "steady --t0": ["steady", "--n-modes", "10", "--t0", "0.7", "--kappa0", "0.02"],
}


def _library_config(command):
    cfg = GRID_CONFIGS["bonds"]
    return dict(cfg, bonds=cfg["bonds"][:2]) if command == "oracle" else cfg


def _library_csv(command):
    """The CSV of ``LIBRARY_ARGV[command]``, from the library calls the command makes."""
    cfg = _library_config(command)
    t, n_th = cfg["t"], cfg["n_th"]

    def chain(n_modes):
        return chain_from_config({**cfg, "n_modes": n_modes})

    if command == "rabi":
        tau = np.linspace(0.0, 2.0 * math.pi / t, 40)
        occ = dynamics.single_excitation_trace(chain(10), 2, tau).occupations
        return _csv(["tau"] + [f"n_{i + 1}" for i in range(10)],
                    [(tau[k], *occ[k]) for k in range(len(tau))])
    if command == "chain-profile":
        rows = []
        for n in (10, 13):
            spec = chain(n)
            occ = steady.solve_steady_chain(spec).occupations
            hn = spectral.spectral_occupations(
                spectral.diagonalize(build_hopping_matrix(spec)), n_th)
            rows += [(n, i + 1, occ[i], hn[i]) for i in range(n)]
        return _csv(["N", "site", "n_i", "n_i_spectral"], rows)
    if command == "oracle":
        spec = chain(3)
        n_rate = steady.solve_steady_chain(spec).occupations
        n_dyn = dynamics.steady_from_dynamics(spec, tol=1e-6).occupations
        n_orc = oracle.oracle_steady(spec, 3, tol=1e-8)
        return _csv(["mode", "n_rate", "n_dynamics", "n_oracle"],
                    [(i + 1, n_rate[i], n_dyn[i], n_orc[i]) for i in range(3)])
    if command == "steady":
        occ = steady.solve_steady_chain(chain(10)).occupations
        return _csv(["site", "n"], [(i + 1, occ[i]) for i in range(10)])
    occ = steady.solve_with_attached(chain(10), ModeParams(0.02, n_th), 0.7).occupations
    return _csv(["site", "n"], [(i, occ[i]) for i in range(11)])  # the attached mode is site 0


@pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
@pytest.mark.parametrize("command", sorted(LIBRARY_ARGV))
def test_csv_is_the_library_csv(tmp_path, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_library_config(command)))
    out = tmp_path / "out.csv"
    assert main([*LIBRARY_ARGV[command], "--config", str(cfg), "--output", str(out)]) == 0
    assert out.read_text() == _library_csv(command)


@pytest.mark.parametrize("command,eliminations", [("attached", 1), ("scaling", 1), ("sweep-A", 0)])
def test_grid_is_one_stacked_solve(tmp_path, monkeypatch, command, eliminations):
    # a return to point-by-point solving fails here without a timer
    calls = {"gth": [], "rates": 0}
    gth_solve, rate_bands = steady._gth_solve, HoppingMatrix.rate_bands

    def counted_gth(up, down, slack, rhs):
        calls["gth"].append(slack.ndim > 1)
        return gth_solve(up, down, slack, rhs)

    def counted_rates(self, kappa):
        calls["rates"] += 1
        return rate_bands(self, kappa)

    monkeypatch.setattr(steady, "_gth_solve", counted_gth)
    monkeypatch.setattr(HoppingMatrix, "rate_bands", counted_rates)
    assert main([*GRID_ARGV[command], "--output", str(tmp_path / "x.csv")]) == 0
    assert calls == {"gth": [True] * eliminations, "rates": 1}


# --- the CLI surface ----------------------------------------------------------

def _declared_flags():
    """Every (command, flag) pair the parser declares, but --config and --output."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0])
        for command, p in sub.choices.items()
        for action in p._actions
        if action.option_strings and action.dest not in ("help", "config", "output")
    ]


# Small runs of each command; a flag is live when setting it changes the CSV or
# the exit status of these.  steady attaches a mode so that --kappa0 is read,
# and oracle passes its first gate so that --dyn-rel-dev is reached.
LIVENESS_BASE = {
    "rabi": ["--grid", "5"],
    "sweep-A": ["--ea-count", "3"],
    "chain-profile": ["--sizes", "3"],
    "scaling": ["--n-max", "4", "--kappas", "0.01"],
    "attached": ["--n-modes", "3", "--kappa0-count", "2", "--t0-count", "2"],
    "oracle": ["--cutoff", "3", "--max-rel-dev", "10"],
    "steady": ["--n-modes", "3", "--t0", "1"],
}

# A valid non-default value for every declared flag.
LIVENESS_VALUES = {
    ("rabi", "--n-modes"): "3", ("rabi", "--t"): "2", ("rabi", "--A"): "0.5",
    ("rabi", "--grid"): "6", ("rabi", "--periods"): "1", ("rabi", "--start-site"): "2",
    ("sweep-A", "--t"): "2", ("sweep-A", "--kappa"): "0.02", ("sweep-A", "--n-th"): "2",
    ("sweep-A", "--ea-min"): "1.5", ("sweep-A", "--ea-max"): "4", ("sweep-A", "--ea-count"): "4",
    ("chain-profile", "--t"): "2", ("chain-profile", "--A"): "0.5",
    ("chain-profile", "--kappa"): "0.02", ("chain-profile", "--n-th"): "2",
    ("chain-profile", "--sizes"): "4",
    ("scaling", "--t"): "2", ("scaling", "--A"): "0.5", ("scaling", "--n-th"): "2",
    ("scaling", "--n-min"): "3", ("scaling", "--n-max"): "5", ("scaling", "--kappas"): "0.02",
    ("attached", "--n-modes"): "4", ("attached", "--t"): "2", ("attached", "--A"): "0.5",
    ("attached", "--kappa"): "0.02", ("attached", "--n-th"): "2",
    ("attached", "--kappa0-min"): "1e-3", ("attached", "--kappa0-max"): "0.5",
    ("attached", "--kappa0-count"): "3", ("attached", "--t0-min"): "0.1",
    ("attached", "--t0-max"): "1.5", ("attached", "--t0-count"): "3",
    ("oracle", "--n-modes"): "3", ("oracle", "--t"): "2", ("oracle", "--A"): "0.5",
    ("oracle", "--kappa"): "0.02", ("oracle", "--n-th"): "0.5", ("oracle", "--cutoff"): "4",
    ("oracle", "--tol"): "1e-30", ("oracle", "--max-rel-dev"): "1e-6",
    ("oracle", "--dyn-rel-dev"): "1e-30",
    ("steady", "--n-modes"): "4", ("steady", "--t"): "2", ("steady", "--A"): "0.5",
    ("steady", "--kappa"): "0.02", ("steady", "--n-th"): "2", ("steady", "--t0"): "0.5",
    ("steady", "--kappa0"): "0.02",
}

REMOVED_FLAGS = [
    ("rabi", "--kappa"), ("rabi", "--n-th"), ("rabi", "--tol"),
    ("sweep-A", "--n-modes"), ("sweep-A", "--A"), ("sweep-A", "--tol"),
    ("chain-profile", "--n-modes"), ("chain-profile", "--tol"),
    ("scaling", "--n-modes"), ("scaling", "--kappa"), ("scaling", "--tol"),
    ("attached", "--tol"), ("steady", "--tol"),
]


def _run(tmp_path, name, argv):
    """Exit status and CSV bytes (None when none was written) of one call."""
    out = tmp_path / f"{name}.csv"
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else None


class TestCliSurface:
    def test_every_declared_flag_has_a_liveness_value(self):
        assert sorted(_declared_flags()) == sorted(LIVENESS_VALUES)
        assert len(LIVENESS_VALUES) == 50

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.parametrize("command,flag", _declared_flags())
    def test_flag_is_live(self, tmp_path, command, flag):
        base = [command] + LIVENESS_BASE[command]
        before = _run(tmp_path, "base", base)
        after = _run(tmp_path, "flag", base + [flag, LIVENESS_VALUES[command, flag]])
        assert before != after

    def test_readme_command_table_matches_parser(self):
        # the "command | chain flags | own flags" table lists every command's flags
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| `([^`]*)` \| `([^`]*)` \|$", readme, re.M)
        chain_flags = {"--" + key.replace("_", "-") for key in CHAIN_FLAGS}
        declared = {}
        for command, flag in _declared_flags():
            declared.setdefault(command, set()).add(flag)
        table = {command: (set(chain.split()), set(own.split())) for command, chain, own in rows}
        assert sorted(table) == sorted(declared)
        for command, (chain, own) in table.items():
            assert chain == declared[command] & chain_flags, command
            assert own == declared[command] - chain_flags, command

    @pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
    def test_removed_flag_is_usage_error(self, tmp_path, command, flag):
        # no prefix matching either: scaling's --kappa must not bind to --kappas
        with pytest.raises(SystemExit) as err:
            main([command, flag, "1", "--output", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command,argv", [
        ("attached", ["--kappa0-count", "2", "--t0-count", "2"]),
        ("chain-profile", ["--sizes", "3,5"]),
        ("scaling", ["--n-min", "3", "--n-max", "5", "--kappas", "0.01"]),
        ("rabi", ["--n-modes", "3", "--grid", "5"]),
        ("steady", ["--n-modes", "3"]),
    ])
    def test_bond_overrides_reach_every_chain(self, tmp_path, command, argv):
        uniform = tmp_path / "uniform.json"
        bonds = tmp_path / "bonds.json"
        uniform.write_text(json.dumps({"n_modes": 4, "t": 1.0, "A": LN2}))
        bonds.write_text(json.dumps({"n_modes": 4, "t": 1.0, "A": LN2,
                                     "bonds": [{"index": 1, "t": 0.5, "A": 0.0}]}))
        plain = _run(tmp_path, "u", [command, "--config", str(uniform)] + argv)
        overridden = _run(tmp_path, "b", [command, "--config", str(bonds)] + argv)
        assert plain[0] == overridden[0] == 0
        assert plain[1] != overridden[1]

    @pytest.mark.filterwarnings("ignore::nhcool.TruncationWarning")
    @pytest.mark.parametrize("command", ["rabi", "chain-profile", "scaling", "attached",
                                         "oracle", "steady"])
    def test_out_of_range_bond_index_is_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "bonds.json"
        cfg.write_text(json.dumps({"bonds": [{"index": 200, "t": 0.5}]}))
        code, csv = _run(tmp_path, "x", [command, "--config", str(cfg)])
        assert code == 2
        assert csv is None
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("steady", "n_modes", "x"), ("oracle", "cutoff", 2.5), ("chain-profile", "sizes", "3,y"),
    ])
    def test_unparseable_config_value_is_usage_error(self, tmp_path, capsys, command, key,
                                                     value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main([command, "--config", str(cfg), "--output", str(out)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage:")
        assert "--" + key.replace("_", "-") in stderr
        assert not out.exists()

    def test_shared_keys_without_a_flag_are_ignored(self, tmp_path):
        # one file serves every command: rabi reads no kappa, n_th or tol
        shared = tmp_path / "shared.json"
        shared.write_text(json.dumps({"t": 1.0, "A": LN2, "kappa": 0.05, "n_th": 0.1,
                                      "tol": 1e-3, "cutoff": 3}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"t": 1.0, "A": LN2}))
        assert (_run(tmp_path, "a", ["rabi", "--grid", "5", "--config", str(shared)])
                == _run(tmp_path, "b", ["rabi", "--grid", "5", "--config", str(plain)]))

    def test_config_values_round_trip_exactly(self, tmp_path):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps({"n_modes": 3, "t": 0.1 + 0.2, "A": LN2 / 3,
                                   "kappa": 1e-5 / 3, "n_th": 2 / 3}))
        flags = ["--n-modes", "3", "--t", repr(0.1 + 0.2), "--A", repr(LN2 / 3),
                 "--kappa", repr(1e-5 / 3), "--n-th", repr(2 / 3)]
        assert (_run(tmp_path, "a", ["steady", "--config", str(cfg)])
                == _run(tmp_path, "b", ["steady"] + flags))
