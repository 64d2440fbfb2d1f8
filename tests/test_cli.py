import configparser
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invreg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RATE_TOL = 0.15   # the slope tolerance of tests/test_acceptance.py


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SYNTH_CFG = """
[problem]
n = 16
p = 1.0
nu = 0.0
sigma = 0.1
seed = 3
"""

SELECT_SECTIONS = """
[family]
kind = {kind}
{extra}
[penalty]
sigma2 = 0.01
r = 2.5
"""


def run_synth(tmp_path, out_name="synth", cfg_text=SYNTH_CFG):
    cfg = write_config(tmp_path, "synth.ini", cfg_text)
    out = str(tmp_path / out_name)
    assert main(["synth", "--config", cfg, "--out", out]) == 0
    return cfg, out


class TestSynth:
    def test_smoke_files_and_row_counts(self, tmp_path):
        _, out = run_synth(tmp_path)
        for name in ("grid.csv", "operator.csv", "truth.csv", "data.csv",
                     "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "data.csv")) as fh:
            assert len(fh.read().strip().splitlines()) == 17   # header + 16

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run_synth(tmp_path, "a")
        _, out2 = run_synth(tmp_path, "b")
        for name in ("grid.csv", "operator.csv", "truth.csv", "data.csv"):
            b1 = Path(out1, name).read_bytes()
            b2 = Path(out2, name).read_bytes()
            assert b1 == b2

    def test_sigma_zero_gives_clean_observations(self, tmp_path):
        cfg_text = SYNTH_CFG.replace("sigma = 0.1", "sigma = 0.0")
        _, out = run_synth(tmp_path, "clean", cfg_text)
        rows = Path(out, "data.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _, clean, y = row.split(",")
            assert clean == y

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x")]) == 2


class TestSelect:
    def test_single_candidate_named_in_summary(self, tmp_path):
        _, out = run_synth(tmp_path)
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="tikhonov",
                                                  extra="count = 1\n"))
        sel_out = str(tmp_path / "sel")
        assert main(["select", "--config", cfg, "--data", out,
                     "--out", sel_out]) == 0
        summary = Path(sel_out, "summary.txt").read_text()
        assert "chosen_label = tikhonov(alpha=1.0)" in summary
        stats_lines = Path(sel_out, "family.csv").read_text().splitlines()
        assert stats_lines[0] == "k,kind,parameter,trace_stat,radius_stat"
        assert len(stats_lines) == 2

    def test_projection_paths_agree(self, tmp_path):
        _, out = run_synth(tmp_path)
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="projection", extra=""))
        sel_out = str(tmp_path / "sel")
        assert main(["select", "--config", cfg, "--data", out,
                     "--out", sel_out]) == 0
        summary = Path(sel_out, "summary.txt").read_text()
        assert "threshold_agreement = 1" in summary

    def run_select(self, tmp_path, kind="projection", extra="", sections=None):
        _, out = run_synth(tmp_path)
        cfg = write_config(tmp_path, "sel.ini",
                           sections or SELECT_SECTIONS.format(kind=kind, extra=extra))
        sel_out = str(tmp_path / "sel")
        code = main(["select", "--config", cfg, "--data", out, "--out", sel_out])
        return code, sel_out

    def test_projection_dims_prefix_runs_cross_check(self, tmp_path):
        # model size is 3 here, so dims 1, 2 is a strict prefix
        code, sel_out = self.run_select(tmp_path, extra="dims = 1, 2\n")
        assert code == 0
        summary = Path(sel_out, "summary.txt").read_text()
        assert "threshold_agreement = 1" in summary

    def test_projection_dims_gap_skips_cross_check(self, tmp_path):
        code, sel_out = self.run_select(tmp_path, extra="dims = 1, 3\n")
        assert code == 0
        summary = Path(sel_out, "summary.txt").read_text()
        assert "chosen_k = " in summary
        assert "threshold_agreement" not in summary

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_value_is_config_error(self, tmp_path, value):
        sections = SELECT_SECTIONS.format(kind="tikhonov", extra="").replace(
            "sigma2 = 0.01", f"sigma2 = {value}")
        code, _ = self.run_select(tmp_path, sections=sections)
        assert code == 2

    def test_non_finite_config_list_is_config_error(self, tmp_path, capsys):
        code, _ = self.run_select(tmp_path, sections=SELECT_SECTIONS.format(
            kind="projection", extra="") + "weights = 1.0, inf, 1.0\n")
        assert code == 2
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("name,column", [("data.csv", -1), ("operator.csv", 0)])
    def test_non_finite_csv_value_is_data_error(self, tmp_path, capsys, name,
                                                column):
        _, out = run_synth(tmp_path)
        path = os.path.join(out, name)
        lines = Path(path).read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = "nan"
        lines[2] = ",".join(fields)
        Path(path).write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="tikhonov", extra=""))
        code = main(["select", "--config", cfg, "--data", out,
                     "--out", str(tmp_path / "sel")])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 3" in err and "finite" in err

    def test_missing_sigma2_names_the_noise_assumption(self, tmp_path, capsys):
        _, out = run_synth(tmp_path)
        cfg = write_config(tmp_path, "sel.ini",
                           "[family]\nkind = tikhonov\n[penalty]\nr = 2.5\n")
        code = main(["select", "--config", cfg, "--data", out,
                     "--out", str(tmp_path / "sel")])
        assert code == 2
        err = capsys.readouterr().err
        assert "sigma2" in err and "AN" in err

    def test_malformed_csv_cites_row(self, tmp_path, capsys):
        _, out = run_synth(tmp_path)
        path = os.path.join(out, "data.csv")
        lines = Path(path).read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
        Path(path).write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="tikhonov", extra=""))
        code = main(["select", "--config", cfg, "--data", out,
                     "--out", str(tmp_path / "sel")])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_underscore_and_non_ascii_digit_are_data_errors(self, tmp_path,
                                                            capsys, token):
        def edit(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + "," + token
            return lines
        assert main(_data_argv(tmp_path, "data.csv", edit)) == 3
        assert f"row 3: cannot parse {token!r} in column y" in capsys.readouterr().err

    def test_wrong_field_count_on_one_row_cites_that_row(self, tmp_path, capsys):
        def edit(lines):
            lines[4] = lines[4].rsplit(",", 1)[0]
            return lines
        assert main(_data_argv(tmp_path, "data.csv", edit)) == 3
        assert "row 5 has 2 fields, expected 3" in capsys.readouterr().err

    def test_every_row_one_field_short_is_data_error(self, tmp_path, capsys):
        def edit(lines):
            return [lines[0]] + [line.rsplit(",", 1)[0] for line in lines[1:]]
        assert main(_data_argv(tmp_path, "data.csv", edit)) == 3
        assert "row 2 has 2 fields, expected 3" in capsys.readouterr().err

    def test_header_only_data_is_data_error_without_warning(self, tmp_path, capsys):
        argv = _data_argv(tmp_path, "data.csv", lambda lines: lines[:1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert "no data rows" in capsys.readouterr().err

    def test_quoted_numeric_fields_read_as_unquoted(self, tmp_path):
        argv = _select_argv(tmp_path, TIKHONOV_SELECT)
        assert main(argv) == 0
        plain = Path(argv[6], "selection.csv").read_text()
        path = os.path.join(argv[4], "data.csv")
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(
            [lines[0]] + [",".join(f'"{v}"' for v in line.split(","))
                          for line in lines[1:]]) + "\n")
        assert main(argv) == 0
        assert Path(argv[6], "selection.csv").read_text() == plain

    def test_comment_and_blank_lines_are_not_counted_as_rows(self, tmp_path, capsys):
        def edit(lines):
            lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
            return ["# a leading comment", lines[0], "  # indented", "", *lines[1:]]
        assert main(_data_argv(tmp_path, "data.csv", edit)) == 3
        assert "row 3: cannot parse 'not_a_number'" in capsys.readouterr().err


RISK_CFG = """
[problem]
p = 1.0
nu = 0.5
sigma = 0.1

[family]
kind = tikhonov

[experiment]
n_grid = 64, 128, 256, 512
replications = 5
seed = 2
"""


class TestRiskAndRates:
    def test_rates_report_contains_theoretical_exponent(self, tmp_path):
        cfg = write_config(tmp_path, "risk.ini", RISK_CFG)
        out = str(tmp_path / "rates")
        assert main(["rates", "--config", cfg, "--out", out]) == 0
        text = Path(out, "rates.csv").read_text()
        assert "-0.4" in text
        assert os.path.exists(os.path.join(out, "risk.csv"))

    def test_too_few_grid_points_is_insufficient_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "risk.ini",
                           RISK_CFG.replace("64, 128, 256, 512", "64, 128"))
        code = main(["rates", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "4 distinct n" in capsys.readouterr().err

    def test_theory_column_caps_smoothness_at_the_qualification(self, tmp_path):
        # nu = 2 exceeds Tikhonov's qualification 1: the rate saturates at
        # theoretical_exponent(p, 1) = -4/7, not -0.727
        text = Path(ROOT, "configs", "rates.ini").read_text()
        cfg = write_config(tmp_path, "nu2.ini", text.replace(
            "nu = 0.5", "nu = 2.0").replace("kind = both", "kind = tikhonov"))
        out = str(tmp_path / "rates")
        assert main(["rates", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "rates.csv")) as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["theoretical"]) == pytest.approx(-4.0 / 7.0)
        assert abs(float(row["slope"]) - float(row["theoretical"])) <= RATE_TOL

    def test_risk_writes_plot_data(self, tmp_path):
        cfg = write_config(tmp_path, "risk.ini", RISK_CFG)
        out = str(tmp_path / "risk")
        assert main(["risk", "--config", cfg, "--out", out, "--threads", "2"]) == 0
        lines = Path(out, "plotdata.csv").read_text().strip().splitlines()
        assert lines[0] == "method,log_n,log_risk"
        assert len(lines) == 5

    def test_risk_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # a BLAS product over the n samples sums in an order set by the thread
        # count, which at n = 65536 reaches the last digits of risk.csv
        cfg = write_config(tmp_path, "threads.ini", RISK_CFG.replace(
            "64, 128, 256, 512", "4096, 8192, 16384, 65536").replace(
            "replications = 5", "replications = 20").replace("seed = 2", "seed = 0"))
        path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                             os.environ.get("PYTHONPATH")]))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "invreg.cli", "risk",
                            "--config", cfg, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            written.append((out / "risk.csv").read_bytes())
        assert written[0] == written[1]


CONC_CFG = """
[concentration]
matrices = identity:4 decay:8
replications = 2000
u_count = 8
weight = 1.0
sigma = 1.0
identity_trials = 5
seed = 0

[penalty]
r = 2.5
kraft_d = {kraft_d}
"""


class TestConcentration:
    def test_clean_run_has_no_violations(self, tmp_path):
        cfg = write_config(tmp_path, "conc.ini", CONC_CFG.format(kraft_d=1.0))
        out = str(tmp_path / "conc")
        assert main(["concentration", "--config", cfg, "--out", out]) == 0
        tails = Path(out, "tails.csv").read_text().splitlines()
        flags = [line.rsplit(",", 1)[-1] for line in tails
                 if line and not line.startswith(("#", "matrix"))]
        assert flags and all(f == "0" for f in flags)
        assert os.path.exists(os.path.join(out, "identity.csv"))
        assert os.path.exists(os.path.join(out, "moments.csv"))

    def test_oversized_kraft_constant_trips_violation_exit(self, tmp_path):
        # the bound only holds for some small constant; forcing a huge one
        # must be reported as a violation, not hidden
        cfg = write_config(tmp_path, "conc.ini", CONC_CFG.format(kraft_d=100.0))
        code = main(["concentration", "--config", cfg,
                     "--out", str(tmp_path / "conc")])
        assert code == 4


class TestDiagnostics:
    def test_writes_key_value_report(self, tmp_path):
        cfg = write_config(tmp_path, "diag.ini", """
[problem]
n = 32
p = 1.0
nu = 0.5

[diagnostics]
dims = 1, 2, 3
""")
        out = str(tmp_path / "diag")
        assert main(["diagnostics", "--config", cfg, "--out", out]) == 0
        text = Path(out, "diagnostics.txt").read_text()
        assert "sv_k1 = " in text and "ratio_bound = " in text


TIKHONOV_SELECT = SELECT_SECTIONS.format(kind="tikhonov", extra="")

DIAG_CFG = """
[problem]
n = 32
p = 1.0
nu = 0.5
"""


def _select_argv(tmp_path, sections):
    _, out = run_synth(tmp_path)
    cfg = write_config(tmp_path, "sel.ini", sections)
    return ["select", "--config", cfg, "--data", out, "--out", str(tmp_path / "sel")]


def _data_argv(tmp_path, name, edit, command="select"):
    """argv of ``command --data`` on synth output whose ``name`` went through
    ``edit`` (a map from the file's lines to new lines)."""
    argv = [command] + _select_argv(tmp_path, TIKHONOV_SELECT)[1:]
    path = os.path.join(argv[4], name)
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(edit(lines)) + "\n")
    return argv


def _swap_first_rows(lines):
    return [lines[0], lines[2], lines[1]] + lines[3:]


def _append_copy_of_first_column(name):
    return lambda lines: ([f"{lines[0]},{name}"]
                          + [f"{l},{l.split(',')[0]}" for l in lines[1:]])


def _seventeen_columns(lines):
    # 17 basis functions cannot be resolved on the 16-point grid
    return ([",".join(f"phi{j}" for j in range(1, 18))]
            + [",".join([l.split(",")[0]] * 17) for l in lines[1:]])


def _rates_argv(tmp, cfg_text):
    return ["rates", "--config", write_config(tmp, "risk.ini", cfg_text),
            "--out", str(tmp / "r")]


def _conc_argv(tmp, old, new):
    return ["concentration", "--config", write_config(
        tmp, "conc.ini", CONC_CFG.format(kraft_d=1.0).replace(old, new)),
        "--out", str(tmp / "c")]


def _diag_argv(tmp, cfg_text):
    return ["diagnostics", "--config", write_config(tmp, "diag.ini", cfg_text),
            "--out", str(tmp / "d")]


def _synth_argv(tmp, old, new):
    return ["synth", "--config", write_config(
        tmp, "synth.ini", SYNTH_CFG.replace(old, new)), "--out", str(tmp / "s")]


def _matrix_case(token):
    return lambda tmp: _conc_argv(tmp, "identity:4 decay:8", token)


def _latin1_config(tmp):
    path = tmp / "latin1.ini"
    path.write_bytes(SYNTH_CFG.encode() + "# caf\xe9\n".encode("latin-1"))
    return ["synth", "--config", str(path), "--out", str(tmp / "s")]


def _out_is_a_file(tmp):
    (tmp / "taken").write_text("")
    return ["synth", "--config", write_config(tmp, "synth.ini", SYNTH_CFG),
            "--out", str(tmp / "taken")]


def _out_file_is_a_directory(name):
    def argv(tmp):
        os.makedirs(tmp / "s" / name)
        return ["synth", "--config", write_config(tmp, "synth.ini", SYNTH_CFG),
                "--out", str(tmp / "s")]
    return argv


def _grid_csv_is_a_directory(tmp):
    argv = _select_argv(tmp, TIKHONOV_SELECT)
    grid = os.path.join(argv[4], "grid.csv")
    os.remove(grid)
    os.mkdir(grid)
    return argv


def _latin1_data(tmp):
    argv = _select_argv(tmp, TIKHONOV_SELECT)
    with open(os.path.join(argv[4], "data.csv"), "ab") as fh:
        fh.write("# caf\xe9\n".encode("latin-1"))
    return argv


P_OVERFLOW_CFG = RISK_CFG.replace("p = 1.0", "p = 600").replace(
    "kind = tikhonov", "kind = projection")

OUT_OF_RANGE = {
    "select r": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT.replace("r = 2.5", "r = 2.0")),
    "rates r": lambda tmp: _rates_argv(tmp, RISK_CFG + "\n[penalty]\nr = 2.0\n"),
    "select ratio": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="tikhonov", extra="ratio = 1.5\n")),
    "concentration weight": lambda tmp: _conc_argv(tmp, "weight = 1.0", "weight = -1"),
    "synth nu": lambda tmp: _synth_argv(tmp, "nu = 0.0", "nu = -1"),
    "select weights length": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT + "weights = 1.0, 1.0\n"),
    "select p": lambda tmp: _select_argv(tmp, TIKHONOV_SELECT + "[problem]\np = 0\n"),
    "diagnostics dims": lambda tmp: _diag_argv(tmp, DIAG_CFG + "[diagnostics]\ndims = 0\n"),
    "diagnostics empty dims": lambda tmp: _diag_argv(
        tmp, DIAG_CFG + "[diagnostics]\ndims =\n"),
    "select count": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="tikhonov", extra="count = 0\n")),
    "diagnostics data p": lambda tmp: ["diagnostics"] + _select_argv(
        tmp, "[problem]\np = -1\n")[1:],
    "rates kraft_target": lambda tmp: _rates_argv(
        tmp, RISK_CFG + "\n[penalty]\nkraft_target = 0\n"),
    "rates ratio": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("kind = tikhonov", "kind = tikhonov\nratio = 0")),
    "rates alpha_max": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("kind = tikhonov", "kind = tikhonov\nalpha_max = 1e-300")),
    "rates omega": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("nu = 0.5", "nu = 0.5\nomega = x")),
    "rates ext_factor": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("nu = 0.5", "nu = 0.5\next_factor = 0")),
    "rates p": lambda tmp: _rates_argv(tmp, RISK_CFG.replace("p = 1.0", "p = -1")),
    "rates sigma": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("sigma = 0.1", "sigma = -0.1")),
    "rates seed": lambda tmp: _rates_argv(tmp, RISK_CFG.replace("seed = 2", "seed = -1")),
    "concentration moment_q": lambda tmp: _conc_argv(
        tmp, "identity_trials", "moment_q = 0\nidentity_trials"),
    "concentration u_count": lambda tmp: _conc_argv(tmp, "u_count = 8", "u_count = 0"),
    # k2^(q - 1/2) overflows in the moment bound shape
    "concentration moment bound overflow": lambda tmp: _conc_argv(
        tmp, "weight = 1.0", "weight = 1e300\nmoment_q = 2"),
    "concentration seed": lambda tmp: _conc_argv(tmp, "seed = 0", "seed = -1"),
    "concentration regularizer:8x4": _matrix_case("regularizer:8x4"),
    "concentration decay:x": _matrix_case("decay:x"),
    "concentration decay:0": _matrix_case("decay:0"),
    "concentration identity:-1": _matrix_case("identity:-1"),
    "concentration regularizer:4": _matrix_case("regularizer:4"),
    "concentration no matrices": _matrix_case(""),
    "concentration identity_trials": lambda tmp: _conc_argv(
        tmp, "identity_trials = 5", "identity_trials = 0"),
    "synth sigma": lambda tmp: _synth_argv(tmp, "sigma = 0.1", "sigma = -1"),
    # the Kraft target is out of reach below the weight cap
    "rates kraft_d": lambda tmp: _rates_argv(
        tmp, RISK_CFG + "\n[penalty]\nkraft_d = 1e-300\n"),
    "select kraft_d": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT + "kraft_d = 1e-300\n"),
    # every filter value underflows: the regularizer is identically zero
    "select alpha_max zero filter": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="tikhonov", extra="alpha_max = 1e300\n")),
    "rates alpha_max zero filter": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("kind = tikhonov", "kind = tikhonov\nalpha_max = 1e300")),
    # the tikhonov cutoff d^(-2p) underflows to 0: the alpha grid never ends
    "rates p underflow": lambda tmp: _rates_argv(tmp, RISK_CFG.replace("p = 1.0", "p = 600")),
    # 1/lambda_2^2 = 2^1200 overflows in the projection family's statistics
    "rates projection p overflow": lambda tmp: _rates_argv(tmp, P_OVERFLOW_CFG),
    "select p underflow": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT + "[problem]\np = 600\n"),
    "config is a directory": lambda tmp: ["synth", "--config", str(tmp),
                                          "--out", str(tmp / "s")],
    "config not utf-8": _latin1_config,
    "out is a file": _out_is_a_file,
    "out grid.csv is a directory": _out_file_is_a_directory("grid.csv"),
    "out manifest.json is a directory": _out_file_is_a_directory("manifest.json"),
}


def _overflowing_y(lines):
    return [lines[0]] + [l.rsplit(",", 1)[0] + ",1e300" for l in lines[1:]]


def _synth_small_argv(tmp, command, edits, sections=TIKHONOV_SELECT):
    """argv of ``command --data`` on the output of configs/synth_small.ini
    (n = 64, d = 4) after ``edits`` (file name -> map from its lines to new
    lines)."""
    data = str(tmp / "synth")
    assert main(["synth", "--config", os.path.join(ROOT, "configs", "synth_small.ini"),
                 "--out", data]) == 0
    for name, edit in edits.items():
        path = Path(data, name)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return [command, "--config", write_config(tmp, "sel.ini", sections),
            "--data", data, "--out", str(tmp / "out")]


def _times_1e_160(first):
    """Multiply every CSV column from index ``first`` on by 1e-160."""
    def edit(lines):
        rows = [l.split(",") for l in lines[1:]]
        return [lines[0]] + [",".join(r[:first] + [repr(float(v) * 1e-160)
                                                   for v in r[first:]])
                             for r in rows]
    return edit


# 1/lambda_j^2 overflows for singular values below about 1e-154
TINY_SPECTRUM = {"operator.csv": _times_1e_160(0),
                 "data.csv": _times_1e_160(1)}   # t stays, clean and y shrink


def _clustered_grid(lines):
    # 64 points in three clusters 1e-15 apart: four cosines see three abscissae
    t = [c + 1e-15 * i for c, size in ((0.2, 21), (0.5, 21), (0.8, 22))
         for i in range(size)]
    return [lines[0]] + [repr(v) for v in t]


BAD_DATA = {
    "unsorted grid": lambda tmp: _data_argv(tmp, "grid.csv", _swap_first_rows),
    "copied operator column": lambda tmp: _data_argv(
        tmp, "operator.csv", _append_copy_of_first_column("copy")),
    "diagnostics copied operator column": lambda tmp: _data_argv(
        tmp, "operator.csv", _append_copy_of_first_column("copy"), "diagnostics"),
    "more operator columns than grid rows": lambda tmp: _data_argv(
        tmp, "operator.csv", _seventeen_columns),
    "repeated column name": lambda tmp: _data_argv(
        tmp, "operator.csv", _append_copy_of_first_column("phi1")),
    "overflowing y": lambda tmp: _data_argv(tmp, "data.csv", _overflowing_y),
    "grid.csv is a directory": _grid_csv_is_a_directory,
    "data.csv not utf-8": _latin1_data,
    "tiny spectrum": lambda tmp: _synth_small_argv(
        tmp, "select", TINY_SPECTRUM, SELECT_SECTIONS.format(kind="projection",
                                                             extra="")),
    "near-coincident grid points": lambda tmp: _synth_small_argv(
        tmp, "select", {"grid.csv": _clustered_grid}),
    "diagnostics near-coincident grid points": lambda tmp: _synth_small_argv(
        tmp, "diagnostics", {"grid.csv": _clustered_grid}),
}


class TestOutOfRange:
    @pytest.mark.parametrize("case,code", [(case, 2) for case in OUT_OF_RANGE]
                             + [(case, 3) for case in BAD_DATA])
    def test_exit_code(self, tmp_path, capsys, case, code):
        argv = {**OUT_OF_RANGE, **BAD_DATA}[case](tmp_path)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ")

    def test_statistics_overflow_names_p(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_rates_argv(tmp_path, P_OVERFLOW_CFG)) == 2
        assert "[problem] p" in capsys.readouterr().err

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "synth.ini", SYNTH_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg, "--out", str(tmp_path / "s"),
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def _set_key(text, section, key, value):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


PROBLEM_KEYS = ["n", "p", "nu", "rho", "sigma", "seed", "omega", "d_ext"]

# (command, reads --data, base config, {section: keys the command reads})
SWEEP = [
    ("synth", False, SYNTH_CFG, {"problem": PROBLEM_KEYS}),
    ("diagnostics", False, DIAG_CFG,
     {"problem": PROBLEM_KEYS, "diagnostics": ["dims"]}),
    ("rates", False, RISK_CFG.replace("replications = 5", "replications = 3"),
     {"problem": ["p", "nu", "rho", "sigma", "ext_factor", "omega"],
      "experiment": ["seed", "n_grid", "replications"],
      "family": ["kind", "alpha_max", "ratio"],
      "penalty": ["r", "kraft_target", "kraft_d"]}),
    ("concentration", False,
     CONC_CFG.format(kraft_d=1.0).replace("replications = 2000", "replications = 200"),
     {"concentration": ["seed", "replications", "u_count", "weight", "sigma",
                        "moment_q", "matrices", "identity_trials"],
      "penalty": ["r", "kraft_d"]}),
    ("select", True, TIKHONOV_SELECT,
     {"problem": ["p"], "family": ["kind", "alpha_max", "ratio", "count"],
      "penalty": ["sigma2", "r", "kraft_d", "kraft_target", "weights"]}),
    ("select", True, SELECT_SECTIONS.format(kind="projection", extra=""),
     {"family": ["dims"]}),
    ("diagnostics", True, "", {"problem": ["p"], "diagnostics": ["dims"]}),
]


class TestConfigSweep:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_config_value_exits_as_data_error_or_crash(self, tmp_path):
        """Every config key each command reads, set to -1, 0, x, 1e-300 or
        1e300, gives success (0), a config error (2) or a violation (4)."""
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        bad = []
        for command, uses_data, base, keys in SWEEP:
            for section, names in keys.items():
                for key in names:
                    for value in ("-1", "0", "x", "1e-300", "1e300"):
                        cfg = write_config(tmp_path, "sweep.ini",
                                           _set_key(base, section, key, value))
                        argv = [command, "--config", cfg,
                                "--out", str(tmp_path / "out")]
                        if uses_data:
                            argv += ["--data", data]
                        try:
                            code = main(argv)
                        except Exception as exc:  # noqa: BLE001
                            code = repr(exc)
                        if code not in (0, 2, 4):
                            bad.append((command, f"[{section}] {key} = {value}", code))
        assert not bad


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                  1e16, 9999999999999998.0, 1e-5, 0.1, 1.0]


class TestCell:
    def test_one_rule_for_every_cell(self):
        from invreg.configio import cell
        assert cell(float("nan")) == "NA"
        assert cell(np.float64("nan")) == "NA"
        assert cell(np.float64(0.1)) == "0.1"
        assert cell(0.1) == repr(0.1)
        assert cell(np.True_) == "1"
        assert cell(False) == "0"
        assert cell(7) == "7"
        assert cell(np.int64(7)) == "7"
        assert cell("projection") == "projection"

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2),
                      elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)))
    @example(np.array([SPECIAL_FLOATS[:5], SPECIAL_FLOATS[5:]]))
    def test_array_body_writes_the_bytes_of_cell(self, body):
        """The array path writes the bytes of the ``cell`` path, and a finite
        body reads back bit for bit."""
        from invreg.configio import read_matrix_csv, write_csv
        header = [f"c{j}" for j in range(body.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "slow.csv")
            write_csv(fast, header, body, ["# note"])
            write_csv(slow, header, body.tolist(), ["# note"])
            assert Path(fast).read_bytes() == Path(slow).read_bytes()
            if np.isfinite(body).all():
                assert read_matrix_csv(fast).tobytes() == body.tobytes()


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["rates.ini", "rates_nu1.ini",
                                      "concentration.ini", "synth_small.ini"])
    def test_parseable(self, name):
        from invreg.configio import load_config
        cp = load_config(os.path.join(ROOT, "configs", name))
        assert cp.sections()

    def test_rates_default_matches_advertised_protocol(self):
        from invreg.configio import load_config
        cp = load_config(os.path.join(ROOT, "configs", "rates.ini"))
        assert cp.get("problem", "nu") == "0.5"
        assert cp.get("experiment", "replications") == "200"
        assert len(cp.get("experiment", "n_grid").split(",")) == 6
