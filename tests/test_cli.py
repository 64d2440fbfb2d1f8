import configparser
import csv
import inspect
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import invreg
from invreg.cli import main

from conftest import config_text, library_default

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


def csvs_under_blas_threads(tmp_path, command, cfg, data=None):
    """The CSVs and text files that ``command`` writes from ``cfg`` (and the
    files under ``data``, if given) in a subprocess under one and under two
    BLAS threads, one {file name: bytes} dict per count."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    extra = [] if data is None else ["--data", data]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}-{'data-' if extra else ''}threads{threads}"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "invreg.cli", command,
                        "--config", cfg, "--out", str(out)] + extra,
                       env=env, check=True, capture_output=True)
        written.append({f.name: f.read_bytes() for pattern in ("*.csv", "*.txt")
                        for f in out.glob(pattern)})
    return written


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

    def test_csvs_do_not_depend_on_blas_threads(self, tmp_path):
        # n = 20001 is no multiple of 4 x threads, so a BLAS matrix-vector
        # product over the grid would sum its last rows in another order
        cfg = write_config(tmp_path, "threads.ini",
                           SYNTH_CFG.replace("n = 16", "n = 20001"))
        one, two = csvs_under_blas_threads(tmp_path, "synth", cfg)
        assert sorted(one) == ["data.csv", "grid.csv", "operator.csv", "truth.csv"]
        assert one == two

    def test_operator_csv_is_the_dense_sample_matrix(self, tmp_path):
        # n = 20001 (d = 28, d_ext = 112) writes the samples in 8 row blocks
        from invreg.configio import write_csv
        from invreg.operator import choose_m0, cosine_design, midpoint_grid
        n = 20001
        _, out = run_synth(tmp_path, cfg_text=SYNTH_CFG.replace("n = 16", f"n = {n}"))
        d = choose_m0(n, 1.0)
        dense = cosine_design(midpoint_grid(n), d).T * np.arange(1, d + 1) ** -1.0
        path = str(tmp_path / "dense.csv")
        write_csv(path, [f"phi{j}" for j in range(1, d + 1)], dense)
        assert Path(out, "operator.csv").read_bytes() == Path(path).read_bytes()

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

    @pytest.mark.parametrize("command", ["synth", "diagnostics"])
    def test_spectrum_below_the_rank_cliff_writes_nothing(self, tmp_path, capsys,
                                                          command):
        # d = 2 at n = 32: lambda_2 = 2^-60 is below the cliff that the
        # readers of the files apply, so synth would write files none accepts
        cfg = write_config(tmp_path, "cliff.ini", DIAG_CFG.replace("p = 1.0", "p = 60"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "[problem] p = 60.0" in capsys.readouterr().err
        assert not out.exists()


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

    def test_projection_paths_agree_under_a_dominant_offset(self, tmp_path):
        # 1e8 added to y puts nearly all inverted energy in the first coefficient
        _, out = run_synth(tmp_path, cfg_text=SYNTH_CFG.replace("n = 16", "n = 64"))
        path = Path(out, "data.csv")
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [
            f"{t},{clean},{float(y) + 1e8!r}"
            for t, clean, y in (row.split(",") for row in rows)]) + "\n")
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
        one, two = csvs_under_blas_threads(tmp_path, "risk", cfg)
        assert "risk.csv" in one and one == two


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

    def test_csvs_do_not_depend_on_blas_threads(self, tmp_path):
        # the shipped matrix list, regularizer:4x16 included, and two wide ones
        cfg = write_config(tmp_path, "threads.ini", CONC_CFG.format(kraft_d=1.0).replace(
            "identity:4 decay:8", "identity:4 decay:8 regularizer:4x16 "
            "regularizer:8x4096 regularizer:32x16384"))
        one, two = csvs_under_blas_threads(tmp_path, "concentration", cfg)
        assert sorted(one) == ["identity.csv", "moments.csv", "tails.csv"]
        assert one == two

    @pytest.mark.parametrize("old,new,key", [
        ("identity_trials", "moment_q = 0\nidentity_trials", "[concentration] moment_q"),
        ("u_count = 8", "u_count = 0", "the u grid"),
        # the last grid point (Tr + rho) 2^1020 overflows for identity:64
        # (Tr + rho = 65), not for identity:4 (5), which is drawn first
        ("u_count = 8", "u_count = 1023", "[concentration] u_count"),
        # k2^(3/2) overflows in the shape of the second moment's bound
        ("weight = 1.0", "weight = 1e300\nmoment_q = 2", "[concentration] moment_q"),
        # exp(-sqrt(k2)) underflows for identity:64 (k2 = 8.1e5), not identity:4
        ("weight = 1.0", "weight = 1e4", "[concentration] moment_q"),
        # sigma^2 (level + u) is 1.7e308 at the top of identity:4's u grid,
        # and overflows at the top of identity:64's
        ("sigma = 1.0", "sigma = 1e153", "[concentration] sigma")],
        ids=["moment_q", "u_count", "u_count overflow", "moment bound overflow",
             "moment bound underflow", "tail level overflow"])
    def test_bad_settings_fail_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                               old, new, key):
        drawn = []
        draw = invreg.QuadFormSpec.eta_squared_samples

        def counting(spec):
            drawn.append(spec.A.shape)
            return draw(spec)

        monkeypatch.setattr(invreg.QuadFormSpec, "eta_squared_samples", counting)
        cfg = write_config(tmp_path, "conc.ini", CONC_CFG.format(kraft_d=1.0).replace(
            "identity:4 decay:8", "identity:4 identity:64").replace(old, new))
        out = tmp_path / "conc"
        assert main(["concentration", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert drawn == []
        assert not out.exists()

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

    def test_without_data_forms_no_samples(self, tmp_path, monkeypatch):
        # the operator's samples are formed and folded a row block of d = 4
        # columns at a time; the d_ext = 16-row extended design of the clean
        # samples is never built
        built = []
        real = invreg.experiments.cosine_design
        monkeypatch.setattr(invreg.experiments, "cosine_design",
                            lambda grid, rows: built.append(rows) or real(grid, rows))
        cfg = write_config(tmp_path, "diag.ini", DIAG_CFG)
        assert main(["diagnostics", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        assert built and set(built) == {4}

    @pytest.mark.parametrize("config", [
        Path(ROOT, "configs", "synth_small.ini").read_text(),
        # n = 20001, d = 28: the samples span 26 row blocks
        "[problem]\nn = 20001\np = 1.0\nnu = 0.5\nseed = 5\n"],
        ids=["synth_small", "several row blocks"])
    def test_without_data_equals_the_round_trip(self, tmp_path, config):
        cfg = write_config(tmp_path, "diag.ini", config)
        data = str(tmp_path / "synth")
        assert main(["synth", "--config", cfg, "--out", data]) == 0
        reports = []
        for extra in (["--data", data], []):
            out = tmp_path / f"diag{len(reports)}"
            assert main(["diagnostics", "--config", cfg, "--out", str(out)] + extra) == 0
            reports.append((out / "diagnostics.txt").read_bytes())
        assert reports[0] == reports[1]

    def test_round_trip_does_not_depend_on_blas_threads(self, tmp_path):
        # n = 30001, p = 1 (d = 32): row blocks of 1000 and 1001 points, where a
        # BLAS product over the grid points sums in an order set by the thread
        # count
        cfg_text = SYNTH_CFG.replace("n = 16", "n = 30001") + TIKHONOV_SELECT
        cfg, data = run_synth(tmp_path, cfg_text=cfg_text)
        for command, files, extra in [("select", ["family.csv", "selection.csv",
                                                  "summary.txt"], data),
                                      ("diagnostics", ["diagnostics.txt"], data),
                                      ("diagnostics", ["diagnostics.txt"], None)]:
            one, two = csvs_under_blas_threads(tmp_path, command, cfg, extra)
            assert sorted(one) == files
            assert one == two, command

    def test_without_data_peaks_below_half_an_operator_array(self, tmp_path):
        # n = 2^15, p = 1: d = 32, and one n x d array is 8 MiB
        n, d = 1 << 15, 32
        cfg = write_config(tmp_path, "diag.ini", DIAG_CFG.replace("n = 32", f"n = {n}"))
        argv = ["diagnostics", "--config", cfg, "--out", str(tmp_path / "d")]
        code, peak = _traced_peak(lambda: main(argv))
        assert code == 0
        assert Path(tmp_path, "d", "diagnostics.txt").read_text().startswith(
            "dims = " + ",".join(str(m) for m in range(1, d + 1)) + "\n")
        assert peak < n * d * 8 / 2


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


def _data_argv(tmp_path, name, edit):
    """argv of ``select --data`` on synth output whose ``name`` went through
    ``edit`` (a map from the file's lines to new lines)."""
    argv = _select_argv(tmp_path, TIKHONOV_SELECT)
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
    # 1/lambda_2 = 2^1050 overflows, and so does j^p
    "diagnostics p overflow": lambda tmp: _diag_argv(
        tmp, DIAG_CFG.replace("p = 1.0", "p = 1050")),
    # d = 2 at n = 32 and lambda_2 = 2^-60 is below the rank cliff
    "diagnostics p rank cliff": lambda tmp: _diag_argv(
        tmp, DIAG_CFG.replace("p = 1.0", "p = 60")),
    "select count": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="tikhonov", extra="count = 0\n")),
    # a repeated dimension would be a repeated candidate in the kraft sum
    "select repeated dims": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="projection", extra="dims = 1, 1, 2\n")),
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
    # rho^2 overflows in the truncation bias
    "rates rho overflow": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("nu = 0.5", "nu = 0.5\nrho = 1e300")),
    # the squared errors are finite, the squares in their variance are not
    "rates rho variance overflow": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("nu = 0.5", "nu = 0.5\nrho = 1e100")),
    "rates sigma variance overflow": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("sigma = 0.1", "sigma = 1e100")),
    # sigma^2 is finite, the penalties sigma^2 (Tr + rho) r (1 + L) are not
    "rates sigma penalty overflow": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("sigma = 0.1", "sigma = 5e153")),
    # the penalties and the selection objectives overflow
    "rates sigma objective overflow": lambda tmp: _rates_argv(
        tmp, RISK_CFG.replace("sigma = 0.1", "sigma = 1.3e154")),
    "rates seed": lambda tmp: _rates_argv(tmp, RISK_CFG.replace("seed = 2", "seed = -1")),
    "concentration moment_q": lambda tmp: _conc_argv(
        tmp, "identity_trials", "moment_q = 0\nidentity_trials"),
    "concentration u_count": lambda tmp: _conc_argv(tmp, "u_count = 8", "u_count = 0"),
    # the geometric u grid reaches 2^1099
    "concentration u_count overflow": lambda tmp: _conc_argv(
        tmp, "u_count = 8", "u_count = 1100"),
    # k2^(q - 1/2) overflows in the moment bound shape
    "concentration moment bound overflow": lambda tmp: _conc_argv(
        tmp, "weight = 1.0", "weight = 1e300\nmoment_q = 2"),
    # any excess above 2^(1024/2000) ~ 1.43 overflows in the empirical moment
    "concentration moment_q overflow": lambda tmp: _conc_argv(
        tmp, "identity_trials", "moment_q = 2000\nidentity_trials"),
    # the samples are finite, the tail levels sigma^2 (level + u) are not
    "concentration sigma tail overflow": lambda tmp: _conc_argv(
        tmp, "sigma = 1.0", "sigma = 2e153"),
    # sigma^2 is finite, the eta^2 samples sigma^2 |A z|^2 are not
    "concentration sigma sample overflow": lambda tmp: _conc_argv(
        tmp, "sigma = 1.0", "sigma = 5e153"),
    "concentration sigma^2 near overflow": lambda tmp: _conc_argv(
        tmp, "sigma = 1.0", "sigma = 1.3e154"),
    "concentration seed": lambda tmp: _conc_argv(tmp, "seed = 0", "seed = -1"),
    "concentration regularizer:8x4": _matrix_case("regularizer:8x4"),
    "concentration regularizer:1x16": _matrix_case("regularizer:1x16"),
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
    # unweighted kraft terms n rho / kraft_d overflow
    "select kraft sum overflow": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT + "weights = zero\nkraft_d = 1e-320\n"),
    # j^p overflows in the decay constants of the files' singular values
    "diagnostics data p overflow": lambda tmp: ["diagnostics"] + _select_argv(
        tmp, "[problem]\np = 2000\n")[1:],
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


def _synth_small_argv(tmp, edits, sections=TIKHONOV_SELECT):
    """argv of ``select --data`` on the output of configs/synth_small.ini
    (n = 64, d = 4) after ``edits`` (file name -> map from its lines to new
    lines)."""
    data = str(tmp / "synth")
    assert main(["synth", "--config", os.path.join(ROOT, "configs", "synth_small.ini"),
                 "--out", data]) == 0
    for name, edit in edits.items():
        path = Path(data, name)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return ["select", "--config", write_config(tmp, "sel.ini", sections),
            "--data", data, "--out", str(tmp / "out")]


def _times(factor, first):
    """Multiply every CSV column from index ``first`` on by ``factor``."""
    def edit(lines):
        rows = [l.split(",") for l in lines[1:]]
        return [lines[0]] + [",".join(r[:first] + [repr(float(v) * factor)
                                                   for v in r[first:]])
                             for r in rows]
    return edit


def _tiny_spectrum(factor):
    # t stays, the operator and the clean and noisy data shrink
    return {"operator.csv": _times(factor, 0), "data.csv": _times(factor, 1)}


# 1/lambda_j^2 overflows for singular values below about 1e-154
TINY_SPECTRUM = _tiny_spectrum(1e-160)


def _shift_t(lines):
    rows = [l.split(",", 1) for l in lines[1:]]
    return [lines[0]] + [f"{float(t) + 0.3!r},{rest}" for t, rest in rows]


def _clustered_grid(lines):
    # 64 points in three clusters 1e-15 apart: four cosines see three abscissae
    t = [c + 1e-15 * i for c, size in ((0.2, 21), (0.5, 21), (0.8, 22))
         for i in range(size)]
    return [lines[0]] + [repr(v) for v in t]


# Faults in grid.csv or operator.csv.  diagnostics --data builds its operator
# from these files as select does, so each row runs through both commands.
BAD_OPERATOR_DATA = {
    "unsorted grid": lambda tmp: _data_argv(tmp, "grid.csv", _swap_first_rows),
    "copied operator column": lambda tmp: _data_argv(
        tmp, "operator.csv", _append_copy_of_first_column("copy")),
    "more operator columns than grid rows": lambda tmp: _data_argv(
        tmp, "operator.csv", _seventeen_columns),
    "repeated column name": lambda tmp: _data_argv(
        tmp, "operator.csv", _append_copy_of_first_column("phi1")),
    "grid.csv is a directory": _grid_csv_is_a_directory,
    "tiny spectrum": lambda tmp: _synth_small_argv(
        tmp, TINY_SPECTRUM, SELECT_SECTIONS.format(kind="projection", extra="")),
    # the Tikhonov statistics would be subnormal, of two or three digits
    "tiny spectrum tikhonov": lambda tmp: _synth_small_argv(tmp, TINY_SPECTRUM),
    # the operator's samples are subnormal
    "subnormal spectrum": lambda tmp: _synth_small_argv(tmp, _tiny_spectrum(1e-308)),
    "near-coincident grid points": lambda tmp: _synth_small_argv(
        tmp, {"grid.csv": _clustered_grid}),
}


def _huge_spectrum(factor):
    """argv of ``select --data`` with the projection family on files whose
    operator is ``factor`` times cosine_design(grid, 16)^t j^-1 (n = 4096, the
    midpoint grid): singular values ``factor`` / j."""
    def argv(tmp):
        from invreg.configio import write_csv
        from invreg.operator import cosine_design, midpoint_grid
        n, d = 4096, 16
        grid = midpoint_grid(n)
        S = cosine_design(grid, d).T * (factor / np.arange(1, d + 1))
        y = S.sum(axis=1)
        data = tmp / "huge"
        data.mkdir()
        write_csv(str(data / "grid.csv"), ["t"], grid.points[:, None])
        write_csv(str(data / "operator.csv"), [f"phi{j}" for j in range(1, d + 1)], S)
        write_csv(str(data / "data.csv"), ["t", "clean", "y"],
                  np.column_stack([grid.points, y, y]))
        sections = SELECT_SECTIONS.format(kind="projection", extra="")
        return ["select", "--config", write_config(tmp, "sel.ini", sections),
                "--data", str(data), "--out", str(tmp / "out")]
    return argv


def _as_diagnostics(argv):
    """The same ``--config``/``--data``/``--out`` run as ``diagnostics``."""
    return ["diagnostics"] + argv[1:]


BAD_DATA = {
    **BAD_OPERATOR_DATA,
    "diagnostics copied operator column": lambda tmp: _as_diagnostics(
        BAD_OPERATOR_DATA["copied operator column"](tmp)),
    "diagnostics near-coincident grid points": lambda tmp: _as_diagnostics(
        BAD_OPERATOR_DATA["near-coincident grid points"](tmp)),
    "overflowing y": lambda tmp: _data_argv(tmp, "data.csv", _overflowing_y),
    "data.csv not utf-8": _latin1_data,
    "data t off the grid": lambda tmp: _data_argv(tmp, "data.csv", _shift_t),
    # 1/(n lambda_1^2) = 2.4e-318 is subnormal: the projection statistics
    # would lose most of their digits
    "huge spectrum": _huge_spectrum(1e157),
    # 1/lambda_1^2 underflows to 0: every projection filter squares to 0
    "huge spectrum zero filter": _huge_spectrum(1e300),
}


class TestOutOfRange:
    @pytest.mark.parametrize("case,code", [(case, 2) for case in OUT_OF_RANGE]
                             + [(case, 3) for case in BAD_DATA])
    def test_exit_code(self, tmp_path, capsys, case, code):
        argv = {**OUT_OF_RANGE, **BAD_DATA}[case](tmp_path)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ")
        if case in BAD_OPERATOR_DATA:
            assert main(["diagnostics"] + argv[1:]) == code
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize("token", ["regularizer:1x16", "regularizer:8x4"])
    def test_unbuildable_regularizer_names_its_token(self, tmp_path, capsys, token):
        # the grammar accepts d x n, but a regularizer needs 2 <= d <= n
        assert main(_matrix_case(token)(tmp_path)) == 2
        err = capsys.readouterr().err
        assert repr(token) in err and "[concentration] matrices" in err

    def test_statistics_overflow_names_p(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_rates_argv(tmp_path, P_OVERFLOW_CFG)) == 2
        assert "[problem] p" in capsys.readouterr().err

    @pytest.mark.parametrize("case,key", [
        ("rates rho overflow", "[problem] rho"),
        ("rates rho variance overflow", "[problem] rho"),
        ("rates sigma variance overflow", "[problem] sigma"),
        ("rates sigma penalty overflow", "[problem] sigma"),
        ("rates sigma objective overflow", "[problem] sigma"),
        ("diagnostics p overflow", "[problem] p"),
        ("diagnostics p rank cliff", "[problem] p"),
        ("concentration sigma tail overflow", "[concentration] sigma"),
        ("concentration sigma sample overflow", "[concentration] sigma"),
        ("concentration sigma^2 near overflow", "[concentration] sigma"),
        ("concentration moment_q overflow", "[concentration] moment_q")])
    def test_overflow_names_its_key(self, tmp_path, capsys, case, key):
        # the suite turns warnings into errors, so none is raised on the way
        assert main(OUT_OF_RANGE[case](tmp_path)) == 2
        assert key in capsys.readouterr().err

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "synth.ini", SYNTH_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg, "--out", str(tmp_path / "s"),
                  "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "diagnostics"])
    def test_empty_data_directory_is_data_error(self, tmp_path, monkeypatch, capsys,
                                                command):
        # --data "" names files in the working directory, here none; the
        # config would also let diagnostics run its synthetic problem
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "sel.ini", DIAG_CFG + TIKHONOV_SELECT)
        assert main([command, "--config", cfg, "--data", "",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    def test_select_without_data_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sel.ini", TIKHONOV_SELECT)
        with pytest.raises(SystemExit) as exc:
            main(["select", "--config", cfg, "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "--data" in capsys.readouterr().err


def _drop_field(row):
    return lambda lines: [*lines[:row - 1], lines[row - 1].rsplit(",", 1)[0],
                          *lines[row:]]


def _token(row, token):
    return lambda lines: [*lines[:row - 1],
                          ",".join([token] + lines[row - 1].split(",")[1:]),
                          *lines[row:]]


def _comments_then(edit):
    """``edit``, with comment and blank lines between the rows before it."""
    def commented(lines):
        lines = edit(lines)
        return [lines[0], "# a", *lines[1:20], "", "  # b", *lines[20:]]
    return commented


# Faults of operator.csv on a grid of 64 points, which both commands read in
# 4 row blocks of 16 (the header is row 1), and today's message for each
OPERATOR_FAULTS = {
    "one row short": (lambda lines: lines[:-1], "operator.csv has 63 rows, grid has 64"),
    "one row over": (lambda lines: lines + lines[-1:],
                     "operator.csv has 65 rows, grid has 64"),
    "two blocks over": (lambda lines: lines + lines[1:33],
                        "operator.csv has 96 rows, grid has 64"),
    "half the rows": (lambda lines: lines[:33], "operator.csv has 32 rows, grid has 64"),
    "wrong field count": (_drop_field(40), "row 40 has 3 fields, expected 4"),
    "wrong field count past the grid": (lambda lines: _drop_field(66)(lines + lines[1:3]),
                                        "row 66 has 3 fields, expected 4"),
    "nan": (_token(40, "nan"), "row 40: cannot parse 'nan' in column phi1 as a finite "
                               "number"),
    "overflow": (_token(40, "1e999"), "row 40: cannot parse '1e999' in column phi1"),
    "underscore": (_token(40, "1_0"), "row 40: cannot parse '1_0' in column phi1"),
    "comment lines between rows": (_comments_then(_token(40, "x")),
                                   "row 40: cannot parse 'x' in column phi1"),
}


class TestOperatorFaults:
    @pytest.mark.parametrize("command", ["select", "diagnostics"])
    @pytest.mark.parametrize("case", list(OPERATOR_FAULTS))
    def test_streamed_read_keeps_the_message(self, tmp_path, capsys, command, case):
        edit, message = OPERATOR_FAULTS[case]
        _, data = run_synth(tmp_path, cfg_text=SYNTH_CFG.replace("n = 16", "n = 64"))
        path = Path(data, "operator.csv")
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        cfg = write_config(tmp_path, "sel.ini", TIKHONOV_SELECT)
        assert main([command, "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err


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


# an inf, -inf or nan token; NA, the documented NaN cell, does not match
NON_FINITE = re.compile(r"(?<![\w.])-?(?:inf|nan)(?![\w.])")


class TestConfigSweep:
    def test_no_config_value_exits_as_data_error_or_crash(self, tmp_path):
        """Every config key each command reads, set to -1, 0, x, 1e-300, 2000,
        1e100, 1e150, 5e153, 1.3e154 or 1e300, gives success (0) with finite
        outputs, a config error (2) or a violation (4), and raises no warning."""
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        out = tmp_path / "out"
        bad = []
        for command, uses_data, base, keys in SWEEP:
            for section, names in keys.items():
                for key in names:
                    for value in ("-1", "0", "x", "1e-300", "2000", "1e100", "1e150",
                                  "5e153", "1.3e154", "1e300"):
                        cfg = write_config(tmp_path, "sweep.ini",
                                           _set_key(base, section, key, value))
                        argv = [command, "--config", cfg, "--out", str(out)]
                        if uses_data:
                            argv += ["--data", data]
                        shutil.rmtree(out, ignore_errors=True)
                        try:
                            code = main(argv)
                        except Exception as exc:  # noqa: BLE001
                            code = repr(exc)
                        if code == 0:
                            code = [f.name for f in sorted(out.iterdir())
                                    if NON_FINITE.search(f.read_text())] or 0
                        if code not in (0, 2, 4):
                            bad.append((command, f"[{section}] {key} = {value}", code))
        assert not bad

    def test_sweep_lists_every_key_a_command_reads(self, tmp_path, monkeypatch):
        """Each (section, key) a command looks up on a SWEEP base config is
        among that command's SWEEP keys, so a new config key gets swept."""
        from invreg import cli, configio
        read = set()

        def recording(lookup):
            def wrapped(cp, section, key, *args, **kwargs):
                read.add((section, key))
                return lookup(cp, section, key, *args, **kwargs)
            return wrapped

        def recording_keys(cp, section, **kinds):
            read.update((section, kind[0] if isinstance(kind, tuple) else name)
                        for name, kind in kinds.items())
            return configio.cfg_keys(cp, section, **kinds)

        monkeypatch.setattr(cli, "cfg_value", recording(configio.cfg_value))
        monkeypatch.setattr(cli, "cfg_list", recording(configio.cfg_list))
        monkeypatch.setattr(cli, "cfg_keys", recording_keys)
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        swept = {}
        for command, _, _, keys in SWEEP:
            swept.setdefault(command, set()).update(
                (section, key) for section, names in keys.items() for key in names)
        unswept = []
        for command, uses_data, base, _ in SWEEP:
            read.clear()
            argv = [command, "--config", write_config(tmp_path, "base.ini", base),
                    "--out", str(tmp_path / "out")]
            assert main(argv + (["--data", data] if uses_data else [])) == 0
            assert read, command
            unswept += [(command, *k) for k in sorted(read - swept[command])]
        assert not unswept


EXPERIMENT_DEFAULTS = [
    (section, key, invreg.ExperimentConfig, name) for section, key, name in [
        ("problem", "p", "p"), ("problem", "nu", "nu"), ("problem", "rho", "rho"),
        ("problem", "sigma", "sigma"), ("problem", "ext_factor", "ext_factor"),
        ("problem", "omega", "omega"), ("experiment", "n_grid", "n_grid"),
        ("experiment", "replications", "replications"), ("family", "kind", "family"),
        ("family", "alpha_max", "alpha_max"), ("family", "ratio", "alpha_ratio"),
        ("penalty", "r", "r"), ("penalty", "kraft_target", "kraft_target"),
        ("penalty", "kraft_d", "kraft_d")]]
PROBLEM_DEFAULTS = [("problem", "sigma", invreg.synth_problem, "sigma"),
                    ("problem", "omega", invreg.synth_problem, "omega")]

# (command, reads --data, a config of the required keys alone, and the
# optional keys whose default a library object holds: (section, key, holder,
# name of the field or parameter that holds it))
DEFAULT_HOLDERS = [
    ("synth", False, SYNTH_CFG, PROBLEM_DEFAULTS),
    ("diagnostics", False, DIAG_CFG, PROBLEM_DEFAULTS),
    ("diagnostics", True, "", [("problem", "p", invreg.SampledProjection, "p")]),
    ("select", True, "[penalty]\nsigma2 = 0.01\n",
     [("problem", "p", invreg.SampledProjection, "p"),
      ("family", "alpha_max", invreg.tikhonov_family, "alpha_max"),
      ("family", "ratio", invreg.tikhonov_family, "ratio"),
      ("penalty", "r", invreg.PenaltyConfig, "r"),
      ("penalty", "kraft_d", invreg.PenaltyConfig, "kraft_d"),
      ("penalty", "kraft_target", invreg.default_weights, "target")]),
    ("risk", False, "", EXPERIMENT_DEFAULTS),
    ("rates", False, "", EXPERIMENT_DEFAULTS),
    ("concentration", False, "",
     [("concentration", "replications", invreg.QuadFormSpec, "replications"),
      ("concentration", "u_count", invreg.default_u_grid, "count"),
      ("concentration", "sigma", invreg.GaussianNoise, "sigma"),
      ("penalty", "r", invreg.PenaltyConfig, "r"),
      ("penalty", "kraft_d", invreg.PenaltyConfig, "kraft_d")]),
]


class TestDefaults:
    @pytest.mark.parametrize("command,uses_data,base,holders", DEFAULT_HOLDERS,
                             ids=[f"{c}{' --data' * d}" for c, d, _, _ in DEFAULT_HOLDERS])
    def test_a_key_left_out_takes_the_library_default(self, tmp_path, command,
                                                      uses_data, base, holders):
        """A config that leaves out every optional key and one that sets each
        to the default its library object holds write the same bytes."""
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        explicit = base
        for section, key, holder, name in holders:
            explicit = _set_key(explicit, section, key,
                                config_text(library_default(holder, name)))
        written = []
        for i, text in enumerate([base, explicit]):
            out = tmp_path / f"out{i}"
            argv = [command, "--config", write_config(tmp_path, f"{i}.ini", text),
                    "--out", str(out)]
            assert main(argv + (["--data", data] if uses_data else [])) == 0
            written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "manifest.json"})
        assert written[0] and written[0] == written[1]


# exported functions and methods that no command calls, each a reading the
# ROADMAP, the acceptance criteria or the README quick start names
UNREACHED = {
    "eta": "reference reading of the quadratic-form supremum",
    "empirical_norm": "acceptance Criterion 8 and the README quick start",
    "DiscretizedOperator.forward": "acceptance Criterion 8 and the README quick start",
    "DiscretizedOperator.G": "acceptance Criterion 8c",
    # select --data takes its coefficients from the streamed pass
    "select": "acceptance Criteria 6 and 8 and the README quick start",
    "DiscretizedOperator.svd_coefficients": "in-memory reading of the coefficients "
                                            "of the streamed pass, through select",
    "select_by_threshold": "acceptance Criterion 6's thresholding reference",
    "DiscretizedOperator.d": "read by the in-memory references forward, G and "
                             "diagnostics",
    # concentration builds regularizer:dxn as the d x d diagonal of its spectrum
    "discretize_operator": "acceptance Criteria 4, 6, 7 and 8 and the README "
                           "quick start",
    "DiscretizedOperator.regularizer": "acceptance Criterion 4",
    "DiscretizedOperator.n": "acceptance Criteria 4, 6, 7 and 8 and the README "
                             "quick start",
    # concentration's identity trials leave the rank check to empirical_projection
    "build_design_matrix": "acceptance Criteria 5 and 8",
}


def _exported_code():
    """{code object: name} of every public function and public class method
    (properties included) that the invreg namespace exports."""
    found = {}
    for name, obj in vars(invreg).items():
        if name.startswith("_") or not getattr(obj, "__module__", "").startswith("invreg"):
            continue
        if inspect.isfunction(obj):
            found[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.fget if isinstance(member, property) else member
                fn = getattr(fn, "__func__", fn)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found[fn.__code__] = f"{name}.{attr}"
    return found


class TestReach:
    def test_every_export_is_reached_by_a_command(self, tmp_path):
        """Each command once on its SWEEP base (concentration with the shipped
        matrix list, which builds a regularizer), plus one risk run, enters
        every exported function and method outside UNREACHED."""
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        runs = [(command, uses_data, base) for command, uses_data, base, _ in SWEEP]
        runs.append(("risk", False, RISK_CFG))
        entered = set()

        def profile(frame, event, arg):
            if event == "call":
                entered.add(frame.f_code)

        sys.setprofile(profile)
        try:
            for i, (command, uses_data, base) in enumerate(runs):
                if command == "concentration":
                    base = base.replace("identity:4 decay:8",
                                        "identity:4 decay:8 regularizer:4x16")
                argv = [command, "--config", write_config(tmp_path, f"{i}.ini", base),
                        "--out", str(tmp_path / f"out{i}")]
                assert main(argv + (["--data", data] if uses_data else [])) == 0
        finally:
            sys.setprofile(None)
        unreached = {name for code, name in _exported_code().items()
                     if code not in entered}
        assert unreached == set(UNREACHED)


def _read_body(path):
    """The whole body of a numeric CSV, read through ``open_table``."""
    from invreg.configio import open_table
    with open_table(path) as (_, take):
        return take()


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
        from invreg.configio import write_csv
        header = [f"c{j}" for j in range(body.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            fast, slow = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "slow.csv")
            write_csv(fast, header, body, ["# note"])
            write_csv(slow, header, body.tolist(), ["# note"])
            assert Path(fast).read_bytes() == Path(slow).read_bytes()
            if np.isfinite(body).all():
                assert _read_body(fast).tobytes() == body.tobytes()


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvStreaming:
    """The writer formats a float array in row blocks and the readers stream
    the file, so a round trip holds O(n d) floats and no whole-file text."""

    def test_rows_across_a_write_block_edge_write_the_bytes_of_cell(self, tmp_path):
        from invreg.configio import WRITE_BLOCK_ROWS, write_csv
        body = np.random.default_rng(5).standard_normal((2 * WRITE_BLOCK_ROWS + 3, 3))
        header = ["a", "b", "c"]
        fast, slow = str(tmp_path / "fast.csv"), str(tmp_path / "slow.csv")
        write_csv(fast, header, body)
        assert _read_body(fast).tobytes() == body.tobytes()
        # NaN rows on both sides of the first block edge
        body[WRITE_BLOCK_ROWS - 1, 0] = body[WRITE_BLOCK_ROWS, 2] = math.nan
        write_csv(fast, header, body)
        write_csv(slow, header, body.tolist())
        assert Path(fast).read_bytes() == Path(slow).read_bytes()
        lines = Path(fast).read_text().splitlines()
        assert lines[WRITE_BLOCK_ROWS].startswith("NA,")
        assert lines[WRITE_BLOCK_ROWS + 1].endswith(",NA")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("trailing", [True, False])
    def test_line_endings(self, tmp_path, newline, trailing):
        from invreg.configio import read_csv_columns
        text = newline.join(["# note", "t,y", "0.5,1", "0.25,-2e-3"])
        path = tmp_path / "d.csv"
        path.write_bytes((text + (newline if trailing else "")).encode())
        cols = read_csv_columns(str(path), ["t", "y"])
        assert cols["t"].tolist() == [0.5, 0.25]
        assert cols["y"].tolist() == [1.0, -2e-3]

    def test_comment_and_blank_lines_between_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n\n1,2\n# mid\n\n  # indented\n3,4\n\n")
        assert _read_body(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_row_blocks_read_the_whole_body(self, tmp_path):
        # comment and blank lines inside and at the edges of blocks of 3 rows
        from invreg.configio import open_table
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "".join(
            f"{i},{-i}\n" + ("# c\n" if i % 4 == 0 else "") + ("\n" if i % 3 == 0 else "")
            for i in range(10)))
        with open_table(str(path)) as (header, take):
            blocks = [take(3) for _ in range(5)]
        assert header == ["a", "b"]
        assert [len(b) for b in blocks] == [3, 3, 3, 1, 0]
        assert np.vstack(blocks).tolist() == _read_body(str(path)).tolist()
        assert np.vstack(blocks)[:, 0].tolist() == list(range(10))

    def test_quoted_header(self, tmp_path):
        from invreg.configio import read_csv_columns
        path = tmp_path / "d.csv"
        path.write_text('"t","y"\n0.5,1\n')
        cols = read_csv_columns(str(path), ["t", "y"])
        assert list(cols) == ["t", "y"] and cols["y"].tolist() == [1.0]

    def test_bad_token_after_an_in_body_comment_cites_its_row(self, tmp_path):
        from invreg.configio import DataError, read_csv_columns
        path = tmp_path / "d.csv"
        path.write_text("# head\nt,y\n0.5,1\n# note\n\n0.25,oops\n")
        with pytest.raises(DataError, match="row 3: cannot parse 'oops' in column y"):
            read_csv_columns(str(path))

    def test_undecodable_bytes_far_down_are_a_read_error(self, tmp_path):
        # far past the first chunk the text layer decodes, so the fault
        # surfaces inside np.loadtxt; it is a read error, as in a short file,
        # not the NaN row above it, which np.loadtxt accepts
        from invreg.configio import DataError
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\nnan,0.5\n" + b"0.125,0.25\n" * 10_000
                         + "# caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError, match="cannot read"):
            _read_body(str(path))

    def test_read_matrix_peaks_below_twice_its_array(self, tmp_path):
        from invreg.configio import write_csv
        body = np.random.default_rng(6).standard_normal((16384, 26))
        path = str(tmp_path / "operator.csv")
        write_csv(path, [f"phi{j}" for j in range(1, 27)], body)
        S, peak = _traced_peak(lambda: _read_body(path))
        assert S.flags.c_contiguous and S.tobytes() == body.tobytes()
        assert peak <= 2 * S.nbytes

    def test_synth_peaks_below_four_operator_arrays(self, tmp_path):
        from invreg.operator import choose_m0
        n = 16384
        cfg = write_config(tmp_path, "synth.ini",
                           SYNTH_CFG.replace("n = 16", f"n = {n}"))
        argv = ["synth", "--config", cfg, "--out", str(tmp_path / "synth")]
        code, peak = _traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= 4 * n * choose_m0(n, 1.0) * 8


    def test_select_data_peak_grows_like_root_n(self, tmp_path):
        """select --data and diagnostics --data read operator.csv and fold it
        in row blocks of isqrt(n d) grid points, holding O(d sqrt(n d))
        floats besides the columns t and y.  At a fixed d = 40 each peak grows
        about twofold from n = 2^13 to 2^15, where one n x d array grows
        fourfold."""
        from invreg.configio import write_csv
        from invreg.operator import cosine_design, midpoint_grid
        rng = np.random.default_rng(8)
        d, peaks = 40, []
        cfg = write_config(tmp_path, "sel.ini", SELECT_SECTIONS.format(
            kind="projection", extra=""))
        for n in (1 << 13, 1 << 15):
            data = tmp_path / f"n{n}"
            data.mkdir()
            t = midpoint_grid(n).points
            S = (cosine_design(midpoint_grid(n), d).T * np.arange(1, d + 1) ** -1.0
                 + 1e-3 * rng.standard_normal((n, d)))
            write_csv(str(data / "grid.csv"), ["t"], t[:, None])
            write_csv(str(data / "operator.csv"), [f"phi{j}" for j in range(1, d + 1)], S)
            write_csv(str(data / "data.csv"), ["t", "y"],
                      np.column_stack([t, S @ rng.standard_normal(d)]))
            for command in ("select", "diagnostics"):
                argv = [command, "--config", cfg, "--data", str(data),
                        "--out", str(tmp_path / f"{command}{n}")]
                code, peak = _traced_peak(lambda: main(argv))
                assert code == 0
                peaks.append(peak)
        select, diag = peaks[0::2], peaks[1::2]
        assert select[1] <= 2.5 * select[0]
        assert select[1] <= S.nbytes / 3
        # diagnostics (all d dims) also holds a residual Gram per row block
        assert diag[1] <= 2.5 * diag[0]
        assert diag[1] <= S.nbytes / 2


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
