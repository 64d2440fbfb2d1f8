import os

import pytest

from invreg.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_sigma_zero_gives_clean_observations(self, tmp_path):
        cfg_text = SYNTH_CFG.replace("sigma = 0.1", "sigma = 0.0")
        _, out = run_synth(tmp_path, "clean", cfg_text)
        rows = open(os.path.join(out, "data.csv")).read().strip().splitlines()[1:]
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
        summary = open(os.path.join(sel_out, "summary.txt")).read()
        assert "chosen_label = tikhonov(alpha=1.0)" in summary
        stats_lines = open(os.path.join(sel_out, "family.csv")).read().splitlines()
        assert stats_lines[0] == "k,kind,parameter,trace_stat,radius_stat"
        assert len(stats_lines) == 2

    def test_projection_paths_agree(self, tmp_path):
        _, out = run_synth(tmp_path)
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="projection", extra=""))
        sel_out = str(tmp_path / "sel")
        assert main(["select", "--config", cfg, "--data", out,
                     "--out", sel_out]) == 0
        summary = open(os.path.join(sel_out, "summary.txt")).read()
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
        summary = open(os.path.join(sel_out, "summary.txt")).read()
        assert "threshold_agreement = 1" in summary

    def test_projection_dims_gap_skips_cross_check(self, tmp_path):
        code, sel_out = self.run_select(tmp_path, extra="dims = 1, 3\n")
        assert code == 0
        summary = open(os.path.join(sel_out, "summary.txt")).read()
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
        lines = open(path).read().splitlines()
        fields = lines[2].split(",")
        fields[column] = "nan"
        lines[2] = ",".join(fields)
        open(path, "w").write("\n".join(lines) + "\n")
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
        lines = open(path).read().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
        open(path, "w").write("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, "sel.ini",
                           SELECT_SECTIONS.format(kind="tikhonov", extra=""))
        code = main(["select", "--config", cfg, "--data", out,
                     "--out", str(tmp_path / "sel")])
        assert code == 3
        assert "row 3" in capsys.readouterr().err


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
        text = open(os.path.join(out, "rates.csv")).read()
        assert "-0.4" in text
        assert os.path.exists(os.path.join(out, "risk.csv"))

    def test_too_few_grid_points_is_insufficient_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "risk.ini",
                           RISK_CFG.replace("64, 128, 256, 512", "64, 128"))
        code = main(["rates", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 2
        assert "4 distinct n" in capsys.readouterr().err

    def test_risk_writes_plot_data(self, tmp_path):
        cfg = write_config(tmp_path, "risk.ini", RISK_CFG)
        out = str(tmp_path / "risk")
        assert main(["risk", "--config", cfg, "--out", out, "--threads", "2"]) == 0
        lines = open(os.path.join(out, "plotdata.csv")).read().strip().splitlines()
        assert lines[0] == "method,log_n,log_risk"
        assert len(lines) == 5


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
        tails = open(os.path.join(out, "tails.csv")).read().splitlines()
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
        text = open(os.path.join(out, "diagnostics.txt")).read()
        assert "sv_k1 = " in text and "ratio_bound = " in text


TIKHONOV_SELECT = SELECT_SECTIONS.format(kind="tikhonov", extra="")


def _select_argv(tmp_path, sections):
    _, out = run_synth(tmp_path)
    cfg = write_config(tmp_path, "sel.ini", sections)
    return ["select", "--config", cfg, "--data", out, "--out", str(tmp_path / "sel")]


def _unsorted_grid_argv(tmp_path):
    argv = _select_argv(tmp_path, TIKHONOV_SELECT)
    path = os.path.join(argv[4], "grid.csv")
    lines = open(path).read().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    open(path, "w").write("\n".join(lines) + "\n")
    return argv


OUT_OF_RANGE = {
    "select r": lambda tmp: _select_argv(
        tmp, TIKHONOV_SELECT.replace("r = 2.5", "r = 2.0")),
    "rates r": lambda tmp: ["rates", "--config", write_config(
        tmp, "risk.ini", RISK_CFG + "\n[penalty]\nr = 2.0\n"), "--out", str(tmp / "r")],
    "select ratio": lambda tmp: _select_argv(
        tmp, SELECT_SECTIONS.format(kind="tikhonov", extra="ratio = 1.5\n")),
    "concentration weight": lambda tmp: ["concentration", "--config", write_config(
        tmp, "conc.ini", CONC_CFG.format(kraft_d=1.0).replace(
            "weight = 1.0", "weight = -1")), "--out", str(tmp / "c")],
    "synth nu": lambda tmp: ["synth", "--config", write_config(
        tmp, "synth.ini", SYNTH_CFG.replace("nu = 0.0", "nu = -1")),
        "--out", str(tmp / "s")],
}


class TestOutOfRange:
    @pytest.mark.parametrize("case,code", [(case, 2) for case in OUT_OF_RANGE]
                             + [("unsorted grid", 3)])
    def test_exit_code(self, tmp_path, capsys, case, code):
        argv = (_unsorted_grid_argv(tmp_path) if case == "unsorted grid"
                else OUT_OF_RANGE[case](tmp_path))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "error: ")


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
