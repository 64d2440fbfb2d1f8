import configparser
import csv
import io
import os

import pytest

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

    def test_theory_column_caps_smoothness_at_the_qualification(self, tmp_path):
        # nu = 2 exceeds Tikhonov's qualification 1: the rate saturates at
        # theoretical_exponent(p, 1) = -4/7, not -0.727
        text = open(os.path.join(ROOT, "configs", "rates.ini")).read()
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
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(edit(lines)) + "\n")
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
}


def _overflowing_y(lines):
    return [lines[0]] + [l.rsplit(",", 1)[0] + ",1e300" for l in lines[1:]]

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
}


class TestOutOfRange:
    @pytest.mark.parametrize("case,code", [(case, 2) for case in OUT_OF_RANGE]
                             + [(case, 3) for case in BAD_DATA])
    def test_exit_code(self, tmp_path, capsys, case, code):
        argv = {**OUT_OF_RANGE, **BAD_DATA}[case](tmp_path)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: " if code == 2 else "data error: ")

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
        """Every config key each command reads, set to -1, 0, x or 1e-300,
        gives success (0), a config error (2) or a violation (4)."""
        _, data = run_synth(tmp_path, "data", SYNTH_CFG.replace("n = 16", "n = 64"))
        bad = []
        for command, uses_data, base, keys in SWEEP:
            for section, names in keys.items():
                for key in names:
                    for value in ("-1", "0", "x", "1e-300"):
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
