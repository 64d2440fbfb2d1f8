import math
import sys
from dataclasses import astuple, replace
from operator import attrgetter

import numpy as np
import pytest

import invreg.operator
from invreg import (
    ExperimentConfig,
    ExperimentReport,
    InsufficientDataError,
    ParameterError,
    RiskRow,
    SourceSpec,
    bias_m0,
    diagnostics,
    fit_rate,
    monte_carlo_risk,
    projection_error_bound_check,
    synth_problem,
    theoretical_exponent,
)
from invreg.configio import cell


class TestSynthProblem:
    def test_nu_zero_keeps_omega(self):
        prob = synth_problem(1.0, 0.0, 1.0, 64)
        src = SourceSpec(0.0, 1.0)
        assert np.allclose(prob.x0, src.omega_vector(prob.d_ext))

    def test_half_smoothness_scales_by_inverse_index(self):
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        src = SourceSpec(0.5, 1.0)
        omega = src.omega_vector(prob.d_ext)
        j = np.arange(1, prob.d_ext + 1)
        assert np.allclose(prob.x0, omega / j)

    def test_generated_problem_passes_diagnostics(self):
        prob = synth_problem(1.0, 0.5, 1.0, 128)
        diag = diagnostics(prob.op, range(1, prob.op.d + 1))
        assert diag.sv_constants[0] == pytest.approx(1.0, abs=1e-8)
        assert diag.sv_constants[1] == pytest.approx(1.0, abs=1e-8)
        assert diag.sf_constants[0] == pytest.approx(1.0, abs=1e-8)
        assert diag.sf_constants[1] == pytest.approx(1.0, abs=1e-8)
        assert diag.sv_ok and diag.sf_ok and diag.as_ok

    def test_clean_samples_match_spectrum(self):
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        c = prob.op.svd_coefficients(prob.clean)
        lam = prob.op.singular_values
        assert np.allclose(c, lam * prob.x0[:prob.op.d], atol=1e-12)

    def test_explicit_omega_radius_enforced(self):
        src = SourceSpec(0.5, 1.0, np.full(8, 1.0))   # norm sqrt(8) > 1
        with pytest.raises(ParameterError):
            src.coefficients(1.0, 8)

    def test_random_omega_is_seed_stable(self):
        src = SourceSpec(0.5, 2.0, "random")
        a = src.omega_vector(16, seed=4)
        b = src.omega_vector(16, seed=4)
        c = src.omega_vector(16, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.linalg.norm(a) == pytest.approx(2.0)


class TestBiasM0:
    def test_supported_inside_model(self, op_p1_d4_n16):
        assert bias_m0(np.array([1.0, 2.0, 0.5, -1.0]), op_p1_d4_n16.d) == 0.0

    def test_single_tail_coefficient(self, op_p1_d4_n16):
        x0 = np.array([1.0, 0.0, 0.0, 0.0, 3.0])
        assert bias_m0(x0, op_p1_d4_n16.d) == pytest.approx(9.0)

    def test_matches_direct_series_summation(self):
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        d = prob.op.d
        oracle = sum(float(prob.x0[j]) ** 2 for j in range(d, prob.d_ext))
        assert bias_m0(prob.x0, prob.op.d) == pytest.approx(oracle, abs=1e-15)


SMALL = ExperimentConfig(n_grid=(64, 128, 256, 512), replications=20, seed=3)


class TestMonteCarloRisk:
    def test_deterministic_given_config_and_seed(self):
        a = monte_carlo_risk(SMALL)
        b = monte_carlo_risk(SMALL)
        np.testing.assert_equal([astuple(r) for r in a.rows],
                                [astuple(r) for r in b.rows])

    def test_rows_do_not_depend_on_grid_order(self):
        # each grid point's stream is keyed by (seed, n), not by its position
        forward = monte_carlo_risk(SMALL)
        backward = monte_carlo_risk(replace(SMALL, n_grid=SMALL.n_grid[::-1]))
        key = attrgetter("n", "method")
        np.testing.assert_equal([astuple(r) for r in sorted(forward.rows, key=key)],
                                [astuple(r) for r in sorted(backward.rows, key=key)])
        assert [r.n for r in backward.rows] != [r.n for r in forward.rows]

    def test_noiseless_projection_recovers_exactly(self):
        cfg = ExperimentConfig(n_grid=(64,), replications=3, sigma=1e-12,
                               family="projection", ext_factor=1, seed=1)
        report = monte_carlo_risk(cfg)
        assert report.rows[0].risk <= 1e-20

    def test_single_replication_reports_na_stderr(self):
        cfg = ExperimentConfig(n_grid=(64,), replications=1, family="tikhonov")
        report = monte_carlo_risk(cfg)
        assert math.isnan(report.rows[0].risk_se)
        assert cell(report.rows[0].risk_se) == "NA"

    def test_builds_no_design(self, monkeypatch):
        # the families come from the singular values and n alone: no cosine
        # design is ever sampled, even at n = 65536
        def refuse(grid, d_m):
            raise AssertionError(f"design sampled at d = {d_m}, n = {grid.n}")

        original = invreg.operator.cosine_design
        for name, module in list(sys.modules.items()):
            if (name.partition(".")[0] == "invreg"
                    and getattr(module, "cosine_design", None) is original):
                monkeypatch.setattr(module, "cosine_design", refuse)
        cfg = ExperimentConfig(n_grid=(4096, 8192, 16384, 32768, 65536),
                               replications=2, seed=3)
        report = monte_carlo_risk(cfg)
        assert len(report.rows) == 10
        assert all(math.isfinite(r.risk) for r in report.rows)

    def test_oracle_never_beats_adaptive_by_much(self):
        report = monte_carlo_risk(SMALL)
        for row in report.rows:
            assert row.risk >= row.oracle_risk - 3 * row.oracle_risk_se

    def test_ratio_C_stable_across_seed_batches(self):
        # n = 256, p = 1, nu = 1/2: the measured oracle-inequality constant
        # agrees within 20 percent between independent batches
        base = dict(n_grid=(256,), replications=200, family="tikhonov")
        c1 = monte_carlo_risk(ExperimentConfig(seed=21, **base)).rows[0].ratio_C
        c2 = monte_carlo_risk(ExperimentConfig(seed=87, **base)).rows[0].ratio_C
        assert math.isfinite(c1) and math.isfinite(c2)
        assert abs(c1 - c2) <= 0.2 * max(abs(c1), abs(c2))

    def test_threshold_agreement_recorded(self):
        report = monte_carlo_risk(ExperimentConfig(
            n_grid=(64,), replications=10, family="projection", seed=5))
        assert report.rows[0].threshold_agreement == 1.0

    def test_extended_range_guard(self):
        cfg = ExperimentConfig(n_grid=(16, 8192), ext_factor=4)
        with pytest.raises(ParameterError):
            monte_carlo_risk(cfg)


class TestFitRate:
    def test_theoretical_exponents(self):
        assert theoretical_exponent(1.0, 1.0) == pytest.approx(-4.0 / 7.0)
        assert theoretical_exponent(1.0, 0.5) == pytest.approx(-0.4)

    def test_exact_power_law_recovered(self):
        cfg = ExperimentConfig(n_grid=(256, 512, 1024, 2048), replications=1)
        report = ExperimentReport(cfg)
        for n in cfg.n_grid:
            report.rows.append(RiskRow(n, "tikhonov", 1, float(n) ** -0.4,
                                       math.nan, 0.0, math.nan, 1.0, 0.0, 0.0,
                                       1.0, 0.0, math.nan))
        fit = fit_rate(report, "tikhonov")
        assert fit.slope == pytest.approx(-0.4, abs=1e-12)
        assert fit.half_width == pytest.approx(0.0, abs=1e-10)
        assert fit.theoretical == pytest.approx(-0.4)

    def test_theory_capped_at_the_qualification(self):
        # nu = 2 lies beyond Tikhonov's qualification 1 but not projection's
        cfg = ExperimentConfig(nu=2.0, n_grid=(256, 512, 1024, 2048), replications=1)
        report = ExperimentReport(cfg)
        for method in ("tikhonov", "projection"):
            for n in cfg.n_grid:
                report.rows.append(RiskRow(n, method, 1, float(n) ** -0.5, math.nan,
                                           0.0, math.nan, 1.0, 0.0, 0.0, 1.0, 0.0,
                                           math.nan))
        assert fit_rate(report, "tikhonov").theoretical == pytest.approx(-4.0 / 7.0)
        assert fit_rate(report, "projection").theoretical == pytest.approx(
            theoretical_exponent(1.0, 2.0))

    def test_insufficient_points(self):
        cfg = ExperimentConfig(n_grid=(256, 512, 1024), replications=1)
        report = ExperimentReport(cfg)
        for n in cfg.n_grid:
            report.rows.append(RiskRow(n, "tikhonov", 1, 1.0, math.nan, 0.0,
                                       math.nan, 1.0, 0.0, 0.0, 1.0, 0.0,
                                       math.nan))
        with pytest.raises(InsufficientDataError):
            fit_rate(report, "tikhonov")


class TestProjectionErrorBound:
    def test_truth_inside_model_has_zero_bias(self, op_p1_d4_n16):
        x0 = np.array([1.0, -1.0, 0.0, 0.0])
        rows = projection_error_bound_check(op_p1_d4_n16, x0, 0.5, [2, 3, 4],
                                            sigma=0.1, replications=10)
        assert rows[0].bias == pytest.approx(0.0)

    def test_projected_noise_energy_matches_chi_square_mean(self):
        prob = synth_problem(1.0, 0.5, 1.0, 256)
        sigma = 0.3
        rows = projection_error_bound_check(prob.op, prob.x0, 0.5,
                                            [1, 2, 4], sigma=sigma,
                                            replications=400, seed=8)
        for row in rows:
            predicted = sigma ** 2 * row.d_m / 256
            assert row.noise_energy_predicted == pytest.approx(predicted)
            assert abs(row.noise_energy - predicted) <= 3 * row.noise_energy_se

    def test_bias_decay_slope(self):
        # log-uniform source, p = 1, nu = 1/2: bias ~ d^(-2 nu p) = d^(-1)
        prob = synth_problem(1.0, 0.5, 1.0, 4096)
        dims = [2, 4, 8, 16]
        rows = projection_error_bound_check(prob.op, prob.x0, 0.5, dims,
                                            sigma=0.1, replications=2)
        slope = np.polyfit(np.log(dims), np.log([r.bias for r in rows]), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)
        for row in rows:
            assert row.bias <= row.bias_bound + 1e-12
