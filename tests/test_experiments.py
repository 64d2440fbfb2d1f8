import math
import sys
import tracemalloc
from dataclasses import astuple, replace
from operator import attrgetter

import numpy as np
import pytest

import invreg.experiments as experiments
import invreg.operator
from invreg import (
    ExperimentConfig,
    ExperimentReport,
    InsufficientDataError,
    ParameterError,
    RiskRow,
    SourceSpec,
    bias_m0,
    fit_rate,
    monte_carlo_risk,
    synth_problem,
    theoretical_exponent,
)
from invreg.configio import cell
from invreg.experiments import _mean_se, _risk_rows_for_n
from invreg.operator import SpectralSynthetic, choose_m0, diagnostics, discretize_operator
from invreg.regularizers import projection_family, tikhonov_family
from invreg.selection import (
    PenaltyConfig,
    default_weights,
    kraft_sum,
    penalties,
    threshold_objectives,
)


def _operator(prob):
    """The in-memory discretized operator of ``prob``."""
    return discretize_operator(SpectralSynthetic(p=prob.p), prob.grid, prob.d)


class TestSynthProblem:
    def test_nu_zero_keeps_omega(self):
        prob = synth_problem(1.0, 0.0, 1.0, 64)
        src = SourceSpec(0.0, 1.0)
        assert np.allclose(prob.x0, src.omega_vector(prob.x0.size))

    def test_half_smoothness_scales_by_inverse_index(self):
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        src = SourceSpec(0.5, 1.0)
        omega = src.omega_vector(prob.x0.size)
        j = np.arange(1, prob.x0.size + 1)
        assert np.allclose(prob.x0, omega / j)

    def test_generated_problem_passes_diagnostics(self):
        prob = synth_problem(1.0, 0.5, 1.0, 128)
        diag = diagnostics(_operator(prob), range(1, prob.d + 1))
        assert diag.sv_constants[0] == pytest.approx(1.0, abs=1e-8)
        assert diag.sv_constants[1] == pytest.approx(1.0, abs=1e-8)
        assert diag.sf_constants[0] == pytest.approx(1.0, abs=1e-8)
        assert diag.sf_constants[1] == pytest.approx(1.0, abs=1e-8)
        assert diag.sv_ok and diag.sf_ok and diag.as_ok

    def test_clean_samples_match_spectrum(self):
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        op = _operator(prob)
        c = op.svd_coefficients(prob.clean)
        assert np.allclose(c, op.singular_values * prob.x0[:op.d], atol=1e-12)

    @pytest.mark.parametrize("n,d_ext", [(64, 64), (20000, None)])
    def test_blocked_samples_cover_every_grid_point(self, n, d_ext):
        # (20000, None) spans several blocks of grid points, the last one
        # longer; (64, 64) is one block of exactly d_ext points
        prob = synth_problem(1.0, 0.5, 1.0, n, d_ext=d_ext)
        d_ext = prob.x0.size
        G_ext = invreg.operator.cosine_design(prob.grid, d_ext)
        lam_ext = np.arange(1, d_ext + 1) ** -1.0
        assert np.allclose(prob.clean, G_ext.T @ (lam_ext * prob.x0),
                           rtol=0, atol=1e-14)

    def test_samples_do_not_depend_on_the_block_size(self, monkeypatch):
        # at n = 20001 (d_ext = 112) the sampled-pass rule splits the grid into
        # 13 blocks, a step of d_ext into 178 blocks of 112 or 113 points
        default = synth_problem(1.0, 0.5, 1.0, 20001).clean
        used = []

        def step_of_d(n, d):
            used.append(invreg.operator._row_blocks(n, d))
            return used[-1]

        monkeypatch.setattr(experiments, "_sampled_blocks", step_of_d)
        assert np.array_equal(synth_problem(1.0, 0.5, 1.0, 20001).clean, default)
        assert len(invreg.operator._sampled_blocks(20001, 112)) == 13
        assert [len(blocks) for blocks in used] == [178]

    def test_clean_samples_and_grid_are_formed_on_first_use(self, monkeypatch):
        calls = []
        for name in ("cosine_design", "midpoint_grid"):
            real = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *a, _f=real, _n=name:
                                calls.append(_n) or _f(*a))
        prob = synth_problem(1.0, 0.5, 1.0, 64)
        assert calls == []
        clean, made = prob.clean, len(calls)
        assert prob.clean is clean and prob.grid is prob.grid
        assert calls[0] == "midpoint_grid" and len(calls) == made > 1

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
        oracle = sum(float(prob.x0[j]) ** 2 for j in range(prob.d, prob.x0.size))
        assert bias_m0(prob.x0, prob.d) == pytest.approx(oracle, abs=1e-15)


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
        # each grid point's problem comes from one synth_problem call and the
        # families from its singular values and n alone: no grid is formed and
        # no cosine design is ever sampled, even at n = 65536
        for original in (invreg.operator.cosine_design, invreg.operator.midpoint_grid):
            def refuse(*args, _name=original.__name__):
                raise AssertionError(f"{_name} called with {args}")

            for name, module in list(sys.modules.items()):
                if (name.partition(".")[0] == "invreg"
                        and getattr(module, original.__name__, None) is original):
                    monkeypatch.setattr(module, original.__name__, refuse)
        ns, real = [], experiments.synth_problem
        monkeypatch.setattr(experiments, "synth_problem",
                            lambda *args: ns.append(args[3]) or real(*args))
        cfg = ExperimentConfig(n_grid=(4096, 8192, 16384, 32768, 65536),
                               replications=2, seed=3)
        report = monte_carlo_risk(cfg)
        assert len(report.rows) == 10
        assert all(math.isfinite(r.risk) for r in report.rows)
        assert ns == list(cfg.n_grid)

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


def _reference_objectives(F, lam, C, pen):
    """The unblocked, out-of-place selection objectives."""
    back = (1.0 - lam * F) * C[:, None, :] / lam
    con = np.vecdot(back, back)   # the dot product of test_selection's contrast reference
    obj = con + pen
    if not np.all(np.isfinite(obj)):
        raise ParameterError("non-finite selection objective; check the data "
                             "and the penalty constants")
    return con, obj


def _reference_rows(n, cfg, d_ext):
    """The risk kernel on whole R x K x d arrays, each temporary out of place:
    the reading the blocked, in-place kernel must reproduce bit for bit."""
    d = choose_m0(n, cfg.p)
    lam = SpectralSynthetic(p=cfg.p).values(d)
    x_ext = SourceSpec(cfg.nu, cfg.rho, cfg.omega).coefficients(cfg.p, d_ext, cfg.seed)
    x0 = x_ext[:d]
    tail = bias_m0(x_ext, d)

    base = PenaltyConfig(sigma2=cfg.sigma ** 2, r=cfg.r, kraft_d=cfg.kraft_d)
    setups = {}
    for method in cfg.methods():
        family = (tikhonov_family(lam, n, cfg.p, cfg.alpha_max, cfg.alpha_ratio)
                  if method == "tikhonov" else projection_family(lam, n))
        w = default_weights(family, base, target=cfg.kraft_target)
        pcfg = replace(base, weights=w)
        setups[method] = (family, pcfg, kraft_sum(family, pcfg))

    # singular coefficients of the data in the sequence model (module docstring)
    R = cfg.replications
    c0 = lam * x0
    rng = np.random.default_rng((cfg.seed, n))
    C = c0 + cfg.sigma / math.sqrt(n) * rng.standard_normal((R, d))
    rows = []
    for method, (family, pcfg, kr) in setups.items():
        F = family.filter_matrix
        pens = penalties(family.trace_stats, family.radius_stats, pcfg)
        # deterministic oracle term: bias of the regularized truths + 2 pen
        bias_k = np.sum((F * c0 - x0) ** 2, axis=1) + tail
        oracle_term = float(np.min(bias_k + 2.0 * pens))
        _, objs = _reference_objectives(F, lam, C, pens)
        chosen = np.argmin(objs, axis=1)
        errs = np.sum((F * C[:, None, :] - x0) ** 2, axis=2) + tail
        risk, se = _mean_se(errs[np.arange(R), chosen])
        cand_risk, cand_se = _mean_se(errs)
        k_star = int(np.argmin(cand_risk))
        ratio = (risk - 2.0 * tail - kr / n) / oracle_term
        agree = math.nan
        if method == "projection":
            # the prefix statistics as cumulative sums, read inline
            inv2 = (1.0 / lam) ** 2
            prefix_pens = penalties(np.cumsum(inv2) / n,
                                    np.maximum.accumulate(inv2) / n, pcfg)
            _, thr = threshold_objectives(lam, C, prefix_pens)
            agree = float(np.sum(np.argmin(thr, axis=1) == chosen)) / R
        rows.append(RiskRow(n, method, R, float(risk), float(se),
                            float(cand_risk[k_star]), float(cand_se[k_star]),
                            oracle_term, tail, kr, float(ratio),
                            float(pcfg.weights[0]), agree))
    return rows


def _filter_size(n, cfg):
    """K d of the one family ``cfg`` names at grid point n."""
    d = choose_m0(n, cfg.p)
    lam = SpectralSynthetic(p=cfg.p).values(d)
    family = (tikhonov_family(lam, n, cfg.p, cfg.alpha_max, cfg.alpha_ratio)
              if cfg.family == "tikhonov" else projection_family(lam, n))
    return family.filter_matrix.size


class TestRiskKernel:
    R = 38  # 7 does not divide it
    # a step of ``rows`` splits the R rows into max(1, R // rows) nearly equal blocks
    BLOCK_SIZES = {1: [1] * R, 7: [7, 8, 7, 8, 8], R: [R], R + 5: [R]}

    @pytest.mark.parametrize("family", ["tikhonov", "projection"])
    @pytest.mark.parametrize("rows", [1, 7, R, R + 5])
    def test_blocks_reproduce_the_whole_array_kernel(self, monkeypatch, family, rows):
        cfg = ExperimentConfig(n_grid=(256, 2048), replications=self.R,
                               family=family, seed=9)
        d_ext = cfg.extended_dim()
        blocks, original = [], experiments.objectives

        def spy(residual_sq, lam, C, pen):
            blocks.append(C.shape[0])
            return original(residual_sq, lam, C, pen)

        monkeypatch.setattr(experiments, "objectives", spy)
        for n in cfg.n_grid:
            monkeypatch.setattr(invreg.operator, "KERNEL_BLOCK_ELEMENTS",
                                rows * _filter_size(n, cfg))
            blocks.clear()
            got = _risk_rows_for_n(n, cfg, d_ext)
            assert blocks == self.BLOCK_SIZES[rows]
            assert ([repr(astuple(r)) for r in got]
                    == [repr(astuple(r)) for r in _reference_rows(n, cfg, d_ext)])

    @pytest.mark.parametrize("family", ["tikhonov", "projection"])
    def test_one_residual_serves_every_block(self, monkeypatch, family):
        # one-row blocks: every block reads the residual the family formed once
        cfg = ExperimentConfig(n_grid=(256,), replications=5, family=family, seed=9)
        built, seen = [], []
        for name in ("tikhonov_family", "projection_family"):
            def build(*args, _build=getattr(experiments, name), **kwargs):
                built.append(_build(*args, **kwargs))
                return built[-1]
            monkeypatch.setattr(experiments, name, build)
        original = experiments.objectives

        def spy(residual_sq, lam, C, pen):
            seen.append(residual_sq)
            return original(residual_sq, lam, C, pen)

        monkeypatch.setattr(experiments, "objectives", spy)
        monkeypatch.setattr(invreg.operator, "KERNEL_BLOCK_ELEMENTS", 1)
        _risk_rows_for_n(256, cfg, cfg.extended_dim())
        (fam,) = built
        assert len(seen) == cfg.replications
        assert all(a is fam.residual_sq for a in seen)

    @pytest.mark.parametrize("overrides", [{"p": 0.5}, {"nu": 1.0}, {"replications": 1}],
                             ids=["p=1/2", "nu=1", "R=1"])
    def test_whole_array_kernel_at_other_protocols(self, overrides):
        # the closed-form pick of the oracle candidate and the reduction of its
        # errors reproduce the whole R x K error array, NaN standard errors too
        cfg = replace(ExperimentConfig(n_grid=(256, 2048), replications=self.R,
                                       seed=9), **overrides)
        d_ext = cfg.extended_dim()
        for n in cfg.n_grid:
            assert ([repr(astuple(r)) for r in _risk_rows_for_n(n, cfg, d_ext)]
                    == [repr(astuple(r)) for r in _reference_rows(n, cfg, d_ext)])

    @staticmethod
    def _peak_growth(cfg):
        """tracemalloc peak of the one grid point of ``cfg`` at 10^4
        replications minus that at 10^3."""
        n, = cfg.n_grid
        d_ext = cfg.extended_dim()
        peaks = []
        for reps in (1_000, 10_000):
            tracemalloc.start()
            _risk_rows_for_n(n, replace(cfg, replications=reps), d_ext)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return peaks[1] - peaks[0]

    def test_memory_grows_by_rows_not_rows_times_candidates(self):
        # at n = 65536 a 10^4 x K x d float64 array takes 134 MB; the blocked
        # kernel holds only O(R (K + d)) across replications
        n = 65536
        cfg = ExperimentConfig(n_grid=(n,), seed=4)
        k_times_d = max(_filter_size(n, replace(cfg, family=f))
                        for f in ("tikhonov", "projection"))
        assert self._peak_growth(cfg) < (10_000 - 1_000) * k_times_d * 8 / 4

    def test_projection_cell_memory_grows_by_few_coefficient_blocks(self):
        # the cell keeps the R x d coefficients and errors; the thresholding
        # cross-check runs in row blocks and adds no whole R x d temporary
        n = 65536
        cfg = ExperimentConfig(n_grid=(n,), family="projection", seed=4)
        d = choose_m0(n, cfg.p)
        assert self._peak_growth(cfg) < 3 * (10_000 - 1_000) * d * 8


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
