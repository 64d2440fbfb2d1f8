import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import invreg.operator
from invreg import (
    DimensionError,
    GaussianNoise,
    ParameterError,
    PenaltyConfig,
    QuadFormSpec,
    SpectralSynthetic,
    build_design_matrix,
    cosine_design,
    default_u_grid,
    discretize_operator,
    eta,
    midpoint_grid,
    moment_check,
    penalized_level,
    projection_identity_check,
    tail_check,
    tikhonov_family,
)
from invreg.cli import _concentration_matrix


class TestEta:
    def test_zero_noise(self):
        assert eta(np.eye(3), np.zeros(3)) == 0.0

    def test_identity_matrix(self, rng):
        e = rng.standard_normal(5)
        assert eta(np.eye(5), e) == pytest.approx(np.linalg.norm(e))

    def test_supremum_attained_at_normalized_image(self, rng):
        A = rng.standard_normal((3, 5))
        e = rng.standard_normal(5)
        value = eta(A, e)
        # random-direction brute force stays below, maximizer attains
        best = 0.0
        for _ in range(10_000):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            best = max(best, float(np.dot(e, A.T @ u)))
        assert best <= value + 1e-12
        u_star = A @ e / value
        assert float(np.dot(e, A.T @ u_star)) == pytest.approx(value, abs=1e-8)

    def test_absolute_homogeneity(self, rng):
        A = rng.standard_normal((2, 4))
        e = rng.standard_normal(4)
        assert eta(-2.5 * A, e) == pytest.approx(2.5 * eta(A, e))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eta(np.eye(3), np.zeros(4))


class TestProjectionIdentity:
    def test_vector_inside_the_model_space(self, rng):
        grid = midpoint_grid(12)
        G = build_design_matrix(grid, 3)
        eps = G.T @ rng.standard_normal(3)
        chk = projection_identity_check(eps, G)
        norm_n = np.linalg.norm(eps) / math.sqrt(12)
        assert chk.lhs == pytest.approx(norm_n, abs=1e-12)
        assert chk.rhs == pytest.approx(norm_n, abs=1e-12)

    def test_orthogonal_vector(self):
        grid = midpoint_grid(12)
        G = build_design_matrix(grid, 3)
        eps = cosine_design(grid, 7)[6]   # empirically orthogonal
        chk = projection_identity_check(eps, G)
        assert chk.lhs == pytest.approx(0.0, abs=1e-12)
        assert chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.gap <= 1e-12

    def test_gap_vanishes_for_random_noise(self, rng):
        grid = midpoint_grid(12)
        G = build_design_matrix(grid, 3)
        for _ in range(25):
            chk = projection_identity_check(rng.standard_normal(12), G)
            assert chk.gap <= 1e-10


class TestTailCheck:
    def test_empirical_and_bound_decrease_in_u(self):
        spec = QuadFormSpec(np.eye(4), GaussianNoise(1.0), 3000, seed=1)
        rep = tail_check(spec, spec.eta_squared_samples(), PenaltyConfig(sigma2=1.0),
                         default_u_grid(spec), weight=0.0)
        assert np.all(np.diff(rep.empirical_tail) <= 0)
        assert np.all(np.diff(rep.theoretical_bound) < 0)
        assert rep.empirical_tail[-1] <= rep.empirical_tail[0]

    def test_identity_matches_chi_square_tail(self):
        d, sigma, reps = 4, 1.0, 10_000
        spec = QuadFormSpec(np.eye(d), GaussianNoise(sigma), reps, seed=7)
        cfg = PenaltyConfig(sigma2=sigma ** 2, r=2.5)
        u_grid = default_u_grid(spec)
        rep = tail_check(spec, spec.eta_squared_samples(), cfg, u_grid, weight=0.0)
        level = (d + 1) * (2.5 / 2.0)
        for u, emp in zip(u_grid, rep.empirical_tail):
            exact = stats.chi2.sf(level + u, d)
            se = math.sqrt(exact * (1 - exact) / reps)
            assert abs(emp - exact) <= 3 * se + 1e-12

    def test_diagonal_against_independent_sampler(self):
        A = np.diag([1.0, 0.5, 1.0 / 3.0])
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        spec1 = QuadFormSpec(A, GaussianNoise(1.0), 8000, seed=11)
        spec2 = QuadFormSpec(A, GaussianNoise(1.0), 8000, seed=2024)
        u = default_u_grid(spec1)
        rep1 = tail_check(spec1, spec1.eta_squared_samples(), cfg, u, weight=0.0)
        rep2 = tail_check(spec2, spec2.eta_squared_samples(), cfg, u, weight=0.0)
        for e1, s1, e2, s2 in zip(rep1.empirical_tail, rep1.stderr,
                                  rep2.empirical_tail, rep2.stderr):
            assert abs(e1 - e2) <= 3 * math.sqrt(s1 ** 2 + s2 ** 2) + 1e-12

    def test_no_violations_for_gaussian_noise(self):
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        for A in (np.eye(4), np.diag(1.0 / np.arange(1.0, 9.0))):
            spec = QuadFormSpec(A, GaussianNoise(1.0), 4000, seed=5)
            rep = tail_check(spec, spec.eta_squared_samples(), cfg, default_u_grid(spec),
                             weight=0.0)
            assert rep.violations == 0

    def test_level_overflow_names_sigma(self):
        # sigma^2 is finite, sigma^2 (Tr + rho)(r/2)(1 + L) is not
        spec = QuadFormSpec(np.eye(4), GaussianNoise(5e153), 1)
        with pytest.raises(ParameterError, match=r"\[concentration\] sigma = 5e\+153"):
            penalized_level(spec, r=2.5, weight=1.0)

    def test_finite_level_near_overflow(self):
        # r sigma^2 (Tr + rho) overflows, its half does not
        spec = QuadFormSpec(np.eye(1), GaussianNoise(7e153), 1)
        assert penalized_level(spec, r=2.01, weight=0.0) == pytest.approx(9.849e307,
                                                                          rel=1e-12)

    def test_replication_streams_are_order_independent(self):
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 100, seed=3)
        first = spec.eta_squared_samples()
        again = spec.eta_squared_samples()
        assert np.array_equal(first, again)

    def test_penalized_level_helper_matches_report_threshold(self):
        A = np.diag([1.0, 0.5])
        level = penalized_level(QuadFormSpec(A, GaussianNoise(2.0), 1), r=2.5, weight=1.0)
        # sigma^2 (Tr + rho)(r/2)(1 + L) = 4 * 2.25 * 1.25 * 2
        assert level == pytest.approx(4 * 2.25 * 1.25 * 2)


class TestMomentCheck:
    def test_positive_part_vanishes_above_the_sample(self):
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 2000, seed=13)
        rep = moment_check(spec, spec.eta_squared_samples(), PenaltyConfig(sigma2=1.0),
                           1, weight=200.0)
        assert rep.empirical_moment == 0.0
        assert rep.defined

    def test_truncated_mean_against_integration_oracle(self):
        # q = 1, A = I_2: E[chi2_2 - c]_+ integrated directly
        L, r = 1.0, 2.5
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 20_000, seed=17)
        etasq = spec.eta_squared_samples()
        rep = moment_check(spec, etasq, PenaltyConfig(sigma2=1.0, r=r), 1, weight=L)
        c = 3.0 * (r / 2.0) * (1.0 + L)
        oracle, _ = integrate.quad(lambda x: (x - c) * stats.chi2.pdf(x, 2),
                                   c, np.inf)
        closed_form = 2.0 * math.exp(-c / 2.0)
        assert oracle == pytest.approx(closed_form, rel=1e-8)
        sd = float(np.std(np.clip(etasq - c, 0, None), ddof=1))
        assert abs(rep.empirical_moment - oracle) <= 4 * sd / math.sqrt(20_000)

    def test_ratio_bounded_across_grid_sweep(self):
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        ratios = []
        for A in (np.eye(2), np.eye(4), np.diag(1.0 / np.arange(1.0, 9.0))):
            for L in (0.5, 2.0):
                spec = QuadFormSpec(A, GaussianNoise(1.0), 4000, seed=3)
                ratios.append(moment_check(spec, spec.eta_squared_samples(), cfg, 1,
                                           weight=L).ratio)
        assert np.all(np.isfinite(ratios))
        assert max(ratios) <= 10.0

    def test_moment_overflow_names_sigma(self):
        # each excess is finite, their sum is not
        spec = QuadFormSpec(np.eye(1), GaussianNoise(1.0), 4)
        with pytest.raises(ParameterError, match=r"\[concentration\] sigma = 1\.0"):
            moment_check(spec, np.full(4, 1e308), PenaltyConfig(sigma2=1.0), 1,
                         weight=1.0)

    def test_zero_weight_flags_undefined_bound(self):
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 500, seed=1)
        rep = moment_check(spec, spec.eta_squared_samples(), PenaltyConfig(sigma2=1.0),
                           1, weight=0.0)
        assert not rep.defined
        assert math.isnan(rep.bound_shape)


def _one_call_draw(spec):
    """eta^2 of the whole replications x rank array of normals drawn in one
    call and scaled by the singular values of A."""
    Z = np.random.default_rng(spec.seed).normal(
        0.0, spec.noise.sigma, (spec.replications, spec.sv.size)) * spec.sv
    return np.vecdot(Z, Z)


def _sample_space_draw(A, sigma, replications, seed, rows=500):
    """|A eps|^2 for replications x n gaussian noise, the noise drawn and
    multiplied by A^t ``rows`` replications at a time."""
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, replications, rows):
        V = rng.normal(0.0, sigma, (min(rows, replications - start), A.shape[1])) @ A.T
        out.append(np.vecdot(V, V))
    return np.concatenate(out)


def _regularizer_matrix(d, n):
    """The dense d x n Tikhonov regularizer that ``regularizer:dxn`` stands
    for, built on the discretized operator of the midpoint grid."""
    op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(n), d)
    fam = tikhonov_family(op.singular_values, n, op.p, alpha_max=0.25, count=1)
    return op.regularizer(fam.filter_matrix[0])


class TestBlockedDraw:
    """eta_squared_samples draws sigma^2 sum_i s_i^2 z_i^2, one row block of
    replications at a time, the same bits as one call for any block size."""

    @pytest.mark.parametrize("rows", [1, None], ids=["one-row", "default"])
    @pytest.mark.parametrize("token,default_blocks", [
        ("identity:4", 1), ("decay:8", 1), ("regularizer:4x16", 1)])
    def test_shipped_matrices_match_the_one_call_draw(self, monkeypatch, token,
                                                      default_blocks, rows):
        spec = QuadFormSpec(_concentration_matrix(token), GaussianNoise(1.0), 10_000,
                            seed=3)
        if rows is not None:
            monkeypatch.setattr(invreg.operator, "KERNEL_BLOCK_ELEMENTS",
                                rows * spec.sv.size)
        blocks = invreg.operator._kernel_blocks(spec.replications, spec.sv.size)
        assert len(blocks) == (spec.replications if rows == 1 else default_blocks)
        np.testing.assert_array_equal(spec.eta_squared_samples(), _one_call_draw(spec))

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["one-row", "7-row", "default"])
    def test_dense_matrix_matches_the_one_call_draw_bit_for_bit(self, monkeypatch,
                                                                rows):
        A = np.random.default_rng(5).standard_normal((32, 300))
        spec = QuadFormSpec(A, GaussianNoise(1.5), 2000, seed=3)
        assert spec.sv.size == 32
        if rows is not None:
            monkeypatch.setattr(invreg.operator, "KERNEL_BLOCK_ELEMENTS",
                                rows * spec.sv.size)
        blocks = invreg.operator._kernel_blocks(spec.replications, spec.sv.size)
        assert len(blocks) == {1: 2000, 7: 285, None: 1}[rows]
        np.testing.assert_array_equal(spec.eta_squared_samples(), _one_call_draw(spec))

    @pytest.mark.parametrize("dense", [True, False],
                             ids=["dense 4x64", "regularizer:8x4096"])
    def test_law_matches_the_sample_space_draw(self, dense):
        # the same law as |A eps|^2 for noise eps in R^n, not the same bits;
        # the command's d x d regularizer:dxn against the dense d x n matrix
        if dense:
            A = M = np.random.default_rng(8).standard_normal((4, 64))
        else:
            A, M = _regularizer_matrix(8, 4096), _concentration_matrix("regularizer:8x4096")
        sigma, reps = 0.7, 4000
        got = QuadFormSpec(M, GaussianNoise(sigma), reps, seed=21).eta_squared_samples()
        ref = _sample_space_draw(A, sigma, reps, seed=22)
        assert stats.ks_2samp(got, ref).pvalue > 0.01
        for level in np.sum(A * A) * sigma ** 2 * np.array([0.25, 0.5, 1.0, 2.0, 4.0]):
            p, q = np.mean(got >= level), np.mean(ref >= level)
            se = math.sqrt((p * (1 - p) + q * (1 - q)) / reps)
            assert abs(p - q) <= 3 * se + 1e-12

    @pytest.mark.parametrize("d,n", [(4, 16), (8, 4096), (32, 1024)])
    def test_regularizer_token_has_the_dense_spectrum(self, d, n):
        closed = QuadFormSpec(_concentration_matrix(f"regularizer:{d}x{n}"),
                              GaussianNoise(1.0), 1)
        np.testing.assert_allclose(closed.sv, np.linalg.svd(
            _regularizer_matrix(d, n), compute_uv=False), rtol=1e-14, atol=0)

    def test_memory_does_not_grow_with_the_regularizer_width(self):
        peaks = []
        for n in (4096, 65536):
            tracemalloc.start()
            try:
                spec = QuadFormSpec(_concentration_matrix(f"regularizer:8x{n}"),
                                    GaussianNoise(1.0), 2000, seed=1)
                spec.eta_squared_samples()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024


class TestSharedSample:
    CFG = PenaltyConfig(sigma2=1.0, r=2.5)

    def test_tail_and_moment_check_draw_each_replication_once(self, monkeypatch):
        default_rng = np.random.default_rng
        generators, shapes = [], []

        class CountingGenerator:
            def __init__(self, seed):
                generators.append(seed)
                self.rng = default_rng(seed)

            def normal(self, loc, scale, size):
                shapes.append(size)
                return self.rng.normal(loc, scale, size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        spec = QuadFormSpec(np.diag([1.0, 0.5, 0.25]), GaussianNoise(1.0), 300, seed=6)
        etasq = spec.eta_squared_samples()
        tail_check(spec, etasq, self.CFG, default_u_grid(spec), weight=1.0)
        moment_check(spec, etasq, self.CFG, 1, weight=1.0)
        assert generators == [6]
        assert {cols for _, cols in shapes} == {3}
        assert sum(rows * cols for rows, cols in shapes) == spec.replications * 3

    def test_shared_sample_reports_equal_independent_draws(self):
        spec = QuadFormSpec(np.diag([1.0, 0.5, 0.25]), GaussianNoise(1.0), 500,
                            seed=6)
        shared = spec.eta_squared_samples()
        u = default_u_grid(spec)
        for L in (0.0, 1.0):
            a = tail_check(spec, shared, self.CFG, u, weight=L)
            b = tail_check(spec, spec.eta_squared_samples(), self.CFG, u, weight=L)
            for field in ("thresholds", "empirical_tail", "stderr",
                          "theoretical_bound"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
            np.testing.assert_array_equal(a.violation_flags(), b.violation_flags())
            assert a.header_lines() == b.header_lines()
            assert a.violations == b.violations
        ma = moment_check(spec, shared, self.CFG, 2, weight=1.0)
        mb = moment_check(spec, spec.eta_squared_samples(), self.CFG, 2, weight=1.0)
        assert ma == mb

    def test_gram_statistics_take_one_svd_per_spec(self, monkeypatch):
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        spec = QuadFormSpec(np.diag([1.0, 0.5, 0.25]), GaussianNoise(1.0), 200, seed=6)
        assert calls == [(3, 3)]
        assert (spec.trace, spec.radius) == pytest.approx((1.3125, 1.0))
        etasq = spec.eta_squared_samples()
        tail_check(spec, etasq, self.CFG, np.array([0.5, 1.0]), weight=1.0)
        moment_check(spec, etasq, self.CFG, 1, weight=1.0)
        penalized_level(spec, r=2.5, weight=1.0)
        default_u_grid(spec)
        assert calls == [(3, 3)]
