import math

import numpy as np
import pytest
from scipy import integrate, stats

from invreg import (
    DimensionError,
    GaussianNoise,
    PenaltyConfig,
    QuadFormSpec,
    TwoPointNoise,
    build_design_matrix,
    cosine_design,
    default_u_grid,
    eta,
    midpoint_grid,
    moment_check,
    moment_condition_ratios,
    projection_identity_check,
    tail_check,
    z_envelope,
)


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

    def test_z_envelope_budget_identity(self, rng):
        for A in (np.eye(4), np.diag([1.0, 0.5, 1.0 / 3.0]),
                  rng.standard_normal((3, 7))):
            z = z_envelope(A)
            sv = np.linalg.svd(A, compute_uv=False)
            assert np.sum(z) == pytest.approx(np.sum(sv ** 2) / sv[0] ** 2,
                                              abs=1e-12)


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
                         default_u_grid(np.eye(4)))
        assert np.all(np.diff(rep.empirical_tail) <= 0)
        assert np.all(np.diff(rep.theoretical_bound) < 0)
        assert rep.empirical_tail[-1] <= rep.empirical_tail[0]

    def test_identity_matches_chi_square_tail(self):
        d, sigma, reps = 4, 1.0, 10_000
        spec = QuadFormSpec(np.eye(d), GaussianNoise(sigma), reps, seed=7)
        cfg = PenaltyConfig(sigma2=sigma ** 2, r=2.5)
        u_grid = default_u_grid(np.eye(d))
        rep = tail_check(spec, spec.eta_squared_samples(), cfg, u_grid, weight=0.0)
        level = (d + 1) * (2.5 / 2.0)
        for u, emp in zip(u_grid, rep.empirical_tail):
            exact = stats.chi2.sf(level + u, d)
            se = math.sqrt(exact * (1 - exact) / reps)
            assert abs(emp - exact) <= 3 * se + 1e-12

    def test_diagonal_against_independent_sampler(self):
        A = np.diag([1.0, 0.5, 1.0 / 3.0])
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        u = default_u_grid(A)
        spec1 = QuadFormSpec(A, GaussianNoise(1.0), 8000, seed=11)
        spec2 = QuadFormSpec(A, GaussianNoise(1.0), 8000, seed=2024)
        rep1 = tail_check(spec1, spec1.eta_squared_samples(), cfg, u, weight=0.0)
        rep2 = tail_check(spec2, spec2.eta_squared_samples(), cfg, u, weight=0.0)
        for e1, s1, e2, s2 in zip(rep1.empirical_tail, rep1.stderr,
                                  rep2.empirical_tail, rep2.stderr):
            assert abs(e1 - e2) <= 3 * math.sqrt(s1 ** 2 + s2 ** 2) + 1e-12

    def test_no_violations_for_gaussian_noise(self):
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        for A in (np.eye(4), np.diag(1.0 / np.arange(1.0, 9.0))):
            spec = QuadFormSpec(A, GaussianNoise(1.0), 4000, seed=5)
            rep = tail_check(spec, spec.eta_squared_samples(), cfg, default_u_grid(A),
                             weight=0.0)
            assert rep.violations == 0

    def test_two_point_noise_also_dominated(self):
        A = np.eye(3)
        spec = QuadFormSpec(A, TwoPointNoise(1.0), 4000, seed=9)
        rep = tail_check(spec, spec.eta_squared_samples(), PenaltyConfig(sigma2=1.0),
                         default_u_grid(A), weight=0.0)
        assert rep.violations == 0

    def test_replication_streams_are_order_independent(self):
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 100, seed=3)
        first = spec.eta_squared_samples()
        again = spec.eta_squared_samples()
        assert np.array_equal(first, again)

    def test_penalized_level_helper_matches_report_threshold(self):
        from invreg import penalized_level
        A = np.diag([1.0, 0.5])
        level = penalized_level(A, sigma=2.0, r=2.5, weight=1.0)
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

    def test_zero_weight_flags_undefined_bound(self):
        spec = QuadFormSpec(np.eye(2), GaussianNoise(1.0), 500, seed=1)
        rep = moment_check(spec, spec.eta_squared_samples(), PenaltyConfig(sigma2=1.0),
                           1, weight=0.0)
        assert not rep.defined
        assert math.isnan(rep.bound_shape)


class CountingNoise(GaussianNoise):
    """Gaussian noise law that counts the values it draws."""

    def __init__(self, sigma):
        super().__init__(sigma)
        self.drawn = 0

    def sample(self, rng, shape):
        out = super().sample(rng, shape)
        self.drawn += out.size
        return out


class TestSharedSample:
    CFG = PenaltyConfig(sigma2=1.0, r=2.5)

    def test_tail_and_moment_check_draw_each_replication_once(self):
        noise = CountingNoise(1.0)
        spec = QuadFormSpec(np.diag([1.0, 0.5, 0.25]), noise, 300, seed=6)
        etasq = spec.eta_squared_samples()
        tail_check(spec, etasq, self.CFG, default_u_grid(spec.A), weight=1.0)
        moment_check(spec, etasq, self.CFG, 1, weight=1.0)
        assert noise.drawn == spec.replications * spec.A.shape[1]

    def test_shared_sample_reports_equal_independent_draws(self):
        spec = QuadFormSpec(np.diag([1.0, 0.5, 0.25]), GaussianNoise(1.0), 500,
                            seed=6)
        shared = spec.eta_squared_samples()
        u = default_u_grid(spec.A)
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


class TestMomentCondition:
    def test_gaussian_ratios(self):
        ratios = moment_condition_ratios(GaussianNoise(2.0), 8)
        # q = 1 exceeds the budget (2 sqrt(2/pi)), all higher orders satisfy it
        assert ratios[0] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
        assert np.all(ratios[1:] <= 1.0 + 1e-12)

    def test_two_point_ratios(self):
        ratios = moment_condition_ratios(TwoPointNoise(1.0), 8)
        # E|eps| = sigma for any bounded unit-variance two-point law, so the
        # q = 1 budget sigma/2 is exceeded by exactly a factor 2; the bounds
        # only draw on q >= 2
        assert ratios[0] == pytest.approx(2.0)
        assert np.all(ratios[1:] <= 1.0 + 1e-12)
