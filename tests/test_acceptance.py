"""Acceptance suite: every shipped claim at its stated tolerance.

Each check prints one PASS/FAIL line (run with -s to see them inline).
The trace-ratio scaling check at p = 1/2 is expected to fail: the ratio
carries a logarithmic correction exactly at that index, so its finite-
range slope sits near 0.5 instead of 1.0 at any feasible model size (see
the decisions ledger).
"""

import math

import numpy as np
import pytest
from scipy import stats

from invreg import (
    ExperimentConfig,
    GaussianNoise,
    PenaltyConfig,
    QuadFormSpec,
    SpectralSynthetic,
    build_design_matrix,
    default_u_grid,
    default_weights,
    discretize_operator,
    eta,
    fit_rate,
    midpoint_grid,
    monte_carlo_risk,
    projection_family,
    projection_identity_check,
    select,
    select_by_threshold,
    tail_check,
    tikhonov_family,
)

RATE_TOL = 0.15
TRACE_TOL = 0.1
GAP_TOL = 1e-10
N_GRID = (256, 512, 1024, 2048, 4096, 8192)
REPLICATIONS = 200


def report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def batch_half_a():
    cfg = ExperimentConfig(p=1.0, nu=0.5, sigma=0.1, n_grid=N_GRID,
                           replications=REPLICATIONS, family="both", seed=11)
    return monte_carlo_risk(cfg)


@pytest.fixture(scope="module")
def batch_half_b():
    cfg = ExperimentConfig(p=1.0, nu=0.5, sigma=0.1, n_grid=N_GRID,
                           replications=REPLICATIONS, family="both", seed=77)
    return monte_carlo_risk(cfg)


@pytest.fixture(scope="module")
def batch_one():
    cfg = ExperimentConfig(p=1.0, nu=1.0, sigma=0.1, n_grid=N_GRID,
                           replications=REPLICATIONS, family="tikhonov", seed=11)
    return monte_carlo_risk(cfg)


class TestCriterion1TikhonovRates:
    def test_nu_half(self, batch_half_a):
        fit = fit_rate(batch_half_a, "tikhonov")
        ok = abs(fit.slope - (-0.4)) <= RATE_TOL
        report("1a tikhonov rate nu=1/2", ok,
               f"slope {fit.slope:+.4f} vs -0.4 +- {RATE_TOL}")

    def test_nu_one(self, batch_one):
        fit = fit_rate(batch_one, "tikhonov")
        theo = -4.0 / 7.0
        ok = abs(fit.slope - theo) <= RATE_TOL
        report("1b tikhonov rate nu=1", ok,
               f"slope {fit.slope:+.4f} vs {theo:+.4f} +- {RATE_TOL}")


class TestCriterion2ProjectionRate:
    def test_nu_half(self, batch_half_a):
        fit = fit_rate(batch_half_a, "projection")
        ok = abs(fit.slope - (-0.4)) <= RATE_TOL
        report("2 projection rate nu=1/2", ok,
               f"slope {fit.slope:+.4f} vs -0.4 +- {RATE_TOL}")


class TestCriterion3OracleInequality:
    def test_ratio_stable_between_seed_batches(self, batch_half_a, batch_half_b):
        for method in ("tikhonov", "projection"):
            ca = max(r.ratio_C for r in batch_half_a.rows_for(method))
            cb = max(r.ratio_C for r in batch_half_b.rows_for(method))
            factor = max(ca, cb) / min(ca, cb)
            report(f"3a oracle ratio stability ({method})", factor < 2.0,
                   f"max-C {ca:.4f} vs {cb:.4f}, factor {factor:.3f}")

    def test_adaptive_never_beats_pure_oracle(self, batch_half_a, batch_half_b,
                                              batch_one):
        worst = math.inf
        for batch in (batch_half_a, batch_half_b, batch_one):
            for row in batch.rows:
                worst = min(worst, (row.risk - row.oracle_risk)
                            / row.oracle_risk_se)
        report("3b adaptive vs pure oracle", worst >= -3.0,
               f"min standardized gap {worst:+.2f} >= -3")


def _single_matrix_weight(A, r=2.5, d_const=1.0, target=1.0):
    """Smallest L with 2(sqrt(b)+1) n rho^2 exp(-sqrt(d L (b+1))) <= target."""
    sv = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    tr, rho = float(np.sum(sv ** 2)), float(sv[0] ** 2)
    b = tr / rho
    n_rho2 = A.shape[1] * rho

    def term(L):
        return 2.0 * (math.sqrt(d_const * b) + 1.0) * (n_rho2 / d_const) \
            * math.exp(-math.sqrt(d_const * L * (b + 1.0)))

    if term(0.0) <= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while term(hi) > target:
        hi *= 2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if term(mid) > target else (lo, mid)
    return hi


def _acceptance_matrices():
    op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(16), 4)
    fam = tikhonov_family(op.singular_values, op.n, op.p, alpha_max=0.25, count=1)
    return [
        ("identity4", np.eye(4)),
        ("decay8", np.diag(1.0 / np.arange(1.0, 9.0))),
        ("regularizer4x16", op.regularizer(fam.filter_matrix[0])),
    ]


class TestCriterion4ConcentrationTail:
    def test_tail_bound_dominates(self):
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        total = 0
        for name, A in _acceptance_matrices():
            for L in (0.0, _single_matrix_weight(A)):
                spec = QuadFormSpec(A, GaussianNoise(1.0), 10_000, seed=4)
                rep = tail_check(spec, spec.eta_squared_samples(), cfg,
                                 default_u_grid(A, 8), weight=L)
                total += rep.violations
                report(f"4a tail bound [{name}, L={L:.2f}]",
                       rep.violations == 0,
                       f"{rep.violations} violations over {rep.thresholds.size} u")
        assert total == 0

    def test_identity_matches_exact_chi_square(self):
        d, reps = 4, 10_000
        spec = QuadFormSpec(np.eye(d), GaussianNoise(1.0), reps, seed=4)
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        u_grid = default_u_grid(np.eye(d), 8)
        rep = tail_check(spec, spec.eta_squared_samples(), cfg, u_grid, weight=0.0)
        level = (d + 1) * 1.25
        worst = 0.0
        for u, emp in zip(u_grid, rep.empirical_tail):
            exact = stats.chi2.sf(level + u, d)
            se = math.sqrt(exact * (1.0 - exact) / reps)
            worst = max(worst, abs(emp - exact) / se if se > 0 else 0.0)
        report("4b identity tail vs exact chi-square", worst <= 3.0,
               f"worst standardized deviation {worst:.2f} <= 3")


class TestCriterion5ProjectionIdentity:
    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(8, 65))
            d = int(rng.integers(1, min(n, 8) + 1))
            G = build_design_matrix(midpoint_grid(n), d)
            eps = rng.standard_normal(n)
            worst = max(worst, projection_identity_check(eps, G).gap)
        report("5 projection-supremum identity", worst <= GAP_TOL,
               f"max gap {worst:.2e} <= {GAP_TOL:.0e} over 100 pairs")


class TestCriterion6ThresholdEquivalence:
    def test_hundred_random_instances(self):
        d, n = 12, 64
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(n), d)
        fam = projection_family(op.singular_values, op.n)
        base = PenaltyConfig(sigma2=0.04, r=2.5)
        w = default_weights(fam, base, target=1.0)
        cfg = PenaltyConfig(sigma2=0.04, r=2.5, weights=w)
        rng = np.random.default_rng(6)
        mismatches = 0
        for _ in range(100):
            x0 = rng.standard_normal(d) * rng.uniform(0.0, 3.0)
            y = op.forward(x0) + rng.normal(0.0, 0.2, n)
            if select(fam, cfg, op, y).chosen != select_by_threshold(op, y, cfg).chosen:
                mismatches += 1
        report("6 thresholding equivalence", mismatches == 0,
               f"{mismatches} disagreements over 100 instances, d={d}")


class TestCriterion7TraceRatioScaling:
    @pytest.mark.parametrize("p", [
        pytest.param(0.5, marks=pytest.mark.xfail(
            strict=False,
            reason="log factor at p=1/2: finite-range slope ~0.5, not 1.0; "
                   "see decisions ledger")),
        1.0,
        2.0,
    ])
    def test_slope(self, p):
        d, n = 128, 256
        op = discretize_operator(SpectralSynthetic(p=p), midpoint_grid(n), d)
        # geometric grid whose filter peak sweeps j = 2 .. 32, inside [1, d]
        count = int(2 * p * 4) + 1
        fam = tikhonov_family(op.singular_values, op.n, op.p,
                              alpha_max=2.0 ** (-2 * p), ratio=0.5, count=count)
        ratios = fam.trace_stats / fam.radius_stats
        slope = float(np.polyfit(np.log(1.0 / np.array(fam.parameters)),
                                 np.log(ratios), 1)[0])
        target = 1.0 / (2.0 * p)
        report(f"7 trace-ratio scaling p={p}", abs(slope - target) <= TRACE_TOL,
               f"slope {slope:+.4f} vs {target:+.4f} +- {TRACE_TOL}")


class TestCriterion8Exactness:
    def test_projection_idempotence(self):
        rng = np.random.default_rng(8)
        from invreg import empirical_projection
        G = build_design_matrix(midpoint_grid(24), 6)
        y = rng.standard_normal(24)
        c1 = empirical_projection(y, G)
        c2 = empirical_projection(G.T @ c1, G)
        ok = np.max(np.abs(c1 - c2)) <= 1e-10
        report("8a projection idempotence", ok,
               f"max drift {np.max(np.abs(c1 - c2)):.2e} <= 1e-10")

    def test_pythagoras(self):
        rng = np.random.default_rng(88)
        from invreg import empirical_norm, empirical_projection
        grid = midpoint_grid(24)
        G = build_design_matrix(grid, 6)
        worst = 0.0
        for _ in range(20):
            y = rng.standard_normal(24)
            proj = G.T @ empirical_projection(y, G)
            lhs = empirical_norm(y, grid) ** 2
            rhs = (empirical_norm(proj, grid) ** 2
                   + empirical_norm(y - proj, grid) ** 2)
            worst = max(worst, abs(lhs - rhs))
        report("8b empirical Pythagoras", worst <= 1e-10,
               f"max defect {worst:.2e} <= 1e-10")

    def test_svd_reconstruction(self):
        rng = np.random.default_rng(888)
        n, d = 20, 5
        S = rng.standard_normal((n, d))
        op = discretize_operator(S, midpoint_grid(n), d, p=1.0)
        G = op.G
        P = G.T @ np.linalg.solve(G @ G.T, G)
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal(d)
            ref = P @ S @ x
            err = np.linalg.norm(op.forward(x) - ref)
            worst = max(worst, err / max(np.linalg.norm(ref), 1e-30))
        report("8c SVD reconstruction", worst <= 1e-8,
               f"max relative error {worst:.2e} <= 1e-8")

    def test_eta_norm_identity(self):
        rng = np.random.default_rng(8888)
        worst = 0.0
        for _ in range(20):
            A = rng.standard_normal((4, 9))
            e = rng.standard_normal(9)
            value = eta(A, e)
            u_star = A @ e / value
            worst = max(worst, abs(float(np.dot(e, A.T @ u_star)) - value))
        report("8d eta-norm identity", worst <= 1e-10,
               f"max defect {worst:.2e} <= 1e-10")

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(88888)
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(32), 6)
        fam = projection_family(op.singular_values, op.n, dims=[6])
        worst = 0.0
        for _ in range(20):
            x0 = rng.standard_normal(6)
            res = select(fam, PenaltyConfig(sigma2=1.0), op, op.forward(x0))
            worst = max(worst, float(np.max(np.abs(res.estimate - x0))))
        report("8e noiseless exact recovery", worst <= 1e-10,
               f"max coefficient error {worst:.2e} <= 1e-10")
