import numpy as np
import pytest

from invreg import (
    Diagonal,
    DimensionError,
    ParameterError,
    Projection,
    SpectralSynthetic,
    Tikhonov,
    build_regularizer,
    cosine_basis,
    discretize_operator,
    midpoint_grid,
    projection_family,
    regularized_truth,
    tikhonov_family,
)


def dense_resolvent_matrix(op, alpha):
    """Independent route: F D (G G^t)^-1 G with F = (D^2 + alpha I)^-1."""
    D = np.diag(op.singular_values)
    G = op.singular_design
    F = np.linalg.inv(D @ D + alpha * np.eye(op.d))
    return op.x_vectors @ F @ D @ np.linalg.solve(G @ G.T, G)


class TestBuildRegularizer:
    def test_identity_operator_half_filters(self, identity_op_d4_n16):
        reg = build_regularizer(Tikhonov(1.0), identity_op_d4_n16)
        assert np.allclose(reg.filter_values, 0.5)

    def test_full_projection_inverts_the_operator(self, op_p1_d4_n16, rng):
        reg = build_regularizer(Projection(range(1, 5)), op_p1_d4_n16)
        x = rng.standard_normal(4)
        assert np.allclose(reg.apply(op_p1_d4_n16.forward(x)), x, atol=1e-10)

    def test_dense_matrix_oracle(self, op_p1_d4_n16):
        # n=16, d=4, alpha=0.25: matrix, trace and radius against the dense route
        reg = build_regularizer(Tikhonov(0.25), op_p1_d4_n16)
        dense = dense_resolvent_matrix(op_p1_d4_n16, 0.25)
        assert np.allclose(reg.matrix, dense, atol=1e-12)
        f = op_p1_d4_n16.singular_values / (op_p1_d4_n16.singular_values ** 2 + 0.25)
        assert reg.trace_stat == pytest.approx(np.sum(f ** 2) / 16, abs=1e-14)
        assert reg.trace_stat == pytest.approx(np.sum(dense * dense), abs=1e-14)
        assert reg.radius_stat == pytest.approx(
            np.max(np.linalg.eigvalsh(dense @ dense.T)), abs=1e-14)

    def test_parameter_errors(self, op_p1_d4_n16):
        with pytest.raises(ParameterError):
            Tikhonov(0.0)
        with pytest.raises(ParameterError):
            Tikhonov(-1.0)
        with pytest.raises(ParameterError):
            Projection([])
        with pytest.raises(ParameterError):
            build_regularizer(Projection([9]), op_p1_d4_n16)

    def test_infinite_diagonal_entries_give_exact_zero_filters(self, op_p1_d4_n16):
        reg = build_regularizer(Diagonal([0.0, np.inf, 0.5, np.inf]), op_p1_d4_n16)
        assert reg.filter_values[1] == 0.0
        assert reg.filter_values[3] == 0.0
        lam = op_p1_d4_n16.singular_values
        assert reg.filter_values[0] == pytest.approx(1.0 / lam[0])
        assert reg.filter_values[2] == pytest.approx(lam[2] / (lam[2] ** 2 + 0.25))
        with pytest.raises(ParameterError):
            Diagonal([np.inf, np.inf])


class TestTraceRadius:
    def test_orthonormal_rows_scaled(self, identity_op_d4_n16):
        # full projection on the identity operator: R has orthonormal rows / sqrt(n)
        reg = build_regularizer(Projection(range(1, 5)), identity_op_d4_n16)
        tr, rad = reg.trace_stat, reg.radius_stat
        assert tr == pytest.approx(4 / 16)
        assert rad == pytest.approx(1 / 16)

    def test_identity_alpha_one_values(self, identity_op_d4_n16):
        reg = build_regularizer(Tikhonov(1.0), identity_op_d4_n16)
        tr, rad = reg.trace_stat, reg.radius_stat
        assert tr == pytest.approx(1 / 16, abs=1e-15)
        assert rad == pytest.approx(1 / 64, abs=1e-15)

    def test_trace_ratio_scaling_slope(self):
        # ratio grows like alpha^(-1/(2p)); fit inside the scaling window
        p, d, n = 1.0, 128, 256
        op = discretize_operator(SpectralSynthetic(p=p), cosine_basis(),
                                 midpoint_grid(n), d)
        fam = tikhonov_family(op, alpha_max=2.0 ** (-2 * p), ratio=0.5,
                              count=int(2 * p * 4) + 1)   # peaks from j=2 to j=32
        ratios = [reg.trace_stat / reg.radius_stat for reg in fam]
        slope = np.polyfit(np.log(1.0 / np.array(fam.parameters)),
                           np.log(ratios), 1)[0]
        assert slope == pytest.approx(1.0 / (2 * p), abs=0.1)


class TestApplyRegularizer:
    def test_zero_in_zero_out(self, op_p1_d4_n16):
        reg = build_regularizer(Tikhonov(0.5), op_p1_d4_n16)
        assert np.allclose(reg.apply(np.zeros(16)), 0.0)

    def test_noiseless_recovery_on_support(self, op_p1_d4_n16):
        x0 = np.array([1.5, 0.0, -2.0, 0.0])
        reg = build_regularizer(Projection([1, 3]), op_p1_d4_n16)
        y = op_p1_d4_n16.forward(x0)
        assert np.allclose(reg.apply(y), x0, atol=1e-10)

    def test_matches_penalized_least_squares_oracle(self, op_p1_d4_n16, rng):
        # minimizer of ||proj(y - Tx)||_n^2 + alpha ||x||^2 by dense normal
        # equations
        alpha = 0.5
        op = op_p1_d4_n16
        y = rng.standard_normal(16)
        reg = build_regularizer(Tikhonov(alpha), op)
        S = op.sample_matrix
        G = op.singular_design
        P = G.T @ np.linalg.solve(G @ G.T, G)
        lhs = S.T @ P @ S / op.n + alpha * np.eye(op.d)
        rhs = S.T @ P @ y / op.n
        oracle = np.linalg.solve(lhs, rhs)
        assert np.allclose(reg.apply(y), oracle, atol=1e-10)

    def test_dimension_mismatch(self, op_p1_d4_n16):
        reg = build_regularizer(Tikhonov(0.5), op_p1_d4_n16)
        with pytest.raises(DimensionError):
            reg.apply(np.zeros(5))


class TestRegularizedTruth:
    def test_projection_fixes_its_range(self, op_p1_d4_n16):
        x0 = np.array([0.3, -0.7, 0.0, 0.0])
        reg = build_regularizer(Projection([1, 2]), op_p1_d4_n16)
        assert np.allclose(regularized_truth(reg, op_p1_d4_n16, x0), x0, atol=1e-12)

    def test_heavy_smoothing_kills_coefficients(self, op_p1_d4_n16):
        x0 = np.ones(4)
        small = regularized_truth(build_regularizer(Tikhonov(1e8), op_p1_d4_n16),
                                  op_p1_d4_n16, x0)
        assert np.all(np.abs(small) < 1e-7)

    def test_componentwise_shrinkage_factors(self, op_p1_d4_n16, rng):
        alpha = 0.25
        x0 = rng.standard_normal(4)
        reg = build_regularizer(Tikhonov(alpha), op_p1_d4_n16)
        lam = op_p1_d4_n16.singular_values
        expected = lam ** 2 / (lam ** 2 + alpha) * x0
        got = regularized_truth(reg, op_p1_d4_n16, x0)
        assert np.allclose(got, expected, atol=1e-12)
        # dense product route
        dense = dense_resolvent_matrix(op_p1_d4_n16, alpha) @ op_p1_d4_n16.forward_raw(x0)
        assert np.allclose(got, dense, atol=1e-12)


class TestInvariants:
    def test_spectral_representation_and_bias(self, op_p1_d4_n16, rng):
        lam = op_p1_d4_n16.singular_values
        x0 = rng.standard_normal(4)
        for spec, a in [(Tikhonov(0.3), np.full(4, np.sqrt(0.3))),
                        (Projection([1, 2]), np.array([0.0, 0.0, np.inf, np.inf]))]:
            reg = build_regularizer(spec, op_p1_d4_n16)
            with np.errstate(invalid="ignore"):
                factor = np.where(np.isinf(a), 0.0, lam ** 2 / (lam ** 2 + a ** 2))
            got = regularized_truth(reg, op_p1_d4_n16, x0)
            assert np.allclose(got, factor * x0, atol=1e-10)
            bias = np.sum((got - x0) ** 2)
            expected_bias = np.sum(((1 - factor) * x0) ** 2)
            assert bias == pytest.approx(expected_bias, abs=1e-12)

    def test_tikhonov_monotonicity_in_alpha(self, op_p1_d4_n16):
        fam = tikhonov_family(op_p1_d4_n16, alpha_max=1.0, ratio=0.5)
        # parameters decrease, so stats must increase along the family
        trs = [r.trace_stat for r in fam]
        rads = [r.radius_stat for r in fam]
        assert np.all(np.diff(trs) > 0)
        assert np.all(np.diff(rads) >= 0)
        filters = np.array([r.filter_values for r in fam])
        assert np.all(np.diff(filters, axis=0) >= -1e-15)

    def test_radius_trace_ordering(self, op_p1_d4_n16, rng):
        for alpha in (0.01, 0.3, 2.0):
            reg = build_regularizer(Tikhonov(alpha), op_p1_d4_n16)
            assert reg.radius_stat <= reg.trace_stat <= 4 * reg.radius_stat + 1e-15

    def test_projection_nesting(self, op_p1_d4_n16):
        fam = projection_family(op_p1_d4_n16)
        trs = [r.trace_stat for r in fam]
        assert np.all(np.diff(trs) > 0)

    def test_scale_contract_across_n(self):
        # n * radius and trace/radius do not depend on n at fixed spec
        stats = {}
        for n in (16, 64):
            op = discretize_operator(SpectralSynthetic(p=1.0), cosine_basis(),
                                     midpoint_grid(n), 4)
            reg = build_regularizer(Tikhonov(0.25), op)
            stats[n] = (n * reg.radius_stat, reg.trace_stat / reg.radius_stat)
        assert stats[16][0] == pytest.approx(stats[64][0], rel=1e-12)
        assert stats[16][1] == pytest.approx(stats[64][1], rel=1e-12)

    def test_family_grid_condition(self, op_p1_d4_n16):
        fam = tikhonov_family(op_p1_d4_n16)
        assert min(fam.parameters) >= op_p1_d4_n16.d ** (-2.0 * op_p1_d4_n16.p)
