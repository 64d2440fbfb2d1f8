import numpy as np
import pytest

from invreg import (
    ParameterError,
    SpectralSynthetic,
    discretize_operator,
    midpoint_grid,
    projection_family,
    tikhonov_family,
)


def tikhonov_of(op, **kwargs):
    """Tikhonov family over the spectrum of ``op``."""
    return tikhonov_family(op.singular_values, op.n, op.p, **kwargs)


def projection_of(op, dims=None):
    """Nested projection family over the spectrum of ``op``."""
    return projection_family(op.singular_values, op.n, dims)


def tikhonov(op, alpha):
    """One-candidate Tikhonov family at ``alpha``."""
    return tikhonov_of(op, alpha_max=alpha, count=1)


def regularized_truth(op, fam, k, x0):
    """Noiseless image of the truth through candidate k (bias carrier)."""
    return op.regularizer(fam.filter_matrix[k]) @ op.forward(x0)


def dense_resolvent_matrix(op, alpha):
    """Independent route: F D (G G^t)^-1 G with F = (D^2 + alpha I)^-1."""
    D = np.diag(op.singular_values)
    G = op.singular_design
    F = np.linalg.inv(D @ D + alpha * np.eye(op.d))
    return op.x_vectors @ F @ D @ np.linalg.solve(G @ G.T, G)


class TestBuildRegularizer:
    def test_identity_operator_half_filters(self, identity_op_d4_n16):
        fam = tikhonov(identity_op_d4_n16, 1.0)
        assert np.allclose(fam.filter_matrix, 0.5)

    def test_full_projection_inverts_the_operator(self, op_p1_d4_n16, rng):
        fam = projection_of(op_p1_d4_n16, dims=[4])
        x = rng.standard_normal(4)
        R = op_p1_d4_n16.regularizer(fam.filter_matrix[0])
        assert np.allclose(R @ op_p1_d4_n16.forward(x), x, atol=1e-10)

    def test_dense_matrix_oracle(self, op_p1_d4_n16):
        # n=16, d=4, alpha=0.25: matrix, trace and radius against the dense route
        fam = tikhonov(op_p1_d4_n16, 0.25)
        dense = dense_resolvent_matrix(op_p1_d4_n16, 0.25)
        assert np.allclose(op_p1_d4_n16.regularizer(fam.filter_matrix[0]), dense,
                           atol=1e-12)
        f = op_p1_d4_n16.singular_values / (op_p1_d4_n16.singular_values ** 2 + 0.25)
        tr, rad = fam.trace_stats[0], fam.radius_stats[0]
        assert tr == pytest.approx(np.sum(f ** 2) / 16, abs=1e-14)
        assert tr == pytest.approx(np.sum(dense * dense), abs=1e-14)
        assert rad == pytest.approx(np.max(np.linalg.eigvalsh(dense @ dense.T)),
                                    abs=1e-14)

    def test_parameter_errors(self, op_p1_d4_n16):
        with pytest.raises(ParameterError):
            tikhonov(op_p1_d4_n16, 0.0)
        with pytest.raises(ParameterError):
            tikhonov(op_p1_d4_n16, -1.0)
        with pytest.raises(ParameterError):
            projection_of(op_p1_d4_n16, dims=[])
        with pytest.raises(ParameterError):
            projection_of(op_p1_d4_n16, dims=[9])
        with pytest.raises(ParameterError, match="identically zero"):
            tikhonov(op_p1_d4_n16, 1e300)


    def test_count_below_one_is_named(self, op_p1_d4_n16):
        with pytest.raises(ParameterError, match="count >= 1"):
            tikhonov_of(op_p1_d4_n16, count=0)


class TestTraceRadius:
    def test_orthonormal_rows_scaled(self, identity_op_d4_n16):
        # full projection on the identity operator: R has orthonormal rows / sqrt(n)
        fam = projection_of(identity_op_d4_n16, dims=[4])
        tr, rad = fam.trace_stats[0], fam.radius_stats[0]
        assert tr == pytest.approx(4 / 16)
        assert rad == pytest.approx(1 / 16)

    def test_identity_alpha_one_values(self, identity_op_d4_n16):
        fam = tikhonov(identity_op_d4_n16, 1.0)
        tr, rad = fam.trace_stats[0], fam.radius_stats[0]
        assert tr == pytest.approx(1 / 16, abs=1e-15)
        assert rad == pytest.approx(1 / 64, abs=1e-15)

    def test_rows_equal_the_per_candidate_sums(self):
        # the batched statistics keep the bytes of the one-row reductions
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(4096), 64)
        for fam in (tikhonov_of(op), projection_of(op)):
            for k, f in enumerate(fam.filter_matrix):
                assert fam.trace_stats[k] == float(np.sum(f ** 2)) / op.n
                assert fam.radius_stats[k] == float(np.max(f ** 2)) / op.n

    def test_trace_ratio_scaling_slope(self):
        # ratio grows like alpha^(-1/(2p)); fit inside the scaling window
        p, d, n = 1.0, 128, 256
        op = discretize_operator(SpectralSynthetic(p=p), midpoint_grid(n), d)
        fam = tikhonov_of(op, alpha_max=2.0 ** (-2 * p), ratio=0.5,
                              count=int(2 * p * 4) + 1)   # peaks from j=2 to j=32
        ratios = fam.trace_stats / fam.radius_stats
        slope = np.polyfit(np.log(1.0 / np.array(fam.parameters)),
                           np.log(ratios), 1)[0]
        assert slope == pytest.approx(1.0 / (2 * p), abs=0.1)


class TestApplyRegularizer:
    def test_zero_in_zero_out(self, op_p1_d4_n16):
        fam = tikhonov(op_p1_d4_n16, 0.5)
        R = op_p1_d4_n16.regularizer(fam.filter_matrix[0])
        assert np.allclose(R @ np.zeros(16), 0.0)

    def test_noiseless_recovery_on_support(self, op_p1_d4_n16):
        x0 = np.array([1.5, -2.0, 0.0, 0.0])
        fam = projection_of(op_p1_d4_n16, dims=[2])
        y = op_p1_d4_n16.forward(x0)
        R = op_p1_d4_n16.regularizer(fam.filter_matrix[0])
        assert np.allclose(R @ y, x0, atol=1e-10)

    def test_matches_penalized_least_squares_oracle(self, op_p1_d4_n16, rng):
        # minimizer of ||proj(y - Tx)||_n^2 + alpha ||x||^2 by dense normal
        # equations
        alpha = 0.5
        op = op_p1_d4_n16
        y = rng.standard_normal(16)
        fam = tikhonov(op, alpha)
        S = op.sample_matrix
        G = op.singular_design
        P = G.T @ np.linalg.solve(G @ G.T, G)
        lhs = S.T @ P @ S / op.n + alpha * np.eye(op.d)
        rhs = S.T @ P @ y / op.n
        oracle = np.linalg.solve(lhs, rhs)
        assert np.allclose(op.regularizer(fam.filter_matrix[0]) @ y, oracle, atol=1e-10)


class TestRegularizedTruth:
    def test_projection_fixes_its_range(self, op_p1_d4_n16):
        x0 = np.array([0.3, -0.7, 0.0, 0.0])
        fam = projection_of(op_p1_d4_n16, dims=[2])
        assert np.allclose(regularized_truth(op_p1_d4_n16, fam, 0, x0), x0, atol=1e-12)

    def test_heavy_smoothing_kills_coefficients(self, op_p1_d4_n16):
        x0 = np.ones(4)
        small = regularized_truth(op_p1_d4_n16, tikhonov(op_p1_d4_n16, 1e8), 0, x0)
        assert np.all(np.abs(small) < 1e-7)

    def test_componentwise_shrinkage_factors(self, op_p1_d4_n16, rng):
        alpha = 0.25
        x0 = rng.standard_normal(4)
        fam = tikhonov(op_p1_d4_n16, alpha)
        lam = op_p1_d4_n16.singular_values
        expected = lam ** 2 / (lam ** 2 + alpha) * x0
        got = regularized_truth(op_p1_d4_n16, fam, 0, x0)
        assert np.allclose(got, expected, atol=1e-12)
        # dense product route
        dense = dense_resolvent_matrix(op_p1_d4_n16, alpha) @ (op_p1_d4_n16.sample_matrix @ x0)
        assert np.allclose(got, dense, atol=1e-12)


class TestNested:
    """``nested`` holds exactly for the projection ladder over dims 1..K."""

    @pytest.mark.parametrize("dims,nested", [(None, True), ([1, 2, 3], True),
                                             ([1, 3], False), ([2, 3], False)])
    def test_projection_dims(self, op_p1_d4_n16, dims, nested):
        assert projection_of(op_p1_d4_n16, dims).nested is nested

    # {"count": 1} and {"alpha_max": 4.0, "count": 2} end their alphas at K
    @pytest.mark.parametrize("kwargs", [{}, {"count": 1}, {"alpha_max": 4.0, "count": 2},
                                        {"ratio": 0.9}])
    def test_tikhonov_never(self, op_p1_d4_n16, kwargs):
        assert tikhonov_of(op_p1_d4_n16, **kwargs).nested is False


class TestInvariants:
    def test_spectral_representation_and_bias(self, op_p1_d4_n16, rng):
        lam = op_p1_d4_n16.singular_values
        x0 = rng.standard_normal(4)
        for fam, a in [(tikhonov(op_p1_d4_n16, 0.3), np.full(4, np.sqrt(0.3))),
                       (projection_of(op_p1_d4_n16, dims=[2]),
                        np.array([0.0, 0.0, np.inf, np.inf]))]:
            with np.errstate(invalid="ignore"):
                factor = np.where(np.isinf(a), 0.0, lam ** 2 / (lam ** 2 + a ** 2))
            got = regularized_truth(op_p1_d4_n16, fam, 0, x0)
            assert np.allclose(got, factor * x0, atol=1e-10)
            bias = np.sum((got - x0) ** 2)
            expected_bias = np.sum(((1 - factor) * x0) ** 2)
            assert bias == pytest.approx(expected_bias, abs=1e-12)

    def test_tikhonov_monotonicity_in_alpha(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16, alpha_max=1.0, ratio=0.5)
        # parameters decrease, so stats must increase along the family
        assert np.all(np.diff(fam.trace_stats) > 0)
        assert np.all(np.diff(fam.radius_stats) >= 0)
        assert np.all(np.diff(fam.filter_matrix, axis=0) >= -1e-15)

    def test_radius_trace_ordering(self, op_p1_d4_n16, rng):
        # alpha = 2.0 down to the grid cutoff d^(-2p) = 1/16 (0.01 lies below it)
        for fam in (tikhonov_of(op_p1_d4_n16, alpha_max=2.0),
                    projection_of(op_p1_d4_n16)):
            tr, rad = fam.trace_stats, fam.radius_stats
            assert np.all((rad <= tr) & (tr <= 4 * rad + 1e-15))

    def test_projection_nesting(self, op_p1_d4_n16):
        fam = projection_of(op_p1_d4_n16)
        assert np.all(np.diff(fam.trace_stats) > 0)

    def test_scale_contract_across_n(self):
        # n * radius and trace/radius do not depend on n at fixed spec
        stats = {}
        for n in (16, 64):
            op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(n), 4)
            fam = tikhonov(op, 0.25)
            tr, rad = fam.trace_stats[0], fam.radius_stats[0]
            stats[n] = (n * rad, tr / rad)
        assert stats[16][0] == pytest.approx(stats[64][0], rel=1e-12)
        assert stats[16][1] == pytest.approx(stats[64][1], rel=1e-12)

    def test_family_grid_condition(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        assert min(fam.parameters) >= op_p1_d4_n16.d ** (-2.0 * op_p1_d4_n16.p)
