import math
import tracemalloc

import numpy as np
import pytest

from invreg import (
    DegenerateDesignError,
    DesignGrid,
    DimensionError,
    ParameterError,
    RankError,
    SpectralSynthetic,
    build_design_matrix,
    choose_m0,
    cosine_design,
    diagnostics,
    discretize_operator,
    empirical_norm,
    empirical_projection,
    midpoint_grid,
)
from invreg.operator import QR_BLOCK_ROWS, _certify_rank, _design_r_factor


class TestEmpiricalNorm:
    def test_zero_vector(self):
        grid = midpoint_grid(5)
        assert empirical_norm(np.zeros(5), grid) == 0.0

    def test_constant_vector(self):
        grid = midpoint_grid(7)
        assert empirical_norm(np.full(7, -3.2), grid) == pytest.approx(3.2)

    def test_direct_arithmetic(self):
        # (1 + 4 + 4)/3 = 3
        grid = midpoint_grid(3)
        assert empirical_norm([1.0, 2.0, 2.0], grid) == pytest.approx(math.sqrt(3))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            empirical_norm(np.ones(4), midpoint_grid(5))


class TestDesignMatrix:
    def test_cosine_midpoint_gram_is_n_times_identity(self):
        # brute-force Gram at n=8, d=4
        n, d = 8, 4
        grid = midpoint_grid(n)
        G = build_design_matrix(grid, d)
        gram = np.zeros((d, d))
        for j in range(d):
            for k in range(d):
                for t in grid.points:
                    fj = 1.0 if j == 0 else math.sqrt(2) * math.cos(j * math.pi * t)
                    fk = 1.0 if k == 0 else math.sqrt(2) * math.cos(k * math.pi * t)
                    gram[j, k] += fj * fk
        assert np.allclose(G @ G.T, gram, atol=1e-12)
        assert np.allclose(gram, n * np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("n", [256, 65536])
    def test_extended_cosine_design_is_orthonormal(self, n):
        # The risk study draws singular coefficients instead of samples.  That
        # is exact only if G G^t = n I over the truth's whole range, tail rows
        # included: then the clean samples project to lambda x0 and the noise
        # to N(0, sigma^2/n I).  d = 164 is the largest truth range of
        # rates.ini and of its n = 65536 scale-up.
        G = build_design_matrix(midpoint_grid(n), 164)
        assert np.max(np.abs(G @ G.T / n - np.eye(164))) <= 1e-12

    def test_dimension_error_when_d_exceeds_n(self):
        with pytest.raises(DimensionError):
            build_design_matrix(midpoint_grid(4), 5)

    def test_degenerate_design(self):
        # four points in two pairs 1e-15 apart: three cosines see two abscissae
        grid = DesignGrid(np.array([0.25, 0.25 + 1e-15, 0.75, 0.75 + 1e-15]))
        with pytest.raises(DegenerateDesignError):
            build_design_matrix(grid, 3)


def _conditioned_table(n, d, cond, rng):
    """d x n sample table with singular values spaced from 1 down to 1/cond."""
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return (U * np.geomspace(1.0, 1.0 / cond, d)) @ V.T


class TestRankCertificate:
    @pytest.mark.parametrize("n,d", [(QR_BLOCK_ROWS // 2, 7), (QR_BLOCK_ROWS, 7),
                                     (2 * QR_BLOCK_ROWS + 5, 7), (40, 40)])
    def test_blocked_singular_values_match_full_svd(self, n, d):
        G = build_design_matrix(midpoint_grid(n), d)
        full = np.linalg.svd(G, compute_uv=False)
        blocked = np.linalg.svd(_design_r_factor(G), compute_uv=False)
        assert np.max(np.abs(blocked - full)) <= 1e-13 * full[0]

    def test_ill_conditioned_table_over_several_blocks_passes(self, rng):
        n = 2 * QR_BLOCK_ROWS + 5
        table = _conditioned_table(n, 6, 1e10, rng)
        G = _certify_rank(table)
        assert np.array_equal(G, table)

    def test_duplicated_row_over_several_blocks_is_degenerate(self, rng):
        n = 2 * QR_BLOCK_ROWS + 5
        table = _conditioned_table(n, 6, 1e10, rng)
        table[5] = table[2]
        with pytest.raises(DegenerateDesignError):
            _certify_rank(table)

    def test_peak_memory_stays_near_the_design_itself(self):
        grid = midpoint_grid(32768)
        tracemalloc.start()
        try:
            G = build_design_matrix(grid, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * G.nbytes


class TestEmpiricalProjection:
    def test_idempotent_on_model_space(self, rng):
        grid = midpoint_grid(12)
        G = build_design_matrix(grid, 4)
        c = rng.standard_normal(4)
        y = G.T @ c
        assert np.allclose(empirical_projection(y, G), c, atol=1e-10)

    def test_orthogonal_input_maps_to_zero(self):
        grid = midpoint_grid(12)
        G = build_design_matrix(grid, 3)
        y = cosine_design(grid, 5)[4]  # exactly orthogonal on this design
        assert np.allclose(empirical_projection(y, G), 0.0, atol=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        # independent least-squares route: solve G G^t c = G y
        pts = np.sort(rng.uniform(0, 1, 4))
        grid = DesignGrid(pts)
        G = build_design_matrix(grid, 2)
        y = rng.standard_normal(4)
        oracle = np.linalg.solve(G @ G.T, G @ y)
        assert np.allclose(empirical_projection(y, G), oracle, atol=1e-10)

    def test_pythagoras_in_empirical_norm(self, rng):
        grid = midpoint_grid(20)
        for d in (1, 3, 7):
            G = build_design_matrix(grid, d)
            y = rng.standard_normal(20)
            proj = G.T @ empirical_projection(y, G)
            total = empirical_norm(y, grid) ** 2
            inside = empirical_norm(proj, grid) ** 2
            outside = empirical_norm(y - proj, grid) ** 2
            assert total == pytest.approx(inside + outside, abs=1e-12)


class TestDiscretizeOperator:
    def test_identity_spec_all_singular_values_one(self, identity_op_d4_n16):
        assert np.allclose(identity_op_d4_n16.singular_values, 1.0)

    def test_synthetic_spectrum_by_construction(self, op_p1_d4_n16):
        assert np.allclose(op_p1_d4_n16.singular_values,
                           [1.0, 0.5, 1.0 / 3.0, 0.25])

    def test_sample_matrix_svd_against_eigen_oracle(self, rng):
        # arbitrary 6x3 sample matrix: eigenvalues of the projected
        # composition computed densely
        n, d = 6, 3
        grid = midpoint_grid(n)
        S = rng.standard_normal((n, d))
        op = discretize_operator(S, grid, d, p=1.0)
        G = build_design_matrix(grid, d)
        P = G.T @ np.linalg.solve(G @ G.T, G)
        composed = S.T @ P @ S / n
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(composed))[::-1])
        assert np.allclose(op.singular_values, oracle, atol=1e-10)

    def test_rank_error_on_zero_singular_value(self):
        grid = midpoint_grid(6)
        S = np.ones((6, 2))  # duplicated image, rank 1
        with pytest.raises(RankError):
            discretize_operator(S, grid, 2, p=1.0)

    def test_forward_matches_projected_samples(self, rng):
        n, d = 10, 3
        grid = midpoint_grid(n)
        S = rng.standard_normal((n, d))
        op = discretize_operator(S, grid, d, p=1.0)
        G = build_design_matrix(grid, d)
        P = G.T @ np.linalg.solve(G @ G.T, G)
        for _ in range(5):
            x = rng.standard_normal(d)
            ref = P @ S @ x
            got = op.forward(x)
            assert np.linalg.norm(got - ref) <= 1e-8 * max(np.linalg.norm(ref), 1.0)

    def test_adjoint_forward_composition_is_diagonal(self, rng):
        n, d = 12, 4
        grid = midpoint_grid(n)
        S = rng.standard_normal((n, d))
        op = discretize_operator(S, grid, d, p=1.0)
        comp = np.column_stack([op.adjoint(op.forward(e)) for e in np.eye(d)])
        expected = op.x_vectors @ np.diag(op.singular_values ** 2) @ op.x_vectors.T
        assert np.allclose(comp, expected, atol=1e-10)

    def test_spectrum_underflowing_to_zero_is_rejected(self):
        # 2^(-1100) is below the smallest subnormal
        assert SpectralSynthetic(p=600.0).values(2)[1] > 0
        with pytest.raises(ParameterError, match="underflows"):
            SpectralSynthetic(p=1100.0).values(2)


class TestChooseM0:
    def test_minimal(self):
        assert choose_m0(1, 2.7) == 1

    def test_cube_root(self):
        assert choose_m0(1000, 1.0) == 10

    def test_square_root(self):
        assert choose_m0(4096, 0.5) == 64

    def test_clamped_at_n(self):
        assert choose_m0(2, 0.01) <= 2

    def test_invalid(self):
        with pytest.raises(ParameterError):
            choose_m0(10, 0.0)


class TestDiagnostics:
    def test_identity_operator_ratio_one(self, identity_op_d4_n16):
        diag = diagnostics(identity_op_d4_n16, [1, 2, 3])
        assert np.allclose(diag.gamma_upper, 1.0, atol=1e-10)
        assert np.allclose(diag.gamma_lower, 1.0, atol=1e-10)
        assert diag.ratio_bound == pytest.approx(1.0, abs=1e-10)

    def test_synthetic_decay_within_fitted_band(self, op_p1_d4_n16):
        diag = diagnostics(op_p1_d4_n16, [1, 2, 3, 4])
        k1, k2 = diag.sv_constants
        assert k1 == pytest.approx(1.0, abs=1e-10)
        assert k2 == pytest.approx(1.0, abs=1e-10)
        for m, g in zip(diag.dims, diag.gamma_lower):
            assert k1 / m - 1e-10 <= g <= k2 / m + 1e-10

    def test_nu_dominates_gamma(self, rng):
        n, d = 14, 5
        grid = midpoint_grid(n)
        S = rng.standard_normal((n, d)) * 0.7
        op = discretize_operator(S, grid, d, p=1.0)
        diag = diagnostics(op, range(1, d + 1))
        assert np.all(diag.nu >= diag.gamma_lower - 1e-12)

    def test_orderings_on_nested_models(self, op_p1_d4_n16):
        diag = diagnostics(op_p1_d4_n16, [1, 2, 3, 4])
        # gamma_upper non-increasing, and gamma_{m+1} <= gamma^{(m)}
        assert np.all(np.diff(diag.gamma_upper) <= 1e-12)
        assert np.all(diag.gamma_lower[1:] <= diag.gamma_upper[:-1] + 1e-12)

    def test_flags_ok_on_clean_problem(self, op_p1_d4_n16):
        diag = diagnostics(op_p1_d4_n16, [1, 2, 3, 4])
        assert diag.sv_ok and diag.sf_ok and diag.as_ok

    def test_report_is_key_value_text(self, op_p1_d4_n16):
        text = diagnostics(op_p1_d4_n16, [1, 2]).to_report()
        assert "sv_k1 = " in text and "ratio_bound = " in text
