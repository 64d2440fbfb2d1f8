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
    SampledProjection,
    SpectralSynthetic,
    build_design_matrix,
    choose_m0,
    cosine_design,
    discretize_operator,
    empirical_norm,
    empirical_projection,
    midpoint_grid,
)
from invreg.operator import _certify_rank, _sampled_blocks, diagnostics


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
    def test_ill_conditioned_table_passes(self, rng):
        # condition number 1e10 stays clear of the 1/RANK_RTOL cliff
        table = _conditioned_table(16389, 6, 1e10, rng)
        _certify_rank(np.linalg.qr(table.T, mode="r"))

    def test_duplicated_row_is_degenerate(self, rng):
        table = _conditioned_table(16389, 6, 1e10, rng)
        table[5] = table[2]
        with pytest.raises(DegenerateDesignError):
            _certify_rank(np.linalg.qr(table.T, mode="r"))


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

    def test_synthetic_spec_needs_an_orthonormal_design(self):
        grid = DesignGrid(np.linspace(0.0, 1.0, 16))
        with pytest.raises(ParameterError, match="G G\\^t = n I"):
            discretize_operator(SpectralSynthetic(p=1.0), grid, 4)

    def test_synthetic_spec_takes_no_second_index(self):
        with pytest.raises(ParameterError, match="own index"):
            discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(16), 4, p=2.0)

    def test_design_is_factored_once_for_samples_and_never_for_synthetic(
            self, rng, monkeypatch):
        factored = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            factored.append(np.array(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(45), 6)
        assert factored == []
        grid = midpoint_grid(45)
        discretize_operator(rng.standard_normal((45, 6)), grid, 6)
        # steps of isqrt(45 * 6) = 16 points: blocks of 22 and 23 grid points,
        # each as the rows [G_b^t | 0 | S_b] (the zero column stands for the
        # data, which discretize_operator has none of), then the 13 x 13 R
        # factors of both blocks, stacked
        assert [a.shape for a in factored] == [(22, 13), (23, 13), (26, 13)]
        assert np.array_equal(np.vstack([a[:, :6] for a in factored[:2]]),
                              cosine_design(grid, 6).T)

    def test_spectrum_underflowing_to_zero_is_rejected(self):
        # 2^(-1100) is below the smallest subnormal
        assert SpectralSynthetic(p=600.0).values(2)[1] > 0
        with pytest.raises(ParameterError, match="underflows"):
            SpectralSynthetic(p=1100.0).values(2)


def _clustered_grid(rng):
    """3000 points, all but 40 of them crowded into [0, 0.25]."""
    return DesignGrid(np.sort(np.concatenate([rng.uniform(0.0, 0.25, 2960),
                                              np.linspace(0.3, 1.0, 40)])))


class TestBlockedDiscretization:
    """The blocked QR of G^t is as accurate as one whole-matrix QR, also on
    certified designs that are ill-conditioned (a basis G^t R^-1 from
    triangular solves would not be)."""

    @pytest.mark.parametrize("case,d,blocks,min_cond", [
        ("clustered", 60, 7, 1e4),
        ("sorted uniform", 90, 1, 1e6),
    ])
    def test_matches_a_whole_matrix_qr(self, case, d, blocks, min_cond):
        rng = np.random.default_rng(7)
        grid = (_clustered_grid(rng) if case == "clustered"
                else DesignGrid(np.sort(rng.uniform(0.0, 1.0, 100))))
        n = grid.n
        S = rng.standard_normal((n, d))
        assert len(_sampled_blocks(n, d)) == blocks
        Q, R = np.linalg.qr(cosine_design(grid, d).T)
        sv = np.linalg.svd(R, compute_uv=False)
        cond = sv[0] / sv[-1]
        assert cond >= min_cond
        ref = np.linalg.svd(Q.T @ S / math.sqrt(n), compute_uv=False)

        op = discretize_operator(S, grid, d)
        Psi = op.singular_design
        assert np.max(np.abs(Psi @ Psi.T / n - np.eye(d))) <= 1e-13
        rel = np.abs(op.singular_values - ref) / ref
        assert np.max(rel) <= 10 * np.finfo(float).eps * cond


def _folded(S, grid, y=None):
    """The SampledProjection of the samples S, folded a row slice at a time."""
    return SampledProjection(grid, S.shape[1], _row_slices(S, grid), 1.0, y)


def _row_slices(S, grid):
    """The samples S, one row block of ``_sampled_blocks`` at a time."""
    return [S[rows] for rows in _sampled_blocks(grid.n, S.shape[1])]


class TestSampledProjection:
    """The streamed pass against the in-memory operator that
    discretize_operator forms from the same row blocks, on a random grid of
    15 blocks."""

    N, D = 3000, 12

    def _samples(self, rng, kind):
        grid = DesignGrid(np.sort(rng.uniform(0.0, 1.0, self.N)))
        if kind == "random":
            return grid, rng.standard_normal((self.N, self.D))
        # inside the span of the design: the residual at m = d is rounding
        lam = np.arange(1, self.D + 1) ** -1.0
        return grid, cosine_design(grid, self.D).T * lam

    @pytest.mark.parametrize("kind", ["random", "in span"])
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -500])
    def test_diagnostics_match_the_in_memory_grams(self, rng, kind, scale):
        # the squared residuals of 2^600 S would overflow, of 2^-500 S underflow
        grid, S = self._samples(rng, kind)
        S *= scale
        assert len(_sampled_blocks(self.N, self.D)) == 15
        dims = range(1, self.D + 1)
        ref = diagnostics(discretize_operator(S, grid, self.D), dims)
        got = _folded(S, grid).diagnostics(dims)
        assert np.allclose(got.gamma_upper[:-1] / scale, ref.gamma_upper[:-1] / scale,
                           rtol=1e-13, atol=0.0)
        assert abs(got.gamma_upper[-1] - ref.gamma_upper[-1]) / scale <= 1e-12
        assert np.array_equal(got.gamma_lower, ref.gamma_lower)
        assert got.sv_constants == ref.sv_constants
        assert np.allclose(got.sf_constants, ref.sf_constants, rtol=1e-13, atol=0.0)
        assert (got.sv_ok, got.sf_ok, got.as_ok) == (ref.sv_ok, ref.sf_ok, ref.as_ok)

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -500])
    def test_coefficients_match_svd_coefficients(self, rng, scale):
        # the running R carries Q^t y beside Q^t S of 2^600 S or 2^-500 S
        grid, S = self._samples(rng, "random")
        S *= scale
        y = rng.standard_normal(self.N)
        op = discretize_operator(S, grid, self.D)
        proj = _folded(S, grid, y=y)
        assert np.array_equal(proj.singular_values, op.singular_values)
        assert np.array_equal(proj.x_vectors, op.x_vectors)
        ref = op.svd_coefficients(y)
        # relative to the largest coefficient: a small one carries its rounding
        assert np.max(np.abs(proj.coefficients - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("edit,message", [
        (lambda blocks: blocks[:-1], "fewer than 15 row blocks"),
        (lambda blocks: blocks + blocks[-1:], "more than 15 row blocks"),
        (lambda blocks: [b[:, :-1] if k == 3 else b for k, b in enumerate(blocks)],
         r"row block 3 of the samples must be \d+ x 12, got \(\d+, 11\)"),
    ], ids=["too few", "one too many", "misshaped"])
    def test_blocks_must_match_the_grid(self, rng, edit, message):
        grid, S = self._samples(rng, "random")
        with pytest.raises(DimensionError, match=message):
            SampledProjection(grid, self.D, edit(_row_slices(S, grid)))

    def test_diagnostics_refuse_a_pass_with_data(self, rng):
        grid, S = self._samples(rng, "random")
        with pytest.raises(ParameterError, match="folds no data"):
            _folded(S, grid, y=rng.standard_normal(self.N)).diagnostics([1])

    def _folded_at(self, rng, n):
        grid = DesignGrid(np.sort(rng.uniform(0.0, 1.0, n)))
        return _folded(rng.standard_normal((n, self.D)), grid)

    def test_state_does_not_grow_with_the_grid(self, rng):
        # 15 and 50 row blocks leave the same arrays behind
        assert [len(_sampled_blocks(n, self.D)) for n in (3000, 30000)] == [15, 50]
        held = [_array_bytes(vars(self._folded_at(rng, n))) for n in (3000, 30000)]
        assert held[0] == held[1]

    def test_diagnostics_form_no_array_of_more_than_2d_plus_1_rows(self, rng):
        # a few arrays of 2d + 1 rows (12 kB at d = 12); one (blocks d) x d
        # array at n = 30000 would be 57.6 kB
        bound = 5 * (2 * self.D + 1) * self.D * 8
        for n in (3000, 30000):
            proj = self._folded_at(rng, n)
            tracemalloc.start()
            try:
                proj.diagnostics(range(1, self.D + 1))
                assert tracemalloc.get_traced_memory()[1] <= bound
            finally:
                tracemalloc.stop()


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays in ``value`` and in the lists, tuples and
    dict values it holds."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    return 0


class TestOperatorMemory:
    """A sampled operator is discretized and diagnosed one row block of
    _sampled_blocks (isqrt(n d) grid points) at a time: the only n x d array
    formed besides S is Psi, and the rest stays within a few row blocks."""

    N, D = 16384, 26
    # bytes of the largest n_b x d row block, 656 x 26 floats here
    BLOCK = max(r.stop - r.start for r in _sampled_blocks(N, D)) * D * 8

    def _traced(self, call):
        tracemalloc.start()
        try:
            result = call()
            return result, *tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_discretize_peaks_below_two_and_a_half_arrays_and_keeps_psi(self, rng):
        S = rng.standard_normal((self.N, self.D))
        grid = midpoint_grid(self.N)
        op, kept, peak = self._traced(lambda: discretize_operator(S, grid, self.D))
        assert op.singular_design.nbytes == S.nbytes
        assert peak <= S.nbytes + 8 * self.BLOCK   # 1.31 arrays
        assert kept <= 1.25 * S.nbytes

    def test_diagnostics_allocate_below_one_array(self, rng):
        S = rng.standard_normal((self.N, self.D))
        op = discretize_operator(S, midpoint_grid(self.N), self.D)
        _, _, peak = self._traced(lambda: diagnostics(op, range(1, self.D + 1)))
        assert peak <= 8 * self.BLOCK   # 0.32 arrays


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

    def test_lower_constants_match_explicit_model_operator(self, rng):
        # random images leave the cosine span, so gamma_upper is nonzero
        n, d = 20, 6
        op = discretize_operator(rng.standard_normal((n, d)), midpoint_grid(n), d, p=1.0)
        diag = diagnostics(op, range(1, d + 1))
        assert np.all(diag.gamma_upper > 1e-3)
        B = op.singular_design.T / math.sqrt(n)
        for m, g, v in zip(diag.dims, diag.gamma_lower, diag.nu):
            Km = B[:, :m].T @ op.sample_matrix / math.sqrt(n)
            assert g == pytest.approx(np.linalg.svd(Km, compute_uv=False)[m - 1],
                                      rel=1e-12)
            assert v == pytest.approx(np.linalg.norm(np.linalg.pinv(Km), 2), rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -500])
    def test_gamma_upper_scales_with_extreme_samples(self, rng, scale):
        # the squared residuals of 2^600 S would overflow, of 2^-500 S underflow
        n, d = 40, 6
        S = rng.standard_normal((n, d))
        dims = range(1, d)
        base = diagnostics(discretize_operator(S, midpoint_grid(n), d), dims)
        scaled = diagnostics(discretize_operator(scale * S, midpoint_grid(n), d), dims)
        assert np.allclose(scaled.gamma_upper / scale, base.gamma_upper,
                           rtol=1e-12, atol=0.0)

    def test_nu_on_a_steep_spectrum(self):
        # lambda_2 / lambda_1 = 2^-60: a pseudo-inverse with a relative cutoff
        # of 1e-15 would drop lambda_2
        op = discretize_operator(SpectralSynthetic(p=60.0), midpoint_grid(64), 2)
        diag = diagnostics(op, [1, 2])
        assert diag.nu.tolist() == [1.0, 2.0 ** 60]
        assert diag.gamma_lower.tolist() == [1.0, 2.0 ** -60]

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
