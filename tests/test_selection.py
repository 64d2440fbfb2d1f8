import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invreg import (
    DimensionError,
    ParameterError,
    PenaltyConfig,
    SpectralSynthetic,
    choose_m0,
    default_weights,
    discretize_operator,
    kraft_sum,
    midpoint_grid,
    objectives,
    penalties,
    projection_family,
    select,
    select_by_threshold,
    select_coefficients,
    threshold_objectives,
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


def contrast(family, k, op, y):
    """Squared distance, after inversion on the maximal model, between the
    data y and the image of candidate k's estimate: the one-candidate
    reference reading that ``objectives`` must equal bit for bit (the
    squared inversion dotted with candidate k's squared filter residual)."""
    lam = op.singular_values
    x = op.svd_coefficients(y) / lam
    a = 1.0 - lam * family.filter_matrix[k]
    return float(np.vecdot(x * x, a * a))


def _stub_stats(request):
    """Trace 2 and radius 1: pen = r sigma^2 (1 + L) 3."""
    return np.array([2.0]), np.array([1.0])


def _identity_tikhonov_stats(request):
    """Tikhonov at alpha = 1 on the identity operator (d = 4, n = 16): every
    filter value is 1/2, so Tr = 4/64 and rho = 1/64."""
    fam = tikhonov(request.getfixturevalue("identity_op_d4_n16"), 1.0)
    return fam.trace_stats, fam.radius_stats


class TestPenalty:
    @pytest.mark.parametrize("stats, cfg, expected", [
        (_stub_stats, PenaltyConfig(sigma2=1.0, r=3.0), 9.0),
        # the (1 + L) factor: L = 1 doubles the penalty
        (_stub_stats, PenaltyConfig(sigma2=1.0, r=3.0, weights=np.array([1.0])), 18.0),
        (_identity_tikhonov_stats, PenaltyConfig(sigma2=1.0, r=2.5), 0.1953125),
        # linear in sigma^2: three times the variance, three times the penalty
        (_identity_tikhonov_stats, PenaltyConfig(sigma2=3.0, r=2.5), 3 * 0.1953125),
    ], ids=["direct_arithmetic", "linear_in_one_plus_weight",
            "identity_operator_value", "homogeneity_in_sigma2"])
    def test_hand_values(self, request, stats, cfg, expected):
        trace, radius = stats(request)
        assert penalties(trace, radius, cfg) == pytest.approx([expected])

    def test_r_must_exceed_two(self):
        with pytest.raises(ParameterError):
            PenaltyConfig(sigma2=1.0, r=2.0)

    @pytest.mark.parametrize("field", ["sigma2", "r", "kraft_d"])
    def test_non_finite_constants_rejected(self, field):
        for bad in (np.inf, np.nan):
            with pytest.raises(ParameterError):
                PenaltyConfig(**{"sigma2": 1.0, field: bad})

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ParameterError):
            PenaltyConfig(sigma2=1.0, weights=np.array([0.5, np.nan]))


class TestContrast:
    def test_noiseless_projection_on_support(self, op_p1_d4_n16):
        x0 = np.array([2.0, -1.0, 0.0, 0.0])
        y = op_p1_d4_n16.forward(x0)
        fam = projection_of(op_p1_d4_n16, dims=[4])
        assert contrast(fam, 0, op_p1_d4_n16, y) == pytest.approx(0.0, abs=1e-20)

    def test_zero_data(self, op_p1_d4_n16):
        fam = tikhonov(op_p1_d4_n16, 0.5)
        assert contrast(fam, 0, op_p1_d4_n16, np.zeros(16)) == 0.0

    def test_dense_composition_oracle(self, op_p1_d4_n16, rng):
        # ||A (y - T xhat)||^2 with every factor evaluated densely
        op = op_p1_d4_n16
        y = rng.standard_normal(16)
        fam = tikhonov(op, 0.5)
        A = op.x_vectors @ np.diag(1.0 / op.singular_values) @ op.singular_design / op.n
        xhat = op.regularizer(fam.filter_matrix[0]) @ y
        oracle = float(np.sum((A @ (y - op.sample_matrix @ xhat)) ** 2))
        assert contrast(fam, 0, op, y) == pytest.approx(oracle, abs=1e-12)


class TestSelect:
    def test_single_candidate(self, op_p1_d4_n16, rng):
        fam = tikhonov_of(op_p1_d4_n16, alpha_max=1.0, count=1)
        res = select(fam, PenaltyConfig(sigma2=1.0), op_p1_d4_n16,
                     rng.standard_normal(16))
        assert res.chosen == 0
        assert len(res.per_candidate) == 1

    def test_argmin_invariant_under_constant_penalty_shift(self, op_p1_d4_n16, rng):
        fam = tikhonov_of(op_p1_d4_n16)
        res = select(fam, PenaltyConfig(sigma2=1.0), op_p1_d4_n16,
                     rng.standard_normal(16))
        objs = np.array([r.objective for r in res.per_candidate])
        assert int(np.argmin(objs + 17.3)) == res.chosen

    def test_noiseless_nested_projection_picks_the_support(self, op_p1_d4_n16):
        x0 = np.array([3.0, 2.0, 0.0, 0.0])
        y = op_p1_d4_n16.forward(x0)
        fam = projection_of(op_p1_d4_n16)
        cfg = PenaltyConfig(sigma2=1.0, r=2.5)
        res = select(fam, cfg, op_p1_d4_n16, y)
        # exhaustive oracle over the same family
        pens = penalties(fam.trace_stats, fam.radius_stats, cfg)
        objs = [contrast(fam, k, op_p1_d4_n16, y) + pens[k] for k in range(len(fam))]
        assert res.chosen == int(np.argmin(objs)) == 1   # model {1, 2}

    def test_objective_decomposition_and_argmin(self, op_p1_d4_n16, rng):
        fam = tikhonov_of(op_p1_d4_n16)
        cfg = PenaltyConfig(sigma2=0.5)
        for _ in range(20):
            res = select(fam, cfg, op_p1_d4_n16, rng.standard_normal(16))
            chosen = res.chosen_row()
            for row in res.per_candidate:
                assert row.objective == row.contrast + row.penalty
                assert chosen.objective <= row.objective

    def test_tie_breaks_toward_smoother(self, identity_op_d4_n16):
        # zero data: every projection prefix has zero contrast difference
        # only through the penalty, which increases; but with zero weights and
        # a constant-filter operator the first candidate must win ties
        fam = projection_of(identity_op_d4_n16, dims=[1, 2])
        res = select(fam, PenaltyConfig(sigma2=1.0), identity_op_d4_n16,
                     np.zeros(16))
        assert res.chosen == 0

    def test_family_built_at_another_n_is_rejected(self, op_p1_d4_n16):
        # same four singular values, but the family's statistics are for n = 32
        fam = tikhonov_family(op_p1_d4_n16.singular_values, 32, 1.0)
        with pytest.raises(DimensionError, match="n = 32"):
            select(fam, PenaltyConfig(sigma2=1.0), op_p1_d4_n16, np.zeros(16))

    def test_family_built_on_another_spectrum_is_rejected(self, rng):
        # same n and d, but the Tikhonov filters are those of the p = 3 operator
        grid = midpoint_grid(64)
        op = discretize_operator(SpectralSynthetic(p=1.0), grid, 4)
        other = discretize_operator(SpectralSynthetic(p=3.0), grid, 4)
        fam = tikhonov_family(other.singular_values, 64, 1.0)
        with pytest.raises(DimensionError, match="other singular values"):
            select(fam, PenaltyConfig(sigma2=0.01), op, rng.standard_normal(64))

    def test_coefficients_need_one_per_singular_value(self, op_p1_d4_n16, rng):
        fam = tikhonov_of(op_p1_d4_n16)
        c = op_p1_d4_n16.svd_coefficients(rng.standard_normal(16))
        with pytest.raises(DimensionError, match="3 singular coefficients"):
            select_coefficients(fam, PenaltyConfig(sigma2=0.01), c[:3],
                                op_p1_d4_n16.x_vectors)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _prefix_instance(seed, d, n_factor, scale):
    """Operator, projection prefix bound, data and weighted penalty config."""
    rng = np.random.default_rng(seed)
    n = 4 * d * n_factor
    op = discretize_operator(SpectralSynthetic(p=float(rng.uniform(0.5, 2.0))),
                             midpoint_grid(n), d)
    m = int(rng.integers(1, d + 1))
    x0 = rng.standard_normal(d) * scale
    sigma = float(rng.uniform(0.01, 1.0))
    y = op.forward(x0) + rng.normal(0.0, sigma, n)
    cfg = PenaltyConfig(sigma2=sigma ** 2, r=float(rng.uniform(2.1, 4.0)),
                        weights=np.full(m, float(rng.uniform(0.0, 3.0))))
    return op, m, y, cfg


class TestObjectives:
    def test_equals_per_candidate_reference_readings(self, op_p1_d4_n16, rng):
        op = op_p1_d4_n16
        for fam in (tikhonov_of(op), projection_of(op)):
            cfg = PenaltyConfig(sigma2=0.3,
                                weights=default_weights(fam, PenaltyConfig(sigma2=0.3)))
            ys = rng.standard_normal((5, 16))
            C = np.array([op.svd_coefficients(y) for y in ys])
            pens = penalties(fam.trace_stats, fam.radius_stats, cfg)
            cons, objs = objectives(fam.residual_sq, op.singular_values, C, pens)
            assert objs.shape == (5, len(fam))
            for r, y in enumerate(ys):
                for k in range(len(fam)):
                    assert cons[r, k] == contrast(fam, k, op, y)
                    assert objs[r, k] == contrast(fam, k, op, y) + pens[k]

    def test_rows_match_select(self, op_p1_d4_n16, rng):
        fam = tikhonov_of(op_p1_d4_n16)
        cfg = PenaltyConfig(sigma2=0.5)
        ys = rng.standard_normal((8, 16))
        C = np.array([op_p1_d4_n16.svd_coefficients(y) for y in ys])
        pens = penalties(fam.trace_stats, fam.radius_stats, cfg)
        _, objs = objectives(fam.residual_sq, op_p1_d4_n16.singular_values, C, pens)
        chosen = np.argmin(objs, axis=1)
        for y, k in zip(ys, chosen):
            assert select(fam, cfg, op_p1_d4_n16, y).chosen == k

    def test_non_finite_objective_raises(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        pens = penalties(fam.trace_stats, fam.radius_stats,
                         PenaltyConfig(sigma2=1.0))
        C = np.zeros((2, 4))
        C[1, 2] = np.nan
        with pytest.raises(ParameterError):
            objectives(fam.residual_sq, op_p1_d4_n16.singular_values, C, pens)

    def test_finite_wherever_the_inversion_is(self):
        # singular values near 1e10 and coefficients near 1e160: c^2 overflows,
        # x^2 = (c / lam)^2 does not, and the filter residual is at most 1
        base = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(16), 4)
        op = discretize_operator(base.sample_matrix * 1e10, base.grid, 4)
        assert op.singular_values.min() > 1e9
        ys = [op.forward(np.array([1e150, -3e149, 2e149, 7e148]) * s)
              for s in (1.0, 0.5, -1.7)]
        C = np.array([op.svd_coefficients(y) for y in ys])
        with np.errstate(over="ignore"):
            assert np.isinf(C * C).any()
        for fam in (tikhonov_of(op), projection_of(op)):
            pens = penalties(fam.trace_stats, fam.radius_stats, PenaltyConfig(sigma2=1.0))
            cons, objs = objectives(fam.residual_sq, op.singular_values, C, pens)
            assert np.all(np.isfinite(objs))
            for r, y in enumerate(ys):
                for k in range(len(fam)):
                    assert cons[r, k] == contrast(fam, k, op, y)

    @SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 12),
           n_factor=st.integers(1, 4), scale=st.floats(0.0, 3.0))
    def test_argmin_equals_thresholding_on_prefix_families(self, seed, d, n_factor,
                                                           scale):
        op, m, y, cfg = _prefix_instance(seed, d, n_factor, scale)
        fam = projection_of(op, range(1, m + 1))
        pens = penalties(fam.trace_stats, fam.radius_stats, cfg)
        _, objs = objectives(fam.residual_sq, op.singular_values,
                             op.svd_coefficients(y)[None, :], pens)
        assert int(np.argmin(objs[0])) == select_by_threshold(op, y, cfg, m0=m).chosen

    @SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 12),
           n_factor=st.integers(1, 4), scale=st.floats(0.0, 3.0),
           c=st.floats(1e-3, 1e3))
    def test_choice_invariant_under_data_and_variance_scaling(self, seed, d,
                                                              n_factor, scale, c):
        op, m, y, cfg = _prefix_instance(seed, d, n_factor, scale)
        for fam in (projection_of(op, range(1, m + 1)),
                    tikhonov_of(op, count=m)):
            w = np.full(len(fam), cfg.weights[0])
            base = PenaltyConfig(sigma2=cfg.sigma2, r=cfg.r, weights=w)
            scaled = PenaltyConfig(sigma2=c * c * cfg.sigma2, r=cfg.r, weights=w)
            assert (select(fam, base, op, y).chosen
                    == select(fam, scaled, op, c * y).chosen)

    @SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 12),
           n_factor=st.integers(1, 4), scale=st.floats(0.0, 3.0), data=st.data())
    def test_argmin_follows_a_permutation_of_the_candidates(self, seed, d,
                                                            n_factor, scale, data):
        op, m, y, cfg = _prefix_instance(seed, d, n_factor, scale)
        C = op.svd_coefficients(y)[None, :]
        for fam in (projection_of(op, range(1, m + 1)),
                    tikhonov_of(op, count=m)):
            # the tikhonov grid cutoff may leave fewer than m candidates
            w = np.full(len(fam), cfg.weights[0])
            A2 = fam.residual_sq
            pens = penalties(fam.trace_stats, fam.radius_stats,
                             PenaltyConfig(sigma2=cfg.sigma2, r=cfg.r, weights=w))
            _, objs = objectives(A2, op.singular_values, C, pens)
            best = int(np.argmin(objs[0]))
            assume(np.sum(objs[0] == objs[0, best]) == 1)
            perm = np.array(data.draw(st.permutations(range(len(fam)))))
            _, permuted = objectives(A2[perm], op.singular_values, C, pens[perm])
            assert perm[int(np.argmin(permuted[0]))] == best


class TestThresholdObjectives:
    @pytest.mark.parametrize("m0", [20, 13, 1])
    def test_rows_equal_select_by_threshold(self, rng, m0):
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(80), 20)
        cfg = PenaltyConfig(sigma2=0.04, weights=np.full(m0, 0.7))
        ys = np.array([op.forward(rng.standard_normal(20) * rng.uniform(0, 2))
                       + rng.normal(0, 0.2, 80) for _ in range(30)])
        C = np.array([op.svd_coefficients(y) for y in ys])[:, :m0]
        fam = projection_of(op, range(1, m0 + 1))
        _, objs = threshold_objectives(op.singular_values[:m0], C,
                                       penalties(fam.trace_stats, fam.radius_stats, cfg))
        assert objs.shape == (30, m0)
        chosen = set()
        for y, row in zip(ys, objs):
            res = select_by_threshold(op, y, cfg, m0=m0)
            assert int(np.argmin(row)) == res.chosen
            assert row.tolist() == [c.objective for c in res.per_candidate]
            chosen.add(res.chosen)
        assert m0 == 1 or len(chosen) > 1     # the data move the choice


class TestKraftSum:
    def test_exponential_kill_and_monotonicity(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        values = []
        for L in (0.0, 1.0, 10.0, 100.0, 1e4):
            cfg = PenaltyConfig(sigma2=1.0, weights=np.full(len(fam), L))
            values.append(kraft_sum(fam, cfg))
        assert np.all(np.diff(values) < 0)
        assert values[-1] < 1e-12

    def test_single_candidate_direct_arithmetic(self, identity_op_d4_n16):
        # full-model projection on the identity operator: Tr/rho^2 = 4,
        # n rho^2 = 1, so the L=0 term is 2 (sqrt(4) + 1) = 6
        fam = projection_of(identity_op_d4_n16, dims=[4])
        assert kraft_sum(fam, PenaltyConfig(sigma2=1.0)) == pytest.approx(6.0)

    def test_decreasing_in_kraft_constant(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        w = np.full(len(fam), 1.0)
        vals = [kraft_sum(fam, PenaltyConfig(sigma2=1.0, weights=w, kraft_d=dd))
                for dd in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(vals) < 0)

    def test_strictly_decreasing_in_each_weight(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        base_w = np.full(len(fam), 1.0)
        base = kraft_sum(fam, PenaltyConfig(sigma2=1.0, weights=base_w))
        for k in range(len(fam)):
            bumped = base_w.copy()
            bumped[k] += 0.5
            assert kraft_sum(fam, PenaltyConfig(sigma2=1.0, weights=bumped)) < base

    def test_default_family_with_default_weights_meets_target(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        cfg = PenaltyConfig(sigma2=1.0)
        w = default_weights(fam, cfg, target=1.0)
        assert kraft_sum(fam, PenaltyConfig(sigma2=1.0, weights=w)) <= 1.0


def _kraft_terms(trace: np.ndarray, radius: np.ndarray, n: int, d_const: float,
                 weights: np.ndarray) -> np.ndarray:
    ratio = trace / radius
    return (2.0 * (np.sqrt(d_const * ratio) + 1.0)
            * (n * radius / d_const)
            * np.exp(-np.sqrt(d_const * weights * (ratio + 1.0))))


def bisection_weights(family, cfg, target=1.0, cap=1e6):
    """Reference: the scalar bisection that ``default_weights`` replaced,
    kept verbatim.  Its answer is the smallest float meeting the target."""
    if not target > 0:
        raise ParameterError("kraft target must be positive")
    n = family.n

    def total(L: float) -> float:
        return float(np.sum(_kraft_terms(family.trace_stats, family.radius_stats, n,
                                         cfg.kraft_d, np.full(len(family), L))))

    if total(0.0) <= target:
        return np.zeros(len(family))
    if total(cap) > target:
        raise ParameterError(
            f"kraft target {target!r} unreachable for the {family.kind} family at "
            f"n = {n}: weights at the cap {cap!r} leave a kraft sum of {total(cap)!r}")
    lo, hi = 0.0, 1.0
    while total(hi) > target and hi < cap:
        hi = min(2.0 * hi, cap)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if total(mid) > target else (lo, mid)
        mid = 0.5 * (lo + hi)
    return np.full(len(family), hi)


def _outcome(weights, family, cfg, **kwargs):
    """The weight vector's bytes, or the message of the ParameterError raised."""
    try:
        return weights(family, cfg, **kwargs).tobytes()
    except ParameterError as exc:
        return str(exc)


class TestDefaultWeights:
    def test_zero_when_target_already_met(self, identity_op_d4_n16):
        fam = tikhonov_of(identity_op_d4_n16, alpha_max=2.0, count=1)
        w = default_weights(fam, PenaltyConfig(sigma2=1.0), target=1.0)
        assert np.all(w == 0.0)

    def test_larger_family_never_needs_less(self):
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(32), 8)
        cfg = PenaltyConfig(sigma2=1.0)
        small = default_weights(tikhonov_of(op, count=4), cfg)
        large = default_weights(tikhonov_of(op, count=7), cfg)
        assert large[0] >= small[0]

    def test_bisection_post_check_eight_candidates(self):
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(256), 16)
        fam = tikhonov_of(op, count=8)
        assert len(fam) == 8
        cfg = PenaltyConfig(sigma2=1.0)
        w = default_weights(fam, cfg, target=1.0)
        total = kraft_sum(fam, PenaltyConfig(sigma2=1.0, weights=w))
        assert 0.99 <= total <= 1.0

    @pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096, 8192])
    def test_weight_is_the_smallest_float_meeting_the_target(self, n):
        # the rates.ini families: the bisection stops on adjacent floats
        lam = SpectralSynthetic(p=1.0).values(choose_m0(n, 1.0))
        for fam in (tikhonov_family(lam, n, 1.0), projection_family(lam, n)):
            w = default_weights(fam, PenaltyConfig(sigma2=0.01), target=1.0)[0]
            below = np.nextafter(w, 0.0)
            assert w > 0.0
            assert kraft_sum(fam, PenaltyConfig(
                sigma2=0.01, weights=np.full(len(fam), w))) <= 1.0
            assert kraft_sum(fam, PenaltyConfig(
                sigma2=0.01, weights=np.full(len(fam), below))) > 1.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_equals_the_bisection_bit_for_bit(self, p):
        searched = 0
        for n in (64, 256, 1024, 4096, 16384, 65536):
            lam = SpectralSynthetic(p=p).values(choose_m0(n, p))
            for fam in (tikhonov_family(lam, n, p), projection_family(lam, n)):
                for kraft_d in (0.3, 1.0, 3.0):
                    cfg = PenaltyConfig(sigma2=0.01, kraft_d=kraft_d)
                    for target in (1e-3, 1.0, 100.0):
                        new = default_weights(fam, cfg, target=target)
                        assert new.tobytes() == bisection_weights(fam, cfg, target).tobytes()
                        searched += new[0] > 0.0
        assert searched > 90   # of 108 cases: not the early return of zeros

    @pytest.mark.parametrize("kraft_d,cap,target", [(1.0, 0.5, 1e-6), (1e-300, 1e6, 1.0)])
    def test_raises_as_the_bisection(self, kraft_d, cap, target):
        # a cap below the crossing, and the kraft_d of the "rates kraft_d" CLI case
        for n in (64, 512):
            lam = SpectralSynthetic(p=1.0).values(choose_m0(n, 1.0))
            for fam in (tikhonov_family(lam, n, 1.0), projection_family(lam, n)):
                cfg = PenaltyConfig(sigma2=1.0, kraft_d=kraft_d)
                message = _outcome(bisection_weights, fam, cfg, target=target, cap=cap)
                assert message.startswith(f"kraft target {target!r} unreachable")
                assert _outcome(default_weights, fam, cfg, target=target, cap=cap) == message

    def test_unreachable_target_raises(self, op_p1_d4_n16):
        fam = tikhonov_of(op_p1_d4_n16)
        with pytest.raises(ParameterError, match="tikhonov family at n = 16"):
            default_weights(fam, PenaltyConfig(sigma2=1.0), target=1e-6, cap=0.5)


class TestSelectByThreshold:
    def test_zero_data_minimal_model(self, op_p1_d4_n16):
        res = select_by_threshold(op_p1_d4_n16, np.zeros(16),
                                  PenaltyConfig(sigma2=1.0))
        assert res.chosen == 0

    def test_single_dominant_coefficient(self, op_p1_d4_n16):
        x0 = np.array([50.0, 0.0, 0.0, 0.0])
        y = op_p1_d4_n16.forward(x0)
        res = select_by_threshold(op_p1_d4_n16, y, PenaltyConfig(sigma2=1.0))
        assert res.chosen == 0
        assert np.allclose(res.estimate, x0, atol=1e-10)

    def test_matches_exhaustive_prefix_search(self, rng):
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(64), 10)
        fam = projection_of(op)
        cfg = PenaltyConfig(sigma2=0.04, weights=np.full(10, 0.7))
        for _ in range(100):
            x0 = rng.standard_normal(10) * rng.uniform(0, 2)
            y = op.forward(x0) + rng.normal(0, 0.2, 64)
            a = select(fam, cfg, op, y)
            b = select_by_threshold(op, y, cfg)
            assert a.chosen == b.chosen
            assert np.allclose(a.estimate, b.estimate, atol=1e-12)
            for ra, rb in zip(a.per_candidate, b.per_candidate):
                assert ra.objective == pytest.approx(rb.objective, abs=1e-12)

    def test_dominant_first_coefficient_keeps_the_tail(self, rng):
        # x_1 up to 1e9 times the other inverted coefficients: the dropped
        # energy of a prefix must not lose the tail to cancellation
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(32), 7)
        fam = projection_of(op)
        for _ in range(500):
            x = rng.standard_normal(7)
            x[0] *= 10.0 ** rng.uniform(0, 9)
            y = op.forward(x)
            cfg = PenaltyConfig(sigma2=float(rng.uniform(0.01, 1.0)))
            res = select_by_threshold(op, y, cfg)
            assert res.chosen == select(fam, cfg, op, y).chosen
            sq = (op.svd_coefficients(y) / op.singular_values) ** 2
            for j, row in enumerate(res.per_candidate):
                assert row.contrast == pytest.approx(np.sum(sq[j + 1:]), rel=1e-12)

    def test_reads_the_candidates_select_reads(self, rng):
        # at p = 1/4 a cumulative sum of 1/lambda^2 differs from the family's
        # traces in the last bits; both selectors read the family's
        op = discretize_operator(SpectralSynthetic(p=0.25), midpoint_grid(256), 41)
        fam = projection_of(op)
        cfg = PenaltyConfig(sigma2=0.04,
                            weights=default_weights(fam, PenaltyConfig(sigma2=0.04)))
        y = op.forward(rng.standard_normal(41)) + rng.normal(0, 0.2, 256)
        a = select(fam, cfg, op, y)
        b = select_by_threshold(op, y, cfg)
        assert ([(r.k, r.label, r.parameter, r.penalty) for r in b.per_candidate]
                == [(r.k, r.label, r.parameter, r.penalty) for r in a.per_candidate])
        assert b.kraft_sum == a.kraft_sum == kraft_sum(fam, cfg)
        assert b.chosen == a.chosen
        assert np.array_equal(b.estimate, a.estimate)

    def test_off_prefix_coordinates_exactly_zero(self, op_p1_d4_n16, rng):
        y = rng.standard_normal(16)
        res = select_by_threshold(op_p1_d4_n16, y, PenaltyConfig(sigma2=5.0))
        assert np.all(res.estimate[res.chosen + 1:] == 0.0)

    def test_kraft_sum_is_the_prefix_family_kraft_sum(self, rng):
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(64), 10)
        m0 = 7
        cfg = PenaltyConfig(sigma2=0.04, weights=np.full(m0, 0.7))
        res = select_by_threshold(op, rng.standard_normal(64), cfg, m0)
        fam = projection_family(op.singular_values, op.n, range(1, m0 + 1))
        assert res.kraft_sum == pytest.approx(kraft_sum(fam, cfg), rel=1e-12)

    def test_kraft_sum_overflow_raises_like_select(self):
        # the unweighted terms n rho / kraft_d overflow
        op = discretize_operator(SpectralSynthetic(p=1.0), midpoint_grid(64), 4)
        cfg = PenaltyConfig(sigma2=1.0, kraft_d=1e-308)
        y = np.ones(64)
        with pytest.raises(ParameterError, match=r"\[penalty\] kraft_d = 1e-308"):
            select(projection_of(op), cfg, op, y)
        with pytest.raises(ParameterError, match=r"\[penalty\] kraft_d = 1e-308"):
            select_by_threshold(op, y, cfg)
