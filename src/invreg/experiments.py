"""Synthetic risk studies: oracle ratios and rate exponents.

Problems are generated on the midpoint cosine design, where the basis is
exactly orthonormal in the empirical norm, with a spectral-synthetic
operator of prescribed decay j^(-p).  The truth lives on a coefficient
range several times larger than the estimation model, so the truncation
bias of the maximal model is genuinely nonzero.

On this design the first n cosines satisfy G G^t = n I, so the singular
coefficients of y = clean + eps are exactly the Gaussian sequence model
c = lambda x0 + (sigma / sqrt(n)) z: the clean part adds lambda x0 (the
tail rows are orthogonal to the model rows) and the noise adds
N(0, sigma^2/n I).  The risk study therefore draws the coefficients
directly, one R x d block per grid point n, and never forms a sample
vector.  Its families need only j^(-p) and n, so it samples no design.
The block is scored against each K x d family a few rows at a time (the
nearly equal row blocks of ``operator._kernel_blocks``, sized by
KERNEL_BLOCK_ELEMENTS), and no R x K x d array is formed: ``objectives``
dots each row with every row of the family's squared residual, formed once,
each row's squared error is formed for its selected candidate only, and
the oracle candidate k*, the argmin over k of the mean error |F_k c - x0|^2
across rows, is ranked in closed form, |F_k cbar - x0|^2 + sum_j F_kj^2 v_j
with cbar and v the column mean and population variance of the
coefficients, before the errors of the two best are formed.  A ``nested``
family's thresholding cross-check runs in the same row blocks, so a grid
point takes O(R (K + d)) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .operator import (
    DesignGrid,
    SpectralSynthetic,
    _kernel_blocks,
    _sampled_blocks,
    choose_m0,
    cosine_design,
    midpoint_grid,
)
from .regularizers import (
    QUALIFICATION,
    RegularizerFamily,
    projection_family,
    tikhonov_family,
)
from .selection import (
    PenaltyConfig,
    default_weights,
    kraft_sum,
    objectives,
    penalties,
    threshold_objectives,
)


# ---------------------------------------------------------------------------
# source conditions


@dataclass(frozen=True)
class SourceSpec:
    """Smoothness class of the truth: x0_j = lambda_j^(2 nu) omega_j.

    ``omega`` names a deterministic profile, or "random" for a seeded
    draw; either is rescaled to the radius.  The default "log-uniform"
    profile puts equal energy per octave (|omega_j| ~ j^(-1/2), alternating
    signs), which makes the smoothness class tight: the bias of a smoothing
    level alpha then scales like alpha^(2 nu) instead of decaying faster.
    """

    nu: float
    rho: float = 1.0
    omega: str = "log-uniform"

    def __post_init__(self):
        if self.nu < 0:
            raise ParameterError("smoothness nu must be nonnegative")
        if not self.rho > 0:
            raise ParameterError("source radius must be positive")

    def omega_vector(self, size: int, seed: int = 0) -> np.ndarray:
        j = np.arange(1, size + 1)
        if self.omega == "log-uniform":
            w = (-1.0) ** (j + 1) * j ** -0.5
        elif self.omega == "equal":
            w = (-1.0) ** (j + 1) * np.ones(size)
        elif self.omega == "random":
            rng = np.random.default_rng((seed, 0x03E6A))
            w = rng.standard_normal(size)
        else:
            raise ParameterError(f"unknown omega profile {self.omega!r}")
        return self.rho * w / np.linalg.norm(w)

    def coefficients(self, p: float, size: int, seed: int = 0) -> np.ndarray:
        """Truth coefficients j^(-2 p nu) omega_j."""
        j = np.arange(1, size + 1, dtype=float)
        return j ** (-2.0 * p * self.nu) * self.omega_vector(size, seed)


@dataclass(frozen=True)
class SynthProblem:
    """A generated problem: a spectral-synthetic operator of index p, with
    singular values ``lam``, on the first d cosines of the midpoint grid of n
    points, and the extended truth x0.  ``grid`` and ``clean`` are formed on
    first use (the risk study forms neither), and ``operator_blocks`` yields
    the samples a row block at a time, so that they can be written or folded
    without forming the design or the sample matrix.
    """

    p: float
    n: int
    d: int
    x0: np.ndarray
    sigma: float
    lam: np.ndarray

    @cached_property
    def grid(self) -> DesignGrid:
        return midpoint_grid(self.n)

    @cached_property
    def clean(self) -> np.ndarray:
        """G_ext^t (lam_ext x0) for the extended cosine design G_ext of
        x0.size rows, a row block of ``_sampled_blocks`` at a time.  einsum
        sums each sample over j in index order without BLAS, so neither the
        block edges nor the thread count reach its bits."""
        d_ext = self.x0.size
        v = np.arange(1, d_ext + 1, dtype=float) ** -self.p * self.x0
        clean = np.empty(self.n)
        for rows in _sampled_blocks(self.n, d_ext):
            np.einsum("ji,j->i", cosine_design(DesignGrid(self.grid.points[rows]), d_ext),
                      v, out=clean[rows])
        return clean

    def operator_blocks(self):
        """The samples G^t diag(lambda) of the operator on the grid, one row
        block of ``_sampled_blocks`` at a time, each the same floats as the
        whole n x d matrix of ``discretize_operator``."""
        for rows in _sampled_blocks(self.n, self.d):
            yield cosine_design(DesignGrid(self.grid.points[rows]), self.d).T * self.lam


def synth_problem(p: float, nu: float, rho: float, n: int, seed: int = 0,
                  sigma: float = 0.1, omega: str = "log-uniform",
                  d_ext: int | None = None) -> SynthProblem:
    """Spectral-synthetic problem on the midpoint cosine design.

    The truth is SourceSpec(nu, rho, omega) (a "random" profile drawn from
    ``seed``).  The estimation model has dimension choose_m0(n, p); the
    truth extends to ``d_ext`` coefficients (default four times the model
    size, capped at n) with singular values continuing the same decay.
    """
    if not sigma >= 0:
        raise ParameterError("noise level sigma must be nonnegative")
    source = SourceSpec(nu, rho, omega)
    d = choose_m0(n, p)
    if d_ext is None:
        d_ext = min(4 * d, n)
    if d_ext < d or d_ext > n:
        raise ParameterError(f"extended range must lie in [{d}, {n}]")
    lam = SpectralSynthetic(p=p).values(d)   # raises if the spectrum underflows
    return SynthProblem(float(p), n, d, source.coefficients(p, d_ext, seed),
                        float(sigma), lam)


def bias_m0(x0, m0: int) -> float:
    """Squared norm of the truth beyond the first m0 coefficients."""
    return float(np.sum(np.asarray(x0, dtype=float)[m0:] ** 2))


# ---------------------------------------------------------------------------
# Monte Carlo risk study


@dataclass(frozen=True)
class ExperimentConfig:
    p: float = 1.0
    nu: float = 0.5
    rho: float = 1.0
    sigma: float = 0.1
    n_grid: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)
    replications: int = 200
    family: str = "both"
    r: float = 2.5
    kraft_target: float = 1.0
    kraft_d: float = 1.0
    seed: int = 0
    alpha_max: float = 1.0
    alpha_ratio: float = 0.5
    ext_factor: int = 4
    omega: str = "log-uniform"

    def __post_init__(self):
        if self.replications < 1:
            raise ParameterError("need at least one replication")
        if self.family not in ("tikhonov", "projection", "both"):
            raise ParameterError(f"unknown family policy {self.family!r}")
        if len(self.n_grid) == 0:
            raise ParameterError("empty n grid")
        if not (self.sigma > 0 and math.isfinite(self.sigma * self.sigma)):
            raise ParameterError("noise level sigma must be positive, sigma^2 finite")
        if not math.isfinite(self.rho * self.rho):
            raise ParameterError(f"[problem] rho = {self.rho!r}: the squared source "
                                 "radius overflows")
        # out-of-range source and penalty constants fail here, before the study
        SourceSpec(self.nu, self.rho, self.omega)
        PenaltyConfig(sigma2=self.sigma ** 2, r=self.r, kraft_d=self.kraft_d)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))

    def methods(self) -> tuple[str, ...]:
        if self.family == "both":
            return ("tikhonov", "projection")
        return (self.family,)

    def extended_dim(self) -> int:
        """The truth's coefficient range, ext_factor times the largest model
        size; it must cover every model and fit on the smallest grid."""
        if self.ext_factor < 1:
            raise ParameterError(
                f"ext_factor must be at least 1, got {self.ext_factor}")
        d_top = choose_m0(max(self.n_grid), self.p)
        d_ext = self.ext_factor * d_top
        if d_ext > min(self.n_grid):
            raise ParameterError(
                f"extended truth range {d_ext} exceeds the smallest n "
                f"{min(self.n_grid)}")
        return d_ext


@dataclass
class RiskRow:
    """Aggregates for one (n, method) cell of the study."""

    n: int
    method: str
    replications: int
    risk: float
    risk_se: float
    oracle_risk: float
    oracle_risk_se: float
    oracle_term: float
    bias_m0: float
    kraft_sum: float
    ratio_C: float
    weight: float
    threshold_agreement: float


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[RiskRow] = field(default_factory=list)

    def rows_for(self, method: str) -> list[RiskRow]:
        return [r for r in self.rows if r.method == method]

    def plot_rows(self):
        """(method, log n, log risk) triples for external plotting."""
        return [(r.method, math.log(r.n), math.log(r.risk)) for r in self.rows
                if r.risk > 0]


def _mean_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the R draws along axis 0 and its standard error (NaN for R = 1)."""
    R = x.shape[0]
    if R == 1:
        return x[0], np.full(x.shape[1:], math.nan)
    return x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(R)


def _score_blocks(family: RegularizerFamily, C: np.ndarray, pens: np.ndarray,
                  x0: np.ndarray,
                  oracle: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(picked, errs, agreed) of the R x d coefficients C against ``family``:
    the squared error |F_k c - x0|^2 of each row at its selected candidate k,
    the R x len(oracle) squared errors of the candidates ``oracle``, and, for
    a ``nested`` family, the number of rows on which the thresholding form of
    its first K coordinates selects the same candidate (NaN otherwise).

    The rows go through in the ``_kernel_blocks`` of K d elements a row
    (KERNEL_BLOCK_ELEMENTS // (K d) rows, at least one); each error meets the
    same operations in the same order as in a whole R x K error array, so
    the result does not depend on the block edges.
    """
    F, lam, K = family.filter_matrix, family.lam, len(family)
    R = C.shape[0]
    picked = np.empty(R)
    errs = np.empty((R, oracle.size))
    agreed = 0 if family.nested else math.nan
    for block in _kernel_blocks(R, F.size):
        Cb = C[block]
        _, objs = objectives(family.residual_sq, lam, Cb, pens)
        chosen = np.argmin(objs, axis=1)
        sq = F[chosen]
        sq *= Cb
        sq -= x0
        sq *= sq
        np.sum(sq, axis=1, out=picked[block])
        sq = F[oracle] * Cb[:, None, :]
        sq -= x0
        sq *= sq
        np.sum(sq, axis=2, out=errs[block])
        if family.nested:
            _, thr = threshold_objectives(lam[:K], Cb[:, :K], pens)
            agreed += int(np.count_nonzero(np.argmin(thr, axis=1) == chosen))
    return picked, errs, agreed


def _risk_rows_for_n(n: int, cfg: ExperimentConfig, d_ext: int) -> list[RiskRow]:
    prob = synth_problem(cfg.p, cfg.nu, cfg.rho, n, cfg.seed, cfg.sigma, cfg.omega,
                         d_ext)
    d, lam = prob.d, prob.lam
    x0, tail = prob.x0[:d], bias_m0(prob.x0, d)

    # singular coefficients of the data in the sequence model (module docstring)
    R = cfg.replications
    c0 = lam * x0
    rng = np.random.default_rng((cfg.seed, n))
    C = rng.standard_normal((R, d))
    C *= cfg.sigma / math.sqrt(n)
    C += c0
    # column mean and population variance, the deviations a row block at a time
    with np.errstate(over="ignore", invalid="ignore"):
        c_mean, c_var = C.mean(axis=0), np.zeros(d)
        for block in _kernel_blocks(R, d):
            dev = C[block] - c_mean
            dev *= dev
            c_var += dev.sum(axis=0)
    c_var /= R
    base = PenaltyConfig(sigma2=cfg.sigma ** 2, r=cfg.r, kraft_d=cfg.kraft_d)
    rows = []
    for method in cfg.methods():
        family = (tikhonov_family(lam, n, cfg.p, cfg.alpha_max, cfg.alpha_ratio)
                  if method == "tikhonov" else projection_family(lam, n))
        pcfg = replace(base, weights=default_weights(family, base, cfg.kraft_target))
        kr, F = kraft_sum(family, pcfg), family.filter_matrix
        overflow = ParameterError(
            f"[problem] rho = {cfg.rho!r} and [problem] sigma = {cfg.sigma!r}: the "
            f"penalties, objectives or squared errors of the {method} study, or their "
            f"variance, overflow at n = {n}")
        # a penalty, an objective, an error or its square can overflow; a
        # non-finite objective or an infinite statistic says so
        with np.errstate(over="ignore", invalid="ignore"):
            pens = penalties(family.trace_stats, family.radius_stats, pcfg)
            # deterministic oracle term: bias of the regularized truths + 2 pen
            oracle_k = np.sum((F * c0 - x0) ** 2, axis=1) + tail + 2.0 * pens
            # mean over the rows of |F_k c - x0|^2, in closed form; the exact
            # means of the two smallest, in index order, decide the oracle
            # candidate k* (a tie goes to the earlier, as in an argmin over K)
            mean_k = np.sum((F * c_mean - x0) ** 2 + F * F * c_var, axis=1)
            pair = np.sort(np.argsort(mean_k, kind="stable")[:2])
            try:
                picked, errs, agreed = _score_blocks(family, C, pens, x0, pair)
            except ParameterError as exc:
                raise overflow from exc
            picked += tail
            errs += tail
            risk, se = _mean_se(picked)
            cand_risk, cand_se = _mean_se(errs)
        if (np.isinf(oracle_k).any() or np.isinf([risk, se]).any()
                or np.isinf([cand_risk, cand_se]).any()):
            raise overflow
        oracle_term = float(np.min(oracle_k))
        best = int(np.argmin(cand_risk))   # k* = pair[best]
        ratio = (risk - 2.0 * tail - kr / n) / oracle_term
        # the thresholding cross-check ran on the same penalties and row blocks
        rows.append(RiskRow(n, method, R, float(risk), float(se),
                            float(cand_risk[best]), float(cand_se[best]),
                            oracle_term, tail, kr, float(ratio),
                            float(pcfg.weights[0]), agreed / R))
    return rows


def monte_carlo_risk(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the study over the n grid; deterministic for fixed (config, seed).

    Each grid point draws all its replications from one generator keyed by
    (seed, n), so the report does not depend on the order of the grid.  The
    study's only products are length-d dot products, so the report does not
    depend on the BLAS thread count either.
    """
    d_ext = cfg.extended_dim()
    report = ExperimentReport(cfg)
    for n in cfg.n_grid:
        report.rows.extend(_risk_rows_for_n(n, cfg, d_ext))
    return report


# ---------------------------------------------------------------------------
# rate fits


@dataclass(frozen=True)
class RateFit:
    method: str
    slope: float
    half_width: float
    theoretical: float
    n_values: tuple[int, ...]


def theoretical_exponent(p: float, nu: float) -> float:
    """Squared-risk exponent -4 p nu / (1 + 4 p nu + 2 p)."""
    return -4.0 * p * nu / (1.0 + 4.0 * p * nu + 2.0 * p)


def fit_rate(report: ExperimentReport, method: str) -> RateFit:
    """Least squares of log risk on log n, with a 2-standard-error half width."""
    rows = report.rows_for(method)
    ns = sorted({r.n for r in rows})
    if len(ns) < 4:
        raise InsufficientDataError(
            f"rate fit needs at least 4 distinct n values, got {len(ns)}")
    x = np.log([r.n for r in rows])
    y = np.log([r.risk for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = x.size - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    # the bias of a filter exploits smoothness only up to its qualification
    theo = theoretical_exponent(report.config.p,
                                min(report.config.nu, QUALIFICATION[method]))
    return RateFit(method, float(slope), 2.0 * se, theo, tuple(ns))
