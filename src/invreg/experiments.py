"""Synthetic risk studies: oracle ratios, rate exponents, noise projections.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .operator import (
    DiscretizedOperator,
    SpectralSynthetic,
    choose_m0,
    cosine_design,
    discretize_operator,
    midpoint_grid,
)
from .regularizers import QUALIFICATION, projection_family, tikhonov_family
from .selection import (
    PenaltyConfig,
    default_weights,
    kraft_sum,
    objectives,
    penalties,
    prefix_stats,
    threshold_objectives,
)


# ---------------------------------------------------------------------------
# source conditions


@dataclass(frozen=True)
class SourceSpec:
    """Smoothness class of the truth: x0_j = lambda_j^(2 nu) omega_j.

    ``omega`` may be an explicit vector (checked against the radius), the
    name of a deterministic profile, or "random" for a seeded draw
    rescaled to the radius.  The default "log-uniform" profile puts equal
    energy per octave (|omega_j| ~ j^(-1/2), alternating signs), which
    makes the smoothness class tight: the bias of a smoothing level alpha
    then scales like alpha^(2 nu) instead of decaying faster.
    """

    nu: float
    rho: float = 1.0
    omega: object = "log-uniform"

    def __post_init__(self):
        if self.nu < 0:
            raise ParameterError("smoothness nu must be nonnegative")
        if not self.rho > 0:
            raise ParameterError("source radius must be positive")

    def omega_vector(self, size: int, seed: int = 0) -> np.ndarray:
        j = np.arange(1, size + 1)
        if isinstance(self.omega, str):
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
        w = np.asarray(self.omega, dtype=float)
        if w.shape != (size,):
            raise ParameterError(f"omega must have length {size}")
        if np.linalg.norm(w) > self.rho * (1 + 1e-12):
            raise ParameterError("omega exceeds the source radius")
        return w.copy()

    def coefficients(self, p: float, size: int, seed: int = 0) -> np.ndarray:
        """Truth coefficients j^(-2 p nu) omega_j."""
        j = np.arange(1, size + 1, dtype=float)
        return j ** (-2.0 * p * self.nu) * self.omega_vector(size, seed)


@dataclass(frozen=True)
class SynthProblem:
    """A generated problem: operator, extended truth, clean samples."""

    op: DiscretizedOperator
    x0: np.ndarray
    sigma: float
    clean: np.ndarray

    @property
    def d_ext(self) -> int:
        return self.x0.size


def synth_problem(p: float, nu: float, rho: float, n: int, seed: int = 0,
                  sigma: float = 0.1, source: SourceSpec | None = None,
                  d_ext: int | None = None) -> SynthProblem:
    """Spectral-synthetic problem on the midpoint cosine design.

    The estimation model has dimension choose_m0(n, p); the truth extends
    to ``d_ext`` coefficients (default four times the model size, capped
    at n) with singular values continuing the same decay.
    """
    if not sigma >= 0:
        raise ParameterError("noise level sigma must be nonnegative")
    d = choose_m0(n, p)
    if d_ext is None:
        d_ext = min(4 * d, n)
    if d_ext < d or d_ext > n:
        raise ParameterError(f"extended range must lie in [{d}, {n}]")
    grid = midpoint_grid(n)
    op = discretize_operator(SpectralSynthetic(p=p), grid, d)
    src = source if source is not None else SourceSpec(nu, rho)
    x0 = src.coefficients(p, d_ext, seed)
    # only the samples are needed here; the model rows were certified above
    G_ext = cosine_design(grid, d_ext)
    lam_ext = np.arange(1, d_ext + 1, dtype=float) ** (-float(p))
    clean = G_ext.T @ (lam_ext * x0)
    return SynthProblem(op, x0, float(sigma), clean)


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


def _risk_rows_for_n(n: int, cfg: ExperimentConfig, d_ext: int) -> list[RiskRow]:
    d = choose_m0(n, cfg.p)
    lam = SpectralSynthetic(p=cfg.p).values(d)
    x_ext = SourceSpec(cfg.nu, cfg.rho, cfg.omega).coefficients(cfg.p, d_ext, cfg.seed)
    x0 = x_ext[:d]
    tail = bias_m0(x_ext, d)
    sigma2 = cfg.sigma ** 2

    setups = {}
    for method in cfg.methods():
        family = (tikhonov_family(lam, n, cfg.p, cfg.alpha_max, cfg.alpha_ratio)
                  if method == "tikhonov" else projection_family(lam, n))
        base = PenaltyConfig(sigma2=sigma2, r=cfg.r, kraft_d=cfg.kraft_d)
        w = default_weights(family, base, target=cfg.kraft_target)
        pcfg = PenaltyConfig(sigma2=sigma2, r=cfg.r, weights=w, kraft_d=cfg.kraft_d)
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
        _, objs = objectives(F, lam, C, pens)
        chosen = np.argmin(objs, axis=1)
        errs = np.sum((F * C[:, None, :] - x0) ** 2, axis=2) + tail
        risk, se = _mean_se(errs[np.arange(R), chosen])
        cand_risk, cand_se = _mean_se(errs)
        k_star = int(np.argmin(cand_risk))
        ratio = (risk - 2.0 * tail - kr / n) / oracle_term
        agree = math.nan
        if method == "projection":
            _, thr = threshold_objectives(lam, C, penalties(*prefix_stats(lam, n), pcfg))
            agree = float(np.sum(np.argmin(thr, axis=1) == chosen)) / R
        rows.append(RiskRow(n, method, R, float(risk), float(se),
                            float(cand_risk[k_star]), float(cand_se[k_star]),
                            oracle_term, tail, kr, float(ratio),
                            float(pcfg.weights[0]), agree))
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
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    # the bias of a filter exploits smoothness only up to its qualification
    theo = theoretical_exponent(report.config.p,
                                min(report.config.nu, QUALIFICATION[method]))
    return RateFit(method, float(slope), 2.0 * se, theo, tuple(ns))


# ---------------------------------------------------------------------------
# projection error decomposition


@dataclass(frozen=True)
class ProjectionErrorRow:
    d_m: int
    bias: float
    bias_bound: float
    noise_energy: float
    noise_energy_se: float
    noise_energy_predicted: float


def projection_error_bound_check(op: DiscretizedOperator, x0, nu: float,
                                 dims, sigma: float, replications: int = 200,
                                 seed: int = 0) -> list[ProjectionErrorRow]:
    """Bias decay versus d_m^(-2 nu p) and projected noise energy versus
    sigma^2 d_m / n, per model dimension.

    The bias bound carries a fitted constant (the decay order is the
    claim, not the constant); the noise prediction is exact in expectation
    on an orthonormal design.
    """
    x0 = np.asarray(x0, dtype=float)
    dims = [int(m) for m in dims]
    if any(m < 1 or m > op.d for m in dims):
        raise ParameterError(f"dimensions must lie in [1, {op.d}]")
    biases = np.array([math.sqrt(np.sum(x0[m:] ** 2)) for m in dims])
    orders = np.array([float(m) ** (-2.0 * nu * op.p) for m in dims])
    with np.errstate(divide="ignore", invalid="ignore"):
        consts = np.where(orders > 0, biases / orders, 0.0)
    c_fit = float(np.max(consts)) if consts.size else 0.0

    eps = np.random.default_rng(seed).normal(0.0, sigma, (replications, op.n))
    csum = np.cumsum((eps @ op.singular_design.T / op.n) ** 2, axis=1)
    mean, se = _mean_se(csum[:, np.array(dims) - 1])
    rows = []
    for i, m in enumerate(dims):
        rows.append(ProjectionErrorRow(m, float(biases[i]), c_fit * float(orders[i]),
                                       float(mean[i]), float(se[i]),
                                       sigma ** 2 * m / op.n))
    return rows
