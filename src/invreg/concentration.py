"""Monte Carlo verification of the noise-amplification bounds.

The central quantity is eta(A) = sup_{|u|=1} sum_i eps_i (A^t u)_i for a
k x n matrix A, which equals the Euclidean norm of A eps.  Its square is
the noise energy a regularization operator lets through; the penalized
selection rule is calibrated so that

    P( eta^2 >= sigma^2 (Tr + rho) (r/2)(1 + L) + sigma^2 u )
        <= exp( -sqrt( d (u/rho + (r/2) L (Tr/rho + 1)) ) )

with Tr and rho the trace and spectral radius of A^t A and u measured in
sigma^2 units.  The checks here estimate the left side by simulation and
compare it with the right side at an explicit binomial error budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .operator import empirical_projection
from .selection import PenaltyConfig, penalties


# ---------------------------------------------------------------------------
# noise laws


class GaussianNoise:
    """Centered gaussian with standard deviation sigma."""

    def __init__(self, sigma: float = 1.0):
        if not (sigma > 0 and math.isfinite(sigma * sigma)):
            raise ParameterError("noise scale must be positive, sigma^2 finite")
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.normal(0.0, self.sigma, shape)

    def absolute_moment(self, q: int) -> float:
        """E|eps|^q / sigma^q (closed form)."""
        return 2.0 ** (q / 2.0) * math.gamma((q + 1) / 2.0) / math.sqrt(math.pi)


class TwoPointNoise:
    """Symmetric two-point law +-sigma; bounded, E|eps|^q = sigma^q for all q."""

    def __init__(self, sigma: float = 1.0):
        if not (sigma > 0 and math.isfinite(sigma * sigma)):
            raise ParameterError("noise scale must be positive, sigma^2 finite")
        self.sigma = float(sigma)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.sigma * rng.choice([-1.0, 1.0], size=shape)

    def absolute_moment(self, q: int) -> float:
        return 1.0


def moment_condition_ratios(noise, q_max: int = 8) -> np.ndarray:
    """Ratios E|eps|^q / (sigma^q q!/2) for q = 1..q_max.

    The moment condition on the noise asks for ratios <= 1.  The gaussian
    law satisfies it for every q >= 2; at q = 1 the ratio is
    2 sqrt(2/pi) ~ 1.6, which is immaterial for the variance-type
    arguments the bounds rest on.
    """
    return np.array([noise.absolute_moment(q) / (math.factorial(q) / 2.0)
                     for q in range(1, q_max + 1)])


# ---------------------------------------------------------------------------
# quadratic-form supremum


def eta(A, eps) -> float:
    """sup over unit u of sum_i eps_i (A^t u)_i, i.e. the norm of A eps."""
    A = np.asarray(A, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if A.ndim != 2 or eps.shape != (A.shape[1],):
        raise DimensionError(
            f"matrix is {A.shape}, noise vector has length {eps.size}")
    return float(np.linalg.norm(A @ eps))


def z_envelope(A) -> np.ndarray:
    """Per-coordinate envelopes diag(A^t A) / rho(A^t A); they sum to Tr/rho."""
    A = np.asarray(A, dtype=float)
    col_sq = np.sum(A * A, axis=0)
    return col_sq / np.max(np.linalg.svd(A, compute_uv=False)) ** 2


@dataclass(frozen=True)
class QuadFormSpec:
    """A matrix, a noise law and a replication budget for the Monte Carlo.

    ``noise`` is any object with attributes ``sigma`` and
    ``sample(rng, shape)``, which returns an array of that shape of
    independent draws; the shipped laws are GaussianNoise and
    TwoPointNoise.  All replications come from one generator seeded with
    ``seed``, as one replications x n block.
    """

    A: np.ndarray
    noise: object
    replications: int = 10_000
    seed: int = 0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "A", A)
        if self.replications < 1:
            raise ParameterError("need at least one replication")

    def eta_squared_samples(self) -> np.ndarray:
        shape = (self.replications, self.A.shape[1])
        V = self.noise.sample(np.random.default_rng(self.seed), shape) @ self.A.T
        return np.vecdot(V, V)


# ---------------------------------------------------------------------------
# projection identity


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    gap: float


def projection_identity_check(eps, G: np.ndarray, probes: int = 32,
                              seed: int = 0) -> IdentityCheck:
    """Supremum of the empirical inner product over the unit ball of the
    model space versus the empirical norm of the projected noise.

    The supremum is evaluated at its exact maximizer (the normalized
    projection) plus random probes, so the gap measures a true identity,
    not an optimization error.
    """
    eps = np.asarray(eps, dtype=float)
    d, n = G.shape
    coef = empirical_projection(eps, G)
    proj = G.T @ coef
    rhs = float(np.linalg.norm(proj)) / math.sqrt(n)
    if rhs == 0.0:
        return IdentityCheck(0.0, 0.0, 0.0)
    best = abs(float(np.dot(eps, proj / rhs))) / n
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        y = G.T @ rng.standard_normal(d)
        norm_n = float(np.linalg.norm(y)) / math.sqrt(n)
        if norm_n > 0:
            best = max(best, abs(float(np.dot(eps, y))) / (n * norm_n))
    return IdentityCheck(best, rhs, abs(best - rhs))


# ---------------------------------------------------------------------------
# tail and moment checks


@dataclass(frozen=True)
class TailReport:
    """Empirical exceedance of the penalized level versus the stated bound.

    ``thresholds`` holds the u grid in sigma^2 units.  A violation at u
    means the empirical tail exceeds the bound by more than twice its
    binomial standard error.
    """

    thresholds: np.ndarray
    empirical_tail: np.ndarray
    stderr: np.ndarray
    theoretical_bound: np.ndarray
    trace: float
    radius: float
    r: float
    weight: float
    kraft_d: float
    sigma: float
    replications: int
    seed: int

    def violation_flags(self) -> np.ndarray:
        return self.empirical_tail - 2.0 * self.stderr > self.theoretical_bound

    @property
    def violations(self) -> int:
        return int(np.sum(self.violation_flags()))

    def header_lines(self) -> list[str]:
        return [
            f"# trace = {self.trace!r}",
            f"# radius = {self.radius!r}",
            f"# r = {self.r!r}",
            f"# weight = {self.weight!r}",
            f"# kraft_d = {self.kraft_d!r}",
            f"# sigma = {self.sigma!r}",
            f"# replications = {self.replications}",
            f"# seed = {self.seed}",
        ]


def _gram_stats(A: np.ndarray) -> tuple[float, float]:
    sv = np.linalg.svd(A, compute_uv=False)
    return float(np.sum(sv * sv)), float(sv[0] ** 2)


def penalized_level(A, sigma: float, r: float, weight: float) -> float:
    """sigma^2 (Tr + rho) (r/2)(1 + L), the level the tail is measured from:
    half the selection penalty of a candidate with Gram statistics (Tr, rho)."""
    tr, rho = _gram_stats(np.atleast_2d(np.asarray(A, dtype=float)))
    cfg = PenaltyConfig(sigma2=sigma ** 2, r=r, weights=np.array([weight]))
    return 0.5 * float(penalties([tr], [rho], cfg)[0])


def default_u_grid(A, count: int = 8) -> np.ndarray:
    """Geometric grid of sigma^2-unit offsets scaled to the matrix energy."""
    if count < 1:
        raise ParameterError("the u grid needs at least one point")
    tr, rho = _gram_stats(np.atleast_2d(np.asarray(A, dtype=float)))
    return (tr + rho) * 0.25 * 2.0 ** np.arange(count)


def tail_check(spec: QuadFormSpec, etasq, cfg: PenaltyConfig, u_grid,
               weight: float | None = None) -> TailReport:
    """Compare the Monte Carlo tail of eta^2 with the exponential bound.

    ``etasq`` is the sample ``spec.eta_squared_samples()``.  ``weight`` is
    the candidate weight L; when omitted it is taken from cfg.weights
    (single-candidate reading) or zero.
    """
    if weight is None:
        weight = float(cfg.weights[0]) if cfg.weights is not None else 0.0
    u_grid = np.asarray(u_grid, dtype=float)
    sigma2 = spec.noise.sigma ** 2
    tr, rho = _gram_stats(spec.A)
    level = penalized_level(spec.A, spec.noise.sigma, cfg.r, weight)
    emp = np.array([np.mean(etasq >= level + sigma2 * u) for u in u_grid])
    se = np.sqrt(emp * (1.0 - emp) / spec.replications)
    bound = np.exp(-np.sqrt(cfg.kraft_d * (u_grid / rho
                                           + (cfg.r / 2.0) * weight * (tr / rho + 1.0))))
    return TailReport(u_grid, emp, se, bound, tr, rho,
                      cfg.r, weight, cfg.kraft_d, spec.noise.sigma,
                      spec.replications, spec.seed)


@dataclass(frozen=True)
class MomentReport:
    """Truncated moment of eta^2 against the shape of the stated bound.

    The bound's constant is unspecified, so ``ratio`` (empirical over
    shape) is the quantity expected to stay bounded across configurations.
    ``defined`` is False when the weight is zero, which makes the shape
    degenerate.
    """

    q: int
    empirical_moment: float
    bound_shape: float
    ratio: float
    weight: float
    defined: bool


def moment_check(spec: QuadFormSpec, etasq, cfg: PenaltyConfig, q: int,
                 weight: float | None = None) -> MomentReport:
    """Truncated q-th moment of the eta^2 sample ``etasq`` of ``spec`` above
    the penalized level; ``weight`` as in ``tail_check``."""
    if q < 1:
        raise ParameterError("moment order must be at least 1")
    if weight is None:
        weight = float(cfg.weights[0]) if cfg.weights is not None else 0.0
    sigma2 = spec.noise.sigma ** 2
    tr, rho = _gram_stats(spec.A)
    level = penalized_level(spec.A, spec.noise.sigma, cfg.r, weight)
    emp = float(np.mean(np.clip(etasq - level, 0.0, None) ** q))
    if weight <= 0.0:
        return MomentReport(q, emp, math.nan, math.nan, weight, False)
    k1 = cfg.kraft_d / (rho * sigma2)
    k2 = cfg.kraft_d * (cfg.r / 2.0) * weight * (tr / rho + 1.0)
    try:
        shape = (k1 ** (-q) * (k2 ** (q - 0.5) + k2 ** (q - 1.0))
                 * math.exp(-math.sqrt(k2)))
    except OverflowError:
        shape = math.inf
    if not 0 < shape < math.inf:
        raise ParameterError(f"moment bound shape {shape!r} is out of range")
    return MomentReport(q, emp, shape, emp / shape, weight, True)
