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

For gaussian noise, eta^2 = |A eps|^2 has the law sigma^2 sum_i s_i^2 z_i^2,
with s the singular values of A and z_i independent N(0, 1), by rotation
invariance (Imhof, Biometrika 48, 1961).  A sample of eta^2 is drawn from
that law, min(k, n) normals a replication, one row block of replications at
a time (``operator._kernel_blocks``), so it forms no noise vector and no
product with A, and its bits do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .operator import _kernel_blocks, empirical_projection
from .selection import PenaltyConfig, penalties


# ---------------------------------------------------------------------------
# noise laws


class GaussianNoise:
    """Centered gaussian with standard deviation sigma."""

    def __init__(self, sigma: float = 1.0):
        if not (sigma > 0 and math.isfinite(sigma * sigma)):
            raise ParameterError("noise scale must be positive, sigma^2 finite")
        self.sigma = float(sigma)


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


@dataclass(frozen=True)
class QuadFormSpec:
    """A matrix, a gaussian noise law and a replication budget for the Monte
    Carlo.

    ``sv`` holds the singular values of A from one SVD; ``trace`` and
    ``radius``, those of A^t A, are read off them.  All replications come
    from one generator seeded with ``seed``.
    """

    A: np.ndarray
    noise: GaussianNoise
    replications: int = 10_000
    seed: int = 0
    sv: np.ndarray = field(init=False)
    trace: float = field(init=False)
    radius: float = field(init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "A", A)
        if self.replications < 1:
            raise ParameterError("need at least one replication")
        sv = np.linalg.svd(A, compute_uv=False)
        object.__setattr__(self, "sv", sv)
        object.__setattr__(self, "trace", float(np.sum(sv * sv)))
        object.__setattr__(self, "radius", float(sv[0] ** 2))

    def eta_squared_samples(self) -> np.ndarray:
        """|A eps|^2 for each replication, drawn as sigma^2 sum_i s_i^2 z_i^2
        in the row blocks of ``_kernel_blocks`` (module docstring)."""
        rng = np.random.default_rng(self.seed)
        etasq = np.empty(self.replications)
        with np.errstate(over="ignore"):
            for block in _kernel_blocks(self.replications, self.sv.size):
                Z = rng.normal(0.0, self.noise.sigma,
                               (block.stop - block.start, self.sv.size))
                Z *= self.sv
                np.vecdot(Z, Z, out=etasq[block])
        if not np.all(np.isfinite(etasq)):
            raise ParameterError(f"the eta^2 samples overflow at [concentration] "
                                 f"sigma = {self.noise.sigma!r}")
        return etasq


# ---------------------------------------------------------------------------
# projection identity


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    gap: float


def projection_identity_check(eps, G: np.ndarray, seed: int = 0) -> IdentityCheck:
    """Supremum of the empirical inner product over the unit ball of the
    model space versus the empirical norm of the projected noise.

    The supremum is evaluated at its exact maximizer (the normalized
    projection) plus 32 random probes, so the gap measures a true identity,
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
    # one row G^t z per probe; a probe of norm zero is skipped
    probes = np.random.default_rng(seed).standard_normal((32, d)) @ G
    norms = np.sqrt(np.vecdot(probes, probes)) / math.sqrt(n)
    live = norms > 0
    ratios = np.abs(np.vecdot(probes[live], eps)) / (n * norms[live])
    best = max(best, float(np.max(ratios, initial=best)))
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
    spec: QuadFormSpec
    cfg: PenaltyConfig
    weight: float

    def violation_flags(self) -> np.ndarray:
        return self.empirical_tail - 2.0 * self.stderr > self.theoretical_bound

    @property
    def violations(self) -> int:
        return int(np.sum(self.violation_flags()))

    def header_lines(self) -> list[str]:
        spec, cfg = self.spec, self.cfg
        return [
            f"# trace = {spec.trace!r}",
            f"# radius = {spec.radius!r}",
            f"# r = {cfg.r!r}",
            f"# weight = {self.weight!r}",
            f"# kraft_d = {cfg.kraft_d!r}",
            f"# sigma = {spec.noise.sigma!r}",
            f"# replications = {spec.replications}",
            f"# seed = {spec.seed}",
        ]


def penalized_level(spec: QuadFormSpec, r: float, weight: float) -> float:
    """sigma^2 (Tr + rho) (r/2)(1 + L), the level the tail is measured from:
    half the selection penalty of the candidate ``spec`` with weight L.  A
    level that overflows raises ParameterError."""
    sigma = spec.noise.sigma
    # halving sigma^2 first keeps a finite level from overflowing on the way
    cfg = PenaltyConfig(sigma2=sigma ** 2 / 2, r=r, weights=np.array([weight]))
    with np.errstate(over="ignore"):
        level = float(penalties([spec.trace], [spec.radius], cfg)[0])
    if not math.isfinite(level):
        raise ParameterError(f"the penalized level overflows at [concentration] "
                             f"sigma = {sigma!r}, weight = {weight!r} and "
                             f"[penalty] r = {r!r}")
    return level


def default_u_grid(spec: QuadFormSpec, count: int = 8) -> np.ndarray:
    """Geometric grid of sigma^2-unit offsets scaled to the matrix energy
    Tr + rho of ``spec``."""
    if count < 1:
        raise ParameterError("the u grid needs at least one point")
    with np.errstate(over="ignore"):
        grid = (spec.trace + spec.radius) * 0.25 * 2.0 ** np.arange(count)
    if not np.isfinite(grid[-1]):
        raise ParameterError(f"[concentration] u_count = {count} overflows the u grid")
    return grid


def tail_levels(spec: QuadFormSpec, r: float, weight: float, u_grid) -> np.ndarray:
    """The levels sigma^2 (level + u) at which ``tail_check`` measures the
    tail of eta^2, for the penalized level of ``spec`` with weight L =
    ``weight`` and the u grid ``u_grid``; a level that overflows raises
    ParameterError.  They need no sample, so a run checks them before its
    first draw."""
    sigma = spec.noise.sigma
    with np.errstate(over="ignore"):
        levels = penalized_level(spec, r, weight) + sigma ** 2 * u_grid
    if not np.all(np.isfinite(levels)):
        raise ParameterError(f"the tail levels overflow at [concentration] "
                             f"sigma = {sigma!r}, u up to {float(np.max(u_grid))!r}")
    return levels


def tail_check(spec: QuadFormSpec, etasq, cfg: PenaltyConfig, u_grid,
               weight: float) -> TailReport:
    """Compare the Monte Carlo tail of eta^2 with the exponential bound.

    ``etasq`` is the sample ``spec.eta_squared_samples()`` and ``weight``
    the candidate weight L.  ``cfg`` supplies r and kraft_d only; sigma
    comes from ``spec.noise``.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    tr, rho = spec.trace, spec.radius
    levels = tail_levels(spec, cfg.r, weight, u_grid)
    emp = np.array([np.mean(etasq >= t) for t in levels])
    se = np.sqrt(emp * (1.0 - emp) / spec.replications)
    bound = np.exp(-np.sqrt(cfg.kraft_d * (u_grid / rho
                                           + (cfg.r / 2.0) * weight * (tr / rho + 1.0))))
    return TailReport(u_grid, emp, se, bound, spec, cfg, weight)


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


def moment_bound_shape(spec: QuadFormSpec, cfg: PenaltyConfig, q: int,
                       weight: float) -> float:
    """The shape k1^-q (k2^(q - 1/2) + k2^(q - 1)) exp(-sqrt(k2)) of the
    bound on the q-th moment that ``moment_check`` compares with, NaN for a
    weight L = ``weight`` of zero, where it is degenerate; a shape that
    overflows or underflows raises ParameterError.  It needs no sample, so a
    run checks it before its first draw."""
    if weight <= 0.0:
        return math.nan
    tr, rho = spec.trace, spec.radius
    k1 = cfg.kraft_d / (rho * spec.noise.sigma ** 2)
    k2 = cfg.kraft_d * (cfg.r / 2.0) * weight * (tr / rho + 1.0)
    try:
        shape = (k1 ** (-q) * (k2 ** (q - 0.5) + k2 ** (q - 1.0))
                 * math.exp(-math.sqrt(k2)))
    except OverflowError:
        shape = math.inf
    if not 0 < shape < math.inf:
        raise ParameterError(f"moment bound shape {shape!r} is out of range at "
                             f"[concentration] moment_q = {q}, weight = {weight!r}")
    return shape


def moment_check(spec: QuadFormSpec, etasq, cfg: PenaltyConfig, q: int,
                 weight: float) -> MomentReport:
    """Truncated q-th moment of the eta^2 sample ``etasq`` of ``spec`` above
    the penalized level of weight L = ``weight``.  ``cfg`` supplies r and
    kraft_d only; sigma comes from ``spec.noise``."""
    if q < 1:
        raise ParameterError("moment order must be at least 1")
    level = penalized_level(spec, cfg.r, weight)
    with np.errstate(over="ignore"):
        emp = float(np.mean(np.clip(etasq - level, 0.0, None) ** q))
    if not math.isfinite(emp):
        raise ParameterError(f"the empirical moment of order [concentration] "
                             f"moment_q = {q} overflows at [concentration] "
                             f"sigma = {spec.noise.sigma!r}")
    shape = moment_bound_shape(spec, cfg, q, weight)
    return MomentReport(q, emp, shape, emp / shape, weight, weight > 0.0)
