"""Penalized selection of a regularization operator.

The selection rule lives here once.  ``penalties`` charges each candidate
its noise footprint,

    pen(k) = r sigma^2 (1 + L_k) [Tr(R_k^t R_k) + rho^2(R_k)],

and ``objectives`` adds it to the contrast of a block of data vectors
against every candidate: the squared coefficient-space distance between
the candidate estimate and the maximal-model inversion of the data.  The
first argmin of contrast + penalty is selected.  ``select`` is the case of
one data vector, the risk study scores all replications in one call, and
the concentration checks measure their tails from half the penalty.  For
nested projections the rule is hard thresholding of the inverted
coefficients; ``threshold_objectives`` computes it that way, as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ParameterError
from .operator import DiscretizedOperator
from .regularizers import RegularizerFamily


@dataclass
class PenaltyConfig:
    """Constants of the penalty and of the candidate-weight budget.

    ``sigma2`` is the (known) noise variance; the theory requires r > 2.
    ``weights`` holds one L_k >= 0 per candidate (None means all zero) and
    ``kraft_d`` the tail-bound constant entering the weight budget.
    """

    sigma2: float
    r: float = 2.5
    weights: np.ndarray | None = None
    kraft_d: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.sigma2, self.r, self.kraft_d)):
            raise ParameterError("penalty constants must be finite")
        if not self.r > 2:
            raise ParameterError("penalty constant r must exceed 2")
        if not self.sigma2 > 0:
            raise ParameterError("noise variance sigma2 must be positive")
        if not self.kraft_d > 0:
            raise ParameterError("kraft constant d must be positive")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise ParameterError("candidate weights must be finite and nonnegative")
            self.weights = w

    def weights_for(self, size: int) -> np.ndarray:
        if self.weights is None:
            return np.zeros(size)
        if self.weights.size != size:
            raise DimensionError(
                f"{self.weights.size} weights supplied for {size} candidates")
        return self.weights


@dataclass
class CandidateRow:
    k: int
    label: str
    parameter: float
    contrast: float
    penalty: float
    objective: float
    chosen: bool = False


@dataclass
class SelectionResult:
    """Outcome of the penalized argmin over a candidate family."""

    chosen: int
    per_candidate: list[CandidateRow]
    estimate: np.ndarray
    kraft_sum: float

    def chosen_row(self) -> CandidateRow:
        return self.per_candidate[self.chosen]


def penalties(trace, radius, cfg: PenaltyConfig) -> np.ndarray:
    """pen(k) = r sigma^2 (1 + L_k)(Tr_k + rho_k) for every candidate k.

    ``trace`` and ``radius`` hold one trace and spectral radius per
    candidate; ``cfg`` must carry one weight per candidate (or none).
    """
    trace = np.asarray(trace, dtype=float)
    w = cfg.weights_for(trace.size)
    return cfg.r * cfg.sigma2 * (1.0 + w) * (trace + np.asarray(radius, dtype=float))


def objectives(F: np.ndarray, lam: np.ndarray, C: np.ndarray,
               pen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(contrasts, objectives), both R x K, of R data vectors against K candidates.

    ``F`` is the K x d filter matrix, ``lam`` the d singular values, ``C``
    the R x d singular coefficients of the data and ``pen`` the K
    penalties.  A non-finite objective raises ParameterError.
    """
    back = (1.0 - lam * F) * C[:, None, :] / lam
    con = np.vecdot(back, back)   # same dot product as contrast(), bit for bit
    obj = con + pen
    if not np.all(np.isfinite(obj)):
        raise ParameterError("non-finite selection objective; check the data "
                             "and the penalty constants")
    return con, obj


def penalty(family: RegularizerFamily, k: int, cfg: PenaltyConfig) -> float:
    """pen(k) of one candidate (one-candidate reference reading of
    ``penalties``); its weight is cfg.weights[k]."""
    one = replace(cfg, weights=None if cfg.weights is None else cfg.weights[k:k + 1])
    return float(penalties(family.trace_stats[k:k + 1],
                           family.radius_stats[k:k + 1], one)[0])


def contrast(family: RegularizerFamily, k: int, op: DiscretizedOperator, y) -> float:
    """Squared distance, after inversion on the maximal model, between the
    data and the image of candidate k's estimate (one-candidate reference
    reading of ``objectives``)."""
    lam = op.singular_values
    back = (1.0 - lam * family.filter_matrix[k]) * op.svd_coefficients(y) / lam
    return float(np.dot(back, back))


def _kraft_terms(trace: np.ndarray, radius: np.ndarray, n: int, d_const: float,
                 weights: np.ndarray) -> np.ndarray:
    ratio = trace / radius
    return (2.0 * (np.sqrt(d_const * ratio) + 1.0)
            * (n * radius / d_const)
            * np.exp(-np.sqrt(d_const * weights * (ratio + 1.0))))


def kraft_sum(family: RegularizerFamily, cfg: PenaltyConfig) -> float:
    """Weight-damped sum over the family controlling the union bound.

    The middle factor is read as n * rho^2(R_k), the only interpretation
    under which the summand is free of n for an orthonormal design.
    """
    w = cfg.weights_for(len(family))
    terms = _kraft_terms(family.trace_stats, family.radius_stats, family.n,
                         cfg.kraft_d, w)
    return float(np.sum(terms))


def default_weights(family: RegularizerFamily, cfg: PenaltyConfig,
                    target: float = 1.0, cap: float = 1e6) -> np.ndarray:
    """Smallest common weight L making the kraft sum reach the target.

    Bisection on the (strictly decreasing) map L -> kraft sum keeps
    total(lo) > target >= total(hi) until lo and hi are adjacent floats, so
    L is the smallest float meeting the target.  A target that even the cap
    cannot reach raises ParameterError.
    """
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


def select(family: RegularizerFamily, cfg: PenaltyConfig,
           op: DiscretizedOperator, y) -> SelectionResult:
    """Penalized argmin over the family.

    Ties break toward the earlier (smoother) candidate; families are
    ordered smoothest first by construction.  The family must be built for op.
    """
    F = family.filter_matrix
    if family.n != op.n or F.shape[1] != op.d:
        raise DimensionError(f"family built for n = {family.n}, d = {F.shape[1]}, "
                             f"not the operator's n = {op.n}, d = {op.d}")
    c = op.svd_coefficients(y)
    pens = penalties(family.trace_stats, family.radius_stats, cfg)
    cons, objs = objectives(F, op.singular_values, c[None, :], pens)
    best = int(np.argmin(objs[0]))
    rows = [CandidateRow(k, family.label(k), family.parameters[k], float(cons[0, k]),
                         float(pens[k]), float(objs[0, k]))
            for k in range(len(family))]
    rows[best].chosen = True
    estimate = op.x_vectors @ (F[best] * c)
    return SelectionResult(best, rows, estimate, kraft_sum(family, cfg))


def prefix_stats(lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Traces and spectral radii of the prefix projections {1..j}, j <= lam.size."""
    inv2 = (1.0 / lam) ** 2
    return np.cumsum(inv2) / n, np.maximum.accumulate(inv2) / n


def threshold_objectives(lam: np.ndarray, C: np.ndarray,
                         pen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``objectives`` of the prefix projections in thresholding form.

    The contrast of prefix {1..j} is the energy of the inverted coefficients
    it drops, so coordinate j survives when its squared inverted coefficient
    beats the penalty increment.  ``lam`` holds the first m0 singular values,
    ``C`` R x m0 coefficients and ``pen`` the m0 prefix penalties.
    """
    x = C / lam
    sq = x * x
    con = np.sum(sq, axis=1, keepdims=True) - np.cumsum(sq, axis=1)
    return con, con + pen


def select_by_threshold(op: DiscretizedOperator, y, cfg: PenaltyConfig,
                        m0: int | None = None) -> SelectionResult:
    """Nested-prefix projection selection, one data vector of
    ``threshold_objectives``.  Agrees exactly with the exhaustive argmin of
    ``select`` over the same prefixes.
    """
    if m0 is None:
        m0 = op.d
    if m0 < 1 or m0 > op.d:
        raise ParameterError(f"prefix bound must lie in [1, {op.d}]")
    c = op.svd_coefficients(y)
    lam = op.singular_values[:m0]
    trace, radius = prefix_stats(lam, op.n)
    pens = penalties(trace, radius, cfg)
    cons, objs = threshold_objectives(lam, c[None, :m0], pens)
    best = int(np.argmin(objs[0]))
    rows = [CandidateRow(j, f"projection(m={{1..{j + 1}}})", float(j + 1),
                         float(cons[0, j]), float(pens[j]), float(objs[0, j]))
            for j in range(m0)]
    rows[best].chosen = True
    f = np.zeros(op.d)
    f[: best + 1] = 1.0 / lam[: best + 1]
    estimate = op.x_vectors @ (f * c)
    kr = float(np.sum(_kraft_terms(trace, radius, op.n, cfg.kraft_d,
                                   cfg.weights_for(m0))))
    return SelectionResult(best, rows, estimate, kr)

