"""Penalized selection of a regularization operator.

The selection rule lives here once.  ``penalties`` charges each candidate
its noise footprint,

    pen(k) = r sigma^2 (1 + L_k) [Tr(R_k^t R_k) + rho^2(R_k)],

and ``objectives`` adds it to the contrast of a block of data vectors
against every candidate: the squared coefficient-space distance between
the candidate estimate and the maximal-model inversion of the data, taken
as one length-d dot product of the squared inversion (c / lambda)^2 with
the candidate's squared filter residual (1 - lambda F_k)^2, which the family
forms once.  The first argmin of contrast + penalty is selected.
``select_coefficients`` is the case of one vector of singular coefficients,
and ``select`` that of one data vector on an operator whose singular values
the family was built on; the risk study scores its replications a block of
rows per call, and the concentration checks measure their tails from half
the penalty.  For a ``nested`` family the rule is hard thresholding of the
inverted coefficients; ``threshold_objectives`` computes it that way, with
the dropped energies summed from the last coordinate backwards, as a
cross-check of the kernel on the same coefficients and penalties: ``select
--data`` on its one vector, the risk study in the kernel's row blocks, and
``select_by_threshold`` as the one-vector reference that builds its own
prefix family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ParameterError
from .operator import DiscretizedOperator
from .regularizers import RegularizerFamily, projection_family


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


def objectives(residual_sq: np.ndarray, lam: np.ndarray, C: np.ndarray,
               pen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(contrasts, objectives), both R x K, of R data vectors against K candidates.

    ``residual_sq`` is the family's K x d squared filter residual
    (1 - lam F)^2, ``lam`` the d singular values, ``C`` the R x d singular
    coefficients of the data and ``pen`` the K penalties.  Each contrast is
    one length-d dot product of a squared inversion x_r^2 = (c_r / lam)^2
    with a residual row, so no R x K x d array is formed.  x^2
    is finite whenever the inversion's energy is, and the residual is at
    most 1 in modulus for every family, so no term overflows where the
    inversion does not.  A non-finite objective raises ParameterError.
    """
    x2 = C / lam
    x2 *= x2
    # a broadcast view, no copy; the same dot product as contrast(), bit for bit
    con = np.vecdot(x2[:, None, :], residual_sq)
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
    reading of ``objectives``: the squared inversion dotted with candidate
    k's squared filter residual)."""
    lam = op.singular_values
    x = op.svd_coefficients(y) / lam
    a = 1.0 - lam * family.filter_matrix[k]
    return float(np.vecdot(x * x, a * a))


def _kraft_factors(trace: np.ndarray, radius: np.ndarray, n: int,
                   d_const: float) -> tuple[np.ndarray, np.ndarray]:
    """The weight-free factors (front, r1) of the kraft sum: candidate k adds
    front_k exp(-sqrt(d L_k r1_k)), with r1 = Tr/rho^2 + 1."""
    ratio = trace / radius
    return 2.0 * (np.sqrt(d_const * ratio) + 1.0) * (n * radius / d_const), ratio + 1.0


def _kraft_total(front: np.ndarray, r1: np.ndarray, d_const: float, weights):
    """Kraft sum at ``weights``: a common L or one L_k per candidate (shape K)
    gives the sum, a column of P common weights (shape P x 1) gives P sums."""
    return np.sum(front * np.exp(-np.sqrt(d_const * weights * r1)), axis=-1)


def kraft_sum(family: RegularizerFamily, cfg: PenaltyConfig) -> float:
    """Weight-damped sum over the family controlling the union bound.

    The middle factor is read as n * rho^2(R_k), the only interpretation
    under which the summand is free of n for an orthonormal design.  A sum
    that overflows raises ParameterError.
    """
    d, w = cfg.kraft_d, cfg.weights_for(len(family))
    with np.errstate(over="ignore", invalid="ignore"):
        front, r1 = _kraft_factors(family.trace_stats, family.radius_stats, family.n, d)
        total = float(_kraft_total(front, r1, d, w))
    if not math.isfinite(total):
        raise ParameterError(f"kraft sum overflows at [penalty] kraft_d = {cfg.kraft_d!r}")
    return total


def _root_estimate(front: np.ndarray, r1: np.ndarray, d_const: float,
                   target: float) -> float:
    """Newton estimate of the common weight at which the kraft sum meets the
    target, taken in s = sqrt(L) on log(sum) - log(target).  That curve is
    convex and decreasing in s, so the iterates rise monotonically from 0;
    they stop once a step no longer raises s, or after 64 steps.  May be NaN
    or infinite."""
    with np.errstate(all="ignore"):
        log_front, a = np.log(front), np.sqrt(d_const * r1)
        s = 0.0
        for _ in range(64):
            t = log_front - a * s
            top = t.max()
            w = np.exp(t - top)
            mass = w.sum()
            step = (top + np.log(mass) - math.log(target)) * mass / np.dot(w, a)
            if not s + step > s:
                break
            s += step
        return s * s


def default_weights(family: RegularizerFamily, cfg: PenaltyConfig,
                    target: float = 1.0, cap: float = 1e6) -> np.ndarray:
    """Smallest common weight L making the kraft sum reach the target.

    The sum decreases in L, so the floats of [0, cap] split into those
    above the target and those meeting it (not above; a NaN sum meets it),
    and L is the first that meets it.  Positive floats sort like their
    int64 bit patterns, so the search runs on those: a Newton estimate of
    the crossing (``_root_estimate``) is bracketed by +-32 patterns,
    widened 64-fold until the bracket holds the crossing, and a bracket of
    more than 64 patterns is cut 64 ways.  A bracket of at most 64 adjacent
    floats is evaluated whole, which certifies the crossing: the sum at L
    meets the target and the sum at the float below L does not.  A target
    that even the cap cannot reach raises ParameterError.
    """
    if not target > 0:
        raise ParameterError("kraft target must be positive")
    n, d = family.n, cfg.kraft_d
    front, r1 = _kraft_factors(family.trace_stats, family.radius_stats, n, d)
    if _kraft_total(front, r1, d, 0.0) <= target:
        return np.zeros(len(family))
    at_cap = float(_kraft_total(front, r1, d, cap))
    if at_cap > target:
        raise ParameterError(
            f"kraft target {target!r} unreachable for the {family.kind} family at "
            f"n = {n}: weights at the cap {cap!r} leave a kraft sum of {at_cap!r}")
    # bit patterns: the sum at lo is above the target, at hi it meets it
    lo, hi = 0, int(np.float64(cap).view(np.int64))
    guess = _root_estimate(front, r1, d, target)
    b = int(np.float64(guess).view(np.int64)) if math.isfinite(guess) else None
    half = 32
    while hi - lo > 1:
        near = [] if b is None else [x for x in (b - half, b + half) if lo < x < hi]
        half *= 64
        if hi - lo <= 64:
            probes = np.arange(lo + 1, hi)
        elif near:
            probes = np.array(near)
        else:
            probes = lo + (hi - lo) // 64 * np.arange(1, 64)
        totals = _kraft_total(front, r1, d, probes.view(np.float64)[:, None])
        # the probes above the target come first; i is the first meeting it
        i = int(np.count_nonzero(totals > target))
        lo = int(probes[i - 1]) if i > 0 else lo
        hi = int(probes[i]) if i < probes.size else hi
    return np.full(len(family), np.int64(hi).view(np.float64))


def select(family: RegularizerFamily, cfg: PenaltyConfig,
           op: DiscretizedOperator, y) -> SelectionResult:
    """Penalized argmin over the family of the data y on the operator: the
    ``select_coefficients`` of the singular coefficients of y.

    The family must be built for op.
    """
    if family.n != op.n or not np.array_equal(family.lam, op.singular_values):
        raise DimensionError(f"family built for n = {family.n} or on other singular "
                             f"values than the operator's (n = {op.n}, d = {op.d})")
    return select_coefficients(family, cfg, op.svd_coefficients(y), op.x_vectors)


def select_coefficients(family: RegularizerFamily, cfg: PenaltyConfig,
                        c: np.ndarray, x_vectors: np.ndarray) -> SelectionResult:
    """Penalized argmin over the family of data with singular coefficients c,
    on singular values family.lam and coefficient-space singular vectors
    ``x_vectors``.

    Ties break toward the earlier (smoother) candidate; families are
    ordered smoothest first by construction.
    """
    lam, a2 = family.lam, family.residual_sq
    if c.shape != lam.shape:
        raise DimensionError(f"{c.size} singular coefficients for a family on "
                             f"{lam.size} singular values")
    return _penalized_argmin(family, cfg, c, x_vectors,
                             lambda C, pens: objectives(a2, lam, C, pens))


def _penalized_argmin(family: RegularizerFamily, cfg: PenaltyConfig, c: np.ndarray,
                      x_vectors: np.ndarray, kernel) -> SelectionResult:
    """The selection result of one data vector with singular coefficients c:
    ``kernel`` maps them as a 1 x d block and the K penalties to 1 x K
    (contrasts, objectives), the first argmin is chosen and its filter row
    estimates."""
    pens = penalties(family.trace_stats, family.radius_stats, cfg)
    cons, objs = kernel(c[None, :], pens)
    best = int(np.argmin(objs[0]))
    rows = [CandidateRow(k, family.label(k), family.parameters[k], float(cons[0, k]),
                         float(pens[k]), float(objs[0, k]))
            for k in range(len(family))]
    rows[best].chosen = True
    estimate = x_vectors @ (family.filter_matrix[best] * c)
    return SelectionResult(best, rows, estimate, kraft_sum(family, cfg))


def threshold_objectives(lam: np.ndarray, C: np.ndarray,
                         pen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``objectives`` of the prefix projections in thresholding form.

    The contrast of prefix {1..j} is the energy of the inverted coefficients
    it drops, so coordinate j survives when its squared inverted coefficient
    beats the penalty increment.  The dropped energies are summed from the
    last coordinate backwards, so a dominant early coefficient does not
    swamp the tail.  ``lam`` holds the first m0 singular values, ``C`` R x m0
    coefficients and ``pen`` the m0 prefix penalties.
    """
    x = C / lam
    sq = x * x
    con = np.zeros_like(sq)
    con[:, :-1] = np.cumsum(sq[:, :0:-1], axis=1)[:, ::-1]
    return con, con + pen


def select_by_threshold(op: DiscretizedOperator, y, cfg: PenaltyConfig,
                        m0: int | None = None) -> SelectionResult:
    """Nested-prefix projection selection, one data vector of
    ``threshold_objectives``.  It reads the penalties, labels, estimate and
    kraft sum of ``projection_family`` over the prefixes {1..j}, j <= m0, as
    ``select`` does, and agrees exactly with its exhaustive argmin.
    """
    if m0 is None:
        m0 = op.d
    if m0 < 1 or m0 > op.d:
        raise ParameterError(f"prefix bound must lie in [1, {op.d}]")
    family = projection_family(op.singular_values, op.n, range(1, m0 + 1))
    lam = op.singular_values[:m0]
    return _penalized_argmin(family, cfg, op.svd_coefficients(y), op.x_vectors,
                             lambda C, pens: threshold_objectives(lam, C[:, :m0], pens))
