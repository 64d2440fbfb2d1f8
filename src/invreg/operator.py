"""Empirical geometry of a fixed design and the projected forward operator.

Everything is built on a fixed observation grid t_1 < ... < t_n.  The
observation space carries the empirical norm ||y||_n = sqrt(mean(y_i^2));
the coefficient space carries the Euclidean norm.  The observation side
is spanned by the first d cosines sampled on the grid (the cosine design
G, d x n).  A forward operator is discretized by sampling the images of
the first d coefficient basis functions on the grid, projecting them onto
the span of G, and taking a singular value decomposition of the
projected map.

Every blocked pass of the package walks its rows in the nearly equal
blocks of ``_row_blocks``.  A sampled operator is projected in one pass
over row blocks of the grid: ``SampledProjection`` is built in one call
from an iterable of the blocks' samples, a tall-skinny QR of the rows
[G^t | y | S] by a flat reduction tree (one Householder QR per block,
whose R factor is folded into one running R factor).  It keeps d x d
state, however many blocks there are, so it can read its samples a block
at a time and yields the singular coefficients of data and the
diagnostics without an n x d array.  ``discretize_operator`` runs the
same pass over an array and then forms the singular design Psi, from
which ``diagnostics`` reads the same constants in memory, the reference
the pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .errors import (
    DegenerateDesignError,
    DimensionError,
    ParameterError,
    RankError,
)

# Relative cliff below which a singular value counts as zero.
RANK_RTOL = 1e-12

# Largest ratio of fitted constants that the diagnostics accept.
RATIO_TOL = 1e3


# ---------------------------------------------------------------------------
# design grid and empirical geometry


@dataclass(frozen=True)
class DesignGrid:
    """Ordered abscissae of the fixed observation design."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise ParameterError("design grid needs at least one point")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ParameterError("design grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size


def midpoint_grid(n: int) -> DesignGrid:
    """Midpoint design t_i = (i - 1/2)/n on [0, 1].

    On this grid the cosine basis is exactly orthogonal in the empirical
    norm, so G G^t = n I.
    """
    if n < 1:
        raise ParameterError("grid size must be positive")
    return DesignGrid((np.arange(n) + 0.5) / n)


def empirical_norm(v, grid: DesignGrid) -> float:
    """Root mean square of the sample vector over the design."""
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n,):
        raise DimensionError(f"sample vector has length {v.size}, grid has {grid.n}")
    return math.sqrt(float(np.mean(v * v)))


# ---------------------------------------------------------------------------
# the cosine design and empirical projection


def cosine_design(grid: DesignGrid, d_m: int) -> np.ndarray:
    """The d_m x n array G[j, i] = phi_{j+1}(t_i) of the cosine basis
    phi_1 = 1, phi_j(t) = sqrt(2) cos((j-1) pi t), orthonormal in L2[0,1].

    No rank check; raises DimensionError when d_m > n.
    """
    if d_m < 1:
        raise ParameterError("model dimension must be positive")
    if d_m > grid.n:
        raise DimensionError(f"model dimension {d_m} exceeds grid size {grid.n}")
    G = np.empty((d_m, grid.n))
    G[0] = 1.0
    # one cos call over the (d_m - 1) x n arguments j pi t, in place
    np.multiply(np.arange(1, d_m)[:, None] * math.pi, grid.points, out=G[1:])
    np.cos(G[1:], out=G[1:])
    G[1:] *= math.sqrt(2.0)
    return G


def _row_blocks(n: int, step: int) -> list[slice]:
    """Consecutive slices covering range(n) in k = max(1, n // step) nearly
    equal row blocks, the i-th from n*i//k to n*(i+1)//k, so each block has
    at least ``step`` rows unless the whole range has fewer.  The one block
    rule of every blocked pass; each caller passes its own step."""
    k = max(1, n // step)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


# Elements of one row block of a blocked pass, which sets its _row_blocks
# step: rows x K x d in the risk kernel, the products its contrasts sum (a
# block's temporaries are rows x K contrasts and rows x d errors), rows x d in
# the column-variance pass, and rows x min(k, n) in the concentration draw (its
# scaled normals).  No result depends on the block size.
KERNEL_BLOCK_ELEMENTS = 1 << 18


def _kernel_blocks(n: int, per_row: int) -> list[slice]:
    """The row blocks of a blocked product over n rows of ``per_row``
    elements each: a step of KERNEL_BLOCK_ELEMENTS // per_row rows, at least
    one."""
    return _row_blocks(n, max(1, KERNEL_BLOCK_ELEMENTS // per_row))


def _sampled_blocks(n: int, d: int) -> list[slice]:
    """The row blocks of every pass over a sampled operator of n grid points
    and d columns: a step of max(d, isqrt(n d)) points, so that the n_b x d
    arrays of one block stay O(d sqrt(n d)), and every such pass forms the
    same products of each block, the same bits."""
    return _row_blocks(n, max(d, math.isqrt(n * d)))


def build_design_matrix(grid: DesignGrid, d_m: int) -> np.ndarray:
    """The cosine design of ``grid``, certified to have full row rank by the
    R factor of one QR of G^t (DegenerateDesignError on failure)."""
    G = cosine_design(grid, d_m)
    _certify_rank(np.linalg.qr(G.T, mode="r"))
    return G


def _certify_rank(R: np.ndarray) -> np.ndarray:
    """The singular values of the design G, read off R, the d x d factor of a
    QR of G^t; raises DegenerateDesignError unless G has full row rank, the
    smallest exceeding RANK_RTOL times the largest."""
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise DegenerateDesignError(f"design matrix is rank deficient (d_m={R.shape[0]})")
    return sv


def empirical_projection(y, G: np.ndarray) -> np.ndarray:
    """Coefficients of the empirical-norm projection of y onto span(phi_1..phi_d).

    Solves the least squares problem min_c ||y - G^t c|| (the normal
    equations of the projection under the design measure).
    """
    y = np.asarray(y, dtype=float)
    d, n = G.shape
    if y.shape != (n,):
        raise DimensionError(f"sample vector has length {y.size}, design has {n}")
    coef, _, rank, _ = np.linalg.lstsq(G.T, y, rcond=RANK_RTOL)
    if rank < d:
        raise DegenerateDesignError("normal matrix of the design is singular")
    return coef


# ---------------------------------------------------------------------------
# discretized operator


@dataclass(frozen=True)
class SpectralSynthetic:
    """Operator acting diagonally on the cosine basis with singular values j^(-p)."""

    p: float

    def values(self, d: int) -> np.ndarray:
        if not self.p > 0:
            raise ParameterError("spectral-synthetic spec needs p > 0")
        lam = np.arange(1, d + 1, dtype=float) ** (-float(self.p))
        if not np.all(lam > 0):
            raise ParameterError(f"singular value j^(-p) underflows to 0 at p={self.p}")
        return lam


@dataclass(frozen=True)
class DiscretizedOperator:
    """Projected forward operator with its empirical singular system.

    ``sample_matrix`` (n x d) holds the raw images of the coefficient basis
    on the grid; ``singular_values`` are the singular values of the
    projected operator from (R^d, Euclidean) to the span of the observation
    basis under the empirical norm.  ``x_vectors`` columns are the
    coefficient-space singular vectors; ``singular_design`` rows are the
    sampled observation-side singular functions (empirically orthonormal,
    Psi Psi^t = n I).
    """

    grid: DesignGrid
    sample_matrix: np.ndarray
    singular_values: np.ndarray
    x_vectors: np.ndarray
    singular_design: np.ndarray
    p: float

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def d(self) -> int:
        return self.singular_values.size

    @property
    def G(self) -> np.ndarray:
        """The d x n cosine design of the grid, built on each request."""
        return cosine_design(self.grid, self.d)

    def forward(self, x) -> np.ndarray:
        """Samples of the projected operator applied to coefficients x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionError(f"coefficient vector has length {x.size}, need {self.d}")
        xi = self.x_vectors.T @ x
        return self.singular_design.T @ (self.singular_values * xi)

    def svd_coefficients(self, y) -> np.ndarray:
        """Empirical inner products of y with the singular functions."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DimensionError(f"sample vector has length {y.size}, grid has {self.n}")
        return self.singular_design @ y / self.n

    def regularizer(self, f) -> np.ndarray:
        """Dense d x n matrix of the filter row f: sample vector to coefficients."""
        return self.x_vectors @ (f[:, None] * self.singular_design) / self.n


def _fold_rows(R, grid: DesignGrid, rows: slice, y, S_b: np.ndarray) -> np.ndarray:
    """The running R factor ``R`` (None before the first row block) with the
    R factor of the block's rows [G_b^t | y_b | S_b] folded in by one QR of
    the two stacked; y_b = 0 without data ``y``.  Its temporaries are freed
    before the next block is read."""
    # y before S: T = Q^t S then has the same bits with or without data
    # (LAPACK would skip a zero y in the last column)
    y_b = np.zeros(len(S_b)) if y is None else y[rows]
    G_b = cosine_design(DesignGrid(grid.points[rows]), S_b.shape[1])
    R_b = np.linalg.qr(np.column_stack([G_b.T, y_b, S_b]), mode="r")
    return (R_b if R is None   # the first block's is the R factor
            else np.linalg.qr(np.vstack([R, R_b]), mode="r"))


class SampledProjection:
    """A sampled operator projected onto the cosine design of its grid in one
    pass over the row blocks of the grid (``_sampled_blocks``) that keeps one
    R factor of at most 2d + 1 rows and no n x d array.

    ``samples`` yields the n_b x d samples S_b of each row block in order,
    and the constructor folds the R factor of each block's rows
    [G_b^t | y_b | S_b] (y_b = 0 without data ``y``) into R by one QR of the
    two stacked, so R is the R factor of [G^t | y | S].  It pulls
    ``samples`` to its end, and too few or too many blocks, or a misshaped
    one, raise DimensionError.  For the orthonormal basis Q of the span of
    G^t, the top d rows of R hold the design's R factor (its rank certificate
    and singular values), Q^t y and T = Q^t S; without data its rows below
    d, in the columns of S, are an R factor E of the residual S - Q T.  The
    SVD K = T / sqrt(n) = W diag(lambda) V^t, signed so that the largest
    component of each column of V is positive, gives ``singular_values`` and
    ``x_vectors``.  Psi = sqrt(n) (Q W)^t is the singular design, so the
    ``coefficients`` Psi y / n of the data are W^t Q^t y / sqrt(n).  A design
    or operator that is numerically singular raises DegenerateDesignError or
    RankError.  ``p`` records the ill-posedness index.
    """

    def __init__(self, grid: DesignGrid, d: int, samples, p: float = 1.0, y=None):
        n = grid.n
        if y is not None and np.shape(y) != (n,):
            raise DimensionError(f"sample vector has length {np.size(y)}, grid has {n}")
        self.grid, self.d, self.p, self._y = grid, d, float(p), y
        blocks, samples, R = _sampled_blocks(n, d), iter(samples), None
        for k, rows in enumerate(blocks):
            S_b = next(samples, None)
            if S_b is None:
                raise DimensionError(f"fewer than {len(blocks)} row blocks of samples")
            if S_b.shape != (rows.stop - rows.start, d):
                raise DimensionError(f"row block {k} of the samples must be "
                                     f"{rows.stop - rows.start} x {d}, got {S_b.shape}")
            R = _fold_rows(R, grid, rows, y, S_b)
        if next(samples, None) is not None:
            raise DimensionError(f"more than {len(blocks)} row blocks of samples")
        self._R, self._design_sv = R, _certify_rank(R[:d, :d])
        W, lam, Vt = np.linalg.svd(R[:d, d + 1:] / math.sqrt(n))
        if lam[-1] <= RANK_RTOL * lam[0]:
            raise RankError("projected operator has a numerically zero singular value")
        # canonical signs: largest component of each coefficient vector positive
        signs = np.sign(Vt[range(d), np.argmax(np.abs(Vt), axis=1)])
        self._W, self.singular_values, self.x_vectors = W * signs, lam, Vt.T * signs
        if y is not None:
            self.coefficients = self._W.T @ R[:d, d] / math.sqrt(n)

    @property
    def n(self) -> int:
        return self.grid.n

    def diagnostics(self, dims: Sequence[int]) -> IllposednessDiagnostics:
        """``diagnostics`` of a pass without data (else ParameterError).  The
        residual of the projection on the first m singular functions has the
        orthogonal parts S - Q T and Q W_{>m} W_{>m}^t T, so gamma_upper is the
        largest singular value of the rows lambda_j v_j^t, j > m, stacked on
        E / sqrt(n); no sample is squared.  The design spectrum, eig(G G^t) / n,
        is sv^2 / n for the singular values sv of the design's R factor."""
        if self._y is not None:
            raise ParameterError("diagnostics need a pass that folds no data")
        dims, sv_constants = _decay_constants(self.singular_values, self.p, dims)
        n, d = self.n, self.d
        Z = np.vstack([self.singular_values[:, None] * self.x_vectors.T,
                       self._R[d:, d + 1:] / math.sqrt(n)])
        g_up = np.array([np.linalg.norm(Z[m:], 2) for m in dims])
        sv = self._design_sv
        return _assess(self.singular_values, dims, sv_constants, g_up,
                       (float(sv[-1] ** 2 / n), float(sv[0] ** 2 / n)))


def _exponent(a: np.ndarray) -> int:
    """The e of 2^e just above max|a| (0 for a zero array): a / 2^e is below
    1 in modulus, and its squares neither overflow nor underflow."""
    return int(np.frexp(max(a.max(), -a.min()))[1])


def discretize_operator(op_spec, grid: DesignGrid, m0: int,
                        p: float | None = None) -> DiscretizedOperator:
    """Project a forward operator onto the first m0 cosines of the grid.

    ``op_spec`` is a SpectralSynthetic (singular values j^(-p) acting
    diagonally on the cosines; needs G G^t = n I, as on ``midpoint_grid``,
    and takes no ``p`` besides its own) or an n x m0 array of sampled
    images of the coefficient basis.  The array runs through the pass of
    ``SampledProjection`` a row slice at a time, and Psi = sqrt(n) W^t R^-t G
    (R the design's R factor) a block at a time; one step of Cholesky QR
    restores the orthogonality that the solve loses in proportion to the
    condition of G.  ``p`` records the arrays' ill-posedness index (default
    1) for the families and diagnostics.
    """
    if p is not None and p <= 0:
        raise ParameterError("ill-posedness index must be positive")
    n = grid.n

    if isinstance(op_spec, SpectralSynthetic):
        if p is not None:
            raise ParameterError("a SpectralSynthetic spec records its own index p")
        G = cosine_design(grid, m0)
        lam = op_spec.values(m0)
        if np.max(np.abs(G @ G.T / n - np.eye(m0))) > 1e-10:
            raise ParameterError("a SpectralSynthetic spec needs a design with "
                                 "G G^t = n I (a midpoint grid)")
        return DiscretizedOperator(grid, G.T * lam, lam, np.eye(m0), G,
                                   float(op_spec.p))

    S = np.asarray(op_spec, dtype=float)
    if S.shape != (n, m0):
        raise DimensionError(f"sample matrix must be {n} x {m0}, got {S.shape}")
    blocks = _sampled_blocks(n, m0)
    proj = SampledProjection(grid, m0, (S[rows] for rows in blocks),
                             1.0 if p is None else p)
    M = math.sqrt(n) * np.linalg.solve(proj._R[:m0, :m0], proj._W).T
    Psi = np.empty((m0, n))
    for rows in blocks:
        Psi[:, rows] = M @ cosine_design(DesignGrid(grid.points[rows]), m0)
    C = np.linalg.inv(np.linalg.cholesky(Psi @ Psi.T / n))
    for rows in blocks:
        Psi[:, rows] = C @ Psi[:, rows]
    return DiscretizedOperator(grid, S, proj.singular_values, proj.x_vectors, Psi,
                               proj.p)


def choose_m0(n: int, p: float) -> int:
    """Smallest admissible projection dimension, ceil(n^(1/(2p+1))), capped at n."""
    if n < 1:
        raise ParameterError("sample size must be positive")
    if p <= 0:
        raise ParameterError("ill-posedness index must be positive")
    return min(n, math.ceil(n ** (1.0 / (2.0 * p + 1.0)) - 1e-12))


# ---------------------------------------------------------------------------
# ill-posedness diagnostics


@dataclass(frozen=True)
class IllposednessDiagnostics:
    """Operator-norm diagnostics over a ladder of nested model dimensions.

    gamma_upper[m] is the norm of the residual of the projection applied to
    the operator.  On the model spanned by the first m singular functions,
    gamma_lower[m] = lambda_m is the smallest amplification of the operator
    and nu[m] = 1/lambda_m the norm of the model-wise generalized inverse.
    Fitted constants bracket the singular-value decay (k1 j^-p <= lambda_j
    <= k2 j^-p) and the Gram spectrum (a1 n <= eig(G G^t) <= a2 n).
    Violations show up as flags, never as exceptions.
    """

    dims: tuple[int, ...]
    gamma_upper: np.ndarray
    gamma_lower: np.ndarray
    nu: np.ndarray
    ratio_bound: float
    sv_constants: tuple[float, float]
    sf_constants: tuple[float, float]
    sv_ok: bool
    sf_ok: bool
    as_ok: bool

    def to_report(self) -> str:
        lines = [
            f"dims = {','.join(str(d) for d in self.dims)}",
            f"gamma_upper = {','.join(repr(float(g)) for g in self.gamma_upper)}",
            f"gamma_lower = {','.join(repr(float(g)) for g in self.gamma_lower)}",
            f"nu = {','.join(repr(float(v)) for v in self.nu)}",
            f"ratio_bound = {self.ratio_bound!r}",
            f"sv_k1 = {self.sv_constants[0]!r}",
            f"sv_k2 = {self.sv_constants[1]!r}",
            f"sf_a1 = {self.sf_constants[0]!r}",
            f"sf_a2 = {self.sf_constants[1]!r}",
            f"sv_ok = {self.sv_ok}",
            f"sf_ok = {self.sf_ok}",
            f"as_ok = {self.as_ok}",
        ]
        return "\n".join(lines) + "\n"


def _decay_constants(lam: np.ndarray, p: float, dims: Sequence[int]):
    """(dims as a tuple, (k1, k2)): the checked diagnostic dimensions and the
    extremes of lambda_j j^p.  Dimensions outside [1, d], or an index p for
    which j^p overflows, raise ParameterError."""
    d = lam.size
    dims = tuple(int(m) for m in dims)
    if not dims or any(m < 1 or m > d for m in dims):
        raise ParameterError(f"diagnostic dimensions must be nonempty, in [1, {d}]")
    j = np.arange(1, d + 1, dtype=float)
    with np.errstate(over="ignore"):
        scaled = lam * j ** p
    if not np.all(np.isfinite(scaled)):
        raise ParameterError(f"[problem] p = {p!r} is so large that j^p overflows")
    return dims, (float(np.min(scaled)), float(np.max(scaled)))


def _assess(lam: np.ndarray, dims: tuple[int, ...], sv_constants, g_up: np.ndarray,
            sf_constants) -> IllposednessDiagnostics:
    """The diagnostics of the singular values ``lam``, the residual norms
    ``g_up`` at ``dims`` and the design spectrum's bounds ``sf_constants``;
    a fitted constant ratio above RATIO_TOL flags its assumption."""
    g_lo = lam[np.array(dims) - 1]
    ratio_bound = float(np.max(g_up / g_lo))
    (k1, k2), (a1, a2) = sv_constants, sf_constants
    sv_ok = k1 > 0 and k2 / k1 <= RATIO_TOL
    sf_ok = a1 > 0 and a2 / a1 <= RATIO_TOL
    as_ok = ratio_bound <= RATIO_TOL
    return IllposednessDiagnostics(dims, g_up, g_lo, 1.0 / g_lo, ratio_bound,
                                   (k1, k2), (a1, a2), sv_ok, sf_ok, as_ok)


# kept in this module, unexported, because bench/tracing.py wraps it by this path
def diagnostics(op: DiscretizedOperator, dims: Sequence[int]) -> IllposednessDiagnostics:
    """Compute the ill-posedness diagnostics of the projected operator.

    On the model spanned by the first m singular functions gamma_lower is
    lambda_m and nu is 1/lambda_m, read off the certified singular values.
    gamma_upper is the norm of the residual of the sampled images, from
    Euclidean coefficient space to the empirical norm: the square root of
    the largest eigenvalue of the residual's Gram matrix over n, the Gram
    matrix summed over the row blocks of ``_sampled_blocks``.  The Gram
    spectrum of the design is summed over the same blocks.  A fitted
    constant ratio above RATIO_TOL flags the corresponding assumption; a
    flag is advice, not an error.  An index p for which j^p overflows
    raises ParameterError.  This is the in-memory reading, from S and Psi,
    of ``SampledProjection.diagnostics``.
    """
    dims, sv_constants = _decay_constants(op.singular_values, op.p, dims)
    n, d = op.n, op.d

    # The projection of S on the first m singular functions is Psi_m^t C_m.
    # Residuals enter their Gram matrices times 2^-e, 2^e near max|S|, so
    # that their squares neither overflow nor underflow; the scaling is exact.
    S, Psi = op.sample_matrix, op.singular_design
    C = Psi @ S / n
    e = _exponent(S)
    resid_grams = np.zeros((len(dims), d, d))
    design_gram = np.zeros((d, d))
    for rows in _sampled_blocks(n, d):
        G_b = cosine_design(DesignGrid(op.grid.points[rows]), d)
        design_gram += G_b @ G_b.T
        for gram, m in zip(resid_grams, dims):
            resid = Psi[:m, rows].T @ C[:m]
            np.subtract(S[rows], resid, out=resid)
            np.ldexp(resid, -e, out=resid)
            gram += resid.T @ resid
    g_up = np.ldexp(np.sqrt(np.linalg.eigvalsh(resid_grams)[:, -1] / n), e)
    eigs = np.linalg.eigvalsh(design_gram)
    return _assess(op.singular_values, dims, sv_constants, g_up,
                   (float(eigs[0] / n), float(eigs[-1] / n)))
