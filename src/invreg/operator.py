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
blocks of ``_row_blocks``.  A sampled operator is projected one row block
of the grid at a time (a tall-skinny QR of G^t: one QR per block, then
one of the stacked R factors), and its diagnostics accumulate d x d Gram
matrices over the same blocks, so neither holds an n x d array besides
the samples S and the singular design Psi.
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

# Elements of one row block of the design on the sampled path and in the
# diagnostics: their _row_blocks step is max(d, DESIGN_BLOCK_ELEMENTS // d)
# grid points.
DESIGN_BLOCK_ELEMENTS = 1 << 16


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
    for j in range(1, d_m):
        G[j] = math.sqrt(2.0) * np.cos(j * math.pi * grid.points)
    return G


def _row_blocks(n: int, step: int) -> list[slice]:
    """Consecutive slices covering range(n) in k = max(1, n // step) nearly
    equal row blocks, the i-th from n*i//k to n*(i+1)//k, so each block has
    at least ``step`` rows unless the whole range has fewer.  The one block
    rule of every blocked pass; each caller passes its own step."""
    k = max(1, n // step)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def build_design_matrix(grid: DesignGrid, d_m: int) -> np.ndarray:
    """The cosine design of ``grid``, certified to have full row rank by the
    R factor of one QR of G^t (DegenerateDesignError on failure)."""
    G = cosine_design(grid, d_m)
    _certify_rank(np.linalg.qr(G.T, mode="r"))
    return G


def _certify_rank(R: np.ndarray) -> None:
    """Raise DegenerateDesignError unless the design G has full row rank:
    R, the d x d factor of a QR of G^t, has the singular values of G, and
    the smallest must exceed RANK_RTOL times the largest."""
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise DegenerateDesignError(f"design matrix is rank deficient (d_m={R.shape[0]})")


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


def discretize_operator(op_spec, grid: DesignGrid, m0: int,
                        p: float | None = None) -> DiscretizedOperator:
    """Project a forward operator onto the first m0 cosines of the grid.

    ``op_spec`` is a SpectralSynthetic (singular values j^(-p) acting
    diagonally on the cosines; needs G G^t = n I, as on ``midpoint_grid``,
    and takes no ``p`` besides its own) or an n x m0 array of sampled
    images of the coefficient basis.  The array is projected on the
    orthonormal basis Q = diag(Q_b) Q_top of a tall-skinny QR of G^t: one
    QR G_b^t = Q_b R_b per row block of the grid, then one QR of the
    stacked R_b, whose R factor certifies the design's rank.  Each Q_b is
    kept in its block's columns of Psi until Psi is formed there.  ``p``
    records the arrays' ill-posedness index (default 1) for the families
    and diagnostics.
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
    Psi = np.empty((m0, n))
    blocks = _row_blocks(n, max(m0, DESIGN_BLOCK_ELEMENTS // max(m0, 1)))
    R_blocks, QtS_blocks = [], []
    for rows in blocks:
        Q_b, R_b = np.linalg.qr(cosine_design(DesignGrid(grid.points[rows]), m0).T)
        Psi[:, rows] = Q_b.T
        R_blocks.append(R_b)
        QtS_blocks.append(Q_b.T @ S[rows])
    Q_top, R = np.linalg.qr(np.vstack(R_blocks))
    _certify_rank(R)
    # Q^t S = sum_b Q_top,b^t (Q_b^t S_b), Q_top,b the b-th d x d block of Q_top
    K = Q_top.T @ np.vstack(QtS_blocks) / math.sqrt(n)
    W, lam, Vt = np.linalg.svd(K)
    if lam[-1] <= RANK_RTOL * lam[0]:
        raise RankError("projected operator has a numerically zero singular value")
    V = Vt.T
    # canonical signs: largest component of each coefficient vector positive
    for j in range(m0):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
            W[:, j] = -W[:, j]
    # Psi = sqrt(n) (Q W)^t, block b being sqrt(n) (Q_top,b W)^t Q_b^t
    for b, rows in enumerate(blocks):
        top = Q_top[b * m0:(b + 1) * m0]
        Psi[:, rows] = (math.sqrt(n) * (top @ W).T) @ Psi[:, rows]
    return DiscretizedOperator(grid, S, lam, V, Psi, 1.0 if p is None else float(p))


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
    the operator, read off the largest eigenvalue of the residual's d x d
    Gram matrix.
    On the model spanned by the first m singular functions, gamma_lower[m]
    = lambda_m is the smallest amplification of the operator and nu[m] =
    1/lambda_m the norm of the model-wise generalized inverse.  Fitted
    constants bracket the singular-value decay (k1 j^-p <= lambda_j <=
    k2 j^-p) and the Gram spectrum (a1 n <= eig(G G^t) <= a2 n).
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


def diagnostics(op: DiscretizedOperator, dims: Sequence[int]) -> IllposednessDiagnostics:
    """Compute the ill-posedness diagnostics of the projected operator.

    On the model spanned by the first m singular functions gamma_lower is
    lambda_m and nu is 1/lambda_m, read off the certified singular values.
    gamma_upper is the norm of the residual of the sampled images, from
    Euclidean coefficient space to the empirical norm: the square root of
    the largest eigenvalue of the residual's Gram matrix over n, the Gram
    matrix summed over row blocks of the grid.  The Gram spectrum of the
    design is summed over the same blocks.  A fitted constant ratio above
    RATIO_TOL flags the corresponding assumption; a flag is advice, not an
    error.  An index p for which j^p overflows raises ParameterError.
    """
    dims = tuple(int(m) for m in dims)
    if not dims or any(m < 1 or m > op.d for m in dims):
        raise ParameterError(f"diagnostic dimensions must be nonempty, in [1, {op.d}]")
    n, d = op.n, op.d
    j = np.arange(1, d + 1, dtype=float)
    with np.errstate(over="ignore"):
        scaled = op.singular_values * j ** op.p
    if not np.all(np.isfinite(scaled)):
        raise ParameterError(f"[problem] p = {op.p!r} is so large that j^p overflows")
    k1, k2 = float(np.min(scaled)), float(np.max(scaled))

    # The projection of S on the first m singular functions is Psi_m^t C_m.
    # Residuals enter their Gram matrices times 2^-e, 2^e near max|S|, so
    # that their squares neither overflow nor underflow; the scaling is exact.
    S, Psi = op.sample_matrix, op.singular_design
    C = Psi @ S / n
    e = int(np.frexp(max(S.max(), -S.min()))[1])
    resid_grams = np.zeros((len(dims), d, d))
    design_gram = np.zeros((d, d))
    for rows in _row_blocks(n, max(d, DESIGN_BLOCK_ELEMENTS // d)):
        G_b = cosine_design(DesignGrid(op.grid.points[rows]), d)
        design_gram += G_b @ G_b.T
        for gram, m in zip(resid_grams, dims):
            resid = Psi[:m, rows].T @ C[:m]
            np.subtract(S[rows], resid, out=resid)
            np.ldexp(resid, -e, out=resid)
            gram += resid.T @ resid
    g_up = np.ldexp(np.sqrt(np.linalg.eigvalsh(resid_grams)[:, -1] / n), e)
    g_lo = op.singular_values[np.array(dims) - 1]
    ratio_bound = float(np.max(g_up / g_lo))

    eigs = np.linalg.eigvalsh(design_gram)
    a1, a2 = float(eigs[0] / n), float(eigs[-1] / n)

    sv_ok = k1 > 0 and k2 / k1 <= RATIO_TOL
    sf_ok = a1 > 0 and a2 / a1 <= RATIO_TOL
    as_ok = ratio_bound <= RATIO_TOL
    return IllposednessDiagnostics(dims, g_up, g_lo, 1.0 / g_lo, ratio_bound,
                                   (k1, k2), (a1, a2), sv_ok, sf_ok, as_ok)
