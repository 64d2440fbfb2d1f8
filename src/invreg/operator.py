"""Empirical geometry of a fixed design and the projected forward operator.

Everything is built on a fixed observation grid t_1 < ... < t_n.  The
observation space carries the empirical norm ||y||_n = sqrt(mean(y_i^2));
the coefficient space carries the Euclidean norm.  A forward operator is
discretized by sampling the images of the first d basis functions on the
grid, projecting onto the span of a basis of the observation side, and
taking a singular value decomposition of the projected map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

# Rows of G^t per block in the blocked QR of the design's rank certificate.
QR_BLOCK_ROWS = 8192


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


def empirical_scalar_product(y, e, grid: DesignGrid) -> float:
    """Bilinear form (1/n) sum_i e_i y(t_i) associated with the empirical norm."""
    y = np.asarray(y, dtype=float)
    e = np.asarray(e, dtype=float)
    if y.shape != (grid.n,) or e.shape != (grid.n,):
        raise DimensionError("both vectors must match the grid length")
    return float(np.dot(y, e)) / grid.n


# ---------------------------------------------------------------------------
# basis families


class BasisFamily:
    """A family of functions sampled on a design grid: the analytic cosine
    family on [0, 1], or a user-supplied sample table tied to a fixed grid
    (``d_max`` functions)."""

    def __init__(self, sampler: Callable[[int, DesignGrid], np.ndarray],
                 d_max: int | None):
        self._sampler = sampler
        self.d_max = d_max

    def sample(self, j: int, grid: DesignGrid) -> np.ndarray:
        if j < 1 or (self.d_max is not None and j > self.d_max):
            raise ParameterError(f"basis index {j} out of range")
        return self._sampler(j, grid)


def cosine_basis() -> BasisFamily:
    """phi_1 = 1, phi_j(t) = sqrt(2) cos((j-1) pi t); orthonormal in L2[0,1]."""

    def sample(j: int, grid: DesignGrid) -> np.ndarray:
        if j == 1:
            return np.ones(grid.n)
        return math.sqrt(2.0) * np.cos((j - 1) * math.pi * grid.points)

    return BasisFamily(sample, d_max=None)


def table_basis(values, grid: DesignGrid) -> BasisFamily:
    """Basis known only through its sample table (d_max rows, one per function)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.n:
        raise DimensionError("sample table must be d_max x n for the supplied grid")
    if not np.all(np.isfinite(values)):
        raise ParameterError("basis sample table contains non-finite values")
    pts = grid.points

    def sample(j: int, g: DesignGrid) -> np.ndarray:
        if g.n != grid.n or not np.allclose(g.points, pts, rtol=0.0, atol=1e-12):
            raise ParameterError("table basis is tied to its own grid")
        return values[j - 1].copy()

    return BasisFamily(sample, d_max=values.shape[0])


def indicator_basis(grid: DesignGrid) -> BasisFamily:
    """phi_j = 1{t = t_j} on its own grid; design matrix is the identity."""
    return table_basis(np.eye(grid.n), grid)


# ---------------------------------------------------------------------------
# design matrices and empirical projection


@dataclass(frozen=True)
class DesignMatrix:
    """G[j, i] = phi_j(t_i), stored d_m x n with full row rank."""

    entries: np.ndarray
    d_m: int

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def gram(self) -> np.ndarray:
        """G G^t, the d_m x d_m Gram matrix of the sampled rows."""
        return self.entries @ self.entries.T


def sample_basis(basis: BasisFamily, grid: DesignGrid, d_m: int) -> np.ndarray:
    """The d_m x n array G[j, i] = phi_{j+1}(t_i), with no rank check.

    Raises DimensionError when d_m > n.
    """
    if d_m < 1:
        raise ParameterError("model dimension must be positive")
    if d_m > grid.n:
        raise DimensionError(f"model dimension {d_m} exceeds grid size {grid.n}")
    G = np.empty((d_m, grid.n))
    for j in range(d_m):
        G[j] = basis.sample(j + 1, grid)
    return G


def build_design_matrix(basis: BasisFamily, grid: DesignGrid, d_m: int) -> DesignMatrix:
    """Sample the first d_m basis functions on the grid and certify their rank.

    Raises DimensionError when d_m > n and DegenerateDesignError when the
    sampled rows are not linearly independent: the smallest singular value
    of G is at most RANK_RTOL times the largest.  The singular values are
    those of the d_m x d_m R factor of a QR of G^t, which is built from the
    R factors of row blocks of G^t (one TSQR step), so besides G itself the
    certificate holds about two copies of one block of QR_BLOCK_ROWS x d_m.
    """
    G = sample_basis(basis, grid, d_m)
    sv = np.linalg.svd(_design_r_factor(G), compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise DegenerateDesignError(
            f"design matrix is rank deficient (d_m={d_m}, n={grid.n})")
    return DesignMatrix(G, d_m)


def _design_r_factor(G: np.ndarray) -> np.ndarray:
    """Triangular factor R of G^t = QR from the R factors of row blocks of G^t."""
    d, n = G.shape
    step = max(QR_BLOCK_ROWS, d)
    blocks = [np.linalg.qr(G[:, i:i + step].T, mode="r") for i in range(0, n, step)]
    return np.linalg.qr(np.vstack(blocks), mode="r")


def empirical_projection(y, G: DesignMatrix) -> np.ndarray:
    """Coefficients of the empirical-norm projection of y onto span(phi_1..phi_d).

    Solves the least squares problem min_c ||y - G^t c|| (the normal
    equations of the projection under the design measure).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (G.n,):
        raise DimensionError(f"sample vector has length {y.size}, design has {G.n}")
    coef, _, rank, _ = np.linalg.lstsq(G.entries.T, y, rcond=RANK_RTOL)
    if rank < G.d_m:
        raise DegenerateDesignError("normal matrix of the design is singular")
    return coef


# ---------------------------------------------------------------------------
# discretized operator


@dataclass(frozen=True)
class SpectralSynthetic:
    """Operator acting diagonally on the basis with prescribed singular values.

    With ``p`` set the values are j^(-p); ``singular_values`` overrides
    them explicitly.  "identity" is SpectralSynthetic(singular_values=1).
    """

    p: float | None = None
    singular_values: Sequence[float] | None = None

    def values(self, d: int) -> np.ndarray:
        if self.singular_values is not None:
            lam = np.asarray(self.singular_values, dtype=float)
            if lam.ndim == 0:
                lam = np.full(d, float(lam))
            if lam.size < d:
                raise ParameterError("too few singular values for the model size")
            return lam[:d].copy()
        if self.p is None or self.p <= 0:
            raise ParameterError("spectral-synthetic spec needs p > 0 or explicit values")
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
    Psi Psi^t = n I).  In these coordinates the composition adjoint-then-
    forward is the diagonal matrix of squared singular values.
    """

    grid: DesignGrid
    G: DesignMatrix
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

    def forward(self, x) -> np.ndarray:
        """Samples of the projected operator applied to coefficients x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionError(f"coefficient vector has length {x.size}, need {self.d}")
        xi = self.x_vectors.T @ x
        return self.singular_design.T @ (self.singular_values * xi)

    def forward_raw(self, x) -> np.ndarray:
        """Samples of the unprojected images, straight from the sample matrix."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionError(f"coefficient vector has length {x.size}, need {self.d}")
        return self.sample_matrix @ x

    def adjoint(self, y) -> np.ndarray:
        """Adjoint of the projected operator applied to a sample vector."""
        return self.x_vectors @ (self.singular_values * self.svd_coefficients(y))

    def svd_coefficients(self, y) -> np.ndarray:
        """Empirical inner products of y with the singular functions."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DimensionError(f"sample vector has length {y.size}, grid has {self.n}")
        return self.singular_design @ y / self.n

    def regularizer(self, f) -> np.ndarray:
        """Dense d x n matrix of the filter row f: sample vector to coefficients."""
        return self.x_vectors @ (f[:, None] * self.singular_design) / self.n


def discretize_operator(op_spec, basis: BasisFamily, grid: DesignGrid,
                        m0: int, p: float | None = None) -> DiscretizedOperator:
    """Project a forward operator onto the first m0 basis functions.

    ``op_spec`` is either a SpectralSynthetic (prescribed spectrum acting
    diagonally on the basis), the string "identity", or an n x d array of
    sampled images of the coefficient basis.  ``p`` records the
    ill-posedness index when op_spec does not imply one.
    """
    if p is not None and p <= 0:
        raise ParameterError("ill-posedness index must be positive")
    if isinstance(op_spec, str):
        if op_spec != "identity":
            raise ParameterError(f"unknown operator spec {op_spec!r}")
        op_spec = SpectralSynthetic(singular_values=np.ones(m0))
    G = build_design_matrix(basis, grid, m0)

    if isinstance(op_spec, SpectralSynthetic):
        lam = op_spec.values(m0)
        if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
            raise ParameterError("singular values must be positive and non-increasing")
        S = G.entries.T * lam
        degree = float(p if p is not None else (op_spec.p or 1.0))
        gram = G.gram()
        if np.max(np.abs(gram / grid.n - np.eye(m0))) <= 1e-10:
            # exactly orthonormal design: the given basis is the singular basis
            return DiscretizedOperator(grid, G, S, lam, np.eye(m0), G.entries, degree)
        return _svd_operator(S, G, grid, degree)

    S = np.asarray(op_spec, dtype=float)
    if S.shape != (grid.n, m0):
        raise DimensionError(f"sample matrix must be {grid.n} x {m0}, got {S.shape}")
    return _svd_operator(S, G, grid, float(p if p is not None else 1.0))


def _svd_operator(S: np.ndarray, G: DesignMatrix, grid: DesignGrid,
                  p: float) -> DiscretizedOperator:
    """Empirical SVD of the projection of the sampled images onto span(G)."""
    n, d = S.shape
    # Euclidean-orthonormal basis of the sampled observation space.
    B, _ = np.linalg.qr(G.entries.T)
    K = B.T @ S / math.sqrt(n)
    W, lam, Vt = np.linalg.svd(K)
    if lam[-1] <= RANK_RTOL * lam[0]:
        raise RankError("projected operator has a numerically zero singular value")
    V = Vt.T
    # canonical signs: largest component of each coefficient vector positive
    for j in range(d):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
            W[:, j] = -W[:, j]
    Psi = math.sqrt(n) * (B @ W).T
    return DiscretizedOperator(grid, G, S, lam, V, Psi, p)


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
    the operator, gamma_lower[m] the smallest amplification of the adjoint
    on the model space, nu[m] the norm of the model-wise generalized
    inverse.  Fitted constants bracket the singular-value decay
    (k1 j^-p <= lambda_j <= k2 j^-p) and the Gram spectrum
    (a1 n <= eig(G G^t) <= a2 n).  Violations show up as flags, never as
    exceptions.
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


def diagnostics(op: DiscretizedOperator, dims: Sequence[int],
                ratio_tol: float = 1e3) -> IllposednessDiagnostics:
    """Compute the ill-posedness diagnostics of the projected operator.

    All norms are largest singular values of explicit dense matrices; the
    maps go from Euclidean coefficient space to the empirical norm.  A
    fitted constant ratio above ``ratio_tol`` flags the corresponding
    assumption; a flag is advice, not an error.
    """
    dims = tuple(int(m) for m in dims)
    if not dims or any(m < 1 or m > op.d for m in dims):
        raise ParameterError(f"diagnostic dimensions must be nonempty, in [1, {op.d}]")
    n = op.n
    S = op.sample_matrix
    B = op.singular_design.T / math.sqrt(n)
    g_up, g_lo, nus = [], [], []
    for m in dims:
        Bm = B[:, :m]
        resid = S - Bm @ (Bm.T @ S)
        g_up.append(np.linalg.svd(resid, compute_uv=False)[0] / math.sqrt(n))
        Km = Bm.T @ S / math.sqrt(n)
        sv = np.linalg.svd(Km, compute_uv=False)
        g_lo.append(sv[min(m, sv.size) - 1])
        nus.append(np.linalg.norm(np.linalg.pinv(Km), 2))
    g_up = np.array(g_up)
    g_lo = np.array(g_lo)
    nus = np.array(nus)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(g_lo > 0, g_up / g_lo, np.inf)
    finite = ratios[np.isfinite(ratios)]
    ratio_bound = float(np.max(finite)) if finite.size else math.inf

    j = np.arange(1, op.d + 1, dtype=float)
    scaled = op.singular_values * j ** op.p
    k1, k2 = float(np.min(scaled)), float(np.max(scaled))
    eigs = np.linalg.eigvalsh(op.G.gram())
    a1, a2 = float(eigs[0] / n), float(eigs[-1] / n)

    sv_ok = k1 > 0 and k2 / k1 <= ratio_tol
    sf_ok = a1 > 0 and a2 / a1 <= ratio_tol
    as_ok = bool(np.all(g_lo > 0)) and ratio_bound <= ratio_tol
    return IllposednessDiagnostics(dims, g_up, g_lo, nus, ratio_bound,
                                   (k1, k2), (a1, a2), sv_ok, sf_ok, as_ok)
