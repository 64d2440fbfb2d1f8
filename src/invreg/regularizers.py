"""Families of regularization operators realized as explicit matrices.

Every supported smoothing choice is diagonal in the singular coordinates
of the projected operator: a candidate is described by nonnegative (or
infinite) damping weights a_j and acts through the spectral filter

    f_j = lambda_j / (lambda_j^2 + a_j^2),

so the estimate is f_j times the empirical singular coefficient of the
data.  Infinite damping is realized as an exact zero filter value (the
limit of the resolvent), never as a floating-point infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, ParameterError
from .operator import DiscretizedOperator


@dataclass(frozen=True)
class Tikhonov:
    """Uniform damping sqrt(alpha) on every coordinate."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ParameterError("tikhonov parameter must be positive")

    def label(self) -> str:
        return f"tikhonov(alpha={self.alpha!r})"


@dataclass(frozen=True)
class Projection:
    """Exact inversion on an index subset, zero estimate off it (1-based)."""

    indices: frozenset[int]

    def __init__(self, indices):
        object.__setattr__(self, "indices", frozenset(int(i) for i in indices))
        if not self.indices:
            raise ParameterError("projection index set must be nonempty")
        if min(self.indices) < 1:
            raise ParameterError("projection indices are 1-based")

    def label(self) -> str:
        return f"projection(m={{{','.join(str(i) for i in sorted(self.indices))}}})"


@dataclass(frozen=True)
class Diagonal:
    """Per-coordinate damping weights in [0, +inf], at least one finite."""

    entries: tuple[float, ...]

    def __init__(self, entries: Sequence[float]):
        ent = tuple(float(a) for a in entries)
        if any(a < 0 for a in ent):
            raise ParameterError("damping weights must be nonnegative")
        if not any(math.isfinite(a) for a in ent):
            raise ParameterError("at least one damping weight must be finite")
        object.__setattr__(self, "entries", ent)

    def label(self) -> str:
        return f"diagonal(d={len(self.entries)})"


RegularizerSpec = Union[Tikhonov, Projection, Diagonal]


class Regularizer:
    """One realized smoothing operator with cached spectral statistics.

    ``filter_values`` are the diagonal factors in singular coordinates;
    ``trace_stat`` and ``radius_stat`` are the trace and spectral radius of
    the matrix composed with its transpose, i.e. sum(f^2)/n and max(f^2)/n.
    """

    def __init__(self, spec: RegularizerSpec, op: DiscretizedOperator,
                 filter_values: np.ndarray):
        self.spec = spec
        self.op = op
        self.filter_values = filter_values
        f2 = filter_values ** 2
        self.trace_stat = float(np.sum(f2)) / op.n
        self.radius_stat = float(np.max(f2)) / op.n
        if not self.radius_stat > 0:
            raise ParameterError("regularizer is identically zero")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense d x n matrix mapping a sample vector to coefficients."""
        return self.op.x_vectors @ (self.filter_values[:, None]
                                    * self.op.singular_design) / self.op.n

    @property
    def kind(self) -> str:
        return type(self.spec).__name__.lower()

    def apply(self, y) -> np.ndarray:
        """Estimate coefficients from a sample vector (filter in SVD coordinates)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.op.n,):
            raise DimensionError(f"sample vector has length {y.size}, need {self.op.n}")
        return self.op.x_vectors @ (self.filter_values * self.op.svd_coefficients(y))

    def label(self) -> str:
        return self.spec.label()


def build_regularizer(spec: RegularizerSpec, op: DiscretizedOperator) -> Regularizer:
    """Realize a smoothing choice against the projected operator."""
    lam = op.singular_values
    if isinstance(spec, Tikhonov):
        f = lam / (lam ** 2 + spec.alpha)
    elif isinstance(spec, Projection):
        if max(spec.indices) > op.d:
            raise ParameterError(
                f"projection index {max(spec.indices)} exceeds model size {op.d}")
        f = np.zeros(op.d)
        idx = np.fromiter((i - 1 for i in sorted(spec.indices)), dtype=int)
        f[idx] = 1.0 / lam[idx]
    elif isinstance(spec, Diagonal):
        if len(spec.entries) != op.d:
            raise DimensionError(
                f"diagonal spec has {len(spec.entries)} entries, operator has {op.d}")
        a = np.asarray(spec.entries, dtype=float)
        f = np.zeros(op.d)
        finite = np.isfinite(a)
        f[finite] = lam[finite] / (lam[finite] ** 2 + a[finite] ** 2)
    else:
        raise ParameterError(f"unknown regularizer spec {spec!r}")
    return Regularizer(spec, op, f)


def regularized_truth(reg: Regularizer, op: DiscretizedOperator, x0) -> np.ndarray:
    """Noiseless image of the truth through the regularizer (bias carrier)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (op.d,):
        raise DimensionError(f"truth vector has length {x0.size}, need {op.d}")
    xi = op.x_vectors.T @ x0
    return op.x_vectors @ (reg.filter_values * op.singular_values * xi)


class RegularizerFamily:
    """Ordered collection of candidates, smoothest first.

    The ordering is load-bearing: ties in the selection objective are
    broken toward the earliest candidate, so families must be assembled
    from the smoothest (largest alpha, smallest index set) to the
    roughest.
    """

    def __init__(self, candidates: Sequence[Regularizer], kind: str,
                 parameters: Sequence[float]):
        if not candidates:
            raise ParameterError("regularizer family must be nonempty")
        self.candidates = list(candidates)
        self.kind = kind
        self.parameters = [float(v) for v in parameters]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    @cached_property
    def filter_matrix(self) -> np.ndarray:
        """K x d matrix stacking every candidate's filter values."""
        return np.vstack([reg.filter_values for reg in self.candidates])

    def trace_stats(self) -> np.ndarray:
        return np.array([reg.trace_stat for reg in self.candidates])

    def radius_stats(self) -> np.ndarray:
        return np.array([reg.radius_stat for reg in self.candidates])

    def statistics_rows(self):
        """CSV rows (k, kind, parameter, trace_stat, radius_stat)."""
        return [(k, reg.kind, self.parameters[k], reg.trace_stat, reg.radius_stat)
                for k, reg in enumerate(self.candidates)]


def tikhonov_family(op: DiscretizedOperator, alpha_max: float = 1.0,
                    ratio: float = 0.5, count: int | None = None) -> RegularizerFamily:
    """Geometric grid alpha_max * ratio^k, truncated at alpha >= d^(-2p).

    The truncation keeps the model dimension large enough to resolve every
    candidate (the grid condition d >= alpha^(-1/(2p))).
    """
    if not (alpha_max > 0) or not (0 < ratio < 1):
        raise ParameterError("need alpha_max > 0 and 0 < ratio < 1")
    alpha_min = float(op.d) ** (-2.0 * op.p)
    alphas = []
    a = alpha_max
    while a >= alpha_min and (count is None or len(alphas) < count):
        alphas.append(a)
        a *= ratio
    if not alphas:
        raise ParameterError(
            f"empty tikhonov grid: alpha_max={alpha_max} below cutoff {alpha_min}")
    regs = [build_regularizer(Tikhonov(a), op) for a in alphas]
    return RegularizerFamily(regs, "tikhonov", alphas)


def projection_family(op: DiscretizedOperator,
                      dims: Sequence[int] | None = None) -> RegularizerFamily:
    """Nested prefix models {1..j} for j in dims (default 1..d)."""
    if dims is None:
        dims = range(1, op.d + 1)
    dims = [int(j) for j in dims]
    if any(j < 1 or j > op.d for j in dims):
        raise ParameterError(f"projection dimensions must lie in [1, {op.d}]")
    if sorted(dims) != dims:
        raise ParameterError("projection dimensions must increase (smoothest first)")
    regs = [build_regularizer(Projection(range(1, j + 1)), op) for j in dims]
    return RegularizerFamily(regs, "projection", dims)
