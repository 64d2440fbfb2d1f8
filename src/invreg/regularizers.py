"""Families of regularization operators, each one K x d filter matrix.

Every supported regularization method is a spectral filter in the singular
coordinates of the projected operator: candidate k estimates coefficient j
as F[k, j] times the empirical singular coefficient of the data.  A family
stacks one filter row per tuning parameter, smoothest first:

    tikhonov    F[k, j] = lambda_j / (lambda_j^2 + alpha_k)
    projection  F[k, j] = 1 / lambda_j for j <= m_k, exactly 0 beyond.

A family is thus a function of the d singular values and n alone, with no
design.  The selection rule reads F and, per row, the trace sum(F[k]^2) / n
and the spectral radius max(F[k]^2) / n of R_k^t R_k; the dense d x n R_k
is ``DiscretizedOperator.regularizer``.  The qualification of a filter is
the largest source smoothness nu its bias can exploit: 1 for Tikhonov,
unlimited for spectral cut-off.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError, RankError

QUALIFICATION = {"tikhonov": 1.0, "projection": math.inf}


class RegularizerFamily:
    """Ordered candidates for sample size n, smoothest first, as rows of F.

    The ordering is load-bearing: ties in the selection objective are
    broken toward the earliest candidate, so families must be assembled
    from the smoothest (largest alpha, smallest model) to the roughest.
    """

    def __init__(self, kind: str, parameters: Sequence[float],
                 filter_matrix: np.ndarray, n: int):
        if filter_matrix.shape[0] == 0:
            raise ParameterError("regularizer family must be nonempty")
        self.kind = kind
        self.parameters = [float(v) for v in parameters]
        self.filter_matrix = filter_matrix
        self.n = n
        with np.errstate(over="ignore"):
            F2 = filter_matrix ** 2
            self.trace_stats = np.sum(F2, axis=1) / n
        self.radius_stats = np.max(F2, axis=1) / n
        # radius <= trace, so a finite trace bounds both statistics
        if not np.all(np.isfinite(self.trace_stats)):
            raise RankError(
                f"{kind} family: a squared filter value overflows (1/lambda_j^2 "
                "for a singular value below about 1e-154): [problem] p is too large, "
                "or the operator's singular values are too small")
        if not np.all(self.radius_stats > 0):
            raise ParameterError("regularizer is identically zero")

    def __len__(self) -> int:
        return self.filter_matrix.shape[0]

    def label(self, k: int) -> str:
        """Name of candidate k in selection.csv and the summary."""
        if self.kind == "tikhonov":
            return f"tikhonov(alpha={self.parameters[k]!r})"
        dims = ",".join(str(i) for i in range(1, int(self.parameters[k]) + 1))
        return f"projection(m={{{dims}}})"


def tikhonov_family(lam: np.ndarray, n: int, p: float, alpha_max: float = 1.0,
                    ratio: float = 0.5, count: int | None = None) -> RegularizerFamily:
    """Geometric grid alpha_max * ratio^k over the singular values ``lam``,
    truncated at alpha >= d^(-2p) with d = lam.size.

    The truncation keeps the model dimension large enough to resolve every
    candidate (the grid condition d >= alpha^(-1/(2p))).
    """
    if not (alpha_max > 0) or not (0 < ratio < 1):
        raise ParameterError("need alpha_max > 0 and 0 < ratio < 1")
    if count is not None and count < 1:
        raise ParameterError(f"tikhonov family needs count >= 1, got {count}")
    alpha_min = float(lam.size) ** (-2.0 * p)
    if not alpha_min > 0:
        raise ParameterError(
            f"tikhonov grid cutoff d^(-2p) underflows to 0 (d={lam.size}, p={p})")
    alphas = []
    a = alpha_max
    while a >= alpha_min and (count is None or len(alphas) < count):
        alphas.append(a)
        a *= ratio
    if not alphas:
        raise ParameterError(
            f"empty tikhonov grid: alpha_max={alpha_max} below cutoff {alpha_min}")
    F = lam / (lam ** 2 + np.array(alphas)[:, None])
    return RegularizerFamily("tikhonov", alphas, F, n)


def projection_family(lam: np.ndarray, n: int,
                      dims: Sequence[int] | None = None) -> RegularizerFamily:
    """Nested prefix models {1..j} for j in dims (default 1..d), d = lam.size."""
    d = lam.size
    if dims is None:
        dims = range(1, d + 1)
    dims = [int(j) for j in dims]
    if any(j < 1 or j > d for j in dims):
        raise ParameterError(f"projection dimensions must lie in [1, {d}]")
    if sorted(dims) != dims:
        raise ParameterError("projection dimensions must increase (smoothest first)")
    with np.errstate(over="ignore"):
        F = np.where(np.arange(d) < np.array(dims)[:, None], 1.0 / lam, 0.0)
    return RegularizerFamily("projection", dims, F, n)
