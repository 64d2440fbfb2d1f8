"""Families of regularization operators, each one K x d filter matrix.

Every supported regularization method is a spectral filter in the singular
coordinates of the projected operator: candidate k estimates coefficient j
as F[k, j] times the empirical singular coefficient of the data.  A family
stacks one filter row per tuning parameter, smoothest first:

    tikhonov    F[k, j] = lambda_j / (lambda_j^2 + alpha_k)
    projection  F[k, j] = 1 / lambda_j for j <= m_k, exactly 0 beyond.

The selection rule reads F and, per row, the trace sum(F[k]^2) / n and the
spectral radius max(F[k]^2) / n of R_k^t R_k.  The qualification of a
filter is the largest source smoothness nu its bias can exploit: 1 for
Tikhonov, unlimited for spectral cut-off.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .operator import DiscretizedOperator

QUALIFICATION = {"tikhonov": 1.0, "projection": math.inf}


class RegularizerFamily:
    """Ordered candidates, smoothest first, as rows of ``filter_matrix``.

    The ordering is load-bearing: ties in the selection objective are
    broken toward the earliest candidate, so families must be assembled
    from the smoothest (largest alpha, smallest model) to the roughest.
    """

    def __init__(self, op: DiscretizedOperator, kind: str,
                 parameters: Sequence[float], filter_matrix: np.ndarray):
        if filter_matrix.shape[0] == 0:
            raise ParameterError("regularizer family must be nonempty")
        self.op = op
        self.kind = kind
        self.parameters = [float(v) for v in parameters]
        self.filter_matrix = filter_matrix
        F2 = filter_matrix ** 2
        self.trace_stats = np.sum(F2, axis=1) / op.n
        self.radius_stats = np.max(F2, axis=1) / op.n
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

    def matrix(self, k: int) -> np.ndarray:
        """Dense d x n matrix of candidate k: sample vector to coefficients."""
        op = self.op
        return op.x_vectors @ (self.filter_matrix[k][:, None]
                               * op.singular_design) / op.n


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
    lam = op.singular_values
    F = lam / (lam ** 2 + np.array(alphas)[:, None])
    return RegularizerFamily(op, "tikhonov", alphas, F)


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
    F = np.where(np.arange(op.d) < np.array(dims)[:, None],
                 1.0 / op.singular_values, 0.0)
    return RegularizerFamily(op, "projection", dims, F)
