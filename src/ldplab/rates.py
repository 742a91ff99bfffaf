"""Log-determinant rate functions on finite blocks, column truncations of
k x infinity matrices, row truncations of square matrices, and symmetric
point configurations.

The common core is I(A) = -1/2 log det(I - A A^T), which is +inf once the
Gram operator norm reaches 1.  Truncations are monotone by construction
(Schur pivots): appending columns or rows can only increase the rate, so a
finite truncation is always a lower bound and is exact when the support is
finite.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import PointConfiguration
from .errors import DomainError
from .linalg import (
    BOUNDARY_TOL,
    ColumnList,
    as_matrix,
    gram,
    log_det_complement,
    operator_norm,
    whole_number,
)

INF = float("inf")

# Gram operator norms in [BOUNDARY_LO, 1 + 1e-10] count as "on the boundary";
# the rate there is +inf but the report keeps the case distinguishable.
BOUNDARY_LO = 1.0 - BOUNDARY_TOL
BOUNDARY_HI = 1.0 + 1e-10


@dataclass
class TruncationReport:
    """Partial rates along a truncation together with convergence info.

    ``partial_rates`` is non-decreasing, monotone by construction (Schur
    pivots); ``tail_bound`` is the sum of squared entries beyond the
    truncation, a diagnostic with no claimed error bound.
    """

    truncation_level: int
    partial_rates: list = field(default_factory=list)
    converged: bool = True
    tail_bound: float = 0.0
    boundary: bool = False

    @property
    def value(self) -> float:
        return self.partial_rates[-1] if self.partial_rates else 0.0


def rate_finite(a) -> float:
    """-1/2 log det(I - A A^T) for a finite block; +inf when ||A A^T|| >= 1."""
    return -0.5 * log_det_complement(gram(a))


def _prefix_rates(x: np.ndarray) -> list:
    """Partial rates -1/2 log det(I - G_j), j = 1..count, G_j the Gram of
    the first j columns of the (dim, count) array ``x``.

    Rate j is -1/2 sum_{i<=j} log1p(-q_i), 1 - q_i being the i-th Schur
    pivot of I - x^T x.  Each q_i >= 0 is formed without cancellation, so the
    rates never decrease and small ones stay accurate.  Prefix Grams grow in
    the Loewner order: bisection finds the first level on the boundary by
    ``log_det_complement``'s rule, and from it on the rates are +inf.
    """
    dim, count = x.shape
    if count <= dim:
        g = x.T @ x
        prefix = lambda j: g[:j, :j]
    else:
        grams = np.cumsum(x.T[:, :, None] * x.T[:, None, :], axis=0)
        prefix = lambda j: grams[j - 1]
    on_boundary = lambda j: log_det_complement(prefix(j)) == -INF
    finite = (bisect.bisect_left(range(1, count), True, key=on_boundary)
              if count and on_boundary(count) else count)
    if count <= dim:
        # I - G = L L^T gives q_j = g_jj + sum_{l<j} L_jl^2
        low = np.tril(np.linalg.cholesky(np.eye(finite) - prefix(finite)), -1)
        q = np.diagonal(g)[:finite] + np.sum(low**2, axis=1)
    else:
        # q_j = c_j^T (I - G_{j-1})^{-1} c_j >= 0, each complement being PD
        before = np.eye(dim) - np.concatenate([np.zeros((1, dim, dim)), grams])[:finite]
        cols = x.T[:finite, :, None]
        q = np.sum(cols * np.linalg.solve(before, cols), axis=(1, 2))
    return np.cumsum(-0.5 * np.log1p(-q)).tolist() + [INF] * (count - finite)


def _truncation(x: np.ndarray, levels: int):
    """(value, report) for the first ``levels`` columns of the (dim, count)
    array ``x``; a row truncation of M is the column truncation of M^T.

    The Gram norm of the whole input sets ``boundary``, and the value (+inf
    from ``BOUNDARY_LO`` on) when ``levels`` cuts the input.  A finite last
    rate already puts it below ``BOUNDARY_LO``, so it is then not computed.
    """
    partial = _prefix_rates(x[:, :levels])
    cut = levels < x.shape[1]
    norm = operator_norm(gram(x)) if cut or (partial and math.isinf(partial[-1])) else 0.0
    report = TruncationReport(
        truncation_level=levels,
        partial_rates=partial,
        converged=not cut,
        tail_bound=float(np.sum(x[:, levels:] ** 2)),
        boundary=BOUNDARY_LO <= norm <= BOUNDARY_HI,
    )
    return (INF if cut and norm >= BOUNDARY_LO else report.value), report


def rate_truncated(a: ColumnList, max_level: int | None = None):
    """Rate of a finitely supported k x infinity matrix.

    Returns (value, report).  The supremum over column truncations is
    attained at the full column count, so the value is exact whenever
    ``max_level`` does not cut the support; otherwise it is the lower bound
    at ``max_level`` with the dropped mass in ``tail_bound``.
    """
    levels = a.count if max_level is None else min(
        whole_number(max_level, "max_level", 1), a.count)
    return _truncation(a.columns, levels)


def rate_orthogonal_truncated(m, k_max: int) -> TruncationReport:
    """Partial rates of the leading k-row blocks of a square matrix, the k-th
    being the finite-block rate of the first k rows; ``boundary`` describes
    the whole matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    return _truncation(m.T, min(whole_number(k_max, "k_max", 1), m.shape[0]))[1]


def rate_configuration(mu: PointConfiguration) -> float:
    """Rate -1/2 log det(I - sum_i m_i p_i p_i^T) of a configuration: the
    finite-block rate of its atoms scaled by sqrt(m_i)."""
    if not mu.atoms:
        return 0.0
    return rate_finite(np.column_stack([math.sqrt(m) * p for p, m in mu.atoms]))
