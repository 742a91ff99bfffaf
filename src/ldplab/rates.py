"""Log-determinant rate functions on finite blocks, column truncations of
k x infinity matrices, row truncations of square matrices, and symmetric
point configurations.

The common core is I(A) = -1/2 log det(I - A A^T), which is +inf once the
Gram operator norm reaches 1.  Truncations are certified monotone: appending
columns or rows can only increase the rate, so a finite truncation is always
a lower bound and is exact when the support is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import PointConfiguration
from .errors import DomainError, NumericalFailure
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

# Rates may wobble by eigensolver roundoff; a certified "non-decreasing"
# sequence tolerates this much backsliding before flagging a failure.
MONOTONE_SLACK = 1e-9

# Gram operator norms in [BOUNDARY_LO, 1 + 1e-10] count as "on the boundary";
# the rate there is +inf but the report keeps the case distinguishable.
BOUNDARY_LO = 1.0 - BOUNDARY_TOL
BOUNDARY_HI = 1.0 + 1e-10


@dataclass
class TruncationReport:
    """Partial rates along a truncation together with convergence info.

    ``partial_rates`` is non-decreasing; ``tail_bound`` is the sum of squared
    entries beyond the truncation, a diagnostic with no claimed error bound.
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


def _certified_monotone(raw_rates):
    out = []
    last = 0.0
    for r in raw_rates:
        if r < last - MONOTONE_SLACK:
            raise NumericalFailure(
                f"partial rate decreased from {last} to {r}; truncation "
                "monotonicity violated beyond numerical slack"
            )
        last = max(last, r)
        out.append(last)
    return out


def rate_truncated(a: ColumnList, max_level: int | None = None):
    """Rate of a finitely supported k x infinity matrix.

    Returns (value, report).  The supremum over column truncations is
    attained at the full column count, so the value is exact whenever
    ``max_level`` does not cut the support; otherwise it is the certified
    lower bound at ``max_level`` with the dropped mass in ``tail_bound``.
    """
    n_cols = a.count
    levels = n_cols if max_level is None else min(
        whole_number(max_level, "max_level", 1), n_cols)
    # every prefix Gram matrix at once, as running sums of column outer
    # products, and one batched eigensolve over the stack
    cols = a.columns[:, :levels].T
    grams = np.cumsum(cols[:, :, None] * cols[:, None, :], axis=0)
    raw = (-0.5 * log_det_complement(grams)).tolist()
    partial = _certified_monotone(raw)

    full_norm = operator_norm(gram(a.columns))
    boundary = BOUNDARY_LO <= full_norm <= BOUNDARY_HI
    report = TruncationReport(
        truncation_level=levels,
        partial_rates=partial,
        converged=(levels == n_cols),
        tail_bound=float(np.sum(a.columns[:, levels:] ** 2)),
        boundary=boundary,
    )
    if full_norm >= BOUNDARY_LO:
        # the full Gram norm decides the value even when max_level cuts the
        # reported levels
        if levels == n_cols and partial:
            partial[-1] = INF
        return INF, report
    return report.value, report


def rate_orthogonal_truncated(m, k_max: int) -> TruncationReport:
    """Partial rates of the leading k-row blocks of a square matrix.

    The k-th partial rate is the finite-block rate of the first k rows
    (all columns); Cauchy interlacing makes the sequence non-decreasing.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DomainError("matrix must be square")
    n = m.shape[0]
    levels = min(whole_number(k_max, "k_max", 1), n)
    # the Gram matrix of the first k rows is the leading k x k block of one
    # Gram matrix
    g = m[:levels] @ m[:levels].T
    partial = _certified_monotone(
        [-0.5 * log_det_complement(g[:k, :k]) for k in range(1, levels + 1)]
    )
    return TruncationReport(
        truncation_level=levels,
        partial_rates=partial,
        converged=(levels == n),
        tail_bound=float(np.sum(m[levels:, :] ** 2)),
        boundary=bool(
            partial and math.isinf(partial[-1])
            and BOUNDARY_LO <= operator_norm(g) <= BOUNDARY_HI
        ),
    )


def rate_configuration(mu: PointConfiguration) -> float:
    """Rate -1/2 log det(I - sum_i m_i p_i p_i^T) of a configuration: the
    finite-block rate of its atoms scaled by sqrt(m_i)."""
    if not mu.atoms:
        return 0.0
    return rate_finite(np.column_stack([math.sqrt(m) * p for p, m in mu.atoms]))
