"""Dense symmetric linear algebra used throughout the package.

Matrices are plain float64 numpy arrays.  A k x n matrix stands for k row
vectors in R^n; its Gram matrix is A A^T.  Symmetric inputs are read through
their lower triangle, as ``numpy.linalg.eigvalsh`` reads them.  Each public
function validates its input once and computes the spectrum it needs; only
:func:`psd_sqrt` runs a full eigendecomposition.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, DomainError, NumericalFailure

# Eigenvalues of a Gram matrix are >= 0 in exact arithmetic; anything more
# negative than this is treated as a genuine failure, anything above is
# clamped to zero.
NEG_EIG_TOL = 1e-10

# Operator norms within this distance of 1 are classified as "on the
# boundary": log det(I - S) is reported as -inf there.
BOUNDARY_TOL = 1e-12


def finite_array(a, what: str) -> np.ndarray:
    """``a`` as a float64 array (not copied if it is one) of finite reals, else DomainError."""
    try:
        m = np.asarray(a)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"{what} must form a rectangular array: {exc}") from None
    if m.dtype.kind not in "iuf" or not np.isfinite(m).all():
        raise DomainError(f"{what} must be finite real numbers, got {a!r:.80}")
    return m.astype(np.float64, copy=False)


def whole_number(value, name: str, minimum: int) -> int:
    """``value`` as an int; :class:`DomainError` unless it is a real whole
    number (not a bool) >= ``minimum``.  2.0 is read as 2.  Every count,
    dimension and order the package takes goes through this rule."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value % 1 == 0)
    if isinstance(value, bool) or not whole or value < minimum:
        raise DomainError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def increasing_n_values(values, name: str) -> list:
    """``values`` as ints; :class:`DomainError` unless each is a whole number
    >= 1 and the list is non-empty and increasing."""
    values = [whole_number(n, f"each n in {name}", 1) for n in values]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"{name} must be non-empty and increasing")
    return values


def as_matrix(a, what: str = "matrix entries", stacked: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d float64 array (or a stack when ``stacked``)."""
    m = finite_array(a, what)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _as_square(s, stacked: bool = False) -> np.ndarray:
    m = as_matrix(s, stacked=stacked)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch("matrix is not square")
    if m.shape[-1] == 0:
        raise DimensionMismatch("need at least one row")
    return m


def _check_psd(lam: np.ndarray) -> None:
    # lam holds ascending spectra along its last axis; the first test is a
    # cheap necessary condition for the second
    if (lam < -NEG_EIG_TOL).any():
        lo = lam[..., 0]
        if (lo < -NEG_EIG_TOL * np.maximum(1.0, lam[..., -1])).any():
            raise NumericalFailure(
                f"matrix is not PSD: smallest eigenvalue {lo.min():.3e}"
            )


def _eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending spectra over the last two axes, clamped at 0."""
    try:
        lam = np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    _check_psd(lam)
    return np.maximum(lam, 0.0)


def gram(a) -> np.ndarray:
    """Gram matrix A A^T of the rows of ``a``.

    The accumulation order is the fixed row-major order of ``np.matmul``,
    so repeated calls on identical input are bit-identical, and the result
    is exactly symmetric.
    """
    a = as_matrix(a)
    if a.shape[0] < 1:
        raise DimensionMismatch("need at least one row")
    return a @ a.T


def sym_eigenvalues(s) -> np.ndarray:
    """Eigenvalues of the symmetric PSD matrix ``s``, sorted non-increasing."""
    return _eigenvalues(_as_square(s))[::-1]


def operator_norm(s) -> float:
    """Largest eigenvalue of a symmetric PSD matrix."""
    return float(_eigenvalues(_as_square(s))[-1])


def log_det_complement(s):
    """log det(I - S) = sum_i log(1 - lambda_i) for symmetric PSD S, or -inf.

    ``s`` is one k x k matrix, giving a float, or a stack (..., k, k),
    giving an array.  The value is -inf as soon as the top eigenvalue
    reaches 1 within ``BOUNDARY_TOL``; Haar-orthonormal Gram matrices land
    there exactly.  This is the package's one boundary rule: every rate is
    -1/2 times this value.
    """
    edge = 1.0 - BOUNDARY_TOL
    # clamped below 1, a boundary member of a stack cannot reach log1p(-1);
    # its value is set to -inf afterwards
    lam = np.minimum(_eigenvalues(_as_square(s, stacked=True)), edge)
    logs = np.log1p(-lam).sum(axis=-1, keepdims=True)
    logs[lam[..., -1:] == edge] = -np.inf
    return float(logs[0]) if logs.ndim == 1 else logs[..., 0]


def psd_sqrt(s) -> np.ndarray:
    """Symmetric PSD square root R with R R = S."""
    s = _as_square(s)
    try:
        vals, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    _check_psd(vals)
    # R = B B^T with B = V diag(lambda^(1/4)), exactly symmetric
    b = vecs * np.sqrt(np.sqrt(np.maximum(vals, 0.0)))
    return b @ b.T


@dataclass(frozen=True)
class ColumnList:
    """Finite list of nonzero columns in R^k standing for a k x infinity
    matrix padded with zero columns.

    ``columns`` has shape (dim, count).  Zero columns are dropped by the
    factory; each kept column has Euclidean norm in (0, sqrt(dim)].
    """

    dim: int
    columns: np.ndarray

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    @classmethod
    def from_columns(cls, dim: int, columns) -> "ColumnList":
        dim = whole_number(dim, "dim", 1)
        cols = finite_array(columns, "column entries")
        if cols.ndim == 1 and cols.size % dim == 0:
            cols = cols.reshape(dim, -1)
        if cols.ndim != 2:
            raise DimensionMismatch(f"columns of shape {cols.shape}, expected R^{dim}")
        if cols.shape[0] != dim:
            raise DimensionMismatch(f"columns live in R^{cols.shape[0]}, expected R^{dim}")
        norms = np.linalg.norm(cols, axis=0)
        cols = cols[:, norms > 0.0]
        if cols.size and np.max(np.linalg.norm(cols, axis=0)) > np.sqrt(dim) + 1e-9:
            raise DomainError("column norm exceeds sqrt(dim)")
        return cls(dim=dim, columns=cols)

    @classmethod
    def empty(cls, dim: int) -> "ColumnList":
        return cls.from_columns(dim, [])


def signed_permutation_equal(p: ColumnList, q: ColumnList, tol: float) -> bool:
    """True iff the columns of ``p`` and ``q`` match bijectively up to sign.

    Each column c of ``p`` must pair with a distinct column of ``q`` equal to
    +-c within Euclidean distance ``tol`` (inclusive).  That is a perfect
    matching in the bipartite graph of pairs within ``tol``; it exists
    exactly when one linear assignment solve on the 0/1 cost "farther than
    ``tol``" reaches cost 0 (Kuhn 1955; Crouse 2016).
    """
    if p.dim != q.dim:
        raise DimensionMismatch("column lists live in different dimensions")
    if not tol >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    if p.count != q.count:
        return False
    a = p.columns.T[:, None, :]
    b = q.columns.T[None, :, :]
    far = np.minimum(np.linalg.norm(a - b, axis=-1),
                     np.linalg.norm(a + b, axis=-1)) > tol
    rows, cols = linear_sum_assignment(far)
    return not far[rows, cols].any()
