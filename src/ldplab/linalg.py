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
from collections.abc import Sequence
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


def corner_dof(k, ell, n) -> tuple:
    """(k, ell, N) with N = n - ell - k + 1, the degrees of freedom of the
    k x ell corner of a Haar k x n frame; k, ell and n read through
    :func:`whole_number`, and n < ell + k raises :class:`DomainError`."""
    k, ell, n = whole_number(k, "k", 1), whole_number(ell, "ell", 1), whole_number(n, "n", 1)
    if n < ell + k:
        raise DomainError(f"need n >= ell + k = {ell + k}, got n = {n}")
    return k, ell, n - ell - k + 1


def frame_dims(k, n) -> tuple:
    """(k, n) read through :func:`whole_number`; k > n raises
    :class:`DomainError`.  This is the package's one k <= n frame rule."""
    k, n = whole_number(k, "k", 1), whole_number(n, "n", 1)
    if k > n:
        raise DomainError(f"k must be <= n, got k = {k}, n = {n}")
    return k, n


def real_number(value, name: str, low: float = -math.inf, *, strict: bool = False,
                finite: bool = False) -> float:
    """``value`` as a float; :class:`DomainError` unless it is a real number
    (not a bool or NaN) >= ``low``, or > ``low`` when ``strict``, and finite
    when ``finite``.  Every radius, exponent, variance and tolerance the
    package takes goes through this rule."""
    number = value
    if type(value) is not float:  # a plain float is read as it is
        number = None
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf if value > 0 else -math.inf
    if number is not None and (number > low if strict else number >= low) and not (
            finite and math.isinf(number)):
        return number
    bound = f"{'>' if strict else '>='} {low}" if low > -math.inf else ""
    rule = ("finite and " if finite else "") + bound if bound else (
        f"a {'finite ' if finite else ''}real number")
    got = "NaN" if isinstance(number, float) and math.isnan(number) else f"{value!r:.80}"
    raise DomainError(f"{name} must be {rule}, got {got}")


def increasing_n_values(values, name: str) -> list:
    """``values`` as ints; :class:`DomainError` unless it is a sequence (a
    list, tuple or 1-d array), each entry is a whole number >= 1 and the
    list is non-empty and increasing."""
    if not (isinstance(values, Sequence) or np.ndim(values) == 1):
        raise DomainError(f"{name} must be a sequence of whole numbers, got {values!r}")
    values = [whole_number(n, f"each n in {name}", 1) for n in values]
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError(f"{name} must be non-empty and increasing")
    return values


def as_matrix(a, what: str = "matrix entries") -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    m = finite_array(a, what)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def _as_square(s) -> np.ndarray:
    m = as_matrix(s)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix is not square")
    if m.shape[0] == 0:
        raise DimensionMismatch("need at least one row")
    return m


def _check_psd(lam: np.ndarray) -> None:
    if lam[0] < -NEG_EIG_TOL * max(1.0, lam[-1]):
        raise NumericalFailure(f"matrix is not PSD: smallest eigenvalue {lam[0]:.3e}")


def _eigenvalues(s: np.ndarray) -> np.ndarray:
    """Ascending spectrum, clamped at 0."""
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


def log_det_complement(s) -> float:
    """log det(I - S) = sum_i log(1 - lambda_i) for one symmetric PSD k x k
    matrix S; -inf as soon as the top eigenvalue reaches 1 within
    ``BOUNDARY_TOL``, where Haar-orthonormal Gram matrices land exactly.
    This is the package's one boundary rule: every rate is -1/2 times it."""
    lam = _eigenvalues(_as_square(s))
    if lam[-1] >= 1.0 - BOUNDARY_TOL:
        return -math.inf
    return float(np.log1p(-lam).sum())


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

    ``columns`` has shape (dim, count).  The factory drops the columns whose
    entries are all zero; each kept column has Euclidean norm <= sqrt(dim).
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
        cols = cols[:, cols.any(axis=0)]
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
    tol = real_number(tol, "tol", 0)
    if p.count != q.count:
        return False
    a = p.columns.T[:, None, :]
    b = q.columns.T[None, :, :]
    far = np.minimum(np.linalg.norm(a - b, axis=-1),
                     np.linalg.norm(a + b, axis=-1)) > tol
    rows, cols = linear_sum_assignment(far)
    return not far[rows, cols].any()
