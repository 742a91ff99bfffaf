"""Projected measures: push a high-dimensional product law or lp-ball
uniform law through a k x n frame, sample the limiting laws built from a
column matrix plus a Gaussian complement, evaluate their characteristic
functions, and estimate Levy-Prokhorov distances between sample clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .densities import sigma_p_squared
from .errors import DimensionMismatch, DomainError, NumericalFailure, UnsupportedLaw
from .linalg import (ColumnList, as_matrix, finite_array, gram, increasing_n_values,
                     psd_sqrt, whole_number)
from .samplers import (
    PGaussianParams,
    SeededRng,
    lp_ball_batch,
    p_gaussian_batch,
    stiefel_batch,
)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted sample cloud in R^k; ``points`` has shape (N, k)."""

    dim: int
    points: np.ndarray

    @classmethod
    def from_points(cls, points) -> "EmpiricalMeasure":
        pts = finite_array(points, "sample coordinates")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] < 1:
            raise DomainError("need at least one sample point")
        return cls(dim=pts.shape[1], points=pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RademacherLaw:
    """Symmetric signs +-1; characteristic function cos(s)."""


@dataclass(frozen=True)
class CustomLaw:
    """User-supplied symmetric i.i.d. law.

    ``sampler(gen, shape)`` must return draws of the given shape; the
    characteristic function is optional and only needed by
    :func:`characteristic_function`.
    """

    sampler: Callable
    variance: float
    char_fn: Optional[Callable] = None


def law_variance(law) -> float:
    if isinstance(law, PGaussianParams):
        return sigma_p_squared(law.p)
    if isinstance(law, RademacherLaw):
        return 1.0
    if isinstance(law, CustomLaw):
        return float(law.variance)
    raise UnsupportedLaw(f"unknown product law {law!r}")


def law_draws(gen: np.random.Generator, law, shape) -> np.ndarray:
    if isinstance(law, PGaussianParams):
        return p_gaussian_batch(gen, law.p, shape)
    if isinstance(law, RademacherLaw):
        return gen.integers(0, 2, size=shape) * 2.0 - 1.0
    if isinstance(law, CustomLaw):
        return np.asarray(law.sampler(gen, shape), dtype=np.float64)
    raise UnsupportedLaw(f"unknown product law {law!r}")


# cached grid interpolants of the scalar p-Gaussian characteristic function
_PGAUSS_CF_CACHE: dict = {}


class _PGaussianCF:
    """phi(s) = int cos(s x) f_p(x) dx on a dense grid, cubic interpolation.

    The grid step 0.005 keeps the interpolation error far below the 1e-8
    target; values outside the current grid extend it on demand.
    """

    STEP = 0.005

    def __init__(self, p: float):
        self.p = p
        # integrate out to where the density tail is negligible
        self.x_hi = max((40.0 * p) ** (1.0 / p), 40.0)
        self.s_max = 0.0
        self.spline = None

    def _point(self, s: float) -> float:
        val, _ = quad(
            lambda x: 2.0 * math.cos(s * x) * math.exp(-abs(x) ** self.p / self.p),
            0.0,
            self.x_hi,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        norm = 2.0 * self.p ** (1.0 / self.p) * math.gamma(1.0 + 1.0 / self.p)
        return val / norm

    def _extend(self, s_max: float):
        s_max = max(2.0, 1.25 * s_max)
        grid = np.arange(0.0, s_max + self.STEP, self.STEP)
        vals = np.array([self._point(s) for s in grid])
        self.spline = CubicSpline(grid, vals)
        self.s_max = grid[-1]

    def __call__(self, s):
        s = np.abs(np.asarray(s, dtype=np.float64))
        if self.spline is None or (s.size and np.max(s) > self.s_max):
            self._extend(float(np.max(s)) if s.size else 1.0)
        return self.spline(s)


def law_char_fn(law) -> Callable:
    """Scalar characteristic function of a product law, vectorized over s."""
    if isinstance(law, PGaussianParams):
        p = law.p
        if math.isinf(p):
            return lambda s: np.sinc(np.asarray(s) / np.pi)
        if p == 2.0:
            return lambda s: np.exp(-np.asarray(s, dtype=np.float64) ** 2 / 2.0)
        if p == 1.0:
            return lambda s: 1.0 / (1.0 + np.asarray(s, dtype=np.float64) ** 2)
        if p not in _PGAUSS_CF_CACHE:
            _PGAUSS_CF_CACHE[p] = _PGaussianCF(p)
        return _PGAUSS_CF_CACHE[p]
    if isinstance(law, RademacherLaw):
        return np.cos
    if isinstance(law, CustomLaw) and law.char_fn is not None:
        return law.char_fn
    raise UnsupportedLaw(f"no closed-form characteristic function for {law!r}")


@dataclass(frozen=True)
class ProjectedLaw:
    """Law of  sum_j C_j Y_j + sigma (I - A A^T)^(1/2) N_k.

    ``a`` holds the columns C_j, ``noise_variance`` is sigma^2 in (0, inf),
    and the Y_j are i.i.d. from ``product_law``.  The Gram norm may touch 1;
    the Gaussian part then degenerates along the top eigenspace.

    ``complement`` is I - A A^T and ``root`` its PSD square root, both
    computed once here.  The law is admissible exactly when
    :func:`psd_sqrt` accepts the complement, i.e. its smallest eigenvalue
    is >= -``NEG_EIG_TOL``.
    """

    a: ColumnList
    noise_variance: float
    product_law: object
    complement: np.ndarray = field(init=False, repr=False, compare=False)
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.noise_variance < math.inf:
            raise DomainError("noise_variance must be finite and > 0")
        complement = np.eye(self.a.dim) - gram(self.a.columns)
        try:
            root = psd_sqrt(complement)
        except NumericalFailure as exc:
            raise DomainError("||A A^T|| must be <= 1") from exc
        object.__setattr__(self, "complement", complement)
        object.__setattr__(self, "root", root)


def sample_projected_law(rng: SeededRng, law: ProjectedLaw, count: int) -> EmpiricalMeasure:
    """``count`` i.i.d. draws of sum_j C_j Y_j + sigma (I - A A^T)^(1/2) N_k."""
    count = whole_number(count, "count", 1)
    gen = rng.generator()
    normals = gen.standard_normal((count, law.a.dim))
    points = math.sqrt(law.noise_variance) * normals @ law.root.T
    if law.a.count:
        y = law_draws(gen, law.product_law, (count, law.a.count))
        points = points + y @ law.a.columns.T
    return EmpiricalMeasure.from_points(points)


def project_product_batch(gen, v, law, count: int) -> EmpiricalMeasure:
    """Push the product law of n i.i.d. coordinates through the k x n frame,
    drawing from ``gen``."""
    v = as_matrix(v)
    if v.shape[0] > v.shape[1]:
        raise DimensionMismatch("frame must have k <= n")
    y = law_draws(gen, law, (whole_number(count, "count", 1), v.shape[1]))
    return EmpiricalMeasure.from_points(y @ v.T)


def project_product(rng: SeededRng, v, law, count: int) -> EmpiricalMeasure:
    """:func:`project_product_batch` on the generator of ``rng``."""
    return project_product_batch(rng.generator(), v, law, count)


def project_lp_ball_batch(gen, v, p: float, count: int) -> EmpiricalMeasure:
    """Project the uniform law on n^(1/p) B_p^n through the k x n frame,
    drawing from ``gen``."""
    v = as_matrix(v)
    if v.shape[0] > v.shape[1]:
        raise DimensionMismatch("frame must have k <= n")
    x = lp_ball_batch(gen, p, v.shape[1], None, count)
    return EmpiricalMeasure.from_points(x @ v.T)


def project_lp_ball(rng: SeededRng, v, p: float, count: int) -> EmpiricalMeasure:
    """:func:`project_lp_ball_batch` on the generator of ``rng``."""
    return project_lp_ball_batch(rng.generator(), v, p, count)


def _frequency(t, dim: int) -> np.ndarray:
    """``t`` as a float64 vector in R^dim, else DimensionMismatch."""
    t = np.asarray(t, dtype=np.float64)
    if t.size != dim:
        raise DimensionMismatch(f"frequency has {t.size} entries, expected {dim}")
    return t.reshape(dim)


def empirical_cf(measure: EmpiricalMeasure, t) -> complex:
    """Empirical characteristic function at the frequency vector t."""
    t = _frequency(t, measure.dim)
    phases = measure.points @ t
    return complex(np.mean(np.cos(phases)), np.mean(np.sin(phases)))


def characteristic_function(law: ProjectedLaw, t) -> complex:
    """Exact characteristic function of a projected law; real by symmetry."""
    t = _frequency(t, law.a.dim)
    quad_form = float(t @ law.complement @ t)
    value = math.exp(-0.5 * law.noise_variance * max(quad_form, 0.0))
    if law.a.count:
        phi = law_char_fn(law.product_law)
        value *= float(np.prod(phi(law.a.columns.T @ t)))
    return complex(value, 0.0)


def _lp_violation(d_a: np.ndarray, d_b: np.ndarray, eps: float) -> float:
    """max_r [ mu(B(c, r)) - nu(B(c, r + eps)) ] over all radii r at one
    center, given pre-sorted distance arrays."""
    n_a, n_b = d_a.size, d_b.size
    count_a = np.arange(1, n_a + 1) / n_a
    count_b = np.searchsorted(d_b, d_a + eps, side="right") / n_b
    return float(np.max(count_a - count_b))


def _lp_check(dists_mu, dists_nu, eps: float) -> bool:
    for d_mu, d_nu in zip(dists_mu, dists_nu):
        if _lp_violation(d_mu, d_nu, eps) > eps:
            return False
        if _lp_violation(d_nu, d_mu, eps) > eps:
            return False
    return True


def _lp_threshold(d_a: np.ndarray, d_b: np.ndarray) -> float:
    """Smallest eps with ``_lp_violation(d_a, d_b, eps) <= eps`` in exact
    arithmetic, given pre-sorted distance arrays.

    The i-th radius admits eps iff some count c has eps >= d_b[c - 1] - d_a[i]
    (c points of d_b within d_a[i] + eps) and eps >= (i + 1)/N_a - c/N_b.
    The first bound rises with c and the second falls, so the best c sits
    where d_b[c - 1] + c/N_b first reaches d_a[i] + (i + 1)/N_a.
    """
    n_a, n_b = d_a.size, d_b.size
    count_a = np.arange(1, n_a + 1) / n_a
    j = np.searchsorted(d_b + np.arange(1, n_b + 1) / n_b, d_a + count_a)
    reach = np.append(d_b, np.inf)[j] - d_a
    return float(np.max(np.minimum(reach, count_a - j / n_b)))


def _lp_grid(dim: int, grid) -> int:
    """``grid`` as an int >= 2, once ``dim`` <= 3 is checked."""
    if dim > 3:
        raise DomainError("the estimator is restricted to k <= 3")
    return whole_number(grid, "grid", 2)


# A grid point this close to the exact threshold (relative to the largest
# distance) is settled by _lp_check itself, so rounding in the threshold
# cannot move the reported value across it.
_LP_TIE_BAND = 1e-9


def levy_prokhorov(mu: EmpiricalMeasure, nu: EmpiricalMeasure, grid: int = 200) -> float:
    """Levy-Prokhorov distance estimate between two sample clouds.

    Tests mu(A) <= nu(A_eps) + eps (and symmetrically) over the family of
    Euclidean balls centered on a pooled subsample of at most ``grid``
    points.  The smallest admissible eps t is computed exactly, one sorted
    search per center and direction, and reported where a bisection of
    [0, 1] to resolution 0.5 / grid would stop: the least multiple of
    h = 2^-m above t, with 2^m the least power of two >= 2 grid, capped at
    1.0 (0.0 when t < 0).  Monotone in the true distance and exact on point
    masses; restricting to balls makes this a heuristic rather than the
    exact combinatorial optimum.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch("sample clouds live in different dimensions")
    grid = _lp_grid(mu.dim, grid)

    pooled = np.vstack([mu.points, nu.points])
    # deterministic subsample: lexicographic order, even stride
    order = np.lexsort(pooled.T[::-1])
    pooled = pooled[order]
    stride = max(1, int(math.ceil(pooled.shape[0] / grid)))
    centers = pooled[::stride]

    dists_mu = []
    dists_nu = []
    for c in centers:
        dists_mu.append(np.sort(np.linalg.norm(mu.points - c, axis=1)))
        dists_nu.append(np.sort(np.linalg.norm(nu.points - c, axis=1)))

    threshold = max(
        max(_lp_threshold(d_mu, d_nu), _lp_threshold(d_nu, d_mu))
        for d_mu, d_nu in zip(dists_mu, dists_nu)
    )
    tie = _LP_TIE_BAND * max(1.0, max(d[-1] for d in dists_mu + dists_nu))
    h = 2.0 ** -(2 * grid - 1).bit_length()
    near = round(threshold / h) * h
    if 0.0 <= near < 1.0 and abs(near - threshold) <= tie:
        return near if _lp_check(dists_mu, dists_nu, near) else near + h
    if threshold < 0.0:
        return 0.0
    return min((math.floor(threshold / h) + 1) * h, 1.0)


def compare_ball_vs_product(
    rng: SeededRng, k: int, p: float, n_list, count: int, grid: int = 200
) -> list:
    """Estimated LP distance between the lp-ball projection and the product
    projection under one shared Haar frame, for each n in ``n_list``.

    Returns a list of (n, distance) pairs.
    """
    n_list = increasing_n_values(n_list, "n_list")
    count = whole_number(count, "count", 10**3)
    grid = _lp_grid(k, grid)
    out = []
    for idx, n in enumerate(n_list):
        v = stiefel_batch(rng.child(idx, 0), k, n, 1)[0]
        ball = project_lp_ball_batch(rng.child(idx, 1), v, p, count)
        product = project_product_batch(
            rng.child(idx, 2), v, PGaussianParams(p), count
        )
        out.append((n, levy_prokhorov(ball, product, grid=grid)))
    return out
