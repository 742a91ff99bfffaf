"""Projected measures: push a high-dimensional product law or lp-ball
uniform law through a k x n frame, sample the limiting laws built from a
column matrix plus a Gaussian complement, evaluate their characteristic
functions, and estimate Levy-Prokhorov distances between sample clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .densities import sigma_p_squared
from .errors import DimensionMismatch, DomainError, NumericalFailure, UnsupportedLaw
from .linalg import (ColumnList, as_matrix, finite_array, frame_dims, gram,
                     increasing_n_values, psd_sqrt, real_number, whole_number)
from .samplers import (
    PGaussianParams,
    SeededRng,
    lp_ball_batch,
    p_gaussian_batch,
    random_signs,
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
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise DimensionMismatch(f"sample points must have shape (N, k), k >= 1, got {pts.shape}")
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
    """Symmetric i.i.d. product law as a record: ``sampler(gen, shape)``
    returns draws of the given shape, and the characteristic function is
    optional, only needed by :func:`characteristic_function`.  Every product
    law is read as such a record (:func:`product_law_record`)."""

    sampler: Callable
    variance: float
    char_fn: Optional[Callable] = None


def _p_gaussian_cf(p: float, s) -> np.ndarray:
    """Characteristic function of the p-Gaussian law at each entry of s:
    closed forms at p = 1, 2 and inf, otherwise one QAWO quadrature of
    cos(s x) exp(-x^p / p) over [0, x_hi] per entry, and NumericalFailure
    where that quadrature is not finite (|s| near 1e100)."""
    s = np.asarray(s, dtype=np.float64)
    if math.isinf(p):
        return np.sinc(s / np.pi)
    if p in (1.0, 2.0):
        return np.exp(-s ** 2 / 2.0) if p == 2.0 else 1.0 / (1.0 + s ** 2)

    def density(x: float) -> float:
        try:
            return math.exp(-x ** p / p)
        except OverflowError:  # x^p beyond the float range: weight 0
            return 0.0

    # integrate out to where the density tail is negligible
    x_hi = max((40.0 * p) ** (1.0 / p), 40.0)
    norm = p ** (1.0 / p) * math.gamma(1.0 + 1.0 / p)

    def value(w: float) -> float:
        v = quad(density, 0.0, x_hi, weight="cos", wvar=w, limit=400,
                 epsabs=1e-12, epsrel=1e-12)[0] / norm
        if not math.isfinite(v):
            raise NumericalFailure(
                f"p-Gaussian characteristic function at p = {p}, s = {w}: quadrature gave {v}")
        return v

    return np.array([value(w) for w in s.ravel()]).reshape(s.shape)


def _p_gaussian_draws(p: float, gen: np.random.Generator, shape) -> np.ndarray:
    # p_gaussian_batch is looked up at each draw, not when the record is built
    return p_gaussian_batch(gen, p, shape)


def product_law_record(law) -> CustomLaw:
    """The one reader of product laws: the :class:`CustomLaw` record of a law,
    a CustomLaw being its own; any other object raises UnsupportedLaw."""
    if isinstance(law, PGaussianParams):
        return CustomLaw(partial(_p_gaussian_draws, law.p), sigma_p_squared(law.p),
                         partial(_p_gaussian_cf, law.p))
    if isinstance(law, RademacherLaw):
        return CustomLaw(random_signs, 1.0, np.cos)
    if isinstance(law, CustomLaw):
        return law
    raise UnsupportedLaw(f"unknown product law {law!r}")


@dataclass(frozen=True)
class ProjectedLaw:
    """Law of  sum_j C_j Y_j + sigma (I - A A^T)^(1/2) N_k.

    ``a`` holds the columns C_j, ``noise_variance`` is sigma^2 in (0, inf),
    and the Y_j are i.i.d. from ``product_law``.  The Gram norm may touch 1;
    the Gaussian part then degenerates along the top eigenspace.

    ``complement`` is I - A A^T, ``root`` its PSD square root and
    ``record`` the :func:`product_law_record` of ``product_law``, all
    computed once here.  The law is admissible exactly when
    :func:`psd_sqrt` accepts the complement, i.e. its smallest eigenvalue
    is >= -``NEG_EIG_TOL``.
    """

    a: ColumnList
    noise_variance: float
    product_law: object
    complement: np.ndarray = field(init=False, repr=False, compare=False)
    root: np.ndarray = field(init=False, repr=False, compare=False)
    record: CustomLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "noise_variance", real_number(
            self.noise_variance, "noise_variance", 0, strict=True, finite=True))
        complement = np.eye(self.a.dim) - gram(self.a.columns)
        try:
            root = psd_sqrt(complement)
        except NumericalFailure as exc:
            raise DomainError("||A A^T|| must be <= 1") from exc
        object.__setattr__(self, "complement", complement)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "record", product_law_record(self.product_law))


def sample_projected_law(rng: SeededRng, law: ProjectedLaw, count: int) -> EmpiricalMeasure:
    """``count`` i.i.d. draws of sum_j C_j Y_j + sigma (I - A A^T)^(1/2) N_k."""
    count = whole_number(count, "count", 1)
    gen = rng.generator()
    normals = gen.standard_normal((count, law.a.dim))
    points = math.sqrt(law.noise_variance) * normals @ law.root.T
    if law.a.count:
        y = np.asarray(law.record.sampler(gen, (count, law.a.count)), dtype=np.float64)
        points = points + y @ law.a.columns.T
    return EmpiricalMeasure.from_points(points)


def project_product_batch(gen, v, law, count: int) -> EmpiricalMeasure:
    """Push the product law of n i.i.d. coordinates through the k x n frame,
    drawing from ``gen``."""
    v = as_matrix(v)
    frame_dims(*v.shape)
    shape = (whole_number(count, "count", 1), v.shape[1])
    y = np.asarray(product_law_record(law).sampler(gen, shape), dtype=np.float64)
    return EmpiricalMeasure.from_points(y @ v.T)


def project_product(rng: SeededRng, v, law, count: int) -> EmpiricalMeasure:
    """:func:`project_product_batch` on the generator of ``rng``."""
    return project_product_batch(rng.generator(), v, law, count)


def project_lp_ball_batch(gen, v, p: float, count: int) -> EmpiricalMeasure:
    """Project the uniform law on n^(1/p) B_p^n through the k x n frame,
    drawing from ``gen``."""
    v = as_matrix(v)
    frame_dims(*v.shape)
    x = lp_ball_batch(gen, p, v.shape[1], None, count)
    return EmpiricalMeasure.from_points(x @ v.T)


def project_lp_ball(rng: SeededRng, v, p: float, count: int) -> EmpiricalMeasure:
    """:func:`project_lp_ball_batch` on the generator of ``rng``."""
    return project_lp_ball_batch(rng.generator(), v, p, count)


def _frequency(t, dim: int) -> np.ndarray:
    """``t`` as a float64 vector in R^dim, else DimensionMismatch; entries
    that are not finite reals raise DomainError."""
    t = finite_array(t, "frequency")
    if t.size != dim:
        raise DimensionMismatch(f"frequency has {t.size} entries, expected {dim}")
    return t.reshape(dim)


def _half_angle(half_phases: np.ndarray) -> tuple:
    """(w, u w) with u = tan h and w = 1 / (1 + u^2) at each half phase h,
    so that cos 2h = 2w - 1 and sin 2h = 2uw.  A finite h gives finite
    values: |u| stays below about 2.5e18 even at the poles of tan."""
    u = np.tan(half_phases)
    w = 1.0 / (1.0 + u * u)
    return w, u * w


def empirical_cf(measure: EmpiricalMeasure, t) -> complex:
    """Empirical characteristic function at the frequency vector t.

    Each point's exp(i t.x) comes from one tangent of the half phase
    t.x / 2 (the tangent half-angle identity, see :func:`_half_angle`)
    rather than a cosine and a sine: NumPy vectorises float64 tan but not
    sin and cos, so one tan costs a fraction of either.  Each point is
    within 4e-16 of cos and sin, the value at t = 0 is exactly 1, and
    negating t conjugates the value exactly, since tan is odd.  A half
    phase t.x / 2 that overflows raises NumericalFailure naming t.
    """
    t = _frequency(t, measure.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        w, uw = _half_angle(measure.points @ (0.5 * t))
        re, im = 2.0 * np.mean(w) - 1.0, 2.0 * np.mean(uw)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise NumericalFailure(f"a phase t.x overflows at frequency t = {t.tolist()}")
    return complex(re, im)


def characteristic_function(law: ProjectedLaw, t) -> complex:
    """Exact characteristic function of a projected law; real by symmetry.
    Where floats give no value (a phase t.C_j that overflows, a quadrature
    that does not converge) it raises NumericalFailure, never NaN."""
    t = _frequency(t, law.a.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        quad_form = float(t @ law.complement @ t)
        value = math.exp(-0.5 * law.noise_variance * max(quad_form, 0.0))
        if law.a.count:
            if law.record.char_fn is None:
                raise UnsupportedLaw(f"no characteristic function for {law.product_law!r}")
            value *= float(np.prod(law.record.char_fn(law.a.columns.T @ t)))
    if not math.isfinite(value):
        raise NumericalFailure(f"characteristic function is not finite at frequency t = {t.tolist()}")
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


def _lp_threshold(d_mu: np.ndarray, d_nu: np.ndarray,
                  count_mu: np.ndarray, count_nu: np.ndarray) -> float:
    """Smallest eps with ``_lp_violation(d_a, d_b, eps) <= eps`` for both
    (d_a, d_b) = (d_mu, d_nu) and (d_nu, d_mu) in exact arithmetic, given
    one center's pre-sorted distance arrays and ``arange(1, N + 1) / N`` as
    the count of each.

    With q = d + count, the i-th radius of d_a admits eps iff some count c
    has eps >= d_b[c - 1] - d_a[i] (c points of d_b within d_a[i] + eps) and
    eps >= count_a[i] - c/N_b.  The first bound rises with c and the second
    falls, so the best c is j = #{q_b < q_a[i]}.  Both directions read j
    from one stable merge of the increasing q_mu and q_nu: q_mu[i] is
    preceded by j_mu[i] = #{q_nu < q_mu[i]} points of q_nu, and q_nu[c] by
    #{q_mu <= q_nu[c]} points of q_mu, which is the strict count unless
    q_mu[j - 1] == q_nu[c] (j = 0 wraps to q_mu[-1] > q_nu[c]); a center
    with such a tie takes its strict counts from a sorted search.
    """
    n_mu, n_nu = d_mu.size, d_nu.size
    q_mu, q_nu = d_mu + count_mu, d_nu + count_nu
    is_mu = np.argsort(np.concatenate([q_mu, q_nu]), kind="stable") < n_mu
    j_mu = np.flatnonzero(is_mu) - np.arange(n_mu)
    j_nu = np.flatnonzero(~is_mu) - np.arange(n_nu)
    if np.any(q_mu[j_nu - 1] == q_nu):
        j_nu = np.searchsorted(q_mu, q_nu)
    reach_mu = np.append(d_nu, np.inf)[j_mu] - d_mu
    reach_nu = np.append(d_mu, np.inf)[j_nu] - d_nu
    return max(float(np.max(np.minimum(reach_mu, count_mu - j_mu / n_nu))),
               float(np.max(np.minimum(reach_nu, count_nu - j_nu / n_mu))))


def _lp_grid(dim: int, grid) -> int:
    """``grid`` as an int >= 2, once ``dim`` <= 3 is checked."""
    if dim > 3:
        raise DomainError("the estimator is restricted to k <= 3")
    return whole_number(grid, "grid", 2)


# A grid point this close to the exact threshold (relative to the largest
# distance) is settled by _lp_check itself, so rounding in the threshold
# cannot move the reported value across it.
_LP_TIE_BAND = 1e-9


def _sorted_distances(rows: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Sorted Euclidean distances from ``center`` to the points whose
    coordinates are the rows of ``rows``; summed coordinate by coordinate in
    order, which for dim <= 3 is bit-identical to ``np.linalg.norm`` over
    axis 1 of the points."""
    d2 = (rows[0] - center[0]) ** 2
    for row, c in zip(rows[1:], center[1:]):
        d2 += (row - c) ** 2
    d2.sort()
    return np.sqrt(d2, out=d2)


def levy_prokhorov(mu: EmpiricalMeasure, nu: EmpiricalMeasure, grid: int = 200) -> float:
    """Levy-Prokhorov distance estimate between two sample clouds.

    Tests mu(A) <= nu(A_eps) + eps (and symmetrically) over the family of
    Euclidean balls centered on a pooled subsample of at most ``grid``
    points.  The smallest admissible eps t is computed exactly, from one
    stable merge per center for both directions, and reported where a
    bisection of [0, 1] to resolution 0.5 / grid would stop: the least
    multiple of h = 2^-m above t, with 2^m the least power of two >= 2 grid,
    capped at 1.0 (0.0 when t < 0).  Monotone in the true distance and exact
    on point masses; restricting to balls makes this a heuristic rather than
    the exact combinatorial optimum.
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

    rows_mu, rows_nu = mu.points.T.copy(), nu.points.T.copy()
    dists_mu = [_sorted_distances(rows_mu, c) for c in centers]
    dists_nu = [_sorted_distances(rows_nu, c) for c in centers]

    count_mu = np.arange(1, mu.count + 1) / mu.count
    count_nu = np.arange(1, nu.count + 1) / nu.count
    threshold = max(
        _lp_threshold(d_mu, d_nu, count_mu, count_nu)
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
