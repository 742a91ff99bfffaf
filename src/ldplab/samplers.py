"""Random generation: Gaussian matrices, Haar frames, Wishart matrices,
p-generalized Gaussians, and uniform points on scaled lp balls.

Every operation is a pure function of (rng, arguments): it derives a fresh
generator from the ``SeededRng`` value, so identical inputs reproduce
identical output bit for bit.  Independent draws come from distinct
``stream_id`` values (or the ``count`` arguments), never from shared state.

Each law has one batched body, which checks the law's domain and
``count >= 1`` before it draws and raises ``DomainError`` otherwise; the
single-draw functions wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SeededRng:
    """A named random stream: (seed, stream_id) -> reproducible sequence.

    Streams with distinct ids are derived through ``SeedSequence`` spawn
    keys and are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise DomainError(f"negative seed or stream: {self.seed}, {self.stream_id}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )

    def child(self, *key: int) -> np.random.Generator:
        """Generator for a sub-stream; distinct keys are independent."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *key))
        )


@dataclass(frozen=True)
class PGaussianParams:
    """Parameter of the p-generalized Gaussian family.

    ``p = math.inf`` denotes Uniform[-1, 1] (the cube case), which this
    family degenerates to in the applications here.
    """

    p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise DomainError("p must be >= 1")


def gaussian_matrix(rng: SeededRng, k: int, n: int) -> np.ndarray:
    """k x n matrix of i.i.d. standard normals."""
    if k < 1 or n < 1:
        raise DomainError("matrix dimensions must be >= 1")
    return rng.generator().standard_normal((k, n))


def _check_count(count: int) -> None:
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")


def stiefel_batch(gen: np.random.Generator, k: int, n: int, count: int) -> np.ndarray:
    """``count`` Haar frames as a (count, k, n) array, drawn from ``gen``.

    Each frame is Q^T from the QR decomposition of an n x k Gaussian, with
    the signs of diag(R) divided out so that the law is exactly Haar
    (Mezzadri, Notices AMS 54, 2007).
    """
    if not 1 <= k <= n:
        raise DomainError(f"k must be <= n and >= 1, got k = {k}, n = {n}")
    _check_count(count)
    q, r = np.linalg.qr(gen.standard_normal((count, n, k)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    return np.swapaxes(q * signs[:, None, :], 1, 2)


def haar_stiefel(rng: SeededRng, k: int, n: int) -> np.ndarray:
    """Uniform k x n orthonormal frame (one draw of :func:`stiefel_batch`)."""
    return stiefel_batch(rng.generator(), k, n, 1)[0]


def haar_orthogonal(rng: SeededRng, n: int) -> np.ndarray:
    """Haar-uniform n x n orthogonal matrix (the square Stiefel case)."""
    return haar_stiefel(rng, n, n)


def wishart_batch(gen: np.random.Generator, k: int, n: int, count: int) -> np.ndarray:
    """(count, k, k) array of H H^T for k x n standard Gaussians H.

    Bartlett decomposition: H H^T has the law of L L^T with L lower
    triangular, L_ii^2 ~ chi^2(n - i) for i = 0, ..., k - 1 and standard
    normals below the diagonal, so a draw costs O(k^2) whatever n is.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need n >= k >= 1, got k = {k}, n = {n}")
    _check_count(count)
    low = np.zeros((count, k, k))
    below = np.tri(k, k, -1, dtype=bool)
    low[:, below] = gen.standard_normal((count, int(below.sum())))
    diag = np.arange(k)
    low[:, diag, diag] = np.sqrt(gen.chisquare(n - diag, size=(count, k)))
    return low @ np.swapaxes(low, 1, 2)


def wishart(rng: SeededRng, k: int, n: int) -> np.ndarray:
    """k x k array H H^T for a k x n standard Gaussian H (identity scale
    matrix)."""
    return wishart_batch(rng.generator(), k, n, 1)[0]


def p_gaussian_batch(gen: np.random.Generator, p: float, shape) -> np.ndarray:
    """Draws with density exp(-|x|^p / p) / (2 p^(1/p) Gamma(1 + 1/p)).

    Uses the exact Gamma transform |X|^p / p ~ Gamma(1/p, 1) for finite p;
    p = inf yields Uniform[-1, 1].  Needs p >= 1 and every extent of
    ``shape`` >= 1.
    """
    if not p >= 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if np.any(np.asarray(shape) < 1):
        raise DomainError(f"every extent of shape must be >= 1, got {shape}")
    if math.isinf(p):
        return gen.uniform(-1.0, 1.0, size=shape)
    g = gen.gamma(1.0 / p, 1.0, size=shape)
    signs = gen.integers(0, 2, size=shape) * 2.0 - 1.0
    return signs * (p * g) ** (1.0 / p)


def p_gaussian(rng: SeededRng, params: PGaussianParams, count: int) -> np.ndarray:
    """``count`` i.i.d. p-generalized Gaussian draws."""
    return p_gaussian_batch(rng.generator(), params.p, count)


def uniform_lp_ball(
    rng: SeededRng, p: float, n: int, radius_scale: float
) -> np.ndarray:
    """Uniform point on ``radius_scale`` times the unit lp ball in R^n.

    Representation: radius_scale * U^(1/n) * Z / ||Z||_p with Z a vector of
    i.i.d. p-Gaussians and U ~ Uniform[0, 1] independent of Z.
    """
    return lp_ball_batch(rng.generator(), p, n, radius_scale, 1)[0]


def lp_ball_batch(
    gen: np.random.Generator, p: float, n: int, radius_scale: float | None, count: int
) -> np.ndarray:
    """(count, n) array of independent uniform points of ``radius_scale``
    times the unit lp ball; ``radius_scale=None`` means n^(1/p), the scaling
    of the projection results."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= p < math.inf:
        raise DomainError(f"p must be in [1, inf), got {p}")
    if radius_scale is None:
        radius_scale = n ** (1.0 / p)
    elif not 0 < radius_scale < math.inf:
        raise DomainError(f"radius_scale must be finite and > 0, got {radius_scale}")
    _check_count(count)
    z = p_gaussian_batch(gen, p, (count, n))
    u = gen.uniform(size=(count, 1))
    norms = np.linalg.norm(z, ord=p, axis=1, keepdims=True)
    return radius_scale * u ** (1.0 / n) * z / norms


def dickey_corner_batch(
    gen: np.random.Generator, k: int, m: int, big_n: int, count: int
) -> np.ndarray:
    """(count, k, m) array of T = (S + G G^T)^(-1/2) G, with S Wishart of
    k x (N + k - 1) Gaussian rows independent of the k x m Gaussian G.

    ``T T^T`` always has operator norm < 1.
    """
    if min(k, m, big_n) < 1:
        raise DomainError(f"k, m, N must all be >= 1, got k = {k}, m = {m}, N = {big_n}")
    _check_count(count)
    g = gen.standard_normal((count, k, m))
    s = wishart_batch(gen, k, big_n + k - 1, count)
    vals, vecs = np.linalg.eigh(s + g @ np.swapaxes(g, 1, 2))
    inv_root = (vecs / np.sqrt(vals)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    return inv_root @ g


def dickey_corner(rng: SeededRng, k: int, m: int, big_n: int) -> np.ndarray:
    """One draw of :func:`dickey_corner_batch`."""
    return dickey_corner_batch(rng.generator(), k, m, big_n, 1)[0]


def stiefel_corner_batch(
    gen: np.random.Generator, k: int, n: int, ell: int, count: int
) -> np.ndarray:
    """Leading k x ell blocks of ``count`` Haar frames, shape (count, k, ell).

    Drawn by the Dickey identity with N = n - ell - k + 1, which needs
    n >= ell + k (N >= 1); a draw costs O(k^2 + k ell) whatever n is.
    """
    return dickey_corner_batch(gen, k, ell, n - ell - k + 1, count)
