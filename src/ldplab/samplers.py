"""Random generation: Gaussian matrices, Haar frames, Wishart matrices,
p-generalized Gaussians, and uniform points on scaled lp balls.

Every operation is a pure function of (rng, arguments): it derives a fresh
generator from the ``SeededRng`` value, so identical inputs reproduce
identical output bit for bit.  Independent draws come from distinct
``stream_id`` values (or the ``count`` arguments), never from shared state.

Each law has one batched body, which checks the law's domain and reads each
count and dimension through ``whole_number`` before it draws, raising
``DomainError`` otherwise; the single-draw functions wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import corner_dof, frame_dims, real_number, whole_number

# Above this p, |x|^p underflows in p-norms, so lp_ball_batch takes the norm
# of a row in the max-scaled form m ||z / m||_p with m = max |z_i|.
LARGE_P = 32.0


@dataclass(frozen=True)
class SeededRng:
    """A named random stream: (seed, stream_id) -> reproducible sequence.

    Streams with distinct ids are derived through ``SeedSequence`` spawn
    keys and are statistically independent.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0, None))
        object.__setattr__(self, "stream_id", whole_number(self.stream_id, "stream", 0, None))

    def generator(self) -> np.random.Generator:
        return self.child()

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
        object.__setattr__(self, "p", real_number(self.p, "p", 1))


def gaussian_matrix(rng: SeededRng, k: int, n: int) -> np.ndarray:
    """k x n matrix of i.i.d. standard normals."""
    shape = (whole_number(k, "k", 1), whole_number(n, "n", 1))
    return rng.generator().standard_normal(shape)


def stiefel_batch(gen: np.random.Generator, k: int, n: int, count: int) -> np.ndarray:
    """``count`` Haar frames as a (count, k, n) array, drawn from ``gen``.

    Each frame is Q^T from the QR decomposition of an n x k Gaussian, with
    the signs of diag(R) divided out so that the law is exactly Haar
    (Mezzadri, Notices AMS 54, 2007).
    """
    k, n = frame_dims(k, n)
    count = whole_number(count, "count", 1)
    q, r = np.linalg.qr(gen.standard_normal((count, n, k)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return np.swapaxes(q, 1, 2)


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
    k, n = frame_dims(k, n)
    count = whole_number(count, "count", 1)
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


def random_signs(gen: np.random.Generator, shape) -> np.ndarray:
    """Independent signs, -1.0 or +1.0 with probability 1/2 each, of ``shape``."""
    return gen.integers(0, 2, size=shape) * 2.0 - 1.0


def p_gaussian_batch(gen: np.random.Generator, p: float, shape) -> np.ndarray:
    """Draws with density exp(-|x|^p / p) / (2 p^(1/p) Gamma(1 + 1/p)).

    For finite p != 1, X = V (p G)^(1/p) with V ~ Uniform[-1, 1] and
    G ~ Gamma(1 + 1/p): |X|^p / p ~ Gamma(1/p, 1), as Gamma(a) = Gamma(a + 1)
    U^(1/a).  A Gamma shape above 1 takes numpy's fast path and never
    underflows to 0 at large p.  At p = 1, |X| is a standard exponential,
    the same bits as Gamma(1) in fewer steps, with a random sign; p = inf
    yields Uniform[-1, 1].  Needs p >= 1 and every extent of ``shape`` (an
    int or a sequence) a whole number >= 1.
    """
    p = real_number(p, "p", 1)
    shape = tuple(whole_number(extent, "each extent of shape", 1)
                  for extent in (shape if np.iterable(shape) else (shape,)))
    if math.isinf(p):
        return gen.uniform(-1.0, 1.0, size=shape)
    if p == 1.0:
        g = gen.standard_exponential(size=shape)
        return random_signs(gen, shape) * g
    g = gen.gamma(1.0 + 1.0 / p, 1.0, size=shape)
    return gen.uniform(-1.0, 1.0, size=shape) * (p * g) ** (1.0 / p)


def p_gaussian(rng: SeededRng, params: PGaussianParams, count: int) -> np.ndarray:
    """``count`` i.i.d. p-generalized Gaussian draws."""
    return p_gaussian_batch(rng.generator(), params.p, count)


def uniform_lp_ball(
    rng: SeededRng, p: float, n: int, radius_scale: float
) -> np.ndarray:
    """Uniform point on ``radius_scale`` times the unit lp ball in R^n.

    Representation for finite p: radius_scale * U^(1/n) * Z / ||Z||_p with Z
    a vector of i.i.d. p-Gaussians and U ~ Uniform[0, 1] independent of Z.
    """
    return lp_ball_batch(rng.generator(), p, n, radius_scale, 1)[0]


def lp_ball_batch(
    gen: np.random.Generator, p: float, n: int, radius_scale: float | None, count: int
) -> np.ndarray:
    """(count, n) array of independent uniform points of ``radius_scale``
    times the unit lp ball, 1 <= p <= inf; ``radius_scale=None`` means
    n^(1/p), the scaling of the projection results.  The l-inf ball is the
    cube: ``radius_scale`` times i.i.d. Uniform[-1, 1], with no radial draw."""
    n, p = whole_number(n, "n", 1), real_number(p, "p", 1)
    radius_scale = n ** (1.0 / p) if radius_scale is None else real_number(
        radius_scale, "radius_scale", 0, strict=True, finite=True)
    count = whole_number(count, "count", 1)
    z = p_gaussian_batch(gen, p, (count, n))
    if math.isinf(p):
        return radius_scale * z
    u = gen.uniform(size=(count, 1))
    if p > LARGE_P:  # ||z||_p = m ||z / m||_p with m = max |z_i|, free of underflow
        m = np.abs(z).max(axis=1, keepdims=True)
        norms = m * np.linalg.norm(z / m, ord=p, axis=1, keepdims=True)
    else:
        norms = np.linalg.norm(z, ord=p, axis=1, keepdims=True)
    return radius_scale * u ** (1.0 / n) * z / norms


def dickey_corner_batch(
    gen: np.random.Generator, k: int, m: int, big_n: int, count: int
) -> np.ndarray:
    """(count, k, m) array of T = (S + G G^T)^(-1/2) G, with S Wishart of
    k x (N + k - 1) Gaussian rows independent of the k x m Gaussian G.

    ``T T^T`` always has operator norm < 1.
    """
    k, m, big_n = (whole_number(k, "k", 1), whole_number(m, "m", 1),
                   whole_number(big_n, "N", 1))
    count = whole_number(count, "count", 1)
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
    k, ell, big_n = corner_dof(k, ell, n)
    return dickey_corner_batch(gen, k, ell, big_n, count)
