"""Closed-form log densities: inverted matrix-variate t, Haar-frame corner
blocks, Wishart, p-generalized Gaussians, and the multivariate gamma
function.

Everything is returned on the log scale (nats); -inf encodes "outside the
support".  Exponents like (n - l - k - 1)/2 overflow the linear scale for n
in the hundreds, which is exactly the regime the rare-event experiments run
in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .linalg import as_matrix, gram, log_det_complement, sym_eigenvalues, whole_number

NEG_INF = float("-inf")


def log_multivariate_gamma(k: int, x: float) -> float:
    """log Gamma_k(x) = (k(k-1)/4) log pi + sum_i log Gamma(x - (i-1)/2)."""
    k = whole_number(k, "k", 1)
    if not x > (k - 1) / 2:
        raise DomainError(f"need x > (k-1)/2 = {(k - 1) / 2}, got {x}")
    shifts = np.arange(k) / 2.0
    return float(k * (k - 1) / 4.0 * math.log(math.pi) + np.sum(gammaln(x - shifts)))


def log_inverted_t_density(a, n_dof: int) -> float:
    """Log density of the inverted matrix-variate t law with ``n_dof``
    degrees of freedom at the k x m matrix ``a``; -inf off the support
    ||A A^T|| < 1.
    """
    a = as_matrix(a)
    k, m = a.shape
    log_comp = log_det_complement(gram(a))
    if log_comp == NEG_INF:
        return NEG_INF
    const = (
        log_multivariate_gamma(k, (n_dof + m + k - 1) / 2.0)
        - (m * k / 2.0) * math.log(math.pi)
        - log_multivariate_gamma(k, (n_dof + k - 1) / 2.0)
    )
    return const + (n_dof - 2) / 2.0 * log_comp


def log_corner_density(a, k: int, ell: int, n: int) -> float:
    """Log density of the leading k x ell block of a Haar k x n frame.

    Equals the inverted-t density with n - ell - k + 1 degrees of freedom.
    """
    a = as_matrix(a)
    if a.shape != (k, ell):
        raise DomainError(f"matrix shape {a.shape} does not match (k, ell)")
    if n < ell + k:
        raise DomainError("need n >= ell + k")
    return log_inverted_t_density(a, n - ell - k + 1)


def log_wishart_density(s, k: int, n: int) -> float:
    """Log density of the identity-scale Wishart law at the symmetric k x k
    matrix ``s``; -inf when ``s`` is not positive definite."""
    s = as_matrix(s)
    if s.shape != (k, k):
        raise DomainError(f"expected a {k} x {k} matrix, got shape {s.shape}")
    if k > n:
        raise DomainError(f"k must be <= n, got k = {k}, n = {n}")
    if np.max(np.abs(s - s.T)) > 1e-12 * max(1.0, float(np.max(np.abs(s)))):
        raise DomainError("matrix is not symmetric")
    lam = sym_eigenvalues(s)
    if lam[-1] <= 0.0:
        return NEG_INF
    log_det = float(np.sum(np.log(lam)))
    trace = float(np.trace(s))
    return (
        (n - k - 1) / 2.0 * log_det
        - trace / 2.0
        - (n * k / 2.0) * math.log(2.0)
        - log_multivariate_gamma(k, n / 2.0)
    )


def log_p_gaussian_density(x: float, p: float) -> float:
    """log f_p(x) with f_p(x) = exp(-|x|^p / p) / (2 p^(1/p) Gamma(1 + 1/p))
    for 1 <= p < inf; p = inf is the Uniform[-1, 1] limit, log 1/2 on
    [-1, 1] and -inf outside.  Refuses p < 1 and NaN x."""
    if not p >= 1:
        raise DomainError("p must be >= 1")
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if math.isinf(p):
        return -math.log(2.0) if abs(x) <= 1.0 else NEG_INF
    return -abs(x) ** p / p - math.log(2.0) - math.log(p) / p - math.lgamma(1.0 + 1.0 / p)


def log_pth_power_density(x: float, p: float) -> float:
    """Log density of |Z|^p for a p-Gaussian Z: gamma_p x^(1/p - 1) e^(-x/p)
    on x > 0, with gamma_p = 1 / (p^(1/p) Gamma(1/p)), and -inf at x <= 0
    and x = inf.  Refuses p < 1, p = inf, where |Z|^p degenerates to 0 and
    has no density, and NaN x."""
    if not 1 <= p < math.inf:
        raise DomainError("p must be >= 1 and finite")
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if not 0.0 < x < math.inf:
        return NEG_INF
    log_gamma_p = -math.log(p) / p - math.lgamma(1.0 / p)
    return log_gamma_p + (1.0 / p - 1.0) * math.log(x) - x / p


def sigma_p_squared(p: float) -> float:
    """Variance of the p-generalized Gaussian: p^(2/p) Gamma(3/p) / Gamma(1/p).

    p = inf is the Uniform[-1, 1] case with variance 1/3.
    """
    if not p >= 1:
        raise DomainError("p must be >= 1")
    if math.isinf(p):
        return 1.0 / 3.0
    return float(p ** (2.0 / p) * math.exp(math.lgamma(3.0 / p) - math.lgamma(1.0 / p)))
