import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import gammainc
from scipy.stats import kstest

from ldplab.densities import (
    log_corner_density,
    log_inverted_t_density,
    log_multivariate_gamma,
    log_p_gaussian_density,
    log_pth_power_density,
    log_wishart_density,
    sigma_p_squared,
)
from ldplab.errors import DimensionMismatch, DomainError
from ldplab.samplers import PGaussianParams, SeededRng, p_gaussian, wishart_batch


def test_log_gamma_matches_integer_factorials():
    # the log-gamma backend must hit factorials to near machine precision
    log_fact = 0.0
    for n in range(2, 140):
        log_fact += math.log(n)
        val = log_multivariate_gamma(1, float(n + 1))
        assert abs(val - log_fact) <= 1e-13 * max(1.0, abs(log_fact))


def test_multivariate_gamma_reduces_to_gamma():
    assert abs(log_multivariate_gamma(1, 3.0) - math.log(2.0)) < 1e-14


def test_multivariate_gamma_k2():
    assert abs(log_multivariate_gamma(2, 1.5) - math.log(math.pi / 2)) < 1e-14


def test_multivariate_gamma_domain():
    with pytest.raises(DomainError):
        log_multivariate_gamma(3, 1.0)


def test_multivariate_gamma_ratio_asymptotics():
    # (1/n) log(Gamma_k(n/2) / Gamma_k((n-l)/2)) ~ (k l / 2n) log(n/2)
    k, ell = 2, 3
    errs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        lhs = (log_multivariate_gamma(k, n / 2.0)
               - log_multivariate_gamma(k, (n - ell) / 2.0)) / n
        errs.append(abs(lhs - k * ell / (2.0 * n) * math.log(n / 2.0)))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-8


def test_inverted_t_support():
    assert log_inverted_t_density(np.array([[1.2]]), 5) == -math.inf
    assert log_inverted_t_density(np.array([[0.8, 0.7]]), 5) == -math.inf


def test_inverted_t_scalar_normalization():
    total, err = quad(lambda x: math.exp(log_inverted_t_density(np.array([[x]]), 3)),
                      -1, 1, epsabs=1e-12, limit=200)
    assert abs(total - 1.0) < 1e-8


def test_inverted_t_disc_normalization():
    def f(y, x):
        return math.exp(log_inverted_t_density(np.array([[x, y]]), 2))

    total, err = dblquad(f, -1, 1,
                         lambda x: -math.sqrt(max(1 - x**2, 0.0)),
                         lambda x: math.sqrt(max(1 - x**2, 0.0)),
                         epsabs=1e-9)
    assert abs(total - 1.0) < 1e-6


def test_corner_scalar_normalization():
    n = 12
    total, _ = quad(lambda x: math.exp(log_corner_density(np.array([[x]]), 1, 1, n)),
                    -1, 1, epsabs=1e-12, limit=200)
    assert abs(total - 1.0) < 1e-9


def test_corner_constant_at_zero():
    val = log_corner_density(np.zeros((1, 1)), 1, 1, 4)
    assert abs(val - math.log(2.0 / math.pi)) < 1e-14


def test_corner_matches_inverted_t_substitution():
    gen = np.random.default_rng(5)
    for _ in range(50):
        k = int(gen.integers(1, 4))
        ell = int(gen.integers(1, 4))
        n = int(gen.integers(k + ell, k + ell + 30))
        a = gen.uniform(-0.3, 0.3, (k, ell))
        lhs = log_corner_density(a, k, ell, n)
        rhs = log_inverted_t_density(a, n - ell - k + 1)
        assert abs(lhs - rhs) < 1e-10


def test_corner_domain_error():
    with pytest.raises(DomainError):
        log_corner_density(np.zeros((2, 3)), 2, 3, 4)


def test_wishart_chi_squared_point():
    s = np.array([[2.0]])
    assert abs(log_wishart_density(s, 1, 2) - math.log(math.exp(-1.0) / 2.0)) < 1e-12


def test_wishart_normalization():
    total, _ = quad(
        lambda x: math.exp(log_wishart_density(np.array([[x]]), 1, 3)),
        0, 50, epsabs=1e-10, limit=200)
    assert abs(total - 1.0) < 1e-6


def test_wishart_singular_support():
    s = np.diag([1.0, 0.0])
    assert log_wishart_density(s, 2, 3) == -math.inf


def test_wishart_is_minus_inf_off_its_support():
    # raised NumericalFailure ("matrix is not PSD") before
    assert log_wishart_density(np.array([[-1.0]]), 1, 3) == -math.inf
    assert log_wishart_density(np.diag([1.0, -1.0]), 2, 3) == -math.inf


def test_wishart_rejects_non_symmetric_matrix():
    with pytest.raises(DomainError, match="not symmetric"):
        log_wishart_density(np.array([[1.0, 0.5], [0.1, 1.0]]), 2, 3)
    # the tolerance scales with the largest entry: 5e-12 > 1e-12 * 4 > 3e-12
    s = np.array([[4.0, 1.0], [1.0 + 5e-12, 4.0]])
    with pytest.raises(DomainError, match="not symmetric"):
        log_wishart_density(s, 2, 3)
    s[1, 0] = 1.0 + 3e-12
    assert math.isfinite(log_wishart_density(s, 2, 3))


def test_wishart_density_finite_on_batch_draws():
    for s in wishart_batch(SeededRng(29).generator(), 3, 7, 50):
        assert math.isfinite(log_wishart_density(s, 3, 7))


def test_inverted_t_rejects_zero_rows():
    with pytest.raises(DimensionMismatch):
        log_inverted_t_density(np.zeros((0, 3)), 5)


def test_p_gaussian_density_points():
    assert abs(log_p_gaussian_density(0.0, 2.0) + math.log(math.sqrt(2 * math.pi))) < 1e-14
    assert abs(log_p_gaussian_density(1.0, 1.0) - (-1.0 - math.log(2.0))) < 1e-14


def test_p_gaussian_density_normalization():
    total, _ = quad(lambda x: math.exp(log_p_gaussian_density(x, 1.5)),
                    -np.inf, np.inf, epsabs=1e-12, limit=300)
    assert abs(total - 1.0) < 1e-9


def test_p_gaussian_density_domain():
    # p = inf is the Uniform[-1, 1] law; p < 1 is no p-Gaussian
    assert log_p_gaussian_density(0.5, math.inf) == -math.log(2.0)
    assert log_p_gaussian_density(-1.0, math.inf) == -math.log(2.0)
    assert log_p_gaussian_density(1.5, math.inf) == -math.inf
    for p in (0.0, 0.5, -1.0, math.nan):
        with pytest.raises(DomainError):
            log_p_gaussian_density(0.5, p)
    for p in (1.0, 2.0, math.inf):
        with pytest.raises(DomainError, match="NaN"):
            log_p_gaussian_density(math.nan, p)


def test_p_gaussian_density_where_the_power_overflows():
    # abs(x) ** p raised OverflowError; the density there is 0
    for x, p in ((3.0, 1000.0), (10.0, 400.0), (-1.5, 2000.0)):
        assert log_p_gaussian_density(x, p) == -math.inf
    want = -1.0 / 1000.0 - math.log(2.0) - math.log(1000.0) / 1000.0 - math.lgamma(1.001)
    assert log_p_gaussian_density(1.0, 1000.0) == want


def test_pth_power_density_domain():
    for p in (0.0, 0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_pth_power_density(1.0, p)
    for p in (1.0, 2.0):
        with pytest.raises(DomainError, match="NaN"):
            log_pth_power_density(math.nan, p)
        # no mass at infinity; at p = 1 this was 0 * log(inf) = NaN
        assert log_pth_power_density(math.inf, p) == -math.inf


def test_pth_power_density_reduces_to_chi2():
    val = math.exp(log_pth_power_density(1.0, 2.0))
    assert abs(val - math.exp(-0.5) / math.sqrt(2 * math.pi)) < 1e-14
    assert log_pth_power_density(-0.3, 2.0) == -math.inf


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_pth_power_density_normalization_and_mean(p):
    total, _ = quad(lambda x: math.exp(log_pth_power_density(x, p)),
                    0, np.inf, epsabs=1e-12, limit=300)
    assert abs(total - 1.0) < 1e-8
    mean, _ = quad(lambda x: x * math.exp(log_pth_power_density(x, p)),
                   0, np.inf, epsabs=1e-12, limit=300)
    assert abs(mean - 1.0) < 1e-7


def test_sigma_p_squared_values():
    assert abs(sigma_p_squared(2.0) - 1.0) < 1e-12
    assert abs(sigma_p_squared(1.0) - 2.0) < 1e-12
    assert sigma_p_squared(math.inf) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
def test_sigma_p_squared_matches_sample_variance(p):
    draws = p_gaussian(SeededRng(31, int(p if math.isfinite(p) else 99)),
                       PGaussianParams(p), 2 * 10**5)
    target = sigma_p_squared(p)
    sq = draws**2
    stderr = sq.std() / math.sqrt(sq.size)
    assert abs(sq.mean() - target) < 3 * stderr


def p_gaussian_cdf(p):
    def cdf(x):
        x = np.asarray(x, dtype=float)
        # y = |x|^p / p in log space: y underflows for small |x| at large p,
        # and there P(1/p, y) = y^(1/p) / Gamma(1 + 1/p) to within 1 + O(y)
        with np.errstate(divide="ignore", over="ignore"):
            log_y = p * np.log(np.abs(x)) - math.log(p)
            inner = np.where(log_y < -690.0,
                             np.exp(log_y / p - math.lgamma(1.0 + 1.0 / p)),
                             gammainc(1.0 / p, np.exp(log_y)))
        return 0.5 * (1.0 + np.sign(x) * inner)

    return cdf


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 32.0, 200.0, 1000.0])
def test_p_gaussian_samples_match_density(p):
    # at p = 200 and 1000 the Gamma(1/p) draws underflowed to an atom at 0
    draws = p_gaussian(SeededRng(33, int(10 * p)), PGaussianParams(p), 10**5)
    stat = kstest(draws, p_gaussian_cdf(p)).statistic
    assert stat < 1.63 / math.sqrt(draws.size)


def test_pth_power_samples_match_density():
    p = 1.5
    draws = np.abs(p_gaussian(SeededRng(34), PGaussianParams(p), 10**5)) ** p
    stat = kstest(draws, lambda x: gammainc(1.0 / p, np.asarray(x) / p)).statistic
    assert stat < 1.63 / math.sqrt(draws.size)
