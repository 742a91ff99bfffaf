"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the
per-criterion lines).  The heavy Monte Carlo criteria use fixed seeds and
finish on a desktop-class machine within the stated budgets.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import betainc
from scipy.stats import kstest

from ldplab.configurations import (
    PointConfiguration,
    config_to_matrix,
    identify_equivalent,
    power_sums,
    recover_from_power_sums,
)
from ldplab.densities import (
    log_corner_density,
    log_inverted_t_density,
    log_p_gaussian_density,
    log_pth_power_density,
    log_wishart_density,
    sigma_p_squared,
)
from ldplab.linalg import ColumnList, gram, operator_norm
from ldplab.projections import (
    ProjectedLaw,
    characteristic_function,
    compare_ball_vs_product,
    empirical_cf,
    project_lp_ball,
    sample_projected_law,
)
from ldplab.rates import rate_finite
from ldplab.samplers import (
    PGaussianParams,
    SeededRng,
    haar_stiefel,
    p_gaussian,
    stiefel_corner_batch,
)
from ldplab.verify import (
    LdpExperiment,
    run_clt_check,
    run_dickey_check,
    run_ldp_configuration,
    run_ldp_corner,
)


def report(num, detail):
    print(f"ACCEPTANCE criterion {num}: PASS ({detail})")


def test_criterion_01_stiefel_orthonormality():
    gen = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        n = int(gen.integers(1, 65))
        k = int(gen.integers(1, min(n, 8) + 1))
        v = haar_stiefel(SeededRng(1000, i), k, n)
        worst = max(worst, float(np.linalg.norm(v @ v.T - np.eye(k))))
    assert worst <= 1e-10
    report(1, f"max ||VV^T - I||_F = {worst:.2e} over 1000 draws")


def test_criterion_02_corner_density_ks():
    crit = 1.63 / math.sqrt(10**5)
    stats = {}
    for n in (5, 10, 50):
        draws = stiefel_corner_batch(SeededRng(1002, n).generator(), 1, n, 1, 10**5)

        def cdf(x, n=n):
            x = np.asarray(x, dtype=float)
            inner = betainc(0.5, (n - 1) / 2.0, np.clip(x**2, 0.0, 1.0))
            return 0.5 * (1.0 + np.sign(x) * inner)

        stats[n] = kstest(draws[:, 0, 0], cdf).statistic
        assert stats[n] < crit
    report(2, "KS stats " + ", ".join(f"n={n}: {s:.4f}" for n, s in stats.items())
           + f" < {crit:.4f}")


def test_criterion_03_density_normalizations():
    tol = 1e-6
    results = {}

    total, _ = quad(lambda x: math.exp(log_inverted_t_density(np.array([[x]]), 3)),
                    -1, 1, epsabs=1e-10, limit=200)
    results["inverted-t 1x1"] = total

    total, _ = dblquad(
        lambda y, x: math.exp(log_inverted_t_density(np.array([[x, y]]), 2)),
        -1, 1,
        lambda x: -math.sqrt(max(1 - x**2, 0.0)),
        lambda x: math.sqrt(max(1 - x**2, 0.0)), epsabs=1e-9)
    results["inverted-t 1x2"] = total

    total, _ = quad(lambda x: math.exp(log_corner_density(np.array([[x]]), 1, 1, 9)),
                    -1, 1, epsabs=1e-10, limit=200)
    results["corner l=1"] = total

    total, _ = dblquad(
        lambda y, x: math.exp(log_corner_density(np.array([[x, y]]), 1, 2, 9)),
        -1, 1,
        lambda x: -math.sqrt(max(1 - x**2, 0.0)),
        lambda x: math.sqrt(max(1 - x**2, 0.0)), epsabs=1e-9)
    results["corner l=2"] = total

    total, _ = quad(
        lambda x: math.exp(log_wishart_density(np.array([[x]]), 1, 3)),
        0, 60, epsabs=1e-10, limit=300)
    results["wishart k=1"] = total

    for p in (1.0, 1.5, 2.0, 3.0):
        total, _ = quad(lambda x: math.exp(log_p_gaussian_density(x, p)),
                        -np.inf, np.inf, epsabs=1e-10, limit=300)
        results[f"p-gaussian p={p}"] = total
        total, _ = quad(lambda x: math.exp(log_pth_power_density(x, p)),
                        0, np.inf, epsabs=1e-10, limit=300)
        results[f"pth-power p={p}"] = total

    worst = max(abs(v - 1.0) for v in results.values())
    assert worst < tol, results
    report(3, f"{len(results)} integrals within {worst:.2e} of 1")


def test_criterion_04_quadrature_slope():
    exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=0.05,
                        n_values=[500, 875, 1250, 1625, 2000],
                        samples_per_n=1, method="quadrature")
    rep = run_ldp_corner(SeededRng(1004), exp)
    reference = -0.5 * math.log(1 - 0.25**2)
    assert rep.rate_reference == pytest.approx(reference, abs=1e-9)
    assert rep.relative_gap < 0.02
    report(4, f"slope {rep.fitted_slope:.6f} vs {reference:.6f}, "
              f"gap {rep.relative_gap:.3%}")


# shared between criteria 4/5: the quadrature slope over the Monte Carlo window
def _quadrature_slope_window(n_values):
    exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=0.05,
                        n_values=n_values, samples_per_n=1, method="quadrature")
    return run_ldp_corner(SeededRng(1004), exp).fitted_slope


def test_criterion_05_monte_carlo_slope():
    n_values = [40, 80, 120, 160]
    exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=0.05,
                        n_values=n_values, samples_per_n=10**6)
    rep = run_ldp_corner(SeededRng(1005), exp)
    quad_slope = _quadrature_slope_window(n_values)
    gap = abs(rep.fitted_slope - quad_slope) / quad_slope
    assert gap < 0.15
    report(5, f"MC slope {rep.fitted_slope:.6f} vs quadrature {quad_slope:.6f}, "
              f"gap {gap:.3%} at 1e6 samples/n")


def test_criterion_06_configuration_ldp():
    # The event is open, so the LDP predicts the infimum of the rate over it:
    # the matched column at |x| = 0.4 - rho. The window keeps the event
    # reachable (column mass 1 fits under 0.45^2 + (n-1) r^2) and r as large
    # as the typical largest stray coordinate, about sqrt(2 log n / n) =
    # 0.27-0.30 here, so the rate, not the stray constraint, drives the decay;
    # n = 130 is the largest n the feasibility guard admits at 10^6 samples.
    atom, r, rho = 0.4, 0.3, 0.05
    n_values = [100, 110, 120, 130]
    target = PointConfiguration.from_atoms(1, [((atom,), 1)])
    rate = -0.5 * math.log(1 - (atom - rho) ** 2)
    rep = run_ldp_configuration(SeededRng(1006), 1, target, r=r, rho=rho,
                                n_values=n_values, samples_per_n=10**6)
    gap = abs(rep.fitted_slope - rate) / rate
    assert gap < 0.25
    report(6, f"r={r}, rho={rho}, n={n_values[0]}..{n_values[-1]}: slope "
              f"{rep.fitted_slope:.4f} +/- {rep.slope_stderr:.4f} vs "
              f"ball-infimum rate {rate:.4f}, gap {gap:.3%}")


def test_criterion_07_monotonicity_and_convexity():
    gen = np.random.default_rng(107)
    slack = 1e-12

    # column truncations: rates non-decreasing in the number of columns
    for _ in range(10**4):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(2, 6))
        a = gen.standard_normal((k, m))
        a *= 0.99 * gen.uniform(0.2, 1.0) / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        rates = [rate_finite(a[:, :ell]) for ell in range(1, m + 1)]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - slack

    # row truncations of a square block: non-decreasing in the row count
    for _ in range(10**4):
        n = int(gen.integers(2, 6))
        mmat = gen.standard_normal((n, n))
        mmat *= 0.99 * gen.uniform(0.2, 1.0) / math.sqrt(max(operator_norm(gram(mmat)), 1e-12))
        rates = [rate_finite(mmat[:j, :]) for j in range(1, n + 1)]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - slack

    # midpoint convexity
    for _ in range(10**4):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        a = gen.standard_normal((k, m))
        b = gen.standard_normal((k, m))
        a *= 0.95 * gen.uniform(0.2, 1.0) / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        b *= 0.95 * gen.uniform(0.2, 1.0) / math.sqrt(max(operator_norm(gram(b)), 1e-12))
        mid = rate_finite(0.5 * (a + b))
        assert mid <= 0.5 * (rate_finite(a) + rate_finite(b)) + slack

    report(7, "3 x 10^4 random instances, zero violations beyond 1e-12")


def test_criterion_08_dickey_relation():
    samples = 10**5
    pvals = {}
    for k, m, n in ((1, 1, 10), (2, 2, 20)):
        rep = run_dickey_check(SeededRng(1008, k), k, m, n, samples)
        pvals[(k, m, n)] = rep.min_pvalue
        assert rep.min_pvalue > 0.01
    control = run_dickey_check(SeededRng(1008, 9), 1, 1, 10, samples, dof_offset=5)
    assert control.min_pvalue < 0.01
    report(8, f"min p-values {pvals}; off-by-5 control p={control.min_pvalue:.2e}")


def test_criterion_09_sigma_p_and_clt():
    for i, p in enumerate((1.0, 1.5, 2.0, 4.0, math.inf)):
        draws = p_gaussian(SeededRng(1009, i), PGaussianParams(p), 10**6)
        sq = draws**2
        stderr = sq.std() / math.sqrt(sq.size)
        assert abs(sq.mean() - sigma_p_squared(p)) < 3 * stderr

    pvals = {}
    for p in (1.0, 4.0):
        rep = run_clt_check(SeededRng(1009, int(100 * p)), 1, p, 500, 10**4)
        pvals[p] = rep.min_pvalue
        assert rep.min_pvalue > 0.01
    rep_inf = run_clt_check(SeededRng(1009, 999), 1, math.inf, 500, 10**4)
    assert rep_inf.sigma_squared == pytest.approx(1.0 / 3.0)
    assert rep_inf.min_pvalue > 0.01
    pvals["inf"] = rep_inf.min_pvalue
    report(9, f"variances within 3 stderr; CLT KS p-values {pvals}")


def test_criterion_10_characteristic_functions():
    gen = np.random.default_rng(110)
    count = 2 * 10**4
    bound = 3.0 / math.sqrt(count)
    worst = 0.0
    for trial in range(10):
        law_p = math.inf if trial % 2 == 0 else 1.0
        k = int(gen.integers(1, 4))
        m = int(gen.integers(0, 4))
        if m:
            cols = gen.uniform(-0.6, 0.6, (k, m))
            norm = math.sqrt(max(operator_norm(gram(cols)), 1e-12))
            cols *= 0.9 * gen.uniform(0.3, 1.0) / norm
            a = ColumnList.from_columns(k, cols)
        else:
            a = ColumnList.empty(k)
        law = ProjectedLaw(a=a, noise_variance=sigma_p_squared(law_p),
                           product_law=PGaussianParams(law_p))
        cloud = sample_projected_law(SeededRng(1010, trial), law, count)
        for _ in range(20):
            t = gen.uniform(-2.5, 2.5, k)
            diff = abs(characteristic_function(law, t).real
                       - empirical_cf(cloud, t).real)
            worst = max(worst, diff)
            assert diff < bound
    report(10, f"max |phi - phi_hat| = {worst:.4f} < {bound:.4f} over 10 laws")


def test_criterion_11_ball_vs_product_trend():
    out = compare_ball_vs_product(SeededRng(1011), 1, 1.0, [20, 80, 320],
                                  6000, grid=192)
    values = [d for _, d in out]
    slack = 1.0 / 192
    inversions = sum(1 for a, b in zip(values, values[1:]) if b > a + slack)
    assert inversions <= 1
    assert values[-1] < values[0]
    report(11, f"LP estimates {values} with {inversions} inversion(s)")


def test_criterion_12_power_sum_identification():
    gen = np.random.default_rng(112)
    worst = 0.0
    for _ in range(200):
        n_distinct = int(gen.integers(1, 5))
        while True:
            vals = np.sort(gen.uniform(0.05, 0.95, n_distinct))[::-1]
            if n_distinct == 1 or np.min(-np.diff(vals)) >= 0.05:
                break
        mults = gen.integers(1, 3, n_distinct)
        while mults.sum() > 6:
            mults[gen.integers(0, n_distinct)] = 1
        seq = np.repeat(vals, mults)
        rec = recover_from_power_sums(power_sums(seq, 3, 60), 6, 1e-3)
        assert len(rec) == len(seq)
        worst = max(worst, float(np.max(np.abs(np.asarray(rec) - seq))))
    assert worst < 1e-3

    def brute(p, q, tol):
        if p.count != q.count:
            return False
        m = p.count
        if m == 0:
            return True
        for perm in itertools.permutations(range(m)):
            for signs in itertools.product([-1.0, 1.0], repeat=m):
                cand = q.columns[:, perm] * np.array(signs)
                if np.linalg.norm(cand - p.columns, axis=0).max() <= tol:
                    return True
        return False

    disagreements = 0
    for _ in range(500):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 5))
        cols = gen.uniform(-0.5, 0.5, (k, m))
        cols[:, np.linalg.norm(cols, axis=0) < 1e-3] += 0.2
        p = ColumnList.from_columns(k, cols)
        if gen.uniform() < 0.5:
            perm = gen.permutation(m)
            signs = gen.choice([-1.0, 1.0], m)
            q_cols = cols[:, perm] * signs
            if gen.uniform() < 0.3:
                q_cols = q_cols + gen.uniform(-0.03, 0.03, q_cols.shape)
        else:
            q_cols = gen.uniform(-0.5, 0.5, (k, m))
            q_cols[:, np.linalg.norm(q_cols, axis=0) < 1e-3] += 0.2
        q = ColumnList.from_columns(k, q_cols)
        if identify_equivalent(p, q, 12, 1e-6) != brute(p, q, 1e-6):
            disagreements += 1
    assert disagreements == 0
    report(12, f"200 recoveries within {worst:.2e}; "
               f"{disagreements} identification disagreements in 500")
