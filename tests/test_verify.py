import math

import numpy as np
import pytest
from scipy.integrate import quad

import ldplab.verify as verify
from ldplab.configurations import PointConfiguration
from ldplab.densities import log_corner_density
from ldplab.errors import DomainError, InfeasibleExperiment, NumericalFailure
from ldplab.rates import rate_finite
from ldplab.samplers import SeededRng, stiefel_batch
from ldplab.verify import (
    EntryTest,
    LdpExperiment,
    NEstimate,
    TwoSampleReport,
    configuration_hit_count,
    json_doc,
    min_rate_over_ball,
    run_clt_check,
    run_dickey_check,
    run_ldp_configuration,
    run_ldp_corner,
    worker_count,
)


def test_worker_count_env_override(monkeypatch):
    # no environment variable overrides an explicit thread count
    monkeypatch.setenv("LDPLAB_THREADS", "3")
    assert worker_count(8) == 8
    with pytest.raises(DomainError, match="threads must be a whole number >= 1"):
        worker_count(0)


def test_min_rate_over_ball_scalar():
    val = min_rate_over_ball(np.array([[0.3]]), 0.05)
    assert abs(val - (-0.5 * math.log(1 - 0.25**2))) < 1e-9
    assert min_rate_over_ball(np.array([[0.05]]), 0.1) == 0.0


def test_min_rate_over_ball_matrix():
    # ball around the zero matrix reaching zero: minimum 0
    assert min_rate_over_ball(np.array([[0.2, 0.0], [0.0, 0.2]]), 0.5) < 1e-8
    # shrinking toward zero by r along the singular values
    val = min_rate_over_ball(np.diag([0.5, 0.0]), 0.1)
    assert abs(val - (-0.5 * math.log(1 - 0.4**2))) < 1e-12


def test_min_rate_over_ball_rank_one_is_exact():
    assert min_rate_over_ball(np.diag([0.6, 0.0]), 0.25) == rate_finite([[0.6 - 0.25]])
    v = np.array([0.3, -0.4, 0.5])
    s1 = float(np.linalg.svd(v[None, :], compute_uv=False)[0])
    assert min_rate_over_ball(v[None, :], 0.1) == rate_finite([[s1 - 0.1]])
    s1 = float(np.linalg.svd(v[:, None], compute_uv=False)[0])
    assert min_rate_over_ball(v[:, None], 0.1) == rate_finite([[s1 - 0.1]])


def test_min_rate_over_ball_equal_singular_values():
    # by symmetry every singular value moves by r / sqrt(d); here the upper
    # end of the bracket, before widening, lands exactly on the sphere, and
    # c = 1 puts the roots against the support boundary
    for c, d, radius in ((0.5, 2, 0.1), (0.7, 3, 0.3), (1.0, 2, 1e-3), (1.0, 2, 1e-9)):
        x = c - radius / math.sqrt(d)
        expected = -0.5 * d * math.log1p(-(x**2))
        val = min_rate_over_ball(c * np.eye(d), radius)
        assert val == pytest.approx(expected, rel=1e-9)


def test_min_rate_over_ball_outside_support_is_infinite():
    # every block of the ball has a singular value >= 1.2 - 0.1
    assert min_rate_over_ball(np.diag([1.2, 0.5]), 0.1) == math.inf
    assert min_rate_over_ball([[1.2]], 0.1) == math.inf
    # the ball touches the support boundary only at its edge
    assert min_rate_over_ball(np.diag([1.25, 0.5]), 0.25) == math.inf
    assert 0.0 < min_rate_over_ball(np.diag([1.25, 0.5]), 0.26) < math.inf


def test_min_rate_over_ball_two_start_counterexample():
    # a target where a two-start SLSQP search returned 1.32161e-4, below the
    # constrained minimum
    target = [[0.01873953072320854, -0.11631555503412164, -0.03227457411290575],
              [-0.06303380239926708, -0.041637985043499026, 0.107535992210659]]
    val = min_rate_over_ball(target, 0.16316575973639022)
    assert val == pytest.approx(1.32179697095731e-4, rel=1e-9)


def _random_block(gen, k, ell):
    a = gen.standard_normal((k, ell))
    a *= gen.uniform(0.05, 0.95) / np.linalg.norm(a, 2)
    radius = float(gen.uniform(0.01, 0.99) * (1.0 - np.linalg.norm(a, 2)))
    return a, radius


def test_min_rate_over_ball_never_above_points_of_the_ball():
    gen = np.random.default_rng(2024)
    for _ in range(300):
        a, radius = _random_block(gen, int(gen.integers(1, 4)), int(gen.integers(1, 4)))
        val = min_rate_over_ball(a, radius)
        for _ in range(10):
            d = gen.standard_normal(a.shape)
            d *= radius * gen.uniform() ** (1.0 / a.size) / np.linalg.norm(d)
            assert val <= rate_finite(a + d) * (1.0 + 1e-12)


def test_min_rate_over_ball_matches_circle_search():
    # two singular values: the minimum lies on the circle ||x - s|| = r
    # (clipped at 0, which stays inside the ball), found by a grid in the
    # angle refined by a bounded scalar search; a minimum on the axis x_2 = 0
    # is a kink of the angle profile, so that point is a candidate of its own
    from scipy.optimize import minimize_scalar

    gen = np.random.default_rng(2025)
    step = 2.0 * math.pi / 20_000
    theta = np.arange(20_000) * step
    for _ in range(50):
        a, radius = _random_block(gen, 2, int(gen.integers(2, 4)))
        s = np.linalg.svd(a, compute_uv=False)
        if np.linalg.norm(s) <= radius:
            continue

        def rate_at(t):
            x = np.clip(s[:, None] + radius * np.array([np.cos(t), np.sin(t)]), 0.0, None)
            return -0.5 * np.sum(np.log1p(-(x**2)), axis=0)

        t0 = theta[np.argmin(rate_at(theta))]
        best = minimize_scalar(lambda t: rate_at(np.array([t]))[0],
                               bounds=(t0 - step, t0 + step),
                               method="bounded", options={"xatol": 1e-12}).fun
        if radius > s[1]:
            best = min(best, rate_finite([[s[0] - math.sqrt(radius**2 - s[1] ** 2)]]))
        val = min_rate_over_ball(a, radius)
        assert val == pytest.approx(best, rel=1e-9)


def test_experiment_validation():
    with pytest.raises(DomainError):
        LdpExperiment(k=1, ell=2, target=[[0.1]], radius=0.05,
                      n_values=[10], samples_per_n=10)
    with pytest.raises(DomainError):
        LdpExperiment(k=2, ell=2, target=np.zeros((2, 2)), radius=0.05,
                      n_values=[10, 20], samples_per_n=10, method="quadrature")
    with pytest.raises(DomainError):
        LdpExperiment(k=1, ell=1, target=[[0.1]], radius=0.05,
                      n_values=[20, 10], samples_per_n=10)
    # the ball must not reach the support boundary, from inside or outside
    for target in ([[0.9]], [[1.05]]):
        with pytest.raises(DomainError, match="inside the support"):
            LdpExperiment(k=1, ell=1, target=target, radius=0.2,
                          n_values=[10, 20], samples_per_n=10)
    # the corner law needs n >= ell + k
    with pytest.raises(DomainError):
        LdpExperiment(k=2, ell=2, target=np.zeros((2, 2)), radius=0.05,
                      n_values=[3, 10], samples_per_n=10)
    for radius in (-0.05, math.nan, math.inf):
        with pytest.raises(DomainError, match="radius must be finite"):
            LdpExperiment(k=1, ell=1, target=[[0.1]], radius=radius,
                          n_values=[10, 20], samples_per_n=10)


@pytest.mark.parametrize("field, value", [
    ("n_values", [20.5, 40]),
    ("n_values", [20, math.inf]),
    ("n_values", [True, 40]),
    ("samples_per_n", 2.5),
    ("samples_per_n", math.inf),
    ("samples_per_n", 0),
])
def test_experiment_integer_fields_are_whole_numbers(field, value):
    # int() used to run n = 20 for 20.5, 2 samples for 2.5, and overflow on inf
    args = dict(k=1, ell=1, target=[[0.2]], radius=0.1, n_values=[20, 40],
                samples_per_n=4000)
    args[field] = value
    with pytest.raises(DomainError, match="must be a whole number >= 1"):
        LdpExperiment(**args)


def test_experiment_reads_whole_floats_as_ints():
    exp = LdpExperiment(k=1, ell=1, target=[[0.2]], radius=0.1,
                        n_values=[20.0, 40], samples_per_n=4000.0)
    assert exp.n_values == [20, 40] and type(exp.n_values[0]) is int
    assert exp.samples_per_n == 4000 and type(exp.samples_per_n) is int


def test_typical_event_has_zero_slope():
    exp = LdpExperiment(k=1, ell=1, target=[[0.0]], radius=0.9,
                        n_values=[20, 40, 60], samples_per_n=4000)
    rep = run_ldp_corner(SeededRng(1), exp)
    assert rep.rate_reference == 0.0
    assert all(lp > -0.01 for _, lp, _ in rep.per_n)
    assert abs(rep.fitted_slope) < 1e-3


def test_quadrature_slope_close_to_reference():
    exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=0.05,
                        n_values=[400, 800, 1200], samples_per_n=1,
                        method="quadrature")
    rep = run_ldp_corner(SeededRng(2), exp)
    assert rep.relative_gap < 0.03
    # log-probabilities decrease in n
    lps = [lp for _, lp, _ in rep.per_n]
    assert all(b < a for a, b in zip(lps, lps[1:]))


def _per_node_log_prob(n, a, radius):
    """log P[|scalar corner - a| < r] with the matrix corner density
    evaluated at every quadrature node."""
    lo, hi = max(a - radius, -1.0), min(a + radius, 1.0)

    def log_f(x):
        return log_corner_density(np.array([[x]]), 1, 1, n)

    m = log_f(min(max(0.0, lo), hi))
    val, _ = quad(lambda x: math.exp(log_f(x) - m), lo, hi,
                  limit=200, epsabs=1e-13, epsrel=1e-11)
    return m + math.log(val)


@pytest.mark.parametrize("a, radius, n_values", [
    (0.3, 0.05, [500, 875, 1250, 1625, 2000]),
    (0.3, 0.05, [40, 80, 120, 160]),
    (0.0, 0.1, [3, 10, 50]),
    (-0.5, 0.2, [4, 30, 300]),
    (0.05, 0.1, [20, 200]),
    (0.9, 0.05, [1000, 2000]),  # P < 1e-308 at n = 2000
])
def test_quadrature_matches_per_node_corner_density(a, radius, n_values):
    exp = LdpExperiment(k=1, ell=1, target=[[a]], radius=radius,
                        n_values=n_values, samples_per_n=1, method="quadrature")
    rep = run_ldp_corner(SeededRng(0), exp)
    for n, lp, _ in rep.per_n:
        assert lp == pytest.approx(_per_node_log_prob(n, a, radius), rel=1e-12, abs=0.0)
    if a == 0.9:
        # the deep tail: P lies below the smallest normal double
        assert rep.per_n[-1][1] < math.log(1e-308)


def test_monte_carlo_agrees_with_quadrature():
    n_values = [30, 60, 90]
    mc = run_ldp_corner(SeededRng(3), LdpExperiment(
        k=1, ell=1, target=[[0.3]], radius=0.1, n_values=n_values,
        samples_per_n=40_000))
    quad_rep = run_ldp_corner(SeededRng(3), LdpExperiment(
        k=1, ell=1, target=[[0.3]], radius=0.1, n_values=n_values,
        samples_per_n=1, method="quadrature"))
    for (n1, lp_mc, se), (n2, lp_q, _) in zip(mc.per_n, quad_rep.per_n):
        assert n1 == n2
        assert abs(lp_mc - lp_q) < 3 * se


def test_lower_bound_structure():
    # P <= vol(ball) * max density over the ball, so
    # -(1/n) log P >= ((n-3)/n) I* - (log vol + log c_n)/n - 3 stderr/n
    from ldplab.densities import log_corner_density

    radius = 0.1
    exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=radius,
                        n_values=[40, 80], samples_per_n=40_000)
    rep = run_ldp_corner(SeededRng(4), exp)
    vol = 2 * radius
    for n, lp, se in rep.per_n:
        log_cn = log_corner_density(np.zeros((1, 1)), 1, 1, n)
        lhs = -lp / n
        rhs = ((n - 3) / n) * rep.rate_reference \
            - (math.log(vol) + log_cn) / n - 3 * se / n
        assert lhs >= rhs


def test_feasibility_guard_trips():
    exp = LdpExperiment(k=1, ell=1, target=[[0.9]], radius=0.01,
                        n_values=[100, 200], samples_per_n=1000)
    with pytest.raises(InfeasibleExperiment):
        run_ldp_corner(SeededRng(5), exp)


def test_corner_2x2_monte_carlo_runs():
    exp = LdpExperiment(k=2, ell=2, target=np.zeros((2, 2)), radius=0.8,
                        n_values=[10, 20], samples_per_n=2000)
    rep = run_ldp_corner(SeededRng(6), exp)
    assert len(rep.per_n) == 2


def test_configuration_empty_target():
    rep = run_ldp_configuration(SeededRng(7), 1, PointConfiguration.empty(1),
                                r=0.5, rho=0.05, n_values=[40, 80, 160],
                                samples_per_n=20_000)
    assert rep.rate_reference == 0.0
    assert abs(rep.fitted_slope) < 5e-3
    assert rep.per_n[-1][1] > -0.01


def test_configuration_deterministic():
    mu = PointConfiguration.empty(1)
    a = run_ldp_configuration(SeededRng(8), 1, mu, 0.5, 0.05, [30, 60], 5000)
    b = run_ldp_configuration(SeededRng(8), 1, mu, 0.5, 0.05, [30, 60], 5000)
    assert a.per_n == b.per_n


def test_configuration_slope_positive_and_probabilities_decay():
    # at desk scale the stray-column constraint contributes a transient that
    # decays with n, so only coarse structure is asserted here: decaying
    # probabilities and a positive slope below the local rate of the event
    mu = PointConfiguration.from_atoms(1, [((0.4,), 1)])
    rep = run_ldp_configuration(SeededRng(9), 1, mu, r=0.33, rho=0.04,
                                n_values=[40, 70, 100], samples_per_n=100_000)
    assert rep.rate_reference == pytest.approx(-0.5 * math.log(1 - 0.16), abs=1e-12)
    lps = [lp for _, lp, _ in rep.per_n]
    assert all(b < a for a, b in zip(lps, lps[1:]))
    assert 0.0 < rep.fitted_slope < rep.rate_reference
    # local slope over the top pair approaches the ball infimum of the rate
    (n1, lp1, _), (n2, lp2, _) = rep.per_n[-2:]
    local = -(lp2 - lp1) / (n2 - n1)
    ball_inf = -0.5 * math.log(1 - 0.36**2)
    assert local == pytest.approx(ball_inf, rel=0.35)


def _brute_force_hits(frames, atoms, r, rho):
    """The configuration event column by column: each atom pair holds its
    multiplicity, and no column outside the atom balls has norm above r."""
    slow = 0
    for b in range(frames.shape[0]):
        counts = []
        matched_any = np.zeros(frames.shape[2], dtype=bool)
        for point, mult in atoms:
            hits = 0
            for j in range(frames.shape[2]):
                col = frames[b, :, j]
                if min(np.linalg.norm(col - point), np.linalg.norm(col + point)) < rho:
                    hits += 1
                    matched_any[j] = True
            counts.append(hits == mult)
        stray = any(
            np.linalg.norm(frames[b, :, j]) > r and not matched_any[j]
            for j in range(frames.shape[2])
        )
        if all(counts) and not stray:
            slow += 1
    return slow


def test_configuration_hit_count_matches_brute_force():
    gen = SeededRng(77).generator()
    frames = stiefel_batch(gen, 2, 12, 400)
    atoms = [(np.array([0.45, 0.1]), 1), (np.array([-0.2, 0.5]), 1)]
    r, rho = 0.35, 0.07
    assert configuration_hit_count(frames, atoms, r, rho) == _brute_force_hits(
        frames, atoms, r, rho)


def test_configuration_hit_count_matches_brute_force_criterion_6():
    # criterion 6's event (k = 1, atom 0.4, r = 0.3, rho = 0.05) at an n
    # where hits and misses are both common
    gen = SeededRng(78).generator()
    frames = stiefel_batch(gen, 1, 30, 2000)
    atoms = PointConfiguration.from_atoms(1, [((0.4,), 1)]).atoms
    slow = _brute_force_hits(frames, atoms, 0.3, 0.05)
    assert 0 < slow < frames.shape[0]
    assert configuration_hit_count(frames, atoms, 0.3, 0.05) == slow


def test_configuration_hit_count_refuses_unsound_balls():
    # the norm budget decides hits only for disjoint balls outside the
    # norm-r ball
    frames = stiefel_batch(SeededRng(79).generator(), 1, 10, 5)
    with pytest.raises(DomainError, match="outside the norm-r ball"):
        configuration_hit_count(frames, [(np.array([0.4]), 1)], 0.38, 0.05)
    with pytest.raises(DomainError, match="pairwise disjoint"):
        configuration_hit_count(
            frames, [(np.array([0.4]), 1), (np.array([0.45]), 1)], 0.1, 0.05)


def test_configuration_zero_probability_detected():
    # the norm budget cannot reach k: one column near 0.4 plus small columns
    mu = PointConfiguration.from_atoms(1, [((0.4,), 1)])
    with pytest.raises(InfeasibleExperiment):
        run_ldp_configuration(SeededRng(10), 1, mu, r=0.1, rho=0.05,
                              n_values=[30, 60], samples_per_n=10**6)


def test_configuration_validation():
    mu = PointConfiguration.from_atoms(1, [((0.4,), 1)])
    with pytest.raises(DomainError):
        # atom ball intersects the norm-r ball
        run_ldp_configuration(SeededRng(11), 1, mu, r=0.38, rho=0.05,
                              n_values=[30], samples_per_n=100)
    mu2 = PointConfiguration.from_atoms(1, [((0.4,), 1), ((0.45,), 1)])
    with pytest.raises(DomainError):
        run_ldp_configuration(SeededRng(12), 1, mu2, r=0.1, rho=0.05,
                              n_values=[30], samples_per_n=100)


def test_configuration_requires_n_ge_k():
    # an empty target with r > 1 passes every event check; the frames
    # themselves cannot exist at n = 2 < k
    with pytest.raises(DomainError, match="k must be <= n"):
        run_ldp_configuration(SeededRng(1), 3, PointConfiguration.empty(3),
                              r=2.0, rho=0.05, n_values=[2, 3], samples_per_n=1000)


@pytest.mark.parametrize("r, rho", [(-0.3, 0.05), (0.3, -0.05), (math.nan, 0.05),
                                    (0.3, math.nan), (math.inf, 0.05)])
def test_configuration_refuses_bad_radii(r, rho):
    # the hit test squares r and rho, so a negative radius used to run the
    # experiment of its absolute value
    with pytest.raises(DomainError, match="finite and > 0"):
        run_ldp_configuration(SeededRng(1006), 1, PointConfiguration.from_atoms(
            1, [(np.array([0.4]), 1)]), r=r, rho=rho, n_values=[30, 40],
            samples_per_n=1000)


def test_dickey_check_accepts_and_rejects():
    rep = run_dickey_check(SeededRng(13), 1, 1, 10, 2 * 10**4)
    assert rep.min_pvalue > 0.01
    bad = run_dickey_check(SeededRng(13), 1, 1, 10, 2 * 10**4, dof_offset=5)
    assert bad.min_pvalue < 0.01


def test_dickey_check_validation():
    with pytest.raises(DomainError):
        run_dickey_check(SeededRng(14), 2, 2, 3, 100)


def test_clt_check():
    rep = run_clt_check(SeededRng(15), 1, 1.0, 500, 10**4)
    assert rep.min_pvalue > 0.01
    rep_inf = run_clt_check(SeededRng(16), 1, math.inf, 500, 10**4)
    assert rep_inf.sigma_squared == pytest.approx(1.0 / 3.0)
    assert rep_inf.min_pvalue > 0.01


def test_monte_carlo_independent_of_thread_count():
    exp = LdpExperiment(k=1, ell=1, target=[[0.2]], radius=0.1,
                        n_values=[20, 40], samples_per_n=30_000)
    a = run_ldp_corner(SeededRng(19), exp, threads=1)
    b = run_ldp_corner(SeededRng(19), exp, threads=4)
    assert a.per_n == b.per_n


def test_configuration_independent_of_thread_count(monkeypatch):
    # small batches, so every n has many and the pool interleaves them
    monkeypatch.setattr(verify, "BATCH_ELEMENTS", 4000)
    target = PointConfiguration.empty(1)
    n_values, samples = [40, 70, 100], 3000
    reports = [run_ldp_configuration(SeededRng(21), 1, target, 0.3, 0.05, n_values,
                                     samples, threads=t) for t in (1, 3)]
    assert reports[0] == reports[1]
    # batch b at the i-th n is drawn from rng.child(i, b)
    for i, (n, est) in enumerate(zip(n_values, reports[0].per_n)):
        per_batch = 4000 // n
        count = sum(configuration_hit_count(
            stiefel_batch(SeededRng(21).child(i, b), 1, n, min(per_batch, samples - start)),
            target.atoms, 0.3, 0.05) for b, start in enumerate(range(0, samples, per_batch)))
        assert est == (n, math.log(count / samples),
                       math.sqrt((1.0 - count / samples) / count))


def test_dickey_check_independent_of_worker_count(monkeypatch):
    reports = []
    for workers in (1, 3):
        monkeypatch.setattr(verify, "worker_count", lambda threads=None, w=workers: w)
        reports.append(run_dickey_check(SeededRng(22), 2, 2, 20, 2000))
    assert reports[0] == reports[1]
    assert [(e.row, e.col) for e in reports[0].entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_zero_hit_refusal_names_the_first_n(monkeypatch):
    # corners miss the target ball below n = 60 and hit it from there on
    def corners(gen, k, n, ell, count):
        return np.full((count, k, ell), 0.9 if n < 60 else 0.2)

    monkeypatch.setattr(verify, "stiefel_corner_batch", corners)
    exp = LdpExperiment(k=1, ell=1, target=[[0.2]], radius=0.1,
                        n_values=[20, 40, 60], samples_per_n=4000)
    with pytest.raises(InfeasibleExperiment, match=r"^zero hits out of 4000 samples at n=20$"):
        run_ldp_corner(SeededRng(23), exp, threads=2)


def test_slope_gap_shrinks_for_larger_windows():
    # the fitted slope approaches the ball-infimum rate as the window moves up
    def gap(n_values):
        exp = LdpExperiment(k=1, ell=1, target=[[0.3]], radius=0.05,
                            n_values=n_values, samples_per_n=1,
                            method="quadrature")
        return run_ldp_corner(SeededRng(18), exp).relative_gap

    assert gap([1500, 2250, 3000]) < gap([150, 225, 300])


def test_slope_report_serialization():
    exp = LdpExperiment(k=1, ell=1, target=[[0.2]], radius=0.1,
                        n_values=[20, 40], samples_per_n=4000)
    rep = run_ldp_corner(SeededRng(17), exp)
    doc = json_doc(rep)
    assert {"per_n", "fitted_slope", "rate_reference", "relative_gap"} <= set(doc)
    assert len(rep.per_n) == 2 and len(rep.per_n[0]) == 3


def test_configuration_rejects_nonpositive_sample_count():
    # refused before the expected-hit guard, which takes log(samples / 10)
    for samples in (0, -5, 2.5, math.inf):
        with pytest.raises(DomainError, match="samples_per_n"):
            run_ldp_configuration(SeededRng(1), 1, PointConfiguration.empty(1),
                                  r=0.5, rho=0.05, n_values=[10, 20],
                                  samples_per_n=samples)


def test_json_doc_walks_records_and_guards_floats():
    rep = TwoSampleReport(k=1, m=1, n=5, dof=4,
                          entries=[EntryTest(0, 0, 0.25, math.inf)])
    assert json_doc(rep) == {
        "k": 1, "m": 1, "n": 5, "dof": 4,
        "entries": [{"row": 0, "col": 0, "statistic": 0.25, "pvalue": "+inf"}],
    }
    assert json_doc(NEstimate(20, -math.inf, 0.5)) == {
        "n": 20, "log_prob": "-inf", "stderr": 0.5}
    assert json_doc({"a": [[1.5, -math.inf], (2, "s", None, True)]}) == {
        "a": [[1.5, "-inf"], [2, "s", None, True]]}
    for bad in (math.nan, [1.0, [math.nan]], NEstimate(20, 0.0, math.nan),
                TwoSampleReport(k=1, m=1, n=5, dof=4,
                                entries=[EntryTest(0, 0, math.nan, 0.5)])):
        with pytest.raises(NumericalFailure):
            json_doc(bad)


@pytest.mark.parametrize("run", [
    lambda: run_ldp_corner(SeededRng(1), LdpExperiment(
        k=1, ell=1, target=[[0.2]], radius=0.1, n_values=[200], samples_per_n=10**6)),
    lambda: run_ldp_configuration(SeededRng(1), 1, PointConfiguration.empty(1), 0.5, 0.05,
                                  [100], 10**6),
], ids=["corner", "configuration"])
def test_one_n_is_refused_before_any_draw(monkeypatch, run):
    # the slope fit refused a single n only after every sample was drawn
    def no_draws(*_args, **_kwargs):
        raise AssertionError("a sampler was called")

    for sampler in ("stiefel_batch", "stiefel_corner_batch", "dickey_corner_batch"):
        monkeypatch.setattr(verify, sampler, no_draws)
    with pytest.raises(DomainError, match="n_values must hold at least two n"):
        run()
