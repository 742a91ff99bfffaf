import math

import numpy as np
import pytest
from scipy.special import betainc
from scipy.stats import ks_2samp, kstest

from ldplab.errors import DomainError
from ldplab.linalg import gram, operator_norm
from ldplab.samplers import (
    PGaussianParams,
    SeededRng,
    dickey_corner,
    dickey_corner_batch,
    gaussian_matrix,
    haar_orthogonal,
    haar_stiefel,
    lp_ball_batch,
    p_gaussian,
    p_gaussian_batch,
    stiefel_batch,
    stiefel_corner_batch,
    uniform_lp_ball,
    wishart,
    wishart_batch,
)

KS_CRIT_1PCT = 1.63  # one-sample critical value scale at the 1 percent level


def corner_cdf(n):
    """Exact CDF of one entry of a Haar row in R^n: the squared entry is
    Beta(1/2, (n-1)/2)."""

    def cdf(x):
        x = np.asarray(x, dtype=float)
        inner = betainc(0.5, (n - 1) / 2.0, np.clip(x**2, 0.0, 1.0))
        return 0.5 * (1.0 + np.sign(x) * inner)

    return cdf


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(SeededRng(1), 2, 3)
    b = gaussian_matrix(SeededRng(1), 2, 3)
    assert np.array_equal(a, b)


def test_distinct_streams_are_uncorrelated():
    a = gaussian_matrix(SeededRng(1, 0), 1, 10**5).ravel()
    b = gaussian_matrix(SeededRng(1, 1), 1, 10**5).ravel()
    assert not np.array_equal(a, b)
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) < 3.0 / math.sqrt(a.size)


def test_gaussian_matrix_moments():
    g = gaussian_matrix(SeededRng(2), 1000, 1000)
    assert abs(g.mean()) < 0.004
    assert abs(g.var() - 1.0) < 0.01


def test_haar_stiefel_one_by_one():
    vals = [float(haar_stiefel(SeededRng(3, i), 1, 1)[0, 0]) for i in range(8)]
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in vals)
    assert {v > 0 for v in vals} == {True, False}


def test_haar_stiefel_unit_row():
    v = haar_stiefel(SeededRng(4), 1, 3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_haar_stiefel_requires_k_le_n():
    with pytest.raises(DomainError):
        haar_stiefel(SeededRng(0), 5, 3)


def test_haar_stiefel_first_entry_density():
    n = 5
    samples = stiefel_corner_batch(SeededRng(5).generator(), 1, n, 1, 10**5)
    stat = kstest(samples[:, 0, 0], corner_cdf(n)).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(10**5)


@pytest.mark.parametrize("n", [8, 32])
def test_stiefel_batch_square_frames_orthonormal(n):
    # criterion 1's bound on the batched path at k = n
    frames = stiefel_batch(SeededRng(28, n).generator(), n, n, 2000)
    gram_err = np.linalg.norm(
        frames @ np.swapaxes(frames, 1, 2) - np.eye(n), axis=(1, 2))
    assert gram_err.max() <= 1e-10


def test_stiefel_batch_requires_k_le_n():
    with pytest.raises(DomainError):
        stiefel_batch(SeededRng(30).generator(), 3, 2, 4)
    assert stiefel_batch(SeededRng(30).generator(), 2, 2, 4).shape == (4, 2, 2)


def test_stiefel_corner_batch_requires_n_ge_ell_plus_k():
    with pytest.raises(DomainError):
        stiefel_corner_batch(SeededRng(29).generator(), 2, 3, 2, 10)
    assert stiefel_corner_batch(SeededRng(29).generator(), 2, 4, 2, 10).shape == (10, 2, 2)


def test_haar_orthogonal_sign_frequency():
    draws = [haar_orthogonal(SeededRng(6, i), 1)[0, 0] for i in range(10**4)]
    freq = np.mean(np.array(draws) > 0)
    assert abs(freq - 0.5) < 0.01


def test_haar_orthogonal_determinant_and_columns():
    o = haar_orthogonal(SeededRng(7), 3)
    assert abs(abs(np.linalg.det(o)) - 1.0) < 1e-10
    assert np.allclose(np.linalg.norm(o, axis=0), 1.0, atol=1e-10)
    assert np.allclose(o @ o.T, np.eye(3), atol=1e-10)


def test_haar_left_invariance():
    # statistic of V U matches that of V for a fixed orthogonal U
    n, draws = 6, 10**4
    u = haar_orthogonal(SeededRng(999), n)
    base = np.empty(draws)
    rotated = np.empty(draws)
    for i in range(draws):
        v = haar_stiefel(SeededRng(8, i), 2, n)
        base[i] = v[0, 0]
        rotated[i] = (v @ u)[0, 0]
    assert ks_2samp(base, rotated).pvalue > 0.01


def test_orthogonal_rows_match_stiefel_rows():
    draws = 10**4
    stiefel_entries = stiefel_corner_batch(SeededRng(9).generator(), 1, 4, 1, draws)[:, 0, 0]
    ortho_entries = np.empty(draws)
    for i in range(draws):
        ortho_entries[i] = haar_orthogonal(SeededRng(10, i), 4)[0, 0]
    assert ks_2samp(stiefel_entries, ortho_entries).pvalue > 0.01


def test_wishart_chi_squared_mean():
    draws = np.array([wishart(SeededRng(11, i), 1, 2)[0, 0] for i in range(10**4)])
    assert abs(draws.mean() - 2.0) < 0.05


def test_wishart_trace_expectation():
    traces = np.array([np.trace(wishart(SeededRng(12, i), 2, 5)) for i in range(10**4)])
    assert abs(traces.mean() - 10.0) < 0.3


def test_wishart_batch_matches_gaussian_gram():
    # Bartlett draws against explicit H H^T, entry by entry, off-diagonal
    # entries included; chi^2(n + 1 - i) diagonals or 1.2x off-diagonal
    # normals fail it
    k, n, draws = 3, 5, 20_000
    bartlett = wishart_batch(SeededRng(26).generator(), k, n, draws)
    h = SeededRng(27).generator().standard_normal((draws, k, n))
    direct = h @ np.swapaxes(h, 1, 2)
    for i in range(k):
        for j in range(i + 1):
            assert ks_2samp(bartlett[:, i, j], direct[:, i, j]).pvalue > 0.01


def test_wishart_scalar_nonnegative():
    assert wishart(SeededRng(13), 1, 1)[0, 0] >= 0.0


def test_p_gaussian_variances():
    draws = p_gaussian(SeededRng(14), PGaussianParams(2.0), 10**6)
    assert abs(draws.var() - 1.0) < 0.01
    laplace = p_gaussian(SeededRng(15), PGaussianParams(1.0), 10**6)
    assert abs(np.mean(np.abs(laplace)) - 1.0) < 0.01
    cube = p_gaussian(SeededRng(16), PGaussianParams(math.inf), 10**6)
    assert abs(cube.var() - 1.0 / 3.0) < 0.005


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_p_gaussian_pth_moment_is_one(p):
    draws = np.abs(p_gaussian(SeededRng(17, int(p * 10)), PGaussianParams(p), 10**5)) ** p
    stderr = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 3 * stderr


def test_uniform_lp_ball_radius():
    for i in range(50):
        x = uniform_lp_ball(SeededRng(18, i), 1.5, 6, 2.5)
        assert np.linalg.norm(x, ord=1.5) <= 2.5 * (1 + 1e-12)


def test_uniform_lp_ball_radial_law():
    draws = np.array([
        np.linalg.norm(uniform_lp_ball(SeededRng(19, i), 2.0, 4, 1.0), ord=2.0)
        for i in range(10**4)
    ])
    stat = kstest(draws, lambda t: np.clip(t, 0.0, 1.0) ** 4).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(10**4)


def test_uniform_lp_ball_one_dim():
    draws = np.array([uniform_lp_ball(SeededRng(20, i), 1.0, 1, 1.0)[0] for i in range(10**4)])
    assert abs(draws.mean()) < 0.02
    assert np.max(np.abs(draws)) <= 1.0


def test_dickey_corner_contraction():
    for i in range(30):
        t = dickey_corner(SeededRng(21, i), 2, 3, 4)
        assert operator_norm(gram(t)) < 1.0


def test_dickey_corner_deterministic():
    a = dickey_corner(SeededRng(22), 2, 2, 5)
    b = dickey_corner(SeededRng(22), 2, 2, 5)
    assert np.array_equal(a, b)


def test_dickey_corner_scalar_marginal():
    # 1x1 corner with N degrees of freedom matches the Haar corner of
    # dimension n = N + 1: squared entry Beta(1/2, N/2)
    big_n = 9
    draws = dickey_corner_batch(SeededRng(23).generator(), 1, 1, big_n, 10**5)[:, 0, 0]
    stat = kstest(draws, corner_cdf(big_n + 1)).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(10**5)


def test_stiefel_gram_is_identity_across_sizes():
    gen = np.random.default_rng(24)
    for _ in range(25):
        n = int(gen.integers(1, 65))
        k = int(gen.integers(1, n + 1))
        v = haar_stiefel(SeededRng(25, n * 100 + k), k, n)
        assert np.linalg.norm(v @ v.T - np.eye(k)) < 1e-10


def test_lp_ball_batch_inf_is_the_scaled_cube():
    # the l-inf ball is [-1, 1]^n: n^(1/inf) is exactly 1 and there is no
    # radial draw, so the stream goes on as after the cube draw alone
    ref = SeededRng(31).generator()
    cube = p_gaussian_batch(ref, math.inf, (5, 4))
    after = ref.random()
    for scale, expected in ((None, cube), (2.5, 2.5 * cube)):
        gen = SeededRng(31).generator()
        assert np.array_equal(lp_ball_batch(gen, math.inf, 4, scale, 5), expected)
        assert gen.random() == after


# (id, argument name, draw taking the argument as x, minimum, a valid value)
# for every whole-number argument of the samplers
WHOLE_ARGS = [
    ("seed", "seed", lambda gen, x: SeededRng(x).generator().random(2), 0, 2),
    ("stream", "stream", lambda gen, x: SeededRng(1, x).generator().random(2), 0, 2),
    ("gaussian_k", "k", lambda gen, x: gaussian_matrix(SeededRng(1), x, 3), 1, 2),
    ("gaussian_n", "n", lambda gen, x: gaussian_matrix(SeededRng(1), 2, x), 1, 2),
    ("stiefel_k", "k", lambda gen, x: stiefel_batch(gen, x, 4, 3), 1, 2),
    ("stiefel_n", "n", lambda gen, x: stiefel_batch(gen, 1, x, 3), 1, 2),
    ("stiefel_count", "count", lambda gen, x: stiefel_batch(gen, 2, 4, x), 1, 2),
    ("wishart_k", "k", lambda gen, x: wishart_batch(gen, x, 4, 3), 1, 2),
    ("wishart_n", "n", lambda gen, x: wishart_batch(gen, 1, x, 3), 1, 2),
    ("wishart_count", "count", lambda gen, x: wishart_batch(gen, 2, 4, x), 1, 2),
    ("dickey_k", "k", lambda gen, x: dickey_corner_batch(gen, x, 2, 3, 3), 1, 2),
    ("dickey_m", "m", lambda gen, x: dickey_corner_batch(gen, 2, x, 3, 3), 1, 2),
    ("dickey_N", "N", lambda gen, x: dickey_corner_batch(gen, 2, 2, x, 3), 1, 2),
    ("dickey_count", "count", lambda gen, x: dickey_corner_batch(gen, 2, 2, 3, x), 1, 2),
    ("pgauss_count", "each extent of shape",
     lambda gen, x: p_gaussian_batch(gen, 1.5, x), 1, 2),
    ("pgauss_extent", "each extent of shape",
     lambda gen, x: p_gaussian_batch(gen, 1.5, (3, x)), 1, 2),
    ("lpball_n", "n", lambda gen, x: lp_ball_batch(gen, 1.5, x, None, 3), 1, 2),
    ("lpball_count", "count", lambda gen, x: lp_ball_batch(gen, 1.5, 4, None, x), 1, 2),
]
BAD_WHOLE = [(f"{case}_{bad!r}", lambda gen, draw=draw, bad=bad: draw(gen, bad))
             for case, _, draw, minimum, _ in WHOLE_ARGS
             for bad in (2.5, True, minimum - 1)]


@pytest.mark.parametrize("name, draw, minimum, valid",
                         [case[1:] for case in WHOLE_ARGS],
                         ids=[case[0] for case in WHOLE_ARGS])
def test_samplers_read_whole_numbers(name, draw, minimum, valid):
    for bad in (2.5, True, minimum - 1):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number >= {minimum}"):
            draw(SeededRng(31).generator(), bad)
    assert np.array_equal(draw(SeededRng(31).generator(), float(valid)),
                          draw(SeededRng(31).generator(), valid))


@pytest.mark.parametrize("draw", [
    lambda gen: wishart_batch(gen, 3, 2, 5),
    lambda gen: dickey_corner_batch(gen, 2, 2, 0, 5),
    lambda gen: lp_ball_batch(gen, 0.5, 4, 1.0, 5),
    lambda gen: lp_ball_batch(gen, 2.0, 0, 1.0, 5),
    lambda gen: lp_ball_batch(gen, 2.0, 4, 0.0, 5),
    lambda gen: lp_ball_batch(gen, 2.0, 4, -1.0, 5),
    lambda gen: lp_ball_batch(gen, 2.0, 4, math.inf, 5),
    lambda gen: lp_ball_batch(gen, 2.0, 4, math.nan, 5),
    lambda gen: p_gaussian_batch(gen, 0.0, 5),
    lambda gen: p_gaussian_batch(gen, 0.5, 5),
    lambda gen: p_gaussian_batch(gen, 2.0, (5, 0)),
    lambda gen: stiefel_batch(gen, 0, 4, 5),
    lambda gen: stiefel_batch(gen, 2, 4, 0),
    lambda gen: stiefel_batch(gen, 2, 4, -1),
    *(draw for _, draw in BAD_WHOLE),
], ids=["wishart_n_lt_k", "dickey_N0", "lpball_p0.5",
        "lpball_n0", "lpball_scale0", "lpball_scale_neg", "lpball_scale_inf",
        "lpball_scale_nan", "pgauss_p0",
        "pgauss_p0.5", "pgauss_zero_extent", "stiefel_k0", "stiefel_count0",
        "stiefel_count_neg", *(case for case, _ in BAD_WHOLE)])
def test_batched_samplers_refuse_out_of_domain(draw):
    gen = SeededRng(31).generator()
    with pytest.raises(DomainError):
        draw(gen)
    # validation happens before any draw: the generator is untouched
    assert gen.random() == SeededRng(31).generator().random()
