import math

import numpy as np
import pytest
from scipy.stats import kstest

from ldplab.densities import sigma_p_squared
from ldplab.errors import DimensionMismatch, DomainError, UnsupportedLaw
from ldplab.linalg import ColumnList
import ldplab.projections as projections
from ldplab.projections import (
    CustomLaw,
    EmpiricalMeasure,
    ProjectedLaw,
    RademacherLaw,
    characteristic_function,
    compare_ball_vs_product,
    empirical_cf,
    law_char_fn,
    levy_prokhorov,
    project_lp_ball,
    project_product,
    sample_projected_law,
)
from ldplab.samplers import PGaussianParams, SeededRng, haar_stiefel


def columns(dim, arr):
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0:
        return ColumnList.empty(dim)
    return ColumnList.from_columns(dim, arr)


def test_projected_law_pure_gaussian():
    law = ProjectedLaw(a=ColumnList.empty(2), noise_variance=1.0,
                       product_law=PGaussianParams(1.0))
    cloud = sample_projected_law(SeededRng(1), law, 10**4)
    assert cloud.dim == 2
    assert np.allclose(cloud.points.var(axis=0), 1.0, atol=0.05)


def test_projected_law_degenerate_gaussian_part():
    law = ProjectedLaw(a=columns(1, [[1.0]]), noise_variance=1.0 / 3.0,
                       product_law=PGaussianParams(math.inf))
    cloud = sample_projected_law(SeededRng(2), law, 10**4)
    stat = kstest(cloud.points[:, 0], lambda x: np.clip((np.asarray(x) + 1) / 2, 0, 1)).statistic
    assert stat < 1.63 / math.sqrt(10**4)
    assert np.max(np.abs(cloud.points)) <= 1.0


def test_projected_law_covariance():
    a = columns(2, [[0.5, 0.1], [0.0, 0.4]])
    sigma_y2 = sigma_p_squared(1.0)
    law = ProjectedLaw(a=a, noise_variance=1.0, product_law=PGaussianParams(1.0))
    cloud = sample_projected_law(SeededRng(3), law, 4 * 10**4)
    aat = a.columns @ a.columns.T
    expected = sigma_y2 * aat + 1.0 * (np.eye(2) - aat)
    sample_cov = np.cov(cloud.points.T)
    assert np.allclose(sample_cov, expected, atol=0.05)


def test_projected_law_norm_bound():
    with pytest.raises(DomainError):
        ProjectedLaw(a=columns(2, [[0.9, 0.9], [0.0, 0.0]]), noise_variance=1.0,
                     product_law=PGaussianParams(2.0))
    with pytest.raises(ValueError):
        columns(1, [[1.2]])  # single column already violates the norm cap
    # an infinite variance gave a NaN characteristic function at t = 0
    for var in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="noise_variance"):
            ProjectedLaw(a=ColumnList.empty(2), noise_variance=var,
                         product_law=PGaussianParams(2.0))


def test_projected_law_admissibility_is_the_sampler_rule():
    # ||A A^T|| = 1 + 5e-10 passes a 1e-9 norm tolerance but leaves the
    # complement an eigenvalue below -NEG_EIG_TOL: refused when built
    with pytest.raises(DomainError, match="must be <= 1"):
        ProjectedLaw(a=columns(1, [[math.sqrt(1.0 + 5e-10)]]), noise_variance=1.0,
                     product_law=PGaussianParams(2.0))
    # within NEG_EIG_TOL of the boundary the law builds and samples
    law = ProjectedLaw(a=columns(1, [[math.sqrt(1.0 + 5e-11)]]), noise_variance=1.0,
                       product_law=PGaussianParams(2.0))
    assert sample_projected_law(SeededRng(30), law, 10).count == 10


def test_projected_law_stores_complement_and_root():
    a = columns(2, [[0.5, 0.1, -0.2], [0.0, 0.4, 0.3]])
    law = ProjectedLaw(a=a, noise_variance=0.7, product_law=RademacherLaw())
    assert np.array_equal(law.complement, np.eye(2) - a.columns @ a.columns.T)
    assert np.allclose(law.root @ law.root, law.complement, atol=1e-14)
    assert "root" not in repr(law) and "complement" not in repr(law)
    assert law == ProjectedLaw(a=a, noise_variance=0.7, product_law=RademacherLaw())


def test_projected_law_calls_build_no_gram_or_root(monkeypatch):
    law = ProjectedLaw(a=columns(2, [[0.5, 0.1], [0.0, 0.4]]), noise_variance=1.0,
                       product_law=PGaussianParams(2.0))

    def refuse(*_args):
        raise AssertionError("per-call linear algebra")

    monkeypatch.setattr(projections, "gram", refuse)
    monkeypatch.setattr(projections, "psd_sqrt", refuse)
    assert sample_projected_law(SeededRng(31), law, 5).count == 5
    assert 0.0 < characteristic_function(law, [0.3, -0.2]).real <= 1.0


def test_project_product_gaussian_case():
    v = haar_stiefel(SeededRng(4), 2, 30)
    cloud = project_product(SeededRng(5), v, PGaussianParams(2.0), 2 * 10**4)
    assert np.allclose(cloud.points.var(axis=0), 1.0, atol=0.03)
    stat = kstest(cloud.points[:, 0], "norm").statistic
    assert stat < 1.63 / math.sqrt(cloud.count)


def test_project_product_identity_frame():
    v = np.eye(4)[:2, :]
    cloud = project_product(SeededRng(6), v, PGaussianParams(1.0), 10**5)
    stderr = 3 / math.sqrt(cloud.count)
    assert abs(np.mean(np.abs(cloud.points[:, 0])) - 1.0) < 3 * stderr


def test_project_product_covariance():
    v = haar_stiefel(SeededRng(7), 2, 40)
    law = PGaussianParams(1.5)
    cloud = project_product(SeededRng(8), v, law, 4 * 10**4)
    target = sigma_p_squared(1.5) * np.eye(2)
    assert np.allclose(np.cov(cloud.points.T), target, atol=0.05)


def test_project_lp_ball_disc():
    cloud = project_lp_ball(SeededRng(9), np.eye(2), 2.0, 5000)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.max(norms) <= math.sqrt(2.0) + 1e-12
    assert np.allclose(cloud.points.mean(axis=0), 0.0, atol=0.05)


def test_project_lp_ball_variance_converges():
    v = haar_stiefel(SeededRng(10), 1, 500)
    cloud = project_lp_ball(SeededRng(11), v, 1.0, 2 * 10**4)
    assert abs(cloud.points.var() - sigma_p_squared(1.0)) < 0.05 * sigma_p_squared(1.0)


def test_projected_law_isotropic_when_sigma_matches():
    # with sigma^2 = Var(Y), the covariance collapses to sigma^2 I
    a = columns(2, [[0.5, 0.1], [0.0, 0.4]])
    var = sigma_p_squared(math.inf)
    law = ProjectedLaw(a=a, noise_variance=var,
                       product_law=PGaussianParams(math.inf))
    cloud = sample_projected_law(SeededRng(23), law, 4 * 10**4)
    assert np.allclose(np.cov(cloud.points.T), var * np.eye(2), atol=0.02)


def test_project_product_p2_exact_for_any_frame():
    # Gaussian product law: V Z is exactly N(0, I_k) for every frame,
    # including tiny n
    v = haar_stiefel(SeededRng(24), 1, 3)
    cloud = project_product(SeededRng(25), v, PGaussianParams(2.0), 2 * 10**4)
    stat = kstest(cloud.points[:, 0], "norm").statistic
    assert stat < 1.63 / math.sqrt(cloud.count)


def test_levy_prokhorov_identical():
    pts = np.random.default_rng(12).standard_normal((500, 1))
    m = EmpiricalMeasure.from_points(pts)
    assert levy_prokhorov(m, m, grid=100) == 0.0


def test_levy_prokhorov_point_masses():
    a = EmpiricalMeasure.from_points(np.array([[0.0, 0.0]]))
    b = EmpiricalMeasure.from_points(np.array([[0.3, 0.0]]))
    d = levy_prokhorov(a, b, grid=400)
    assert abs(d - 0.3) < 1.0 / 400


def test_levy_prokhorov_gaussian_clouds():
    gen1 = np.random.default_rng(13)
    gen2 = np.random.default_rng(14)
    a = EmpiricalMeasure.from_points(gen1.standard_normal((10**4, 1)))
    b = EmpiricalMeasure.from_points(gen2.standard_normal((10**4, 1)))
    assert levy_prokhorov(a, b, grid=128) <= 0.05


def test_levy_prokhorov_symmetry_and_triangle():
    pts = [np.array([[0.0]]), np.array([[0.4]]), np.array([[0.9]])]
    ms = [EmpiricalMeasure.from_points(p) for p in pts]
    d01 = levy_prokhorov(ms[0], ms[1], grid=400)
    d10 = levy_prokhorov(ms[1], ms[0], grid=400)
    d12 = levy_prokhorov(ms[1], ms[2], grid=400)
    d02 = levy_prokhorov(ms[0], ms[2], grid=400)
    assert d01 == d10
    assert d02 <= d01 + d12 + 1.0 / 200


def test_levy_prokhorov_dimension_guard():
    a = EmpiricalMeasure.from_points(np.zeros((3, 1)))
    b = EmpiricalMeasure.from_points(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        levy_prokhorov(a, b)
    with pytest.raises(DomainError):
        c = EmpiricalMeasure.from_points(np.zeros((3, 4)))
        levy_prokhorov(c, c)


# Reference: the estimator as it was before the exact thresholds, a
# bisection that runs the full check at every step.  levy_prokhorov must
# return the very same float.
def _oracle_violation(d_a: np.ndarray, d_b: np.ndarray, eps: float) -> float:
    """max_r [ mu(B(c, r)) - nu(B(c, r + eps)) ] over all radii r at one
    center, given pre-sorted distance arrays."""
    n_a, n_b = d_a.size, d_b.size
    count_a = np.arange(1, n_a + 1) / n_a
    count_b = np.searchsorted(d_b, d_a + eps, side="right") / n_b
    return float(np.max(count_a - count_b))


def _oracle_check(dists_mu, dists_nu, eps: float) -> bool:
    for d_mu, d_nu in zip(dists_mu, dists_nu):
        if _oracle_violation(d_mu, d_nu, eps) > eps:
            return False
        if _oracle_violation(d_nu, d_mu, eps) > eps:
            return False
    return True


def oracle_levy_prokhorov(mu: EmpiricalMeasure, nu: EmpiricalMeasure, grid: int = 200) -> float:
    if mu.dim != nu.dim:
        raise DimensionMismatch("sample clouds live in different dimensions")
    if mu.dim > 3:
        raise DomainError("the estimator is restricted to k <= 3")
    if grid < 2:
        raise DomainError("grid must be >= 2")

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

    if _oracle_check(dists_mu, dists_nu, 0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    resolution = 0.5 / grid
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _oracle_check(dists_mu, dists_nu, mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_levy_prokhorov_matches_bisection_random_clouds():
    gen = np.random.default_rng(23)
    for _ in range(64):
        k = int(gen.integers(1, 4))
        n_a, n_b = gen.choice(np.arange(50, 801), size=2, replace=False)
        grid = int(gen.integers(2, 201))
        a = EmpiricalMeasure.from_points(gen.standard_normal((n_a, k)))
        b = EmpiricalMeasure.from_points(
            gen.uniform(0.5, 2.0) * gen.standard_normal((n_b, k)) + gen.uniform(-1.0, 1.0, k))
        assert levy_prokhorov(a, b, grid) == oracle_levy_prokhorov(a, b, grid)


def test_levy_prokhorov_matches_bisection_lattice_clouds(monkeypatch):
    # dyadic, ternary and decimal lattices put exact thresholds on or next
    # to the grid points of the bisection; those points go through _lp_check
    checked = []
    check = projections._lp_check

    def counting_check(dists_mu, dists_nu, eps):
        checked.append(eps)
        return check(dists_mu, dists_nu, eps)

    monkeypatch.setattr(projections, "_lp_check", counting_check)
    gen = np.random.default_rng(24)
    for i in range(360):
        q = (2, 3, 4, 8, 10, 16)[i % 6]
        k = int(gen.integers(1, 4))
        n_a, n_b = gen.integers(1, 40, size=2)
        grid = int(gen.choice([2, 3, 4, 5, 8, 10, 16, 20, 32, 64, 100]))
        a = EmpiricalMeasure.from_points(gen.integers(-q, q + 1, (n_a, k)) / q)
        b = EmpiricalMeasure.from_points(gen.integers(-q, q + 1, (n_b, k)) / q)
        assert levy_prokhorov(a, b, grid) == oracle_levy_prokhorov(a, b, grid)
    assert len(checked) >= 10


@pytest.mark.parametrize("k", [1, 2])
def test_levy_prokhorov_matches_bisection_criterion_11(monkeypatch, k):
    estimates = []
    estimator = projections.levy_prokhorov

    def recording(mu, nu, grid):
        value = estimator(mu, nu, grid=grid)
        estimates.append((mu, nu, grid, value))
        return value

    monkeypatch.setattr(projections, "levy_prokhorov", recording)
    compare_ball_vs_product(SeededRng(1011), k, 1.0, [20, 80, 320], 6000, grid=192)
    assert len(estimates) == 3
    for mu, nu, grid, value in estimates:
        assert (mu.count, nu.count, grid) == (6000, 6000, 192)
        assert value == oracle_levy_prokhorov(mu, nu, grid)


def test_levy_prokhorov_far_clouds_is_one():
    a = EmpiricalMeasure.from_points(np.zeros((5, 2)))
    b = EmpiricalMeasure.from_points(np.full((7, 2), 3.0))
    assert levy_prokhorov(a, b, grid=64) == 1.0
    assert oracle_levy_prokhorov(a, b, grid=64) == 1.0


def test_levy_prokhorov_dyadic_point_masses():
    # the midpoint 0.25 is exactly the threshold
    a = EmpiricalMeasure.from_points(np.array([[0.0]]))
    b = EmpiricalMeasure.from_points(np.array([[0.25]]))
    assert levy_prokhorov(a, b, grid=4) == oracle_levy_prokhorov(a, b, grid=4) == 0.25


def test_levy_prokhorov_unequal_counts_symmetric():
    gen = np.random.default_rng(25)
    a = EmpiricalMeasure.from_points(gen.standard_normal((37, 2)))
    b = EmpiricalMeasure.from_points(0.5 + gen.standard_normal((91, 2)))
    d_ab = levy_prokhorov(a, b, grid=50)
    assert d_ab == levy_prokhorov(b, a, grid=50) == oracle_levy_prokhorov(a, b, grid=50)
    assert d_ab > 0.0


def test_compare_ball_vs_product_shape_and_determinism():
    out1 = compare_ball_vs_product(SeededRng(15), 1, 1.0, [20, 40], 1000, grid=64)
    out2 = compare_ball_vs_product(SeededRng(15), 1, 1.0, [20, 40], 1000, grid=64)
    assert len(out1) == 2
    assert out1 == out2
    with pytest.raises(DomainError):
        compare_ball_vs_product(SeededRng(15), 1, 1.0, [40, 20], 1000)


def test_compare_ball_vs_product_validates_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew a cloud before validating the estimator's domain")

    monkeypatch.setattr(projections, "project_lp_ball_batch", no_draws)
    with pytest.raises(DomainError, match="k <= 3"):
        compare_ball_vs_product(SeededRng(15), 4, 1.0, [20, 40], 1000)
    with pytest.raises(DomainError, match="grid"):
        compare_ball_vs_product(SeededRng(15), 1, 1.0, [20, 40], 1000, grid=1)


def test_characteristic_function_gaussian_branch():
    law = ProjectedLaw(a=ColumnList.empty(2), noise_variance=0.7,
                       product_law=PGaussianParams(1.0))
    t = np.array([0.3, -1.2])
    val = characteristic_function(law, t)
    assert abs(val - math.exp(-0.5 * 0.7 * float(t @ t))) < 1e-14
    assert val.imag == 0.0


def test_characteristic_function_degenerate_uniform():
    law = ProjectedLaw(a=columns(1, [[1.0]]), noise_variance=1.0 / 3.0,
                       product_law=PGaussianParams(math.inf))
    for t in (0.0, 0.5, 2.0):
        want = 1.0 if t == 0 else math.sin(t) / t
        assert abs(characteristic_function(law, [t]).real - want) < 1e-12


def test_characteristic_functions_refuse_a_frequency_of_the_wrong_length():
    # numpy's reshape error escaped before
    law = ProjectedLaw(a=columns(2, [[0.5, 0.1], [0.2, -0.3]]), noise_variance=1.0,
                       product_law=PGaussianParams(2.0))
    cloud = EmpiricalMeasure.from_points(np.zeros((3, 2)))
    for cf, arg in ((characteristic_function, law), (empirical_cf, cloud)):
        with pytest.raises(DimensionMismatch, match="frequency has 3 entries, expected 2"):
            cf(arg, [0.1, 0.2, 0.3])


def test_characteristic_function_normalized_and_bounded():
    law = ProjectedLaw(a=columns(2, [[0.5, 0.1], [0.2, -0.3]]),
                       noise_variance=2.0, product_law=PGaussianParams(1.0))
    assert characteristic_function(law, [0.0, 0.0]) == 1.0
    gen = np.random.default_rng(16)
    for _ in range(20):
        t = gen.uniform(-4, 4, 2)
        assert abs(characteristic_function(law, t)) <= 1.0 + 1e-12


@pytest.mark.parametrize("law_p", [1.0, 1.5, math.inf])
def test_characteristic_function_matches_empirical(law_p):
    a = columns(2, [[0.5, 0.0], [0.1, 0.6]])
    law = ProjectedLaw(a=a, noise_variance=sigma_p_squared(law_p),
                       product_law=PGaussianParams(law_p))
    n = 2 * 10**4
    cloud = sample_projected_law(SeededRng(17), law, n)
    gen = np.random.default_rng(18)
    for _ in range(20):
        t = gen.uniform(-2, 2, 2)
        exact = characteristic_function(law, t).real
        emp = empirical_cf(cloud, t).real
        assert abs(exact - emp) < 3.0 / math.sqrt(n)


def test_sample_projected_law_signed_permutation_invariance():
    base = np.array([[0.5, 0.2], [0.0, 0.4]])
    law1 = ProjectedLaw(a=columns(2, base), noise_variance=1.0 / 3.0,
                        product_law=PGaussianParams(math.inf))
    law2 = ProjectedLaw(a=columns(2, -base[:, ::-1]), noise_variance=1.0 / 3.0,
                        product_law=PGaussianParams(math.inf))
    n = 2 * 10**4
    c1 = sample_projected_law(SeededRng(19), law1, n)
    c2 = sample_projected_law(SeededRng(20), law2, n)
    gen = np.random.default_rng(21)
    for _ in range(10):
        t = gen.uniform(-2, 2, 2)
        assert abs(empirical_cf(c1, t).real - empirical_cf(c2, t).real) < 3.0 / math.sqrt(n)


def test_rademacher_and_custom_laws():
    law = ProjectedLaw(a=columns(1, [[0.6]]), noise_variance=1.0,
                       product_law=RademacherLaw())
    val = characteristic_function(law, [1.0]).real
    want = math.exp(-0.5 * (1 - 0.36)) * math.cos(0.6)
    assert abs(val - want) < 1e-12

    opaque = CustomLaw(sampler=lambda gen, shape: gen.choice([-1.0, 1.0], size=shape),
                       variance=1.0)
    with pytest.raises(UnsupportedLaw):
        law_char_fn(opaque)
    law2 = ProjectedLaw(a=columns(1, [[0.6]]), noise_variance=1.0, product_law=opaque)
    cloud = sample_projected_law(SeededRng(22), law2, 1000)
    assert cloud.count == 1000
