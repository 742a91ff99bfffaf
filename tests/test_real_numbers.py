"""Every radius, exponent, variance and tolerance the API takes reads
through ``real_number``: bools, strings, None, NaN and values outside the
argument's range raise a DomainError naming the argument, and ints and
numpy reals are read as the float of the same value."""

import math
import pickle

import numpy as np
import pytest

from ldplab.configurations import (
    PointConfiguration,
    config_from_stiefel,
    identify_equivalent,
    power_sums,
    recover_from_power_sums,
)
from ldplab.densities import (
    log_multivariate_gamma,
    log_p_gaussian_density,
    log_pth_power_density,
    sigma_p_squared,
)
from ldplab.errors import DomainError
from ldplab.linalg import ColumnList, signed_permutation_equal
from ldplab.projections import ProjectedLaw, RademacherLaw
from ldplab.rates import rate_finite
from ldplab.samplers import PGaussianParams, SeededRng, lp_ball_batch, p_gaussian_batch
from ldplab.verify import LdpExperiment, min_rate_over_ball, run_ldp_configuration

LIST = ColumnList.from_columns(2, [[0.5, 0.0, 0.1], [0.0, 0.4, 0.1]])
SUMS = power_sums([0.5, 0.25], 3, 40)
FRAME = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
F32 = np.float32


def gen():
    return SeededRng(1).generator()


def experiment(radius):
    return LdpExperiment(k=1, ell=1, target=[[0.2]], radius=radius, n_values=[20, 40],
                         samples_per_n=10)


def configuration(r=0.5, rho=0.05):
    return run_ldp_configuration(SeededRng(2), 1, PointConfiguration.empty(1), r, rho,
                                 [30, 60], 2000)


# (id, argument name, call taking the argument as x, values outside its range,
#  accepted values: the boundary cases, an int and a np.float32)
CASES = [
    ("log_multivariate_gamma.x", "x", lambda x: log_multivariate_gamma(2, x),
     [0.5, -1.0], [3, F32(2.5), math.inf]),
    ("log_p_gaussian_density.p", "p", lambda x: log_p_gaussian_density(0.5, x),
     [0.5, -math.inf], [1, math.inf, F32(1.5)]),
    ("log_p_gaussian_density.x", "x", lambda x: log_p_gaussian_density(x, 2.0),
     [], [1, -math.inf, math.inf, F32(0.5)]),
    ("log_pth_power_density.p", "p", lambda x: log_pth_power_density(1.0, x),
     [0.5, math.inf], [1, F32(2.5)]),
    ("log_pth_power_density.x", "x", lambda x: log_pth_power_density(x, 2.0),
     [], [0, -1, math.inf, F32(0.5)]),
    ("sigma_p_squared.p", "p", sigma_p_squared, [0.5], [1, math.inf, F32(1.5)]),
    ("PGaussianParams.p", "p", PGaussianParams, [0.5], [1, math.inf, F32(1.5)]),
    ("p_gaussian_batch.p", "p", lambda x: p_gaussian_batch(gen(), x, 3),
     [0.5], [1, math.inf, F32(1.5)]),
    ("lp_ball_batch.p", "p", lambda x: lp_ball_batch(gen(), x, 3, None, 2),
     [0.5], [1, math.inf, F32(1.5)]),
    ("lp_ball_batch.radius_scale", "radius_scale",
     lambda x: lp_ball_batch(gen(), 2.0, 3, x, 2), [0, -1.0, math.inf], [2, F32(0.5)]),
    ("ProjectedLaw.noise_variance", "noise_variance",
     lambda x: ProjectedLaw(a=LIST, noise_variance=x, product_law=RademacherLaw()),
     [0, -1.0, math.inf], [1, F32(0.5)]),
    ("LdpExperiment.radius", "radius", experiment, [0, -0.05, math.inf], [F32(0.25)]),
    ("run_ldp_configuration.r", "r", lambda x: configuration(r=x),
     [0, -0.3, math.inf], [F32(0.5)]),
    ("run_ldp_configuration.rho", "rho", lambda x: configuration(rho=x),
     [0, -0.05, math.inf], [F32(0.0625)]),
    ("min_rate_over_ball.radius", "radius",
     lambda x: min_rate_over_ball(np.diag([0.3, 0.2]), x), [-0.1], [0, math.inf, F32(0.25)]),
    ("signed_permutation_equal.tol", "tol", lambda x: signed_permutation_equal(LIST, LIST, x),
     [-1e-9], [0, 1, math.inf, F32(0.5)]),
    ("identify_equivalent.tol", "tol", lambda x: identify_equivalent(LIST, LIST, 12, x),
     [-1e-9], [0, 1, math.inf, F32(0.5)]),
    ("recover_from_power_sums.tol", "tol", lambda x: recover_from_power_sums(SUMS, 2, x),
     [-1e-9], [0, F32(0.25)]),
    ("config_from_stiefel.drop_tol", "drop_tol", lambda x: config_from_stiefel(FRAME, x),
     [-1e-9], [0, 1, math.inf, F32(0.5)]),
]


@pytest.mark.parametrize("name, call, outside, accepted", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_real_number_arguments(name, call, outside, accepted):
    for bad in (True, "0.5", None, *outside):
        if bad is None and name == "radius_scale":
            continue  # None is the default scale n^(1/p)
        with pytest.raises(DomainError, match=f"^{name} must be "):
            call(bad)
    with pytest.raises(DomainError, match=f"^{name} must be .*, got NaN$"):
        call(math.nan)
    for good in accepted:
        assert pickle.dumps(call(good)) == pickle.dumps(call(float(good)))


def test_min_rate_over_a_ball_of_radius_zero_is_the_rate_at_the_target():
    # it was +inf: the support test read a radius of 0 as a ball outside it
    target = np.diag([0.3, 0.2])
    assert min_rate_over_ball(target, 0.0) == rate_finite(target)
    assert min_rate_over_ball(np.diag([1.0, 0.2]), 0.0) == math.inf
