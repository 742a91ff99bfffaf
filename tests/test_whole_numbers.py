"""Every count, dimension and order outside the samplers reads through
``whole_number``: 2.0 is read as 2, and fractions, bools, values below
the minimum and values above 2**63 - 1 raise a DomainError naming the
argument.  The samplers' own
arguments are covered in ``test_samplers.py``."""

import pickle

import numpy as np
import pytest

from ldplab.configurations import (
    PointConfiguration,
    identify_equivalent,
    power_sums,
    recover_from_power_sums,
)
from ldplab.densities import (log_corner_density, log_inverted_t_density,
                              log_multivariate_gamma, log_wishart_density)
from ldplab.errors import DomainError
from ldplab.linalg import WHOLE_MAX, ColumnList
from ldplab.projections import (
    EmpiricalMeasure,
    ProjectedLaw,
    RademacherLaw,
    compare_ball_vs_product,
    levy_prokhorov,
    project_product_batch,
    sample_projected_law,
)
from ldplab.rates import rate_orthogonal_truncated, rate_truncated
from ldplab.samplers import SeededRng, stiefel_corner_batch
from ldplab.verify import (
    LdpExperiment,
    run_clt_check,
    run_dickey_check,
    run_ldp_configuration,
    run_ldp_corner,
    worker_count,
)

COLUMNS = [[0.5, 0.0, 0.1], [0.0, 0.4, 0.1]]
LIST = ColumnList.from_columns(2, COLUMNS)
LAW = ProjectedLaw(a=LIST, noise_variance=1.0, product_law=RademacherLaw())
FRAME = np.eye(2, 4)
SUMS = power_sums([0.5, 0.25], 3, 40)
CLOUDS = [EmpiricalMeasure.from_points(SeededRng(i).generator().standard_normal((50, 1)))
          for i in (1, 2)]


def compare(n=20, count=1000, grid=2, n_list=None):
    return compare_ball_vs_product(SeededRng(5), 1, 2.0, n_list or [n], count, grid=grid)


def experiment(k=1, ell=1, n_values=(20, 40), method="montecarlo"):
    return LdpExperiment(k=k, ell=ell, target=np.full((1, 1), 0.2), radius=0.1,
                         n_values=n_values, samples_per_n=4000, method=method)


def configuration(k=1, n_values=(30, 60), threads=None):
    return run_ldp_configuration(SeededRng(2), k, PointConfiguration.empty(1), 0.5, 0.05,
                                 n_values, 2000, threads=threads)


def dickey(k=1, m=1, n=10, dof_offset=0):
    return run_dickey_check(SeededRng(3), k, m, n, 200, dof_offset=dof_offset)


def clt(k=1, n=50):
    return run_clt_check(SeededRng(4), k, 2.0, n, 200)


# (id, argument name, call taking the argument as x, minimum, a valid value)
CASES = [
    ("ColumnList.dim", "dim", lambda x: ColumnList.from_columns(x, COLUMNS), 1, 2),
    ("sample_projected_law.count", "count",
     lambda x: sample_projected_law(SeededRng(1), LAW, x), 1, 3),
    ("project_product_batch.count", "count",
     lambda x: project_product_batch(SeededRng(1).generator(), FRAME, RademacherLaw(), x),
     1, 3),
    ("compare.count", "count", lambda x: compare(count=x), 1000, 1000),
    ("compare.n_list", "each n in n_list", lambda x: compare(n=x), 1, 2),
    ("compare.grid", "grid", lambda x: compare(grid=x), 2, 2),
    ("levy_prokhorov.grid", "grid", lambda x: levy_prokhorov(*CLOUDS, grid=x), 2, 3),
    ("log_multivariate_gamma.k", "k", lambda x: log_multivariate_gamma(x, 3.0), 1, 2),
    ("log_corner_density.k", "k", lambda x: log_corner_density([[0.1]], x, 1, 4), 1, 1),
    ("log_corner_density.ell", "ell", lambda x: log_corner_density([[0.1]], 1, x, 4), 1, 1),
    ("log_corner_density.n", "n", lambda x: log_corner_density([[0.1]], 1, 1, x), 1, 4),
    ("log_inverted_t_density.n_dof", "n_dof",
     lambda x: log_inverted_t_density([[0.2]], x), 1, 3),
    ("log_wishart_density.k", "k", lambda x: log_wishart_density([[1.0]], x, 3), 1, 1),
    ("log_wishart_density.n", "n", lambda x: log_wishart_density([[1.0]], 1, x), 1, 3),
    ("stiefel_corner_batch.n", "n",
     lambda x: stiefel_corner_batch(SeededRng(1).generator(), 1, x, 1, 10), 1, 5),
    ("rate_truncated.max_level", "max_level",
     lambda x: rate_truncated(LIST, max_level=x), 1, 2),
    ("rate_orthogonal_truncated.k_max", "k_max",
     lambda x: rate_orthogonal_truncated(np.eye(3) / 2, x), 1, 2),
    ("power_sums.k_min", "k_min", lambda x: power_sums([0.5, 0.2], x, 6), 3, 4),
    ("power_sums.k_max", "k_max", lambda x: power_sums([0.5, 0.2], 3, x), 3, 5),
    ("recover_from_power_sums.count_bound", "count_bound",
     lambda x: recover_from_power_sums(SUMS, x, 1e-9), 1, 2),
    ("identify_equivalent.k_max", "k_max",
     lambda x: identify_equivalent(LIST, LIST, x, 1e-9), 3, 4),
    ("LdpExperiment.k", "k", lambda x: experiment(k=x), 1, 1),
    ("LdpExperiment.ell", "ell", lambda x: experiment(ell=x), 1, 1),
    ("run_ldp_configuration.k", "k", lambda x: configuration(k=x), 1, 1),
    ("run_dickey_check.k", "k", lambda x: dickey(k=x), 1, 1),
    ("run_dickey_check.m", "m", lambda x: dickey(m=x), 1, 1),
    ("run_dickey_check.n", "n", lambda x: dickey(n=x), 1, 10),
    # N = 10 - 1 - 1 + 1 = 9, so the offset may reach 1 - N = -8
    ("run_dickey_check.dof_offset", "dof_offset", lambda x: dickey(dof_offset=x), -8, 0),
    ("run_clt_check.k", "k", lambda x: clt(k=x), 1, 1),
    ("run_clt_check.n", "n", lambda x: clt(n=x), 1, 50),
    ("worker_count.threads", "threads", worker_count, 1, 2),
    ("run_ldp_corner.threads", "threads",
     lambda x: run_ldp_corner(SeededRng(6), experiment(), threads=x), 1, 2),
    ("run_ldp_corner.quadrature.threads", "threads",
     lambda x: run_ldp_corner(SeededRng(6), experiment(method="quadrature"), threads=x),
     1, 2),
    ("run_ldp_configuration.threads", "threads", lambda x: configuration(threads=x), 1, 2),
]


@pytest.mark.parametrize("name, call, minimum, valid", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_whole_number_arguments(name, call, minimum, valid):
    for bad in (2.5, True, minimum - 1):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number >= {minimum}"):
            call(bad)
    for huge in (WHOLE_MAX + 1, 10**400, 1e300):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number <= {WHOLE_MAX}"):
            call(huge)
    assert pickle.dumps(call(float(valid))) == pickle.dumps(call(valid))


def test_threads_refuses_a_string():
    # int("2") made this two threads before
    with pytest.raises(DomainError, match="^threads must be a whole number >= 1, got '2'"):
        worker_count("2")


def test_compare_refuses_an_empty_n_list():
    # returned [] before
    with pytest.raises(DomainError, match="n_list must be non-empty and increasing"):
        compare_ball_vs_product(SeededRng(5), 1, 2.0, [], 1000)


@pytest.mark.parametrize("name, call", [
    ("n_values", lambda: experiment(n_values=5)),
    ("n_values", lambda: configuration(n_values=5)),
    ("n_list", lambda: compare(n_list=5)),
], ids=["LdpExperiment", "run_ldp_configuration", "compare_ball_vs_product"])
def test_n_lists_must_be_sequences(name, call):
    # raised TypeError ('int' object is not iterable) before
    with pytest.raises(DomainError, match=f"^{name} must be a sequence of whole numbers, got 5"):
        call()


def test_seed_and_stream_take_any_size():
    # SeedSequence takes any size, so only the lower bound applies
    rng = SeededRng(10**400, 10**30)
    assert rng.seed == 10**400 and rng.stream_id == 10**30
    assert rng.generator().standard_normal() != SeededRng(10**400).generator().standard_normal()
