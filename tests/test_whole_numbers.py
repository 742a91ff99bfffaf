"""Every count, dimension and order outside the samplers reads through
``whole_number``: 2.0 is read as 2, and fractions, bools and values below
the minimum raise a DomainError naming the argument.  The samplers' own
arguments are covered in ``test_samplers.py``."""

import pickle

import numpy as np
import pytest

from ldplab.configurations import identify_equivalent, power_sums, recover_from_power_sums
from ldplab.densities import log_multivariate_gamma
from ldplab.errors import DomainError
from ldplab.linalg import ColumnList
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
from ldplab.samplers import SeededRng

COLUMNS = [[0.5, 0.0, 0.1], [0.0, 0.4, 0.1]]
LIST = ColumnList.from_columns(2, COLUMNS)
LAW = ProjectedLaw(a=LIST, noise_variance=1.0, product_law=RademacherLaw())
FRAME = np.eye(2, 4)
SUMS = power_sums([0.5, 0.25], 3, 40)
CLOUDS = [EmpiricalMeasure.from_points(SeededRng(i).generator().standard_normal((50, 1)))
          for i in (1, 2)]


def compare(n=20, count=1000, grid=2):
    return compare_ball_vs_product(SeededRng(5), 1, 2.0, [n], count, grid=grid)


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
]


@pytest.mark.parametrize("name, call, minimum, valid", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_whole_number_arguments(name, call, minimum, valid):
    for bad in (2.5, True, minimum - 1):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number >= {minimum}"):
            call(bad)
    assert pickle.dumps(call(float(valid))) == pickle.dumps(call(valid))


def test_compare_refuses_an_empty_n_list():
    # returned [] before
    with pytest.raises(DomainError, match="n_list must be non-empty and increasing"):
        compare_ball_vs_product(SeededRng(5), 1, 2.0, [], 1000)
