import math

import numpy as np
import pytest

from ldplab.configurations import PointConfiguration, config_from_stiefel, config_to_matrix
from ldplab.errors import DimensionMismatch, DomainError
from ldplab.linalg import ColumnList, gram, operator_norm
from ldplab.rates import (
    rate_configuration,
    rate_finite,
    rate_orthogonal_truncated,
    rate_truncated,
)
from ldplab.samplers import SeededRng, haar_orthogonal, haar_stiefel


def test_rate_finite_zero():
    assert rate_finite(np.zeros((2, 3))) == 0.0


def test_rate_finite_scalar_row():
    val = rate_finite(np.array([[math.sqrt(0.5)]]))
    assert abs(val - 0.5 * math.log(2.0)) < 1e-12


def test_rate_finite_boundary_row():
    assert rate_finite(np.array([[1.0]])) == math.inf
    assert rate_finite(np.array([[0.8, 0.8]])) == math.inf


def test_rate_finite_rejects_zero_rows():
    with pytest.raises(DimensionMismatch):
        rate_finite(np.zeros((0, 3)))


def test_rate_truncated_empty():
    value, report = rate_truncated(ColumnList.empty(3))
    assert value == 0.0
    assert report.converged
    assert report.partial_rates == []


def test_rate_truncated_diagonal():
    cl = ColumnList.from_columns(2, np.array([[0.6, 0.0], [0.0, 0.6]]))
    value, report = rate_truncated(cl)
    assert abs(value - (-math.log(0.64))) < 1e-12
    assert report.converged and report.tail_bound == 0.0
    assert len(report.partial_rates) == 2


def test_rate_truncated_drops_zero_columns():
    base = np.array([[0.5, 0.0], [0.0, 0.4]])
    padded = np.hstack([base, np.zeros((2, 3))])
    v1, _ = rate_truncated(ColumnList.from_columns(2, base))
    v2, _ = rate_truncated(ColumnList.from_columns(2, padded))
    assert v1 == v2


def test_rate_truncated_max_level_lower_bound():
    cl = ColumnList.from_columns(1, np.array([[0.5, 0.5, 0.5]]))
    value, report = rate_truncated(cl, max_level=2)
    assert not report.converged
    assert report.truncation_level == 2
    assert report.tail_bound == pytest.approx(0.25)
    full, _ = rate_truncated(cl)
    assert value <= full


def test_rate_orthogonal_zero():
    report = rate_orthogonal_truncated(np.zeros((3, 3)), 3)
    assert report.partial_rates == [0.0, 0.0, 0.0]


def test_rate_orthogonal_diagonal():
    report = rate_orthogonal_truncated(np.diag([0.5, 0.5, 0.5]), 3)
    unit = -0.5 * math.log(0.75)
    assert np.allclose(report.partial_rates, [unit, 2 * unit, 3 * unit])


def test_rate_orthogonal_boundary_at_first_row():
    report = rate_orthogonal_truncated(np.eye(2), 2)
    assert report.partial_rates[0] == math.inf
    assert report.partial_rates[-1] == math.inf


def test_row_truncation_boundary_follows_the_whole_matrix():
    # the first two rows lie inside the ball; the whole matrix is on its boundary
    report = rate_orthogonal_truncated(np.diag([0.5, 0.5, 1.0]), 2)
    assert all(math.isfinite(rate) for rate in report.partial_rates)
    assert not report.converged
    assert report.tail_bound == 1.0
    assert report.boundary


def test_rate_orthogonal_requires_square():
    with pytest.raises(DomainError):
        rate_orthogonal_truncated(np.zeros((2, 3)), 2)


def test_rate_configuration_empty():
    value = rate_configuration(PointConfiguration.empty(2))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_rate_configuration_scalar_pair():
    mu = PointConfiguration.from_atoms(1, [((0.5,), 1)])
    assert abs(rate_configuration(mu) - (-0.5 * math.log(0.75))) < 1e-12


def test_rate_configuration_boundary():
    v = haar_stiefel(SeededRng(40), 2, 5)
    mu = config_from_stiefel(v)
    assert rate_configuration(mu) == math.inf


def test_rate_projected_measure():
    assert rate_truncated(ColumnList.empty(2))[0] == 0.0
    a = ColumnList.from_columns(1, np.array([[0.6]]))
    assert abs(rate_truncated(a)[0] - (-0.5 * math.log(1 - 0.36))) < 1e-12
    b = ColumnList.from_columns(1, np.array([[1.0]]))
    assert rate_truncated(b)[0] == math.inf


def test_rate_finite_signed_permutation_invariance():
    gen = np.random.default_rng(41)
    for _ in range(50):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        a = gen.uniform(-0.4, 0.4, (k, m))
        perm = gen.permutation(m)
        signs = gen.choice([-1.0, 1.0], m)
        assert abs(rate_finite(a) - rate_finite(a[:, perm] * signs)) < 1e-12


def test_partial_rates_non_decreasing_in_columns():
    gen = np.random.default_rng(43)
    for _ in range(200):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 7))
        a = gen.standard_normal((k, m))
        a *= 0.99 / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        cl = ColumnList.from_columns(k, a)
        if cl.count == 0:
            continue
        raw = [rate_finite(cl.columns[:, :ell]) for ell in range(1, cl.count + 1)]
        for lo, hi in zip(raw, raw[1:]):
            assert hi >= lo - 1e-12
        _, report = rate_truncated(cl)
        for lo, hi in zip(report.partial_rates, report.partial_rates[1:]):
            assert hi >= lo


def test_orthogonal_partial_rates_non_decreasing_in_rows():
    gen = np.random.default_rng(47)
    for _ in range(200):
        n = int(gen.integers(2, 6))
        m = gen.standard_normal((n, n))
        m *= 0.99 / math.sqrt(max(operator_norm(gram(m)), 1e-12))
        report = rate_orthogonal_truncated(m, n)
        raw = [rate_finite(m[:k, :]) for k in range(1, n + 1)]
        for lo, hi in zip(raw, raw[1:]):
            assert hi >= lo - 1e-12
        assert report.converged


def test_stacked_prefix_rates_match_rate_finite():
    gen = np.random.default_rng(59)
    for i in range(100):
        k = int(gen.integers(1, 5))
        m = int(gen.integers(1, 40))
        if i % 10 == 0:
            # the columns of a Haar frame: +inf from level m - k + 1 on
            m = max(m, k)
            a = haar_stiefel(SeededRng(59, i), k, m)
        else:
            a = gen.standard_normal((k, m))
            a *= 0.95 / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        cl = ColumnList.from_columns(k, a)
        _, report = rate_truncated(cl)
        ref = [rate_finite(cl.columns[:, :ell]) for ell in range(1, cl.count + 1)]
        assert np.allclose(report.partial_rates, ref, rtol=1e-12, atol=1e-12)
        n = int(gen.integers(1, 12))
        sq = gen.standard_normal((n, n))
        sq *= 0.95 / math.sqrt(max(operator_norm(gram(sq)), 1e-12))
        report = rate_orthogonal_truncated(sq, n)
        ref = [rate_finite(sq[:j, :]) for j in range(1, n + 1)]
        assert np.allclose(report.partial_rates, ref, rtol=1e-12, atol=1e-12)
    # one long input per branch: 200 rows of a square matrix, 800 columns in R^2
    gen = np.random.default_rng(61)
    sq = gen.standard_normal((200, 200))
    sq *= 0.95 / math.sqrt(operator_norm(gram(sq)))
    report = rate_orthogonal_truncated(sq, 200)
    ref = [rate_finite(sq[:j, :]) for j in range(1, 201)]
    assert np.allclose(report.partial_rates, ref, rtol=1e-12, atol=1e-12)
    a = gen.standard_normal((2, 800))
    cl = ColumnList.from_columns(2, a * (0.95 / math.sqrt(operator_norm(gram(a)))))
    value, report = rate_truncated(cl)
    ref = [rate_finite(cl.columns[:, :ell]) for ell in range(1, 801)]
    assert np.allclose(report.partial_rates, ref, rtol=1e-12, atol=1e-12)
    assert value == report.partial_rates[-1]


def test_prefix_rates_just_inside_the_boundary():
    # Haar frames scaled by 1 - 1e-9 put the full Gram norm 2e-9 below the
    # boundary: each partial rate stays finite and non-decreasing
    shrink = 1.0 - 1e-9
    rows = shrink * haar_orthogonal(SeededRng(62), 8)
    report = rate_orthogonal_truncated(rows, 8)
    ref = [rate_finite(rows[:j, :]) for j in range(1, 9)]
    cols = ColumnList.from_columns(2, shrink * haar_stiefel(SeededRng(63), 2, 50))
    value, col_report = rate_truncated(cols)
    col_ref = [rate_finite(cols.columns[:, :ell]) for ell in range(1, 51)]
    assert value == col_report.partial_rates[-1]
    for partial, expected in ((report.partial_rates, ref), (col_report.partial_rates, col_ref)):
        assert all(math.isfinite(r) for r in partial)
        assert all(hi >= lo for lo, hi in zip(partial, partial[1:]))
        assert np.allclose(partial, expected, rtol=1e-7, atol=0.0)


def test_stacked_prefix_rates_infinite_where_frame_completes():
    # the third column brings the first row to squared norm 1 - 5e-13, on
    # the boundary within BOUNDARY_TOL; the fourth completes the second row
    third = math.sqrt(0.64 - 5e-13)
    cl = ColumnList.from_columns(2, np.array([[0.6, 0.0, third, 0.0],
                                              [0.0, 0.6, 0.0, 0.8]]))
    value, report = rate_truncated(cl)
    unit = -0.5 * math.log(1 - 0.36)
    assert report.partial_rates[:2] == pytest.approx([unit, 2 * unit], abs=1e-12)
    assert report.partial_rates[2:] == [math.inf, math.inf]
    assert value == math.inf and report.boundary
    report = rate_orthogonal_truncated(haar_orthogonal(SeededRng(60), 6), 6)
    assert report.partial_rates == [math.inf] * 6 and report.boundary
    # the second row reaches the boundary; the third cannot leave it
    report = rate_orthogonal_truncated(np.diag([0.5, 1.0, 0.5]), 3)
    assert report.partial_rates[0] == pytest.approx(-0.5 * math.log(0.75), abs=1e-12)
    assert report.partial_rates[1:] == [math.inf, math.inf] and report.boundary


def test_rate_midpoint_convexity():
    gen = np.random.default_rng(53)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        a = gen.standard_normal((k, m))
        b = gen.standard_normal((k, m))
        a *= 0.9 / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        b *= 0.9 / math.sqrt(max(operator_norm(gram(b)), 1e-12))
        mid = rate_finite(0.5 * (a + b))
        assert mid <= 0.5 * (rate_finite(a) + rate_finite(b)) + 1e-12


def test_rate_configuration_matches_truncation():
    gen = np.random.default_rng(59)
    for _ in range(30):
        k = int(gen.integers(1, 4))
        n_atoms = int(gen.integers(1, 4))
        pts = gen.uniform(-0.4, 0.4, (n_atoms, k))
        pts[np.all(pts == 0.0, axis=1)] += 0.1
        mu = PointConfiguration.from_atoms(k, [(p, int(gen.integers(1, 3))) for p in pts])
        direct = rate_configuration(mu)
        via_matrix, _ = rate_truncated(config_to_matrix(mu))
        assert direct == pytest.approx(via_matrix, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("atoms", [
    [(0.5, 1)],
    [(0.3, 3), (-0.2, 2)],
    [(0.4, 5), (0.001, 10**4)],
    [(0.0009, 10**6)],
    [(0.0005, 10**6), (0.0001, 10**6)],
])
def test_rate_configuration_scalar_closed_form(atoms):
    # k = 1: the Gram is the scalar sum m p^2, and no multiplicity is expanded
    # into columns, so m = 10^6 costs no more than m = 1
    mu = PointConfiguration.from_atoms(1, [((p,), m) for p, m in atoms])
    mass = sum(m * p * p for p, m in atoms)
    assert rate_configuration(mu) == pytest.approx(-0.5 * math.log1p(-mass),
                                                   rel=1e-13, abs=0.0)
