import math
import warnings

import numpy as np
import pytest

from ldplab.errors import DimensionMismatch, DomainError, NumericalFailure
from ldplab.linalg import (
    ColumnList,
    as_matrix,
    finite_array,
    gram,
    log_det_complement,
    operator_norm,
    psd_sqrt,
    signed_permutation_equal,
    sym_eigenvalues,
)
from ldplab.samplers import SeededRng, haar_stiefel


def test_gram_identity():
    s = gram(np.eye(2))
    assert np.allclose(s, np.eye(2))


def test_gram_unit_row():
    s = gram(np.array([[0.6, 0.8]]))
    assert s.shape == (1, 1)
    assert abs(s[0, 0] - 1.0) < 1e-15


def test_gram_orthonormal_rows():
    a = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert np.allclose(gram(a), np.eye(2), atol=1e-15)


def test_eigenvalues_sorted():
    assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])


def test_eigenvalues_2x2_analytic():
    vals = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0])


def _charpoly_roots_bisection(mat, n_grid=4000):
    """Independent eigenvalue oracle: sign changes of det(S - x I) located
    by bisection."""
    hi = float(np.max(np.abs(mat))) * mat.shape[0] + 1.0
    xs = np.linspace(-1e-6, hi, n_grid)
    dets = np.array([np.linalg.det(mat - x * np.eye(mat.shape[0])) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if dets[i] == 0.0:
            roots.append(xs[i])
        elif dets[i] * dets[i + 1] < 0:
            lo_x, hi_x = xs[i], xs[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo_x + hi_x)
                dm = np.linalg.det(mat - mid * np.eye(mat.shape[0]))
                if dets[i] * dm <= 0:
                    hi_x = mid
                else:
                    lo_x = mid
            roots.append(0.5 * (lo_x + hi_x))
    return sorted(roots, reverse=True)


def test_eigenvalues_match_charpoly_bisection():
    gen = np.random.default_rng(7)
    a = gen.standard_normal((5, 9))
    s = gram(a)
    oracle = _charpoly_roots_bisection(s)
    assert len(oracle) == 5
    assert np.allclose(sym_eigenvalues(s), oracle, atol=1e-7, rtol=1e-7)


def test_log_det_complement_zero():
    assert log_det_complement(np.zeros((3, 3))) == 0.0


def test_log_det_complement_diag():
    val = log_det_complement(np.diag([0.5, 0.5]))
    assert abs(val - 2 * math.log(0.5)) < 1e-14


def test_log_det_complement_boundary():
    assert log_det_complement(np.diag([1.0, 0.3])) == -math.inf
    assert log_det_complement(np.diag([1.0 - 1e-13, 0.3])) == -math.inf
    # orthonormal rows: the top eigenvalue is 1, and log1p(-1) is never taken
    q, _ = np.linalg.qr(np.random.default_rng(31).standard_normal((5, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_det_complement(q.T @ q) == -math.inf


def test_log_det_complement_validates_stacks():
    with pytest.raises(DimensionMismatch):
        log_det_complement(np.zeros((3, 2, 3)))
    with pytest.raises(DimensionMismatch):
        log_det_complement(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        log_det_complement(np.zeros(4))
    with pytest.raises(ValueError):
        log_det_complement(np.full((2, 2, 2), np.nan))
    with pytest.raises(NumericalFailure):
        log_det_complement(np.diag([0.5, -0.1]))


def test_psd_sqrt_rejects_non_psd():
    with pytest.raises(NumericalFailure):
        psd_sqrt(np.diag([1.0, -0.1]))
    with pytest.raises(DimensionMismatch):
        psd_sqrt(np.zeros((2, 3)))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_psd_sqrt_diag():
    r = psd_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(r, np.diag([2.0, 3.0]))


def test_psd_sqrt_self_consistency():
    gen = np.random.default_rng(11)
    s = gram(gen.standard_normal((4, 7)))
    r = psd_sqrt(s)
    resid = np.linalg.norm(r @ r - s)
    assert resid <= 1e-9 * (1.0 + np.linalg.norm(s))
    assert np.array_equal(r, r.T)


def test_operator_norm():
    assert operator_norm(np.zeros((2, 2))) == 0.0
    assert abs(operator_norm(np.diag([0.2, 0.9])) - 0.9) < 1e-15


def test_operator_norm_haar_gram():
    v = haar_stiefel(SeededRng(5), 3, 12)
    assert abs(operator_norm(gram(v)) - 1.0) < 1e-9


def cols(dim, arr):
    return ColumnList.from_columns(dim, np.asarray(arr, dtype=float))


def test_signed_permutation_sign_flip():
    p = cols(2, [[0.5], [0.0]])
    q = cols(2, [[-0.5], [0.0]])
    assert signed_permutation_equal(p, q, 1e-9)


def test_signed_permutation_reorder():
    p = cols(2, [[0.5, 0.0], [0.0, 0.3]])
    q = cols(2, [[0.0, 0.5], [0.3, 0.0]])
    assert signed_permutation_equal(p, q, 1e-9)


def test_signed_permutation_distinct():
    p = cols(2, [[0.5], [0.0]])
    q = cols(2, [[0.5], [0.1]])
    assert not signed_permutation_equal(p, q, 1e-6)


def test_signed_permutation_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        signed_permutation_equal(cols(2, [[0.5], [0.0]]), cols(3, [[0.5], [0.0], [0.0]]), 1e-9)


def test_signed_permutation_empty_and_count():
    assert signed_permutation_equal(ColumnList.empty(2), ColumnList.empty(2), 0.0)
    assert not signed_permutation_equal(cols(1, [[0.5]]), cols(1, [[0.5, 0.5]]), 1e-6)


def test_signed_permutation_tol_is_inclusive():
    # 0.5 and 0.5 + 2^-20 are exact binary fractions, so their distance is
    # exactly tol
    tol = 2.0 ** -20
    p = cols(1, [[0.5, 0.25]])
    q = cols(1, [[0.25, -(0.5 + tol)]])
    assert signed_permutation_equal(p, q, tol)
    assert not signed_permutation_equal(p, q, np.nextafter(tol, 0.0))


@pytest.mark.parametrize("tol", [-1e-9, math.nan], ids=["negative", "nan"])
def test_signed_permutation_refuses_bad_tol(tol):
    p = cols(1, [[0.5]])
    with pytest.raises(DomainError, match="tol must be >= 0"):
        signed_permutation_equal(p, p, tol)


@pytest.mark.parametrize("m", [10, 40])
def test_signed_permutation_repeated_columns(m):
    # config_to_matrix repeats an atom's column once per multiplicity; a
    # search over orderings took seconds at 10 such columns and did not end
    # within a minute at 40
    c = np.tile([[0.3], [-0.2]], m)
    d = c.copy()
    d[0, -1] += 3e-6
    assert not signed_permutation_equal(cols(2, c), cols(2, d), 1e-6)
    d[0, -1] = 0.3 + 5e-7
    assert signed_permutation_equal(cols(2, c), cols(2, -d), 1e-6)


def test_signed_permutation_properties():
    gen = np.random.default_rng(3)
    for _ in range(50):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 5))
        c = gen.uniform(-0.5, 0.5, (k, m))
        c[:, np.linalg.norm(c, axis=0) == 0] += 0.1
        p = cols(k, c)
        perm = gen.permutation(m)
        signs = gen.choice([-1.0, 1.0], m)
        q = cols(k, c[:, perm] * signs)
        assert signed_permutation_equal(p, p, 1e-12)
        assert signed_permutation_equal(p, q, 1e-9)
        assert signed_permutation_equal(q, p, 1e-9)


def test_gram_row_column_spectra_agree():
    # nonzero eigenvalues of A A^T and A^T A coincide
    gen = np.random.default_rng(19)
    for _ in range(40):
        k = int(gen.integers(1, 7))
        m = int(gen.integers(1, 13))
        a = gen.standard_normal((k, m))
        left = sym_eigenvalues(gram(a))
        right = sym_eigenvalues(gram(a.T))
        r = min(k, m)
        assert np.allclose(left[:r], right[:r], atol=1e-8 * (1 + left[0]))
        if k < m:
            assert np.all(np.abs(right[r:]) <= 1e-8 * (1 + left[0]))


def test_append_column_monotone_log_det():
    gen = np.random.default_rng(23)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 5))
        a = gen.standard_normal((k, m))
        a *= 0.99 / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        extra = gen.uniform(-0.05, 0.05, (k, 1))
        before = log_det_complement(gram(a))
        after = log_det_complement(gram(np.hstack([a, extra])))
        assert after <= before + 1e-12


def test_nested_row_blocks_monotone_det():
    gen = np.random.default_rng(29)
    for _ in range(100):
        n = int(gen.integers(2, 6))
        m = gen.standard_normal((n, n))
        m *= 0.99 / math.sqrt(max(operator_norm(gram(m)), 1e-12))
        dets = []
        for k in range(1, n + 1):
            block = m[:k, :]
            lam = sym_eigenvalues(gram(block))
            dets.append(float(np.prod(1.0 - lam)))
        for a, b in zip(dets, dets[1:]):
            assert b <= a + 1e-12


def test_midpoint_convexity_of_neg_log_det():
    gen = np.random.default_rng(31)
    for _ in range(100):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        a = gen.standard_normal((k, m))
        b = gen.standard_normal((k, m))
        a *= 0.95 / math.sqrt(max(operator_norm(gram(a)), 1e-12))
        b *= 0.95 / math.sqrt(max(operator_norm(gram(b)), 1e-12))
        va = -log_det_complement(gram(a))
        vb = -log_det_complement(gram(b))
        vm = -log_det_complement(gram(0.5 * (a + b)))
        assert vm <= 0.5 * (va + vb) + 1e-12


@pytest.mark.parametrize("value", [
    [[0.5], [0.1, 0.2]], [["0.2"]], [[0.1, "x"]], [[True]], [[None]], {"a": 1},
    [[math.nan]], [[math.inf]], [[10**400]],
], ids=["ragged", "numeric_string", "string", "bool", "null", "object", "nan", "inf",
        "huge_int"])
def test_finite_array_refuses(value):
    with pytest.raises(DomainError, match="^cells must"):
        finite_array(value, "cells")


def test_finite_array_does_not_copy_float64_input():
    a = np.arange(6.0).reshape(2, 3)
    assert finite_array(a, "cells") is a
    assert as_matrix(a) is a
    ints = finite_array([[1, 2]], "cells")
    assert ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0]]


def test_column_list_refusals_are_typed():
    # these raised numpy's or the package's own plain ValueError
    with pytest.raises(DomainError, match="column norm exceeds"):
        ColumnList.from_columns(1, [[2.0]])
    with pytest.raises(DimensionMismatch, match="expected R\\^2"):
        ColumnList.from_columns(2, [0.1, 0.2, 0.3])
    # a scalar raised IndexError while the message was built
    with pytest.raises(DimensionMismatch, match="expected R\\^2"):
        ColumnList.from_columns(2, 0.5)
    assert ColumnList.from_columns(2, []).columns.shape == (2, 0)


def test_column_list_keeps_nonzero_columns_whose_norm_underflows():
    # the Euclidean norm of a column of 1e-200 entries underflows to 0, and a
    # norm test dropped all three columns
    tiny = ColumnList.from_columns(2, [[1e-200, 0.0, 0.0, 0.0], [0.0, 1e-200, 1e-200, -0.0]])
    assert tiny.count == 3
    assert tiny.columns.tolist() == [[1e-200, 0.0, 0.0], [0.0, 1e-200, 1e-200]]
