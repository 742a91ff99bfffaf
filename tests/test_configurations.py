import itertools
import math

import numpy as np
import pytest

from ldplab.configurations import (
    PointConfiguration,
    config_from_stiefel,
    config_to_matrix,
    identify_equivalent,
    power_sums,
    psi,
    read_fields,
    recover_from_power_sums,
    whole_number,
)
from ldplab.densities import sigma_p_squared
from ldplab.errors import DimensionMismatch, DomainError, RecoveryFailure
from ldplab.linalg import (ColumnList, gram, operator_norm, real_number,
                           signed_permutation_equal)
import ldplab.projections as projections
from ldplab.projections import (CustomLaw, RademacherLaw, empirical_cf, project_product,
                                sample_projected_law)
from ldplab.samplers import PGaussianParams, SeededRng, haar_stiefel


def test_config_from_zero_matrix():
    mu = config_from_stiefel(np.zeros((2, 5)))
    assert mu.atoms == []
    assert mu.total_multiplicity == 0


def test_config_from_identity_rows():
    v = np.eye(4)[:2, :]
    mu = config_from_stiefel(v)
    points = sorted(tuple(p) for p, _ in mu.atoms)
    assert points == [(0.0, 1.0), (1.0, 0.0)]
    assert all(m == 1 for _, m in mu.atoms)


def test_config_sign_folding_multiplicity():
    c = np.array([[0.3], [0.4]])
    mu = config_from_stiefel(np.hstack([c, c, -c]))
    assert len(mu.atoms) == 1
    assert mu.atoms[0][1] == 3


def test_config_drop_tol():
    v = np.array([[0.5, 1e-6]])
    assert config_from_stiefel(v).total_multiplicity == 2
    assert config_from_stiefel(v, drop_tol=1e-3).total_multiplicity == 1


def test_config_invariants():
    with pytest.raises(DomainError):
        PointConfiguration.from_atoms(1, [((0.0,), 1)])
    with pytest.raises(DomainError):
        PointConfiguration.from_atoms(1, [((0.9,), 2)])  # row mass 1.62 > 1
    with pytest.raises(DomainError):
        PointConfiguration.from_atoms(1, [((1.2,), 1)])


@pytest.mark.parametrize("mult", [0, 1.7, math.inf, math.nan, "2"],
                         ids=["zero", "fraction", "inf", "nan", "string"])
def test_config_refuses_non_whole_multiplicity(mult):
    # int() used to truncate 1.7 to 1 and overflow on inf
    with pytest.raises(DomainError, match="whole number >= 1"):
        PointConfiguration.from_atoms(1, [((0.4,), mult)])


@pytest.mark.parametrize("value, expected", [
    (2, 2), (2.0, 2), (np.int64(3), 3), (np.float64(4.0), 4), (10**400, 10**400),
])
def test_whole_number_accepts(value, expected):
    got = whole_number(value, "x", 1)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [True, False, 1.5, math.inf, -math.inf, math.nan,
                                   "2", None, 0, -3])
def test_whole_number_refuses(value):
    with pytest.raises(DomainError, match="x must be a whole number >= 1"):
        whole_number(value, "x", 1)


def test_config_refuses_multiplicity_too_large_for_a_float():
    # mult * point**2 used to raise OverflowError on a multiplicity past 1e308
    with pytest.raises(DomainError, match="squared mass exceeds 1"):
        PointConfiguration.from_atoms(1, [((0.4,), 10**400)])
    # a point whose square underflows still bounds its multiplicity
    with pytest.raises(DomainError, match="squared mass exceeds 1"):
        PointConfiguration.from_atoms(1, [((1e-200,), 10**500)])


def test_config_dim_is_a_whole_number():
    assert PointConfiguration.from_atoms(2.0, [((0.4, 0.1), 1)]).dim == 2
    for dim in (True, 1.5, 0):
        with pytest.raises(DomainError, match="dim must be a whole number >= 1"):
            PointConfiguration.from_atoms(dim, [])
    with pytest.raises(DomainError, match="dim must be a whole number"):
        PointConfiguration.from_json_dict({"dim": 1.5, "atoms": []})


def test_config_accepts_whole_float_multiplicity():
    mu = PointConfiguration.from_atoms(1, [((0.4,), 2.0), ((-0.4,), np.int64(1))])
    assert mu.atoms[0][1] == 3
    assert type(mu.atoms[0][1]) is int


def test_config_to_matrix_empty_and_multiplicity():
    assert config_to_matrix(PointConfiguration.empty(2)).count == 0
    mu = PointConfiguration.from_atoms(2, [((-0.6, 0.0), 2)])
    cl = config_to_matrix(mu)
    assert cl.count == 2
    assert np.allclose(cl.columns, np.array([[0.6, 0.6], [0.0, 0.0]]))


def test_config_to_matrix_gram_invariant_under_resign():
    mu1 = PointConfiguration.from_atoms(2, [((0.5, 0.2), 1), ((0.1, -0.4), 2)])
    mu2 = PointConfiguration.from_atoms(2, [((-0.5, -0.2), 1), ((-0.1, 0.4), 2)])
    g1 = gram(config_to_matrix(mu1).columns)
    g2 = gram(config_to_matrix(mu2).columns)
    assert np.allclose(g1, g2)


def test_config_json_round_trip():
    mu = PointConfiguration.from_atoms(2, [((0.5, 0.2), 1), ((0.1, -0.4), 2)])
    doc = {"dim": 2, "atoms": [{"point": [0.5, 0.2], "multiplicity": 1},
                               {"point": [0.1, -0.4], "multiplicity": 2}]}
    back = PointConfiguration.from_json_dict(doc)
    assert back.dim == mu.dim
    assert all(np.allclose(p, q) and mp == mq
               for (p, mp), (q, mq) in zip(mu.atoms, back.atoms))


def test_stiefel_round_trip_columns():
    v = haar_stiefel(SeededRng(30), 2, 6)
    cl = config_to_matrix(config_from_stiefel(v, drop_tol=0.0))
    # recovered columns match the originals up to sign and order
    original = ColumnList.from_columns(2, v)
    assert signed_permutation_equal(cl, original, 1e-12)
    assert abs(operator_norm(gram(cl.columns)) - 1.0) < 1e-9


def test_psi_empty_is_isotropic_gaussian():
    law = PGaussianParams(1.0)
    cloud = sample_projected_law(SeededRng(31), psi(PointConfiguration.empty(2), law),
                                 2 * 10**4)
    assert np.allclose(cloud.points.var(axis=0), sigma_p_squared(1.0), atol=0.1)
    assert np.allclose(np.cov(cloud.points.T)[0, 1], 0.0, atol=0.05)


def test_psi_returns_the_law_and_draws_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("psi drew a sample")

    monkeypatch.setattr(projections, "p_gaussian_batch", refuse)
    monkeypatch.setattr(projections, "random_signs", refuse)
    mu = PointConfiguration.from_atoms(1, [((0.4,), 2)])
    for law, var in ((RademacherLaw(), 1.0), (PGaussianParams(1.0), sigma_p_squared(1.0)),
                     (PGaussianParams(math.inf), 1.0 / 3.0),
                     (CustomLaw(sampler=refuse, variance=0.25), 0.25)):
        image = psi(mu, law)
        assert image.noise_variance == var
        assert image.product_law is law
        assert np.array_equal(image.a.columns, [[0.4, 0.4]])
    assert abs(sigma_p_squared(1.0) - 2.0) < 1e-15


def test_psi_matches_projected_product():
    v = haar_stiefel(SeededRng(32), 2, 8)
    law = PGaussianParams(1.0)
    n = 4 * 10**4
    via_psi = sample_projected_law(SeededRng(33), psi(config_from_stiefel(v), law), n)
    direct = project_product(SeededRng(34), v, law, n)
    gen = np.random.default_rng(35)
    for _ in range(10):
        t = gen.uniform(-1.5, 1.5, 2)
        assert abs(empirical_cf(via_psi, t).real - empirical_cf(direct, t).real) \
            < 3.0 / math.sqrt(n)


def test_psi_deterministic():
    mu = PointConfiguration.from_atoms(1, [((0.4,), 1)])
    law = PGaussianParams(2.0)
    a = sample_projected_law(SeededRng(36), psi(mu, law), 100)
    b = sample_projected_law(SeededRng(36), psi(mu, law), 100)
    assert np.array_equal(a.points, b.points)


def test_power_sums_values():
    assert np.allclose(power_sums([1.0], 3, 6), [1.0, 1.0, 1.0, 1.0])
    assert power_sums([0.5, 0.5], 3, 3)[0] == pytest.approx(0.25)
    assert power_sums([0.8, 0.5, 0.5, 0.1], 4, 4)[0] == pytest.approx(0.5347)
    with pytest.raises(DomainError):
        power_sums([0.5], 2, 5)


def test_recover_single_atom():
    sums = power_sums([0.9], 3, 23)
    rec = recover_from_power_sums(sums, 1, 1e-6)
    assert len(rec) == 1
    assert abs(rec[0] - 0.9) < 1e-6


def test_recover_four_atoms():
    sums = power_sums([0.8, 0.5, 0.5, 0.1], 3, 60)
    rec = recover_from_power_sums(sums, 6, 1e-4)
    assert np.allclose(rec, [0.8, 0.5, 0.5, 0.1], atol=1e-4)


def test_recover_detects_multiplicity():
    sums = power_sums([0.5, 0.5], 3, 26)
    rec = recover_from_power_sums(sums, 2, 1e-3)
    assert rec == pytest.approx([0.5, 0.5], abs=1e-6)


def test_recover_requires_enough_sums():
    with pytest.raises(DomainError):
        recover_from_power_sums(power_sums([0.5], 3, 10), 6, 1e-3)


def test_recover_rejects_garbage():
    bad = np.abs(np.sin(np.arange(3, 61))) + 0.5
    with pytest.raises(RecoveryFailure):
        recover_from_power_sums(bad, 6, 1e-3)


@pytest.mark.parametrize("sums", [
    power_sums([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], 3, 60),  # 7 > count_bound
    power_sums([0.9], 3, 60) - power_sums([0.5], 3, 60),  # negative weight
    0.5 * power_sums([0.9, 0.5], 3, 60),  # half-integer weights
], ids=["too_many", "negative", "half"])
def test_recover_rejects_non_power_sums(sums):
    with pytest.raises(RecoveryFailure):
        recover_from_power_sums(sums, 6, 1e-3)


def criterion12_sequences(gen, count):
    """Sorted sequences drawn as criterion 12 draws them: 1-4 distinct
    values in [0.05, 0.95] at least 0.05 apart, multiplicities 1-2, at most
    6 entries."""
    out = []
    for _ in range(count):
        n_distinct = int(gen.integers(1, 5))
        while True:
            vals = np.sort(gen.uniform(0.05, 0.95, n_distinct))[::-1]
            if n_distinct == 1 or np.min(-np.diff(vals)) >= 0.05:
                break
        mults = gen.integers(1, 3, n_distinct)
        while mults.sum() > 6:
            mults[gen.integers(0, n_distinct)] = 1
        out.append(np.repeat(vals, mults))
    return out


def test_recover_round_trip_battery():
    for seq in criterion12_sequences(np.random.default_rng(37), 30):
        rec = recover_from_power_sums(power_sums(seq, 3, 60), 6, 1e-3)
        assert len(rec) == len(seq)
        assert np.allclose(rec, seq, atol=1e-3)


def test_recover_seed6_case11():
    # a valid generator case on which a backtracking peeler gave up
    seq = criterion12_sequences(np.random.default_rng(6), 12)[-1]
    rec = recover_from_power_sums(power_sums(seq, 3, 60), 6, 1e-3)
    assert len(rec) == len(seq)
    assert np.allclose(rec, seq, atol=1e-3)


def test_recover_noisy_sums():
    # 1e-10 relative noise on every sum, on the round-trip battery's cases
    noise = np.random.default_rng(38)
    for seq in criterion12_sequences(np.random.default_rng(37), 30):
        sums = power_sums(seq, 3, 60)
        sums = sums * (1.0 + 1e-10 * noise.standard_normal(sums.size))
        rec = recover_from_power_sums(sums, 6, 1e-3)
        assert len(rec) == len(seq)
        assert np.allclose(rec, seq, rtol=0.0, atol=1e-6)


def test_recover_leaves_tail_unresolved():
    rec = recover_from_power_sums(power_sums([0.9, 0.5, 1e-5], 3, 60), 6, 1e-3)
    assert rec == pytest.approx([0.9, 0.5], abs=1e-9)


def test_recover_full_multiplicity():
    rec = recover_from_power_sums(power_sums([0.9] * 6, 3, 60), 6, 1e-3)
    assert rec == pytest.approx([0.9] * 6, abs=1e-9)


def brute_force_signed_equal(p: ColumnList, q: ColumnList, tol: float) -> bool:
    if p.count != q.count:
        return False
    m = p.count
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product([-1.0, 1.0], repeat=m):
            cand = q.columns[:, perm] * np.array(signs)
            if np.linalg.norm(cand - p.columns, axis=0).max() <= tol:
                break
        else:
            continue
        return True
    return m == 0


def test_identify_equivalent_examples():
    p = ColumnList.from_columns(2, np.array([[0.6, 0.0], [0.0, 0.3]]))
    assert identify_equivalent(p, p, 12, 1e-9)
    q = ColumnList.from_columns(2, np.array([[0.0, -0.6], [-0.3, 0.0]]))
    assert identify_equivalent(p, q, 12, 1e-9)
    # equal row power sums of moduli, different column multisets
    r = ColumnList.from_columns(2, np.array([[0.6, 0.8], [0.8, 0.6]]) * 0.7)
    s = ColumnList.from_columns(2, np.array([[0.6, 0.8], [0.6, 0.8]]) * 0.7)
    assert not identify_equivalent(r, s, 12, 1e-9)
    assert not brute_force_signed_equal(r, s, 1e-9)


def test_identify_equivalent_matches_brute_force():
    gen = np.random.default_rng(38)
    for _ in range(100):
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
                q_cols = q_cols + gen.uniform(-0.05, 0.05, q_cols.shape)
        else:
            q_cols = gen.uniform(-0.5, 0.5, (k, m))
            q_cols[:, np.linalg.norm(q_cols, axis=0) < 1e-3] += 0.2
        q = ColumnList.from_columns(k, q_cols)
        assert identify_equivalent(p, q, 12, 1e-6) == brute_force_signed_equal(p, q, 1e-6)
    # repeated columns, as config_to_matrix writes an atom of multiplicity
    # >= 2: both lists draw up to 5 columns from a pool of 2, and one q column
    # moves by 0, 5e-7 (inside tol) or 3e-6 (outside)
    for _ in range(300):
        k = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        pool = gen.uniform(-0.5, 0.5, (k, 2))
        pool[:, np.linalg.norm(pool, axis=0) < 1e-3] += 0.2
        cols = pool[:, gen.integers(0, 2, m)]
        if gen.uniform() < 0.5:
            q_cols = cols[:, gen.permutation(m)] * gen.choice([-1.0, 1.0], m)
        else:
            q_cols = pool[:, gen.integers(0, 2, m)]
        q_cols[gen.integers(0, k), gen.integers(0, m)] += gen.choice([0.0, 5e-7, 3e-6])
        p = ColumnList.from_columns(k, cols)
        q = ColumnList.from_columns(k, q_cols)
        expected = brute_force_signed_equal(p, q, 1e-6)
        assert signed_permutation_equal(p, q, 1e-6) == expected
        assert identify_equivalent(p, q, 12, 1e-6) == expected


def test_identify_screen_holds_for_entries_above_one():
    # ColumnList admits entries up to sqrt(dim); the screen used to compare
    # unscaled power sums, whose k-th powers grow like 1.4^k
    p = ColumnList.from_columns(2, [[1.4], [0.1]])
    q = ColumnList.from_columns(2, [[1.4 + 5e-7], [0.1]])
    assert signed_permutation_equal(p, q, 1e-6)
    assert identify_equivalent(p, q, 12, 1e-6)
    gen = np.random.default_rng(41)
    for _ in range(300):
        k = int(gen.integers(2, 4))
        m = int(gen.integers(1, 6))
        cols = gen.uniform(-1.0, 1.0, (k, m)) * np.sqrt(k)
        norms = np.linalg.norm(cols, axis=0)
        cols *= np.minimum(1.0, 0.999 * np.sqrt(k) / norms)
        if gen.uniform() < 0.8:
            q_cols = cols[:, gen.permutation(m)] * gen.choice([-1.0, 1.0], m)
            q_cols[gen.integers(0, k), gen.integers(0, m)] += gen.choice([0.0, 5e-7, 3e-6])
        else:
            q_cols = cols * gen.uniform(0.9, 1.0)
        p = ColumnList.from_columns(k, cols)
        q = ColumnList.from_columns(k, q_cols)
        assert identify_equivalent(p, q, 12, 1e-6) == signed_permutation_equal(p, q, 1e-6)


@pytest.mark.parametrize("tol", [-1e-9, math.nan], ids=["negative", "nan"])
def test_identify_refuses_bad_tol(tol):
    p = ColumnList.from_columns(1, [[0.5]])
    with pytest.raises(DomainError, match="tol must be >= 0"):
        identify_equivalent(p, p, 12, tol)


@pytest.mark.parametrize("value", [True, "0.5", None, [0.5], math.nan, math.inf, 10**400],
                         ids=["bool", "string", "null", "list", "nan", "inf", "huge_int"])
def test_finite_real_refuses(value):
    with pytest.raises(DomainError, match="x must be a finite real number"):
        real_number(value, "x", finite=True)


# a float32 compared with the float64 maximum warned of an overflow in cast
@pytest.mark.filterwarnings("error")
def test_finite_real_accepts():
    for value, expected in ((0.5, 0.5), (2, 2.0), (np.float64(0.25), 0.25), (-1e300, -1e300),
                            (np.float32(0.25), 0.25)):
        got = real_number(value, "x", finite=True)
        assert got == expected and type(got) is float


_KINDS = {"n": 1, "x": float, "xs": list, "name": str, "any": object}


def test_read_fields_reads_each_kind_and_fills_defaults():
    doc = {"n": 2.0, "x": 3, "xs": [1], "any": {"p": "inf"}}
    got = read_fields(doc, _KINDS, "doc", {"name": "default"})
    assert got == {"n": 2, "x": 3.0, "xs": [1], "name": "default", "any": {"p": "inf"}}
    assert type(got["n"]) is int and type(got["x"]) is float
    assert doc == {"n": 2.0, "x": 3, "xs": [1], "any": {"p": "inf"}}


@pytest.mark.parametrize("doc, message", [
    ([1], "doc must be a JSON object"),
    ("text", "doc must be a JSON object"),
    ({"n": 1, "x": 1.0, "xs": [], "name": "a", "any": 0, "extra": 1},
     r"unknown doc fields: \['extra'\]"),
    ({"x": 1.0, "xs": [], "name": "a", "any": 0}, "doc lacks the field 'n'"),
    ({"n": 0, "x": 1.0, "xs": [], "name": "a", "any": 0}, "n must be a whole number >= 1"),
    ({"n": 1, "x": "1.0", "xs": [], "name": "a", "any": 0}, "x must be a finite real"),
    ({"n": 1, "x": 1.0, "xs": 5, "name": "a", "any": 0}, "xs must be of type list"),
    ({"n": 1, "x": 1.0, "xs": [], "name": 5, "any": 0}, "name must be of type str"),
])
def test_read_fields_refuses(doc, message):
    with pytest.raises(DomainError, match=message):
        read_fields(doc, _KINDS, "doc")


def test_config_json_names_malformed_atoms():
    with pytest.raises(DomainError, match="unknown atom fields"):
        PointConfiguration.from_json_dict(
            {"dim": 1, "atoms": [{"point": [0.4], "multiplicity": 1, "weight": 2}]})
    with pytest.raises(DomainError, match="configuration lacks the field 'atoms'"):
        PointConfiguration.from_json_dict({"dim": 1})
    with pytest.raises(DomainError, match="atom coordinates must be finite real numbers"):
        PointConfiguration.from_atoms(1, [(["0.4"], 1)])
    # a point of the wrong length used to raise numpy's reshape ValueError
    with pytest.raises(DimensionMismatch, match="does not lie in R\\^1"):
        PointConfiguration.from_atoms(1, [([0.4, 0.1], 1)])


def test_config_keeps_nonzero_columns_whose_norm_underflows():
    v = np.array([[1e-200, 0.0, 0.5], [0.0, 0.0, 0.0]])
    assert config_from_stiefel(v).total_multiplicity == 2


@pytest.mark.parametrize("alpha", [[math.nan], [math.inf], [0.5, -math.inf], ["0.5"]],
                         ids=["nan", "inf", "minus_inf", "string"])
def test_power_sums_refuses_non_finite_alpha(alpha):
    # NaN and inf entries gave NaN and inf sums
    with pytest.raises(DomainError, match="alpha must be finite real numbers"):
        power_sums(alpha, 3, 5)
