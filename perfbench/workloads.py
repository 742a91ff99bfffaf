"""The three benchmark workloads: seeded inputs, the ops that call ldplab's
public functions, and the output check of every op.

An op is one public call.  ``build(name, seed, sizes)`` returns a
:class:`Workload` whose ops are replayed unchanged in every pass, so the
outputs of two passes must be bit-identical.  Checks run on the outputs of
the first pass, outside the timed region.

Checks use the acceptance-criterion bounds of ``tests/test_acceptance.py``.
Some of them fail correct outputs by chance once the seed changes: the
Dickey and CLT tests at level 0.01 in one run of a hundred, criterion 11's
LP trend at k = 1 in about one of ten (3 of 30 seeds measured).  A failure
of such a check therefore counts only when the same call on REPLICATES
independent streams fails the same bound too; a real defect fails them all.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from ldplab import cli, configurations, projections, rates, samplers, verify
from ldplab.densities import log_corner_density, sigma_p_squared
from ldplab.errors import InfeasibleExperiment
from ldplab.linalg import ColumnList

# Known program defects.  An op whose failure is listed here still counts in
# ``failed``; it does not make the run incorrect, because the defect is
# documented and the benchmark exists to measure its fix.
KNOWN_DEFECTS = {
    "frames_k_eq_n": (
        "ROADMAP 3a: stiefel_batch at k = n builds (G G^T)^(-1/2) G without a "
        "conditioning guard; some frames miss criterion 1's 1e-10 bound"
    ),
    "recover_peeler_failure": (
        "ROADMAP 2: the power-sum peeler raises RecoveryFailure on this "
        "criterion-12 generator case (generator seed 6, case 11)"
    ),
}

SIZES = {
    "full": {
        "corner_ladder": [250, 500, 1000, 2000],
        "corner_samples": 20_000,
        "config_n": [40, 70, 100],
        "config_samples": 100_000,
        "dickey_samples": 100_000,
        "frames_n": 8,
        "frames_count": 5_000,
        "stiefel_count": 10_000,
        "recover_cases": 8,
        "small_op_repeat": 8,
        "mid_op_repeat": 4,
        "identify_pairs": 100,
        "truncation_levels": [50, 200, 800],
        "orthogonal_n": 64,
        "rate_burst": 300,
        "min_scalar": 10,
        "min_block": 5,
        "compare_n": [20, 80, 320],
        "compare_count": 6000,
        "compare_grid": 192,
        "cf_count": 20_000,
        "cf_freqs": 20,
        "project_n": list(range(40, 171, 10)),
        "project_count": 1_000,
        "clt_samples": 10_000,
    },
    "smoke": {
        "corner_ladder": [250, 500, 1000, 2000],
        "corner_samples": 200,
        "config_n": [40, 70],
        "config_samples": 5_000,
        "dickey_samples": 2_000,
        "frames_n": 8,
        "frames_count": 200,
        "stiefel_count": 200,
        "recover_cases": 1,
        "small_op_repeat": 2,
        "mid_op_repeat": 2,
        "identify_pairs": 5,
        "truncation_levels": [50, 200, 800],
        "orthogonal_n": 16,
        "rate_burst": 10,
        "min_scalar": 2,
        "min_block": 1,
        "compare_n": [20, 80],
        "compare_count": 1000,
        "compare_grid": 24,
        "cf_count": 2_000,
        "cf_freqs": 2,
        "project_n": [40],
        "project_count": 500,
        "clt_samples": 1_000,
    },
}

# criterion 5: Monte Carlo slope vs the quadrature slope over the same window
SLOPE_GAP = 0.15
# criterion 1
FRAME_TOL = 1e-10
# criterion 12
RECOVER_TOL = 1e-3
# criteria 8 and 9
P_LEVEL = 0.01
# criterion 4
QUAD_GAP = 0.02
# independent repeats of a failed statistical check, see the module docstring
REPLICATES = 2
# Executions per timed pass of the recover cases that take long: the peeler
# takes about 0.15 s on case 1 and 0.5-1.5 s on cases 4, 6 and 7, under
# 50 ms on the others
LONG_RECOVER_REPEAT = {1: 2, 4: 1, 6: 1, 7: 1}
CONFIG_PATH = "configs/ldp_k1_a03.json"


@dataclass
class Op:
    """One public call of ldplab with the check of its output.

    ``check(result, results)`` returns a failure message or None; ``results``
    maps op labels to the outputs of the same pass.  ``raises`` names the
    exception a refusal op must raise.  ``replicate(j)`` repeats the call on
    the j-th independent stream, for statistical checks.  ``threaded`` ops take a
    ``threads`` argument and must not depend on it.  A timed pass executes the
    op ``repeat`` times, at moments spread over the pass.
    """

    label: str
    name: str
    fn: Callable
    check: Optional[Callable] = None
    attrs: dict = field(default_factory=dict)
    raises: Optional[type] = None
    replicate: Optional[Callable] = None
    threaded: bool = False
    defect: Optional[str] = None
    draws: int = 0
    repeat: int = 1

    def call(self, threads):
        return self.fn(threads=threads) if self.threaded else self.fn()


@dataclass
class Workload:
    """Ops replayed in every timed pass, and probes run once per run after
    the passes to show documented defects."""

    name: str
    seed: int
    threads: int
    ops: list
    probes: list = field(default_factory=list)

    @property
    def draws(self) -> int:
        return sum(op.draws for op in self.ops)


def _fail(ok: bool, message: str):
    return None if ok else message


# --------------------------------------------------------------- corner_mc


def _quadrature_slope(a: float, radius: float, n_values) -> float:
    exp = verify.LdpExperiment(k=1, ell=1, target=[[a]], radius=radius,
                               n_values=n_values, samples_per_n=1,
                               method="quadrature")
    return verify.run_ldp_corner(samplers.SeededRng(0), exp).fitted_slope


def _log_disk_prob(n: int, a: float, radius: float) -> float:
    """log P[|c - t| < radius] for the first column c of a Haar 2 x n frame,
    |t| = a > radius.  The corner density depends on |c| only, so the
    probability is a radial integral of the density times the arc of the
    circle |c| = rho inside the disk."""

    def log_f(rho):
        return log_corner_density(np.array([[rho], [0.0]]), 2, 1, n)

    peak = log_f(a - radius)

    def integrand(rho):
        c = (rho * rho + a * a - radius * radius) / (2.0 * rho * a)
        arc = 2.0 * math.acos(min(1.0, max(-1.0, c)))
        return math.exp(log_f(rho) - peak) * rho * arc

    val, _ = quad(integrand, a - radius, a + radius, epsabs=0.0,
                  epsrel=1e-11, limit=200)
    return peak + math.log(val)


def _slope(ns, log_probs) -> float:
    return -float(np.polyfit(np.asarray(ns, float), np.asarray(log_probs), 1)[0])


def _check_corner_slope(reference: Callable):
    def check(rep, _results):
        ref = reference([n for n, _, _ in rep.per_n])
        gap = abs(rep.fitted_slope - ref) / ref
        return _fail(gap < SLOPE_GAP,
                     f"MC slope {rep.fitted_slope:.6g} vs quadrature {ref:.6g}: "
                     f"gap {gap:.3f} >= {SLOPE_GAP}")
    return check


def _check_configuration(rep, _results):
    lps = [lp for _, lp, _ in rep.per_n]
    decays = all(b < a for a, b in zip(lps, lps[1:]))
    in_range = 0.0 < rep.fitted_slope < rep.rate_reference
    return _fail(decays and in_range,
                 f"log-probabilities {lps} or slope {rep.fitted_slope:.4g} "
                 f"outside (0, {rep.rate_reference:.4g})")


def _check_pvalue(matched: bool):
    def check(rep, _results):
        p = rep.min_pvalue
        if matched:
            return _fail(p > P_LEVEL, f"min p-value {p:.3g} <= {P_LEVEL}")
        return _fail(p < P_LEVEL, f"control p-value {p:.3g} >= {P_LEVEL}")
    return check


def frame_errors(frames: np.ndarray) -> np.ndarray:
    """||V V^T - I||_F of every frame in a (count, k, n) batch."""
    k = frames.shape[1]
    gram = np.einsum("bkn,bln->bkl", frames, frames)
    return np.linalg.norm(gram - np.eye(k), axis=(1, 2))


def _check_frames(frames, _results):
    err = frame_errors(frames)
    bad = int(np.sum(err > FRAME_TOL))
    return _fail(bad == 0, f"{bad} of {err.size} frames exceed "
                           f"||VV^T - I||_F <= {FRAME_TOL:g} (max {err.max():.2e})")


def _frames(rng, k: int, n: int, count: int) -> np.ndarray:
    return samplers.stiefel_batch(rng.generator(), k, n, count)


def _corner_ops(seed: int, sz: dict) -> list:
    gen = np.random.default_rng([seed, 1])
    ladder = sz["corner_ladder"]
    samples = sz["corner_samples"]
    radius = 0.05
    ops = []
    for k in (1, 2):
        a = float(gen.uniform(0.095, 0.105))
        if k == 1:
            target = [[a * float(gen.choice([-1.0, 1.0]))]]
            reference = (lambda ns, a=a: _quadrature_slope(a, radius, ns))
        else:
            angle = gen.uniform(0.0, 2.0 * math.pi)
            target = [[a * math.cos(angle)], [a * math.sin(angle)]]
            reference = (lambda ns, a=a: _slope(
                ns, [_log_disk_prob(n, a, radius) for n in ns]))
        exp = verify.LdpExperiment(k=k, ell=1, target=target, radius=radius,
                                   n_values=ladder, samples_per_n=samples)
        rng = samplers.SeededRng(seed, 10 + k)
        ops.append(Op(
            label=f"corner_k{k}", name="verify.run_ldp_corner",
            fn=functools.partial(verify.run_ldp_corner, rng, exp),
            check=_check_corner_slope(reference), threaded=True,
            attrs={"k": k}, draws=samples * len(ladder)))

    atom = configurations.PointConfiguration.from_atoms(1, [((0.4,), 1)])
    rng = samplers.SeededRng(seed, 20)
    ops.append(Op(
        label="configuration", name="verify.run_ldp_configuration",
        fn=functools.partial(
            verify.run_ldp_configuration, rng, 1, atom, r=0.33, rho=0.04,
            n_values=sz["config_n"], samples_per_n=sz["config_samples"]),
        check=_check_configuration, threaded=True,
        draws=sz["config_samples"] * len(sz["config_n"])))
    # criterion 6: the feasibility guard must refuse these parameters
    rng6 = samplers.SeededRng(seed, 21)
    ops.append(Op(
        label="configuration_criterion6", name="verify.run_ldp_configuration",
        fn=functools.partial(
            verify.run_ldp_configuration, rng6, 1, atom, r=0.1, rho=0.05,
            n_values=[30, 60, 90, 120], samples_per_n=10**6),
        raises=InfeasibleExperiment, threaded=True))

    ds = sz["dickey_samples"]
    for i, (k, m, n, offset) in enumerate(((1, 1, 10, 0), (2, 2, 20, 0),
                                           (1, 1, 10, 5))):
        def dickey(stream, k=k, m=m, n=n, offset=offset):
            return verify.run_dickey_check(samplers.SeededRng(seed, stream),
                                           k, m, n, ds, dof_offset=offset)
        ops.append(Op(
            label=f"dickey_k{k}_m{m}_n{n}_off{offset}",
            name="verify.run_dickey_check",
            fn=functools.partial(dickey, 30 + i),
            check=_check_pvalue(matched=offset == 0),
            replicate=(lambda j, f=dickey, i=i: f(100 + 10 * j + i)) if offset == 0 else None,
            draws=2 * ds))

    # the `sample --dist orthogonal` path (k = n) and `--dist stiefel` (k < n)
    for i, (k, n, count, defect) in enumerate((
            (sz["frames_n"], sz["frames_n"], sz["frames_count"], "frames_k_eq_n"),
            (8, 64, sz["stiefel_count"], None))):
        ops.append(Op(
            label=f"frames_k{k}_n{n}", name="samplers.stiefel_batch",
            fn=functools.partial(_frames, samplers.SeededRng(seed, 50 + i), k, n, count),
            check=_check_frames, defect=defect,
            attrs={"k": k, "n": n, "count": count}, draws=count))
    return ops


# ------------------------------------------------------------------- exact


def criterion12_cases(gen: np.random.Generator, count: int) -> list:
    """Sorted sequences drawn exactly as criterion 12 draws them."""
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


def peeler_failure_case() -> np.ndarray:
    """Case 11 of the criterion-12 generator at seed 6, a valid input on
    which the power-sum peeler raises RecoveryFailure."""
    return criterion12_cases(np.random.default_rng(6), 12)[-1]


def _check_recovery(truth):
    def check(rec, _results):
        if len(rec) != len(truth):
            return f"recovered {len(rec)} entries, expected {len(truth)}"
        err = float(np.max(np.abs(np.asarray(rec) - truth)))
        return _fail(err < RECOVER_TOL, f"recovery error {err:.3g} >= {RECOVER_TOL}")
    return check


def recover_op(label: str, truth: np.ndarray, defect=None, repeat=1) -> Op:
    sums = configurations.power_sums(truth, 3, 60)
    return Op(label=label, name="configurations.recover_from_power_sums",
              fn=functools.partial(configurations.recover_from_power_sums,
                                   sums, 6, RECOVER_TOL),
              check=_check_recovery(truth), defect=defect, repeat=repeat)


def brute_equivalent(p: ColumnList, q: ColumnList, tol: float) -> bool:
    """Signed-permutation equivalence by enumeration (criterion 12)."""
    if p.count != q.count:
        return False
    m = p.count
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product([-1.0, 1.0], repeat=m):
            cand = q.columns[:, perm] * np.array(signs)
            if np.linalg.norm(cand - p.columns, axis=0).max() <= tol:
                return True
    return False


def _identify_pair(gen, i: int):
    """Criterion 12's identification generator with the dimensions and the
    kind of pair cycled by index rather than drawn, so that the mix of cheap
    and expensive calls is the same for every seed: half the pairs are
    signed permutations (three in ten of them perturbed), half independent."""
    k = 1 + i % 3
    m = 1 + (i // 3) % 4
    kind = i % 10
    cols = gen.uniform(-0.5, 0.5, (k, m))
    cols[:, np.linalg.norm(cols, axis=0) < 1e-3] += 0.2
    p = ColumnList.from_columns(k, cols)
    if kind < 5:
        q_cols = cols[:, gen.permutation(m)] * gen.choice([-1.0, 1.0], m)
        if kind >= 3:
            q_cols = q_cols + gen.uniform(-0.03, 0.03, q_cols.shape)
    else:
        q_cols = gen.uniform(-0.5, 0.5, (k, m))
        q_cols[:, np.linalg.norm(q_cols, axis=0) < 1e-3] += 0.2
    return p, ColumnList.from_columns(k, q_cols)


def reference_rate(a: np.ndarray) -> float:
    """-1/2 log det(I - A A^T) from numpy's eigensolver alone."""
    return float(-0.5 * np.sum(np.log1p(-np.linalg.eigvalsh(a @ a.T))))


def _scaled(gen, shape, norm: float) -> np.ndarray:
    a = gen.standard_normal(shape)
    return a * (norm / np.linalg.norm(a, 2))


def _close(value: float, ref: float, what: str, rel=1e-9):
    return _fail(math.isclose(value, ref, rel_tol=rel, abs_tol=1e-13),
                 f"{what} {value!r} vs reference {ref!r}")


def _cli_verify(tmpdir: str):
    prefix = os.path.join(tmpdir, "slope")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--config", CONFIG_PATH, "--out-prefix", prefix])
    report = None
    if code == 0:
        with open(prefix + ".json") as fh:
            report = json.load(fh)["report"]
    return code, report, out.getvalue()


def _check_cli(result, _results):
    code, report, _ = result
    if code != 0:
        return f"ldplab verify exited with {code}"
    return _fail(report["relative_gap"] < QUAD_GAP,
                 f"relative gap {report['relative_gap']} >= {QUAD_GAP}")


def _exact_ops(seed: int, sz: dict, tmpdir: str) -> list:
    ops = []
    # The peeler's cost varies from 5 ms to 5 s per case, so a seed-drawn
    # stream of affordable length would spread wall_s across seeds far beyond
    # any usable bound; the stream is criterion 12's own first cases.
    for i, truth in enumerate(criterion12_cases(np.random.default_rng(112),
                                                sz["recover_cases"])):
        ops.append(recover_op(f"recover_{i}", truth,
                              repeat=LONG_RECOVER_REPEAT.get(i, sz["mid_op_repeat"])))

    gen = np.random.default_rng([seed, 2])
    for i in range(sz["identify_pairs"]):
        p, q = _identify_pair(gen, i)
        expected = brute_equivalent(p, q, 1e-6)
        ops.append(Op(
            label=f"identify_{i}", name="configurations.identify_equivalent",
            fn=functools.partial(configurations.identify_equivalent, p, q, 12, 1e-6),
            check=lambda r, _res, e=expected: _fail(
                r == e, f"identify_equivalent gave {r}, brute force {e}"),
            repeat=sz["small_op_repeat"]))

    for level in sz["truncation_levels"]:
        cols = _scaled(gen, (2, level), 0.9)
        cl = ColumnList.from_columns(2, cols)
        ref = reference_rate(cols)
        ops.append(Op(
            label=f"rate_truncated_L{level}", name="rates.rate_truncated",
            fn=functools.partial(rates.rate_truncated, cl),
            check=lambda r, _res, ref=ref: _close(r[0], ref, "rate_truncated"),
            attrs={"L": level}, repeat=sz["mid_op_repeat"]))

    n = sz["orthogonal_n"]
    square = _scaled(gen, (n, n), 0.9)
    ref_orth = reference_rate(square)
    ops.append(Op(
        label="rate_orthogonal_truncated", name="rates.rate_orthogonal_truncated",
        fn=functools.partial(rates.rate_orthogonal_truncated, square, n),
        check=lambda r, _res: _close(r.value, ref_orth, "rate_orthogonal_truncated"),
        repeat=sz["mid_op_repeat"]))

    # criterion 7's blocks, shapes cycled by index
    for i in range(sz["rate_burst"]):
        block = _scaled(gen, (1 + i % 3, 1 + (i // 3) % 5),
                        0.99 * float(gen.uniform(0.2, 1.0)))
        ref = reference_rate(block)
        ops.append(Op(
            label=f"rate_finite_{i}", name="rates.rate_finite",
            fn=functools.partial(rates.rate_finite, block),
            check=lambda r, _res, ref=ref: _close(r, ref, "rate_finite"),
            repeat=sz["small_op_repeat"]))

    for i in range(sz["min_scalar"]):
        # |a| > radius: a ball around 0 would return 0 without any search
        a = float(gen.choice([-1.0, 1.0]) * gen.uniform(0.35, 0.9))
        radius = float(gen.uniform(0.01, 0.3))
        ref = rates.rate_finite([[max(abs(a) - radius, 0.0)]])
        ops.append(Op(
            label=f"min_rate_scalar_{i}", name="verify.min_rate_over_ball",
            fn=functools.partial(verify.min_rate_over_ball, [[a]], radius),
            check=lambda r, _res, ref=ref: _close(r, ref, "min_rate_over_ball", rel=1e-12),
            repeat=sz["mid_op_repeat"]))
    for i in range(sz["min_block"]):
        target = _scaled(gen, (2, 3), float(gen.uniform(0.5, 0.9)))
        radius = float(gen.uniform(0.05, 0.2))
        upper = rates.rate_finite(target)
        ops.append(Op(
            label=f"min_rate_block_{i}", name="verify.min_rate_over_ball",
            fn=functools.partial(verify.min_rate_over_ball, target, radius),
            check=lambda r, _res, upper=upper: _fail(
                0.0 <= r <= upper, f"block minimum {r} outside [0, {upper}]"),
            repeat=sz["mid_op_repeat"]))

    ops.append(Op(label="cli_verify", name="cli.main",
                  fn=functools.partial(_cli_verify, tmpdir), check=_check_cli,
                  repeat=sz["mid_op_repeat"]))
    return ops


# -------------------------------------------------------------- projection


def _check_trend(grid: int):
    # criterion 11: at most one inversion beyond the grid resolution, and the
    # largest n closer than the smallest
    def check(pairs, _results):
        values = [d for _, d in pairs]
        inversions = sum(1 for a, b in zip(values, values[1:]) if b > a + 1.0 / grid)
        return _fail(inversions <= 1 and values[-1] < values[0],
                     f"LP estimates {values} do not decrease")
    return check


def _check_projected_variance(sigma2: float):
    # the coordinates of a frame projection have variance sigma_p^2 in the
    # limit; the finite-n lp-ball law is within 15% of it for n >= 40
    def check(cloud, _results):
        var = float(np.mean(np.sum(cloud.points**2, axis=1))) / cloud.dim
        return _fail(abs(var / sigma2 - 1.0) < 0.25,
                     f"coordinate variance {var:.4g} vs sigma_p^2 {sigma2:.4g}")
    return check


def _random_law(gen, p: float, k: int = 2, m: int = 3):
    # criterion 10's law generator at fixed dimensions, so that the cost of
    # sampling and of the empirical CF does not depend on the seed
    cols = gen.uniform(-0.6, 0.6, (k, m))
    cols *= 0.9 * gen.uniform(0.3, 1.0) / max(np.linalg.norm(cols, 2), 1e-6)
    return projections.ProjectedLaw(a=ColumnList.from_columns(k, cols),
                                    noise_variance=sigma_p_squared(p),
                                    product_law=samplers.PGaussianParams(p))


def _frequencies(gen, law, count: int, first_s: float) -> list:
    """Frequencies in criterion 10's range |t| <= 2.5 sqrt(2): random
    directions, lengths evenly spaced.  The cost of sin and cos grows with
    the phase, and the phases t . x of a law with covariance sigma_p^2 I
    scale with |t| alone, so fixed lengths keep the cost of every
    empirical_cf op the same for every seed.  The first frequency is
    rescaled so that its largest column frequency |a_j . t| is ``first_s``,
    which fixes the extent of the p-Gaussian CF grid at the first (cold)
    evaluation."""
    k = law.a.dim
    ts = []
    for j in range(count):
        direction = gen.standard_normal(k)
        ts.append(direction * (3.5 * (j + 1) / count / np.linalg.norm(direction)))
    s0 = float(np.max(np.abs(law.a.columns.T @ ts[0])))
    ts[0] = ts[0] * (first_s / s0)
    return ts


def _projection_ops(seed: int, sz: dict) -> list:
    ops = []
    for k in (1, 2):
        def compare(stream, k=k):
            return projections.compare_ball_vs_product(
                samplers.SeededRng(seed, stream), k, 1.0, sz["compare_n"],
                sz["compare_count"], grid=sz["compare_grid"])
        ops.append(Op(
            label=f"compare_k{k}", name="projections.compare_ball_vs_product",
            fn=functools.partial(compare, 60 + k),
            check=_check_trend(sz["compare_grid"]), attrs={"k": k},
            replicate=lambda j, f=compare, k=k: f(600 + 10 * j + k)))

    gen = np.random.default_rng([seed, 3])
    # empirical_cf ops read the cloud drawn by the last sample op; the
    # untimed first pass runs in list order, so every op finds its cloud, and
    # every later sample op draws the same cloud again
    clouds = {}
    count = sz["cf_count"]
    bound = 3.0 / math.sqrt(count)
    for p in (math.inf, 1.0, 1.5):
        tag = "inf" if math.isinf(p) else f"{p:g}"
        law = _random_law(gen, p)
        rng = samplers.SeededRng(seed, 70 + len(ops))

        def sample(rng=rng, law=law, tag=tag):
            clouds[tag] = projections.sample_projected_law(rng, law, count)
            return clouds[tag]

        ops.append(Op(
            label=f"sample_p{tag}", name="projections.sample_projected_law",
            fn=sample, attrs={"p": tag},
            check=lambda cloud, _res, k=law.a.dim: _fail(
                cloud.points.shape == (count, k), "wrong cloud shape"),
            repeat=sz["mid_op_repeat"]))
        for j, t in enumerate(_frequencies(gen, law, sz["cf_freqs"], 5.0)):
            cf_label = f"cf_p{tag}_{j}"
            ops.append(Op(
                label=cf_label, name="projections.characteristic_function",
                fn=functools.partial(projections.characteristic_function, law, t),
                attrs={"p": tag}, repeat=sz["small_op_repeat"]))

            def check(emp, results, cf_label=cf_label):
                gap = abs(results[cf_label].real - emp.real)
                return _fail(gap < bound, f"CF gap {gap:.4g} >= {bound:.4g}")

            ops.append(Op(
                label=f"empirical_cf_p{tag}_{j}", name="projections.empirical_cf",
                fn=lambda tag=tag, t=t: projections.empirical_cf(clouds[tag], t),
                check=check, attrs={"p": tag}, repeat=sz["small_op_repeat"]))

    # The `ldplab project` path.  Together with the CF evaluations these
    # many small ops put the median op inside the empirical-CF group rather
    # than at its edge, which keeps op_p50_ms steady.
    for n in sz["project_n"]:
        frame = samplers.haar_stiefel(samplers.SeededRng(seed, 1000 + n), 2, n)
        for p in (1.0, 1.5):
            law = samplers.PGaussianParams(p)
            for mode, fn in (("lpball", functools.partial(projections.project_lp_ball,
                                                          v=frame, p=p)),
                             ("product", functools.partial(projections.project_product,
                                                           v=frame, law=law))):
                ops.append(Op(
                    label=f"project_{mode}_p{p:g}_n{n}", name=f"projections.project_{mode}",
                    fn=functools.partial(fn, samplers.SeededRng(seed, 2000 + n),
                                         count=sz["project_count"]),
                    check=_check_projected_variance(sigma_p_squared(p)),
                    attrs={"p": f"{p:g}", "n": n}, repeat=sz["mid_op_repeat"]))

    for i, p in enumerate((1.0, math.inf)):
        def clt(stream, p=p):
            return verify.run_clt_check(samplers.SeededRng(seed, stream), 1, p,
                                        500, sz["clt_samples"])
        ops.append(Op(
            label=f"clt_p{'inf' if math.isinf(p) else 1}", name="verify.run_clt_check",
            fn=functools.partial(clt, 80 + i),
            check=lambda rep, _res: _fail(rep.min_pvalue > P_LEVEL,
                                          f"CLT p-value {rep.min_pvalue:.3g} <= {P_LEVEL}"),
            replicate=lambda j, f=clt, i=i: f(200 + 10 * j + i)))
    return ops


def build(name: str, seed: int, sizes: str, tmpdir: str, threads: int) -> Workload:
    sz = SIZES[sizes]
    if name == "corner_mc":
        return Workload(name, seed, threads, _corner_ops(seed, sz))
    if name == "exact":
        # The peeler failure costs 4 s per call; it runs once per run rather
        # than in every pass, so it shows in ``failed`` without dominating
        # wall_s.
        probe = recover_op("recover_seed6_case11", peeler_failure_case(),
                           defect="recover_peeler_failure")
        return Workload(name, seed, threads, _exact_ops(seed, sz, tmpdir), [probe])
    if name == "projection":
        return Workload(name, seed, threads, _projection_ops(seed, sz))
    raise ValueError(f"unknown workload {name!r}")
