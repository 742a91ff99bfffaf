"""Rare-event experiments: estimate -(1/n) log P of deviation events for
Haar frames and compare the fitted decay slope against the log-determinant
rate functions, by Monte Carlo at moderate n and by exact quadrature in the
scalar case.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import ks_2samp, kstest

from .configurations import PointConfiguration
from .densities import log_corner_density, sigma_p_squared
from .errors import DomainError, InfeasibleExperiment
from .linalg import as_matrix
from .projections import project_lp_ball_batch, project_product_batch
from .rates import rate_configuration, rate_finite
from .samplers import (
    PGaussianParams,
    SeededRng,
    dickey_corner_batch,
    stiefel_batch,
    stiefel_corner_batch,
)

# elements per Monte Carlo batch; bounds the transient memory footprint
BATCH_ELEMENTS = 4_000_000


def worker_count(threads=None) -> int:
    """Worker threads: LDPLAB_THREADS overrides the argument, which
    overrides machine parallelism."""
    env = os.environ.get("LDPLAB_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if threads is not None:
        return max(1, int(threads))
    return max(1, os.cpu_count() or 1)


@dataclass
class LdpExperiment:
    """Deviation event {corner block within radius of target} over a range
    of ambient dimensions."""

    k: int
    ell: int
    target: np.ndarray
    radius: float
    n_values: list
    samples_per_n: int
    method: str = "montecarlo"  # or "quadrature"

    def __post_init__(self):
        self.target = as_matrix(self.target)
        if self.target.shape != (self.k, self.ell):
            raise DomainError("target shape must be (k, ell)")
        if self.radius <= 0:
            raise DomainError("radius must be > 0")
        self.n_values = [int(n) for n in self.n_values]
        if not self.n_values:
            raise DomainError("n_values must be non-empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise DomainError("n_values must be increasing")
        if self.method not in ("montecarlo", "quadrature"):
            raise DomainError("method must be 'montecarlo' or 'quadrature'")
        if self.method == "quadrature" and (self.k != 1 or self.ell != 1):
            raise DomainError("quadrature requires k = ell = 1")
        if self.samples_per_n < 1:
            raise DomainError("samples_per_n must be >= 1")
        if self.n_values[0] < self.ell + self.k:
            raise DomainError(
                f"n_values must be >= ell + k = {self.ell + self.k}, "
                f"got n = {self.n_values[0]}"
            )
        s_max = float(np.linalg.svd(self.target, compute_uv=False)[0])
        if s_max < 1.0 and s_max + self.radius >= 1.0:
            raise DomainError(
                "ball must stay inside the support: largest singular value "
                f"{s_max:.4g} plus radius reaches 1"
            )


@dataclass
class SlopeReport:
    """Per-n log-probabilities with the fitted decay slope and its target."""

    per_n: list = field(default_factory=list)  # (n, log_prob, stderr)
    fitted_slope: float = 0.0
    slope_stderr: float = 0.0
    rate_reference: float = 0.0
    relative_gap: float = 0.0

    def to_json_dict(self) -> dict:
        def safe(x):
            return x if math.isfinite(x) else ("+inf" if x > 0 else "-inf")

        return {
            "per_n": [
                {"n": n, "log_prob": safe(lp), "stderr": se}
                for n, lp, se in self.per_n
            ],
            "fitted_slope": safe(self.fitted_slope),
            "slope_stderr": self.slope_stderr,
            "rate_reference": safe(self.rate_reference),
            "relative_gap": self.relative_gap,
        }

    def to_csv_rows(self) -> list:
        return [(n, lp, se) for n, lp, se in self.per_n]


def min_rate_over_ball(target, radius: float) -> float:
    """Minimum of the finite-block rate over the closed Frobenius ball.

    The scalar rate is even and increasing in |x|, so its minimum sits at
    |x| = max(|a| - r, 0).  Larger blocks reduce to the singular values:
    any block within Frobenius distance r has singular values within l2
    distance r, and conversely, so the minimum is a small convex program
    over the shifted singular values.
    """
    target = as_matrix(target)
    if np.linalg.norm(target) <= radius:
        return 0.0
    k, ell = target.shape
    if k == 1 and ell == 1:
        return rate_finite([[max(abs(float(target[0, 0])) - radius, 0.0)]])

    s = np.linalg.svd(target, compute_uv=False)

    def objective(sv):
        sv = np.clip(sv, 0.0, None)
        if np.max(sv) >= 1.0 - 1e-12:
            return 1e30
        return float(-0.5 * np.sum(np.log1p(-(sv**2))))

    shrink = max(0.0, 1.0 - radius / max(np.linalg.norm(s), 1e-300))
    best = None
    for x0 in (s * shrink, np.clip(s - radius / math.sqrt(s.size), 0.0, None)):
        res = minimize(
            objective,
            x0,
            method="SLSQP",
            constraints=[{"type": "ineq",
                          "fun": lambda sv: radius**2 - np.sum((sv - s) ** 2)}],
            bounds=[(0.0, 1.0)] * s.size,
        )
        if res.success and (best is None or res.fun < best):
            best = float(res.fun)
    if best is None:
        best = objective(s * shrink)
    return best


def _log_corner_ball_prob(n: int, a: float, radius: float) -> float:
    """log P[|scalar corner - a| < r] for a Haar row in R^n, by adaptive
    quadrature of the exact corner density in log space."""
    lo = max(a - radius, -1.0)
    hi = min(a + radius, 1.0)
    if lo >= hi:
        return float("-inf")

    def log_f(x):
        return log_corner_density(np.array([[x]]), 1, 1, n)

    peak = min(max(0.0, lo), hi)
    m = log_f(peak)
    val, _ = quad(lambda x: math.exp(log_f(x) - m), lo, hi,
                  limit=200, epsabs=1e-13, epsrel=1e-11)
    return m + math.log(val)


def _fit_slope(per_n):
    ns = np.array([float(n) for n, _, _ in per_n])
    ys = np.array([lp for _, lp, _ in per_n])
    ses = np.array([se for _, _, se in per_n])
    if ns.size < 2:
        raise DomainError("need at least two n values to fit a slope")
    weights = 1.0 / ses**2 if np.all(ses > 0) else np.ones_like(ns)
    w_sum = np.sum(weights)
    n_bar = np.sum(weights * ns) / w_sum
    y_bar = np.sum(weights * ys) / w_sum
    var_n = np.sum(weights * (ns - n_bar) ** 2)
    slope = np.sum(weights * (ns - n_bar) * (ys - y_bar)) / var_n
    slope_se = math.sqrt(1.0 / var_n) if np.all(ses > 0) else 0.0
    return -float(slope), float(slope_se)


def _mc_batches(total: int, per_batch: int):
    out = []
    done = 0
    while done < total:
        size = min(per_batch, total - done)
        out.append(size)
        done += size
    return out


def _run_batches(rng, n_index, batch_sizes, sampler, threads):
    """Run batch samplers on derived sub-streams; merge in fixed order."""

    def one(args):
        batch_index, size = args
        gen = rng.child(n_index, batch_index)
        return sampler(gen, size)

    jobs = list(enumerate(batch_sizes))
    workers = worker_count(threads)
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]
    return sum(results)


def _mc_log_prob(hits: int, total: int):
    p = hits / total
    log_p = math.log(p)
    stderr = math.sqrt((1.0 - p) / hits)
    return log_p, stderr


def run_ldp_corner(rng: SeededRng, exp: LdpExperiment, threads=None) -> SlopeReport:
    """Estimate P[corner block of a Haar frame lands in the target ball]
    for each n and fit the decay slope against the ball-infimum rate."""
    rate_ref = min_rate_over_ball(exp.target, exp.radius)
    per_n = []
    if exp.method == "quadrature":
        a = float(exp.target[0, 0])
        for n in exp.n_values:
            per_n.append((n, _log_corner_ball_prob(n, a, exp.radius), 0.0))
    else:
        n_max = max(exp.n_values)
        if rate_ref * n_max > math.log(exp.samples_per_n / 10.0):
            raise InfeasibleExperiment(
                f"expected hit count below 10 at n={n_max}: "
                f"rate {rate_ref:.4g} * n exceeds log(samples/10)"
            )
        target = exp.target
        r2 = exp.radius**2
        for idx, n in enumerate(exp.n_values):
            per_batch = max(1, BATCH_ELEMENTS // max(n * exp.k, 1))
            sizes = _mc_batches(exp.samples_per_n, per_batch)

            def sampler(gen, size, n=n):
                corners = stiefel_corner_batch(gen, exp.k, n, exp.ell, size)
                dist2 = np.sum((corners - target) ** 2, axis=(1, 2))
                return int(np.sum(dist2 < r2))

            hits = _run_batches(rng, idx, sizes, sampler, threads)
            if hits == 0:
                raise InfeasibleExperiment(
                    f"zero hits out of {exp.samples_per_n} samples at n={n}"
                )
            log_p, se = _mc_log_prob(hits, exp.samples_per_n)
            per_n.append((n, log_p, se))

    slope, slope_se = _fit_slope(per_n)
    gap = abs(slope - rate_ref) / rate_ref if rate_ref > 0 else abs(slope)
    return SlopeReport(per_n=per_n, fitted_slope=slope, slope_stderr=slope_se,
                       rate_reference=rate_ref, relative_gap=gap)


def configuration_hit_count(frames: np.ndarray, atoms, r: float, rho: float) -> int:
    """Count frames whose column configuration matches the target: each atom
    pair collects exactly its multiplicity of columns within rho, and no
    column outside the atom balls has norm above r.

    ``frames`` has shape (batch, k, n); ``atoms`` is a list of
    (representative point, multiplicity) pairs.
    """
    norms2 = np.sum(frames**2, axis=1)
    matched = np.zeros(norms2.shape, dtype=bool)
    ok = np.ones(frames.shape[0], dtype=bool)
    rho2 = rho**2
    for point, mult in atoms:
        proj = np.einsum("i,bin->bn", point, frames)
        base = norms2 + float(point @ point)
        ball = (base - 2.0 * proj < rho2) | (base + 2.0 * proj < rho2)
        ok &= np.sum(ball, axis=1) == mult
        matched |= ball
    stray = np.any((norms2 > r**2) & ~matched, axis=1)
    return int(np.sum(ok & ~stray))


def _configuration_event_bounds(target: PointConfiguration, r, rho, n):
    """Range of total squared column mass compatible with the event; the
    Haar frame fixes that mass to k exactly, so an empty intersection means
    the event has probability zero."""
    total_m = target.total_multiplicity
    low = 0.0
    high = (n - total_m) * r**2
    for point, mult in target.atoms:
        norm = float(np.linalg.norm(point))
        low += mult * max(norm - rho, 0.0) ** 2
        high += mult * min(norm + rho, 1.0) ** 2
    return low, high


def run_ldp_configuration(
    rng: SeededRng,
    k: int,
    target: PointConfiguration,
    r: float,
    rho: float,
    n_values,
    samples_per_n: int,
    threads=None,
) -> SlopeReport:
    """Estimate P[column configuration of a Haar frame falls in the base
    neighborhood of the target] and fit the slope against its rate.

    The event: for every target atom pair, exactly its multiplicity of
    columns lie within rho of the pair, and no column outside the atom
    balls has norm above r.
    """
    if target.dim != k:
        raise DomainError("target dimension does not match k")
    n_values = [int(n) for n in n_values]
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise DomainError("n_values must be non-empty and increasing")
    if n_values[0] < k:
        raise DomainError(f"a k x n frame needs n >= k = {k}, got n = {n_values[0]}")
    reps = []
    for point, mult in target.atoms:
        norm = float(np.linalg.norm(point))
        if norm - rho <= r:
            raise DomainError("atom balls must stay outside the norm-r ball")
        reps.append((point, mult))
    signed = [s * p for p, _ in reps for s in (1.0, -1.0)]
    for i in range(len(signed)):
        for j in range(i + 1, len(signed)):
            if np.linalg.norm(signed[i] - signed[j]) <= 2 * rho:
                raise DomainError("atom balls must be pairwise disjoint")

    rate_ref = rate_configuration(target)
    n_max = max(n_values)
    if rate_ref * n_max > math.log(samples_per_n / 10.0):
        raise InfeasibleExperiment(
            f"expected hit count below 10 at n={n_max}: "
            f"rate {rate_ref:.4g} * n exceeds log(samples/10)"
        )
    for n in n_values:
        low, high = _configuration_event_bounds(target, r, rho, n)
        if not (low <= k <= high):
            raise InfeasibleExperiment(
                f"event has probability zero at n={n}: column mass must be "
                f"{k} but the event constrains it to [{low:.4g}, {high:.4g}]"
            )

    per_n = []
    for idx, n in enumerate(n_values):
        per_batch = max(1, BATCH_ELEMENTS // max(n * k, 1))
        sizes = _mc_batches(samples_per_n, per_batch)

        def sampler(gen, size, n=n):
            frames = stiefel_batch(gen, k, n, size)
            return configuration_hit_count(frames, reps, r, rho)

        hits = _run_batches(rng, idx, sizes, sampler, threads)
        if hits == 0:
            raise InfeasibleExperiment(
                f"zero hits out of {samples_per_n} samples at n={n}"
            )
        log_p, se = _mc_log_prob(hits, samples_per_n)
        per_n.append((n, log_p, se))

    slope, slope_se = _fit_slope(per_n)
    gap = abs(slope - rate_ref) / rate_ref if rate_ref > 0 else abs(slope)
    return SlopeReport(per_n=per_n, fitted_slope=slope, slope_stderr=slope_se,
                       rate_reference=rate_ref, relative_gap=gap)


@dataclass
class TwoSampleReport:
    """Per-entry two-sample KS comparison of two matrix samplers."""

    k: int
    m: int
    n: int
    dof: int
    entries: list = field(default_factory=list)  # (i, j, statistic, pvalue)

    @property
    def min_pvalue(self) -> float:
        return min(p for _, _, _, p in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "n": self.n,
            "dof": self.dof,
            "entries": [
                {"row": i, "col": j, "statistic": s, "pvalue": p}
                for i, j, s, p in self.entries
            ],
            "min_pvalue": self.min_pvalue,
        }


def run_dickey_check(rng: SeededRng, k: int, m: int, n: int, samples: int,
                     dof_offset: int = 0) -> TwoSampleReport:
    """Compare the k x m corner of a Haar frame in R^n against the
    Wishart-plus-Gaussian corner construction with N = n - m - k + 1.

    ``dof_offset`` shifts N; a nonzero offset is the negative control and
    should be detectable at moderate sample sizes.
    """
    if n < m + k:
        raise DomainError("need n >= m + k")
    dof = n - m - k + 1 + dof_offset
    if dof < 1:
        raise DomainError("degrees of freedom must be >= 1")
    # whole QR frames: stiefel_corner_batch is the Dickey construction itself
    corners = stiefel_batch(rng.child(0), k, n, samples)[:, :, :m]
    dickey = dickey_corner_batch(rng.child(1), k, m, dof, samples)
    entries = []
    for i in range(k):
        for j in range(m):
            stat, pval = ks_2samp(corners[:, i, j], dickey[:, i, j])
            entries.append((i, j, float(stat), float(pval)))
    return TwoSampleReport(k=k, m=m, n=n, dof=dof, entries=entries)


@dataclass
class GaussianFitReport:
    """Per-marginal KS comparison of projected samples against the limiting
    centered Gaussian."""

    k: int
    p: float
    n: int
    sigma_squared: float
    marginals: list = field(default_factory=list)  # (index, statistic, pvalue)

    @property
    def min_pvalue(self) -> float:
        return min(p for _, _, p in self.marginals)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "p": self.p if math.isfinite(self.p) else "inf",
            "n": self.n,
            "sigma_squared": self.sigma_squared,
            "marginals": [
                {"index": i, "statistic": s, "pvalue": p}
                for i, s, p in self.marginals
            ],
            "min_pvalue": self.min_pvalue,
        }


def run_clt_check(rng: SeededRng, k: int, p: float, n: int, samples: int) -> GaussianFitReport:
    """Project through one Haar frame and KS-test each marginal against the
    limiting N(0, sigma_p^2); the cube case p = inf projects the uniform
    product law with variance 1/3."""
    if n < k:
        raise DomainError("need n >= k")
    sigma2 = sigma_p_squared(p)
    v = stiefel_batch(rng.child(0), k, n, 1)[0]
    if math.isinf(p):
        cloud = project_product_batch(rng.child(1), v, PGaussianParams(p), samples)
    else:
        cloud = project_lp_ball_batch(rng.child(1), v, p, samples)
    scale = math.sqrt(sigma2)
    marginals = []
    for i in range(k):
        stat, pval = kstest(cloud.points[:, i], "norm", args=(0.0, scale))
        marginals.append((i, float(stat), float(pval)))
    return GaussianFitReport(k=k, p=p, n=n, sigma_squared=sigma2,
                             marginals=marginals)
