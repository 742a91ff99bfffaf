"""Rare-event experiments: estimate -(1/n) log P of deviation events for
Haar frames and compare the fitted decay slope against the log-determinant
rate functions, by Monte Carlo at moderate n and by exact quadrature in the
scalar case.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .configurations import PointConfiguration
from .densities import log_corner_density, sigma_p_squared
from .errors import DomainError, InfeasibleExperiment, NumericalFailure
from .linalg import (as_matrix, corner_dof, frame_dims, increasing_n_values, real_number,
                     whole_number)
from .projections import project_lp_ball_batch
from .rates import rate_configuration, rate_finite
from .samplers import (
    SeededRng,
    dickey_corner_batch,
    stiefel_batch,
    stiefel_corner_batch,
)

# elements per Monte Carlo batch; bounds the transient memory footprint
BATCH_ELEMENTS = 4_000_000


def worker_count(threads=None) -> int:
    """Worker threads: ``threads``, a whole number >= 1, or the CPU count
    when it is None."""
    if threads is not None:
        return whole_number(threads, "threads", 1)
    return max(1, os.cpu_count() or 1)


def _slope_n_values(values) -> list:
    """``n_values`` of a slope experiment: at least two, refused before any draw."""
    values = increasing_n_values(values, "n_values")
    if len(values) < 2:
        raise DomainError(f"n_values must hold at least two n to fit a slope, got {values}")
    return values


def json_float(x):
    """``x``, or "+inf" / "-inf" when it is an infinite float; NaN raises
    :class:`NumericalFailure`."""
    if math.isnan(x):
        raise NumericalFailure("result is NaN")
    return x if math.isfinite(x) else ("+inf" if x > 0 else "-inf")


def json_doc(x):
    """JSON data of a report: a dataclass or named tuple becomes a dict keyed
    by field name, dicts, lists and tuples are walked, and every float goes
    through :func:`json_float`; anything else passes through as it is."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    elif isinstance(x, tuple) and hasattr(x, "_asdict"):
        x = x._asdict()
    if isinstance(x, dict):
        return {key: json_doc(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_doc(value) for value in x]
    return json_float(x) if isinstance(x, float) else x


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
        self.k = whole_number(self.k, "k", 1)
        self.ell = whole_number(self.ell, "ell", 1)
        self.target = as_matrix(self.target, "target entries")
        if self.target.shape != (self.k, self.ell):
            raise DomainError("target shape must be (k, ell)")
        self.radius = real_number(self.radius, "radius", 0, strict=True, finite=True)
        self.n_values = _slope_n_values(self.n_values)
        if self.method not in ("montecarlo", "quadrature"):
            raise DomainError("method must be 'montecarlo' or 'quadrature'")
        if self.method == "quadrature" and (self.k != 1 or self.ell != 1):
            raise DomainError("quadrature requires k = ell = 1")
        self.samples_per_n = whole_number(self.samples_per_n, "samples_per_n", 1)
        corner_dof(self.k, self.ell, self.n_values[0])
        s_max = float(np.linalg.svd(self.target, compute_uv=False)[0])
        if s_max + self.radius >= 1.0:
            raise DomainError(
                "ball must stay inside the support: largest singular value "
                f"{s_max:.4g} plus radius reaches 1"
            )


class NEstimate(NamedTuple):
    """log P of the event at one n, with its standard error (0 by quadrature)."""

    n: int
    log_prob: float
    stderr: float


@dataclass
class SlopeReport:
    """Per-n log-probabilities with the fitted decay slope and its target."""

    per_n: list  # of NEstimate
    fitted_slope: float
    slope_stderr: float
    rate_reference: float
    relative_gap: float


def _secular_point(s, cap, mu: float) -> np.ndarray:
    """Per entry, the root x in [0, cap) of x - mu (s - x)(1 - x^2) = 0,
    i.e. x / (1 - x^2) = mu (s - x), by Newton steps kept inside a bracket.

    The cubic rises from -mu s at 0 to a positive value at cap = min(s, 1)
    with slope at least 1, so the root is unique; mu s / (1 + mu) bounds it
    from above because x / (1 - x^2) >= x.
    """
    lo = np.zeros_like(s)
    hi = np.minimum(cap, mu * s / (1.0 + mu))
    x = hi.copy()
    for _ in range(100):
        h = x - mu * (s - x) * (1.0 - x * x)
        step = h / (1.0 + mu * (1.0 - x * x) + 2.0 * mu * x * (s - x))
        moving = np.abs(step) > 1e-15
        if not moving.any():
            break
        lo = np.where(h < 0.0, x, lo)
        hi = np.where(h > 0.0, x, hi)
        new = x - step
        # bisect the entries whose step leaves the bracket; converged entries
        # take their last sub-tolerance step
        x = np.where(((new <= lo) | (new >= hi)) & moving, 0.5 * (lo + hi), new)
    return x


def min_rate_over_ball(target, radius: float) -> float:
    """Minimum of the finite-block rate over the closed Frobenius ball.

    Any block within Frobenius distance r of the target has singular values
    within l2 distance r of the target's singular values s, and conversely,
    so the minimum is that of sum_i -1/2 log(1 - x_i^2) over x >= 0 with
    ||x - s|| <= r.  At r = 0 it is the rate at the target; for r > 0 it is
    0 when ||s|| <= r, and +inf when ||(s - 1)_+|| >= r, since then every
    block of the ball has operator norm >= 1.  A
    target of rank <= 1 (every 1 x 1, 1 x l and k x 1 target) has the
    closed form rate([[s_1 - r]]).

    Otherwise the objective is convex and separable, and the minimum sits on
    the sphere ||x - s|| = r where, for a multiplier mu > 0, each x_i solves
    the KKT equation x_i / (1 - x_i^2) = mu (s_i - x_i) (a secular equation,
    as in the trust-region step of More & Sorensen 1983).  Each root grows
    with mu, so ||s - x(mu)|| falls from ||s|| to ||(s - 1)_+||, and one
    bracketed solve on log mu sets it to r.  The bracket: at mu = 1 - r/||s||
    every x_i <= mu s_i, so the distance is still >= r; at the largest mu
    that puts every x_i at or above min(s_i, 1) - g, with g = (r -
    ||(s - 1)_+||) / sqrt(len(s)), the distance is <= r.  Both ends are
    widened by a factor 2 to keep their signs clear of roundoff.
    """
    radius = real_number(radius, "radius", 0)
    if radius == 0.0:  # the ball is the target itself
        return rate_finite(target)
    s = np.linalg.svd(as_matrix(target), compute_uv=False)
    if np.linalg.norm(s) <= radius:
        return 0.0
    cap = np.minimum(s, 1.0)
    over = float(np.linalg.norm(s - cap))
    if over >= radius:
        return math.inf
    if not np.any(s[1:]):
        return rate_finite([[float(s[0]) - radius]])

    y = cap - (radius - over) / math.sqrt(s.size)
    mu_lo = 0.5 * (1.0 - radius / float(np.linalg.norm(s)))
    mu_hi = 2.0 * max(
        float(np.max(np.maximum(y, 0.0) / ((1.0 - y * y) * (s - y)))), mu_lo)

    def excess(log_mu):
        x = _secular_point(s, cap, math.exp(log_mu))
        return float(np.linalg.norm(s - x)) - radius

    log_mu = brentq(excess, math.log(mu_lo), math.log(mu_hi))
    return rate_finite(np.diag(_secular_point(s, cap, math.exp(log_mu))))


def _log_corner_ball_prob(n: int, a: float, radius: float) -> float:
    """log P[|scalar corner - a| < r] for a Haar row in R^n, by adaptive
    quadrature in log space of the corner density, which is proportional to
    (1 - x^2)^((n - 3)/2), scaled by its value at the peak."""
    lo = max(a - radius, -1.0)
    hi = min(a + radius, 1.0)
    if lo >= hi:
        return float("-inf")
    peak = min(max(0.0, lo), hi)
    m = log_corner_density(np.array([[peak]]), 1, 1, n)
    power = (n - 3) / 2.0
    log_peak = math.log1p(-peak * peak)
    val, _ = quad(lambda x: math.exp(power * (math.log1p(-x * x) - log_peak)),
                  lo, hi, limit=200, epsabs=1e-13, epsrel=1e-11)
    return m + math.log(val)


def _slope_report(per_n, rate_ref: float) -> SlopeReport:
    """Weighted least-squares slope of -log P against n, compared with the
    reference rate."""
    ns, ys, ses = np.array(per_n, dtype=np.float64).T
    weights = 1.0 / ses**2 if np.all(ses > 0) else np.ones_like(ns)
    w_sum = np.sum(weights)
    n_bar = np.sum(weights * ns) / w_sum
    y_bar = np.sum(weights * ys) / w_sum
    var_n = np.sum(weights * (ns - n_bar) ** 2)
    slope = -float(np.sum(weights * (ns - n_bar) * (ys - y_bar)) / var_n)
    slope_se = math.sqrt(1.0 / var_n) if np.all(ses > 0) else 0.0
    gap = abs(slope - rate_ref) / rate_ref if rate_ref > 0 else abs(slope)
    return SlopeReport(per_n=per_n, fitted_slope=slope, slope_stderr=slope_se,
                       rate_reference=rate_ref, relative_gap=gap)


def _monte_carlo_slope(rng: SeededRng, k: int, n_values, samples: int,
                       rate_ref: float, hits, threads) -> SlopeReport:
    """Estimate log P at each n from ``hits(gen, size, n)``, the number of
    hits among ``size`` k x n draws from ``gen``, and fit the slope.

    Batch b at the i-th n draws from ``rng.child(i, b)`` and holds at most
    ``BATCH_ELEMENTS / (n k)`` draws.  The batches of every n go to one pool
    of ``worker_count(threads)`` threads, largest first, so no n waits for
    the last batch of the one before; each n's counts are summed in batch
    order, so the estimate does not depend on the thread count.  Refuses
    runs whose expected hit count at the largest n is below 10, and then the
    first n with zero hits.
    """
    n_max = max(n_values)
    if rate_ref * n_max > math.log(samples / 10.0):
        raise InfeasibleExperiment(
            f"expected hit count below 10 at n={n_max}: "
            f"rate {rate_ref:.4g} * n exceeds log(samples/10)"
        )
    batches = []  # per n, its (n, size, stream key) jobs in batch order
    for idx, n in enumerate(n_values):
        per_batch = max(1, BATCH_ELEMENTS // (n * k))
        batches.append([(n, min(per_batch, samples - start), (idx, batch))
                        for batch, start in enumerate(range(0, samples, per_batch))])

    def one(job):
        n, size, key = job
        return hits(rng.child(*key), size, n)

    largest_first = sorted((job for jobs in batches for job in jobs),
                           key=lambda job: job[0] * job[1], reverse=True)
    with ThreadPoolExecutor(max_workers=worker_count(threads)) as pool:
        futures = {job: pool.submit(one, job) for job in largest_first}
    counts = [sum(futures[job].result() for job in jobs) for jobs in batches]
    per_n = []
    for n, count in zip(n_values, counts):
        if count == 0:
            raise InfeasibleExperiment(
                f"zero hits out of {samples} samples at n={n}"
            )
        p = count / samples
        per_n.append(NEstimate(n, math.log(p), math.sqrt((1.0 - p) / count)))
    return _slope_report(per_n, rate_ref)


def run_ldp_corner(rng: SeededRng, exp: LdpExperiment, threads=None) -> SlopeReport:
    """Estimate P[corner block of a Haar frame lands in the target ball]
    for each n and fit the decay slope against the ball-infimum rate."""
    threads = worker_count(threads)
    rate_ref = min_rate_over_ball(exp.target, exp.radius)
    if exp.method == "quadrature":
        a = float(exp.target[0, 0])
        per_n = [NEstimate(n, _log_corner_ball_prob(n, a, exp.radius), 0.0)
                 for n in exp.n_values]
        return _slope_report(per_n, rate_ref)

    target = exp.target
    r2 = exp.radius**2

    def hits(gen, size, n):
        corners = stiefel_corner_batch(gen, exp.k, n, exp.ell, size)
        dist2 = np.sum((corners - target) ** 2, axis=(1, 2))
        return int(np.sum(dist2 < r2))

    return _monte_carlo_slope(rng, exp.k, exp.n_values, exp.samples_per_n,
                              rate_ref, hits, threads)


def _check_atom_balls(atoms, r: float, rho: float) -> None:
    """Refuse atom balls that reach into the norm-r ball or overlap."""
    for point, _ in atoms:
        norm = float(np.linalg.norm(point))
        if norm - rho <= r:
            raise DomainError("atom balls must stay outside the norm-r ball")
    signed = [s * p for p, _ in atoms for s in (1.0, -1.0)]
    for i in range(len(signed)):
        for j in range(i + 1, len(signed)):
            if np.linalg.norm(signed[i] - signed[j]) <= 2 * rho:
                raise DomainError("atom balls must be pairwise disjoint")


def configuration_hit_count(frames: np.ndarray, atoms, r: float, rho: float) -> int:
    """Count frames whose column configuration matches the target: each atom
    pair collects exactly its multiplicity of columns within rho, and no
    column outside the atom balls has norm above r.

    ``frames`` has shape (batch, k, n); ``atoms`` is a list of
    (representative point, multiplicity) pairs.  The atom balls must lie
    outside the norm-r ball and be pairwise disjoint, so a frame hits exactly
    when it has as many columns of norm above r as the total multiplicity
    and each ball holds its multiplicity; only frames with that count get
    the ball tests.
    """
    _check_atom_balls(atoms, r, rho)
    norms2 = np.sum(frames**2, axis=1)
    budget = np.sum(norms2 > r**2, axis=1) == sum(mult for _, mult in atoms)
    frames, norms2 = frames[budget], norms2[budget]
    ok = np.ones(frames.shape[0], dtype=bool)
    rho2 = rho**2
    for point, mult in atoms:
        proj = np.einsum("i,bin->bn", point, frames)
        base = norms2 + float(point @ point)
        ball = (base - 2.0 * proj < rho2) | (base + 2.0 * proj < rho2)
        ok &= np.sum(ball, axis=1) == mult
    return int(np.sum(ok))


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
    k = whole_number(k, "k", 1)
    if target.dim != k:
        raise DomainError("target dimension does not match k")
    n_values = _slope_n_values(n_values)
    frame_dims(k, n_values[0])
    samples_per_n = whole_number(samples_per_n, "samples_per_n", 1)
    r = real_number(r, "r", 0, strict=True, finite=True)
    rho = real_number(rho, "rho", 0, strict=True, finite=True)
    _check_atom_balls(target.atoms, r, rho)

    rate_ref = rate_configuration(target)
    # the lower bound is the same at every n and the upper one grows with n
    low, high = _configuration_event_bounds(target, r, rho, n_values[0])
    if not (low <= k <= high):
        raise InfeasibleExperiment(
            f"event has probability zero at n={n_values[0]}: column mass must be "
            f"{k} but the event constrains it to [{low:.4g}, {high:.4g}]"
        )

    def hits(gen, size, n):
        return configuration_hit_count(stiefel_batch(gen, k, n, size), target.atoms,
                                       r, rho)

    return _monte_carlo_slope(rng, k, n_values, samples_per_n, rate_ref, hits,
                              threads)


class EntryTest(NamedTuple):
    """Two-sample KS test of one matrix entry."""

    row: int
    col: int
    statistic: float
    pvalue: float


@dataclass
class TwoSampleReport:
    """Per-entry two-sample KS comparison of two matrix samplers."""

    k: int
    m: int
    n: int
    dof: int
    entries: list = field(default_factory=list)  # of EntryTest

    @property
    def min_pvalue(self) -> float:
        return min(test.pvalue for test in self.entries)


def run_dickey_check(rng: SeededRng, k: int, m: int, n: int, samples: int,
                     dof_offset: int = 0) -> TwoSampleReport:
    """Compare the k x m corner of a Haar frame in R^n against the
    Wishart-plus-Gaussian corner construction with N = n - m - k + 1.

    ``dof_offset``, a whole number >= 1 - N, shifts N; a nonzero offset is
    the negative control and should be detectable at moderate sample sizes.
    """
    # imported on first use, so that importing ldplab leaves scipy.stats unloaded
    from scipy.stats import ks_2samp

    m, n = whole_number(m, "m", 1), whole_number(n, "n", 1)
    k, m, dof = corner_dof(k, m, n)
    dof += whole_number(dof_offset, "dof_offset", 1 - dof)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        # whole QR frames (stiefel_corner_batch is the Dickey construction
        # itself), drawn on a worker while this thread draws the corners
        frames = pool.submit(stiefel_batch, rng.child(0), k, n, samples)
        dickey = dickey_corner_batch(rng.child(1), k, m, dof, samples)
        corners = frames.result()

        def entry(cell):
            i, j = cell
            stat, pval = ks_2samp(corners[:, i, j], dickey[:, i, j])
            return EntryTest(i, j, float(stat), float(pval))

        entries = list(pool.map(entry, [(i, j) for i in range(k) for j in range(m)]))
    return TwoSampleReport(k=k, m=m, n=n, dof=dof, entries=entries)


class MarginalTest(NamedTuple):
    """KS test of one projected marginal against the limiting Gaussian."""

    index: int
    statistic: float
    pvalue: float


@dataclass
class GaussianFitReport:
    """Per-marginal KS comparison of projected samples against the limiting
    centered Gaussian."""

    k: int
    p: float
    n: int
    sigma_squared: float
    marginals: list = field(default_factory=list)  # of MarginalTest

    @property
    def min_pvalue(self) -> float:
        return min(test.pvalue for test in self.marginals)


def run_clt_check(rng: SeededRng, k: int, p: float, n: int, samples: int) -> GaussianFitReport:
    """Project through one Haar frame and KS-test each marginal against the
    limiting N(0, sigma_p^2); in the cube case p = inf the ball is [-1, 1]^n
    and sigma^2 = 1/3."""
    # imported on first use, so that importing ldplab leaves scipy.stats unloaded
    from scipy.stats import kstest

    k, n = whole_number(k, "k", 1), whole_number(n, "n", 1)
    sigma2 = sigma_p_squared(p)
    v = stiefel_batch(rng.child(0), k, n, 1)[0]
    cloud = project_lp_ball_batch(rng.child(1), v, p, samples)
    scale = math.sqrt(sigma2)
    marginals = []
    for i in range(k):
        stat, pval = kstest(cloud.points[:, i], "norm", args=(0.0, scale))
        marginals.append(MarginalTest(i, float(stat), float(pval)))
    return GaussianFitReport(k=k, p=p, n=n, sigma_squared=sigma2,
                             marginals=marginals)
