"""Spans around ldplab's layers, recorded from outside the package.

``Tracer.install()`` replaces functions at the sites where one ldplab module
imports them from another (``ldplab.verify.stiefel_corner_batch``,
``ldplab.rates.rate_finite``, ``ldplab.configurations.least_squares``, ...)
with wrappers that record a span per call; ``uninstall()`` restores them.
Spans carry a parent link.  A span opened on a worker thread with no open
span of its own takes the innermost open span of the main thread as its
parent, which is the Monte Carlo experiment that submitted the work.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics of a workload.
"""

from __future__ import annotations

import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LADDER = (250, 500, 1000, 2000)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _shape_attrs(k_at, n_at, count_at):
    return lambda a, kw: {"k": a[k_at], "n": a[n_at], "count": a[count_at]}


# (module, attribute, span name, attributes from the arguments, attributes
# from the result)
PATCHES = [
    ("ldplab.verify", "stiefel_corner_batch", "samplers.stiefel_corner_batch",
     _shape_attrs(1, 2, 4), None),
    ("ldplab.verify", "stiefel_batch", "samplers.stiefel_batch",
     _shape_attrs(1, 2, 3), None),
    ("ldplab.verify", "dickey_corner_batch", "samplers.dickey_corner_batch", None, None),
    ("ldplab.verify", "configuration_hit_count", "verify.configuration_hit_count",
     lambda a, kw: {"count": a[0].shape[0]}, lambda r: {"hits": r}),
    ("ldplab.verify", "min_rate_over_ball", "verify.min_rate_over_ball", None, None),
    ("ldplab.verify", "rate_finite", "rates.rate_finite", None, None),
    ("ldplab.verify", "quad", "verify.quad", None, None),
    ("ldplab.verify", "log_corner_density", "densities.log_corner_density", None, None),
    ("ldplab.rates", "rate_finite", "rates.rate_finite", None, None),
    ("ldplab.rates", "log_det_complement", "linalg.log_det_complement", None, None),
    ("ldplab.densities", "log_det_complement", "linalg.log_det_complement", None, None),
    ("ldplab.configurations", "least_squares", "configurations.least_squares",
     None, lambda r: {"nfev": int(r.nfev)}),
    ("ldplab.configurations", "signed_permutation_equal",
     "linalg.signed_permutation_equal", None, None),
    ("ldplab.cli", "run_ldp_corner", "verify.run_ldp_corner", None, None),
    ("ldplab.projections", "levy_prokhorov", "projections.levy_prokhorov",
     lambda a, kw: {"k": a[0].dim}, None),
    ("ldplab.projections", "lp_ball_batch", "samplers.lp_ball_batch", None, None),
    ("ldplab.projections", "p_gaussian_batch", "samplers.p_gaussian_batch", None, None),
    ("ldplab.projections", "stiefel_batch", "samplers.stiefel_batch",
     _shape_attrs(1, 2, 3), None),
    ("ldplab.projections", "quad", "projections.quad", None, None),
]


class Tracer:
    """Thread-safe span recorder; spans stay in memory until read."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._open: dict = {}
        self._main = threading.get_ident()
        self._saved: list = []
        self.spans: list = []

    @contextmanager
    def span(self, name: str, attrs=None):
        tid = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(tid, [])
            if stack:
                parent = stack[-1].id
            else:
                main = self._open.get(self._main)
                parent = main[-1].id if main else None
            sp = Span(next(self._ids), parent, name, dict(attrs or {}))
            stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            with self._lock:
                stack.pop()
                self.spans.append(sp)

    def take(self) -> list:
        with self._lock:
            out, self.spans = self.spans, []
        return out

    def _wrap(self, fn, name, attrs_of, result_attrs):
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else None
            with self.span(name, attrs) as sp:
                result = fn(*args, **kwargs)
                if result_attrs:
                    sp.attrs.update(result_attrs(result))
                return result
        return traced

    def install(self):
        for module_name, attr, name, attrs_of, result_attrs in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_of, result_attrs))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children on parallel worker threads overlap; their union counts once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in spans}


class SpanSet:
    """Queries over the spans of one traced pass."""

    def __init__(self, spans):
        self.spans = spans
        self.self_time = self_times(spans)
        self.child_names = defaultdict(set)
        for s in spans:
            if s.parent is not None:
                self.child_names[s.parent].add(s.name)

    def named(self, name, **attrs):
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def busy(self, name, **attrs) -> float:
        return sum(s.duration for s in self.named(name, **attrs))

    def self_s(self, name) -> float:
        return sum(self.self_time[s.id] for s in self.named(name))

    def calls(self, name) -> int:
        return len(self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def corner_metrics(ss: SpanSet, hits: int, samples: int, workers: int) -> dict:
    m = {}
    for k in (1, 2):
        for n in LADDER:
            spans = ss.named("samplers.stiefel_corner_batch", k=k, n=n)
            m[f"samplers.stiefel_corner_batch.draws_per_s.k{k}_n{n}"] = _ratio(
                sum(s.attrs["count"] for s in spans), sum(s.duration for s in spans))
    m["samplers.stiefel_batch.busy_s"] = ss.busy("samplers.stiefel_batch")
    m["samplers.dickey_corner_batch.busy_s"] = ss.busy("samplers.dickey_corner_batch")
    m["verify.run_ldp_corner.self_s"] = ss.self_s("verify.run_ldp_corner")
    m["verify.run_ldp_configuration.self_s"] = ss.self_s("verify.run_ldp_configuration")
    m["verify.configuration_hit_count.busy_s"] = ss.busy("verify.configuration_hit_count")
    experiments = (ss.named("verify.run_ldp_corner")
               + ss.named("verify.run_ldp_configuration"))
    experiment_ids = {s.id for s in experiments}
    pool_busy = sum(s.duration for s in ss.spans if s.parent in experiment_ids
                    and s.name in ("samplers.stiefel_corner_batch",
                                   "samplers.stiefel_batch",
                                   "verify.configuration_hit_count"))
    m["verify.pool_busy_ratio"] = _ratio(
        pool_busy, workers * sum(s.duration for s in experiments))
    m["verify.hit_ratio"] = _ratio(hits, samples)
    return m


def exact_metrics(ss: SpanSet) -> dict:
    m = {
        "verify.min_rate_over_ball.busy_s": ss.busy("verify.min_rate_over_ball"),
        "verify.quad.calls": ss.calls("verify.quad"),
        "densities.log_corner_density.calls": ss.calls("densities.log_corner_density"),
        "rates.rate_finite.calls": ss.calls("rates.rate_finite"),
        "rates.rate_finite.us_per_call": 1e6 * _ratio(
            ss.busy("rates.rate_finite"), ss.calls("rates.rate_finite")),
    }
    for level in (50, 200, 800):
        m[f"rates.rate_truncated.busy_s.L{level}"] = ss.busy("rates.rate_truncated", L=level)
    m["rates.rate_orthogonal_truncated.busy_s"] = ss.busy("rates.rate_orthogonal_truncated")
    m["configurations.recover_from_power_sums.busy_s"] = ss.busy(
        "configurations.recover_from_power_sums")
    m["configurations.least_squares.calls"] = ss.calls("configurations.least_squares")
    m["configurations.least_squares.nfev"] = sum(
        s.attrs.get("nfev", 0) for s in ss.named("configurations.least_squares"))
    identify = ss.named("configurations.identify_equivalent")
    m["configurations.identify_equivalent.busy_s"] = sum(s.duration for s in identify)
    m["configurations.screen_pass_ratio"] = _ratio(
        sum("linalg.signed_permutation_equal" in ss.child_names[s.id] for s in identify),
        len(identify))
    m["linalg.log_det_complement.calls"] = ss.calls("linalg.log_det_complement")
    m["linalg.signed_permutation_equal.busy_s"] = ss.busy("linalg.signed_permutation_equal")
    m["cli.main.self_s"] = ss.self_s("cli.main")
    return m


def projection_metrics(ss: SpanSet) -> dict:
    cf = ss.named("projections.characteristic_function")
    return {
        "samplers.lp_ball_batch.busy_s": ss.busy("samplers.lp_ball_batch"),
        "samplers.p_gaussian_batch.busy_s": ss.busy("samplers.p_gaussian_batch"),
        "projections.levy_prokhorov.busy_s.k1": ss.busy("projections.levy_prokhorov", k=1),
        "projections.levy_prokhorov.busy_s.k2": ss.busy("projections.levy_prokhorov", k=2),
        "projections.compare_ball_vs_product.self_s": ss.self_s(
            "projections.compare_ball_vs_product"),
        "projections.quad.calls": ss.calls("projections.quad"),
        # the evaluations that built the interpolation grid of a p-Gaussian CF
        "projections.law_char_fn.cold_s": sum(
            s.duration for s in cf if "projections.quad" in ss.child_names[s.id]),
        "projections.characteristic_function.busy_s": sum(s.duration for s in cf),
        "projections.empirical_cf.busy_s": ss.busy("projections.empirical_cf"),
    }
