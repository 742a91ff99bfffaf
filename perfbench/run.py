"""ldplab benchmark: three workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload {corner_mc,exact,projection} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ldplab is imported from its ``src``.  The
workloads are described in ``perfbench/README.md``.  Every workload runs in
a child process (``worker.py``) with BLAS pinned to one thread,
``LDPLAB_THREADS`` unset and ``threads=min(2, nproc)`` passed to the Monte
Carlo experiments.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a report with the environment, the failures, the determinism digest and,
with ``--trace 1``, the ROADMAP baseline cases.

``--trace 0`` prints the end-to-end metrics of the workload:
  setup_s      median over several processes of the time from process
               start to the first timed op (imports and input generation);
  wall_s       wall time of one pass of timed ops, averaged over the passes;
  cpu_s        process CPU time of one pass, averaged over the passes;
  peak_rss_mb  peak resident set size of the measuring process;
  op_p50_ms    median latency of one op (one public call of ldplab);
  op_tail_ms   latency at the highest percentile of PERCENTILES with at
               least ten op executions beyond it.
The latency of an op is the least of its execution times if it has at least
BEST_OF of them, else their median (see ``op_latency``); it counts once per
execution.
An untimed first pass runs every op of the workload once; each timed pass
runs every op ``repeat`` times (see workloads.py) in a shuffled order, on
the same inputs each time.
The number of passes is fixed by --seconds and the nominal pass time of the
workload, so the op count, and with it the tail percentile, does not move
when the program gets faster.

``--trace 1`` runs each of the three workloads traced (see tracing.py) and
prints every per-layer metric, whichever workload is named.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("corner_mc", "exact", "projection")
# wall time of one pass on the 2-CPU reference machine at the commit that
# defined the benchmark; sets the number of passes for --seconds
PASS_SECONDS = {"corner_mc": 5.5, "exact": 5.0, "projection": 5.5}
MIN_PASSES = 3
SETUP_PROBES = 3
TRACE_PAIRS = 1
CHILD_TIMEOUT = 170
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
BEST_OF = 8

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    **{f"samplers.stiefel_corner_batch.draws_per_s.k{k}_n{n}": "1/s"
       for k in (1, 2) for n in (250, 500, 1000, 2000)},
    "samplers.stiefel_batch.busy_s": "s",
    "samplers.dickey_corner_batch.busy_s": "s",
    "samplers.lp_ball_batch.busy_s": "s",
    "samplers.p_gaussian_batch.busy_s": "s",
    "verify.run_ldp_corner.self_s": "s",
    "verify.run_ldp_configuration.self_s": "s",
    "verify.configuration_hit_count.busy_s": "s",
    "verify.pool_busy_ratio": "ratio",
    "verify.hit_ratio": "ratio",
    "verify.draws_per_s": "1/s",
    "verify.min_rate_over_ball.busy_s": "s",
    "verify.quad.calls": "count",
    "densities.log_corner_density.calls": "count",
    "rates.rate_finite.calls": "count",
    "rates.rate_finite.us_per_call": "us",
    "rates.rate_truncated.busy_s.L50": "s",
    "rates.rate_truncated.busy_s.L200": "s",
    "rates.rate_truncated.busy_s.L800": "s",
    "rates.rate_orthogonal_truncated.busy_s": "s",
    "configurations.recover_from_power_sums.busy_s": "s",
    "configurations.least_squares.calls": "count",
    "configurations.least_squares.nfev": "count",
    "configurations.identify_equivalent.busy_s": "s",
    "configurations.screen_pass_ratio": "ratio",
    "linalg.log_det_complement.calls": "count",
    "linalg.signed_permutation_equal.busy_s": "s",
    "projections.levy_prokhorov.busy_s.k1": "s",
    "projections.levy_prokhorov.busy_s.k2": "s",
    "projections.compare_ball_vs_product.self_s": "s",
    "projections.quad.calls": "count",
    "projections.law_char_fn.cold_s": "s",
    "projections.characteristic_function.busy_s": "s",
    "projections.empirical_cf.busy_s": "s",
    "cli.main.self_s": "s",
    **{f"tracing.overhead_pct.{w}": "%" for w in WORKLOADS},
    "baseline.corner_k1_n150_s_per_1e6": "s",
    "baseline.rate_truncated_ms.L50": "ms",
    "baseline.rate_truncated_ms.L200": "ms",
    "baseline.rate_truncated_ms.L800": "ms",
    "baseline.quadrature_slope_ms": "ms",
    "baseline.levy_prokhorov_s.k1": "s",
    "baseline.levy_prokhorov_s.k2": "s",
}

# ROADMAP re-anchor figures (min of 3 runs, 1 process, 2-CPU machine)
ROADMAP_BASELINES = {
    "baseline.corner_k1_n150_s_per_1e6": 4.9,
    "baseline.rate_truncated_ms.L50": 2.2,
    "baseline.rate_truncated_ms.L200": 6.6,
    "baseline.rate_truncated_ms.L800": 27.0,
    "baseline.quadrature_slope_ms": 31.0,
    "baseline.levy_prokhorov_s.k1": 0.46,
    "baseline.levy_prokhorov_s.k2": 0.75,
    "projections.law_char_fn.cold_s": 0.30,
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100.0), 1) - 1]


def op_latency(runs) -> float:
    """Latency of one op from the times of its executions.

    The host runs this process at two speeds about 1.7x apart, switching
    every fraction of a second, and the share of slow time differs from run
    to run.  An op executed BEST_OF times or more, at moments spread over
    the run, is timed by its best execution, which does not follow that
    share.  An op executed fewer times is timed by the median: the best of a
    few executions is itself noisy, and these are the long ops, whose every
    execution averages over many switches."""
    return min(runs) if len(runs) >= BEST_OF else statistics.median(runs)


def tail_percentile(count: int) -> float:
    """Highest of PERCENTILES with at least ten of ``count`` values beyond
    its nearest rank."""
    fitting = [q for q in PERCENTILES if count - math.ceil(q * count / 100.0) >= 10]
    if not fitting:
        raise ValueError(f"{count} values leave fewer than ten beyond the median")
    return max(fitting)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LDPLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # git (ldplab's build id, the revision below) must not search above the
    # checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def run_child(workload: str, seed: int, mode: str, passes: int, threads: int,
              sizes: str) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--passes", str(passes), "--threads", str(threads),
         "--sizes", sizes, "--mode", mode, "--t0", repr(t0)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, threads: int):
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    setups = [run_child(args.workload, args.seed, "setup", 0, threads, args.sizes)["setup_s"]
              for _ in range(SETUP_PROBES)]
    out = run_child(args.workload, args.seed, "measure", passes, threads, args.sizes)
    setups.append(out["setup_s"])
    lat = [op_latency(runs) for runs in out["latencies_ms"] for _ in runs]
    q = tail_percentile(len(lat))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(out["wall_s"]),
        "cpu_s": statistics.fmean(out["cpu_s"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "op_p50_ms": percentile(lat, 50),
        "op_tail_ms": percentile(lat, q),
    }
    report = {
        "passes": out["passes"],
        "ops_per_pass": out["ops_per_pass"],
        "executions_per_pass": out["executions_per_pass"],
        "op_executions": len(lat),
        "tail_percentile": q,
        "setup_samples_s": setups,
        **{k: out[k] for k in ("unexpected", "known_defects", "notes", "digest",
                               "environment")},
    }
    if out["draws_per_pass"]:
        report["draws_per_s"] = out["draws_per_pass"] / metrics["wall_s"]
    return out, {k: metric(v, END_TO_END[k]) for k, v in metrics.items()}, report


def per_layer(args, threads: int):
    layers, reports = {}, {}
    attempted = failed = 0
    correct = True
    for w in WORKLOADS:
        out = run_child(w, args.seed, "trace", TRACE_PAIRS, threads, args.sizes)
        attempted += out["attempted"]
        failed += out["failed"]
        correct &= out["correct"]
        untraced = statistics.fmean(out["wall_s"])
        traced = statistics.fmean(out["traced_wall_s"])
        layers.update(out["layers"])
        layers.update(out["baselines"])
        layers[f"tracing.overhead_pct.{w}"] = 100.0 * (traced - untraced) / untraced
        if w == "corner_mc":
            layers["verify.draws_per_s"] = out["draws_per_pass"] / untraced
        reports[w] = {"tracing_overhead_s": traced - untraced,
                      **{k: out[k] for k in ("unexpected", "known_defects", "notes",
                                             "digest", "environment")}}
    gaps = {}
    for name, roadmap in ROADMAP_BASELINES.items():
        ratio = layers[name] / roadmap
        gaps[name] = {"measured": layers[name], "roadmap": roadmap, "ratio": ratio,
                      "gap_over_2x": not 0.5 <= ratio <= 2.0}
    summary = {"attempted": attempted, "failed": failed, "correct": correct}
    metrics = {k: metric(layers[k], PER_LAYER[k]) for k in PER_LAYER}
    return summary, metrics, {"workloads": reports, "roadmap_baselines": gaps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default="full", choices=("full", "smoke"),
                        help="'smoke' shrinks every input for the self-tests")
    args = parser.parse_args(argv)

    for needed in ("src/ldplab/__init__.py", "configs/ldp_k1_a03.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    threads = min(2, os.cpu_count() or 1)
    try:
        if args.trace:
            summary, metrics, report = per_layer(args, threads)
        else:
            out, metrics, report = end_to_end(args, threads)
            summary = {k: out[k] for k in ("attempted", "failed", "correct")}
        report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                      fail_ratio=summary["failed"] / summary["attempted"],
                      git_revision=git_revision())
        lines = [json.dumps({"report": report}),
                 json.dumps({**summary, "metrics": metrics}, allow_nan=False)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
