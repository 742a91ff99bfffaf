"""One workload in one process: set up, run the timed passes, check.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload exact --seed 1 --passes 4 \\
        --threads 2 --mode measure --t0 <time.monotonic() at spawn>

Modes:
  setup    set up and report the set-up time only;
  measure  an untimed first pass, timed passes in shuffled order, output
           checks, determinism digests;
  trace    one traced pass (the first in the process, so caches start cold),
           then untraced and traced passes in turn to measure the tracing
           overhead, then the ROADMAP baseline cases.

Every pass replays the same ops on the same inputs, so every execution of
an op must hash the same as its first; ops that take a ``threads`` argument
are also replayed with one thread after the passes and must hash the same.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import struct
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ldplab  # noqa: E402

if not os.path.abspath(ldplab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"ldplab imported from {ldplab.__file__}, not from this checkout")

from ldplab import rates, samplers, verify  # noqa: E402
from ldplab.linalg import ColumnList  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ digests


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, str, type(None))):
        h.update(repr(obj).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    elif isinstance(obj, complex):
        h.update(struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            if key != "build_id":
                _feed(h, key)
                _feed(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(result, error) -> str:
    h = hashlib.sha256()
    if error is not None:
        _feed(h, [type(error).__name__, str(error)])
    else:
        _feed(h, result)
    return h.hexdigest()


# ------------------------------------------------------------------- passes


def run_pass(wl, order, tracer=None):
    """Run the ops at the indices in ``order``; return (label -> (result,
    error) of the op's first execution, records) where a record is (label,
    wall seconds, cpu seconds, result, error) of one execution."""
    results, records = {}, []
    for index in order:
        op = wl.ops[index]
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = result = None
        try:
            if tracer is None:
                result = op.call(wl.threads)
            else:
                with tracer.span(op.name, op.attrs):
                    result = op.call(wl.threads)
        except Exception as exc:  # an op failure is a measured outcome
            error = exc
        t1 = time.perf_counter()
        records.append((op.label, t1 - t0, time.process_time() - c0, result, error))
        results.setdefault(op.label, (result, error))
    return results, records


def pass_orders(wl, passes: int, traced: bool) -> list:
    """(kind, order) of every pass.  The first pass runs every op once in
    list order: it is untimed in a measured run and the traced cold-cache
    pass in a traced run; its outputs are the ones checked.  A measured run
    then times ``passes`` passes, each executing every op ``op.repeat``
    times in a shuffled order that is fixed by the pass number, so the
    executions of the small ops fall at moments spread over the whole run.
    A traced run times ``passes`` pairs of untraced and traced passes in
    list order."""
    once = list(range(len(wl.ops)))
    if traced:
        return [("traced", once)] + [(kind, once) for _ in range(passes)
                                     for kind in ("untraced", "traced")]
    spread = np.array([i for i, op in enumerate(wl.ops) for _ in range(op.repeat)])
    return [("first", once)] + [
        ("untraced", np.random.default_rng(p).permutation(spread).tolist())
        for p in range(passes)]


def evaluate(op, result, error, results):
    """Failure message of one op outcome, or None."""
    if op.raises is not None:
        if isinstance(error, op.raises):
            return None
        got = "no exception" if error is None else f"{type(error).__name__}: {error}"
        return f"expected {op.raises.__name__}, got {got}"
    if error is not None:
        return f"{type(error).__name__}: {error}"
    if op.check is None:
        return None
    return op.check(result, {k: v[0] for k, v in results.items()})


def check_pass(wl, results):
    """Failures of the first pass as label -> message.  A statistical check
    that fails is repeated on independent streams and counts only if every
    repeat fails too."""
    failures, notes = {}, []
    for op in wl.ops:
        message = evaluate(op, *results[op.label], results)
        for j in range(1, workloads.REPLICATES + 1):
            if not message or op.replicate is None:
                break
            try:
                again = evaluate(op, op.replicate(j), None, results)
            except Exception as exc:
                again = f"{type(exc).__name__}: {exc}"
            notes.append(f"{op.label}: {message}; replicate {j}: {again or 'passed'}")
            message = again and f"{message}; replicate {j}: {again}"
        if message:
            failures[op.label] = message
    return failures, notes


# -------------------------------------------------------------- environment


def openblas_threads():
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "worker_count": verify.worker_count(threads),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- baselines


def _min_time(fn, repeats=3) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def baselines(name: str, seed: int, span_passes) -> dict:
    """The cases of the ROADMAP re-anchor table, min of 3 untraced runs."""
    out = {}
    if name == "corner_mc":
        gen = samplers.SeededRng(seed, 100).generator()
        t = _min_time(lambda: samplers.stiefel_corner_batch(gen, 1, 150, 1, 100_000))
        out["baseline.corner_k1_n150_s_per_1e6"] = 10.0 * t
    elif name == "exact":
        gen = np.random.default_rng([seed, 100])
        for level in (50, 200, 800):
            cols = gen.standard_normal((2, level))
            cl = ColumnList.from_columns(2, cols * (0.9 / np.linalg.norm(cols, 2)))
            out[f"baseline.rate_truncated_ms.L{level}"] = 1e3 * _min_time(
                lambda cl=cl: rates.rate_truncated(cl))
        with open(os.path.join(ROOT, workloads.CONFIG_PATH)) as fh:
            doc = json.load(fh)
        exp = verify.LdpExperiment(
            k=doc["k"], ell=doc["ell"], target=doc["target"], radius=doc["radius"],
            n_values=doc["n_values"], samples_per_n=doc["samples_per_n"],
            method=doc["method"])
        rng = samplers.SeededRng(doc["seed"])
        out["baseline.quadrature_slope_ms"] = 1e3 * _min_time(
            lambda: verify.run_ldp_corner(rng, exp))
    elif name == "projection":
        for k in (1, 2):
            durations = [s.duration for spans in span_passes for s in spans
                         if s.name == "projections.levy_prokhorov" and s.attrs["k"] == k]
            out[f"baseline.levy_prokhorov_s.k{k}"] = min(durations)
    return out


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--sizes", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--mode", default="measure", choices=["setup", "measure", "trace"])
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned this process")
    args = parser.parse_args(argv)

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.chdir(ROOT)
    try:
        wl = workloads.build(args.workload, args.seed, args.sizes, tmpdir, args.threads)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            out = {"setup_s": setup_s}
        else:
            out = measure(wl, args.passes, args.mode == "trace")
            out["setup_s"] = setup_s
            out["environment"] = environment(args.seed, args.threads)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(wl, passes: int, traced: bool) -> dict:
    tracer = tracing.Tracer() if traced else None
    walls, cpus, traced_walls, span_passes = [], [], [], []
    latencies = {op.label: [] for op in wl.ops}
    executions = {op.label: 0 for op in wl.ops}
    first = digests = None
    mismatches = []
    for i, (kind, order) in enumerate(pass_orders(wl, passes, traced)):
        with_trace = kind == "traced"
        if with_trace:
            tracer.install()
        try:
            results, records = run_pass(wl, order, tracer if with_trace else None)
        finally:
            if with_trace:
                tracer.uninstall()
        wall = sum(r[1] for r in records)
        if with_trace:
            span_passes.append(tracer.take())
            if i > 0:
                traced_walls.append(wall)
        elif kind == "untraced":
            walls.append(wall)
            cpus.append(sum(r[2] for r in records))
            for label, seconds, *_ in records:
                latencies[label].append(1e3 * seconds)
        if first is None:
            first = results
            digests = {label: digest(*results[label]) for label in results}
        else:
            mismatches += [f"{label}: output differs from the first pass (pass {i})"
                           for label, _, _, result, error in records
                           if digest(result, error) != digests[label]]
        for label, *_ in records:
            executions[label] += 1
        del results, records
    rss = peak_rss_mb()

    failures, notes = check_pass(wl, first)
    attempted = sum(executions.values())
    failed = sum(executions[label] for label in failures) + len(mismatches)
    defects = {op.label: op.defect for op in wl.ops if op.defect}
    unexpected = [f"{label}: {msg}" for label, msg in failures.items()
                  if label not in defects] + mismatches

    for op in wl.ops:
        if op.threaded:
            attempted += 1
            try:
                alone = digest(op.fn(threads=1), None)
            except Exception as exc:
                alone = digest(None, exc)
            if alone != digests[op.label]:
                failed += 1
                unexpected.append(f"{op.label}: output with threads=1 differs "
                                  f"from threads={wl.threads}")
    for op in wl.probes:
        attempted += 1
        try:
            result, error = op.call(wl.threads), None
        except Exception as exc:
            result, error = None, exc
        message = evaluate(op, result, error, {})
        if message:
            failed += 1
            failures[op.label] = message
            if op.defect:
                defects[op.label] = op.defect
            else:
                unexpected.append(f"{op.label}: {message}")

    out = {
        "passes": len(walls),
        "executions_per_pass": sum(op.repeat for op in wl.ops),
        "wall_s": walls,
        "cpu_s": cpus,
        "latencies_ms": list(latencies.values()),
        "ops_per_pass": len(wl.ops),
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "correct": not unexpected,
        "unexpected": unexpected,
        "known_defects": {label: {"message": failures[label],
                                  "defect": workloads.KNOWN_DEFECTS[defects[label]]}
                          for label in failures if label in defects},
        "notes": notes,
        "digest": hashlib.sha256("".join(digests[k] for k in sorted(digests))
                                 .encode()).hexdigest(),
        "draws_per_pass": wl.draws,
    }
    if traced:
        out["layers"] = layer_metrics(wl, first, span_passes[0])
        out["traced_wall_s"] = traced_walls
        out["baselines"] = baselines(wl.name, wl.seed, span_passes)
    return out


def layer_metrics(wl, first, spans) -> dict:
    ss = tracing.SpanSet(spans)
    if wl.name == "corner_mc":
        hits = samples = 0
        for op in wl.ops:
            result = first[op.label][0]
            if op.name in ("verify.run_ldp_corner", "verify.run_ldp_configuration") \
                    and result is not None:
                per_n_samples = op.draws // len(result.per_n)
                hits += sum(round(math.exp(lp) * per_n_samples) for _, lp, _ in result.per_n)
                samples += op.draws
        return tracing.corner_metrics(ss, hits, samples, verify.worker_count(wl.threads))
    if wl.name == "exact":
        return tracing.exact_metrics(ss)
    return tracing.projection_metrics(ss)


if __name__ == "__main__":
    sys.exit(main())
