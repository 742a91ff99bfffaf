"""Self-tests of the benchmark: the percentile rule, the self-time
arithmetic, metric names, span parent links, and a smoke run of each
workload.

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("count, expected", [
    (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
    (999, 95), (1000, 99), (1999, 99), (2000, 99.5), (10_000, 99.9),
])
def test_tail_percentile_leaves_ten_beyond(count, expected):
    q = run.tail_percentile(count)
    assert q == expected
    values = list(range(count))
    beyond = sum(v > run.percentile(values, q) for v in values)
    assert beyond >= 10
    higher = [p for p in run.PERCENTILES if p > q]
    if higher:
        assert sum(v > run.percentile(values, higher[0]) for v in values) < 10


def test_tail_percentile_needs_twenty_values():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_op_latency_is_best_of_many_else_median():
    assert run.op_latency([4.0, 1.0, 3.0, 2.0]) == 2.5
    many = [float(v) for v in range(run.BEST_OF, 0, -1)]
    assert run.op_latency(many) == 1.0


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 80) == 4.0
    assert run.percentile(values, 81) == 5.0
    assert run.percentile(values, 0) == 1.0


def test_pass_orders_spread_repeats():
    import worker
    import workloads

    ops = [workloads.Op(label=f"op{i}", name="x", fn=None, repeat=r)
           for i, r in enumerate((1, 3, 2))]
    wl = workloads.Workload("w", 0, 1, ops)
    orders = worker.pass_orders(wl, 2, traced=False)
    assert orders[0] == ("first", [0, 1, 2])
    for kind, order in orders[1:]:
        assert kind == "untraced"
        assert sorted(order) == [0, 1, 1, 1, 2, 2]
    # the shuffle is fixed by the pass number, not by the seed
    assert worker.pass_orders(wl, 2, traced=False) == orders
    traced = worker.pass_orders(wl, 1, traced=True)
    assert [kind for kind, _ in traced] == ["traced", "untraced", "traced"]
    assert all(order == [0, 1, 2] for _, order in traced)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) \
        == pytest.approx(0.5)
    # clipped to the parent interval; nested intervals count once
    assert tracing.covered_length([(-1.0, 0.2), (0.1, 0.15), (0.9, 2.0)], 0.0, 1.0) \
        == pytest.approx(0.3)


def _span(i, parent, start, end, name="x"):
    return tracing.Span(i, parent, name, {}, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        # two parallel children overlapping on [2, 3]: union [1, 4]
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 4.0),
        _span(4, 1, 6.0, 7.0),
        # a grandchild does not reduce the root's self time twice
        _span(5, 2, 1.5, 2.5),
    ]
    self_time = tracing.self_times(spans)
    assert self_time[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time[2] == pytest.approx(2.0 - 1.0)
    assert self_time[3] == pytest.approx(2.0)
    assert self_time[5] == pytest.approx(1.0)


def test_worker_thread_span_links_to_open_main_span():
    tracer = tracing.Tracer()
    with tracer.span("experiment") as experiment:
        def work():
            with tracer.span("sampler"):
                with tracer.span("inner"):
                    pass

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    spans = {s.name: s for s in tracer.take()}
    assert spans["sampler"].parent == experiment.id
    assert spans["inner"].parent == spans["sampler"].id
    assert spans["experiment"].parent is None


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units():
    doc = _benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in doc["end_to_end"]) for m in doc["end_to_end"])


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3", "--seconds", "1",
         "--sizes", "smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    report, result = _run("--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["environment"]["blas_threads"] in (1, None)
    assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    # the same seed reproduces every output
    again, _ = _run("--workload", workload, "--trace", "0")
    assert again["digest"] == report["digest"]


def test_smoke_traced_run():
    report, result = _run("--workload", "exact", "--trace", "1")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert set(report["roadmap_baselines"]) == set(run.ROADMAP_BASELINES)
    # tracing must not change any output
    assert not any(w["unexpected"] and "differs" in " ".join(w["unexpected"])
                   for w in report["workloads"].values())


def test_refuses_a_tree_without_the_program():
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tree = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tree, capture_output=True, text=True, timeout=60,
                              check=False)
    finally:
        shutil.rmtree(tree)
    assert proc.returncode != 0
    assert proc.stdout == ""
