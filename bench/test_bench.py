"""Tests of the benchmark itself, on scaled-down copies of its workloads.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import arccount  # noqa: E402
import arccount.counter  # noqa: E402
from arccount.learned import pair_stab_counts, tree_objective  # noqa: E402

import harness  # noqa: E402
from hooks import Hook, Tracer, installed  # noqa: E402

SMALL = {
    "near-d8": replace(harness.WORKLOADS["near-d8"], n=96, m=1024),
    "worstcase-d2": replace(harness.WORKLOADS["worstcase-d2"], n=40),
}
COUNTS = (
    "counter.count.visited_mean",
    "stabber.classify.calls_per_query",
    "spantree.find_light_edge.calls",
    "learned.tree_objective",
)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    out = {}
    for name, w in SMALL.items():
        root = tmp_path_factory.mktemp(name)
        out[name] = (harness.run_traced(w, 5, 0.0, root), harness.run_traced(w, 5, 0.0, root))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_repeats_every_count(traced_twice, name):
    a, b = traced_twice[name]
    assert a.checked.failed == 0 and b.checked.failed == 0, a.checked.reasons + b.checked.reasons
    assert a.checked.answers == b.checked.answers
    assert set(a.metrics) == set(b.metrics)
    for metric, (value, unit) in a.metrics.items():
        if unit == "count":
            assert b.metrics[metric][0] == value, metric
    for metric in COUNTS:
        assert metric in a.metrics


def test_counts_show_which_layers_work(traced_twice):
    near = traced_twice["near-d8"][0].metrics
    worst = traced_twice["worstcase-d2"][0].metrics
    assert near["learned.tree_objective"][0] > 0
    assert near["spantree.find_light_edge.calls"][0] == 0
    assert worst["learned.tree_objective"][0] == 0
    assert worst["spantree.find_light_edge.calls"][0] > 0
    assert worst["spantree.max_universe_stabbing"][0] > 0
    for m in (near, worst):
        assert m["counter.count.visited_mean"][0] == m["oracle.visiting_mean"][0]


def test_different_seed_changes_inputs():
    for w in SMALL.values():
        a, b = harness.make_inputs(w, 1), harness.make_inputs(w, 2)
        assert not np.array_equal(a.points.points, b.points.points)
        assert not np.array_equal(a.points.weights, b.points.weights)
        assert not np.array_equal(a.pool, b.pool)
        if w.m:
            assert not np.array_equal(a.train, b.train)
        again = harness.make_inputs(w, 1)
        assert np.array_equal(a.points.points, again.points.points)
        assert np.array_equal(a.pool, again.pool)


@pytest.mark.parametrize("name", ["near-d8", "worstcase-d2"])
def test_traced_run_answers_like_untraced_run(traced_twice, tmp_path, name):
    plain = harness.run_end_to_end(SMALL[name], 5, 0.0, tmp_path)
    assert plain.checked.failed == 0, plain.checked.reasons
    passes = len(plain.samples["pass_wall_p50_ms"])
    assert passes >= harness.MIN_PASSES
    assert plain.checked.attempted == (passes + 1) * harness.TIMED_QUERIES
    assert len(plain.samples["load_wall_s"]) == passes * harness.LOADS_PER_PASS
    assert len(plain.samples["setup_wall_s"]) == harness.BUILDS
    assert plain.checked.answers == traced_twice[name][0].checked.answers
    assert set(plain.metrics) == {
        "setup_s",
        "build_peak_rss_mb",
        "load_s",
        "query_p50_ms",
        "query_p95_ms",
        "query_qps",
    }


def test_clock_scales_each_call_and_restores_affinity():
    cpus = os.sched_getaffinity(0)
    clock = harness.Clock()
    out = clock.series(lambda x: 2 * x, [(1,), (2,), (3,)])
    assert [result for _, result in out] == [2, 4, 6]
    assert all(scale > 0 for scale, _ in out)
    assert len(clock.kernel) == 4  # before the first call and after each
    assert os.sched_getaffinity(0) == cpus


def test_tree_counts_match_the_library():
    w = SMALL["near-d8"]
    inputs = harness.make_inputs(w, 3)
    idx = arccount.build_counting_index(inputs.points, harness.build_config(inputs, 3))
    counts = pair_stab_counts(
        inputs.points, arccount.QuerySample(inputs.train, "t"), arccount.EpsParams(harness.WORKING_EPS)
    )
    edges = idx.spanning_tree.edges
    ours = harness.stabs_per_query(inputs.train, inputs.points.points, edges, harness.WORKING_EPS)
    assert int(ours.sum()) == tree_objective(counts, idx.spanning_tree)

    w = SMALL["worstcase-d2"]
    inputs = harness.make_inputs(w, 3)
    tracer = Tracer()
    hook = Hook("arccount.counter", "generate_grid_queries", "grid", keep_result=True)
    with installed(tracer, [hook]):
        idx = arccount.build_counting_index(inputs.points, harness.build_config(inputs, 3))
    universe = tracer.results["grid"]
    ours = harness.stabs_per_query(universe.support, inputs.points.points, idx.spanning_tree.edges, harness.WORKING_EPS)
    assert np.array_equal(ours, universe.stab_exponents)


def test_missing_hook_reads_zero_and_hooks_are_removed():
    original = arccount.counter.classify
    tracer = Tracer()
    hooks = [
        Hook("arccount.counter", "no_such_function", "gone"),
        Hook("arccount.no_such_module", "classify", "gone_module"),
        Hook("arccount.counter", "classify", "stabber.classify"),
    ]
    with installed(tracer, hooks):
        assert arccount.counter.classify is not original
    assert arccount.counter.classify is original
    assert tracer.calls["gone"] == 0 and tracer.seconds["gone"] == 0.0


def test_gate_fails_wrong_and_raising_answers(tmp_path):
    w = SMALL["worstcase-d2"]
    inputs = harness.make_inputs(w, 4)
    idx = arccount.build_counting_index(inputs.points, harness.build_config(inputs, 4))
    loop = harness.query_loop(idx, inputs.pool, np.repeat(np.arange(6), 2))
    assert harness.check_answers([loop], inputs).failed == 0
    loop.answers[1] = replace(loop.answers[1], weight=loop.answers[1].weight + 1e3)
    loop.answers[3] = replace(loop.answers[3], visited_nodes=loop.answers[3].visited_nodes + 1)
    loop.answers[5] = None
    checked = harness.check_answers([loop], inputs)
    assert (checked.attempted, checked.failed) == (12, 3)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "near-d8", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_match_benchmark_json(traced_twice, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = harness.run_end_to_end(SMALL["near-d8"], 6, 0.0, tmp_path)
    traced = traced_twice["near-d8"][0].metrics
    assert [m["name"] for m in spec["end_to_end"]] == list(plain.metrics)
    assert {m["name"] for m in spec["per_layer"]} == set(traced)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**plain.metrics, **traced}.items():
        assert units[name] == unit, name
