"""Experiment scripts: each runs end to end on a small input."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "scripts" / "answer_digests.txt"


def run_script(script: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("worstcase_pipeline.py", ["--n", "12", "--queries", "5", "--seed", "1"]),
        ("learned_vs_random.py", ["--instances", "3", "--n", "16", "--d", "3", "--seed", "7", "--out", "{out}"]),
        ("answer_digest.py", ["--workloads", "worstcase-d2", "--seeds", "1", "--expect", str(DIGESTS)]),
        ("worstcase_pipeline.py", ["--d", "4", "--eps", "0.9", "--n", "12", "--queries", "5", "--seed", "1"]),
    ],
)
def test_script_exits_cleanly(tmp_path, script, args):
    proc = run_script(script, [a.format(out=tmp_path / "summary.json") for a in args])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("queries", ["0", "-3"])
def test_worstcase_pipeline_refuses_no_queries_before_it_builds(queries):
    proc = run_script("worstcase_pipeline.py", ["--n", "12", "--queries", queries, "--seed", "1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--queries must be at least 1" in proc.stderr and "Traceback" not in proc.stderr


def test_answer_digest_exits_1_on_a_digest_that_differs_from_the_expected_one(tmp_path):
    expected = DIGESTS.read_text().splitlines()
    line = next(line for line in expected if line.startswith("worstcase-d2 seed 1 "))
    wrong = line[:-1] + ("0" if line[-1] != "0" else "1")
    digests = tmp_path / "digests.txt"
    digests.write_text("\n".join([wrong if x == line else x for x in expected]) + "\n")
    proc = run_script("answer_digest.py", ["--workloads", "worstcase-d2", "--seeds", "1", "--expect", str(digests)])
    assert proc.returncode == 1 and proc.stdout == line + "\n"
    assert f"worstcase-d2 seed 1: {digests} holds {wrong.rsplit(' ', 1)[1]}" in proc.stderr


@pytest.mark.parametrize("workload", ["near-d8", "worstcase-d2"])
def test_build_cost_prints_one_line_per_n(workload):
    proc = run_script("build_cost.py", ["--workload", workload, "--n", "24", "40", "--seed", "2"])
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(row["workload"], row["n"], row["seed"]) for row in rows] == [(workload, 24, 2), (workload, 40, 2)]
    for row in rows:
        assert row["build_s"] > 0 and row["peak_rss_mb"] >= row["rss_before_mb"] > 0
        assert row["import_s"] > 0 and row["rss_before_mb"] >= row["rss_import_mb"] > 0
        assert len(row["leaf_order_sha256"]) == 64
        assert ("universe_size" in row) == (workload == "worstcase-d2")
        assert row.get("universe_size", 1) > 0
        # the learned build's layers, timed apart from it
        layers = {"stab_counts_s", "spanning_tree_s"} & set(row)
        assert len(layers) == (2 if workload == "near-d8" else 0)
        assert all(row[k] > 0 for k in layers | {"tree_shape_ms"})
        # before a telemetry read the loaded index holds no node array: its
        # points, weights, half norms and leaf order, 8 bytes a value
        assert row["loaded_index_mib"] == pytest.approx(8 * row["n"] * (row["d"] + 3) / 2**20, abs=1e-3)
        # the model is its header, 8-byte aligned, then the n rows of d
        # coordinates and a weight as float64 and the leaf order as int32
        header = row["model_bytes"] - 8 * row["n"] * (row["d"] + 1) - 4 * row["n"]
        assert 0 < header < 1024 and header % 8 == 0 and row["load_ms"] > 0


def test_query_layers_prints_one_line_per_workload_and_seed():
    proc = run_script("query_layers.py", ["--workloads", "worstcase-d2", "--seeds", "1", "2", "--passes", "1"])
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(row["workload"], row["seed"]) for row in rows] == [("worstcase-d2", 1), ("worstcase-d2", 2)]
    for row in rows:
        phases = ("check", "masks", "walk", "count", "telemetry", "verify", "eval", "einsum_scan", "gemv_scan")
        assert all(row[f"{phase}_us"] > 0 for phase in phases)
        assert row["count_over_gemv"] == pytest.approx(row["count_us"] / row["gemv_scan_us"], rel=0.01)
        assert 0 <= row["band_queries"] <= row["queries"]


def test_bench_record_appends_one_line_with_every_end_to_end_metric(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_record.py", ["--workload", "worstcase-d2", "--seed", "1", "--seconds", "0.5", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert len(names) == 6 and set(names) <= set(row["metrics"])
    assert all(row["metrics"][name]["value"] > 0 for name in names)
    assert (row["seed"], row["seconds"], row["env"]["workload"]) == (1, 0.5, "worstcase-d2")
    assert row["correct"] and row["failed"] == 0 and row["attempted"] > 0
    assert "commit" in row and "dirty" in row


def test_build_ab_of_this_tree_against_itself_prints_equal_hashes():
    proc = run_script("build_ab.py", ["--parent", str(ROOT / "src"), "--n", "24", "--pairs", "2"])
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (row["workload"], row["n"], row["pairs"]) == ("worstcase-d2", 24, 2)
    assert 0 <= row["change_won"] <= 2 and row["ratio"] > 0
    for side in ("parent", "change"):
        assert 0 < row[side]["q1_s"] <= row[side]["median_s"] <= row[side]["q3_s"]
    assert row["parent_leaf_order_sha256"] == row["change_leaf_order_sha256"]
    assert len(row["change_leaf_order_sha256"]) == 1 and len(row["change_leaf_order_sha256"][0]) == 64
    assert row["parent_edges_sha256"] == row["change_edges_sha256"]
    assert len(row["change_edges_sha256"]) == 1 and len(row["change_edges_sha256"][0]) == 64


def test_build_ab_build_phase_exits_1_when_only_the_edges_differ(tmp_path):
    # the other side's tree lists the same edges in reverse: the same tree
    # and leaf order, built in another order
    shutil.copytree(ROOT / "src" / "arccount", tmp_path / "arccount", ignore=shutil.ignore_patterns("__pycache__"))
    spantree = tmp_path / "arccount" / "spantree.py"
    text = spantree.read_text()
    assert text.count("return SpanningTree(n=n, edges=edges)") == 1
    spantree.write_text(text.replace("return SpanningTree(n=n, edges=edges)", "return SpanningTree(n=n, edges=edges[::-1])"))
    proc = run_script("build_ab.py", ["--parent", str(tmp_path), "--n", "24", "--pairs", "1"])
    assert proc.returncode == 1, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert row["parent_leaf_order_sha256"] == row["change_leaf_order_sha256"]
    assert row["parent_edges_sha256"] != row["change_edges_sha256"]


def test_build_ab_load_phase_of_this_tree_against_itself_prints_equal_hashes():
    argv = ["--parent", str(ROOT / "src"), "--workload", "near-d8", "--n", "32", "--pairs", "3", "--phase", "load"]
    proc = run_script("build_ab.py", argv)
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (row["workload"], row["n"], row["pairs"], row["phase"]) == ("near-d8", 32, 3, "load")
    assert 0 <= row["change_won"] <= 3 and row["ratio"] > 0
    for side in ("parent", "change"):
        assert 0 < row[side]["q1_s"] <= row[side]["median_s"] <= row[side]["q3_s"]
    assert row["parent_model_bytes"] == row["change_model_bytes"] > 32 * 9 * 8 + 4 * 32
    assert row["parent_leaf_order_sha256"] == row["change_leaf_order_sha256"]
    assert len(row["change_leaf_order_sha256"]) == 1 and len(row["change_leaf_order_sha256"][0]) == 64


def test_build_ab_query_phase_of_this_tree_against_itself_prints_equal_weight_hashes():
    argv = ["--parent", str(ROOT / "src"), "--workload", "near-d8", "--n", "32", "--pairs", "3", "--phase", "query"]
    proc = run_script("build_ab.py", argv)
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (row["workload"], row["n"], row["pairs"], row["phase"]) == ("near-d8", 32, 3, "query")
    assert 0 <= row["change_won"] <= 3 and row["ratio"] > 0
    for side in ("parent", "change"):
        assert 0 < row[side]["q1_us"] <= row[side]["median_us"] <= row[side]["q3_us"]
    assert row["parent_weights_sha256"] == row["change_weights_sha256"]
    assert len(row["change_weights_sha256"]) == 1 and len(row["change_weights_sha256"][0]) == 64


@pytest.mark.parametrize("phase, hashed", [("verify", "answers"), ("eval", "rows")])
def test_build_ab_audit_phases_of_this_tree_against_itself_print_equal_hashes(phase, hashed):
    argv = ["--parent", str(ROOT / "src"), "--workload", "worstcase-d2", "--n", "32", "--pairs", "3", "--phase", phase]
    proc = run_script("build_ab.py", argv)
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (row["workload"], row["n"], row["pairs"], row["phase"]) == ("worstcase-d2", 32, 3, phase)
    assert 0 <= row["change_won"] <= 3 and row["ratio"] > 0
    for side in ("parent", "change"):
        assert 0 < row[side]["q1_us"] <= row[side]["median_us"] <= row[side]["q3_us"]
    assert row[f"parent_{hashed}_sha256"] == row[f"change_{hashed}_sha256"]
    assert len(row[f"change_{hashed}_sha256"]) == 1 and len(row[f"change_{hashed}_sha256"][0]) == 64


def test_build_ab_eval_phase_exits_1_when_the_report_rows_differ(tmp_path):
    # the other side's audit reports one more point in every ambiguity zone
    shutil.copytree(ROOT / "src" / "arccount", tmp_path / "arccount", ignore=shutil.ignore_patterns("__pycache__"))
    counter = tmp_path / "arccount" / "counter.py"
    text = counter.read_text()
    assert text.count('"t_q": t_q,') == 1
    counter.write_text(text.replace('"t_q": t_q,', '"t_q": t_q + 1,'))
    argv = ["--parent", str(tmp_path), "--workload", "worstcase-d2", "--n", "32", "--pairs", "1", "--phase", "eval"]
    proc = run_script("build_ab.py", argv)
    assert proc.returncode == 1, proc.stderr
    (row,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert row["parent_rows_sha256"] != row["change_rows_sha256"]
