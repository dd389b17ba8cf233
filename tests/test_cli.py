"""Command line pipeline: gen, gen-queries, build, query, eval, oracle."""

from __future__ import annotations

import json

import numpy as np
import pytest

from arccount.cli import run_cli
from arccount.io import read_points, read_query_sample


def gen_data(tmp_path, n=50, d=3, kind="uniform", extra=()):
    data = tmp_path / "data.txt"
    rc = run_cli(
        ["gen", "--kind", kind, "--n", str(n), "--d", str(d), "--seed", "7", "--out", str(data)]
        + list(extra)
    )
    assert rc == 0
    return data


def build_model(tmp_path, data, extra=()):
    model = tmp_path / "model.json"
    rc = run_cli(
        [
            "build",
            "--data",
            str(data),
            "--eps",
            "0.5",
            "--mode",
            "learned",
            "--m-queries",
            "200",
            "--seed",
            "11",
            "--out-model",
            str(model),
        ]
        + list(extra)
    )
    assert rc == 0
    return model


class TestGen:
    def test_uniform_shape(self, tmp_path):
        data = gen_data(tmp_path, n=40, d=5)
        pts = read_points(data)
        assert len(pts) == 40 and pts.dim == 5
        assert np.all(pts.weights == 1.0)

    def test_random_weights(self, tmp_path):
        data = gen_data(tmp_path, extra=["--random-weights"])
        pts = read_points(data)
        assert pts.weights.min() >= 0.1 and pts.weights.max() <= 2.0
        assert len(np.unique(pts.weights)) > 1

    def test_grid_kind(self, tmp_path):
        data = gen_data(tmp_path, n=9, d=2, kind="grid", extra=["--spacing", "2.0"])
        pts = read_points(data)
        assert len(pts) == 9
        assert set(np.unique(pts.points)) <= {0.0, 2.0, 4.0}

    def test_clusters_kind(self, tmp_path):
        data = gen_data(tmp_path, n=60, d=2, kind="clusters", extra=["--k-clusters", "3"])
        assert len(read_points(data)) == 60

    def test_binary_output(self, tmp_path):
        data = tmp_path / "data.bin"
        rc = run_cli(
            ["gen", "--kind", "uniform", "--n", "8", "--d", "2", "--seed", "1", "--out", str(data), "--binary"]
        )
        assert rc == 0
        assert open(data, "rb").read(4) == b"ARC1"


class TestGenQueries:
    def test_near_data(self, tmp_path):
        data = gen_data(tmp_path)
        out = tmp_path / "qs.txt"
        rc = run_cli(
            ["gen-queries", "--kind", "near-data", "--m", "30", "--data", str(data), "--out", str(out)]
        )
        assert rc == 0
        assert len(read_query_sample(out)) == 30

    def test_uniform_needs_data_for_the_box(self, tmp_path):
        data = gen_data(tmp_path)
        out = tmp_path / "qs.txt"
        rc = run_cli(
            ["gen-queries", "--kind", "uniform", "--m", "25", "--data", str(data), "--out", str(out)]
        )
        assert rc == 0
        qs = read_query_sample(out)
        pts = read_points(data)
        assert qs.queries.min() >= pts.points.min() - 1.5 - 1e-9

    def test_file_passthrough(self, tmp_path):
        data = gen_data(tmp_path)
        out = tmp_path / "qs.txt"
        rc = run_cli(["gen-queries", "--kind", "file", "--data", str(data), "--out", str(out)])
        assert rc == 0
        np.testing.assert_array_equal(read_query_sample(out).queries, read_points(data).points)

    def test_file_kind_requires_data(self, tmp_path):
        rc = run_cli(["gen-queries", "--kind", "file", "--out", str(tmp_path / "q.txt")])
        assert rc == 3


class TestBuildQueryEval:
    def test_full_pipeline(self, tmp_path, capsys):
        data = gen_data(tmp_path, n=50, d=3, extra=["--random-weights"])
        model = build_model(tmp_path, data)

        rc = run_cli(["query", "--model", str(model), "--data", str(data), "--q", "2.0,2.0,2.0"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"weight", "visited_nodes", "verdict_counts"}

        rc = run_cli(
            ["oracle", "--data", str(data), "--q", "2.0 2.0 2.0", "--eps", "0.5"]
        )
        assert rc == 0
        oracle = json.loads(capsys.readouterr().out)
        assert oracle["weight_inner"] - 1e-9 <= doc["weight"] <= oracle["weight_outer"] + 1e-9

    def test_query_verify_adds_ranges(self, tmp_path, capsys):
        data = gen_data(tmp_path, n=30, d=2)
        model = build_model(tmp_path, data)
        rc = run_cli(
            ["query", "--model", str(model), "--data", str(data), "--q", "1,1", "--verify"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "member_ranges" in doc

    def test_worstcase_mode(self, tmp_path, capsys):
        data = gen_data(tmp_path, n=12, d=2)
        model = tmp_path / "model.json"
        rc = run_cli(
            [
                "build", "--data", str(data), "--eps", "0.5", "--mode", "worstcase",
                "--seed", "3", "--out-model", str(model),
            ]
        )
        assert rc == 0
        rc = run_cli(["query", "--model", str(model), "--data", str(data), "--q", "1,1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["weight"] >= 0.0

    def test_eval_report(self, tmp_path):
        data = gen_data(tmp_path, n=40, d=3)
        model = build_model(tmp_path, data)
        qs = tmp_path / "holdout.txt"
        assert run_cli(
            ["gen-queries", "--kind", "near-data", "--m", "25", "--seed", "99",
             "--data", str(data), "--out", str(qs)]
        ) == 0
        report = tmp_path / "report.json"
        rc = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--queries", str(qs),
             "--out-report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        for key in (
            "n", "d", "eps", "tree_source", "mean_visiting", "mean_tq",
            "sandwich_pass_rate", "holdout_overlaps_training",
            "load_seconds", "query_microseconds_p50", "query_microseconds_p90",
        ):
            assert key in doc
        assert doc["tree_source"] == "learned"
        assert doc["sandwich_pass_rate"] == 1.0
        assert not doc["holdout_overlaps_training"]


class TestExitCodes:
    def test_malformed_data_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        rc = run_cli(
            ["build", "--data", str(bad), "--eps", "0.5", "--mode", "learned",
             "--seed", "1", "--out-model", str(tmp_path / "m.json")]
        )
        assert rc == 2

    def test_contract_violation_is_exit_three(self, tmp_path):
        data = gen_data(tmp_path, n=6, d=9)
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.5", "--mode", "worstcase",
             "--seed", "1", "--out-model", str(tmp_path / "m.json")]
        )
        assert rc == 3

    def test_bad_eps_is_exit_three(self, tmp_path):
        data = gen_data(tmp_path, n=10, d=2)
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.0", "--mode", "learned",
             "--seed", "1", "--out-model", str(tmp_path / "m.json")]
        )
        assert rc == 3
