"""Command line pipeline: gen, gen-queries, build, query, eval, oracle."""

from __future__ import annotations

import dataclasses
import json
import struct
import time
import warnings
from typing import Callable

import numpy as np
import pytest

from arccount import cli, counter, io
from arccount.cli import run_cli
from arccount.core import WeightedPointSet
from arccount.io import read_points, read_query_sample, write_points, write_query_sample
from arccount.learned import QuerySample
from arccount.oracle import exact_visiting_oracle
from conftest import MODEL_MAGIC, ModelFile


def gen_data(tmp_path, n=50, d=3, kind="uniform", extra=()):
    data = tmp_path / "data.txt"
    rc = run_cli(
        ["gen", "--kind", kind, "--n", str(n), "--d", str(d), "--seed", "7", "--out", str(data)]
        + list(extra)
    )
    assert rc == 0
    return data


def build_model(tmp_path, data, extra=()):
    model = tmp_path / "model.arc"
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

    def test_grid_kind_in_high_dimension(self, tmp_path):
        # side 2, so row k is the 60 binary digits of k; the 2**60-point
        # lattice the rows come first in was once built whole and failed
        data = gen_data(tmp_path, n=10, d=60, kind="grid", extra=["--spacing", "0.5"])
        pts = read_points(data)
        expect = [[0.5 * int(c) for c in format(k, "060b")] for k in range(10)]
        assert pts.points.tolist() == expect

    @pytest.mark.parametrize("d", range(1, 9))
    def test_grid_side_is_the_least_integer_root(self, d):
        # every exact power s**d up to the generator's 2**26 values (for
        # d = 1, where the float root is n itself, s up to 2**16 and 2**26):
        # the float root of 3125 at d = 5 rounds up past 5
        top = 2**16 if d == 1 else 2**26
        s = 1
        while s**d <= top:
            assert cli._grid_side(s**d, d) == s
            assert cli._grid_side(s**d + 1, d) == s + 1
            s += 1
        assert cli._grid_side(2**26, 1) == 2**26

    def test_grid_of_an_exact_power_is_the_whole_lattice(self, tmp_path):
        data = gen_data(tmp_path, n=3125, d=5, kind="grid")
        pts = read_points(data)
        assert pts.points.max() == 4.0
        assert len(np.unique(pts.points, axis=0)) == 3125

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

    def test_one_point_file_builds_and_answers(self, tmp_path, capsys):
        data = gen_data(tmp_path, n=1, d=2, extra=["--random-weights"])
        model = tmp_path / "model.arc"
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.5", "--mode", "learned", "--seed", "1",
             "--out-model", str(model)]
        )
        assert rc == 0
        point = ",".join(repr(float(c)) for c in read_points(data).points[0])
        for q in (point, "50,50"):
            capsys.readouterr()
            assert run_cli(["query", "--model", str(model), "--data", str(data), "--q", q]) == 0
            weight = json.loads(capsys.readouterr().out)["weight"]
            assert run_cli(["oracle", "--data", str(data), "--q", q, "--eps", "0.5"]) == 0
            assert weight == json.loads(capsys.readouterr().out)["weight_inner"]

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
        model = tmp_path / "model.arc"
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

    def test_lattice_eval_reports_the_exact_visiting_number(self, tmp_path, capsys):
        # the README's lattice run: each query's neighbours lie at exactly
        # r = 1, and every per-query visiting number is the oracle's on the
        # closed balls at eps/2
        data, qs, model, report = (tmp_path / f for f in ("grid.txt", "q.txt", "grid.arc", "r.json"))
        for argv in (
            ["gen", "--kind", "grid", "--n", "64", "--d", "2", "--spacing", "1.0", "--seed", "31", "--out", data],
            ["gen-queries", "--kind", "file", "--data", data, "--out", qs],
            ["build", "--data", data, "--eps", "0.5", "--mode", "worstcase", "--seed", "33", "--out-model", model],
            ["query", "--model", model, "--data", data, "--q", "3,3", "--verify"],
            ["eval", "--model", model, "--data", data, "--queries", qs, "--out-report", report, "--per-query"],
        ):
            assert run_cli([str(a) for a in argv]) == 0
        assert json.loads(capsys.readouterr().out)["weight"] == 5.0
        doc = json.loads(report.read_text())
        idx = io.load_model(model, data)
        pts = idx.points()
        oracle = [exact_visiting_oracle(idx.tree.order, pts, q, idx.config.working) for q in read_query_sample(qs).queries]
        assert [row["visiting"] for row in doc["per_query"]] == oracle
        assert doc["mean_visiting"] == 26.5 and doc["sandwich_pass_rate"] == 1.0

    def test_eval_of_a_loaded_model_leaves_the_overlap_unknown(self, tmp_path):
        # a model file keeps no training sample, so the overlap cannot be
        # told; a holdout row at the origin must not read as a training row
        data = gen_data(tmp_path, n=30, d=3)
        model = build_model(tmp_path, data)
        qs = tmp_path / "holdout.txt"
        write_query_sample(qs, QuerySample(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), source="t"))
        report = tmp_path / "report.json"
        rc = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--queries", str(qs),
             "--out-report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["holdout_overlaps_training"] is None
        assert doc["sandwich_pass_rate"] == 1.0

    def test_learned_build_at_a_huge_radius_answers_every_weight(self, tmp_path, capsys):
        # the largest radii admitted keep their squares normal, and every
        # point lies in every ball; past them the build is refused (see
        # BAD_OPTION_VALUES)
        data = gen_data(tmp_path, n=30, d=3, extra=["--random-weights"])
        model = build_model(tmp_path, data, extra=["--radius", "1e150"])
        total = float(read_points(data).weights.sum())
        capsys.readouterr()
        rc = run_cli(["query", "--model", str(model), "--data", str(data), "--q", "1,1,1", "--verify"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["weight"] == pytest.approx(total)
        qs = tmp_path / "holdout.txt"
        assert run_cli(
            ["gen-queries", "--kind", "near-data", "--m", "10", "--seed", "99",
             "--data", str(data), "--out", str(qs)]
        ) == 0
        report = tmp_path / "report.json"
        rc = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--queries", str(qs),
             "--out-report", str(report)]
        )
        assert rc == 0
        assert json.loads(report.read_text())["sandwich_pass_rate"] == 1.0

    def test_eval_exits_four_when_an_answer_leaves_the_sandwich(self, tmp_path, capsys, monkeypatch):
        # the holdout is the data points; for the first one both masks of the
        # verified pass lose the query's own point, so the walk's member
        # ranges agree with the weight and only the audit, whose inner ball
        # contains that point, can catch the fault
        data = gen_data(tmp_path, n=30, d=3)
        model = build_model(tmp_path, data)
        qs = tmp_path / "holdout.txt"
        assert run_cli(["gen-queries", "--kind", "file", "--data", str(data), "--out", str(qs)]) == 0
        real_within = counter._within
        dropped = []

        def dropping_within(ops, qw, norm, thresholds):
            masks = real_within(ops, qw, norm, thresholds)
            if len(thresholds) == 2 and not dropped:
                k = int(np.flatnonzero((ops.path_points == qw).all(axis=1))[0])
                assert all(mask[k] for mask in masks)
                for mask in masks:
                    mask[k] = False
                dropped.append(k)
            return masks

        monkeypatch.setattr(counter, "_within", dropping_within)
        report = tmp_path / "report.json"
        capsys.readouterr()
        rc = run_cli(
            ["eval", "--model", str(model), "--data", str(data), "--queries", str(qs),
             "--out-report", str(report)]
        )
        err = capsys.readouterr().err
        assert rc == 4 and dropped
        assert err.startswith("error: ") and "sandwich_pass_rate" in err and "Traceback" not in err
        assert json.loads(report.read_text())["sandwich_pass_rate"] == 29 / 30


def _head(edit: Callable[[dict], object]) -> Callable[[ModelFile], bytes]:
    """A model file whose JSON header ``edit`` changed."""

    def mutate(m: ModelFile) -> bytes:
        edit(m.head)
        return m.to_bytes()

    return mutate


def _order(edit: Callable[[np.ndarray], object], sealed: bool = True) -> Callable[[ModelFile], bytes]:
    """A model file whose leaf order ``edit`` changed in place, under its own digest when ``sealed``."""

    def mutate(m: ModelFile) -> bytes:
        order = np.frombuffer(m.order, "<i4").copy()
        edit(order)
        m = dataclasses.replace(m, order=order.tobytes())
        return (m.sealed() if sealed else m).to_bytes()

    return mutate


def _swap_two(order: np.ndarray) -> None:
    order[[0, -1]] = order[[-1, 0]]


def _flip_one_byte(m: ModelFile) -> bytes:
    points = bytearray(m.points)
    points[13] ^= 0x01
    return dataclasses.replace(m, points=bytes(points)).to_bytes()


def _nan_with_its_digest(m: ModelFile) -> bytes:
    points = np.frombuffer(m.points, "<f8").copy()
    points[5] = np.nan
    return dataclasses.replace(m, points=points.tobytes()).sealed().to_bytes()


def _header_length(delta: int) -> Callable[[ModelFile], bytes]:
    """A model file whose u32 header length is ``delta`` off."""

    def mutate(m: ModelFile) -> bytes:
        blob = m.to_bytes()
        at = len(MODEL_MAGIC)
        return blob[:at] + struct.pack("<I", struct.unpack_from("<I", blob, at)[0] + delta) + blob[at + 4 :]

    return mutate


# hand edits that leave a model file malformed: missing fields, wrong types,
# a leaf order that is not a permutation of the points, stored points that
# do not match their digest or the declared n and d, and files cut short,
# grown or with a header that is not a JSON object
MALFORMED_MODELS = {
    "no-radius": _head(lambda h: h["config"].pop("radius")),
    "no-order": lambda m: dataclasses.replace(m, order=b"").to_bytes(),
    "no-digest": _head(lambda h: h.pop("data_digest")),
    "no-source-kind": _head(lambda h: h["config"]["tree_source"].pop("kind")),
    "no-seed-path": _head(lambda h: h["config"].pop("seed_path")),
    "no-points": lambda m: dataclasses.replace(m, points=b"").to_bytes(),
    "no-weights": lambda m: dataclasses.replace(m, weights=b"").to_bytes(),
    "no-points-digest": _head(lambda h: h.pop("points_digest")),
    "order-as-int64": lambda m: dataclasses.replace(
        m, order=np.frombuffer(m.order, "<i4").astype("<i8").tobytes()
    ).to_bytes(),
    "string-eps": _head(lambda h: h["config"].update(eps="0.5")),
    "list-config": _head(lambda h: h.update(config=[])),
    "order-not-a-permutation": _order(lambda o: np.put(o, 0, o[1])),
    "order-too-large-an-integer": _order(lambda o: np.put(o, 0, 2**31 - 1)),
    "order-negative": _order(lambda o: np.put(o, 0, -1)),
    # still a permutation: only the digest, which covers the order, catches it
    "order-two-swapped": _order(_swap_two, sealed=False),
    # a NaN row whose digest is its own: only the finiteness check catches it
    "points-nan-with-its-digest": _nan_with_its_digest,
    "points-truncated": lambda m: dataclasses.replace(m, points=m.points[:-8]).to_bytes(),
    # the same length: only the points digest catches it
    "points-one-byte-flipped": _flip_one_byte,
    "points-digest-wrong": _head(lambda h: h.update(points_digest="sha256:" + "0" * 64)),
    "n-off-by-one": _head(lambda h: h.update(n=h["n"] - 1)),
    "d-off-by-one": _head(lambda h: h.update(d=h["d"] + 1)),
    # right type, value out of range
    "eps-5": _head(lambda h: h["config"].update(eps=5)),
    # in range, but its half, the working error, underflows to 0
    "eps-halves-to-zero": _head(lambda h: h["config"].update(eps=5e-324)),
    "radius-negative": _head(lambda h: h["config"].update(radius=-1)),
    "radius-square-overflows": _head(lambda h: h["config"].update(radius=1e200)),
    "radius-square-underflows": _head(lambda h: h["config"].update(radius=1e-170)),
    "source-kind-unknown": _head(lambda h: h["config"].update(tree_source={"kind": "split"})),
    # the bytes around the header and the arrays
    "truncated-in-magic": lambda m: m.to_bytes()[:7],
    "truncated-in-header-length": lambda m: m.to_bytes()[: len(MODEL_MAGIC) + 2],
    "truncated-in-header": lambda m: m.to_bytes()[:40],
    "truncated-in-rows": lambda m: m.to_bytes()[: -len(m.order) - 12],
    "truncated-in-points": lambda m: m.to_bytes()[: -len(m.order) - len(m.weights) - 12],
    "truncated-in-order": lambda m: m.to_bytes()[:-2],
    "trailing-bytes": lambda m: m.to_bytes() + bytes(8),
    "header-length-past-the-end": _header_length(1 << 20),
    "header-length-short": _header_length(-8),
    "header-not-json": lambda m: dataclasses.replace(m, head=b"{not json").to_bytes(),
    "header-not-utf8": lambda m: dataclasses.replace(m, head=b'{"n": "\xff"}').to_bytes(),
    "header-not-an-object": lambda m: dataclasses.replace(m, head=b"[1, 2, 3]").to_bytes(),
    "header-nested-too-deep": lambda m: dataclasses.replace(m, head=b"[" * 100_000).to_bytes(),
    "json-nested-too-deep": lambda m: b"[" * 100_000,
}


def _without_points(doc: dict) -> None:
    del doc["points"], doc["points_digest"]


# each older JSON format's own fields: v1-v3 wrote these fields beyond v4's,
# at values their builds used, v4 and v5 carried no points, and early v6
# writers stored the tree source's grid side
OLD_FORMAT_FIELDS = {
    "arc-model v1": lambda doc: doc["config"].update(
        classifier_repetitions=None, beta_scale=1.0, jl_enabled=None, jl_target_dim=None,
        snap_queries=False, grid_side=None,
    ),
    "arc-model v2": lambda doc: doc["config"].update(
        jl_enabled=True, jl_target_dim=2, snap_queries=False, grid_side=None
    ),
    "arc-model v3": lambda doc: doc["config"].update(snap_queries=True, grid_side=0.05),
    "arc-model v4": _without_points,
    "arc-model v5": _without_points,
    "arc-model v6": lambda doc: doc["config"]["tree_source"].update(grid_side=None),
}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    data = gen_data(tmp, n=20, d=3)
    return build_model(tmp, data), data


def point_argv(command: str, saved: tuple, text: str) -> list[str]:
    """``query`` or ``oracle`` of the query point ``text`` against a saved model and its data."""
    model, data = saved
    if command == "query":
        return ["query", "--model", str(model), "--data", str(data), "--q", text]
    return ["oracle", "--data", str(data), "--q", text, "--eps", "0.5"]


GEN = "gen --kind clusters --n 8 --d 2 --seed 1 --out {tmp}/x.txt"
BUILD = "build --data {data} --eps 0.5 --seed 1"
BAD_OPTION_VALUES = {
    "gen-k-clusters-0": GEN + " --k-clusters 0",
    "gen-cluster-sigma-negative": GEN + " --cluster-sigma -1",
    "gen-scale-inf": GEN + " --scale inf",
    "gen-uniform-scale-negative": "gen --kind uniform --n 8 --d 2 --seed 1 --scale -3 --out {tmp}/x.txt",
    "gen-queries-uniform-no-data": "gen-queries --kind uniform --out {tmp}/q.txt",
    "gen-queries-near-data-no-data": "gen-queries --kind near-data --out {tmp}/q.txt",
    "gen-queries-margin-inf": "gen-queries --kind uniform --data {data} --margin inf --out {tmp}/q.txt",
    "build-m-queries-0": BUILD + " --mode learned --m-queries 0 --out-model {tmp}/m.arc",
    "build-query-grid-side-0": BUILD + " --mode worstcase --query-grid-side 0 --out-model {tmp}/m.arc",
    # radii whose squares overflow to inf or underflow to 0, where d2 and
    # R*R could meet and a point beyond the ball be counted
    "build-radius-square-overflows": BUILD + " --mode worstcase --radius 1e200 --out-model {tmp}/m.arc",
    "build-radius-square-underflows": BUILD + " --mode learned --m-queries 50 --radius 1e-170 --out-model {tmp}/m.arc",
    "build-radius-1.5e308": BUILD + " --mode learned --m-queries 50 --radius 1.5e308 --out-model {tmp}/m.arc",
    # options the mode does not read
    "gen-grid-random-weights": "gen --kind grid --n 8 --d 2 --seed 1 --random-weights --out {tmp}/x.txt",
    "build-worstcase-queries": BUILD + " --mode worstcase --queries {tmp}/nonexistent.txt --out-model {tmp}/m.arc",
    "build-worstcase-m-queries": BUILD + " --mode worstcase --m-queries 50 --out-model {tmp}/m.arc",
    "build-worstcase-sigma": BUILD + " --mode worstcase --sigma 0.5 --out-model {tmp}/m.arc",
    "build-learned-query-grid-side": BUILD + " --mode learned --query-grid-side 1e-9 --out-model {tmp}/m.arc",
    "build-queries-m-queries-sigma": BUILD
    + " --mode learned --queries {data} --m-queries 100000 --sigma -3 --out-model {tmp}/m.arc",
    "build-queries-sigma": BUILD + " --mode learned --queries {data} --sigma 0.5 --out-model {tmp}/m.arc",
    "gen-uniform-k-clusters-spacing": "gen --kind uniform --n 8 --d 2 --seed 1 --k-clusters 7 --spacing 3 --out {tmp}/x.txt",
    "gen-grid-scale-cluster-sigma": "gen --kind grid --n 8 --d 2 --seed 1 --scale 9 --cluster-sigma 2 --out {tmp}/x.txt",
    "gen-uniform-k-clusters-0": "gen --kind uniform --n 8 --d 2 --seed 1 --k-clusters 0 --out {tmp}/x.txt",
    "gen-queries-file-m-sigma-margin": "gen-queries --kind file --data {data} --m 5 --sigma -2 --margin 9 --out {tmp}/q.txt",
    "gen-queries-file-seed": "gen-queries --kind file --data {data} --seed 3 --out {tmp}/q.txt",
    "gen-queries-uniform-sigma": "gen-queries --kind uniform --data {data} --sigma -2 --out {tmp}/q.txt",
    "gen-queries-near-data-margin": "gen-queries --kind near-data --data {data} --margin 7 --out {tmp}/q.txt",
    # arrays past the CLI's size bound are refused before they are allocated
    "gen-uniform-n-huge": "gen --kind uniform --n 100000000000000000000 --d 2 --seed 1 --out {tmp}/x.txt",
    "gen-grid-d-huge": "gen --kind grid --n 8 --d 100000000000000000000 --seed 1 --out {tmp}/x.txt",
    "gen-clusters-d-huge": "gen --kind clusters --n 8 --d 100000000000000000000 --seed 1 --out {tmp}/x.txt",
    "gen-k-clusters-huge": GEN + " --k-clusters 100000000000000000000",
    "gen-queries-near-data-m-huge": "gen-queries --kind near-data --data {data} --m 100000000000000000000 --out {tmp}/q.txt",
    "gen-queries-uniform-m-huge": "gen-queries --kind uniform --data {data} --m 100000000000000000000 --out {tmp}/q.txt",
    "build-m-queries-huge": BUILD + " --mode learned --m-queries 100000000000000000000 --out-model {tmp}/m.arc",
}
# options that no longer exist: query snapping answered outside the sandwich,
# and the light-edge exponent rho is fixed by eps
UNKNOWN_OPTIONS = {
    "build-snap": BUILD + " --mode learned --snap --out-model {tmp}/m.arc",
    "build-grid-side": BUILD + " --mode learned --grid-side 0.5 --out-model {tmp}/m.arc",
    "build-rho": BUILD + " --mode worstcase --rho 0.1 --out-model {tmp}/m.arc",
}
UNWRITABLE_OUTPUTS = {
    "gen-out": GEN.replace("{tmp}", "{tmp}/no/such/dir"),
    "build-out-model": BUILD + " --mode learned --m-queries 50 --out-model {tmp}/no/such/dir/m.arc",
    "eval-out-report": "eval --model {model} --data {data} --queries {data} --out-report {tmp}/no/such/dir/r.json",
}


def run_argv(template, tmp_path, saved_model):
    model, data = saved_model
    return run_cli(template.format(tmp=tmp_path, data=data, model=model).split())


class TestExitCodes:
    @pytest.mark.parametrize("template", BAD_OPTION_VALUES.values(), ids=BAD_OPTION_VALUES)
    def test_bad_option_value_is_exit_three(self, tmp_path, capsys, saved_model, template):
        capsys.readouterr()
        rc = run_argv(template, tmp_path, saved_model)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_array_size_bound_is_rows_times_columns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_CELLS", 16)
        gen = "gen --kind uniform --d 2 --seed 1 --out {}".format(tmp_path / "x.txt").split()
        assert run_cli(gen + ["--n", "9"]) == 3
        assert not any(tmp_path.iterdir())
        assert run_cli(gen + ["--n", "8"]) == 0

    @pytest.mark.parametrize("template", UNKNOWN_OPTIONS.values(), ids=UNKNOWN_OPTIONS)
    def test_unknown_option_is_exit_two(self, tmp_path, capsys, saved_model, template):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_argv(template, tmp_path, saved_model)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("template", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS)
    def test_unwritable_output_is_exit_two(self, tmp_path, capsys, saved_model, template):
        capsys.readouterr()
        rc = run_argv(template, tmp_path, saved_model)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "no/such/dir" in err and "Traceback" not in err

    def test_malformed_data_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        # a bad header, and bytes that are not UTF-8, which fail to decode first
        for content in (b"garbage\n", bytes(range(255, -1, -1))):
            bad.write_bytes(content)
            capsys.readouterr()
            rc = run_cli(
                ["build", "--data", str(bad), "--eps", "0.5", "--mode", "learned",
                 "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
            )
            assert rc == 2
            assert run_cli(["oracle", "--data", str(bad), "--q", "1,2", "--eps", "0.5"]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and err.count("error: ") == 2

    def test_contract_violation_is_exit_three(self, tmp_path):
        data = gen_data(tmp_path, n=6, d=9)
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.5", "--mode", "worstcase",
             "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
        )
        assert rc == 3

    def test_bad_eps_is_exit_three(self, tmp_path):
        data = gen_data(tmp_path, n=10, d=2)
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.0", "--mode", "learned",
             "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
        )
        assert rc == 3

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_MODELS))
    def test_malformed_model_is_exit_two(self, tmp_path, capsys, saved_model, mutation):
        # an exception escaping run_cli would be a traceback and exit 1
        model, data = saved_model
        bad = tmp_path / "bad.arc"
        bad.write_bytes(MALFORMED_MODELS[mutation](ModelFile.read(model)))
        capsys.readouterr()
        rc = run_cli(["query", "--model", str(bad), "--data", str(data), "--q", "1,1,1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    # "v6-fields" tags the current model, as a v6 writer saved it, with the
    # old format and changes nothing else; "own-fields" also gives it the
    # old format's own fields
    @pytest.mark.parametrize("with_fields", [True, False], ids=["own-fields", "v6-fields"])
    @pytest.mark.parametrize("fmt", sorted(OLD_FORMAT_FIELDS))
    def test_json_model_is_exit_two(self, tmp_path, capsys, saved_model, fmt, with_fields):
        model, data = saved_model
        doc = ModelFile.read(model).v6_document()
        doc["format"] = fmt
        if with_fields:
            OLD_FORMAT_FIELDS[fmt](doc)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli(["query", "--model", str(old), "--data", str(data), "--q", "1,1,1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {old}: ") and fmt in err and "Traceback" not in err
        assert "rebuild" in err and "`arccount build`" in err

    def test_v7_model_is_exit_two(self, tmp_path, capsys, saved_model):
        # the binary format before this one: its magic line names it
        model, data = saved_model
        old = tmp_path / "v7.arc"
        old.write_bytes(ModelFile.read(model).v7_bytes())
        capsys.readouterr()
        rc = run_cli(["query", "--model", str(old), "--data", str(data), "--q", "1,1,1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {old}: ") and "'arc-model v7'" in err and "Traceback" not in err
        assert "rebuild" in err and "`arccount build`" in err

    def test_model_saved_against_other_points_is_exit_three(self, tmp_path, capsys, monkeypatch):
        # the file changes between the build's read and the save, one value
        # one ulp off: the save refuses the file
        data = gen_data(tmp_path, n=20, d=3)

        def one_ulp_off(path):
            pts = read_points(path)
            points = pts.points.copy()
            points[5, 2] = np.nextafter(points[5, 2], -np.inf)
            write_points(path, WeightedPointSet(points, pts.weights))
            return pts

        monkeypatch.setattr(cli, "read_points", one_ulp_off)
        model = tmp_path / "m.arc"
        capsys.readouterr()
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.5", "--mode", "learned", "--m-queries", "50",
             "--seed", "1", "--out-model", str(model)]
        )
        err = capsys.readouterr().err
        assert rc == 3 and not model.exists()
        assert err.startswith(f"error: {data}: ") and "bit for bit" in err and "Traceback" not in err

    def test_build_parses_the_data_file_once(self, tmp_path, monkeypatch):
        # the save checks the parsed set the build holds, not a second parse
        data = gen_data(tmp_path, n=20, d=3)
        calls = []

        def counted(path):
            calls.append(path)
            return read_points(path)

        monkeypatch.setattr(cli, "read_points", counted)
        monkeypatch.setattr(io, "read_points", counted)
        model = tmp_path / "m.arc"
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.5", "--mode", "learned", "--m-queries", "50",
             "--seed", "1", "--out-model", str(model)]
        )
        assert rc == 0 and model.exists()
        assert len(calls) == 1

    def test_build_on_a_missing_data_file_is_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        capsys.readouterr()
        rc = run_cli(
            ["build", "--data", str(missing), "--eps", "0.5", "--mode", "learned", "--seed", "1",
             "--out-model", str(tmp_path / "m.arc")]
        )
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: {missing}: cannot read: ") and "Traceback" not in err

    def test_binary_non_finite_value_cites_its_offset(self, tmp_path, capsys):
        # row index 3, coordinate 1 of a 5-row d 2 file: 12 + 8 * (3 * 3 + 1)
        rows = np.arange(15, dtype="<f8").reshape(5, 3)
        rows[3, 1] = np.nan
        bad = tmp_path / "nan.bin"
        bad.write_bytes(b"ARC1" + (5).to_bytes(4, "little") + (2).to_bytes(4, "little") + rows.tobytes())
        capsys.readouterr()
        assert run_cli(["oracle", "--data", str(bad), "--q", "1,2", "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: non-finite value (offset 92)\n"

    def test_oversized_worst_case_universe_is_exit_three(self, tmp_path, capsys):
        # about 7e5 grid queries times 12 points, refused before any light edge
        data = gen_data(tmp_path, n=12, d=2)
        capsys.readouterr()
        t0 = time.perf_counter()
        rc = run_cli(
            ["build", "--data", str(data), "--eps", "0.02", "--radius", "0.3", "--mode", "worstcase",
             "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
        )
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 3 and elapsed < 1.0
        assert err.startswith("error: ") and "--mode learned" in err and "Traceback" not in err

    @pytest.mark.parametrize("side", ["1e-12", "1e-300"])
    def test_tiny_query_grid_side_is_exit_three(self, tmp_path, capsys, side):
        # 1e-12 once died allocating 18 TiB of cell indices; 1e-300 once cast
        # its cell bounds out of int64 and built on them with exit 0
        data = gen_data(tmp_path, n=12, d=2)
        capsys.readouterr()
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                ["build", "--data", str(data), "--eps", "0.5", "--mode", "worstcase",
                 "--query-grid-side", side, "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
            )
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 3 and elapsed < 1.0
        assert err.startswith("error: ") and "budget" in err and "Traceback" not in err
        assert not (tmp_path / "m.arc").exists()

    # an empty field once moved the query: "1,,2,3" was answered as (1, 2, 3)
    @pytest.mark.parametrize(
        "text", ["1,xyz,1", "1 abc 1", "1,nan,1", "inf,1,1", "1,,2,3", "1,2,3,", ",1,2,3", "1, ,2,3", ","]
    )
    @pytest.mark.parametrize("command", ["query", "oracle"])
    def test_bad_query_text_is_exit_three(self, capsys, saved_model, command, text):
        capsys.readouterr()
        rc = run_cli(point_argv(command, saved_model, text))
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith("error: query point") and "Traceback" not in captured.err

    # an empty query once had the one refusal that neither named the query
    # point nor quoted the text: "error: empty query point"
    @pytest.mark.parametrize("text", ["", "   "])
    @pytest.mark.parametrize("command", ["query", "oracle"])
    def test_empty_query_text_is_exit_three(self, capsys, saved_model, command, text):
        capsys.readouterr()
        rc = run_cli(point_argv(command, saved_model, text))
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith(f"error: query point {text!r} is empty") and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["1, 2, 3", "1 2 3", "  1,2,3  ", "1 , 2 ,3"])
    @pytest.mark.parametrize("command", ["query", "oracle"])
    def test_query_text_with_spaces_is_read(self, capsys, saved_model, command, text):
        capsys.readouterr()
        assert run_cli(point_argv(command, saved_model, text)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run_cli(point_argv(command, saved_model, "1,2,3")) == 0
        assert json.loads(capsys.readouterr().out) == doc

    @pytest.mark.parametrize("text", ["1,2", "1,2,3,4"])
    @pytest.mark.parametrize("command", ["query", "oracle"])
    def test_query_of_another_dimension_is_exit_three(self, capsys, saved_model, command, text):
        # the data is 3-d; oracle once ended in a ValueError traceback, exit 1
        capsys.readouterr()
        rc = run_cli(point_argv(command, saved_model, text))
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith("error: query dimension") and "Traceback" not in captured.err

    def test_projection_option_is_gone(self, tmp_path):
        data = gen_data(tmp_path, n=10, d=2)
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["build", "--data", str(data), "--eps", "0.5", "--mode", "learned",
                 "--jl-dim", "10", "--seed", "1", "--out-model", str(tmp_path / "m.arc")]
            )
        assert exc.value.code == 2
