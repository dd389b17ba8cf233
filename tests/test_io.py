"""Point files, query files, and saved models."""

from __future__ import annotations

import json

import numpy as np
import pytest

from arccount.core import Seed, WeightedPointSet
from arccount.counter import BuildConfig, LearnedSource, WorstCaseSource, build_counting_index, count
from arccount.io import (
    FileFormatError,
    load_model,
    read_points,
    read_query_sample,
    save_model,
    write_points,
    write_query_sample,
)
from arccount.learned import QuerySample, near_data_queries
from arccount.spantree import LightEdgeParams


def random_points(n: int, d: int, seed: int) -> WeightedPointSet:
    rng = Seed(seed).generator()
    return WeightedPointSet(rng.normal(size=(n, d)) * 3, rng.uniform(-1, 2, size=n))


class TestPointsRoundTrip:
    def test_text_is_bit_identical(self, tmp_path):
        pts = random_points(17, 4, seed=150)
        f = tmp_path / "pts.txt"
        write_points(f, pts)
        back = read_points(f)
        np.testing.assert_array_equal(back.points, pts.points)
        np.testing.assert_array_equal(back.weights, pts.weights)

    def test_binary_is_bit_identical(self, tmp_path):
        pts = random_points(23, 6, seed=151)
        f = tmp_path / "pts.bin"
        write_points(f, pts, binary=True)
        back = read_points(f)
        np.testing.assert_array_equal(back.points, pts.points)
        np.testing.assert_array_equal(back.weights, pts.weights)

    def test_format_sniffing(self, tmp_path):
        pts = random_points(5, 2, seed=152)
        t, b = tmp_path / "a.txt", tmp_path / "a.bin"
        write_points(t, pts)
        write_points(b, pts, binary=True)
        assert open(b, "rb").read(4) == b"ARC1"
        np.testing.assert_array_equal(read_points(t).points, read_points(b).points)

    def test_query_sample_round_trip(self, tmp_path):
        sample = QuerySample(Seed(153).generator().normal(size=(9, 3)), source="test")
        f = tmp_path / "qs.txt"
        write_query_sample(f, sample)
        back = read_query_sample(f)
        np.testing.assert_array_equal(back.queries, sample.queries)
        assert back.source == "file:qs.txt"


class TestMalformedText:
    def test_bad_header_cites_line_one(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("not-a-header 3 2\n0 0 1\n")
        with pytest.raises(FileFormatError, match=r"line 1"):
            read_points(f)

    def test_wrong_field_count_cites_the_row(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("arc-points v1 2 2\n0.0 0.0 1.0\n0.0 1.0\n")
        with pytest.raises(FileFormatError, match=r"line 3"):
            read_points(f)

    def test_non_numeric_cites_the_row(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("arc-points v1 1 2\n0.0 oops 1.0\n")
        with pytest.raises(FileFormatError, match=r"line 2"):
            read_points(f)

    def test_row_count_mismatch(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("arc-points v1 3 2\n0.0 0.0 1.0\n")
        with pytest.raises(FileFormatError, match=r"expected 3 rows"):
            read_points(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("")
        with pytest.raises(FileFormatError, match=r"line 1"):
            read_points(f)


class TestMalformedBinary:
    def test_truncated_header_cites_offset(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"ARC1\x02\x00")
        with pytest.raises(FileFormatError, match=r"offset"):
            read_points(f)

    def test_payload_size_mismatch_cites_offset(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"ARC1" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(FileFormatError, match=r"offset 12"):
            read_points(f)

    def test_zero_rows_rejected(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"ARC1" + (0).to_bytes(4, "little") + (2).to_bytes(4, "little"))
        with pytest.raises(FileFormatError, match=r"offset 4"):
            read_points(f)


class TestModels:
    def build_and_save(self, tmp_path, worstcase: bool = False):
        if worstcase:
            rng = Seed(154).generator()
            pts = WeightedPointSet(rng.uniform(0, 2.5, size=(12, 2)), rng.uniform(0.2, 2, size=12))
            source = WorstCaseSource(light=LightEdgeParams(rho=0.05))
        else:
            pts = random_points(30, 3, seed=155)
            pts = WeightedPointSet(pts.points, np.abs(pts.weights) + 0.1)
            source = LearnedSource(near_data_queries(pts, 120, 0.5, Seed(156)))
        data = tmp_path / "data.txt"
        write_points(data, pts)
        cfg = BuildConfig(eps=0.5, seed=Seed(157), tree_source=source)
        idx = build_counting_index(pts, cfg)
        model = tmp_path / "model.json"
        save_model(model, idx, data)
        return pts, idx, data, model

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_reloaded_index_answers_bit_identically(self, tmp_path, worstcase):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        loaded = load_model(model, data)
        np.testing.assert_array_equal(loaded.tree.order, idx.tree.order)
        rng = Seed(158).generator()
        for _ in range(30):
            q = rng.uniform(-2, 3, size=pts.dim)
            a, b = count(idx, q), count(loaded, q)
            assert a.weight == b.weight
            assert a.visited_nodes == b.visited_nodes
            assert a.verdict_counts == b.verdict_counts

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_v1_model_answers_like_v2(self, tmp_path, worstcase):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        doc = json.loads(model.read_text())
        assert doc["format"] == "arc-model v2"
        doc["format"] = "arc-model v1"
        doc["config"]["classifier_repetitions"] = None
        doc["config"]["beta_scale"] = 1.0
        old = tmp_path / "model_v1.json"
        old.write_text(json.dumps(doc))
        v1, v2 = load_model(old, data), load_model(model, data)
        np.testing.assert_array_equal(v1.tree.order, v2.tree.order)
        rng = Seed(159).generator()
        for _ in range(30):
            q = rng.uniform(-2, 3, size=pts.dim)
            a, b = count(v1, q), count(v2, q)
            assert a.weight == b.weight
            assert a.visited_nodes == b.visited_nodes
            assert a.verdict_counts == b.verdict_counts

    def test_digest_mismatch_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        data.write_text(data.read_text() + "\n")
        with pytest.raises(FileFormatError, match=r"digest"):
            load_model(model, data)

    def test_unknown_format_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        doc = json.loads(model.read_text())
        doc["format"] = "bogus v9"
        model.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"format"):
            load_model(model, data)

    def test_not_json_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        model.write_text("definitely not json {")
        with pytest.raises(FileFormatError, match=r"model"):
            load_model(model, data)
