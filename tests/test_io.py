"""Point files, query files, and saved models."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from arccount.core import Seed, WeightedPointSet
from arccount.counter import (
    BuildConfig,
    LearnedSource,
    WorstCaseSource,
    build_counting_index,
    count,
    evaluate_visiting,
)
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

    @pytest.mark.parametrize("sizes", ["0 2", "2 0", "0 -2"])
    def test_empty_sizes_cite_line_one(self, tmp_path, sizes):
        f = tmp_path / "bad.txt"
        f.write_text(f"arc-points v1 {sizes}\n")
        with pytest.raises(FileFormatError, match=r"header declares .* \(line 1\)"):
            read_points(f)

    def test_first_bad_row_is_cited(self, tmp_path):
        # a non-numeric row before a short one: the earlier row is reported
        f = tmp_path / "bad.txt"
        f.write_text("arc-points v1 3 2\n0.0 0.0 1.0\n0.0 nope 1.0\n0.0 1.0\n")
        with pytest.raises(FileFormatError, match=r"non-numeric value \(line 3\)"):
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
            source = WorstCaseSource()
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
    def test_loaded_model_audits_like_the_index_that_saved_it(self, tmp_path, worstcase):
        # the audit reads the points and the sandwich from the index, so a
        # loaded model reports what the built index reported, row for row;
        # only the overlap with the training sample, which a loaded model
        # does not hold, reads None
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        loaded = load_model(model, data)
        rng = Seed(164).generator()
        holdout = QuerySample(np.vstack([pts.points[:3], rng.uniform(-2, 3, size=(30, pts.dim))]), source="t")
        built, reloaded = evaluate_visiting(idx, holdout), evaluate_visiting(loaded, holdout)
        assert built.holdout_overlaps_training is False
        assert reloaded.holdout_overlaps_training is (False if worstcase else None)
        assert len(built.per_query) == len(holdout) and reloaded.per_query == built.per_query
        assert dataclasses.replace(reloaded, holdout_overlaps_training=False) == built
        assert built.sandwich_pass_rate == 1.0

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_v4_model_answers_like_the_index_that_saved_it(self, tmp_path, worstcase):
        # a v4 file differs only by the worst-case source's light-edge
        # exponent, which the stored leaf order makes irrelevant: it is not read
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        doc = json.loads(model.read_text())
        assert doc["format"] == "arc-model v5"
        assert "light" not in doc["config"]["tree_source"]
        doc["format"] = "arc-model v4"
        if worstcase:
            doc["config"]["tree_source"]["light"] = {"rho": 0.05}
        v4 = tmp_path / "v4.json"
        v4.write_text(json.dumps(doc))
        loaded = load_model(v4, data)
        rng = Seed(163).generator()
        for q in list(pts.points[:3]) + [rng.uniform(-2, 3, size=pts.dim) for _ in range(30)]:
            a, b = count(idx, q, verify=True), count(loaded, q, verify=True)
            assert a.weight.hex() == b.weight.hex()
            assert (a.visited_nodes, a.verdict_counts, a.member_ranges) == (
                b.visited_nodes, b.verdict_counts, b.member_ranges
            )

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
