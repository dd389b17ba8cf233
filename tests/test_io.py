"""Point files, query files, and saved models."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arccount.io
from conftest import MODEL_MAGIC, ModelFile
from arccount.core import ContractViolation, Seed, WeightedPointSet
from arccount.counter import (
    BuildConfig,
    LearnedSource,
    StoredOrder,
    WorstCaseSource,
    build_counting_index,
    count,
    evaluate_visiting,
)
from arccount.io import (
    FileFormatError,
    file_digest,
    load_model,
    read_points,
    read_query_sample,
    save_model,
    write_points,
    write_query_sample,
)
from arccount.learned import QuerySample, near_data_queries
from arccount.ptree import PartitionTree


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
        # the earliest of a non-numeric row, a short one and a non-finite one
        # is reported, at its line in the file: blank lines before it count
        f = tmp_path / "bad.txt"
        cases = [
            ("0.0 0.0 1.0\n0.0 nope 1.0\n0.0 1.0\n", r"non-numeric value \(line 3\)"),
            ("\n\n0.0 0.0 1.0\n0.0 nope 1.0\n0.0 1.0\n", r"non-numeric value \(line 5\)"),
            ("0.0 0.0 1.0\n \n\n0.0 1.0\n0.0 nope 1.0\n", r"row has 2 fields, expected 3 \(line 5\)"),
            ("0.0 0.0 1.0\n1.0 1.0 1.0\n\n0.0 nan 1.0\n", r"non-finite value \(line 5\)"),
            ("0.0 0.0 1.0\n\n0.0 0.0 inf\n0.0 nope 1.0\n", r"non-finite value \(line 4\)"),
        ]
        for body, message in cases:
            f.write_text("arc-points v1 3 2\n" + body)
            with pytest.raises(FileFormatError, match=message):
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


    @pytest.mark.parametrize("at, value", [((0, 0), np.nan), ((3, 1), np.inf), ((4, 2), -np.inf)])
    def test_non_finite_value_cites_its_own_offset(self, tmp_path, at, value):
        # a 5-row d 2 file: value (row, col) sits at byte 12 + 8 * (3 row + col)
        rows = np.ones((5, 3), dtype="<f8")
        rows[at] = value
        f = tmp_path / "bad.bin"
        f.write_bytes(b"ARC1" + (5).to_bytes(4, "little") + (2).to_bytes(4, "little") + rows.tobytes())
        with pytest.raises(FileFormatError, match=rf"non-finite value \(offset {12 + 8 * (3 * at[0] + at[1])}\)"):
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
        model = tmp_path / "model.arc"
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
    def test_v4_to_v6_models_are_refused(self, tmp_path, worstcase):
        # JSON models: v4 and v5 carry no points, and v6 carries them base64
        # encoded beside a JSON order list; all are refused as older formats
        # are, to be rebuilt from the data
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        doc = ModelFile.read(model).v6_document()
        for fmt in ("arc-model v4", "arc-model v5", "arc-model v6"):
            old = copy.deepcopy(doc)
            if fmt != "arc-model v6":
                del old["points"], old["points_digest"]
            old["format"] = fmt
            if worstcase and fmt == "arc-model v4":
                old["config"]["tree_source"]["light"] = {"rho": 0.05}
            f = tmp_path / "old.json"
            f.write_text(json.dumps(old, indent=1) + "\n")
            with pytest.raises(FileFormatError, match=rf"{fmt}.*rebuild it from the data with `arccount build`"):
                load_model(f, data)

    # the tree source as earlier writers of arc-model v6 stored it, its grid
    # side (0.0 included) or the sample's description beside the kind: v6 is
    # refused whatever its tree source holds
    @pytest.mark.parametrize(
        "worstcase, tree_source",
        [
            (True, {"kind": "worstcase", "grid_side": None}),
            (True, {"kind": "worstcase", "grid_side": 0.0}),
            (False, {"kind": "learned", "sample_source": "near-data:m=120,sigma=0.5"}),
        ],
        ids=["worstcase-grid-side-none", "worstcase-grid-side-0", "learned-sample-source"],
    )
    def test_v6_models_with_earlier_tree_source_fields_are_refused(self, tmp_path, worstcase, tree_source):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        doc = ModelFile.read(model).v6_document()
        assert doc["config"]["tree_source"] == {"kind": tree_source["kind"]}
        doc["config"]["tree_source"] = tree_source
        model.write_text(json.dumps(doc, indent=1) + "\n")
        with pytest.raises(FileFormatError, match=r"'arc-model v6'.*rebuild it from the data with `arccount build`"):
            load_model(model, data)

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_layout_is_a_header_the_path_arrays_and_an_int32_order(self, tmp_path, worstcase):
        # magic, u32 header length, a JSON header padded to 8 bytes, the
        # index's path-order points and weights as <f8 and its leaf order as
        # <i4, all three under one digest
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        blob = model.read_bytes()
        end = len(MODEL_MAGIC) + 4 + int.from_bytes(blob[len(MODEL_MAGIC) : len(MODEL_MAGIC) + 4], "little")
        parts = ModelFile.read(model)
        n, d = len(pts), pts.dim
        assert blob.startswith(b"arc-model v8\n") and end % 8 == 0
        assert (parts.head["n"], parts.head["d"]) == (n, d)
        assert parts.head["data_digest"] == file_digest(data)
        assert parts.points == idx.path_points.astype("<f8").tobytes() == blob[end : end + 8 * n * d]
        assert parts.weights == idx.path_weights.astype("<f8").tobytes()
        assert parts.order == idx.tree.order.astype("<i4").tobytes() == blob[end + 8 * n * (d + 1) :]
        assert np.frombuffer(parts.order, "<i4").tolist() == idx.tree.order.tolist()
        assert parts.head["points_digest"] == "sha256:" + hashlib.sha256(blob[end:]).hexdigest()
        assert len(blob) == end + 8 * n * (d + 1) + 4 * n
        assert parts.to_bytes() == blob
        # the same points in data order, weight last, as arc-model v7 stored them
        rows = np.frombuffer(parts.data_rows(), "<f8").reshape(n, d + 1)
        assert rows[:, :d].tobytes() == pts.points.tobytes() and rows[:, d].tobytes() == pts.weights.tobytes()

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_save_load_save_writes_the_same_bytes(self, tmp_path, worstcase):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        again = tmp_path / "again.arc"
        save_model(again, load_model(model, data), data)
        assert again.read_bytes() == model.read_bytes()

    def nan_under_its_own_digest(self, tmp_path, array: str, at: int):
        """A saved model whose ``array`` holds a NaN at ``at`` under a digest taken again, its data file, and the NaN's offset."""
        pts, idx, data, model = self.build_and_save(tmp_path)
        parts = ModelFile.read(model)
        values = np.frombuffer(getattr(parts, array), "<f8").copy()
        values[at] = np.nan
        model.write_bytes(dataclasses.replace(parts, **{array: values.tobytes()}).sealed().to_bytes())
        start = len(model.read_bytes()) - len(parts.body) + (len(parts.points) if array == "weights" else 0)
        return model, data, start + 8 * at

    def test_non_finite_row_under_its_own_digest_cites_its_offset(self, tmp_path):
        # only the finiteness check can refuse a NaN whose digest is recomputed
        model, data, offset = self.nan_under_its_own_digest(tmp_path, "points", 9)
        with pytest.raises(FileFormatError, match=rf"non-finite value \(offset {offset}\)"):
            load_model(model, data)

    def test_non_finite_weight_under_its_own_digest_cites_its_offset(self, tmp_path):
        model, data, offset = self.nan_under_its_own_digest(tmp_path, "weights", 2)
        with pytest.raises(FileFormatError, match=rf"non-finite value \(offset {offset}\)"):
            load_model(model, data)

    def test_an_order_with_two_entries_swapped_is_refused_by_its_digest(self, tmp_path):
        # still a permutation, so the tree would take it: the digest covers
        # the order, and refuses it unless it is taken again over the new order
        pts, idx, data, model = self.build_and_save(tmp_path)
        parts = ModelFile.read(model)
        order = np.frombuffer(parts.order, "<i4").copy()
        order[[0, 1]] = order[[1, 0]]
        swapped = dataclasses.replace(parts, order=order.tobytes())
        model.write_bytes(swapped.to_bytes())
        with pytest.raises(FileFormatError, match=r"points digest"):
            load_model(model, data)
        model.write_bytes(swapped.sealed().to_bytes())
        assert load_model(model, data).tree.order.tolist() == order.tolist()

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_v7_models_are_refused(self, tmp_path, worstcase):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        model.write_bytes(ModelFile.read(model).v7_bytes())
        with pytest.raises(FileFormatError, match=r"'arc-model v7'.*rebuild it from the data with `arccount build`"):
            load_model(model, data)

    @pytest.mark.parametrize("worstcase", [False, True])
    def test_a_loaded_index_holds_read_only_views_of_one_read(self, tmp_path, worstcase):
        pts, idx, data, model = self.build_and_save(tmp_path, worstcase)
        loaded = load_model(model, data)
        roots = []
        for a in (loaded.path_points, loaded.path_weights):
            assert not a.flags.writeable and a.flags.c_contiguous and a.flags.aligned and not a.flags.owndata
            while isinstance(a, np.ndarray):
                a = a.base
            roots.append(a)
        assert isinstance(roots[0], bytes) and roots[0] is roots[1] and roots[0] == model.read_bytes()
        order = loaded.tree.order
        assert not order.flags.writeable and order.flags.c_contiguous and order.flags.aligned

    def test_load_does_not_read_the_data_file_points(self, tmp_path, monkeypatch):
        pts, idx, data, model = self.build_and_save(tmp_path)

        def refuse(path):
            raise AssertionError(f"read_points({path}) during load")

        monkeypatch.setattr(arccount.io, "read_points", refuse)
        loaded = load_model(model, data)
        assert loaded.points().points.tobytes() == pts.points.tobytes()

    def test_save_refuses_a_data_file_one_ulp_off(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        points = pts.points.copy()
        points[7, 1] = np.nextafter(points[7, 1], np.inf)
        write_points(data, WeightedPointSet(points, pts.weights))
        other = tmp_path / "other.arc"
        with pytest.raises(ContractViolation, match=r"bit for bit"):
            save_model(other, idx, data)
        assert not other.exists()

    def test_save_with_the_callers_read_checks_digest_and_points(self, tmp_path, monkeypatch):
        # handed the set the caller read and the digest it took before, the
        # save parses nothing, and refuses a file that changed since the
        # digest or a set that is not the index's
        pts, idx, data, model = self.build_and_save(tmp_path)
        digest = file_digest(data)

        def refuse(path):
            raise AssertionError(f"read_points({path}) during save")

        monkeypatch.setattr(arccount.io, "read_points", refuse)
        again = tmp_path / "again.arc"
        save_model(again, idx, data, read=(pts, digest))
        assert again.read_bytes() == model.read_bytes()
        points = pts.points.copy()
        points[7, 1] = np.nextafter(points[7, 1], np.inf)
        off = WeightedPointSet(points, pts.weights)
        with pytest.raises(ContractViolation, match=r"bit for bit"):
            save_model(tmp_path / "off.arc", idx, data, read=(off, digest))
        write_points(data, off)
        with pytest.raises(ContractViolation, match=r"bit for bit"):
            save_model(tmp_path / "changed.arc", idx, data, read=(pts, digest))
        assert not (tmp_path / "off.arc").exists() and not (tmp_path / "changed.arc").exists()

    def test_save_refuses_a_data_file_of_another_shape(self, tmp_path):
        # 30 rows of 3 coordinates and a weight hold as many values as 20 of 5
        pts, idx, data, model = self.build_and_save(tmp_path)
        rows = np.hstack([pts.points, pts.weights[:, None]]).reshape(20, 6)
        write_points(data, WeightedPointSet(rows[:, :5], rows[:, 5]))
        with pytest.raises(ContractViolation, match=r"bit for bit"):
            save_model(tmp_path / "other.arc", idx, data)

    def test_digest_mismatch_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        data.write_text(data.read_text() + "\n")
        with pytest.raises(FileFormatError, match=r"digest"):
            load_model(model, data)

    def test_unknown_format_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        doc = ModelFile.read(model).v6_document()
        doc["format"] = "bogus v9"
        model.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"format 'bogus v9'"):
            load_model(model, data)

    def test_not_json_refused(self, tmp_path):
        pts, idx, data, model = self.build_and_save(tmp_path)
        # text that is not JSON, and a binary point file, whose float64 bytes are not UTF-8
        for binary in (False, True):
            if binary:
                write_points(model, pts, binary=True)
            else:
                model.write_text("definitely not json {")
            with pytest.raises(FileFormatError, match=r"model"):
                load_model(model, data)


# coordinates and weights at the edges of float64: signed zeros, the
# smallest subnormals, a subnormal in the middle of the range, and the
# largest magnitudes whose squares overflow
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -1.5e-310, 1e308, -1e308]
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def point_sets(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    values = draw(st.lists(VALUES, min_size=n * (d + 1), max_size=n * (d + 1)))
    rows = np.array(values, dtype=np.float64).reshape(n, d + 1)
    return WeightedPointSet(rows[:, :d].copy(), rows[:, d].copy()), draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(point_sets(), st.booleans())
def test_model_round_trip_is_bit_exact(built, binary):
    pts, order = built
    stored = StoredOrder(PartitionTree(np.array(order)), "worstcase")
    cfg = BuildConfig(eps=0.5, seed=Seed(165), tree_source=stored)
    idx = build_counting_index(pts, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "data", Path(tmp) / "model.arc"
        write_points(data, pts, binary=binary)
        save_model(model, idx, data)
        loaded = load_model(model, data)
    for name in ("points", "weights"):
        a, b = getattr(pts, name), getattr(loaded.points(), name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not np.shares_memory(b, getattr(loaded, f"path_{name}"))
    for name in ("path_points", "path_weights", "half_sq_norms"):
        assert getattr(idx.operands, name).tobytes() == getattr(loaded.operands, name).tobytes()
    assert loaded.tree.order.tolist() == list(order) and loaded.operands.max_norm == idx.operands.max_norm
