"""File formats: points, query sets, models, and evaluation reports.

Points travel in one of two self-identifying formats.

Text: a header line ``arc-points v1 <n> <d>`` followed by ``n`` lines of
``d`` coordinates and one trailing weight, whitespace separated, full
``repr`` precision so round-trips are bit-identical.

Binary: magic ``ARC1``, little-endian uint32 ``n`` and ``d``, then
``n * (d + 1)`` little-endian float64 values, row-major, weight last in
each row.

Models are JSON (format ``arc-model v2``): build configuration, seed, the
leaf order of the partition tree, and a digest of the data file.  Loading
rebuilds only the partition tree over the stored leaf order, so the loaded
index answers bit-identically to the saved one.  ``arc-model v1`` files
still load; their ``classifier_repetitions`` and ``beta_scale`` fields are
ignored.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .core import ContractViolation, Seed, WeightedPointSet
from .counter import BuildConfig, CountingIndex, LearnedSource, WorstCaseSource, build_counting_index
from .learned import QuerySample
from .spantree import LightEdgeParams

_TEXT_HEADER = "arc-points v1"
_BINARY_MAGIC = b"ARC1"


class FileFormatError(RuntimeError):
    """Raised for malformed input files; carries a location in the message."""


# -- points ------------------------------------------------------------------


def write_points(path: str | Path, pts: WeightedPointSet, binary: bool = False) -> None:
    path = Path(path)
    n, d = len(pts), pts.dim
    if binary:
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<II", n, d))
            rows = np.hstack([pts.points, pts.weights[:, None]])
            fh.write(rows.astype("<f8").tobytes())
        return
    with open(path, "w") as fh:
        fh.write(f"{_TEXT_HEADER} {n} {d}\n")
        for p, w in zip(pts.points, pts.weights):
            fh.write(" ".join(repr(float(c)) for c in p) + f" {repr(float(w))}\n")


def read_points(path: str | Path) -> WeightedPointSet:
    """Read either format, sniffing the binary magic first."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read: {exc}") from exc
    if head == _BINARY_MAGIC:
        return _read_binary(path)
    return _read_text(path)


def _read_binary(path: Path) -> WeightedPointSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise FileFormatError(f"{path}: truncated header (offset {len(blob)})")
    n, d = struct.unpack("<II", blob[4:12])
    expect = 12 + n * (d + 1) * 8
    if n < 1 or d < 1:
        raise FileFormatError(f"{path}: header declares n={n}, d={d} (offset 4)")
    if len(blob) != expect:
        raise FileFormatError(
            f"{path}: payload is {len(blob) - 12} bytes, header implies {expect - 12} (offset 12)"
        )
    rows = np.frombuffer(blob, dtype="<f8", offset=12).reshape(n, d + 1)
    try:
        return WeightedPointSet(rows[:, :d].copy(), rows[:, d].copy())
    except ContractViolation as exc:
        raise FileFormatError(f"{path}: {exc} (offset 12)") from exc


def _read_text(path: Path) -> WeightedPointSet:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file (line 1)")
    head = lines[0].split()
    if len(head) != 4 or " ".join(head[:2]) != _TEXT_HEADER:
        raise FileFormatError(f"{path}: bad header {lines[0]!r} (line 1)")
    try:
        n, d = int(head[2]), int(head[3])
    except ValueError:
        raise FileFormatError(f"{path}: non-integer sizes in header (line 1)") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise FileFormatError(f"{path}: expected {n} rows, found {len(body)} (line {len(lines)})")
    points = np.empty((n, d))
    weights = np.empty(n)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != d + 1:
            raise FileFormatError(
                f"{path}: row has {len(parts)} fields, expected {d + 1} (line {i + 2})"
            )
        try:
            vals = [float(x) for x in parts]
        except ValueError:
            raise FileFormatError(f"{path}: non-numeric value (line {i + 2})") from None
        points[i] = vals[:d]
        weights[i] = vals[d]
    try:
        return WeightedPointSet(points, weights)
    except ContractViolation as exc:
        raise FileFormatError(f"{path}: {exc} (line 2)") from exc


def read_query_sample(path: str | Path) -> QuerySample:
    """Queries reuse the points format; weights are ignored."""
    pts = read_points(path)
    return QuerySample(pts.points.copy(), source=f"file:{Path(path).name}")


def write_query_sample(path: str | Path, sample: QuerySample, binary: bool = False) -> None:
    pts = WeightedPointSet(sample.queries.copy(), np.ones(len(sample)))
    write_points(path, pts, binary=binary)


# -- models --------------------------------------------------------------------

_MODEL_FORMAT = "arc-model v2"
_READABLE_FORMATS = ("arc-model v1", _MODEL_FORMAT)


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _light_to_json(lp: LightEdgeParams | None) -> dict | None:
    if lp is None:
        return None
    return {
        "rho": lp.rho,
        "net_constant": lp.net_constant,
        "embed_dim_constant": lp.embed_dim_constant,
        "grid_divisor": lp.grid_divisor,
    }


def save_model(path: str | Path, idx: CountingIndex, data_path: str | Path) -> None:
    cfg = idx.config
    source = cfg.tree_source
    if isinstance(source, WorstCaseSource):
        src_json: dict = {
            "kind": "worstcase",
            "grid_side": source.grid_side,
            "light": _light_to_json(source.light),
        }
    else:
        assert isinstance(source, LearnedSource)
        src_json = {"kind": "learned", "sample_source": source.sample.source}
    doc = {
        "format": _MODEL_FORMAT,
        "n": len(idx.source_points),
        "d": idx.source_points.dim,
        "data_digest": file_digest(data_path),
        "order": [int(v) for v in idx.tree.order],
        "config": {
            "eps": cfg.eps,
            "radius": cfg.radius,
            "seed": cfg.seed.value,
            "seed_path": list(cfg.seed.path),
            "jl_enabled": cfg.jl_enabled,
            "jl_target_dim": cfg.jl_target_dim,
            "snap_queries": cfg.snap_queries,
            "grid_side": cfg.grid_side,
            "tree_source": src_json,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path: str | Path, data_path: str | Path) -> CountingIndex:
    """Rebuild the index saved at ``path`` against its original data file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"{path}: not a model file: {exc}") from exc
    if doc.get("format") not in _READABLE_FORMATS:
        raise FileFormatError(f"{path}: unknown model format {doc.get('format')!r}")
    digest = file_digest(data_path)
    if digest != doc["data_digest"]:
        raise FileFormatError(
            f"{data_path}: digest {digest} does not match the model's {doc['data_digest']}"
        )
    pts = read_points(data_path)
    if len(pts) != doc["n"] or pts.dim != doc["d"]:
        raise FileFormatError(f"{data_path}: shape mismatch against model header")
    c = doc["config"]
    src = c["tree_source"]
    if src["kind"] == "worstcase":
        light = None
        if src["light"] is not None:
            light = LightEdgeParams(**src["light"])
        source: WorstCaseSource | LearnedSource = WorstCaseSource(
            light=light, grid_side=src["grid_side"]
        )
    elif src["kind"] == "learned":
        # the sample itself is not needed to reassemble: the leaf order is stored
        source = LearnedSource(
            sample=QuerySample(np.zeros((1, doc["d"])), source=src["sample_source"])
        )
    else:
        raise FileFormatError(f"{path}: unknown tree source {src['kind']!r}")
    cfg = BuildConfig(
        eps=c["eps"],
        radius=c["radius"],
        seed=Seed(c["seed"], tuple(c.get("seed_path", ()))),
        tree_source=source,
        jl_enabled=c["jl_enabled"],
        jl_target_dim=c["jl_target_dim"],
        snap_queries=c["snap_queries"],
        grid_side=c["grid_side"],
    )
    order = np.asarray(doc["order"], dtype=np.int64)
    return build_counting_index(pts, cfg, order_override=order)


def write_report(path: str | Path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
