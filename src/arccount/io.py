"""File formats: points, query sets, models, and evaluation reports.

Points travel in one of two self-identifying formats.

Text: a header line ``arc-points v1 <n> <d>`` followed by ``n`` lines of
``d`` coordinates and one trailing weight, whitespace separated, full
``repr`` precision so round-trips are bit-identical.

Binary: magic ``ARC1``, little-endian uint32 ``n`` and ``d``, then
``n * (d + 1)`` little-endian float64 values, row-major, weight last in
each row.

Models (format ``arc-model v8``) are the magic line ``arc-model v8``, a
little-endian uint32 header length, a UTF-8 JSON header padded with spaces
so that the arrays after it start 8-byte aligned, and three arrays as the
index holds them, in path order: the ``n`` points of ``d`` coordinates and
their ``n`` weights as little-endian float64, then the leaf order as
little-endian int32.  The header holds ``n``, ``d``, the build
configuration and seed, the kind of tree source that fitted the order, a
digest of the data file, and ``points_digest``, the sha256 of every byte
after the header, the order included.  The file is the header's end plus
``8n(d+1) + 4n`` bytes exactly: 78 KB at n = 1024, d = 8.  Loading reads
the model with one ``os.read``, as ``file_digest`` reads the data file,
checks the length and both digests, checks the one float64 block finite,
makes the partition tree over the stored order and the configuration,
and builds the index over read-only views of that one read: no copy, no
gather and no parse of the data file, so the loaded index answers
bit-identically to the saved one.  The tree keeps a checked int64 copy of
the order alone; its node arrays come on the walk's first run.
``save_model`` writes the index's arrays and refuses a data file that does
not hold its points and weights bit for bit.  There is one reader: the
JSON models ``v1``-``v6`` and the binary ``v7``, which stored the rows in
data order, are refused with their format named, to be rebuilt from the
data with ``arccount build``.

A file that is not UTF-8 where text is expected, a text point file or a
model's header, is malformed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from .core import ContractViolation, Seed, WeightedPointSet
from .counter import BuildConfig, CountingIndex, StoredOrder
from .learned import QuerySample
from .ptree import PartitionTree

_TEXT_HEADER = "arc-points v1"
_BINARY_MAGIC = b"ARC1"


class FileFormatError(RuntimeError):
    """Raised for malformed input files; carries a location in the message."""


# -- points ------------------------------------------------------------------


def _rows_bytes(pts: WeightedPointSet) -> bytes:
    """The points and weights as ``n * (d + 1)`` little-endian float64 values, row-major, weight last."""
    return np.hstack([pts.points, pts.weights[:, None]]).astype("<f8").tobytes()


def _rows_points(buf: bytes, n: int, d: int, where: str, offset: int) -> WeightedPointSet:
    """The inverse of ``_rows_bytes`` on the ``n`` rows at ``offset`` in ``buf``.

    A non-finite value is refused, citing ``where`` and its offset.
    """
    rows = np.frombuffer(buf, dtype="<f8", count=n * (d + 1), offset=offset).reshape(n, d + 1)
    try:
        return WeightedPointSet(rows[:, :d], rows[:, d])
    except ContractViolation as exc:
        # with n and d at least 1, the set refuses only a non-finite value
        first = int(np.argmin(np.isfinite(rows).reshape(-1)))
        raise FileFormatError(f"{where}: non-finite value (offset {offset + 8 * first})") from exc


def write_points(path: str | Path, pts: WeightedPointSet, binary: bool = False) -> None:
    path = Path(path)
    n, d = len(pts), pts.dim
    if binary:
        with open(path, "wb") as fh:
            fh.write(_BINARY_MAGIC)
            fh.write(struct.pack("<II", n, d))
            fh.write(_rows_bytes(pts))
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
    return _rows_points(blob, n, d, str(path), offset=12)


def _read_text(path: Path) -> WeightedPointSet:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (offset {exc.start})") from None
    if not lines:
        raise FileFormatError(f"{path}: empty file (line 1)")
    head = lines[0].split()
    if len(head) != 4 or " ".join(head[:2]) != _TEXT_HEADER:
        raise FileFormatError(f"{path}: bad header {lines[0]!r} (line 1)")
    try:
        n, d = int(head[2]), int(head[3])
    except ValueError:
        raise FileFormatError(f"{path}: non-integer sizes in header (line 1)") from None
    if n < 1 or d < 1:
        raise FileFormatError(f"{path}: header declares n={n}, d={d} (line 1)")
    # every nonblank row beside its own line number in the file
    body = [(line_no, ln) for line_no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        raise FileFormatError(f"{path}: expected {n} rows, found {len(body)} (line {len(lines)})")
    rows = [ln.split() for _, ln in body]
    try:
        if set(map(len, rows)) - {d + 1}:
            raise ValueError("ragged rows")
        # float() per token, as Python parses a repr, so values round-trip bit for bit
        values = np.array(list(map(float, chain.from_iterable(rows)))).reshape(n, d + 1)
        if not np.isfinite(values).all():
            raise ValueError("non-finite values")
    except ValueError:
        raise _first_bad_row(path, body, d) from None
    return WeightedPointSet(values[:, :d], values[:, d])


def _first_bad_row(path: Path, body: list[tuple[int, str]], d: int) -> FileFormatError:
    """The error of the first (line number, row) with the wrong field count, a non-numeric or a non-finite value."""
    for line_no, ln in body:
        parts = ln.split()
        if len(parts) != d + 1:
            return FileFormatError(f"{path}: row has {len(parts)} fields, expected {d + 1} (line {line_no})")
        try:
            finite = all(map(math.isfinite, map(float, parts)))
        except ValueError:
            return FileFormatError(f"{path}: non-numeric value (line {line_no})")
        if not finite:
            return FileFormatError(f"{path}: non-finite value (line {line_no})")
    raise AssertionError("every row parses")


def read_query_sample(path: str | Path) -> QuerySample:
    """Queries reuse the points format; weights are ignored."""
    pts = read_points(path)
    return QuerySample(pts.points, source=f"file:{Path(path).name}")


def write_query_sample(path: str | Path, sample: QuerySample, binary: bool = False) -> None:
    pts = WeightedPointSet(sample.queries, np.ones(len(sample)))
    write_points(path, pts, binary=binary)


# -- models --------------------------------------------------------------------

_MODEL_FORMAT = "arc-model v8"
_MODEL_MAGIC = _MODEL_FORMAT.encode() + b"\n"
_HEADER_START = len(_MODEL_MAGIC) + 4


def _read_bytes(path: str | Path) -> bytes:
    """The whole file at ``path``: one ``os.read`` of its ``fstat`` size, then on to its end.

    A regular file's first read reaches its end; a pipe, a file that grew,
    or one past the most a read returns (2 GiB on Linux) reads on.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        parts = [os.read(fd, os.fstat(fd).st_size)]
        while part := os.read(fd, 1 << 20):
            parts.append(part)
    finally:
        os.close(fd)
    return parts[0] if len(parts) == 1 else b"".join(parts)


def file_digest(path: str | Path) -> str:
    try:
        blob = _read_bytes(path)
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read: {exc}") from exc
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _f8_bytes(a: np.ndarray) -> bytes:
    return a.astype("<f8", copy=False).tobytes()


def save_model(
    path: str | Path, idx: CountingIndex, data_path: str | Path, read: tuple[WeightedPointSet, str] | None = None
) -> None:
    """Save ``idx``; ``data_path`` must hold its points and weights bit for bit.

    The model carries the index's path-order arrays, and loading answers
    from them; the data file's digest is recorded beside them, so it must
    describe the same values, else a ``ContractViolation``.  The check
    parses ``data_path``, unless ``read`` holds what the caller already
    read: the points ``read_points(data_path)`` gave and the
    ``file_digest`` the caller took just before that read.  Those points
    must then be the index's, and the file must still have that digest.
    """
    on_file, digest = read or (read_points(data_path), None)
    now = file_digest(data_path)
    order = idx.tree.order
    if (
        digest not in (None, now)
        or on_file.points.shape != idx.path_points.shape
        or _f8_bytes(on_file.points[order]) != _f8_bytes(idx.path_points)
        or _f8_bytes(on_file.weights[order]) != _f8_bytes(idx.path_weights)
    ):
        raise ContractViolation(
            f"{data_path}: the points and weights on file are not the index's, bit for bit; "
            "save the model against the data the index was built from"
        )
    body = _f8_bytes(idx.path_points) + _f8_bytes(idx.path_weights) + order.astype("<i4").tobytes()
    cfg = idx.config
    n, d = idx.path_points.shape
    head = {
        "n": n,
        "d": d,
        "data_digest": now,
        "points_digest": "sha256:" + hashlib.sha256(body).hexdigest(),
        "config": {
            "eps": cfg.eps,
            "radius": cfg.radius,
            "seed": cfg.seed.value,
            "seed_path": list(cfg.seed.path),
            "tree_source": {"kind": cfg.tree_source.kind},
        },
    }
    text = json.dumps(head).encode()
    text += b" " * (-(_HEADER_START + len(text)) % 8)
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC + struct.pack("<I", len(text)) + text + body)


_NUMBER = (int, float)


def _field(obj: dict, key: str, kinds: tuple[type, ...], where: object):
    """``obj[key]``; a malformed model unless it is present and one of ``kinds``."""
    if key not in obj:
        raise FileFormatError(f"{where}: model field {key!r} is missing")
    value = obj[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise FileFormatError(f"{where}: model field {key!r} has the wrong type {type(value).__name__}")
    return value


def load_model(path: str | Path, data_path: str | Path) -> CountingIndex:
    """Rebuild the index saved at ``path``, whose data file ``data_path`` must match its digest.

    The index holds read-only views of the one read of the model: its
    points and weights as stored, and the order in its tree's own copy.
    """
    try:
        blob = _read_bytes(path)
    except OSError as exc:
        raise FileFormatError(f"{path}: not a model file: {exc}") from exc
    if not blob.startswith(_MODEL_MAGIC):
        # an older binary model names its format in its first line, a JSON one in its "format" field
        line, newline, _ = blob[:64].partition(b"\n")
        try:
            fmt = line.decode("ascii") if newline and line.startswith(b"arc-model ") else json.loads(blob)["format"]
        except (ValueError, TypeError, KeyError, RecursionError):
            raise FileFormatError(f"{path}: not a model file: no {_MODEL_MAGIC!r} magic") from None
        raise FileFormatError(
            f"{path}: model format {fmt!r} cannot be read, only {_MODEL_FORMAT!r}; "
            "rebuild it from the data with `arccount build`"
        )
    # a file cut short in the header length reads as a header past its end
    end = _HEADER_START + int.from_bytes(blob[len(_MODEL_MAGIC) : _HEADER_START], "little")
    if end > len(blob):
        raise FileFormatError(f"{path}: header runs to offset {end}, past the end of the file's {len(blob)} bytes")
    try:
        head = json.loads(blob[_HEADER_START:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # a json.JSONDecodeError, a UnicodeDecodeError, or arrays nested too deep to parse
        raise FileFormatError(f"{path}: model header is not JSON: {exc}") from None
    if not isinstance(head, dict):
        raise FileFormatError(f"{path}: model header is not an object")
    digest = file_digest(data_path)
    stored = _field(head, "data_digest", (str,), path)
    if digest != stored:
        raise FileFormatError(f"{data_path}: digest {digest} does not match the model's {stored}")
    n, d = _field(head, "n", (int,), path), _field(head, "d", (int,), path)
    if n < 1 or d < 1:
        raise FileFormatError(f"{path}: model declares n={n}, d={d}")
    order_at = end + 8 * n * (d + 1)
    if len(blob) != order_at + 4 * n:
        raise FileFormatError(f"{path}: model is {len(blob)} bytes, n={n} and d={d} imply {order_at + 4 * n}")
    digest = "sha256:" + hashlib.sha256(memoryview(blob)[end:]).hexdigest()
    stored = _field(head, "points_digest", (str,), path)
    if digest != stored:
        raise FileFormatError(f"{path}: points digest {digest} does not match the model's {stored}")
    # the points, then the weights: one contiguous float64 block
    values = np.frombuffer(blob, "<f8", count=n * (d + 1), offset=end)
    finite = np.isfinite(values)
    if not finite.all():
        raise FileFormatError(f"{path}: non-finite value (offset {end + 8 * int(np.argmin(finite))})")
    c = _field(head, "config", (dict,), path)
    src = _field(c, "tree_source", (dict,), path)
    kind = _field(src, "kind", (str,), path)
    seed_path = _field(c, "seed_path", (list,), path)
    if not all(type(k) is int and k >= 0 for k in seed_path):
        raise FileFormatError(f"{path}: model field 'seed_path' must hold nonnegative integers")
    # a field of the right type can still hold a value out of range, such as
    # eps 5 or an unknown tree source; the configuration refuses it, and so
    # does the partition tree's permutation check: the model file is malformed
    try:
        tree = PartitionTree(np.frombuffer(blob, "<i4", count=n, offset=order_at))
        cfg = BuildConfig(
            eps=_field(c, "eps", _NUMBER, path),
            radius=_field(c, "radius", _NUMBER, path),
            seed=Seed(_field(c, "seed", (int,), path), tuple(seed_path)),
            tree_source=StoredOrder(tree, kind),
        )
        cfg.working  # a halved eps that underflows to 0 is refused, as a build refuses it
    except ContractViolation as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return CountingIndex(cfg, tree, values[: n * d].reshape(n, d), values[n * d :])


def write_report(path: str | Path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
