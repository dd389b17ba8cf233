"""Shared instance generators and model-file helpers for the test suite."""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from arccount.core import Seed, WeightedPointSet


def gaussian_instance(
    n: int, d: int, spread: float, seed: int, unit_weights: bool = True
) -> WeightedPointSet:
    """Points N(0, spread^2 I) with unit or uniform positive weights."""
    rng = Seed(seed).generator()
    points = rng.normal(0.0, spread, size=(n, d))
    weights = np.ones(n) if unit_weights else rng.uniform(0.1, 2.0, size=n)
    return WeightedPointSet(points, weights)


def clustered_instance(
    n: int, d: int, k: int, separation: float, sigma: float, seed: int
) -> tuple[WeightedPointSet, np.ndarray]:
    """k well-separated Gaussian clusters; returns the points and the centers."""
    rng = Seed(seed).generator()
    centers = np.zeros((k, d))
    for i in range(k):
        # rejection-sample centers pairwise at least `separation` apart
        for _ in range(1000):
            cand = rng.uniform(0.0, separation * k, size=d)
            if all(np.linalg.norm(cand - centers[j]) >= separation for j in range(i)):
                centers[i] = cand
                break
        else:
            raise RuntimeError("could not separate cluster centers")
    who = rng.integers(0, k, size=n)
    points = centers[who] + rng.normal(0.0, sigma, size=(n, d))
    return WeightedPointSet(points, np.ones(n)), centers


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


MODEL_MAGIC = b"arc-model v8\n"


@dataclass
class ModelFile:
    """An ``arc-model v8`` file taken apart: the JSON header, or raw header text, and the three arrays' bytes."""

    head: dict | bytes
    points: bytes
    weights: bytes
    order: bytes

    @classmethod
    def read(cls, path: str | Path) -> "ModelFile":
        blob = Path(path).read_bytes()
        assert blob.startswith(MODEL_MAGIC)
        start = len(MODEL_MAGIC) + 4
        end = start + struct.unpack_from("<I", blob, len(MODEL_MAGIC))[0]
        head = json.loads(blob[start:end])
        weights_at = end + 8 * head["n"] * head["d"]
        order_at = weights_at + 8 * head["n"]
        return cls(head, blob[end:weights_at], blob[weights_at:order_at], blob[order_at:])

    @property
    def body(self) -> bytes:
        """Every byte after the header, which ``points_digest`` hashes."""
        return self.points + self.weights + self.order

    def sealed(self) -> "ModelFile":
        """This file with its ``points_digest`` taken again over its arrays, so that only other checks can refuse them."""
        assert isinstance(self.head, dict)
        self.head["points_digest"] = "sha256:" + hashlib.sha256(self.body).hexdigest()
        return self

    def to_bytes(self) -> bytes:
        """The file, its header padded with spaces so that the arrays start 8-byte aligned."""
        text = self.head if isinstance(self.head, bytes) else json.dumps(self.head).encode()
        text += b" " * (-(len(MODEL_MAGIC) + 4 + len(text)) % 8)
        return MODEL_MAGIC + struct.pack("<I", len(text)) + text + self.body

    def data_rows(self) -> bytes:
        """The rows of points and weights in data order, each weight last, as ``arc-model v7`` and v6 stored them."""
        assert isinstance(self.head, dict)
        n, d = self.head["n"], self.head["d"]
        rows = np.empty((n, d + 1), dtype="<f8")
        order = np.frombuffer(self.order, "<i4")
        rows[order, :d] = np.frombuffer(self.points, "<f8").reshape(n, d)
        rows[order, d] = np.frombuffer(self.weights, "<f8")
        return rows.tobytes()

    def v7_bytes(self) -> bytes:
        """The same model as an ``arc-model v7`` writer saved it: data-order rows under their own digest, then the order."""
        assert isinstance(self.head, dict)
        rows = self.data_rows()
        head = dict(self.head, points_digest="sha256:" + hashlib.sha256(rows).hexdigest())
        magic = b"arc-model v7\n"
        text = json.dumps(head).encode()
        text += b" " * (-(len(magic) + 4 + len(text)) % 8)
        return magic + struct.pack("<I", len(text)) + text + rows + self.order

    def v6_document(self) -> dict:
        """The same model as the JSON document an ``arc-model v6`` writer saved."""
        assert isinstance(self.head, dict)
        return {
            "format": "arc-model v6",
            **self.head,
            "order": np.frombuffer(self.order, "<i4").tolist(),
            "points": base64.b64encode(self.data_rows()).decode("ascii"),
        }
