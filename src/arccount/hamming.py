"""Distance-sensitive Hamming embedding built from one-dimensional hashes.

Each output bit comes from projecting onto a Gaussian direction, shifting,
bucketing at width ``(1+eps) * radius``, and hashing the bucket id with a
per-coordinate salt down to a single bit.  Points that collide in a bucket
share the bit; points in different buckets agree only half the time.  Near
pairs therefore land at small Hamming distance and far pairs at large
distance, in expectation, and the salted hash lets a query reuse the exact
same bit function without storing one random bit per occupied bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, EpsParams, Seed, as_point

# A packed code is a plain int; bit i of the int is output coordinate i.
BitCode = int


def collision_prob(dist: float, width: float) -> float:
    """Probability that two points at distance ``dist`` share a hash bucket.

    For a standard Gaussian direction and a uniform shift over ``width``,
    the collision probability is

        integral over s in [0, width] of
            2/(sqrt(2*pi)*dist) * exp(-s^2 / (2*dist^2)) * (1 - s/width) ds

    whose closed form, with x = width / (sqrt(2) * dist), is
    erf(x) - (1 - exp(-x^2)) / (x * sqrt(pi)).  It falls as ``dist`` grows,
    from 1 at dist -> 0 towards 0.
    """
    if not (dist > 0.0 and math.isfinite(dist)):
        raise ContractViolation(f"dist must be positive and finite, got {dist}")
    if not (width > 0.0 and math.isfinite(width)):
        raise ContractViolation(f"width must be positive and finite, got {width}")
    x = width / (math.sqrt(2.0) * dist)
    return math.erf(x) + math.expm1(-x * x) / (x * math.sqrt(math.pi))


@dataclass
class HammingEmbedding:
    """Frozen parameters of one embedding draw plus derived thresholds.

    ``theta`` separates near from far codes in expectation; ``far_threshold``
    adds the slack used by the far-witness search.  ``mu1`` is the
    expected code distance of a pair at exactly ``radius``.
    """

    dprime: int
    directions: np.ndarray  # (dprime, ambient_dim)
    shifts: np.ndarray  # (dprime,)
    bit_salts: np.ndarray  # (dprime,) uint64
    width: float
    eps: float
    radius: float
    theta: float
    far_threshold: float
    mu1: float

    @property
    def ambient_dim(self) -> int:
        return self.directions.shape[1]


def default_code_length(n_hint: int, eps: float) -> int:
    """Code length max(8, round(log2(n) / (1 + eps^2))), floored so tiny inputs keep nondegenerate codes."""
    return max(8, round(math.log2(n_hint) / (1.0 + eps * eps)))


def make_embedding(
    ambient_dim: int,
    n_hint: int,
    eps: float,
    seed: Seed,
    radius: float = 1.0,
    dprime: int | None = None,
) -> HammingEmbedding:
    """Draw a fresh embedding for ``n_hint`` points in ``ambient_dim`` dimensions.

    ``dprime`` overrides the default code length (tests use this to pin the
    length while varying everything else).
    """
    if ambient_dim < 1:
        raise ContractViolation(f"ambient_dim must be positive, got {ambient_dim}")
    if n_hint < 2:
        raise ContractViolation(f"n_hint must be at least 2, got {n_hint}")
    params = EpsParams(eps, radius)  # validates ranges
    if dprime is None:
        dprime = default_code_length(n_hint, eps)
    if dprime < 1:
        raise ContractViolation(f"dprime must be positive, got {dprime}")

    width = params.outer_radius
    rng = seed.generator()
    directions = rng.normal(0.0, 1.0, size=(dprime, ambient_dim))
    shifts = rng.uniform(0.0, width, size=dprime)
    bit_salts = rng.integers(0, 2**64, size=dprime, dtype=np.uint64)

    p1 = collision_prob(radius, width)
    mu1 = 0.5 * dprime * (1.0 - p1)
    theta = mu1 * (1.0 + eps / 80.0)
    far_threshold = theta + eps * dprime

    return HammingEmbedding(
        dprime=dprime,
        directions=directions,
        shifts=shifts,
        bit_salts=bit_salts,
        width=width,
        eps=eps,
        radius=radius,
        theta=theta,
        far_threshold=far_threshold,
        mu1=mu1,
    )


# splitmix64 finalizer; salt and bucket id are mixed into one 64-bit word
# whose low bit becomes the output coordinate.
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def bucket_ids(e: HammingEmbedding, pts: np.ndarray) -> np.ndarray:
    """Integer bucket ids, shape (n, dprime), for rows of ``pts``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if pts.shape[1] != e.ambient_dim:
        raise ContractViolation(
            f"embedding expects dimension {e.ambient_dim}, points have {pts.shape[1]}"
        )
    proj = pts @ e.directions.T + e.shifts
    return np.floor(proj / e.width).astype(np.int64)


def _salted_bits(e: HammingEmbedding, buckets: np.ndarray) -> np.ndarray:
    words = buckets.astype(np.uint64) * _GOLDEN
    words ^= e.bit_salts
    return (_mix64(words) & np.uint64(1)).astype(np.uint8)


def _pack_rows(bits: np.ndarray) -> list[BitCode]:
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def embed(e: HammingEmbedding, p: np.ndarray) -> BitCode:
    """Embed one point into a ``dprime``-bit code packed into an int."""
    p = as_point(p)
    bits = _salted_bits(e, bucket_ids(e, p[None, :]))
    return _pack_rows(bits)[0]


def embed_many(e: HammingEmbedding, pts: np.ndarray) -> list[BitCode]:
    """Embed each row of ``pts``; one vectorized pass over all points."""
    bits = _salted_bits(e, bucket_ids(e, pts))
    return _pack_rows(bits)


def code_distance(a: BitCode, b: BitCode) -> int:
    """Hamming distance between two packed codes."""
    return (a ^ b).bit_count()
