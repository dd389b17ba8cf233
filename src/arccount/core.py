"""Shared geometric primitives, parameter objects, and seeded randomness.

Everything downstream counts points inside Euclidean balls, so the boundary
conventions are fixed here once and used consistently:

* balls are closed: a point at distance exactly ``r`` is inside ``B(q, r)``;
* the ambiguity annulus around a query ``q`` is ``B(q, (1+eps)r)`` minus
  ``B(q, r)``, i.e. distances ``d`` with ``r < d <= (1+eps)r``;
* a query eps-stabs a pair ``{x, y}`` when one point is within ``r`` and the
  other is at distance at least ``(1+eps)r`` (both comparisons closed).

Randomness is carried by :class:`Seed`, a 64-bit value plus a derivation
path.  Sub-structures derive child seeds instead of sharing one generator,
which keeps every build bit-reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ContractViolation(ValueError):
    """Raised when a caller breaks a documented precondition."""


@dataclass(frozen=True)
class EpsParams:
    """Approximation parameter and ball radius shared by all range predicates."""

    eps: float
    radius: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eps < 1.0):
            raise ContractViolation(f"eps must lie in (0, 1), got {self.eps}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ContractViolation(f"radius must be positive and finite, got {self.radius}")

    @property
    def outer_radius(self) -> float:
        return (1.0 + self.eps) * self.radius


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lattice with cells of side ``side``, anchored at the origin."""

    side: float

    def __post_init__(self) -> None:
        if not (self.side > 0.0 and math.isfinite(self.side)):
            raise ContractViolation(f"grid side must be positive and finite, got {self.side}")


@dataclass(frozen=True)
class Seed:
    """A 64-bit seed plus a derivation path.

    ``derive(*keys)`` appends integer keys to the path; two seeds with
    different paths yield independent Philox streams.  Philox is counter
    based, so streams are stable across platforms and numpy releases.
    """

    value: int
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (0 <= int(self.value) < 2**64):
            raise ContractViolation(f"seed value must fit in 64 bits, got {self.value}")

    def derive(self, *keys: int) -> "Seed":
        return Seed(self.value, self.path + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.value, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def as_point(p: "np.ndarray | list[float] | tuple[float, ...]") -> np.ndarray:
    """Coerce to a finite 1-d float64 vector."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractViolation(f"point must be a nonempty 1-d vector, got shape {arr.shape}")
    # counting the finite entries gives .all()'s verdict, faster on short vectors
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ContractViolation("point has non-finite coordinates")
    return arr


@dataclass
class WeightedPointSet:
    """Immutable bundle of ``n`` points in ``R^d`` with real weights.

    Weights may be negative.  Arrays are marked read-only so indices built
    on top can be shared across threads.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ContractViolation(f"points must be a nonempty (n, d) array, got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise ContractViolation(f"weights shape {w.shape} does not match n={pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ContractViolation("points contain non-finite coordinates")
        if not np.all(np.isfinite(w)):
            raise ContractViolation("weights contain non-finite values")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, indices: np.ndarray) -> "WeightedPointSet":
        idx = np.asarray(indices, dtype=np.int64)
        return WeightedPointSet(self.points[idx].copy(), self.weights[idx].copy())


def _check_same_dim(*vecs: np.ndarray) -> None:
    dims = {v.shape[-1] for v in vecs}
    if len(dims) != 1:
        raise ContractViolation(f"dimension mismatch: {sorted(dims)}")


def eps_stabs(q: np.ndarray, x: np.ndarray, y: np.ndarray, params: EpsParams) -> bool:
    """Whether ``q`` eps-stabs the pair ``{x, y}``.

    True iff one of the two points is within ``radius`` of ``q`` and the
    other is at distance at least ``(1+eps) * radius``.  Symmetric in
    ``x`` and ``y``.  Uses squared distances; no square roots are taken.
    """
    q, x, y = as_point(q), as_point(x), as_point(y)
    _check_same_dim(q, x, y)
    r2 = params.radius * params.radius
    big2 = params.outer_radius * params.outer_radius
    dx = _sqdist(q, x)
    dy = _sqdist(q, y)
    return (dx <= r2 and dy >= big2) or (dy <= r2 and dx >= big2)


def _sqdist(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(np.dot(diff, diff))


def sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to ``q``."""
    diff = points - q
    return np.einsum("ij,ij->i", diff, diff)
