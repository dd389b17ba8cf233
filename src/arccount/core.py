"""Shared geometric primitives, parameter objects, and seeded randomness.

Everything downstream counts points inside Euclidean balls, so the boundary
conventions are fixed here once and used consistently:

* balls are closed: a point at distance exactly ``r`` is inside ``B(q, r)``;
* the ambiguity annulus around a query ``q`` is ``B(q, (1+eps)r)`` minus
  ``B(q, r)``, i.e. distances ``d`` with ``r < d <= (1+eps)r``;
* a query eps-stabs a pair ``{x, y}`` when one point is within ``r`` and the
  other is at distance at least ``(1+eps)r`` (both comparisons closed).
  :func:`stab_masks` alone makes both comparisons, on squared distances
  from :func:`sq_dists_to`, apart from the oracle, a referee that shares
  no code.  The learned stab counts' float32 pass only decides which
  distances need not be taken.

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


def stab_masks(d2: np.ndarray, params: EpsParams) -> tuple[np.ndarray, np.ndarray]:
    """The near (``d2 <= r*r``) and far (``d2 >= ((1+eps) r)**2``) masks of squared distances ``d2``.

    A query eps-stabs a pair when one end is near and the other far.  Every
    caller takes ``d2`` from ``sq_dists_to``: ``eps_stabs``,
    ``spantree.BallRows.of``, ``learned.stabbing_bracket_report`` and the
    band cells of ``learned.pair_stab_counts``' float32 pass.
    """
    big = params.outer_radius
    return d2 <= params.radius * params.radius, d2 >= big * big


def eps_stabs(q: np.ndarray, x: np.ndarray, y: np.ndarray, params: EpsParams) -> bool:
    """Whether ``q`` eps-stabs the pair ``{x, y}``.

    True iff one of the two points is within ``radius`` of ``q`` and the
    other is at distance at least ``(1+eps) * radius``.  Symmetric in
    ``x`` and ``y``.  Uses squared distances; no square roots are taken.
    """
    q, x, y = as_point(q), as_point(x), as_point(y)
    if not q.shape == x.shape == y.shape:
        raise ContractViolation(f"dimension mismatch: {q.size}, {x.size} and {y.size}")
    near, far = stab_masks(sq_dists_to(np.stack([x, y]), q), params)
    return bool((near[0] and far[1]) or (near[1] and far[0]))


def sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to ``q``, or to the same row of a 2-d ``q``.

    Each distance is the einsum of one row's differences, so it does not
    depend on the other rows.
    """
    diff = points - q
    return np.einsum("ij,ij->i", diff, diff)
