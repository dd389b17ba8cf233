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
  no code.

Two certified distance passes decide which of those distances need not be
taken: ``count``'s float64 GEMV for one query, and the learned stab
counts' float32 GEMM over blocks of queries.  They share one contract,
stated here once: :func:`band_half_width` bounds a pass's rounding in the
:class:`Precision` it runs in, ``FLOAT64`` or ``FLOAT32``, with the
coefficients of :func:`band_coefficients`, and a pass certifies a query
only while d is at most the record's ``max_dim`` and ``2M + B`` at most
its ``max``; any other query's points are all measured with
:func:`sq_dists_to`.

Randomness is carried by :class:`Seed`, a 64-bit value plus a derivation
path.  Sub-structures derive child seeds instead of sharing one generator,
which keeps every build bit-reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def outer_radius(self) -> float:
        # cached on first read: the audit reads it for every query, and the
        # builds' distance passes for every block
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
        if not isinstance(self.value, (int, np.integer)):
            raise ContractViolation(f"seed value must be an integer, got {self.value!r}")
        if not (0 <= int(self.value) < 2**64):
            raise ContractViolation(f"seed value must fit in 64 bits, got {self.value}")

    def derive(self, *keys: int) -> "Seed":
        return Seed(self.value, self.path + tuple(int(k) for k in keys))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.value, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


def as_point(p: "np.ndarray | list[float] | tuple[float, ...]", dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 vector, of ``dim`` coordinates when ``dim`` is given."""
    return point_and_norm(p, dim)[0]


def point_and_norm(
    p: "np.ndarray | list[float] | tuple[float, ...]", dim: int | None = None
) -> tuple[np.ndarray, list[float], float]:
    """``as_point(p, dim)``, its coordinates as a new list of Python floats, and its norm by ``math.hypot``.

    The one check of a point, and of every query, with ``dim`` the data's
    dimension: its shape, then its size, then its finiteness.  A finite
    norm proves every coordinate finite: ``math.hypot`` returns inf for
    any infinite coordinate, even beside a NaN, and NaN for a NaN.  So
    only an infinite or NaN norm looks at each coordinate, and finite
    coordinates whose norm overflows are accepted, with the norm inf.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractViolation(f"point must be a nonempty 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ContractViolation(f"query dimension {arr.size} does not match data dimension {dim}")
    coords = arr.tolist()
    norm = math.hypot(*coords)
    if not math.isfinite(norm) and not all(map(math.isfinite, coords)):
        raise ContractViolation("point has non-finite coordinates")
    return arr, coords, norm


@dataclass(frozen=True, eq=False)
class WeightedPointSet:
    """Immutable bundle of ``n`` points in ``R^d`` with real weights.

    Weights may be negative.  Frozen, compared by identity, with read-only
    arrays, so indices built on top can be shared across threads.  The
    arrays are copies of the caller's, so no view taken before construction
    can write into a validated set.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, order="C")
        w = np.array(self.weights, dtype=np.float64, order="C")
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
        return WeightedPointSet(self.points[idx], self.weights[idx])


def stab_masks(d2: np.ndarray, params: EpsParams) -> tuple[np.ndarray, np.ndarray]:
    """The near (``d2 <= r*r``) and far (``d2 >= ((1+eps) r)**2``) masks of squared distances ``d2``.

    A query eps-stabs a pair when one end is near and the other far.  Every
    caller takes ``d2`` from ``sq_dists_to``: ``eps_stabs``,
    ``spantree.BallRows.of`` and the band cells of
    ``learned.pair_stab_counts``' float32 pass.
    """
    big = params.outer_radius
    return d2 <= params.radius * params.radius, d2 >= big * big


def eps_stabs(q: np.ndarray, x: np.ndarray, y: np.ndarray, params: EpsParams) -> bool:
    """Whether ``q`` eps-stabs the pair ``{x, y}``.

    True iff one of the two points is within ``radius`` of ``q`` and the
    other is at distance at least ``(1+eps) * radius``.  Symmetric in
    ``x`` and ``y``.  Uses squared distances; no square roots are taken.
    """
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise ContractViolation(f"pair dimension mismatch: {x.size} and {y.size}")
    q = as_point(q, x.size)
    near, far = stab_masks(sq_dists_to(np.stack([x, y]), q), params)
    return bool((near[0] and far[1]) or (near[1] and far[0]))


def sq_dists_to(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from every row of ``points`` to ``q``, or to the same row of a 2-d ``q``.

    Each distance is the einsum of one row's differences, so it does not
    depend on the other rows.  The differences are laid out C-ordered
    whatever the layout of ``points`` or ``q``, since einsum sums a
    Fortran-ordered or strided row in another order: each row's bits
    depend on its values alone.
    """
    return sq_norms(np.subtract(points, q, order="C"))


def sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a C-ordered (k, d) float64 array: :func:`sq_dists_to` of rows of differences.

    A caller that lays out its differences C-ordered itself, one axis at a
    time, gets the bits ``sq_dists_to`` gives the rows they were taken of.
    """
    return np.einsum("ij,ij->i", diff, diff)


@dataclass(frozen=True)
class Precision:
    """What a certified pass's proof needs of the precision it runs in.

    ``unit_roundoff`` and ``tiny``, the smallest normal, are the ``u`` and
    ``tau`` of :func:`band_half_width`; ``max`` is the largest finite
    value, and ``max_dim`` the largest d that the bound's proof covers.
    """

    unit_roundoff: float
    tiny: float
    max: float
    max_dim: int


FLOAT64 = Precision(2.0**-53, float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max), 10**7)
FLOAT32 = Precision(2.0**-24, float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max), 2**20 - 1)


def band_half_width(d: int, m, t_outer, t_inner, precision: Precision):
    """Half the certified band ``B`` of a distance pass in ``precision``, whose ``(u, tau)`` it reads.

    ``m`` and the ``t`` are Python floats (one query) or float64 arrays (a
    query per entry), as is the result.  ``counter``'s float64 pass and
    the learned stab counts' float32 pass decide ``d2 <= T`` or ``d2 < T``
    for the ``d2`` of ``sq_dists_to`` from ``h = sum_j p_j q_j - pp / 2``,
    a (d+1)-term product in their precision: ``p`` and ``q`` are a point
    and the query less a centre ``c`` (0 in ``counter``), rounded to it
    (exact in float64), and ``pp = sq_dists_to(p, c)``.  ``h`` is
    ``(qq - d2) / 2`` up to rounding, ``qq`` being ``|q|**2`` by
    ``math.hypot`` or ``sq_dists_to``, and a threshold ``T`` becomes
    ``s = (qq - T) / 2`` in float64.

    Let ``v = 2**-53``, ``g(k) = k u / (1 - k u)`` (``g53`` with ``v``),
    ``D`` the exact squared distance, ``a = |p|``, ``b = |q|`` and
    ``M = (max a + b)**2``, at least ``D`` and ``2ab + a**2 + b**2``.
    Taking every error on ``2h``, ``d2`` and ``qq``:

    * in float64, ``d2`` errs by ``g53(d+2) D``, ``qq`` by
      ``g53(max(d, 5)) b**2`` and ``pp`` by ``g53(d) a**2``, and centring
      moves ``D`` by ``(2v + v**2) M`` where ``c`` is not 0;
    * rounding a coordinate or ``pp/2`` to float32 moves it by
      ``u |x| + tau``, normal, subnormal or flushed, so ``2h`` by
      ``(2u + u**2) 2ab + u a**2 + tau (1 + u)(d + M) + 2d tau**2 + 2 tau``,
      as the 1-norms of ``p`` and ``q`` sum to at most ``sqrt(d M) <= (d + M) / 2``;
    * the sum errs by ``g(d+1) (2ab + a**2)``, fused or not, plus
      ``2 tau`` for each of its ``2d + 1`` operations that underflows.  A
      float32 sum may take its terms in any order; a float64 one
      subtracts ``pp/2`` last, else that term's bound doubles to
      ``2 d v a**2`` and the total passes ``B`` for d above 5;
    * ``qq - T`` rounds by ``v |qq - T|``, each edge ``s +- B/2`` by
      ``v (|qq - T| + B) / 2``, and each halving and square by ``tau``
      where it underflows.

    So ``|(d2 - T) - 2 (s - h)|`` is at most about
    ``(g(max(d+1, 5)) + g(d+2)) M + 2v |qq - T| + (7d + 9) tau`` in
    float64, and ``(d + 3) u M + 2v |qq - T| + (5d + 4) tau`` in float32
    (its float64 steps round by ``v = 2**-29 u``) while ``(d + 1) u <= 1/16``.
    ``B = 2 (d + 4) u (M + |qq - T_outer| + |qq - T_inner|) + 8 (d + 4) tau``
    exceeds it, for d up to ``precision.max_dim`` (``10**7`` in float64,
    ``2**20 - 1`` in float32), with room for the rounding of ``M`` and
    ``B``, wherever ``2M + B`` is at most ``precision.max``.  An ``h`` at
    or above ``s + B/2`` then has ``d2 < T``, one below ``s - B/2`` has
    ``d2 > T``, and only the band between needs ``sq_dists_to``.

    ``B/2`` is affine in ``m + |t_outer| + |t_inner|``, with the
    coefficients of :func:`band_coefficients`, ``a = (d + 4) u`` and
    ``b = 4 (d + 4) tau``; a pass that works them out once applies them
    as ``a * (m + abs(t_outer) + abs(t_inner)) + b``, bit for bit.
    """
    a, b = band_coefficients(d, precision)
    return a * (m + abs(t_outer) + abs(t_inner)) + b


def band_coefficients(d: int, precision: Precision) -> tuple[float, float]:
    """The ``(a, b)`` of :func:`band_half_width`, ``a (m + |t_outer| + |t_inner|) + b``, for ``d`` and ``precision``.

    ``a = (d + 4) u`` and ``b = 4 (d + 4) tau`` are exact: ``u`` and ``tau``
    are powers of two.  They depend on the pass alone, not on the query,
    so ``counter``'s index finds them once and applies them itself.
    """
    return (d + 4) * precision.unit_roundoff, 4 * (d + 4) * precision.tiny
