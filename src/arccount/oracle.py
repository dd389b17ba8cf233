"""Brute-force ground truth for every quantity the fast paths estimate.

Nothing here is clever on purpose: plain loops, plain recursion, and no code
shared with the structures under test; ``import arccount`` does not load it.
The holdout audit, ``counter.evaluate_visiting``, decides points by the same
``math.dist`` as ``_dist``.  Boundary conventions match the rest
of the package: balls are closed, the ambiguity zone around a query is
``radius < dist <= (1+eps) * radius``, and a pair is stabbed when one end is
within ``radius`` and the other at distance ``>= (1+eps) * radius``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ContractViolation, EpsParams, WeightedPointSet


def _dist(a: Sequence[float], b: Sequence[float]) -> float:
    return math.dist(tuple(float(v) for v in a), tuple(float(v) for v in b))


def exact_range_weight(pts: WeightedPointSet, q: np.ndarray, radius: float) -> float:
    """Total weight of points with distance to ``q`` at most ``radius``."""
    if radius < 0.0:
        raise ContractViolation(f"radius must be nonnegative, got {radius}")
    total = 0.0
    for p, w in zip(pts.points, pts.weights):
        if _dist(p, q) <= radius:
            total += float(w)
    return total


def exact_range_indices(pts: WeightedPointSet, q: np.ndarray, radius: float) -> set[int]:
    """Indices of points with distance to ``q`` at most ``radius``."""
    return {i for i, p in enumerate(pts.points) if _dist(p, q) <= radius}


def exact_sigma(
    q: np.ndarray,
    edges: Iterable[tuple[int, int]],
    pts: WeightedPointSet,
    params: EpsParams,
) -> int:
    """Number of edges eps-stabbed by ``q``, one predicate evaluation per edge."""
    r = params.radius
    big = params.outer_radius
    count = 0
    for a, b in edges:
        da = _dist(pts.points[a], q)
        db = _dist(pts.points[b], q)
        if (da <= r and db >= big) or (db <= r and da >= big):
            count += 1
    return count


def exact_tq(q: np.ndarray, pts: WeightedPointSet, params: EpsParams) -> int:
    """Number of points in the ambiguity zone: radius < dist <= (1+eps)*radius."""
    r = params.radius
    big = params.outer_radius
    count = 0
    for p in pts.points:
        d = _dist(p, q)
        if r < d <= big:
            count += 1
    return count


def enumerate_spanning_trees(n: int) -> Iterator[list[tuple[int, int]]]:
    """Yield the edge list of every labeled spanning tree on ``n`` vertices.

    Decodes all n^(n-2) Pruefer sequences; intended for n <= 8 where the
    count stays below seventeen thousand times a small constant.
    """
    if not (2 <= n <= 8):
        raise ContractViolation(f"exhaustive enumeration supports 2 <= n <= 8, got {n}")
    if n == 2:
        yield [(0, 1)]
        return
    seq = [0] * (n - 2)
    while True:
        yield _pruefer_decode(seq, n)
        # odometer-increment the sequence in base n
        pos = n - 3
        while pos >= 0:
            seq[pos] += 1
            if seq[pos] < n:
                break
            seq[pos] = 0
            pos -= 1
        if pos < 0:
            return


def _pruefer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((min(last), max(last)))
    return edges


def exact_visiting_oracle(
    order: Sequence[int],
    pts: WeightedPointSet,
    q: np.ndarray,
    params: EpsParams,
) -> int:
    """Visiting number of the canonical partition tree over ``order``.

    Rebuilds the tree shape by direct recursion over index ranges (left half
    takes the ceiling) and counts: the root, plus both children of every
    internal node whose member points satisfy at least one of

    * stabbed: some member within ``radius`` and some at ``>= (1+eps)*radius``;
    * ambiguous inside: a member in the ambiguity zone and all members
      within ``(1+eps)*radius``;
    * ambiguous outside: a member in the ambiguity zone and no member
      within ``radius``.
    """
    order = list(int(i) for i in order)
    if sorted(order) != list(range(len(pts))):
        raise ContractViolation("order must be a permutation of all point indices")
    r = params.radius
    big = params.outer_radius

    dists = [_dist(pts.points[i], q) for i in order]

    def expands(lo: int, hi: int) -> bool:
        chunk = dists[lo:hi]
        has_near = any(d <= r for d in chunk)
        has_far = any(d >= big for d in chunk)
        has_ambiguous = any(r < d <= big for d in chunk)
        if has_near and has_far:
            return True
        if has_ambiguous and all(d <= big for d in chunk):
            return True
        if has_ambiguous and not has_near:
            return True
        return False

    def walk(lo: int, hi: int) -> int:
        if hi - lo <= 1:
            return 0
        if not expands(lo, hi):
            return 0
        mid = lo + (hi - lo + 1) // 2
        return 2 + walk(lo, mid) + walk(mid, hi)

    return 1 + walk(0, len(order))
