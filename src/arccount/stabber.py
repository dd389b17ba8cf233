"""Stab classifiers: is a query's ball boundary inside, outside, or across a subset.

A stab index buckets a subset by its Hamming code.  Queries look for two
kinds of witnesses, always re-verified with exact distances before use:

* a near witness, true distance at most ``(1+eps) * radius``, searched in
  buckets ordered by increasing code distance from the query's code;
* a far witness, true distance at least ``radius``, searched in decreasing
  code distance order.

The code ordering only decides which witness is found first: each phase
scans until a point passes the exact test or the subset is exhausted.  The
paper bounds each phase by ``n^(1-beta)`` failed inspections and boosts the
result with O(log n) independent indexes, but with
``beta = eps^2 / (19200 (1 + eps^2)) < 1/38400`` the budget
``ceil(100 n^(1-beta))`` is at least n for every n below 100^38400, so it
cannot bind at any representable n.  An exhaustive phase finds a witness
iff one exists, so one index already gives the exact verdict and further
copies could never change it.

The classifier is therefore the exact trichotomy: ``STABBED`` when both
witness kinds exist, ``COVERED`` when only a near one does, ``DISJOINT``
when only a far one does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, EpsParams, Seed, WeightedPointSet, as_point, sq_dists_to
from .hamming import BitCode, HammingEmbedding, code_distance, embed, embed_many, make_embedding


class Verdict(enum.Enum):
    STABBED = "stabbed"
    COVERED = "covered"
    DISJOINT = "disjoint"


@dataclass
class StabIndex:
    """One embedding draw over a subset plus its code buckets."""

    embedding: HammingEmbedding
    buckets: dict[BitCode, np.ndarray]  # code -> sorted local indices
    points: np.ndarray  # (n_subset, d), the indexed coordinates
    params: EpsParams


@dataclass
class WitnessSet:
    """Verified witnesses from one index probe; indices are subset-local."""

    near: int | None
    far: int | None
    near_dist: float | None = None
    far_dist: float | None = None


def build_stab_index(subset: WeightedPointSet, params: EpsParams, seed: Seed) -> StabIndex:
    """Embed ``subset`` and group point indices by code."""
    embedding = make_embedding(subset.dim, max(2, len(subset)), params.eps, seed, radius=params.radius)
    codes = embed_many(embedding, subset.points)
    buckets: dict[BitCode, list[int]] = {}
    for i, code in enumerate(codes):
        buckets.setdefault(code, []).append(i)
    packed = {code: np.asarray(idx, dtype=np.int64) for code, idx in buckets.items()}
    return StabIndex(embedding=embedding, buckets=packed, points=subset.points, params=params)


def _ordered_buckets(idx: StabIndex, q_code: BitCode, descending: bool) -> list[tuple[int, BitCode]]:
    pairs = [(code_distance(code, q_code), code) for code in idx.buckets]
    # equidistant buckets break ties in ascending code order in both phases
    if descending:
        pairs.sort(key=lambda t: (-t[0], t[1]))
    else:
        pairs.sort(key=lambda t: (t[0], t[1]))
    return pairs


def _scan_phase(
    idx: StabIndex,
    q_code: BitCode,
    dists_sq: np.ndarray,
    threshold_sq: float,
    want_within: bool,
    descending: bool,
) -> tuple[int | None, float | None]:
    """Walk buckets in code order until a point passes the exact test.

    ``want_within`` selects the predicate: distance^2 <= threshold_sq for the
    near phase, >= for the far phase.  Returns (index, distance), or
    (None, None) when no point of the subset passes.
    """
    for _dist, code in _ordered_buckets(idx, q_code, descending):
        for i in idx.buckets[code]:
            d2 = dists_sq[i]
            ok = d2 <= threshold_sq if want_within else d2 >= threshold_sq
            if ok:
                return int(i), math.sqrt(d2)
    return None, None


def stab_witnesses(idx: StabIndex, q: np.ndarray) -> WitnessSet:
    """Probe the index for a near and a far witness, re-verified exactly."""
    q = as_point(q, idx.points.shape[1])
    q_code = embed(idx.embedding, q)
    dists_sq = sq_dists_to(idx.points, q)
    outer = idx.params.outer_radius
    near_i, near_d = _scan_phase(idx, q_code, dists_sq, outer * outer, True, descending=False)
    r = idx.params.radius
    far_i, far_d = _scan_phase(idx, q_code, dists_sq, r * r, False, descending=True)
    if near_i is not None:
        assert near_d is not None and near_d <= outer * (1.0 + 1e-12)
    if far_i is not None:
        assert far_d is not None and far_d >= r * (1.0 - 1e-12)
    return WitnessSet(near=near_i, far=far_i, near_dist=near_d, far_dist=far_d)


def build_classifier(subset: WeightedPointSet, params: EpsParams, seed: Seed = Seed(0)) -> StabIndex:
    """Build the stab index a classifier probes over ``subset``."""
    if len(subset) < 2:
        raise ContractViolation("classifiers require subsets of at least 2 points")
    return build_stab_index(subset, params, seed.derive(0))


def classify(c: StabIndex, q: np.ndarray) -> Verdict:
    """Read the verdict off the index's witnesses.

    Both witness kinds: STABBED.  Near only: COVERED.  Far only: DISJOINT.
    Every point is a near or a far witness, so a nonempty subset always
    yields one; the empty-handed case still answers STABBED, so that a
    caller recurses rather than trusts a guess.
    """
    w = stab_witnesses(c, q)
    if w.near is not None and w.far is not None:
        return Verdict.STABBED
    if w.near is not None:
        return Verdict.COVERED
    if w.far is not None:
        return Verdict.DISJOINT
    return Verdict.STABBED
