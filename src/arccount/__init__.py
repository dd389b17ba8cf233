"""Approximate spherical range counting for weighted points.

Given n weighted points and an error parameter eps, the index answers
queries q with the exact total weight of some point set S satisfying

    B(q, r) intersect P  <=  S  <=  B(q, (1+eps) r) intersect P,

trading the boundary ambiguity for sublinear query structure.  Build a
spanning tree with low stabbing number (worst-case via multiplicative
weights over a grid query universe, or learned from a query sample) and
fold it into a balanced partition tree.  A query decides every node from
one running count of per-point codes along the tree's point order: 0
outside the outer ball, 1 in the annulus between the balls, 2 inside the
inner ball.
"""

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, eps_stabs
from .counter import (
    BuildConfig,
    CountAnswer,
    CountingIndex,
    LearnedSource,
    StoredOrder,
    WorstCaseSource,
    build_counting_index,
    count,
)
from .learned import QuerySample, default_sample_size, learned_spanning_tree, pair_stab_counts
from .spantree import Edge, SpanningTree

__all__ = [
    "BuildConfig",
    "ContractViolation",
    "CountAnswer",
    "CountingIndex",
    "Edge",
    "EpsParams",
    "GridSpec",
    "LearnedSource",
    "QuerySample",
    "Seed",
    "SpanningTree",
    "StoredOrder",
    "WeightedPointSet",
    "WorstCaseSource",
    "build_counting_index",
    "count",
    "default_sample_size",
    "eps_stabs",
    "learned_spanning_tree",
    "pair_stab_counts",
]

__version__ = "0.1.0"
