"""Approximate spherical range counting for weighted points.

Given n weighted points and an error parameter eps, the index answers
queries q with the exact total weight of some point set S satisfying

    B(q, r) intersect P  <=  S  <=  B(q, (1+eps) r) intersect P,

trading the boundary ambiguity for sublinear query structure.  Build a
spanning tree with low stabbing number (worst-case via multiplicative
weights over a grid query universe, or learned from a query sample) and
fold it into a balanced partition tree.  A query decides every node from
prefix counts of near and far points along the tree's point order.
"""

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, eps_stabs
from .counter import (
    BuildConfig,
    CountAnswer,
    CountingIndex,
    LearnedSource,
    WorstCaseSource,
    build_counting_index,
    count,
)
from .learned import QuerySample, default_sample_size, learned_spanning_tree, pair_stab_counts
from .spantree import Edge, LightEdgeParams, SpanningTree

__all__ = [
    "BuildConfig",
    "ContractViolation",
    "CountAnswer",
    "CountingIndex",
    "Edge",
    "EpsParams",
    "GridSpec",
    "LearnedSource",
    "LightEdgeParams",
    "QuerySample",
    "Seed",
    "SpanningTree",
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
