#!/usr/bin/env python3
"""Walk the distribution-free pipeline end to end on a low-dimensional instance.

Stages printed along the way:
  1. enumerate the grid query universe near the data,
  2. build the low-stabbing spanning tree with multiplicative weight updates,
  3. linearize it and erect the balanced partition tree,
  4. answer queries with prefix-count node verdicts, cross-checking every
     answer against a brute-force oracle sandwich.

Example:
    python3 scripts/worstcase_pipeline.py --n 24 --d 2 --seed 3 --queries 40
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from arccount.core import EpsParams, GridSpec, Seed, WeightedPointSet
from arccount.counter import BuildConfig, WorstCaseSource, build_counting_index, count
from arccount.oracle import exact_range_weight, exact_sigma, exact_tq
from arccount.ptree import visiting_number
from arccount.spantree import LightEdgeParams, build_low_stab_tree, generate_grid_queries


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=24)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--scale", type=float, default=3.0, help="data lives in [0, scale]^d")
    ap.add_argument("--grid-side", type=float, default=0.5, help="query universe spacing")
    ap.add_argument("--queries", type=int, default=40, help="random evaluation queries")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    params = EpsParams(args.eps)
    rng = Seed(args.seed).generator()
    pts = WeightedPointSet(
        rng.uniform(0, args.scale, size=(args.n, args.d)), rng.uniform(0.1, 2.0, size=args.n)
    )

    t0 = time.perf_counter()
    universe = generate_grid_queries(pts, params, GridSpec(args.grid_side))
    print(f"query universe: {len(universe)} grid points within reach of the data")

    tree = build_low_stab_tree(
        pts, universe, params, LightEdgeParams.for_eps(args.eps), Seed(args.seed).derive(1)
    )
    worst = int(universe.stab_exponents.max())
    naive_bound = args.n - 1
    print(
        f"spanning tree: {len(tree.edges)} edges in {time.perf_counter() - t0:.2f}s, "
        f"worst universe stabbing {worst} (a path could be stabbed up to {naive_bound} times)"
    )
    for j in np.argsort(universe.stab_exponents)[-3:][::-1]:
        q = universe.support[j]
        assert exact_sigma(q, tree.edges, pts, params) == universe.stab_exponents[j]
        print(f"  heavy query {np.round(q, 3).tolist()}: stabs {universe.stab_exponents[j]} edges")

    cfg = BuildConfig(eps=args.eps, seed=Seed(args.seed).derive(2), tree_source=WorstCaseSource())
    idx = build_counting_index(pts, cfg)
    depth = idx.tree.depth
    print(f"partition tree: depth {depth}, {len(idx.tree.internal_indices())} internal nodes")

    lo = pts.points.min(axis=0) - 1.0
    hi = pts.points.max(axis=0) + 1.0
    work_set = WeightedPointSet(idx.working_points, pts.weights)
    sandwich_ok = 0
    visits, zetas, ambiguity = [], [], []
    for _ in range(args.queries):
        q = rng.uniform(lo, hi)
        ans = count(idx, q, verify=True)
        inner = exact_range_weight(pts, q, params.radius)
        outer = exact_range_weight(pts, q, params.outer_radius)
        sandwich_ok += inner - 1e-9 <= ans.weight <= outer + 1e-9
        visits.append(ans.visited_nodes)
        zetas.append(visiting_number(idx.tree, q, work_set, idx.working))
        ambiguity.append(exact_tq(q, pts, params))
    print(
        f"queries: {sandwich_ok}/{args.queries} weight-sandwiched, "
        f"visited nodes mean {np.mean(visits):.1f} / max {max(visits)} "
        f"(full tree has {2 * args.n - 1} nodes)"
    )
    print(
        f"predicted visiting mean {np.mean(zetas):.1f}, ambiguity-zone count mean {np.mean(ambiguity):.1f}"
    )
    print(f"total {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
