#!/usr/bin/env python3
"""Walk the distribution-free pipeline end to end on a low-dimensional instance.

Stages printed along the way:
  1. enumerate the grid query universe near the data,
  2. build the low-stabbing spanning tree with multiplicative weight updates,
  3. linearize it and erect the balanced partition tree over its path,
  4. audit random queries with ``evaluate_visiting``, as ``arccount eval``
     does: each verified answer set against the exact balls of the
     full-error sandwich, its visiting number and its ambiguity-zone count.

The universe and the tree are built at the index's working error eps/2,
and the index adopts the tree's leaf order, so the printed stabbing and
visits describe one tree.  Exits 1 when the audit's sandwich pass rate is
below 1.0.

Example:
    python3 scripts/worstcase_pipeline.py --n 24 --d 2 --seed 3 --queries 40
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from arccount.core import GridSpec, Seed, WeightedPointSet
from arccount.counter import BuildConfig, StoredOrder, WorstCaseSource, build_counting_index, evaluate_visiting
from arccount.learned import QuerySample
from arccount.oracle import exact_sigma
from arccount.ptree import tree_to_path
from arccount.spantree import LightEdgeParams, build_low_stab_tree, generate_grid_queries


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=24)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--scale", type=float, default=3.0, help="data lives in [0, scale]^d")
    ap.add_argument("--query-grid-side", type=float, default=0.5, help="query universe spacing")
    ap.add_argument("--queries", type=int, default=40, help="random evaluation queries")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    if args.queries < 1:
        ap.error("--queries must be at least 1")

    cfg = BuildConfig(eps=args.eps, seed=Seed(args.seed), tree_source=WorstCaseSource(args.query_grid_side))
    rng = Seed(args.seed).generator()
    pts = WeightedPointSet(
        rng.uniform(0, args.scale, size=(args.n, args.d)), rng.uniform(0.1, 2.0, size=args.n)
    )

    # the index answers at its config's working error eps/2, so the universe
    # and the tree are built there, and the index adopts the tree's leaf
    # order: the stabbing printed below is that of the tree whose visits it prints
    working = cfg.working
    t0 = time.perf_counter()
    universe = generate_grid_queries(pts, working, GridSpec(args.query_grid_side))
    print(f"query universe: {len(universe)} grid points within reach of the data")

    tree = build_low_stab_tree(
        pts, universe, working, LightEdgeParams.for_eps(working.eps), Seed(args.seed).derive(1)
    )
    worst = int(universe.stab_exponents.max())
    naive_bound = args.n - 1
    print(
        f"spanning tree: {len(tree.edges)} edges in {time.perf_counter() - t0:.2f}s, "
        f"worst universe stabbing {worst} (a path could be stabbed up to {naive_bound} times)"
    )
    for j in np.argsort(universe.stab_exponents)[-3:][::-1]:
        q = universe.support[j]
        assert exact_sigma(q, tree.edges, pts, working) == universe.stab_exponents[j]
        print(f"  heavy query {np.round(q, 3).tolist()}: stabs {universe.stab_exponents[j]} edges")

    order = StoredOrder(tree_to_path(tree, pts), kind="worstcase")
    idx = build_counting_index(pts, dataclasses.replace(cfg, tree_source=order))
    print(f"partition tree: depth {idx.tree.depth}, {args.n - 1} internal nodes")

    lo = pts.points.min(axis=0) - 1.0
    hi = pts.points.max(axis=0) + 1.0
    queries = rng.uniform(lo, hi, size=(args.queries, args.d))
    report = evaluate_visiting(idx, QuerySample(queries, source="random box"))
    rows = report.per_query
    print(
        f"queries: {sum(r['sandwich_ok'] for r in rows)}/{args.queries} answer sets sandwiched, "
        f"visited nodes mean {report.mean_visiting:.1f} / max {max(r['visiting'] for r in rows)} "
        f"(full tree has {2 * args.n - 1} nodes)"
    )
    print(f"ambiguity-zone count mean {report.mean_tq:.1f} at the full eps {args.eps}")
    print(f"total {time.perf_counter() - t0:.2f}s")
    if report.sandwich_pass_rate < 1.0:
        sys.exit(1)


if __name__ == "__main__":
    main()
