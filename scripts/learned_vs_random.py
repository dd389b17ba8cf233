#!/usr/bin/env python3
"""Paired experiment: learned spanning trees versus random ones.

For each instance, draw a clustered point set, fit a spanning tree to a
training query sample, and compare its mean visiting number on held-out
queries against a uniformly random spanning tree on the same points.  The
summary reports per-instance means, the win count, and a one-sided sign
test p-value.

Example:
    python3 scripts/learned_vs_random.py --instances 20 --n 48 --d 4 \
        --seed 7 --out /tmp/learned_vs_random.json
"""

from __future__ import annotations

import argparse
import json

import numpy as np
from scipy import stats

from arccount.core import EpsParams, Seed, WeightedPointSet
from arccount.learned import learned_spanning_tree, near_data_queries, pair_stab_counts
from arccount.oracle import _pruefer_decode, exact_visiting_oracle
from arccount.ptree import tree_to_path
from arccount.spantree import Edge, SpanningTree


def random_spanning_tree(n: int, rng: np.random.Generator) -> SpanningTree:
    """The tree of a uniform Pruefer sequence; n == 2 has one tree and draws nothing."""
    seq = rng.integers(0, n, size=n - 2).tolist() if n > 2 else []
    return SpanningTree(n, [Edge(a, b) for a, b in _pruefer_decode(seq, n)])


def clustered_instance(n: int, d: int, k: int, sigma: float, rng: np.random.Generator) -> WeightedPointSet:
    centers = rng.uniform(0, 4, size=(k, d))
    who = rng.integers(0, k, size=n)
    return WeightedPointSet(centers[who] + rng.normal(scale=sigma, size=(n, d)), np.ones(n))


def run_one(k: int, args: argparse.Namespace) -> dict:
    params = EpsParams(args.eps)
    rng = Seed(args.seed).derive(k).generator()
    pts = clustered_instance(args.n, args.d, args.clusters, args.cluster_sigma, rng)

    train = near_data_queries(pts, args.train_queries, sigma=0.3, seed=Seed(args.seed).derive(k, 1))
    counts = pair_stab_counts(pts, train, params)
    learned_order = tree_to_path(learned_spanning_tree(counts, args.n), pts).order
    random_order = tree_to_path(random_spanning_tree(args.n, rng), pts).order

    holdout = near_data_queries(pts, args.holdout_queries, sigma=0.3, seed=Seed(args.seed).derive(k, 2))
    learned_mean = float(
        np.mean([exact_visiting_oracle(learned_order, pts, q, params) for q in holdout.queries])
    )
    random_mean = float(
        np.mean([exact_visiting_oracle(random_order, pts, q, params) for q in holdout.queries])
    )
    return {"instance": k, "learned_mean_visiting": learned_mean, "random_mean_visiting": random_mean}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--clusters", type=int, default=3)
    ap.add_argument("--cluster-sigma", type=float, default=0.15)
    ap.add_argument("--train-queries", type=int, default=400)
    ap.add_argument("--holdout-queries", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="write the full JSON summary here")
    args = ap.parse_args()

    rows = [run_one(k, args) for k in range(args.instances)]
    wins = sum(r["learned_mean_visiting"] < r["random_mean_visiting"] for r in rows)
    ties = sum(r["learned_mean_visiting"] == r["random_mean_visiting"] for r in rows)
    effective = args.instances - ties
    pvalue = float(stats.binomtest(wins, max(1, effective), 0.5, alternative="greater").pvalue)

    summary = {
        "config": vars(args) | {"out": None},
        "per_instance": rows,
        "wins": wins,
        "ties": ties,
        "sign_test_pvalue": pvalue,
        "mean_learned": float(np.mean([r["learned_mean_visiting"] for r in rows])),
        "mean_random": float(np.mean([r["random_mean_visiting"] for r in rows])),
    }

    for r in rows:
        print(
            f"instance {r['instance']:3d}: learned {r['learned_mean_visiting']:7.2f}"
            f"  random {r['random_mean_visiting']:7.2f}"
        )
    print(f"\nwins {wins}/{args.instances} (ties {ties}), sign test p = {pvalue:.3g}")
    print(f"mean visiting: learned {summary['mean_learned']:.2f}, random {summary['mean_random']:.2f}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
