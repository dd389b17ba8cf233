"""Command line front end.

Subcommands: ``gen`` (synthetic datasets), ``gen-queries`` (query sets),
``build`` (fit and save an index), ``query`` (one count), ``eval``
(holdout evaluation with oracle cross-checks), and ``oracle`` (exact
answers only).  Exit codes: 0 on success, 2 for malformed input files,
3 for configuration contract violations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .core import ContractViolation, EpsParams, Seed, WeightedPointSet
from .counter import BuildConfig, LearnedSource, WorstCaseSource, build_counting_index, count
from .io import (
    FileFormatError,
    load_model,
    read_points,
    read_query_sample,
    save_model,
    write_points,
    write_query_sample,
    write_report,
)
from .learned import (
    QuerySample,
    default_sample_size,
    evaluate_visiting,
    near_data_queries,
    uniform_queries,
)
from .oracle import exact_range_weight, exact_tq
from .spantree import LightEdgeParams, default_rho

_AUTO_SAMPLE_CAP = 16384


def _parse_point(text: str) -> np.ndarray:
    vals = [float(tok) for tok in text.replace(",", " ").split()]
    if not vals:
        raise ContractViolation("empty query point")
    return np.asarray(vals)


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = Seed(args.seed).generator()
    n, d = args.n, args.d
    if n < 1 or d < 1:
        raise ContractViolation(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if args.kind == "uniform":
        points = rng.uniform(0.0, args.scale, size=(n, d))
    elif args.kind == "clusters":
        centers = rng.uniform(0.0, args.scale, size=(args.k_clusters, d))
        who = rng.integers(0, args.k_clusters, size=n)
        points = centers[who] + rng.normal(0.0, args.cluster_sigma, size=(n, d))
    else:  # grid
        side = math.ceil(n ** (1.0 / d))
        mesh = np.stack(np.meshgrid(*[np.arange(side)] * d, indexing="ij"), axis=-1)
        points = mesh.reshape(-1, d)[:n].astype(np.float64) * args.spacing
    if args.random_weights and args.kind != "grid":
        weights = rng.uniform(0.1, 2.0, size=n)
    else:
        weights = np.ones(n)
    write_points(args.out, WeightedPointSet(points, weights), binary=args.binary)
    return 0


def _cmd_gen_queries(args: argparse.Namespace) -> int:
    seed = Seed(args.seed)
    if args.kind == "file":
        if args.data is None:
            raise ContractViolation("gen-queries --kind file needs --data pointing at the source")
        sample = read_query_sample(args.data)
    elif args.kind == "uniform":
        pts = read_points(args.data)
        lo = pts.points.min(axis=0) - args.margin
        hi = pts.points.max(axis=0) + args.margin
        sample = uniform_queries(args.m, lo, hi, seed)
    else:  # near-data
        pts = read_points(args.data)
        sample = near_data_queries(pts, args.m, args.sigma, seed)
    write_query_sample(args.out, sample, binary=args.binary)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    pts = read_points(args.data)
    seed = Seed(args.seed)
    if args.mode == "worstcase":
        light = None
        if args.rho is not None:
            light = LightEdgeParams(rho=args.rho)
        source: WorstCaseSource | LearnedSource = WorstCaseSource(light=light, grid_side=args.query_grid_side)
    else:
        if args.queries is not None:
            sample = read_query_sample(args.queries)
        else:
            m = args.m_queries or min(
                default_sample_size(len(pts), pts.dim, 0.1), _AUTO_SAMPLE_CAP
            )
            sample = near_data_queries(pts, m, args.sigma, seed.derive(17))
        source = LearnedSource(sample=sample)
    cfg = BuildConfig(
        eps=args.eps,
        radius=args.radius,
        seed=seed,
        tree_source=source,
        jl_enabled=True if args.jl_dim is not None else None,
        jl_target_dim=args.jl_dim,
        snap_queries=args.snap,
        grid_side=args.grid_side,
    )
    idx = build_counting_index(pts, cfg)
    save_model(args.out_model, idx, args.data)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    idx = load_model(args.model, args.data)
    q = _parse_point(args.q)
    ans = count(idx, q, verify=args.verify)
    doc = {
        "weight": ans.weight,
        "visited_nodes": ans.visited_nodes,
        "verdict_counts": ans.verdict_counts,
    }
    if args.verify:
        doc["member_ranges"] = [[int(lo), int(hi)] for lo, hi in ans.member_ranges]
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    idx = load_model(args.model, args.data)
    load_seconds = time.perf_counter() - t0
    pts = read_points(args.data)
    holdout = read_query_sample(args.queries)
    params = EpsParams(idx.config.eps, idx.config.radius)

    times = []
    for q in holdout.queries:
        t1 = time.perf_counter()
        count(idx, q)
        times.append((time.perf_counter() - t1) * 1e6)
    report = evaluate_visiting(idx, holdout, pts, params)

    source = idx.config.tree_source
    doc = {
        "n": len(pts),
        "d": pts.dim,
        "eps": idx.config.eps,
        "tree_source": "worstcase" if isinstance(source, WorstCaseSource) else "learned",
        "mean_visiting": report.mean_visiting,
        "mean_tq": report.mean_tq,
        "sandwich_pass_rate": report.sandwich_pass_rate,
        "holdout_overlaps_training": report.holdout_overlaps_training,
        "load_seconds": load_seconds,
        "query_microseconds_p50": float(np.percentile(times, 50)),
        "query_microseconds_p90": float(np.percentile(times, 90)),
    }
    if args.per_query:
        doc["per_query"] = report.per_query
    write_report(args.out_report, doc)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    pts = read_points(args.data)
    q = _parse_point(args.q)
    params = EpsParams(args.eps, args.radius)
    doc = {
        "weight_inner": exact_range_weight(pts, q, params.radius),
        "weight_outer": exact_range_weight(pts, q, params.outer_radius),
        "t_q": exact_tq(q, pts, params),
        "radius": params.radius,
        "eps": params.eps,
    }
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="arccount", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic weighted point set")
    g.add_argument("--kind", choices=["uniform", "clusters", "grid"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--scale", type=float, default=4.0)
    g.add_argument("--k-clusters", type=int, default=4)
    g.add_argument("--cluster-sigma", type=float, default=0.4)
    g.add_argument("--spacing", type=float, default=1.0)
    g.add_argument("--random-weights", action="store_true")
    g.add_argument("--binary", action="store_true")
    g.set_defaults(fn=_cmd_gen)

    q = sub.add_parser("gen-queries", help="generate or convert a query set")
    q.add_argument("--kind", choices=["uniform", "near-data", "file"], required=True)
    q.add_argument("--m", type=int, default=256)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--data", help="point set the queries relate to (or source file for --kind file)")
    q.add_argument("--sigma", type=float, default=0.5)
    q.add_argument("--margin", type=float, default=1.5)
    q.add_argument("--binary", action="store_true")
    q.set_defaults(fn=_cmd_gen_queries)

    b = sub.add_parser("build", help="build a counting index and save the model")
    b.add_argument("--data", required=True)
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--radius", type=float, default=1.0)
    b.add_argument("--mode", choices=["worstcase", "learned"], required=True)
    b.add_argument("--queries", help="training queries for learned mode")
    b.add_argument("--m-queries", type=int, help="auto-sample size for learned mode")
    b.add_argument("--sigma", type=float, default=0.5, help="noise for auto-sampled queries")
    b.add_argument("--rho", type=float, help="net exponent for worstcase mode")
    b.add_argument("--query-grid-side", type=float, help="query universe grid side, worstcase mode")
    b.add_argument("--snap", action="store_true", help="snap queries to a grid before counting")
    b.add_argument("--jl-dim", type=int, help="project to this dimension before building")
    b.add_argument("--grid-side", type=float, help="query snap grid side")
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--out-model", required=True)
    b.set_defaults(fn=_cmd_build)

    r = sub.add_parser("query", help="answer one query from a saved model")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--q", required=True, help="query point, comma or space separated")
    r.add_argument("--verify", action="store_true")
    r.set_defaults(fn=_cmd_query)

    e = sub.add_parser("eval", help="evaluate a model on a query file")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--queries", required=True)
    e.add_argument("--out-report", required=True)
    e.add_argument("--per-query", action="store_true")
    e.set_defaults(fn=_cmd_eval)

    o = sub.add_parser("oracle", help="exact range weights by linear scan")
    o.add_argument("--data", required=True)
    o.add_argument("--q", required=True)
    o.add_argument("--eps", type=float, required=True)
    o.add_argument("--radius", type=float, default=1.0)
    o.set_defaults(fn=_cmd_oracle)

    return top


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
