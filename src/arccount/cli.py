"""Command line front end.

Subcommands: ``gen`` (synthetic datasets), ``gen-queries`` (query sets),
``build`` (fit and save an index), ``query`` (one count), ``eval``
(holdout evaluation, each answer checked against exact balls), and
``oracle`` (exact answers only).  Exit codes: 0 on success, 2 for malformed input files
and files that cannot be read or written, 3 for configuration contract
violations, and 4 when ``eval`` finds an answer outside the sandwich
(its report is written first).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .core import ContractViolation, EpsParams, Seed, WeightedPointSet, as_point
from .counter import BuildConfig, LearnedSource, WorstCaseSource, build_counting_index, count, evaluate_visiting
from .io import (
    FileFormatError,
    file_digest,
    load_model,
    read_points,
    read_query_sample,
    save_model,
    write_points,
    write_query_sample,
    write_report,
)
from .learned import default_sample_size, near_data_queries, uniform_queries
from .oracle import exact_range_weight, exact_tq

_AUTO_SAMPLE_CAP = 16384
# rows times columns of any array the CLI generates: 2**26 float64 values
# are 512 MiB, and gen --kind clusters holds three such arrays at once
_MAX_CELLS = 2**26


def _parse_point(text: str) -> np.ndarray:
    fields = text.split(",")
    if len(fields) > 1 and not all(f.strip() for f in fields):
        raise ContractViolation(f"query point {text!r} has an empty field")
    try:
        vals = [float(tok) for f in fields for tok in f.split()]
    except ValueError as exc:
        raise ContractViolation(f"query point {text!r} is not a list of numbers") from exc
    if not vals:
        raise ContractViolation(f"query point {text!r} is empty")
    if not all(math.isfinite(v) for v in vals):
        raise ContractViolation(f"query point {text!r} has non-finite coordinates")
    return np.asarray(vals)


def _check_cells(what: str, rows: int, cols: int) -> None:
    """Refuse an array of ``rows`` x ``cols`` values past ``_MAX_CELLS``, before it is allocated."""
    if rows * cols > _MAX_CELLS:
        raise ContractViolation(f"{what} would be {rows} x {cols} values, over the limit of {_MAX_CELLS}")


def _refuse_unread(command: str, options: list[tuple[str, object, bool]]) -> None:
    """Refuse each (flag, value, read) option that was set (not None) but that ``command`` does not read."""
    unread = [flag for flag, value, read in options if value is not None and not read]
    if unread:
        raise ContractViolation(f"{command} does not read {', '.join(unread)}")


def _grid_side(n: int, d: int) -> int:
    """The least s with ``s**d >= n``, the side of the smallest d-dimensional lattice of n points.

    ``ceil`` of the float root overshoots by one where the root of an exact
    power rounds up, as ``3125 ** 0.2`` does, and only there: for the n the
    generator accepts the root errs far less than its distance to the
    next integer.
    """
    side = math.ceil(n ** (1.0 / d))
    return side - 1 if (side - 1) ** d >= n else side


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    _refuse_unread(
        f"gen --kind {kind}",
        [
            ("--scale", args.scale, kind != "grid"),
            ("--k-clusters", args.k_clusters, kind == "clusters"),
            ("--cluster-sigma", args.cluster_sigma, kind == "clusters"),
            ("--spacing", args.spacing, kind == "grid"),
            ("--random-weights", args.random_weights, kind != "grid"),
        ],
    )
    n, d = args.n, args.d
    if n < 1 or d < 1:
        raise ContractViolation(f"need n and d >= 1, got {n} and {d}")
    scale = 4.0 if args.scale is None else args.scale
    k = 4 if args.k_clusters is None else args.k_clusters
    sigma = 0.4 if args.cluster_sigma is None else args.cluster_sigma
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ContractViolation(f"need a finite --scale >= 0, got {scale}")
    if k < 1 or not sigma >= 0.0:
        raise ContractViolation(f"need --k-clusters >= 1 and --cluster-sigma >= 0, got {k} and {sigma}")
    _check_cells("the points (--n x --d)", n, d)
    _check_cells("the cluster centres (--k-clusters x --d)", k, d)
    rng = Seed(args.seed).generator()
    if kind == "uniform":
        points = rng.uniform(0.0, scale, size=(n, d))
    elif kind == "clusters":
        centers = rng.uniform(0.0, scale, size=(k, d))
        who = rng.integers(0, k, size=n)
        points = centers[who] + rng.normal(0.0, sigma, size=(n, d))
    else:  # grid
        spacing = 1.0 if args.spacing is None else args.spacing
        # row k is the d base-side digits of k, most significant first
        side = _grid_side(n, d)
        digits = np.empty((n, d), dtype=np.int64)
        rest = np.arange(n)
        for j in range(d - 1, -1, -1):
            rest, digits[:, j] = np.divmod(rest, side)
        points = digits.astype(np.float64) * spacing
    weights = rng.uniform(0.1, 2.0, size=n) if args.random_weights else np.ones(n)
    write_points(args.out, WeightedPointSet(points, weights), binary=args.binary)
    return 0


def _cmd_gen_queries(args: argparse.Namespace) -> int:
    kind = args.kind
    sampled = kind != "file"
    _refuse_unread(
        f"gen-queries --kind {kind}",
        [
            ("--m", args.m, sampled),
            ("--seed", args.seed, sampled),
            ("--sigma", args.sigma, kind == "near-data"),
            ("--margin", args.margin, kind == "uniform"),
        ],
    )
    if args.data is None:
        raise ContractViolation(f"gen-queries --kind {kind} needs --data")
    m = 256 if args.m is None else args.m
    seed = Seed(0 if args.seed is None else args.seed)
    if kind == "file":
        sample = read_query_sample(args.data)
    else:
        pts = read_points(args.data)
        _check_cells("the queries (--m x the data's d)", m, pts.dim)
        if kind == "uniform":
            margin = 1.5 if args.margin is None else args.margin
            if not math.isfinite(margin):
                raise ContractViolation(f"--margin must be finite, got {margin}")
            lo = pts.points.min(axis=0) - margin
            hi = pts.points.max(axis=0) + margin
            sample = uniform_queries(m, lo, hi, seed)
        else:  # near-data
            sample = near_data_queries(pts, m, 0.5 if args.sigma is None else args.sigma, seed)
    write_query_sample(args.out, sample, binary=args.binary)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    learned = args.mode == "learned"
    sampled = learned and args.queries is None
    mode = f"--mode {args.mode}" + (" --queries" if learned and not sampled else "")
    _refuse_unread(
        f"build {mode}",
        [
            ("--queries", args.queries, learned),
            ("--m-queries", args.m_queries, sampled),
            ("--sigma", args.sigma, sampled),
            ("--query-grid-side", args.query_grid_side, not learned),
        ],
    )
    # the digest is taken before the read: a file that changes after it is refused by the save
    digest = file_digest(args.data)
    pts = read_points(args.data)
    seed = Seed(args.seed)
    if not learned:
        source: WorstCaseSource | LearnedSource = WorstCaseSource(grid_side=args.query_grid_side)
    else:
        if args.queries is not None:
            sample = read_query_sample(args.queries)
        else:
            m = args.m_queries
            if m is None:
                # the size formula needs n >= 2; a one-point file still builds
                m = min(default_sample_size(max(2, len(pts)), pts.dim, 0.1), _AUTO_SAMPLE_CAP)
            sigma = 0.5 if args.sigma is None else args.sigma
            _check_cells("the training queries (--m-queries x the data's d)", m, pts.dim)
            sample = near_data_queries(pts, m, sigma, seed.derive(17))
        source = LearnedSource(sample=sample)
    cfg = BuildConfig(eps=args.eps, radius=args.radius, seed=seed, tree_source=source)
    idx = build_counting_index(pts, cfg)
    save_model(args.out_model, idx, args.data, read=(pts, digest))
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
    holdout = read_query_sample(args.queries)

    # the weight alone: the telemetry is not read, so the tree walk does not run
    times = []
    for q in holdout.queries:
        t1 = time.perf_counter()
        count(idx, q)
        times.append((time.perf_counter() - t1) * 1e6)
    report = evaluate_visiting(idx, holdout)

    doc = {
        "n": len(idx.path_points),
        "d": idx.path_points.shape[1],
        "eps": idx.config.eps,
        "tree_source": idx.config.tree_source.kind,
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
    if report.sandwich_pass_rate < 1.0:
        print(f"error: sandwich_pass_rate {report.sandwich_pass_rate} is below 1.0", file=sys.stderr)
        return 4
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    pts = read_points(args.data)
    q = as_point(_parse_point(args.q), pts.dim)
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
    g.add_argument("--scale", type=float, help="box side, uniform and clusters (default 4.0)")
    g.add_argument("--k-clusters", type=int, help="number of clusters, clusters (default 4)")
    g.add_argument("--cluster-sigma", type=float, help="noise around each centre, clusters (default 0.4)")
    g.add_argument("--spacing", type=float, help="lattice spacing, grid (default 1.0)")
    g.add_argument("--random-weights", action="store_true", default=None, help="uniform and clusters")
    g.add_argument("--binary", action="store_true")
    g.set_defaults(fn=_cmd_gen)

    q = sub.add_parser("gen-queries", help="generate or convert a query set")
    q.add_argument("--kind", choices=["uniform", "near-data", "file"], required=True)
    q.add_argument("--m", type=int, help="number of queries, uniform and near-data (default 256)")
    q.add_argument("--seed", type=int, help="uniform and near-data (default 0)")
    q.add_argument("--out", required=True)
    q.add_argument("--data", help="point set the queries relate to (or source file for --kind file)")
    q.add_argument("--sigma", type=float, help="noise around each data point, near-data (default 0.5)")
    q.add_argument("--margin", type=float, help="margin around the data's box, uniform (default 1.5)")
    q.add_argument("--binary", action="store_true")
    q.set_defaults(fn=_cmd_gen_queries)

    b = sub.add_parser("build", help="build a counting index and save the model")
    b.add_argument("--data", required=True)
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--radius", type=float, default=1.0)
    b.add_argument("--mode", choices=["worstcase", "learned"], required=True)
    b.add_argument("--queries", help="training queries for learned mode")
    b.add_argument("--m-queries", type=int, help="auto-sample size for learned mode without --queries")
    b.add_argument("--sigma", type=float, help="noise for auto-sampled queries (default 0.5)")
    b.add_argument("--query-grid-side", type=float, help="query universe grid side, worstcase mode")
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
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
