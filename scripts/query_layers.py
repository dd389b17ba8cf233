#!/usr/bin/env python3
"""Microseconds per query of each query phase, beside two linear scans, per benchmark workload.

Builds each workload's index from the benchmark's own inputs and
configuration (``bench/harness.py``'s ``make_inputs`` and
``build_config``), with one BLAS thread as the benchmark runs, and times
in-process passes over the 200 timed pool queries:

* ``check_us``: the check of a query that every entry makes,
  ``core.point_and_norm(q, d)``;
* ``masks_us``: the certified pass at both working radii,
  ``counter._within`` on the index's operands, on the queries as the
  check gave them, with their norms;
* ``walk_us``: the tree walk on those two masks, ``ptree.walk``: the
  codes' running count, the verdicts of every node and the gather
  through the parents;
* ``count_us``: ``count``, the answer without its telemetry: one
  certified pass at the outer radius and a masked sum;
* ``telemetry_us``: ``count`` and a read of the answer's
  ``visited_nodes``, which runs the pass at both radii and the tree walk;
* ``verify_us``: ``count(idx, q, verify=True)``, the verified answer that
  the audit reads: the pass at both radii, the walk and the check that
  its member ranges cover exactly the summed mask;
* ``eval_us``: one ``counter.evaluate_visiting`` of the index over the
  timed pool queries as its holdout, per query: each answer verified,
  walked and audited against the closed balls at the full error;
* ``einsum_scan_us``: the benchmark's reference scan,
  ``w[einsum(p - q) <= r**2].sum()``;
* ``gemv_scan_us``: the same scan with ``d2 = pp - 2 P @ q + q . q``, one
  BLAS matrix-vector product against squared norms ``pp`` computed
  beforehand.

The phases' passes are interleaved: each of ``--passes`` rounds runs
every phase once, in turn, and each figure is its phase's best pass,
divided by the number of queries.  A slow stretch of a shared machine
then spreads over every phase instead of landing on one.
``count_over_gemv`` is ``count_us / gemv_scan_us``: how far the answer
is from a plain GEMV scan of the same points, the ratio the performance
goal tracks.  ``band_queries`` counts the queries of which the
pass at both radii measures some point again with ``sq_dists_to``: those
with a point within the certified pass's rounding bound of a radius.  One
JSON line per workload and seed.

Example:
    PYTHONPATH=src python3 scripts/query_layers.py --seeds 1
"""

from __future__ import annotations

import os

# as in bench/run.py: BLAS threads are fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from harness import RADIUS, TIMED_QUERIES, WORKLOADS, build_config, make_inputs  # noqa: E402

import arccount  # noqa: E402
from arccount import counter  # noqa: E402
from arccount.core import point_and_norm  # noqa: E402
from arccount.ptree import walk  # noqa: E402


def interleaved_best_us(phases: dict, passes: int) -> dict[str, float]:
    """Per phase, the best of ``passes`` runs of its ``fn`` on every item of its ``args``, per item, in us.

    ``phases`` maps each name to ``(fn, args)``; each round runs every
    phase once, in the order given.
    """
    best = dict.fromkeys(phases, float("inf"))
    for _ in range(passes):
        for name, (fn, args) in phases.items():
            t0 = time.perf_counter()
            for a in args:
                fn(a)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: best[name] / len(args) * 1e6 for name, (_, args) in phases.items()}


def band_queries(masks, checked: list) -> int:
    """How many of the checked queries send some point of ``masks`` to ``sq_dists_to``."""
    with mock.patch.object(counter, "sq_dists_to", wraps=counter.sq_dists_to) as exact:
        banded = 0
        for c in checked:
            calls = exact.call_count
            masks(c)
            banded += exact.call_count > calls
    return banded


def query_layers(workload: str, seed: int, passes: int) -> dict:
    inputs = make_inputs(WORKLOADS[workload], seed)
    idx = arccount.build_counting_index(inputs.points, build_config(inputs, seed))
    queries = list(inputs.pool[:TIMED_QUERIES])
    holdout = arccount.QuerySample(inputs.pool[:TIMED_QUERIES], source="pool")
    d = inputs.points.dim
    checked = [point_and_norm(q, d) for q in queries]
    ops = idx.operands
    thresholds = (ops.outer_sq, ops.inner_sq)

    def masks(c: tuple) -> list:
        qw, _, norm = c
        return counter._within(ops, qw, norm, thresholds)

    both = [masks(c) for c in checked]
    p, w, r2 = inputs.points.points, inputs.points.weights, RADIUS * RADIUS
    pp = np.einsum("ij,ij->i", p, p)

    def einsum_scan(q: np.ndarray) -> float:
        diff = p - q
        return w[np.einsum("ij,ij->i", diff, diff) <= r2].sum()

    def gemv_scan(q: np.ndarray) -> float:
        d2 = p.dot(-2.0 * q)
        d2 += pp
        d2 += q @ q
        return w[d2 <= r2].sum()

    us = interleaved_best_us(
        {
            "check": (lambda q: point_and_norm(q, d), queries),
            "masks": (masks, checked),
            "walk": (lambda m: walk(idx.tree, *m), both),
            "count": (lambda q: arccount.count(idx, q), queries),
            "telemetry": (lambda q: arccount.count(idx, q).visited_nodes, queries),
            "verify": (lambda q: arccount.count(idx, q, verify=True), queries),
            "eval": (lambda h: counter.evaluate_visiting(idx, h), [holdout]),
            "einsum_scan": (einsum_scan, queries),
            "gemv_scan": (gemv_scan, queries),
        },
        passes,
    )
    us["eval"] /= len(queries)
    row = {
        "workload": workload,
        "seed": seed,
        "n": len(inputs.points),
        "d": inputs.points.dim,
        "queries": len(queries),
        "band_queries": band_queries(masks, checked),
    }
    row.update({f"{phase}_us": value for phase, value in us.items()})
    row["count_over_gemv"] = row["count_us"] / row["gemv_scan_us"]
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--passes", type=int, default=7)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    for name in args.workloads:
        for seed in args.seeds:
            row = query_layers(name, seed, args.passes)
            print(json.dumps({k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}), flush=True)


if __name__ == "__main__":
    main()
