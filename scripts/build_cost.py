#!/usr/bin/env python3
"""Build seconds, peak RSS, model size and load time of one index per n, each in a fresh process.

For every n the benchmark's generator for ``--workload`` (``bench/harness.py``'s
``make_inputs``) makes the inputs at that n: for near-d8, four clusters in
d = 8, weighted points and 16384 near-data training queries, built into a
learned index; for worstcase-d2, n weighted points uniform in a square in
d = 2, built into a worst-case index.  A fresh Python process builds one
index from them with the benchmark's ``build_config``, with one BLAS
thread, as the benchmark runs.  Each n prints one JSON line: the seconds
of ``import arccount`` in that process, timed alone first, and its peak
resident set size right after (``ru_maxrss``, in MiB as the benchmark's
``build_peak_rss_mb``), the build's wall seconds, the peak resident set
size before the build and after it, and a sha256 of the index's leaf
order; worstcase-d2 adds the size of the grid query universe.  The last
RSS difference is the build's own peak above the inputs and the imported
libraries.  Two checkouts that print the same hash built the same tree.
With ``--expect FILE`` the script also exits 1 when a build's
``<workload> n <n> seed <seed> <leaf_order_sha256>`` line is missing from
FILE or differs from the hash FILE holds for that workload, n and seed;
``scripts/leaf_order_hashes.txt`` holds the near-d8 hashes at n 1024, 2048
and 4096, seed 1.  ``--one``, the single in-process build the script runs
for each n, refuses ``--expect``.
Each build adds its two layers, each the best of 3 in-process calls after
the build on the build's own inputs.  A learned build prints
``stab_counts_s``, the sampled stab counts (``learned.pair_stab_counts``),
and ``spanning_tree_s``, the tree over them
(``learned.learned_spanning_tree``).  A worst-case build prints
``universe_s``, the grid query universe (``spantree.generate_grid_queries``),
and ``light_edges_s``, the multiplicative weights game over a fresh copy
of it (``spantree.build_low_stab_tree``).  Every build prints
``tree_shape_ms``, the best of 3 first reads of the node arrays
(``tree.nodes``) of a fresh partition tree over the index's leaf order,
each tree made before its timer starts: the level loop that lays them
out, which the walk runs on its first need and a load or an answer never
does.
The index is then saved against a text data file of its points, as the
benchmark saves it: ``model_bytes`` is the model file's size,
``load_ms`` the best of 15 ``load_model`` calls in the same process, each
after a ``gc.collect()``, and ``loaded_index_mib`` the bytes of the
distinct buffers that the loaded index's numpy arrays keep alive, each
counted once, before any telemetry read: the tree's node arrays are not
among them.  An array that owns its data counts its ``nbytes``; a view
counts the whole buffer under it once, so a loaded index, whose points
and weights are views of the one read of its model file, counts that
read, header and order bytes included.

Example, comparing this checkout against another one at ``../parent``:
    PYTHONPATH=src python3 scripts/build_cost.py --workload near-d8 --n 1024 2048 4096
    PYTHONPATH=../parent/src python3 scripts/build_cost.py --workload near-d8 --n 1024 2048 4096
    PYTHONPATH=src python3 scripts/build_cost.py --workload worstcase-d2 --n 256 512 1024
    PYTHONPATH=src python3 scripts/build_cost.py --workload near-d8 --n 1024 2048 4096 --expect scripts/leaf_order_hashes.txt
"""

from __future__ import annotations

import os

# as in bench/run.py: BLAS threads are fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# the library is imported first, alone, so its cost is read apart from the
# benchmark harness, the inputs and the build
_t0 = time.perf_counter()
import arccount  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
RSS_IMPORT_MB = _peak_rss_mb()

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from harness import WORKLOADS, build_config, make_inputs  # noqa: E402

import numpy as np  # noqa: E402

from arccount import counter, io, learned, ptree, spantree  # noqa: E402

LOADS = 15
LAYER_CALLS = 3


def build_once(workload: str, n: int, seed: int) -> dict:
    """Build one index of ``workload`` at ``n`` in this process and report it."""
    w = dataclasses.replace(WORKLOADS[workload], n=n)
    inputs = make_inputs(w, seed)
    cfg = build_config(inputs, seed)
    # the worst-case layers' arguments, as the build passes them
    calls: dict[str, tuple] = {}

    def recording(name: str, real):
        def call(*args):
            calls[name] = args
            return real(*args)

        return call

    hooked = {name: getattr(counter, name) for name in ("generate_grid_queries", "build_low_stab_tree")}
    for name, real in hooked.items():
        setattr(counter, name, recording(name, real))
    try:
        before = _peak_rss_mb()
        t0 = time.perf_counter()
        idx = arccount.build_counting_index(inputs.points, cfg)
        seconds = time.perf_counter() - t0
    finally:
        for name, real in hooked.items():
            setattr(counter, name, real)
    row = {
        "workload": workload,
        "n": n,
        "d": w.d,
        "m": w.m,
        "seed": seed,
        "import_s": round(IMPORT_S, 4),
        "rss_import_mb": round(RSS_IMPORT_MB, 1),
        "build_s": round(seconds, 4),
        "rss_before_mb": round(before, 1),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    if calls:
        universe, row["universe_s"] = best_of(lambda: spantree.generate_grid_queries(*calls["generate_grid_queries"]))
        row["universe_size"] = len(universe)
        # each game starts from a fresh copy of the universe, all exponents zero
        pts, _, working, lp, seed = calls["build_low_stab_tree"]
        fresh = spantree.QueryMultiset.from_support
        _, row["light_edges_s"] = best_of(
            lambda: spantree.build_low_stab_tree(pts, fresh(universe.support), working, lp, seed)
        )
    row["leaf_order_sha256"] = hashlib.sha256(idx.tree.order.tobytes()).hexdigest()
    if isinstance(cfg.tree_source, counter.LearnedSource):
        sample = cfg.tree_source.sample
        counts, row["stab_counts_s"] = best_of(lambda: learned.pair_stab_counts(inputs.points, sample, idx.config.working))
        _, row["spanning_tree_s"] = best_of(lambda: learned.learned_spanning_tree(counts, n))
    row["tree_shape_ms"] = tree_shape_ms(idx.tree.order)
    row["model_bytes"], row["load_ms"], loaded = save_and_load(idx, inputs.points)
    row["loaded_index_mib"] = round(array_bytes(loaded) / 2**20, 3)
    return row


def best_of(call) -> tuple[object, float]:
    """The last result of ``LAYER_CALLS`` calls of ``call`` and the least seconds one took."""
    best = float("inf")
    for _ in range(LAYER_CALLS):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return result, round(best, 4)


def tree_shape_ms(order: np.ndarray) -> float:
    """The best of ``LAYER_CALLS`` first reads of a fresh tree's node arrays over ``order``, in ms.

    The fresh trees are made before the timer starts, so the order's
    permutation check stays out of the figure; each timed call reads one
    tree's ``nodes`` and so times the level loop alone.
    """
    trees, best = [ptree.PartitionTree(order) for _ in range(LAYER_CALLS)], float("inf")
    for t in trees:
        t0 = time.perf_counter()
        t.nodes
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 4)


def save_and_load(
    idx: counter.CountingIndex, points: arccount.WeightedPointSet
) -> tuple[int, float, counter.CountingIndex]:
    """The size of ``idx``'s saved model, the best of ``LOADS`` loads of it in ms, and the last load."""
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "points.txt", Path(tmp) / "model.arc"
        io.write_points(data, points)
        io.save_model(model, idx, data)
        best = float("inf")
        for _ in range(LOADS):
            gc.collect()
            t0 = time.perf_counter()
            loaded = io.load_model(model, data)
            best = min(best, time.perf_counter() - t0)
        return model.stat().st_size, round(best * 1e3, 3), loaded


def array_bytes(obj: object) -> int:
    """Total bytes of the distinct buffers under the numpy arrays reachable from ``obj``, each counted once by ``id``.

    An array's buffer is that of the array at the end of its chain of
    ``base`` arrays: its own ``nbytes`` when it owns its data, else the
    whole object it was made over, such as the bytes of a file read, so
    views of one buffer count it once and in full.  The walk follows
    object attributes, lists, tuples and dict values, so it reads any
    version's index without naming its fields.
    """
    seen: set[int] = set()
    buffers: set[int] = set()
    stack, total = [obj], 0
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            owner = o if o.base is None else o.base
            if id(owner) not in buffers:
                buffers.add(id(owner))
                total += o.nbytes if owner is o else memoryview(owner).nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            stack.extend(vars(o).values())
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--n", nargs="+", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--one", action="store_true", help="build the single --n in this process")
    ap.add_argument("--expect", type=Path, help="a file of leaf-order hash lines that every build must match")
    args = ap.parse_args()
    if min(args.n) < 2:
        ap.error("every --n must be at least 2")
    if args.one:
        if len(args.n) != 1:
            ap.error("--one builds a single --n")
        if args.expect:
            ap.error("--expect checks the builds of separate processes; it does not take --one")
        print(json.dumps(build_once(args.workload, args.n[0], args.seed)), flush=True)
        return 0
    expected = dict(line.rsplit(" ", 1) for line in args.expect.read_text().splitlines() if line) if args.expect else None
    same = True
    for n in args.n:
        argv = [sys.executable, __file__, "--one", "--workload", args.workload, "--n", str(n), "--seed", str(args.seed)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"build at n={n} failed:\n{proc.stderr}")
        print(proc.stdout.strip(), flush=True)
        key, built = f"{args.workload} n {n} seed {args.seed}", json.loads(proc.stdout)["leaf_order_sha256"]
        if expected is not None and expected.get(key) != built:
            print(f"{key}: leaf order {built}, {args.expect} holds {expected.get(key, 'no hash')}", file=sys.stderr)
            same = False
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
