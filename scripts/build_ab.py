#!/usr/bin/env python3
"""Interleaved in-process builds, model loads or queries of one benchmark workload from this checkout and another one.

Copies the ``arccount`` package of this checkout and of ``--parent`` (the
other checkout's ``src`` directory) into a temporary directory as
``arccount_change`` and ``arccount_parent``, imports both into this one
process, and builds the index of ``--workload`` at ``--n`` from each side
in turn, from the benchmark's own inputs and configuration
(``bench/harness.py``'s ``make_inputs`` and ``build_config``, read through
each side's classes), with one BLAS thread as the benchmark runs.  One
untimed build per side comes first; then ``--pairs`` pairs, the side that
builds first alternating from pair to pair.  Separate processes minutes
apart drift more on a shared machine than a build change moves, and
building both sides in one process, interleaved, cancels that drift.

With ``--phase load`` each side builds once and saves its own model, in
its own format, against one shared text data file; the timed calls are
then each side's ``io.load_model`` of its model, after a ``gc.collect()``
as the benchmark loads, followed in the same call by the first ``count``
of the loaded index, on the benchmark's first pool query, and a read of
its ``visited_nodes``: the path an ``arccount query`` process runs.  Each
call gives two times from one start, the load alone and the load with
that first answer, so a load that only moves work into the first answer
shows in the second.  Each side's hash covers the loaded index's leaf
order and ``points()`` bytes and that first answer's weight, visits and
verdict counts.

With ``--phase query`` each side builds its index once and swaps in, by
``dataclasses.replace``, read-only copies of the path arrays ``count``
scans (``path_points`` and ``path_weights``) that start on a page
boundary, so both sides read them at the same alignment; the index
derives the rest of what its pass reads, the half squared norms among
it, from the arrays swapped in, on its first answer.  A timed
call is then one pass of ``count`` over the benchmark's
``TIMED_QUERIES`` pool queries, reading the weight alone, as the
benchmark's query loop does, and each side's hash covers the ``hex()``
of every weight.  ``--phase verify`` and ``--phase eval`` read the same
aligned arrays: a timed call is one pass of ``count(verify=True)`` over
those queries, hashing each answer's weight, visits, verdict counts and
member ranges, or one ``evaluate_visiting`` with those queries as its
holdout, hashing the report's rows.

Prints one JSON line: each side's median and quartiles (seconds per call,
or with ``--phase query``, ``verify`` or ``eval`` microseconds per query),
the ratio of the medians (change over parent), the pairs the change won,
and each side's sha256 of the leaf order (with ``--phase build``, beside
the sha256 of the spanning tree's edges in the order the build added
them, so two builds of the same leaf order by another tree or another
edge order differ; with ``--phase load``, of the loaded index and its
first answer, beside each side's model bytes and the same summary, ratio
and pairs won of the load with its first answer under
``with_first_answer``; with ``--phase query``, of the weights, ``verify``
of the answers, ``eval`` of the report rows).
Exits 1 when the two sides' hashes differ, or one side's calls disagree
among themselves.

Example, comparing this checkout against another one at ``../parent``:
    PYTHONPATH=src python3 scripts/build_ab.py --parent ../parent/src --workload worstcase-d2 --n 1024
    PYTHONPATH=src python3 scripts/build_ab.py --parent ../parent/src --workload near-d8 --phase load --pairs 200
    PYTHONPATH=src python3 scripts/build_ab.py --parent ../parent/src --workload near-d8 --phase query --pairs 200
    PYTHONPATH=src python3 scripts/build_ab.py --parent ../parent/src --workload worstcase-d2 --phase eval --pairs 30
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
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import numpy as np  # noqa: E402

SIDES = ("parent", "change")
PAGE = 4096
# the index arrays that ``count`` scans, which the pool phases below align
SCANNED = ("path_points", "path_weights")
# the phases that time calls over the pool queries, and what each one hashes
QUERY_PHASES = {"query": "weights", "verify": "answers", "eval": "rows"}


def load_sides(parent_src: Path, tmp: Path) -> dict:
    """Both ``arccount`` packages, imported from copies under distinct names in ``tmp``."""
    trees = {"parent": parent_src / "arccount", "change": ROOT / "src" / "arccount"}
    for side, tree in trees.items():
        if not (tree / "__init__.py").is_file():
            sys.exit(f"no arccount package under {tree.parent}")
        shutil.copytree(tree, tmp / f"arccount_{side}", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    for side in SIDES:
        # the package does not import its io module, which --phase load calls
        importlib.import_module(f"arccount_{side}.io")
    return {side: sys.modules[f"arccount_{side}"] for side in SIDES}


def build_call(package, workload: harness.Workload, seed: int):
    """A call that builds ``workload`` with ``package`` and returns its seconds and its leaf-order and edge hashes."""
    # harness reads its classes from its module's ``arccount``
    harness.arccount = package
    inputs = harness.make_inputs(workload, seed)
    cfg = harness.build_config(inputs, seed)

    def build() -> tuple[float, tuple[str, str]]:
        gc.collect()
        t0 = time.perf_counter()
        idx = package.build_counting_index(inputs.points, cfg)
        seconds = time.perf_counter() - t0
        edges = np.array(idx.spanning_tree.edges, dtype=np.int64)
        return seconds, tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (idx.tree.order, edges))

    return build


def load_call(package, workload: harness.Workload, seed: int, data: Path, model: Path):
    """A call that loads the model ``package`` saved of ``workload`` and answers one query from it.

    The call returns its two times from one start, the load and the load
    with the first answer's ``visited_nodes`` read, and the hash of the
    loaded index and that answer.
    """
    harness.arccount = package
    inputs = harness.make_inputs(workload, seed)
    if not data.exists():
        package.io.write_points(data, inputs.points)
    idx = package.build_counting_index(inputs.points, harness.build_config(inputs, seed))
    package.io.save_model(model, idx, data)
    del idx
    q = inputs.pool[0]

    def load() -> tuple[tuple[float, float], str]:
        gc.collect()
        t0 = time.perf_counter()
        loaded = package.io.load_model(model, data)
        t1 = time.perf_counter()
        ans = package.count(loaded, q)
        visited = ans.visited_nodes
        t2 = time.perf_counter()
        pts = loaded.points()
        h = hashlib.sha256(loaded.tree.order.tobytes())
        h.update(pts.points.tobytes())
        h.update(pts.weights.tobytes())
        h.update(f"{float(ans.weight).hex()} {visited} {json.dumps(ans.verdict_counts, sort_keys=True)}".encode())
        return (t1 - t0, t2 - t0), h.hexdigest()

    return load


def page_aligned(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` whose data starts on a page boundary."""
    buf = np.empty(a.nbytes + PAGE, dtype=np.uint8)
    start = -buf.ctypes.data % PAGE
    out = buf[start : start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    out.setflags(write=False)
    return out


def query_call(package, workload: harness.Workload, seed: int, phase: str):
    """A call that answers the timed pool queries of ``workload`` with ``package`` in ``phase``; its seconds and hash."""
    harness.arccount = package
    inputs = harness.make_inputs(workload, seed)
    idx = package.build_counting_index(inputs.points, harness.build_config(inputs, seed))
    # where the heap put each side's arrays moves the scan by about 2%
    idx = dataclasses.replace(idx, **{name: page_aligned(getattr(idx, name)) for name in SCANNED})
    queries = list(inputs.pool[: harness.TIMED_QUERIES])
    count, evaluate_visiting = package.count, package.counter.evaluate_visiting
    holdout = package.QuerySample(inputs.pool[: harness.TIMED_QUERIES], source="pool")
    # what a timed call runs, and the lines its result hashes to
    run, lines = {
        "query": (
            lambda: [count(idx, q) for q in queries],
            lambda answers: [float(a.weight).hex() for a in answers],
        ),
        "verify": (
            lambda: [count(idx, q, verify=True) for q in queries],
            lambda answers: [
                f"{float(a.weight).hex()} {a.visited_nodes} {json.dumps(a.verdict_counts, sort_keys=True)} "
                f"{a.member_ranges}"
                for a in answers
            ],
        ),
        "eval": (
            lambda: evaluate_visiting(idx, holdout).per_query,
            lambda rows: [json.dumps(row, sort_keys=True) for row in rows],
        ),
    }[phase]

    def answer() -> tuple[float, str]:
        gc.collect()
        t0 = time.perf_counter()
        result = run()
        seconds = time.perf_counter() - t0
        return seconds, hashlib.sha256("\n".join(lines(result)).encode()).hexdigest()

    return answer


def summary(values: list[float], digits: int, unit: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {
        f"median_{unit}": round(float(median), digits),
        f"q1_{unit}": round(float(q1), digits),
        f"q3_{unit}": round(float(q3), digits),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other checkout's src directory")
    ap.add_argument("--workload", choices=sorted(harness.WORKLOADS), default="worstcase-d2")
    ap.add_argument("--n", type=int, help="points (default: the workload's)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--phase", choices=["build", "load", *QUERY_PHASES], default="build", help="what each call times")
    args = ap.parse_args()
    if args.pairs < 1 or (args.n is not None and args.n < 2):
        ap.error("--pairs must be at least 1 and --n at least 2")
    w = harness.WORKLOADS[args.workload]
    if args.n is not None:
        w = dataclasses.replace(w, n=args.n)
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.parent.resolve(), Path(tmp))
        if args.phase == "load":
            data = Path(tmp) / "points.txt"
            models = {side: Path(tmp) / f"{side}.model" for side in SIDES}
            calls = {side: load_call(packages[side], w, args.seed, data, models[side]) for side in SIDES}
        elif args.phase in QUERY_PHASES:
            calls = {side: query_call(packages[side], w, args.seed, args.phase) for side in SIDES}
        else:
            calls = {side: build_call(packages[side], w, args.seed) for side in SIDES}
        hashes = {side: {calls[side]()[1]} for side in SIDES}
        seconds: dict[str, list] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                s, h = calls[side]()
                seconds[side].append(s)
                hashes[side].add(h)
        if args.phase == "load":
            loads = {"phase": "load"} | {f"{side}_model_bytes": models[side].stat().st_size for side in SIDES}
            # each load call timed the load alone and the load with its first answer
            firsts = {side: [s[1] for s in seconds[side]] for side in SIDES}
            seconds = {side: [s[0] for s in seconds[side]] for side in SIDES}
            first = {side: summary(firsts[side], 6, "s") for side in SIDES}
            loads["with_first_answer"] = first | {
                "ratio": round(first["change"]["median_s"] / first["parent"]["median_s"], 3),
                "change_won": sum(c < p for p, c in zip(firsts["parent"], firsts["change"])),
            }
    won = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    row = {"workload": args.workload, "n": w.n, "seed": args.seed, "pairs": args.pairs}
    # queries take microseconds, loads milliseconds, builds up to seconds
    if args.phase in QUERY_PHASES:
        row["phase"] = args.phase
        row.update({side: summary([1e6 * s / harness.TIMED_QUERIES for s in seconds[side]], 2, "us") for side in SIDES})
        unit, hashed = "us", QUERY_PHASES[args.phase]
    else:
        row.update({side: summary(seconds[side], 6 if args.phase == "load" else 4, "s") for side in SIDES})
        unit, hashed = "s", "leaf_order"
    row["ratio"] = round(row["change"][f"median_{unit}"] / row["parent"][f"median_{unit}"], 3)
    row["change_won"] = won
    for side in SIDES:
        if args.phase == "build":
            # each build hashed its leaf order and its spanning tree's edges
            row[f"{side}_{hashed}_sha256"] = sorted({h[0] for h in hashes[side]})
            row[f"{side}_edges_sha256"] = sorted({h[1] for h in hashes[side]})
        else:
            row[f"{side}_{hashed}_sha256"] = sorted(hashes[side])
    if args.phase == "load":
        row.update(loads)
    print(json.dumps(row), flush=True)
    same = len(hashes["parent"]) == 1 and hashes["parent"] == hashes["change"]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
