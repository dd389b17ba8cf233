#!/usr/bin/env python3
"""Interleaved in-process builds of one benchmark workload from this checkout and another one.

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

Prints one JSON line: each side's median build seconds and quartiles, the
ratio of the medians (change over parent), the pairs the change built
faster, and each side's sha256 of the leaf order.  Exits 1 when the two
sides' leaf orders differ, or one side's builds disagree among themselves.

Example, comparing this checkout against another one at ``../parent``:
    PYTHONPATH=src python3 scripts/build_ab.py --parent ../parent/src --workload worstcase-d2 --n 1024
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


def load_sides(parent_src: Path, tmp: Path) -> dict:
    """Both ``arccount`` packages, imported from copies under distinct names in ``tmp``."""
    trees = {"parent": parent_src / "arccount", "change": ROOT / "src" / "arccount"}
    for side, tree in trees.items():
        if not (tree / "__init__.py").is_file():
            sys.exit(f"no arccount package under {tree.parent}")
        shutil.copytree(tree, tmp / f"arccount_{side}", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    return {side: importlib.import_module(f"arccount_{side}") for side in SIDES}


def build_call(package, workload: harness.Workload, seed: int):
    """A call that builds ``workload`` with ``package`` and returns its seconds and leaf-order hash."""
    # harness reads its classes from its module's ``arccount``
    harness.arccount = package
    inputs = harness.make_inputs(workload, seed)
    cfg = harness.build_config(inputs, seed)

    def build() -> tuple[float, str]:
        gc.collect()
        t0 = time.perf_counter()
        idx = package.build_counting_index(inputs.points, cfg)
        seconds = time.perf_counter() - t0
        return seconds, hashlib.sha256(idx.tree.order.tobytes()).hexdigest()

    return build


def summary(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": round(float(median), 4), "q1_s": round(float(q1), 4), "q3_s": round(float(q3), 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the other checkout's src directory")
    ap.add_argument("--workload", choices=sorted(harness.WORKLOADS), default="worstcase-d2")
    ap.add_argument("--n", type=int, help="points (default: the workload's)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1 or (args.n is not None and args.n < 2):
        ap.error("--pairs must be at least 1 and --n at least 2")
    w = harness.WORKLOADS[args.workload]
    if args.n is not None:
        w = dataclasses.replace(w, n=args.n)
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.parent.resolve(), Path(tmp))
        builds = {side: build_call(packages[side], w, args.seed) for side in SIDES}
        hashes = {side: {builds[side]()[1]} for side in SIDES}
        seconds: dict[str, list[float]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                s, h = builds[side]()
                seconds[side].append(s)
                hashes[side].add(h)
    won = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    row = {"workload": args.workload, "n": w.n, "seed": args.seed, "pairs": args.pairs}
    row.update({side: summary(seconds[side]) for side in SIDES})
    row["ratio"] = round(row["change"]["median_s"] / row["parent"]["median_s"], 3)
    row["change_won"] = won
    for side in SIDES:
        row[f"{side}_leaf_order_sha256"] = sorted(hashes[side])
    print(json.dumps(row), flush=True)
    same = len(hashes["parent"]) == 1 and hashes["parent"] == hashes["change"]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
