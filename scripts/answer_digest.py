#!/usr/bin/env python3
"""One digest per benchmark workload and seed over every answer of its query pool.

Builds each workload's index from the benchmark's own inputs and
configuration (``bench/harness.py``'s ``make_inputs`` and
``build_config``), answers all pool queries with ``count(..., verify=True)``
and prints a sha256 over the index's leaf order and each answer's
``weight.hex()``, ``visited_nodes``, ``verdict_counts`` (key order included)
and member ranges.  Two checkouts build the same tree and answer
bit-identically on a workload and seed iff their digests match; the leaf
order shows a tree change that leaves every pool answer equal.

Each index is also saved with ``io.save_model`` against a text data file,
loaded again, and asked the same pool; the script exits 1 if any loaded
answer, or the loaded leaf order, differs from the built one's by a bit.

Example, comparing this checkout against another one at ``../parent``:
    PYTHONPATH=src python3 scripts/answer_digest.py --seeds 1 2 3
    PYTHONPATH=../parent/src python3 scripts/answer_digest.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from harness import WORKLOADS, build_config, make_inputs  # noqa: E402

import arccount  # noqa: E402
import arccount.io  # noqa: E402


def answer_digest(idx: arccount.CountingIndex, pool) -> str:
    h = hashlib.sha256(idx.tree.order.tobytes())
    for q in pool:
        ans = arccount.count(idx, q, verify=True)
        key = (ans.weight.hex(), ans.visited_nodes, list(ans.verdict_counts.items()), ans.member_ranges)
        h.update(repr(key).encode())
    return "sha256:" + h.hexdigest()


def built_and_loaded(workload: str, seed: int) -> tuple[str, str]:
    """The answer digests of ``workload``'s index at ``seed``, as built and as saved and loaded again."""
    inputs = make_inputs(WORKLOADS[workload], seed)
    idx = arccount.build_counting_index(inputs.points, build_config(inputs, seed))
    with tempfile.TemporaryDirectory() as tmp:
        data, model = Path(tmp) / "points.txt", Path(tmp) / "model"
        arccount.io.write_points(data, inputs.points)
        arccount.io.save_model(model, idx, data)
        loaded = arccount.io.load_model(model, data)
    return answer_digest(idx, inputs.pool), answer_digest(loaded, inputs.pool)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args()
    same = True
    for name in args.workloads:
        for seed in args.seeds:
            built, loaded = built_and_loaded(name, seed)
            print(f"{name} seed {seed} {built}", flush=True)
            if loaded != built:
                print(f"{name} seed {seed}: the loaded index answers {loaded}", file=sys.stderr)
                same = False
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
