#!/usr/bin/env python3
"""Run one arccount benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload near-d8 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate hooked run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment.  The library is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# BLAS threads must be fixed before numpy is first imported.  One thread: a
# second one waits on the other CPU, and stalls whenever that CPU runs slow.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library() -> None:
    """Import arccount from this checkout's ``src``, or exit 2."""
    if not (SRC / "arccount" / "__init__.py").is_file():
        print(f"error: no arccount sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import arccount

    if not Path(arccount.__file__).resolve().is_relative_to(SRC):
        print(f"error: arccount was imported from {arccount.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "workload": workload.name,
        "seed": seed,
        "n": workload.n,
        "d": workload.d,
        "m": workload.m,
    }


def main(argv: list[str]) -> int:
    _import_library()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = harness.WORKLOADS[args.workload]
    run = harness.run_traced if args.trace else harness.run_end_to_end
    result = run(workload, args.seed, args.seconds, ROOT)

    checked = result.checked
    for reason in checked.reasons[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # reads 0 on a correct program, so it travels as failed/attempted in the
    # result line rather than as a metric
    print(f"sandwich_fail_rate {checked.failed / checked.attempted:.6g} ratio")
    if result.samples:
        print(json.dumps({"samples": result.samples}))
    env = environment(workload, args.seed)
    env["count_calls"] = checked.attempted
    print(json.dumps({"env": env}))
    result_line = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
