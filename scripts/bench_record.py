#!/usr/bin/env python3
"""Run one end-to-end benchmark workload and append its result to a trajectory file.

Runs ``bench/run.py --workload W --seed S --seconds X --trace 0`` of this
checkout in a fresh process and reads the last two lines it prints: the
environment and the result.  One JSON line is appended to
``BENCH_<workload>.json`` at the root of the checkout, or to ``--out``.  It
holds the commit (``git rev-parse HEAD``), whether ``src/`` or ``bench/``
differed from that commit (``dirty``; both are None outside a git
checkout), the seed, the seconds, the environment line, ``correct``,
``attempted`` and ``failed``, and the end-to-end metrics with their units.
A performance change records its runs before and after in these files.

Example:
    python3 scripts/bench_record.py --workload near-d8 --seed 1
    python3 scripts/bench_record.py --workload worstcase-d2 --seed 2 --seconds 10 --out /tmp/wc.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", help="append here instead of BENCH_<workload>.json at the root")
    args = ap.parse_args()

    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode
    env_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "bench") if commit else None
    row = {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "seed": args.seed,
        "seconds": args.seconds,
        "env": json.loads(env_line)["env"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"
    with open(out, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
