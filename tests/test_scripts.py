"""Experiment scripts: each runs end to end on a small input."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("worstcase_pipeline.py", ["--n", "12", "--queries", "5", "--seed", "1"]),
        ("learned_vs_random.py", ["--instances", "3", "--n", "16", "--d", "3", "--seed", "7", "--out", "{out}"]),
        ("answer_digest.py", ["--workloads", "worstcase-d2", "--seeds", "1"]),
    ],
)
def test_script_exits_cleanly(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [a.format(out=tmp_path / "summary.json") for a in args]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
