"""Import footprint: the library loads scipy only in the one call that uses it, and never the oracle.

Each check runs in a fresh interpreter, because the test modules import
scipy themselves and would hide a module-level scipy import.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from arccount.core import EpsParams, Seed, WeightedPointSet
from arccount.learned import QuerySample, pair_stab_counts

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_library_imports_load_no_scipy():
    # a stab classifier computes its embedding's collision probability too
    proc = run_fresh(
        """
        import sys
        import numpy as np
        import arccount, arccount.cli, arccount.io
        from arccount.core import EpsParams, WeightedPointSet
        from arccount.stabber import build_classifier, classify

        pts = WeightedPointSet(np.arange(8.0).reshape(4, 2), np.ones(4))
        classify(build_classifier(pts, EpsParams(eps=0.5)), np.zeros(2))
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_package_import_loads_no_oracle():
    # the brute-force oracle is the tests' referee, and the CLI's oracle
    # command; the holdout audit shares its formula, not its module
    proc = run_fresh(
        """
        import sys
        import arccount, arccount.counter
        print("arccount.oracle" in sys.modules)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def square_case() -> tuple[WeightedPointSet, QuerySample]:
    """Uniform points and queries in a d = 2 square of side 3: dense balls."""
    rng = Seed(156).generator()
    pts = WeightedPointSet(rng.uniform(0.0, 3.0, size=(128, 2)), np.ones(128))
    return pts, QuerySample(rng.uniform(0.0, 3.0, size=(512, 2)), source="uniform")


def test_gemm_branch_imports_scipy_where_it_is_called(tmp_path):
    # with the scatter priced out, every chunk (here one of 512 rows) takes
    # the GEMM in a process that has not loaded scipy; its counts match
    # those computed here, where the test modules have loaded it
    pts, sample = square_case()
    np.save(tmp_path / "points.npy", pts.points)
    np.save(tmp_path / "queries.npy", sample.queries)
    proc = run_fresh(
        """
        import sys
        import numpy as np
        from arccount import learned
        from arccount.core import EpsParams, Seed, WeightedPointSet
        from arccount.counter import BuildConfig, LearnedSource, build_counting_index
        from arccount.learned import QuerySample

        learned._SCATTER_COST = 2**62
        points = np.load(sys.argv[1] + "/points.npy")
        pts = WeightedPointSet(points, np.ones(len(points)))
        sample = QuerySample(np.load(sys.argv[1] + "/queries.npy"), source="uniform")
        assert "scipy" not in sys.modules
        idx = build_counting_index(pts, BuildConfig(eps=0.5, seed=Seed(1), tree_source=LearnedSource(sample)))
        assert "scipy.linalg.blas" in sys.modules
        assert sorted(idx.tree.order.tolist()) == list(range(len(points)))
        np.save(sys.argv[1] + "/counts.npy", learned.pair_stab_counts(pts, sample, EpsParams(eps=0.5)))
        """,
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    np.testing.assert_array_equal(np.load(tmp_path / "counts.npy"), pair_stab_counts(pts, sample, EpsParams(eps=0.5)))

