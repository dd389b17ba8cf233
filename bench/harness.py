"""Workloads, timings and correctness checks of the arccount benchmark.

Every input is generated here from the workload seed; the library only sees
points, weights, a training sample and query points, through its public
calls ``build_counting_index``, ``io.save_model``/``io.load_model`` and
``count``.  Queries run as a closed loop from one client in one process.
Only the default ``BuildConfig`` knobs (``eps``, ``seed``, ``tree_source``)
are set, so a later version that deletes other knobs still runs unchanged.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

import arccount
import arccount.io
import arccount.ptree

from hooks import Hook, Tracer, installed

EPS = 0.5
RADIUS = 1.0
# the index builds its tree and answers at half the target error; the
# tree-quality counts below are taken in that working geometry
WORKING_EPS = EPS / 2.0

# the CLI's ``gen --kind clusters`` recipe
CLUSTERS = 4
CLUSTER_SCALE = 4.0
CLUSTER_SIGMA = 0.4
WEIGHT_LOW, WEIGHT_HIGH = 0.1, 2.0
QUERY_SIGMA = 0.5
BOX_MARGIN = 1.0
SQUARE_SIDE = 3.0

TIMED_QUERIES = 200  # distinct held-out queries; p95 has ten samples beyond it
WARMUP_QUERIES = 3  # further held-out queries, answered untimed before timing
POOL_SIZE = TIMED_QUERIES + WARMUP_QUERIES
BUILDS = 4  # one at the start of each of the first passes
MIN_PASSES = BUILDS  # timed passes over the queries, at the least
LOADS_PER_PASS = 4
CHUNK_QUERIES = 10  # queries timed between two runs of the reference kernel


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``data`` is ``clusters`` or ``square``; ``m`` is the size of the
    training sample of a learned tree (0 selects the worst-case tree);
    ``queries`` is ``near`` (data point plus Gaussian noise) or ``box``
    (uniform in the data's bounding box plus a margin).
    """

    name: str
    tag: int
    data: str
    n: int
    d: int
    m: int
    queries: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("near-d8", 1, "clusters", n=1024, d=8, m=16384, queries="near"),
        Workload("worstcase-d2", 3, "square", n=256, d=2, m=0, queries="box"),
    )
}


@dataclass
class Inputs:
    points: arccount.WeightedPointSet
    train: np.ndarray | None
    pool: np.ndarray


def _rng(seed: int, tag: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag, stream])))


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Points, training sample and held-out query pool of ``w`` at ``seed``."""
    rng = _rng(seed, w.tag, 0)
    if w.data == "clusters":
        # the centres belong to the workload, not to the seed: drawn per seed,
        # their layout alone moved query times by more than the bounds allow
        centers = _rng(0, w.tag, 3).uniform(0.0, CLUSTER_SCALE, size=(CLUSTERS, w.d))
        who = rng.integers(0, CLUSTERS, size=w.n)
        pts = centers[who] + rng.normal(0.0, CLUSTER_SIGMA, size=(w.n, w.d))
    else:
        pts = rng.uniform(0.0, SQUARE_SIDE, size=(w.n, w.d))
    weights = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=w.n)

    def near(m: int, stream: int) -> np.ndarray:
        r = _rng(seed, w.tag, stream)
        return pts[r.integers(0, w.n, size=m)] + r.normal(0.0, QUERY_SIGMA, size=(m, w.d))

    train = near(w.m, 1) if w.m else None
    if w.queries == "near":
        pool = near(POOL_SIZE, 2)
    else:
        lo, hi = pts.min(axis=0) - BOX_MARGIN, pts.max(axis=0) + BOX_MARGIN
        pool = _rng(seed, w.tag, 2).uniform(lo, hi, size=(POOL_SIZE, w.d))
    return Inputs(arccount.WeightedPointSet(pts, weights), train, pool)


def build_config(inputs: Inputs, seed: int) -> arccount.BuildConfig:
    if inputs.train is None:
        source: Any = arccount.WorstCaseSource()
    else:
        sample = arccount.QuerySample(inputs.train, source="bench-near-data")
        source = arccount.LearnedSource(sample=sample)
    return arccount.BuildConfig(eps=EPS, seed=arccount.Seed(seed), tree_source=source)


# -- answers and the correctness gate -------------------------------------------


def answer_key(ans: Any) -> tuple | None:
    """Every bit of an answer that must repeat: weight, visits and verdicts."""
    if ans is None:
        return None
    return (float(ans.weight).hex(), int(ans.visited_nodes), tuple(sorted(ans.verdict_counts.items())))


@dataclass
class LoopResult:
    rows: list[int]  # pool row of each call
    answers: list[Any]  # CountAnswer, or None when the call raised
    latencies: list[float]  # seconds per call
    wall: float  # seconds from the first call's start to the last one's end
    errors: list[str]

    def extend(self, other: "LoopResult") -> None:
        self.rows += other.rows
        self.answers += other.answers
        self.latencies += other.latencies
        self.wall += other.wall
        self.errors += other.errors


def query_loop(idx: Any, pool: np.ndarray, rows: Iterable[int]) -> LoopResult:
    """Answer the pool ``rows`` in order with ``count``, one call at a time."""
    count = arccount.count
    out = LoopResult([], [], [], 0.0, [])
    start = end = time.perf_counter()
    for j in rows:
        t0 = time.perf_counter()
        try:
            ans = count(idx, pool[j])
        except Exception as exc:  # a raising query is a failed query
            ans = None
            out.errors.append(f"query {j}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        out.rows.append(j)
        out.answers.append(ans)
        out.latencies.append(end - t0)
    out.wall = end - start
    return out


def exact_weights(pts: arccount.WeightedPointSet, queries: np.ndarray, radius: float) -> np.ndarray:
    """Exact weight of the closed ball of ``radius`` around each query."""
    out = np.empty(len(queries))
    r2 = radius * radius
    for lo in range(0, len(queries), 64):
        diff = queries[lo : lo + 64, None, :] - pts.points[None, :, :]
        d2 = np.einsum("qnd,qnd->qn", diff, diff)
        out[lo : lo + 64] = (d2 <= r2) @ pts.weights
    return out


@dataclass
class Checked:
    attempted: int
    failed: int
    reasons: list[str]
    answers: dict[int, tuple | None]  # pool row -> key of its first answer


def check_answers(loops: list[LoopResult], inputs: Inputs) -> Checked:
    """Check every call of ``loops`` against exact weights and against each other.

    A call fails if it raised, if its weight falls outside the exact inner
    and outer ball weights, or if it differs in any bit from the first
    answer to the same pool row, whichever index (built, loaded, traced)
    gave either of them.
    """
    calls = [(j, a) for loop in loops for j, a in zip(loop.rows, loop.answers)]
    distinct = sorted({j for j, _ in calls})
    rows = inputs.pool[distinct]
    inner = dict(zip(distinct, exact_weights(inputs.points, rows, RADIUS)))
    outer = dict(zip(distinct, exact_weights(inputs.points, rows, (1.0 + EPS) * RADIUS)))
    tol = 1e-9 * float(np.sum(np.abs(inputs.points.weights)))
    first: dict[int, tuple | None] = {}
    reasons = [e for loop in loops for e in loop.errors]
    failed = 0
    for j, ans in calls:
        key = first.setdefault(j, answer_key(ans))
        if ans is None:
            failed += 1
        elif not (inner[j] - tol <= ans.weight <= outer[j] + tol):
            failed += 1
            reasons.append(f"query {j}: weight {ans.weight} outside [{inner[j]}, {outer[j]}]")
        elif answer_key(ans) != key:
            failed += 1
            reasons.append(f"query {j}: answer {answer_key(ans)} differs from the first answer {key}")
    return Checked(len(calls), failed, reasons, first)


# -- machine speed ---------------------------------------------------------------

# The machine's speed drifts by a third over seconds to minutes, and most of
# the drift is shared by all code running at the time; see README.md.  So
# each timed piece of work runs between two readings of a fixed reference
# kernel on the same CPU, and its time is scaled by how slow the kernel ran
# around it.  REFERENCE_KERNEL_S is the
# kernel's median time on the baseline machine, so that a scaled time reads
# in seconds of that machine at its usual speed.
REFERENCE_KERNEL_S = 0.005
_KERNEL_POINTS = np.random.default_rng(0).uniform(0.0, 1.0, size=(64, 8))


def _kernel() -> float:
    """Seconds of a fixed mix of interpreter work and small numpy calls."""
    pts = _KERNEL_POINTS
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for i in range(300):
        diff = pts - pts[i & 63]
        (np.einsum("ij,ij->i", diff, diff) <= 0.5).sum()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median seconds of five runs of the reference kernel."""
    return statistics.median(_kernel() for _ in range(5))


class Clock:
    """Runs pieces of work on alternating CPUs, each between two kernel runs.

    Successive pieces run on successive CPUs of the affinity mask, because
    each CPU has slow stretches of its own.  ``kernel`` collects the kernel
    time around each piece, for the record.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.kernel: list[float] = []

    def series(self, fn: Any, calls: list[tuple]) -> list[tuple[float, Any]]:
        """``fn(*args)`` for each ``args`` of ``calls``, pinned to the next CPU.

        The kernel runs before the first call and after each one.  Returns
        each call's time scale and result: multiply a time taken inside the
        call by its scale to read it in seconds of the baseline machine.
        """
        os.sched_setaffinity(0, [self.cpus[self.turn % len(self.cpus)]])
        self.turn += 1
        try:
            kernel = [calibrate()]
            outs = []
            for args in calls:
                outs.append(fn(*args))
                kernel.append(calibrate())
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.kernel += kernel
        return [(2.0 * REFERENCE_KERNEL_S / (a + b), out) for a, b, out in zip(kernel, kernel[1:], outs)]


# -- end-to-end run ----------------------------------------------------------------


def _timed(fn: Any, *args: Any) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    checked: Checked
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw wall times and kernel times


def run_end_to_end(w: Workload, seed: int, seconds: float, root: Path) -> RunResult:
    """Build, save, load and query ``w`` untraced; the end-to-end metrics.

    The timed queries are answered in passes, at least ``MIN_PASSES`` of
    them and until ``seconds`` have passed.  Each pass starts with
    ``LOADS_PER_PASS`` loads, and each of the first ``BUILDS`` passes with a
    build before them, so that builds, loads and the calls of each query
    are spread over the whole run.  A pass answers its queries in chunks of
    ``CHUNK_QUERIES``.  Every build, load and chunk is timed through a
    ``Clock``, so each time is scaled by the machine's speed around it.
    ``setup_s`` is the median scaled build, ``load_s`` the median scaled
    load; the query metrics take each query's median scaled call over the
    passes.  ``build_peak_rss_mb`` is read right after the first build,
    before any load or query.  Outside the timers the loaded index answers
    the queries once more; every answer to a query must agree bit for bit.
    """
    inputs = make_inputs(w, seed)
    cfg = build_config(inputs, seed)
    clock = Clock()
    setup: list[tuple[float, float]] = []  # (wall seconds, scale) per build
    loads: list[tuple[float, float]] = []
    passes: list[LoopResult] = []
    scales: list[list[float]] = []  # per pass, the scale of each call
    idx = loaded = None
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        data, model = Path(tmp) / "points.txt", Path(tmp) / "model.json"

        def load() -> float:
            nonlocal loaded
            loaded = None  # one loaded index alive at a time
            gc.collect()
            t, loaded = _timed(arccount.io.load_model, model, data)
            return t

        arccount.io.write_points(data, inputs.points)
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            if len(setup) < BUILDS:
                idx = None
                gc.collect()
                [(scale, (t, idx))] = clock.series(_timed, [(arccount.build_counting_index, inputs.points, cfg)])
                setup.append((t, scale))
                if not passes:
                    rss_mb = _peak_rss_mb()
                    arccount.io.save_model(model, idx, data)
                    query_loop(idx, inputs.pool, range(TIMED_QUERIES, POOL_SIZE))
            for scale, t in clock.series(load, [()] * LOADS_PER_PASS):
                loads.append((t, scale))
            one = LoopResult([], [], [], 0.0, [])
            one_scales: list[float] = []
            chunks = [(idx, inputs.pool, range(lo, lo + CHUNK_QUERIES)) for lo in range(0, TIMED_QUERIES, CHUNK_QUERIES)]
            for scale, chunk in clock.series(query_loop, chunks):
                one.extend(chunk)
                one_scales += [scale] * len(chunk.latencies)
            passes.append(one)
            scales.append(one_scales)
    reloaded = query_loop(loaded, inputs.pool, range(TIMED_QUERIES))
    checked = check_answers(passes + [reloaded], inputs)
    per_query_ms = np.median(np.array([p.latencies for p in passes]) * np.array(scales), axis=0) * 1e3
    samples = {
        "setup_wall_s": [t for t, _ in setup],
        "load_wall_s": [t for t, _ in loads],
        "pass_wall_p50_ms": [float(np.median(p.latencies)) * 1e3 for p in passes],
        "kernel_ms": [k * 1e3 for k in clock.kernel],
    }
    metrics = {
        "setup_s": (statistics.median(t * s for t, s in setup), "s"),
        "build_peak_rss_mb": (rss_mb, "MB"),
        "load_s": (statistics.median(t * s for t, s in loads), "s"),
        "query_p50_ms": (float(np.percentile(per_query_ms, 50)), "ms"),
        "query_p95_ms": (float(np.percentile(per_query_ms, 95)), "ms"),
        "query_qps": (TIMED_QUERIES / (float(per_query_ms.sum()) / 1e3), "1/s"),
    }
    return RunResult(metrics, checked, samples)


# -- traced run ------------------------------------------------------------------

HOOKS = [
    Hook("arccount.counter", "pair_stab_counts", "learned.pair_stab_counts", peak_memory=True),
    Hook("arccount.counter", "learned_spanning_tree", "learned.learned_spanning_tree"),
    Hook("arccount.counter", "generate_grid_queries", "spantree.generate_grid_queries", keep_result=True),
    Hook("arccount.counter", "build_low_stab_tree", "spantree.build_low_stab_tree"),
    Hook("arccount.spantree", "find_light_edge", "spantree.find_light_edge"),
    Hook("arccount.sampler.WeightedSampler", "sample", "sampler.sample", timed=False),
    Hook("arccount.sampler.WeightedSampler", "scale_weight", "sampler.scale_weight", timed=False),
    Hook("arccount.counter", "tree_to_path", "ptree.tree_to_path"),
    Hook("arccount.counter", "path_to_partition_tree", "ptree.path_to_partition_tree"),
    Hook("arccount.counter", "build_classifier", "stabber.build_classifier"),
    Hook("arccount.counter", "classify", "stabber.classify"),
    Hook("arccount.stabber", "embed", "hamming.embed", timed=False),
    Hook("arccount.stabber", "sq_dists_to", "core.sq_dists_to", timed=False),
    Hook("arccount.counter.CountingIndex", "transform_query", "counter.transform_query"),
    Hook("arccount.io", "read_points", "io.read_points"),
    Hook("arccount.io", "file_digest", "io.file_digest"),
]


def stabs_per_query(queries: np.ndarray, pts: np.ndarray, edges: list, eps: float) -> np.ndarray:
    """Number of tree edges each query eps-stabs, at radius ``RADIUS``."""
    if not edges:
        return np.zeros(len(queries), dtype=np.int64)
    a = np.asarray([e[0] for e in edges])
    b = np.asarray([e[1] for e in edges])
    r2, big2 = RADIUS**2, ((1.0 + eps) * RADIUS) ** 2
    out = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), 256):
        diff = queries[lo : lo + 256, None, :] - pts[None, :, :]
        d2 = np.einsum("qnd,qnd->qn", diff, diff)
        near, far = d2 <= r2, d2 >= big2
        out[lo : lo + 256] = ((near[:, a] & far[:, b]) | (near[:, b] & far[:, a])).sum(axis=1)
    return out


def run_traced(w: Workload, seed: int, seconds: float, root: Path) -> RunResult:
    """One build, save, load and query pass with hooks; the per-layer metrics.

    ``seconds`` is not used: the traced loop answers a fixed
    ``TIMED_QUERIES`` so that every count repeats exactly for a seed.  The
    same queries are answered untraced too, for the overhead ratio, and by
    the loaded index; all three answers must agree.
    """
    inputs = make_inputs(w, seed)
    cfg = build_config(inputs, seed)
    tracer = Tracer()
    with installed(tracer, HOOKS):
        idx = arccount.build_counting_index(inputs.points, cfg)
    build = tracer
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        data, model = Path(tmp) / "points.txt", Path(tmp) / "model.json"
        arccount.io.write_points(data, inputs.points)
        save_s, _ = _timed(arccount.io.save_model, model, idx, data)
        with installed(tracer, HOOKS):
            load_s, loaded = _timed(arccount.io.load_model, model, data)
    load = tracer

    # each query is answered untraced and traced in turn, so that the
    # overhead ratio compares the two under the same machine state
    queries = inputs.pool[:TIMED_QUERIES]
    query_loop(idx, inputs.pool, range(TIMED_QUERIES, POOL_SIZE))
    plain, traced = LoopResult([], [], [], 0.0, []), LoopResult([], [], [], 0.0, [])
    walk = Tracer()
    for j in range(TIMED_QUERIES):
        plain.extend(query_loop(idx, inputs.pool, range(j, j + 1)))
        with installed(walk, HOOKS):
            traced.extend(query_loop(idx, inputs.pool, range(j, j + 1)))
    scan = []
    p, wts, r2 = inputs.points.points, inputs.points.weights, RADIUS**2
    for q in queries:
        t0 = time.perf_counter()
        diff = p - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        wts[d2 <= r2].sum()
        scan.append(time.perf_counter() - t0)
    reloaded = query_loop(loaded, inputs.pool, range(TIMED_QUERIES))
    checked = check_answers([plain, traced, reloaded], inputs)

    spanning = getattr(idx, "spanning_tree", None)
    edges = list(spanning.edges) if spanning is not None else []
    objective = 0
    if inputs.train is not None:
        objective = int(stabs_per_query(inputs.train, inputs.points.points, edges, WORKING_EPS).sum())
    universe = getattr(build.results.get("spantree.generate_grid_queries"), "support", None)
    universe_size, universe_max = 0, 0
    if universe is not None:
        universe_size = len(universe)
        universe_max = int(stabs_per_query(universe, inputs.points.points, edges, WORKING_EPS).max())

    working = arccount.EpsParams(WORKING_EPS, RADIUS)
    oracle = [arccount.ptree.visiting_number(idx.tree, q, inputs.points, working) for q in queries]

    nq = len(traced.answers)
    ok = [a for a in traced.answers if a is not None]
    visited = statistics.fmean(a.visited_nodes for a in ok) if ok else 0.0
    oracle_mean = statistics.fmean(oracle)
    count_s = sum(traced.latencies)
    self_s = count_s - walk.seconds["stabber.classify"] - walk.seconds["counter.transform_query"]
    plain_p50 = statistics.median(plain.latencies)
    scan_p50 = statistics.median(scan)

    def per_query(name: str) -> float:
        return walk.calls[name] / nq

    m: dict[str, tuple[float, str]] = {
        "learned.pair_stab_counts.s": (build.seconds["learned.pair_stab_counts"], "s"),
        "learned.pair_stab_counts.peak_mb": (build.peak_bytes["learned.pair_stab_counts"] / 2**20, "MB"),
        "learned.learned_spanning_tree.s": (build.seconds["learned.learned_spanning_tree"], "s"),
        "learned.tree_objective": (objective, "count"),
        "spantree.generate_grid_queries.s": (build.seconds["spantree.generate_grid_queries"], "s"),
        "spantree.universe_size": (universe_size, "count"),
        "spantree.build_low_stab_tree.s": (build.seconds["spantree.build_low_stab_tree"], "s"),
        "spantree.find_light_edge.calls": (build.calls["spantree.find_light_edge"], "count"),
        "spantree.find_light_edge.s": (build.seconds["spantree.find_light_edge"], "s"),
        "spantree.max_universe_stabbing": (universe_max, "count"),
        "sampler.sample.calls": (build.calls["sampler.sample"], "count"),
        "sampler.scale_weight.calls": (build.calls["sampler.scale_weight"], "count"),
        "ptree.tree_to_path.s": (build.seconds["ptree.tree_to_path"], "s"),
        "ptree.path_to_partition_tree.s": (build.seconds["ptree.path_to_partition_tree"], "s"),
        "stabber.build_classifier.s": (build.seconds["stabber.build_classifier"], "s"),
        "stabber.build_classifier.calls": (build.calls["stabber.build_classifier"], "count"),
        "stabber.classify.calls_per_query": (per_query("stabber.classify"), "count"),
        "stabber.classify.ms_per_query": (walk.seconds["stabber.classify"] / nq * 1e3, "ms"),
        "hamming.embed.calls_per_query": (per_query("hamming.embed"), "count"),
        "core.sq_dists_to.calls_per_query": (per_query("core.sq_dists_to"), "count"),
        "counter.transform_query.us_per_query": (walk.seconds["counter.transform_query"] / nq * 1e6, "us"),
        "counter.count.self_ms_per_query": (self_s / nq * 1e3, "ms"),
        "counter.count.visited_mean": (visited, "count"),
        "oracle.visiting_mean": (oracle_mean, "count"),
        "counter.visited_over_oracle": (visited / oracle_mean, "ratio"),
        "io.read_points.s": (load.seconds["io.read_points"], "s"),
        "io.file_digest.s": (load.seconds["io.file_digest"], "s"),
        "io.save_model.s": (save_s, "s"),
        "io.load_model.s": (load_s, "s"),
        "ref.numpy_scan_p50_us": (scan_p50 * 1e6, "us"),
        "ref.index_over_scan_p50": (plain_p50 / scan_p50, "ratio"),
        "trace.overhead_ratio": (traced.wall / plain.wall, "ratio"),
    }
    for verdict in ("stabbed", "covered", "disjoint"):
        mean = statistics.fmean(a.verdict_counts.get(verdict, 0) for a in ok) if ok else 0.0
        m[f"counter.count.{verdict}_mean"] = (mean, "count")
    return RunResult(m, checked)
