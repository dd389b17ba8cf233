"""Data-driven spanning trees: learn edge costs from sampled queries.

Instead of guarding against every possible query, draw a sample from the
distribution queries actually come from, count for every point pair how
many sampled queries stab it, and take a minimum spanning tree under those
counts.  The tree is optimal for the sample by exchange argument, and a
large enough sample makes the sample mean track the true expected stabbing
within constant factors.  The module holds the samples, their stab
counts and the tree; the holdout audit of a built index,
``evaluate_visiting``, sits beside ``count`` and flags a holdout row
equal to a training row, a zero of either sign included.

Memory: the counts are one n x n matrix of the least unsigned integer type
that holds the sample size m (``np.min_scalar_type(m)``): uint8 below 256
queries, uint16 below 65,536 and uint32 above, so n^2, 2 n^2 or 4 n^2
bytes.  Beside it,
``pair_stab_counts`` holds one 1 MiB float32 buffer for a chunk's shifted
products, a float32 copy of the points, four float32 edges for each of a
block of ``_CHUNK_CELLS // d`` queries, and at most
``_CHUNK_CELLS // _SCATTER_COST`` scattered pair keys per point.  Only
once a chunk has many stab pairs does it add its two float32 masks and
one float32 n x n matrix, the running sum of the chunks' products, which
scipy's ``sgemm`` accumulates in place.  That branch is the only importer
of scipy here, so a build that never takes it never loads scipy (about
45 MB of peak RSS).
The tree step, a dense Prim over int64 edge keys, reads one row of the
counts per step and holds O(n) beside them.  A job whose counts and
float32 matrix would pass ``_PAIR_BYTES_BUDGET`` is refused before either
is allocated; the check takes them at 8 n^2 bytes, their size with uint32
counts, an upper bound whatever the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    FLOAT32, ContractViolation, EpsParams, Seed, WeightedPointSet, band_half_width, sq_dists_to, stab_masks
)
from .spantree import Edge, SpanningTree

# pair_stab_counts: cells per query chunk (1 MiB of float32 shifted
# products); each chunk then adds its stab pairs by a scatter or a GEMM,
# both exact on integers
_CHUNK_CELLS = 2**18
# pair_stab_counts: a chunk scatters its (near, inside) pairs when pairs times
# this is at most the rows x n^2 multiply-adds of its GEMM, else it runs the
# GEMM.  Scatter and GEMM cost the same at a pair density of 1.4e-3 to 1.7e-3
# (uniform d = 2 squares, n 256 to 2048, one BLAS thread); this sits below it.
_SCATTER_COST = 2**10
# every integer up to this is exact in float32
_F32_EXACT = 2**24
# pair_stab_counts: side of the square blocks in which the counts are formed
_SYM_BLOCK = 256
# pair_stab_counts: every count is at most the sample size m, held in
# np.min_scalar_type(m); samples are taken below this, so that type is at
# most uint32 and learned_spanning_tree's keys hold the counts up to n = 2**15
_COUNT_LIMIT = 2**31
# pair_stab_counts: bytes of its n x n arrays, the counts and the GEMM
# branch's float32 partial, that a build may hold: n up to 16,384.  A job
# is admitted at 8 n^2, their size with uint32 counts, so the jobs admitted
# do not depend on the sample size; 8 n^2 is an upper bound, as uint16
# counts (samples below 65,536) take 6 n^2 with the partial and 2 n^2
# without.  Peak RSS above the inputs was 80 MiB at n 4096 and 287 MiB at
# n 8192 on the near-d8 generator with int32 counts, and 46 MiB at n 4096
# with uint16 counts (scripts/build_cost.py), so a job at the budget should
# peak near 1.1 GiB scattered and 2.1 GiB with the partial: a quarter of an
# 8 GiB machine
_PAIR_BYTES_BUDGET = 2**31


@dataclass(frozen=True, eq=False)
class QuerySample:
    """Sampled query points plus a descriptor of where they came from; frozen, compared by identity."""

    queries: np.ndarray  # (m, d)
    source: str

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(np.asarray(self.queries, dtype=np.float64))
        if q.ndim != 2 or q.shape[0] == 0:
            raise ContractViolation("query sample must be a nonempty (m, d) array")
        if not np.all(np.isfinite(q)):
            raise ContractViolation("query sample contains non-finite values")
        q.flags.writeable = False
        object.__setattr__(self, "queries", q)

    def __len__(self) -> int:
        return self.queries.shape[0]


def default_sample_size(n: int, d: int, delta: float) -> int:
    """Sample size ceil(n * (d * log2(n) + log2(1/delta)))."""
    if n < 2 or d < 1:
        raise ContractViolation(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if not (0.0 < delta < 1.0):
        raise ContractViolation(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(n * (d * math.log2(n) + math.log2(1.0 / delta)))


# -- query generators ---------------------------------------------------------


def uniform_queries(m: int, lo: np.ndarray, hi: np.ndarray, seed: Seed) -> QuerySample:
    """``m`` points uniform in the box [lo, hi]."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if m < 1 or lo.shape != hi.shape or np.any(hi < lo):
        raise ContractViolation("uniform sampling needs m >= 1 and a valid box")
    rng = seed.generator()
    pts = rng.uniform(lo, hi, size=(m, lo.size))
    return QuerySample(pts, source=f"uniform-box:m={m}")


def near_data_queries(
    pts: WeightedPointSet, m: int, sigma: float, seed: Seed
) -> QuerySample:
    """``m`` points, each a uniformly chosen data point plus Gaussian noise."""
    if m < 1 or sigma <= 0.0:
        raise ContractViolation("near-data sampling needs m >= 1 and sigma > 0")
    rng = seed.generator()
    centers = rng.integers(0, len(pts), size=m)
    noise = rng.normal(0.0, sigma, size=(m, pts.dim))
    return QuerySample(pts.points[centers] + noise, source=f"near-data:m={m},sigma={sigma}")


# -- stab counting and the tree ----------------------------------------------


def pair_stab_counts(pts: WeightedPointSet, sample: QuerySample, params: EpsParams) -> np.ndarray:
    """Symmetric unsigned (n, n) matrix: entry (a, b) counts sampled queries stabbing {a, b}.

    The rule is ``core.stab_masks`` of ``sq_dists_to`` rows: a query stabs
    {a, b} when one end is near (d2 <= r2) and the other far
    (d2 >= (1+eps)^2 r2).  Let N[q, a] = 1 when point a is near query q,
    G[q, b] = 1 when point b lies inside the outer ball (it is not far),
    and F = 1 - G mark the far points.  The count matrix N'F + F'N then
    equals ``c[a] + c[b] - X[a, b] - X[b, a]``, with c the column sums of N
    and X = N'G.  Its diagonal is 0, because near points lie inside.  A
    count, and every entry of X, is at most the sample size m, so the
    matrix takes ``np.min_scalar_type(m)``: uint8 below 256 queries,
    uint16 below 65,536, uint32 above; a sample of 2**31 queries or more
    is refused.

    The queries are taken in chunks of ``_CHUNK_CELLS // n`` rows, so no
    m x n array is ever held, and ``_chunk_cells`` finds each chunk's near
    and inside cells by a certified float32 pass, whose rounding bound
    ``core.band_half_width`` proves.  A chunk adds its share
    of X in one of two ways, both exact because X holds integers and
    integer sums do not depend on their order:

    * few pairs (near a, inside b) against the chunk's rows x n^2 cells:
      each pair is scattered into X with ``np.add.at``;
    * many pairs: a float32 GEMM of the chunk's masks, built from its cell
      lists, accumulated in place into one float32 n x n matrix and added
      into X before any sum could pass 2**24, below which it is exact.

    The counts are then formed in place in X, one pair of square blocks at
    a time in int64, so X is the only n x n integer matrix ever held.
    """
    if pts.dim != sample.queries.shape[1]:
        raise ContractViolation(
            f"training sample dimension {sample.queries.shape[1]} does not match data dimension {pts.dim}"
        )
    if len(sample) >= _COUNT_LIMIT:
        raise ContractViolation(f"stab counts hold samples below {_COUNT_LIMIT} queries, got {len(sample)}")
    n = len(pts)
    if 8 * n * n > _PAIR_BYTES_BUDGET:
        raise ContractViolation(
            f"a learned build over {n} points needs at most {8 * n * n} bytes for its n x n stab counts, "
            f"over the budget of {_PAIR_BYTES_BUDGET}"
        )
    near_total = np.zeros(n, dtype=np.int64)
    x = np.zeros((n, n), dtype=np.min_scalar_type(len(sample)))
    cells = x.reshape(-1)
    partial = None
    partial_rows = 0
    for k, near_flat, inside_flat in _chunk_cells(pts.points, sample.queries, params):
        row = near_flat // n
        a = near_flat - row * n
        near_total += np.bincount(a, minlength=n)
        # near and inside points per query
        starts = np.arange(0, (k + 1) * n, n)
        near_k = np.diff(np.searchsorted(near_flat, starts))
        inside_k = np.diff(np.searchsorted(inside_flat, starts))
        if int(near_k @ inside_k) * _SCATTER_COST <= k * n * n:
            # every near entry (q, a) meets each inside entry (q, b) of its
            # row; a row's inside entries are contiguous in ``inside_flat``
            reps = inside_k[row]
            ends = np.cumsum(reps)
            pos = np.repeat(np.cumsum(inside_k)[row] - ends, reps)
            pos += np.arange(len(pos))
            key = inside_flat[pos]
            del pos
            # inside_flat[pos] is row * n + b; the key is a * n + b.  The
            # increment is a scalar of the counts' own dtype: a Python 1
            # takes add.at off its fast path.
            key += np.repeat((a - row) * n, reps)
            np.add.at(cells, key, x.dtype.type(1))
        else:
            # imported here, not at module level: see the module docstring
            from scipy.linalg.blas import sgemm

            if partial is None:
                partial = np.zeros((n, n), dtype=np.float32)
            if partial_rows + k > _F32_EXACT:
                np.add(x, partial, out=x, casting="unsafe")
                partial.fill(0.0)
                partial_rows = 0
            near_mask = np.zeros((k, n), dtype=np.float32)
            near_mask.reshape(-1)[near_flat] = 1.0
            inside_mask = np.zeros((k, n), dtype=np.float32)
            inside_mask.reshape(-1)[inside_flat] = 1.0
            # partial += near' inside, accumulated in place: partial.T is
            # partial's buffer in Fortran order, and the masks' transposes
            # are theirs, so the GEMM copies nothing and makes no n x n product
            sgemm(1.0, inside_mask.T, near_mask.T, beta=1.0, c=partial.T, trans_b=1, overwrite_c=1)
            partial_rows += k
    if partial is not None:
        # uint8 or uint16 plus float32 is summed in float32, uint32 plus
        # float32 in float64, a buffer at a time: no n x n temporary.  Both
        # are exact, as every sum is an entry of X, at most m: below 2**16
        # in float32's 2**24, below 2**31 in float64's 2**53
        np.add(x, partial, out=x, casting="unsafe")
    for i in range(0, n, _SYM_BLOCK):
        bi = slice(i, i + _SYM_BLOCK)
        for j in range(i, n, _SYM_BLOCK):
            bj = slice(j, j + _SYM_BLOCK)
            # c[a] + c[b] - X[a, b] - X[b, a], which lies in [0, m]
            s = np.add.outer(near_total[bi], near_total[bj])
            s -= x[bi, bj]
            s -= x[bj, bi].T
            x[bi, bj] = s
            x[bj, bi] = s.T
    return x


def _chunk_cells(
    points: np.ndarray, queries: np.ndarray, params: EpsParams
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The stab masks of ``queries``, ``_CHUNK_CELLS // n`` rows at a time, from a certified float32 pass.

    Yields per chunk ``(k, near, inside)``: its number of rows, and the
    ascending flat indices ``row * n + point`` of its near cells and of its
    inside cells, exactly as ``core.stab_masks`` reads the ``sq_dists_to``
    row of each query.

    The pass works on the points and queries less ``c``, the centre of the
    points' bounding box: distances do not move, but norms, and the
    rounding bound with them, shrink to the data's own spread.  One float32
    GEMM per chunk, ``[Q, -1] @ [P, pp/2]'``, forms ``h``, and each query's
    edges ``s +- B/2`` at both radii follow from ``core.band_half_width``,
    which proves the bound for this float32 pass.  Each edge is rounded up
    to the least float32 at or above it, so every compare of a float32
    ``h`` with it is exact.  The edges are derived for a block of
    ``_CHUNK_CELLS // d`` queries at a time, and their float64 temporaries
    are freed before the block's chunks run.

    The candidates are the cells at or above their row's lower outer edge;
    every other cell is far.  A candidate at or above an upper edge is
    inside (outer) or near (inner), and one below the lower inner edge is
    not near.  The rest, the band cells, take ``stab_masks`` of
    ``sq_dists_to`` on exactly those pairs.  A row that ``core.FLOAT32``
    does not certify (``2M + B`` past its largest value, as when a
    coordinate or a square is past float32's range, or d past its
    dimension limit) has no bound: each of its cells is a band cell.  The
    band's distances are taken ``_CHUNK_CELLS // d`` pairs at a time.
    """
    n, d = points.shape
    step = max(1, _CHUNK_CELLS // d)
    # halved before the sum, which then cannot overflow
    center = 0.5 * points.min(axis=0) + 0.5 * points.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        pp = sq_dists_to(points, center)
        # [P, pp/2] in float32, clipped to its range: past it no row is
        # certified, and an uncertified row's zeroed query still meets finite values
        p32 = np.empty((n, d + 1), dtype=np.float32)
        np.clip(points - center, -FLOAT32.max, FLOAT32.max, out=p32[:, :d])
        np.minimum(0.5 * pp, FLOAT32.max, out=p32[:, d])
        # squared by multiplication: a huge radius gives inf, never OverflowError
        r2 = params.radius * params.radius
        big2 = params.outer_radius * params.outer_radius
    rows = max(1, _CHUNK_CELLS // n)
    h = np.empty((rows, n), dtype=np.float32)
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            qq = sq_dists_to(block, center)
            m = math.sqrt(pp.max()) + np.sqrt(qq)
            m *= m
            t_big, t_r = qq - big2, qq - r2
            half = band_half_width(d, m, t_big, t_r, FLOAT32)
            # a NaN fails the compare: it too leaves its row uncertified
            certified = (2.0 * m + 2.0 * half <= FLOAT32.max) & (d <= FLOAT32.max_dim)
            # an uncertified row's edges are infinite, so its cells are all band cells
            half[~certified] = np.inf
            t_big[~certified] = t_r[~certified] = 0.0
            s_big, s_r = 0.5 * t_big, 0.5 * t_r
            edges = np.stack([s_big - half, s_big + half, s_r + half, s_r - half])
            # a float32 h is at or above a float64 edge iff it is at or above the
            # least float32 there, so every compare below is exact in float32
            edges32 = edges.astype(np.float32)
        np.nextafter(edges32, np.inf, out=edges32, where=edges32 < edges)
        # the block's float64 temporaries are not held across its chunks
        del qq, m, t_big, t_r, half, s_big, s_r, edges
        for lo in range(0, len(block), rows):
            q = block[lo : lo + rows]
            k = len(q)
            qa = np.empty((k, d + 1), dtype=np.float32)
            with np.errstate(over="ignore", invalid="ignore"):
                np.clip(q - center, -FLOAT32.max, FLOAT32.max, out=qa[:, :d])
            qa[~certified[lo : lo + k], :d] = 0.0
            qa[:, d] = -1.0
            hk = np.matmul(qa, p32.T, out=h[:k])
            cand = np.flatnonzero(hk >= edges32[0, lo : lo + k, None])
            # each row's edges, repeated over its candidates
            per_row = np.diff(np.searchsorted(cand, np.arange(0, (k + 1) * n, n)))
            hi_big, hi_r, lo_r = np.repeat(edges32[1:, lo : lo + k], per_row, axis=1)
            hc = hk.reshape(-1)[cand]
            inside = hc >= hi_big
            near = hc >= hi_r
            band = ~inside | (~near & (hc >= lo_r))
            flat = cand[band]
            row = flat // n
            d2 = np.empty(len(flat))
            for i in range(0, len(flat), step):
                part = slice(i, i + step)
                d2[part] = sq_dists_to(points[flat[part] - row[part] * n], q[row[part]])
            band_near, band_far = stab_masks(d2, params)
            near[band] = band_near
            inside[band] = ~band_far
            # compress, not a boolean index: several times faster on these masks
            yield k, np.compress(near, cand), np.compress(inside, cand)


def learned_spanning_tree(counts: np.ndarray, n: int) -> SpanningTree:
    """Minimum spanning tree under the symmetric integer ``counts``, edges ordered by (count, a, b).

    Edge {a, b}, a < b, has the int64 key ``count * n**2 + a * n + b``, so
    keys order edges exactly by (count, a, b) and the tree is unique: the
    one Kruskal's algorithm takes from all pairs sorted by key, returned in
    that order (an all-zero matrix yields the star at vertex 0).  Counts
    must be integers of magnitude below ``2**62 // n**2``, which stab counts
    of any sample ``pair_stab_counts`` takes (below 2**31) meet up to
    n = 2**15.  A dense Prim from vertex 0 keeps each
    outside vertex's least key into the tree, packed at the front of
    ``best``; a step takes the least, swap-removes it and lowers the
    others against its row of ``counts``: O(n) beside ``counts``.
    """
    counts = np.asarray(counts)
    if n < 1 or counts.shape != (n, n):
        raise ContractViolation(f"counts must be ({n}, {n}) with n >= 1, got {counts.shape}")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ContractViolation(f"counts must be integers, got dtype {counts.dtype}")
    span = n * n
    limit = 2**62 // span
    if counts.min() <= -limit or counts.max() >= limit:
        raise ContractViolation(f"counts for n = {n} must lie strictly between -{limit} and {limit}")
    rest = np.arange(1, n, dtype=np.int64)  # the vertices outside the tree
    best = counts[0, 1:].astype(np.int64) * span + rest  # the key of each one's least edge into it
    keys = np.empty(n - 1, dtype=np.int64)
    for j in range(n - 1):
        last = n - 2 - j
        i = best[: last + 1].argmin()
        u = int(rest[i])
        keys[j] = best[i]
        rest[i], best[i] = rest[last], best[last]
        v = rest[:last]
        row = counts[u, v].astype(np.int64)
        row *= span
        row += np.minimum(v, u) * n + np.maximum(v, u)
        np.minimum(best[:last], row, out=best[:last])
    lo_end, hi_end = np.divmod(np.sort(keys) % span, n)
    return SpanningTree(n=n, edges=list(map(Edge, lo_end.tolist(), hi_end.tolist())))


def tree_objective(counts: np.ndarray, tree: SpanningTree) -> int:
    """Total sampled stab count of a tree's edges.

    Each count is taken as a Python number, so the sum of narrow integer
    counts does not wrap past their type's range.
    """
    return int(sum(counts[e.a, e.b].item() for e in tree.edges))
