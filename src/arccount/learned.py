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
bytes.  Beside it, ``pair_stab_counts`` holds one 1 MiB float32 buffer
for a chunk's shifted products, two float32 copies of the points (one in
the order of their projections on the principal axis), and for each of a
block of ``_CHUNK_CELLS // d`` queries four float32 edges and 16 bytes of
order and projection.  A chunk's scatter makes at most
``max(_SCATTER_PAIRS, n)`` pair keys at a time, however many pairs its
queries hold.  Only once a chunk has many stab pairs does it add its two
float32 masks and one float32 n x n matrix, the running sum of the
chunks' products, which scipy's ``sgemm`` accumulates in place.  That
branch is the only importer of scipy here, so a build that never takes it
never loads scipy (about 45 MB of peak RSS).
The tree step, a dense Prim over one uint64 key per vertex (the int64
edge key plus 2**62), reads one row of the counts per step and holds O(n)
beside them.  A job whose counts and float32 matrix would pass
``_PAIR_BYTES_BUDGET`` is refused before either is allocated; the check
takes them at 8 n^2 bytes, their size with uint32 counts, an upper bound
whatever the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    FLOAT32,
    FLOAT64,
    ContractViolation,
    EpsParams,
    Seed,
    WeightedPointSet,
    band_half_width,
    sq_dists_to,
    sq_norms,
    stab_masks,
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
# pair_stab_counts: pair keys a scatter makes at a time (n where n is more),
# 256 KiB of int64, so a chunk of queries in one dense region holds no more
# keys than the average chunk of near-d8 (about 48,000 pairs)
_SCATTER_PAIRS = 2**15
# every integer up to this is exact in float32
_F32_EXACT = 2**24
# pair_stab_counts: side of the square blocks in which the counts are formed
_SYM_BLOCK = 256
# _principal_axis: power iterations on the points' scatter matrix; the axis
# only sets the order of the pass, never a count
_AXIS_ITERATIONS = 8
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
    ``core.band_half_width`` proves, over the window of points that its
    queries can reach.  Its chunks hold queries close along the points'
    principal axis, so the chunks differ in how many pairs they hold.  A
    chunk adds its share of X in one of two ways, both exact because X
    holds integers and integer sums do not depend on their order:

    * few pairs (near a, inside b) against the chunk's rows x n^2 cells:
      each pair is scattered into X with ``np.add.at``, from the keys of
      a run of near cells at a time, at most ``max(_SCATTER_PAIRS, n)``;
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
            _scatter_pairs(cells, n, row, a, inside_flat, inside_k)
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


def _scatter_pairs(
    cells: np.ndarray, n: int, row: np.ndarray, a: np.ndarray, inside_flat: np.ndarray, inside_k: np.ndarray
) -> None:
    """Adds 1 into the flat n x n ``cells`` at ``a * n + b`` for each near entry (row, a) and each inside entry (row, b).

    A row's inside entries are contiguous in ``inside_flat``, whose entries
    are ``row * n + b``, and ``inside_k`` counts them per row.  The keys
    are made for a run of near entries at a time, of at most
    ``max(_SCATTER_PAIRS, n)`` pairs, however many pairs the chunk holds.
    The increment is a scalar of the counts' own dtype: a Python 1 takes
    ``np.add.at`` off its fast path.
    """
    reps = inside_k[row]
    ends = np.cumsum(reps)
    # near entry i's pairs are numbered from ends[i] - reps[i]; its pair
    # numbered g reads inside_flat at base[i] + g
    base = np.cumsum(inside_k)[row] - ends
    # inside_flat[pos] is row * n + b; the key is a * n + b
    shift = (a - row) * n
    piece = max(_SCATTER_PAIRS, n)
    one = cells.dtype.type(1)
    lo = 0
    while lo < len(reps):
        first = int(ends[lo] - reps[lo])
        hi = int(ends.searchsorted(first + piece, "right"))
        pos = np.repeat(base[lo:hi], reps[lo:hi])
        pos += np.arange(first, first + len(pos))
        key = inside_flat[pos]
        del pos
        key += np.repeat(shift[lo:hi], reps[lo:hi])
        np.add.at(cells, key, one)
        lo = hi


def _chunk_cells(
    points: np.ndarray, queries: np.ndarray, params: EpsParams
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The stab masks of ``queries``, ``_CHUNK_CELLS // n`` rows at a time, from a certified float32 pass.

    Yields per chunk ``(k, near, inside)``: its number of rows, and the
    flat indices ``row * n + point`` of its near cells and of its inside
    cells, exactly as ``core.stab_masks`` reads the ``sq_dists_to`` row of
    each query.  Rows come in ascending order, each row's cells together,
    but a row's points are in the order of the points' projections.

    The queries are taken a block of ``_CHUNK_CELLS // d`` at a time, and
    within a block in the order of their projections on the points'
    principal axis (``_principal_axis``), each projection ``x @ axis`` one
    float64 GEMV; the points are laid out once in the same order.  A
    chunk's queries then project into a short range, and a point whose
    projection lies past that range by more than ``_window_reach`` is far
    from every one of them.  Each chunk reads only the contiguous window
    of points within its range widened by that reach, at both ends rounded
    outward by one ulp (``_window``); every other cell of the chunk is far.
    A window with an edge that is not finite holds every point.  A window
    of every point reads the points in their own order, so no candidate is
    mapped back to its point; which of the two orders a chunk reads never
    changes its cells.

    The pass works on the points and queries less ``c``, the centre of the
    points' bounding box: distances do not move, but norms, and the
    rounding bound with them, shrink to the data's own spread.  One float32
    GEMM per chunk, ``[Q, -1] @ [P, pp/2]'`` over its window, forms ``h``,
    and each query's edges ``s +- B/2`` at both radii follow from
    ``core.band_half_width``, which proves the bound for this float32 pass.
    Each edge is rounded up to the least float32 at or above it, so every
    compare of a float32 ``h`` with it is exact.  The edges are derived for
    a block at a time, and their float64 temporaries are freed before the
    block's chunks run.

    The candidates are the window's cells at or above their row's lower
    outer edge; every other cell is far.  A candidate at or above an upper
    edge is inside (outer) or near (inner), and one below the lower inner
    edge is not near.  The rest, the band cells, take ``stab_masks`` of
    ``sq_dists_to`` on exactly those pairs.  A row that ``core.FLOAT32``
    does not certify (``2M + B`` past its largest value, as when a
    coordinate or a square is past float32's range, or d past its
    dimension limit) has no bound: each of its window's cells is a band
    cell.  The band's distances are taken ``_CHUNK_CELLS // d`` pairs at a
    time.  ``_chunk_masks`` does one chunk's work.
    """
    n, d = points.shape
    step = max(1, _CHUNK_CELLS // d)
    low, high = points.min(axis=0), points.max(axis=0)
    # halved before the sum, which then cannot overflow
    center = 0.5 * low + 0.5 * high
    axis = _principal_axis(points)
    along = points @ axis
    by_axis = np.argsort(along)
    along = along[by_axis]
    # a projection past float64's range bounds nothing: no window then
    points_largest = float(np.maximum(-low, high).max()) if np.isfinite(along).all() else math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        pp = sq_dists_to(points, center)
        # [P, pp/2] in float32, clipped to its range: past it no row is
        # certified, and an uncertified row's zeroed query still meets
        # finite values.  A window of every point reads it as it is, and
        # any other window reads its rows in projection order
        p32 = np.empty((n, d + 1), dtype=np.float32)
        np.clip(points - center, -FLOAT32.max, FLOAT32.max, out=p32[:, :d])
        np.minimum(0.5 * pp, FLOAT32.max, out=p32[:, d])
        # squared by multiplication: a huge radius gives inf, never OverflowError
        r2 = params.radius * params.radius
        big2 = params.outer_radius * params.outer_radius
    p32_along = p32[by_axis]
    rows = max(1, _CHUNK_CELLS // n)
    h = None
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            qq = sq_dists_to(block, center)
        # the block's queries in projection order: 16 bytes per query
        proj = block @ axis
        order = np.argsort(proj)
        proj, qq = proj[order], qq[order]
        reach = _window_reach(axis, params.outer_radius, float(max(points_largest, -block.min(), block.max())))
        with np.errstate(over="ignore", invalid="ignore"):
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
        if h is None:
            # the chunks' products, laid out once the first block's float64
            # temporaries are freed
            h = np.empty(rows * n, dtype=np.float32)
        for lo in range(0, len(block), rows):
            q = block[order[lo : lo + rows]]
            k = len(q)
            first, last = _window(along, float(proj[lo]), float(proj[lo + k - 1]), reach)
            if first == last:
                yield k, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
                continue
            # a window of every point reads them in their own order: no
            # candidate is then mapped back to its point
            window, columns = (p32, None) if last - first == n else (p32_along[first:last], by_axis[first:last])
            near, inside = _chunk_masks(
                q, edges32[:, lo : lo + k], certified[lo : lo + k], center, window, columns, h, points, params
            )
            yield k, near, inside


def _chunk_masks(
    q: np.ndarray,
    edges: np.ndarray,
    certified: np.ndarray,
    center: np.ndarray,
    window: np.ndarray,
    columns: np.ndarray | None,
    h: np.ndarray,
    points: np.ndarray,
    params: EpsParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of ``_chunk_cells``: the flat near and inside cells of the queries ``q``.

    ``window`` holds the float32 rows ``[P - c, pp/2]`` of the points the
    chunk reads, and ``columns`` the point of each row, or None where the
    rows are every point in its own order; every other cell is far.
    ``edges`` and ``certified`` are the four float32 edges and the
    certification of each query, and ``h`` a float32 buffer of at least
    ``len(q) * len(window)`` products.  The work sits in a function of its
    own, apart from the pass's set-up, so that each allocation costs
    tracemalloc (``bench --trace``) one short line-table lookup.
    """
    n, d = points.shape
    k, width = len(q), len(window)
    qa = np.empty((k, d + 1), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        np.clip(q - center, -FLOAT32.max, FLOAT32.max, out=qa[:, :d])
    qa[~certified, :d] = 0.0
    qa[:, d] = -1.0
    hk = np.matmul(qa, window.T, out=h[: k * width].reshape(k, width))
    cand = np.flatnonzero(hk >= edges[0, :, None])
    # each row's edges, repeated over its candidates
    per_row = np.diff(np.searchsorted(cand, np.arange(0, (k + 1) * width, width)))
    hi_big, hi_r, lo_r = np.repeat(edges[1:], per_row, axis=1)
    hc = hk.reshape(-1)[cand]
    inside = hc >= hi_big
    near = hc >= hi_r
    band = ~inside | (~near & (hc >= lo_r))
    cells = cand
    if columns is not None:
        # window column to point: row * width + column becomes row * n + point
        row = np.repeat(np.arange(k), per_row)
        cells = columns[cand - row * width]
        cells += row * n
    flat = cells[band]
    row = flat // n
    step = max(1, _CHUNK_CELLS // d)
    d2 = np.empty(len(flat))
    for i in range(0, len(flat), step):
        part = slice(i, i + step)
        d2[part] = sq_dists_to(points[flat[part] - row[part] * n], q[row[part]])
    band_near, band_far = stab_masks(d2, params)
    near[band] = band_near
    inside[band] = ~band_far
    # compress, not a boolean index: several times faster on these masks
    return np.compress(near, cells), np.compress(inside, cells)


def _window(along: np.ndarray, low: float, high: float, reach: float) -> tuple[int, int]:
    """The slice of the ascending ``along`` within ``reach`` of [low, high], each edge moved outward by one ulp.

    The slice is all of ``along`` where an edge is not finite.
    """
    start, stop = math.nextafter(low - reach, -math.inf), math.nextafter(high + reach, math.inf)
    if not (math.isfinite(start) and math.isfinite(stop)):
        return 0, len(along)
    return int(along.searchsorted(start, "left")), int(along.searchsorted(stop, "right"))


def _principal_axis(points: np.ndarray) -> np.ndarray:
    """A float64 unit vector near the principal axis of ``points``: the direction ``_chunk_cells`` sorts by.

    ``_AXIS_ITERATIONS`` power iterations on the scatter matrix ``Y'Y`` of
    the points less their mean, each applied as two GEMVs through ``Y``, so
    no d x d matrix is held and no LAPACK routine runs.  ``Y`` is scaled to
    at most 1 in magnitude, so no product overflows, and the iterations
    start from its longest row.  Where they give no finite unit vector (all
    points equal, or a spread past float64's range), the first coordinate
    axis stands in: any axis keeps the pass exact, and a good one only
    narrows its windows.
    """
    d = points.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = points - points.mean(axis=0)
        y /= np.abs(y).max()
        axis = y[np.argmax(sq_norms(y))]
        for _ in range(_AXIS_ITERATIONS):
            axis = y.T @ (y @ axis)
            axis /= np.sqrt(axis @ axis)
    if np.isfinite(axis).all():
        return axis
    first = np.zeros(d)
    first[0] = 1.0
    return first


def _window_reach(axis: np.ndarray, outer_radius: float, largest: float) -> float:
    """A reach past which two projections on ``axis`` prove their points far: ``sq_dists_to >= outer_radius**2``.

    ``largest`` bounds the magnitude of every coordinate of both points;
    the result is inf where no finite reach is proved.  The projections are
    ``x @ axis`` in float64, one GEMV, for a point ``p`` and a query ``q``
    alike, and ``T = outer_radius * outer_radius`` in float64 is the far
    threshold ``core.stab_masks`` compares ``sq_dists_to`` with.  Let
    ``v = 2**-53``, ``tau`` float64's smallest normal, ``g(k) = k v / (1 - k v)``,
    ``X = largest``, ``R = outer_radius``, ``D = |p - q|**2`` exactly and
    ``G = 2 (d + 8) v``, at least ``g(d + 8)`` (for d below 2**50).  Taking
    every rounding, underflow included:

    * a projection errs by at most ``g(d) |axis|_1 X + d tau``, fused or
      not, in any order of its sum (each of its ``2d - 1`` operations that
      underflows loses at most ``v tau``), and by Cauchy-Schwarz the exact
      projections of ``p`` and ``q`` differ by at most ``|p - q| |axis|``;
    * ``sq_dists_to`` rounds each difference (exactly, where subnormal),
      each square and ``d - 1`` sums of nonnegative terms, so its ``d2`` is
      at least ``(1 - g(d + 2)) D - d v tau``, while ``T <= (1 + v) R**2``;
    * so ``|p - q| >= rho = R (1 + G) + sqrt(2 d tau)`` gives ``d2 >= T``,
      and projections more than ``rho |axis| + 2 g(d) |axis|_1 X + 2 d tau``
      apart give ``|p - q| > rho``;
    * ``|axis| <= nu (1 + G)`` and ``|axis|_1 <= l1 (1 + G)``, ``nu`` and
      ``l1`` the float64 norm and 1-norm, while ``nu`` is at least 1/2.

    The reach ``(nu (1 + G) rho + 2 G l1 X + 2 d tau) (1 + G)``, of
    nonnegative terms in at most 12 roundings, is at least that bound.  A
    window edge ``lo - reach`` or ``hi + reach`` moved outward by one
    ``math.nextafter`` lies beyond its exact value, so a point outside it
    projects more than the reach from every query of the chunk.  An
    overflowed ``T``, a short axis or an overflow on the way gives inf.
    """
    d = axis.size
    v, tiny = FLOAT64.unit_roundoff, FLOAT64.tiny
    g = 2 * (d + 8) * v
    grow = 1.0 + g
    nu = math.sqrt(axis @ axis)
    if not (nu >= 0.5 and math.isfinite(outer_radius * outer_radius)):
        return math.inf
    rho = outer_radius * grow + math.sqrt(2 * d * tiny)
    l1 = float(np.abs(axis).sum())
    return (nu * grow * rho + 2 * g * l1 * largest + 2 * d * tiny) * grow


def learned_spanning_tree(counts: np.ndarray, n: int) -> SpanningTree:
    """Minimum spanning tree under the symmetric integer ``counts``, edges ordered by (count, a, b).

    Edge {a, b}, a < b, has the int64 key ``count * n**2 + a * n + b``, so
    keys order edges exactly by (count, a, b) and the tree is unique: the
    one Kruskal's algorithm takes from all pairs sorted by key, returned in
    that order (an all-zero matrix yields the star at vertex 0).  Counts
    must be integers of magnitude below ``2**62 // n**2``, which stab counts
    of any sample ``pair_stab_counts`` takes (below 2**31) meet up to
    n = 2**15.

    A dense Prim from vertex 0 keeps one key per vertex, over all n: the
    least key of its edges into the tree.  The keys lie in (-2**62, 2**62)
    and are held in uint64 plus 2**62; a vertex in the tree has 2**63 more,
    above every vertex outside it, so no step looks up which vertices are
    left.  Unsigned sums wrap modulo 2**64, and each true sum lies in
    [0, 2**64), so each is exact.  A step takes the least key, reads that
    vertex's row of ``counts`` contiguously and lowers every key against
    it: O(n) beside ``counts``.
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
    bias, in_tree, top = np.uint64(2**62), np.uint64(2**63), np.uint64(2**64 - 1)
    vertex = np.arange(n, dtype=np.uint64)
    times_n = vertex * np.uint64(n)
    # the key's a * n + b for an edge {v, u}: v * n + u below u, u * n + v above it, biased
    below, above = times_n + bias, vertex + bias
    best = np.full(n, top, dtype=np.uint64)
    row = np.empty(n, dtype=np.uint64)
    keys = np.empty(n - 1, dtype=np.uint64)
    u = 0
    for j in range(n - 1):
        below[u] += in_tree
        above[u] += in_tree
        # counts[u] * n**2 in uint64: a negative count wraps, and its sum below is still exact
        np.multiply(counts[u], np.uint64(span), out=row, dtype=np.uint64, casting="unsafe")
        head, tail = row[:u], row[u:]
        head += below[:u]
        head += vertex[u]
        tail += above[u:]
        tail += times_n[u]
        np.minimum(best, row, out=best)
        u = int(best.argmin())
        keys[j] = best[u]
        best[u] = top
    del vertex, times_n, below, above, best, row
    keys.sort()
    keys -= bias
    lo_end, hi_end = np.divmod(keys.view(np.int64) % span, n)
    return SpanningTree(n=n, edges=list(map(Edge, lo_end.tolist(), hi_end.tolist())))


def tree_objective(counts: np.ndarray, tree: SpanningTree) -> int:
    """Total sampled stab count of a tree's edges.

    Each count is taken as a Python number, so the sum of narrow integer
    counts does not wrap past their type's range.
    """
    return int(sum(counts[e.a, e.b].item() for e in tree.edges))
