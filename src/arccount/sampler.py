"""Weighted sampling with O(log n) updates over a flat binary heap.

The multiplicative-weights loop doubles individual weights up to n/2 times,
so totals can overflow doubles.  The sampler therefore keeps a global scale
exponent: whenever the stored total exceeds 2**500 every stored weight is
divided by 2**400 and the exponent offset grows by 400.  Stored weights stay
powers-of-two-exact under doubling, and relative proportions (hence the
sampling distribution) are untouched.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContractViolation

_RESCALE_TRIGGER = 2.0**500
_RESCALE_FACTOR = 2.0**400
_RESCALE_SHIFT = 400


class WeightedSampler:
    """Sample indices proportionally to nonnegative weights.

    Leaves sit in a power-of-two-sized flat array; internal cells hold the
    sum of their two children.  ``sample`` walks down from the root with a
    single uniform draw, resolving ties toward the left-most leaf.
    """

    def __init__(self, weights: np.ndarray) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ContractViolation("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ContractViolation("weights must be finite and nonnegative")
        self.n = int(w.size)
        self._leaf_count = 1 << (self.n - 1).bit_length() if self.n > 1 else 1
        # cells [1, leaf_count) are internal, [leaf_count, 2*leaf_count) leaves
        self._tree = np.zeros(2 * self._leaf_count, dtype=np.float64)
        self._tree[self._leaf_count : self._leaf_count + self.n] = w
        # one level at a time: cells [half, level) sum the pairs of [level, 2*level)
        level = self._leaf_count
        while level > 1:
            half = level // 2
            self._tree[half:level] = self._tree[level : 2 * level : 2] + self._tree[level + 1 : 2 * level : 2]
            level = half
        self.scale_exponent = 0
        self._maybe_rescale()

    # -- queries ------------------------------------------------------------

    @property
    def total(self) -> float:
        """Stored total; effective total is ``total * 2**scale_exponent``."""
        return float(self._tree[1])

    def weight(self, i: int) -> float:
        """Stored weight of leaf ``i`` (same global scale as ``total``)."""
        self._check_index(i)
        return float(self._tree[self._leaf_count + i])

    def log2_total(self) -> float:
        """log2 of the effective total, immune to the rescale offset."""
        if self.total <= 0.0:
            raise ContractViolation("empty distribution: total weight is zero")
        return math.log2(self.total) + self.scale_exponent

    def internal_sums_consistent(self, rel_tol: float = 1e-9) -> bool:
        """Check every internal cell equals the sum of its children."""
        for i in range(1, self._leaf_count):
            expect = self._tree[2 * i] + self._tree[2 * i + 1]
            if not math.isclose(self._tree[i], expect, rel_tol=rel_tol, abs_tol=0.0):
                return False
        return True

    # -- mutation -----------------------------------------------------------

    def update_weight(self, i: int, w: float) -> None:
        """Set leaf ``i`` to stored weight ``w``, refreshing ancestor sums."""
        self._check_index(i)
        if not (math.isfinite(w) and w >= 0.0):
            raise ContractViolation(f"weight must be finite and nonnegative, got {w}")
        cell = self._leaf_count + i
        self._tree[cell] = w
        cell //= 2
        while cell >= 1:
            self._tree[cell] = self._tree[2 * cell] + self._tree[2 * cell + 1]
            cell //= 2
        self._maybe_rescale()

    def scale_weight(self, i: int, factor: float) -> None:
        """Multiply leaf ``i`` by ``factor`` (exact for powers of two)."""
        self.update_weight(i, self.weight(i) * factor)

    def _maybe_rescale(self) -> None:
        while self._tree[1] > _RESCALE_TRIGGER:
            self._tree /= _RESCALE_FACTOR
            self.scale_exponent += _RESCALE_SHIFT

    # -- sampling -----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its weight."""
        total = self._tree[1]
        if total <= 0.0:
            raise ContractViolation("empty distribution: total weight is zero")
        u = rng.random() * total
        cell = 1
        while cell < self._leaf_count:
            left = self._tree[2 * cell]
            if u < left:
                cell = 2 * cell
            else:
                u -= left
                cell = 2 * cell + 1
        idx = cell - self._leaf_count
        if idx >= self.n or self._tree[cell] == 0.0:
            # u landed on trailing padding or a zero leaf through float
            # rounding at a boundary; fall back to the last positive leaf.
            positive = np.nonzero(self._tree[self._leaf_count : self._leaf_count + self.n])[0]
            idx = int(positive[-1])
        return int(idx)

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.n):
            raise ContractViolation(f"index {i} out of range for n={self.n}")


def build_sampler(weights: np.ndarray) -> WeightedSampler:
    """Build a sampler over ``weights`` in one bottom-up pass."""
    return WeightedSampler(weights)
