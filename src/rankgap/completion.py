"""Desk-scale online matrix completion: exploration, zero-padded completions,
and solution reduction.

No general rank minimizer lives here (that problem is NP-hard); the module
only constructs feasible completions, reduces arbitrary feasible solutions
onto their majority block, and verifies rank relations on matrices small
enough to check directly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .matrix import GroupPartition, RatingsMatrix, _row_reduce, numeric_rank_of


@dataclass(frozen=True, eq=False)
class PartialMatrix:
    """Known entries on an observation mask; everything else is unknown.

    ``mask`` is a read-only m x n bool array marking the cells the learner has
    seen, the form :func:`explore_per_user` returns.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        m = np.array(self.mask, dtype=bool, order="C")
        if v.shape != m.shape or v.ndim != 2:
            raise ValueError("values and mask must be equal-shape 2-D arrays")
        v = v.copy()
        v[~m] = 0.0
        v.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_full(cls, R_star: RatingsMatrix, mask: np.ndarray) -> "PartialMatrix":
        """The entries of ``R_star`` on an observation mask of its shape."""
        if np.shape(mask) != R_star.shape:
            raise ValueError(f"observation mask shape {np.shape(mask)} is not {R_star.shape}")
        return cls(values=R_star.entries, mask=mask)

    @classmethod
    def from_triples(cls, rows: int, cols: int, triples) -> "PartialMatrix":
        """Observed ``(user, item, value)`` triples on a rows x cols grid.

        Indices must be integers inside the grid, values finite and pairs
        distinct; a violation raises ValueError naming the observation.
        """
        try:
            rows, cols = operator.index(rows), operator.index(cols)
        except TypeError:
            raise ValueError(f"rows and cols must be integers, got {rows!r} and {cols!r}") from None
        if rows < 0 or cols < 0:
            raise ValueError(f"rows and cols must be nonnegative, got {rows} and {cols}")
        values = np.zeros((rows, cols))
        mask = np.zeros((rows, cols), dtype=bool)
        for triple in triples:
            try:
                u, i, r = triple
                u, i, r = operator.index(u), operator.index(i), float(r)
            except (TypeError, ValueError):
                raise ValueError(
                    f"observation {triple!r} is not a (user, item, value) triple "
                    "with integer indices"
                ) from None
            if not (0 <= u < rows and 0 <= i < cols):
                raise ValueError(f"observation {triple!r} lies outside the {rows}x{cols} grid")
            if not math.isfinite(r):
                raise ValueError(f"observation {triple!r} has a non-finite value")
            if mask[u, i]:
                raise ValueError(f"duplicate observation at ({u}, {i})")
            mask[u, i] = True
            values[u, i] = r
        return cls(values=values, mask=mask)

    def feasible(self, X: RatingsMatrix) -> bool:
        """True when X matches every known entry exactly."""
        if X.shape != self.values.shape:
            return False
        return bool(np.all(X.entries[self.mask] == self.values[self.mask]))


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def explore_per_user(R_star: RatingsMatrix, per_user: int, seed: int) -> np.ndarray:
    """Query per_user distinct items for every user, uniformly per row.

    Returns the queried cells as a read-only m x n bool mask.
    """
    m, n = R_star.shape
    if not 0 <= per_user <= n:
        raise ValueError(f"per_user must be in [0, {n}], got {per_user}")
    rng = np.random.default_rng(seed)
    mask = np.zeros((m, n), dtype=bool)
    for u in range(m):
        mask[u, rng.choice(n, size=per_user, replace=False)] = True
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# Completion and reduction
# ---------------------------------------------------------------------------

def observed_minority_block_zero(
    mask: np.ndarray, R_star: RatingsMatrix, p: GroupPartition
) -> bool:
    """True iff every observed minority-user x minority-item rating is zero.

    ``mask`` is an observation mask of R_star's shape. This is the hypothesis
    under which zero-padding the majority block is a sparsest completion; an
    empty mask satisfies it vacuously.
    """
    observed = PartialMatrix.from_full(R_star, mask).values
    return not np.any(p.minority_block(observed) != 0.0)


def sparsest_majority_completion(
    partial: PartialMatrix, p: GroupPartition
) -> RatingsMatrix:
    """Zero-fill completion: known entries kept, every unknown set to zero.

    Under the zero-observation hypothesis all minority columns (and minority
    rows) end up identically zero, so the result's numeric rank equals that
    of its completed majority block; this is asserted. Raises ValueError when
    an observed entry contradicts the hypothesis or the cross-block zeros.
    """
    if not p.covers(*partial.values.shape):
        raise ValueError("partition does not cover the grid")
    mask, vals = partial.mask, partial.values
    # With the cover checked, a hit in a minority column outside the minority
    # block is a majority-user entry, and likewise for a minority row.
    observed_nonzero = mask & (vals != 0.0)
    for block, what in (
        (p.minority_block(observed_nonzero), "minority-block"),
        (observed_nonzero[:, p.minority_items], "majority-user/minority-item"),
        (observed_nonzero[p.minority_users], "minority-user/majority-item"),
    ):
        if np.any(block):
            raise ValueError(f"observed nonzero {what} entry; zero-padding is infeasible")
    X = np.where(mask, vals, 0.0)
    out = RatingsMatrix(X, nonnegative=bool(np.all(X >= 0)))
    if numeric_rank_of(X) != numeric_rank_of(p.majority_block(X)):
        raise AssertionError("completion rank differs from its majority block rank")
    return out


def reduce_solution(X: RatingsMatrix, p: GroupPartition) -> RatingsMatrix:
    """Zero every block except majority-user x majority-item.

    The surviving block is a submatrix of X, so the numeric rank can only
    stay or drop; feasibility is preserved whenever X was feasible for an
    observation mask satisfying the zero-observation hypothesis.
    """
    out = X.entries.copy()
    out[:, p.minority_items] = 0.0
    out[p.minority_users, :] = 0.0
    return RatingsMatrix(out, nonnegative=bool(np.all(out >= 0)))


# ---------------------------------------------------------------------------
# Monte Carlo on per-user exploration
# ---------------------------------------------------------------------------

# Keys drawn per block of Monte Carlo trials: 2**16 float64 keys, 512 KiB.
MC_BLOCK_KEYS = 2**16


def miss_probability_mc(
    R_star: RatingsMatrix,
    p: GroupPartition,
    per_user: int,
    trials: int,
    seed: int,
) -> float:
    """Empirical probability that per-user exploration satisfies the
    zero-observation hypothesis.

    Each trial samples per_user items for every user (uniform subsets per
    row); the event holds iff no positive minority-block entry is queried.
    Vectorized with the random-key trick: a row's sampled subset is the
    per_user smallest of n iid uniform keys, which is a uniform subset.

    Keys are drawn in consecutive blocks of about MC_BLOCK_KEYS, so memory
    does not grow with ``trials``. The generator fills each block in C order
    from one output per key, so the blocks are the single draw of every
    key cut into pieces, and the estimate is the same for any block size.
    """
    m, n = R_star.shape
    if not 0 <= per_user <= n:
        raise ValueError(f"per_user must be in [0, {n}], got {per_user}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # Nonzero minority-block entries in (user, item) order, one key row per hot user.
    rows, cols = np.nonzero(p.minority_block(R_star.entries) != 0.0)
    if not rows.size:
        return 1.0
    hot_rows, starts = np.unique(rows, return_index=True)
    hot_items = [items.tolist() for items in np.split(p.minority_items[cols], starts[1:])]
    # A key is sampled iff fewer than per_user keys of its row lie below it.
    # Rank is monotone in the key, ties included, so a row's hot items all
    # escape the sample iff its smallest hot key does.  The count runs column
    # by column, since the rows are short; uint8 holds every count of a row
    # shorter than 256.
    count_dtype = np.uint8 if n < 256 else np.intp
    block = max(1, MC_BLOCK_KEYS // (hot_rows.size * n))
    rng = np.random.default_rng(seed)
    # One key buffer per call; the last block fills a leading slice of it.
    buffer = np.empty((min(block, trials), hot_rows.size, n))
    hits = 0
    for done in range(0, trials, block):
        keys = rng.random(out=buffer[: min(block, trials - done)])
        smallest = np.empty(keys.shape[:2])
        for r, items in enumerate(hot_items):
            smallest[:, r] = functools.reduce(np.minimum, [keys[:, r, i] for i in items])
        # One row per (trial, hot row) pair, flattened for the column loop.
        flat_smallest = smallest.reshape(-1)
        below = np.zeros(flat_smallest.size, dtype=count_dtype)
        for column in keys.reshape(-1, n).T:
            below += column < flat_smallest
        escaped = below.reshape(smallest.shape) >= per_user
        hits += int(np.count_nonzero(_row_reduce(np.logical_and, escaped)))
    return hits / trials


__all__ = [
    "PartialMatrix",
    "explore_per_user",
    "observed_minority_block_zero",
    "sparsest_majority_completion",
    "reduce_solution",
    "miss_probability_mc",
]
