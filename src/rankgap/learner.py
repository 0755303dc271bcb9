"""Rank-truncating recommender: rank choice, estimation, recommendation, welfare.

The learner ingests a revealed ratings matrix, keeps the smallest rank whose
next singular value is at most its exploration limit alpha, and recommends
each user the highest-estimate items, breaking ties toward popular columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import (
    RatingsMatrix,
    GroupPartition,
    SpectralSummary,
    _mask_indices,
    _numeric_rank,
    _row_reduce,
    column_abs_sums,
    singular_values_of,
    spectral,
    tie_tolerance,
)


@dataclass(frozen=True)
class LearnerModel:
    """Fitted learner state: exploration limit, selected rank, and the estimate."""

    alpha: float
    chosen_rank: int
    truncated: RatingsMatrix
    spectrum: SpectralSummary


@dataclass(frozen=True, eq=False)
class RecommendationOutcome:
    """Per-user recommendations for a fixed k, held as read-only arrays.

    ``chosen`` is m x k: row u lists user u's picks in ascending column
    order. ``tie`` (m x n) marks the items in at least one value-optimal
    k-set of each user, and ``pop_tie`` (m x n, inside ``tie``) those in at
    least one popularity-optimal k-set. ``negative_rows`` is a sorted np.intp
    array of the users whose estimated row has no nonnegative entry.
    """

    chosen: np.ndarray
    tie: np.ndarray
    pop_tie: np.ndarray
    k_items: int
    n_items: int
    derandomized: bool
    negative_rows: np.ndarray


@dataclass(frozen=True, eq=False)
class WelfareReport:
    """Welfare of one outcome; ``per_user_welfare`` is a read-only float64
    array, one entry per user. Reports compare by identity."""

    social_welfare: float
    per_user_welfare: np.ndarray
    u_ben: float
    u_en: float


# ---------------------------------------------------------------------------
# Rank selection and truncation
# ---------------------------------------------------------------------------

def tvr(s: np.ndarray, k: int) -> float:
    """Share of the descending singular values s kept by a rank-k truncation."""
    rank = _numeric_rank(s)
    if not 1 <= k <= rank:
        raise ValueError(f"k must be in [1, {rank}], got {k}")
    s = s[:rank]
    return float(s[:k].sum() / s.sum())


def choose_rank(s: np.ndarray, alpha: float) -> int:
    """Smallest admissible rank whose next singular value is at most alpha.

    ``s`` holds a matrix's singular values in descending order. Those beyond
    the numeric rank count as zero, so the result is always in [1, rank]. A
    singular value within the tie tolerance of alpha is treated as equal to
    it, and equality admits truncation.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    rank = _numeric_rank(s)
    if rank == 0:
        raise ValueError("zero matrix has no admissible rank")
    tol = tie_tolerance(float(s[0]))
    for k in range(1, rank):
        if s[k] <= alpha + tol:
            return k
    return rank


def truncate(summary: SpectralSummary, k: int) -> RatingsMatrix:
    """Best rank-k approximation in Frobenius norm, from the matrix's full
    decomposition; entries may go negative."""
    rank = summary.numeric_rank
    if not 1 <= k <= rank:
        raise ValueError(f"k must be in [1, {rank}], got {k}")
    u = summary.left[:, :k]
    s = summary.singular_values[:k]
    vt = summary.right_t[:k]
    return RatingsMatrix((u * s) @ vt, nonnegative=False)


def fit_learner(R_tilde: RatingsMatrix, alpha: float) -> LearnerModel:
    """Run the learning phase: decompose, pick the rank, truncate."""
    summary = spectral(R_tilde)
    k_star = choose_rank(summary.singular_values, alpha)
    return LearnerModel(
        alpha=float(alpha),
        chosen_rank=k_star,
        truncated=truncate(summary, k_star),
        spectrum=summary,
    )


# ---------------------------------------------------------------------------
# Recommendation
# ---------------------------------------------------------------------------

def recommend(
    R_hat: RatingsMatrix,
    k_items: int = 1,
    seed: int | None = None,
    derandomize: bool = False,
) -> RecommendationOutcome:
    """Per-user top-k recommendation with popularity tie-breaking.

    For k = 1 each user's tie set is the within-tolerance argmax of her
    estimated row; the most popular tied columns (by absolute column sum)
    form the popularity tie set, and the pick is a seeded uniform draw from
    it. For k > 1 the same two-stage rule applies to k-sets, represented by
    their forced and tied members rather than by enumeration.

    Each run of consecutive rows equal as bytes (in the block model, one
    taste group) is decided once, on its first row, and repeated: the rule
    reads only a row and the tolerances, which come from the whole estimate.
    Every stage is one masked expression over those first rows. With v_k a
    row's k-th largest entry, items above v_k + tol are mandatory and items
    within tol of v_k fill the remaining slots. Among those boundary items,
    p_k is the popularity of the slots-th most popular one. More popular ones
    are locked in; the last places are filled from the pool tied with p_k.

    ``derandomize=True`` fills them with the lowest-indexed pool items, the
    lexicographically smallest optimal set, for golden tests and
    byte-stable reports. Otherwise each user, in order, draws her fill from
    the seeded generator.

    Rows with no nonnegative entry cannot occur under the model's
    assumptions; they are recommended by the same rule and listed, as a
    sorted read-only np.intp array, in ``negative_rows``.
    """
    m, n = R_hat.shape
    if not 1 <= k_items <= n:
        raise ValueError(f"k_items must be in [1, {n}], got {k_items}")
    colpop = column_abs_sums(R_hat)
    entries = R_hat.entries
    top = float(singular_values_of(entries)[0]) if entries.any() else 0.0
    tol = tie_tolerance(top)
    tol_pop = tie_tolerance(float(colpop.max(initial=0.0)))

    bits = entries.view(np.uint64)
    changed = _row_reduce(np.logical_or, bits[1:] != bits[:-1])
    starts = np.flatnonzero(np.concatenate([[True], changed]))
    lengths = np.diff(starts, append=m)
    a = entries[starts]

    # A list index copies the column, so the partitioned buffer is freed.
    v_k = np.partition(a, n - k_items, axis=1)[:, [n - k_items]]
    mandatory = a > v_k + tol
    boundary = np.abs(a - v_k) <= tol
    slots = k_items - mandatory.sum(axis=1)
    p_k = np.take_along_axis(
        np.sort(np.where(boundary, colpop, -np.inf), axis=1), (n - slots)[:, None], axis=1
    )
    pop_locked = boundary & (colpop > p_k + tol_pop)
    pop_pool = boundary & (np.abs(colpop - p_k) <= tol_pop)
    pop_slots = slots - pop_locked.sum(axis=1)
    picked = mandatory | pop_locked
    if derandomize:
        picked |= pop_pool & (np.cumsum(pop_pool, axis=1) <= pop_slots[:, None])
        chosen = np.repeat(np.nonzero(picked)[1].reshape(-1, k_items), lengths, axis=0)
    else:
        rng = np.random.default_rng(seed)
        picked = np.repeat(picked, lengths, axis=0)
        for u, row in enumerate(np.repeat(np.arange(len(a)), lengths).tolist()):
            pool = np.flatnonzero(pop_pool[row])
            picked[u, rng.choice(pool, size=int(pop_slots[row]), replace=False)] = True
        chosen = np.nonzero(picked)[1].reshape(m, k_items)
    tie = np.repeat(mandatory | boundary, lengths, axis=0)
    pop_tie = np.repeat(mandatory | pop_locked | pop_pool, lengths, axis=0)
    for array in (chosen, tie, pop_tie):
        array.flags.writeable = False
    return RecommendationOutcome(
        chosen=chosen,
        tie=tie,
        pop_tie=pop_tie,
        k_items=k_items,
        n_items=n,
        derandomized=derandomize,
        negative_rows=_mask_indices(np.repeat(a.max(axis=1) < 0.0, lengths)),
    )


# ---------------------------------------------------------------------------
# Welfare and learner utilities
# ---------------------------------------------------------------------------

def social_welfare(
    R_star: RatingsMatrix,
    outcome: RecommendationOutcome,
    R_tilde: RatingsMatrix | None = None,
) -> WelfareReport:
    """True-ratings welfare of an outcome; engagement is taken from R_tilde.

    Per-user welfare is the sum of the user's true ratings over her chosen
    set. When R_tilde is omitted the reports' engagement term falls back to
    R_star, which is the truthful case.
    """
    m, n = R_star.shape
    if outcome.chosen.shape[0] != m or outcome.n_items != n:
        raise ValueError(
            f"outcome shaped for {outcome.chosen.shape[0]}x{outcome.n_items}, "
            f"matrix is {m}x{n}"
        )
    per_user = np.take_along_axis(R_star.entries, outcome.chosen, axis=1).sum(axis=1)
    per_user.flags.writeable = False
    # Summed left to right from +0.0, as sum() did before Python 3.12 made
    # float sums compensated; np.sum's pairwise order would change the low
    # bits too. cumsum adds in order.
    total = float(np.cumsum(np.concatenate([[0.0], per_user]))[-1])
    return WelfareReport(
        social_welfare=total,
        per_user_welfare=per_user,
        u_ben=total,
        u_en=utility_en(R_star if R_tilde is None else R_tilde),
    )


def utility_en(R_tilde: RatingsMatrix) -> float:
    """Engagement utility: sum of absolute reported ratings."""
    return float(np.abs(R_tilde.entries).sum())


def kappa_k(R_star: RatingsMatrix, p: GroupPartition, k: int) -> float:
    """Smallest k-th order statistic (descending) among majority users' rows.

    kappa_k(..., 1) is the smallest top rating held by any majority user,
    the ceiling for safe uprating values.
    """
    m, n = R_star.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not p.majority_users.size:
        raise ValueError("no majority users")
    rows = R_star.entries[p.majority_users]
    kth = np.sort(rows, axis=1)[:, n - k]
    return float(kth.min())


__all__ = [
    "LearnerModel",
    "RecommendationOutcome",
    "WelfareReport",
    "tvr",
    "choose_rank",
    "truncate",
    "fit_learner",
    "recommend",
    "social_welfare",
    "utility_en",
    "kappa_k",
]
