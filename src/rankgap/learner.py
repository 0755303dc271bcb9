"""Rank-truncating recommender: rank choice, estimation, recommendation, welfare.

The learner ingests a revealed ratings matrix, keeps the smallest rank whose
next singular value is at most its exploration limit alpha, and recommends
each user the highest-estimate items, breaking ties toward popular columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import (
    RatingsMatrix,
    GroupPartition,
    SpectralSummary,
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


@dataclass(frozen=True)
class UserRecommendation:
    """Tie structure and final pick for one user.

    A value-optimal k-set is ``mandatory`` plus any ``slots``-subset of
    ``boundary``. Popularity narrows the boundary choice: every
    popularity-optimal set also includes ``pop_locked`` and fills the last
    ``pop_slots`` places from ``pop_pool``. Family sizes are binomial counts;
    the families themselves are never enumerated.
    """

    mandatory: tuple[int, ...]
    boundary: tuple[int, ...]
    slots: int
    pop_locked: tuple[int, ...]
    pop_pool: tuple[int, ...]
    pop_slots: int
    chosen: tuple[int, ...]
    num_value_sets: int
    num_pop_sets: int

    @property
    def tie_set(self) -> frozenset[int]:
        """Items appearing in at least one value-optimal set."""
        return frozenset(self.mandatory) | frozenset(self.boundary)

    @property
    def pop_tie_set(self) -> frozenset[int]:
        """Items appearing in at least one popularity-optimal set."""
        return frozenset(self.mandatory) | frozenset(self.pop_locked) | frozenset(self.pop_pool)

    @property
    def item(self) -> int:
        """The single chosen item; only meaningful for k = 1."""
        if len(self.chosen) != 1:
            raise ValueError("item accessor requires a single-item recommendation")
        return self.chosen[0]


@dataclass(frozen=True)
class RecommendationOutcome:
    """Per-user recommendations for a fixed k, plus bookkeeping flags."""

    users: tuple[UserRecommendation, ...]
    k_items: int
    n_items: int
    derandomized: bool
    negative_rows: frozenset[int]

    def chosen_items(self) -> list[tuple[int, ...]]:
        return [u.chosen for u in self.users]


@dataclass(frozen=True)
class WelfareReport:
    social_welfare: float
    per_user_welfare: tuple[float, ...]
    u_ben: float
    u_en: float


# ---------------------------------------------------------------------------
# Rank selection and truncation
# ---------------------------------------------------------------------------

def _summary_of(R_or_summary) -> SpectralSummary:
    if isinstance(R_or_summary, SpectralSummary):
        return R_or_summary
    return spectral(R_or_summary)


def tvr(R: RatingsMatrix | SpectralSummary, k: int) -> float:
    """Share of the singular-value mass kept by a rank-k truncation."""
    summary = _summary_of(R)
    rank = summary.numeric_rank
    if not 1 <= k <= rank:
        raise ValueError(f"k must be in [1, {rank}], got {k}")
    s = summary.singular_values[:rank]
    return float(s[:k].sum() / s.sum())


def choose_rank(R: RatingsMatrix | SpectralSummary, alpha: float) -> int:
    """Smallest admissible rank whose next singular value is at most alpha.

    Singular values beyond the numeric rank count as zero, so the result is
    always in [1, rank]. A singular value within the tie tolerance of alpha
    is treated as equal to it, and equality admits truncation.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    summary = _summary_of(R)
    rank = summary.numeric_rank
    if rank == 0:
        raise ValueError("zero matrix has no admissible rank")
    s = summary.singular_values
    tol = tie_tolerance(float(s[0]))
    for k in range(1, rank):
        if s[k] <= alpha + tol:
            return k
    return rank


def truncate(
    R: RatingsMatrix, k: int, summary: SpectralSummary | None = None
) -> RatingsMatrix:
    """Best rank-k approximation in Frobenius norm; entries may go negative."""
    summary = spectral(R) if summary is None else summary
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
    k_star = choose_rank(summary, alpha)
    return LearnerModel(
        alpha=float(alpha),
        chosen_rank=k_star,
        truncated=truncate(R_tilde, k_star, summary),
        spectrum=summary,
    )


# ---------------------------------------------------------------------------
# Recommendation
# ---------------------------------------------------------------------------

def _row_recommendation(
    row: np.ndarray,
    colpop: np.ndarray,
    k: int,
    tol: float,
    tol_pop: float,
    rng: np.random.Generator,
    derandomize: bool,
) -> UserRecommendation:
    order = np.argsort(-row, kind="stable")
    v_k = row[order[k - 1]]
    mandatory = np.flatnonzero(row > v_k + tol)
    boundary = np.flatnonzero(np.abs(row - v_k) <= tol)
    slots = k - mandatory.size

    if slots == 0:
        pop_locked = np.zeros(0, dtype=int)
        pop_pool = np.zeros(0, dtype=int)
        pop_slots = 0
        filled = np.zeros(0, dtype=int)
    else:
        bpop = colpop[boundary]
        pop_order = np.argsort(-bpop, kind="stable")
        p_k = bpop[pop_order[slots - 1]]
        pop_locked = boundary[bpop > p_k + tol_pop]
        pop_pool = boundary[np.abs(bpop - p_k) <= tol_pop]
        pop_slots = slots - pop_locked.size
        if derandomize:
            filled = np.sort(pop_pool)[:pop_slots]
        else:
            filled = rng.choice(np.sort(pop_pool), size=pop_slots, replace=False)

    chosen = np.sort(np.concatenate([mandatory, pop_locked, filled]))
    return UserRecommendation(
        mandatory=tuple(int(i) for i in mandatory),
        boundary=tuple(int(i) for i in boundary),
        slots=int(slots),
        pop_locked=tuple(int(i) for i in pop_locked),
        pop_pool=tuple(int(i) for i in pop_pool),
        pop_slots=int(pop_slots),
        chosen=tuple(int(i) for i in chosen),
        num_value_sets=math.comb(boundary.size, slots),
        num_pop_sets=math.comb(pop_pool.size, pop_slots),
    )


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

    ``derandomize=True`` picks the lexicographically smallest optimal set
    instead of drawing, for golden tests and byte-stable reports.

    Rows with no nonnegative entry cannot occur under the model's
    assumptions; they are recommended by the same rule and flagged.
    """
    m, n = R_hat.shape
    if not 1 <= k_items <= n:
        raise ValueError(f"k_items must be in [1, {n}], got {k_items}")
    colpop = column_abs_sums(R_hat)
    a = R_hat.entries
    top = float(singular_values_of(a)[0]) if a.any() else 0.0
    tol = tie_tolerance(top)
    tol_pop = tie_tolerance(float(colpop.max(initial=0.0)))
    rng = np.random.default_rng(seed)
    users = []
    negative_rows = []
    for u in range(m):
        row = a[u]
        if row.max() < 0.0:
            negative_rows.append(u)
        users.append(
            _row_recommendation(row, colpop, k_items, tol, tol_pop, rng, derandomize)
        )
    return RecommendationOutcome(
        users=tuple(users),
        k_items=k_items,
        n_items=n,
        derandomized=derandomize,
        negative_rows=frozenset(negative_rows),
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
    if len(outcome.users) != m or outcome.n_items != n:
        raise ValueError(
            f"outcome shaped for {len(outcome.users)}x{outcome.n_items}, matrix is {m}x{n}"
        )
    per_user = tuple(
        float(R_star.entries[u, list(rec.chosen)].sum())
        for u, rec in enumerate(outcome.users)
    )
    total = float(sum(per_user))
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
    maj = sorted(p.majority_users)
    if not maj:
        raise ValueError("no majority users")
    rows = R_star.entries[maj]
    kth = np.sort(rows, axis=1)[:, n - k]
    return float(kth.min())


__all__ = [
    "LearnerModel",
    "UserRecommendation",
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
