"""Scenario builders: indicator examples, random sweeps, self-checked instances.

Builders that promise structure (class membership, a passing strategy, a
spectral gap) re-verify that structure before returning and raise RuntimeError
on a bad draw, so downstream code never receives a silently out-of-contract
instance.  Randomized builders take a ``numpy.random.Generator`` so callers
own the seeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collective import FinderInputs, _collective_index
from .matrix import (
    GroupPartition,
    RatingsMatrix,
    block_partition,
    numeric_rank_of,
    singular_value_gap,
    singular_values_of,
)
from .popgap import GeneralStrategy, PopularitySplit

__all__ = [
    "BlockScenario",
    "GapInstance",
    "StrategyInstance",
    "indicator_scenario",
    "paired_indicator",
    "multigroup_example",
    "stratified_collective",
    "random_block_scenario",
    "gap_class_instance",
    "general_strategy_instance",
    "random_finder_inputs",
]

# Ratings used by the self-checked instance builders.  The margins these
# leave against the gap scalars were verified for every size the builders can
# draw (group sizes 200..400 for class instances, 400..600 for strategy
# instances); see scripts/derive_popgap_values.py for the worked endpoints.
NICHE_TOP = 0.3
NICHE_POPULAR = 0.25
SWITCH_TOP = 0.3
SWITCH_POPULAR = 0.1
RESIDUAL_TOP = 0.2
RESIDUAL_POPULAR = 0.16
COLLECTIVE_RATING = 0.75
COLLECTIVE_FRACTION = 0.4


@dataclass(frozen=True)
class BlockScenario:
    """Two-block matrix with a spectral gap and a tolerance drawn inside it."""

    matrix: RatingsMatrix
    partition: GroupPartition
    alpha: float
    k_maj: int


@dataclass(frozen=True)
class GapInstance:
    """Popularity-split matrix inside the gap class, tolerance inside its window.

    ``split`` is the one the builder's self-check judged; ``matrix`` and
    ``n_bar`` are read from it."""

    split: PopularitySplit
    alpha: float

    @property
    def matrix(self) -> RatingsMatrix:
        return self.split.matrix

    @property
    def n_bar(self) -> int:
        return self.split.n_bar


@dataclass(frozen=True, eq=False)
class StrategyInstance:
    """Gap-class matrix plus a replacement strategy passing every sufficiency check.

    ``split`` is the one the builder's self-check judged; ``matrix`` and
    ``n_bar`` are read from it."""

    split: PopularitySplit
    alpha: float
    strategy: GeneralStrategy
    collective: np.ndarray
    uprating: float

    @property
    def matrix(self) -> RatingsMatrix:
        return self.split.matrix

    @property
    def n_bar(self) -> int:
        return self.split.n_bar


def indicator_scenario(
    popular_sizes, niche_sizes
) -> tuple[RatingsMatrix, GroupPartition]:
    """0/1 matrix with one dedicated user group per item, popular groups first.

    Each user rates exactly her group's item with 1.0.  Users and items are
    ordered popular-then-niche, so the canonical block partition applies.
    """
    popular_sizes = tuple(int(s) for s in popular_sizes)
    niche_sizes = tuple(int(s) for s in niche_sizes)
    if not popular_sizes or not niche_sizes:
        raise ValueError("need at least one popular and one niche group")
    if min(popular_sizes + niche_sizes) < 1:
        raise ValueError("group sizes must be positive")
    sizes = popular_sizes + niche_sizes
    m, n = sum(sizes), len(sizes)
    a = np.zeros((m, n))
    row = 0
    for j, size in enumerate(sizes):
        a[row : row + size, j] = 1.0
        row += size
    matrix = RatingsMatrix(a, nonnegative=True)
    partition = block_partition(sum(popular_sizes), len(popular_sizes), m, n)
    partition.validate_for(matrix)
    return matrix, partition


def paired_indicator(m_maj: int, m_minor: int) -> tuple[RatingsMatrix, GroupPartition]:
    """Two popular groups of m_maj users and two niche groups of m_minor users."""
    return indicator_scenario((m_maj, m_maj), (m_minor, m_minor))


def multigroup_example() -> tuple[RatingsMatrix, GroupPartition]:
    """Four popular groups of 100 users plus a 4-user and a 1-user niche item."""
    return indicator_scenario((100, 100, 100, 100), (4, 1))


def stratified_collective(
    matrix: RatingsMatrix, partition: GroupPartition, fraction: float
) -> np.ndarray:
    """First ceil(fraction * size) users of each majority top-item group, as
    a collective index array.

    Majority users are grouped by their unique true top item; a tie on a row
    maximum makes the grouping ambiguous and raises.
    """
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    users = partition.majority_users
    rows = matrix.entries[users]
    top = rows == rows.max(axis=1, keepdims=True)
    tied = np.flatnonzero(top.sum(axis=1) != 1)
    if tied.size:
        raise ValueError(f"user {users[tied[0]]} has tied top items; stratification ambiguous")
    # A stable sort keeps each top-item group in user order; a user is kept
    # when their rank within the group is below ceil(fraction * group size).
    top_item = top.argmax(axis=1)
    order = np.argsort(top_item, kind="stable")
    item = top_item[order]
    start = np.searchsorted(item, item, side="left")
    size = np.searchsorted(item, item, side="right") - start
    keep = np.arange(item.size) - start < np.ceil(fraction * size)
    return _collective_index(users[order[keep]])


def random_block_scenario(rng: np.random.Generator) -> BlockScenario:
    """Random two-block matrix with an open spectral gap and a tolerance in it.

    Majority entries are uniform on [0.5, 1.5]; the minority block is rescaled
    so its top singular value sits at half the majority block's smallest kept
    one, which keeps the selection window open by construction.
    """
    m_bar = int(rng.integers(3, 9))
    n_bar = int(rng.integers(2, min(m_bar, 6) + 1))
    m_min = int(rng.integers(1, 5))
    n_min = int(rng.integers(1, 5))
    maj = rng.uniform(0.5, 1.5, size=(m_bar, n_bar))
    while numeric_rank_of(maj) < n_bar:
        maj = rng.uniform(0.5, 1.5, size=(m_bar, n_bar))
    k_maj = n_bar
    sigma_k = float(singular_values_of(maj)[k_maj - 1])
    mino = rng.uniform(0.5, 1.5, size=(m_min, n_min))
    mino *= 0.5 * sigma_k / float(singular_values_of(mino)[0])

    m, n = m_bar + m_min, n_bar + n_min
    a = np.zeros((m, n))
    a[:m_bar, :n_bar] = maj
    a[m_bar:, n_bar:] = mino
    matrix = RatingsMatrix(a, nonnegative=True)
    partition = block_partition(m_bar, n_bar, m, n)
    partition.validate_for(matrix)

    window = singular_value_gap(matrix, partition)
    if window.is_empty:
        raise RuntimeError("self-check failed: spectral gap window is empty")
    alpha = window.lower + float(rng.uniform(0.15, 0.85)) * (window.upper - window.lower)
    return BlockScenario(matrix=matrix, partition=partition, alpha=alpha, k_maj=k_maj)


def gap_class_instance(rng: np.random.Generator) -> GapInstance:
    """Random instance inside the popularity-gap class, self-checked.

    Popular columns are disjoint indicator groups, so the popular block's
    smallest kept singular value is exactly sqrt(group size).  Each niche item
    gets one dedicated minority user who tops out on it and leaves a smaller
    rating on a random popular column, which keeps her supported there.
    """
    n_bar = int(rng.integers(3, 6))
    n_niche = int(rng.integers(1, 3))
    g = int(rng.integers(200, 401))
    n = n_bar + n_niche
    m = n_bar * g + n_niche
    a = np.zeros((m, n))
    for j in range(n_bar):
        a[j * g : (j + 1) * g, j] = 1.0
    for j in range(n_niche):
        u = n_bar * g + j
        a[u, n_bar + j] = NICHE_TOP
        a[u, int(rng.integers(0, n_bar))] = NICHE_POPULAR
    split = PopularitySplit(RatingsMatrix(a, nonnegative=True), n_bar)

    report = split.membership
    if not (report.in_class and report.classes_exclusive and report.has_minority):
        raise RuntimeError("self-check failed: drawn instance left the class")
    window = split.window
    alpha = window.lower + float(rng.uniform(0.2, 0.8)) * (window.upper - window.lower)
    return GapInstance(split=split, alpha=alpha)


def general_strategy_instance(rng: np.random.Generator) -> StrategyInstance:
    """Gap-class instance plus a replacement passing all five sufficiency checks.

    Four popular indicator groups of equal size; one switch user who likes the
    target column best, one residual minority user attached to the last
    column.  The strategy uprates the target to a constant for a fixed
    fraction of each popular group (sampled, so the collective varies) and is
    realistic: no rating is lowered.
    """
    n_bar, n = 4, 6
    g = int(rng.integers(400, 601))
    q = round(COLLECTIVE_FRACTION * g)
    m = n_bar * g + 2
    a = np.zeros((m, n))
    for j in range(n_bar):
        a[j * g : (j + 1) * g, j] = 1.0
    u_switch, u_residual = n_bar * g, n_bar * g + 1
    a[u_switch, n_bar] = SWITCH_TOP
    a[u_switch, int(rng.integers(0, n_bar))] = SWITCH_POPULAR
    a[u_residual, n_bar + 1] = RESIDUAL_TOP
    a[u_residual, int(rng.integers(0, n_bar))] = RESIDUAL_POPULAR
    split = PopularitySplit(RatingsMatrix(a, nonnegative=True), n_bar)

    collective = np.concatenate(
        [rng.choice(np.arange(j * g, (j + 1) * g), size=q, replace=False) for j in range(n_bar)]
    )
    r_tilde = a[:, n_bar].copy()
    r_tilde[collective] = COLLECTIVE_RATING
    alpha = float(rng.uniform(1.2, 4.5))

    if not split.general_sufficiency(r_tilde, alpha).verdict:
        raise RuntimeError("self-check failed: strategy instance misses a condition")
    return StrategyInstance(
        split=split,
        alpha=alpha,
        strategy=GeneralStrategy(r_tilde),
        collective=_collective_index(collective),
        uprating=COLLECTIVE_RATING,
    )


def random_finder_inputs(rng: np.random.Generator) -> FinderInputs:
    """Random parameter vector for the uprating finder, feasible or not.

    Ranges are broad on purpose: a draw may admit no passing uprating at all
    (tiny kappa, large aggregate value) or a wide window of them.
    """
    sigma = float(rng.uniform(3.0, 15.0))
    return FinderInputs(
        sigma_kmaj=sigma,
        alpha=sigma * float(rng.uniform(0.2, 0.95)),
        n_bar=int(rng.integers(1, 7)),
        picky_col_sq=float(rng.uniform(0.0, 4.0)),
        av=float(rng.uniform(0.5, 40.0)),
        kappa=float(rng.uniform(0.05, 1.5)),
        coll_size=int(rng.integers(1, 201)),
    )
