"""Exploration, zero-padded completion, solution reduction, and the sampling
Monte Carlo, checked on the walkthrough fixtures and random instances."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap.completion import (
    MC_BLOCK_KEYS,
    PartialMatrix,
    explore_per_user,
    miss_probability_mc,
    observed_minority_block_zero,
    reduce_solution,
    sparsest_majority_completion,
)
from rankgap.fixtures import (
    mc_4x4_completed,
    mc_4x4_round1,
    mc_4x4_round_t,
    mc_4x4_true,
    mc_6x6_less_sparse,
    mc_6x6_observed,
    mc_10x10,
)
from rankgap.matrix import GroupPartition, RatingsMatrix, block_partition, numeric_rank_of

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def mask_of(m, n, pairs):
    """An m x n observation mask holding the given (user, item) pairs."""
    mask = np.zeros((m, n), dtype=bool)
    for u, i in pairs:
        mask[u, i] = True
    return mask


def pairs_of(mask):
    """The (user, item) pairs an observation mask holds."""
    return frozenset(zip(*(x.tolist() for x in np.nonzero(mask))))


def random_feasible_instance(rng):
    """A random two-block matrix, a hypothesis-satisfying observation mask,
    and an arbitrary feasible completion of it."""
    m_bar, n_bar = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    m_min, n_min = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    m, n = m_bar + m_min, n_bar + n_min
    a = np.zeros((m, n))
    a[:m_bar, :n_bar] = rng.uniform(0.2, 1.0, size=(m_bar, n_bar))
    a[m_bar:, n_bar:] = rng.uniform(0.0, 1.0, size=(m_min, n_min))
    R = RatingsMatrix(a)
    p = block_partition(m_bar, n_bar, m, n)

    allowed = [
        (u, i)
        for u in range(m)
        for i in range(n)
        if not (u >= m_bar and i >= n_bar and a[u, i] != 0.0)
    ]
    take = int(rng.integers(1, len(allowed) + 1))
    chosen = [allowed[j] for j in rng.choice(len(allowed), size=take, replace=False)]
    omega = mask_of(m, n, chosen)
    partial = PartialMatrix.from_full(R, omega)

    filler = rng.uniform(-1.0, 1.0, size=(m, n))
    X = RatingsMatrix(np.where(partial.mask, partial.values, filler), nonnegative=False)
    return R, p, omega, partial, X


# ---------------------------------------------------------------------------
# Observation masks and partial matrices
# ---------------------------------------------------------------------------

def test_from_full_rejects_a_mask_of_another_shape():
    R = RatingsMatrix(np.ones((2, 2)))
    for mask in (np.ones((2, 3), bool), np.ones((3, 2), bool), np.ones(4, bool), True):
        with pytest.raises(ValueError, match=r"observation mask shape .* is not \(2, 2\)"):
            PartialMatrix.from_full(R, mask)
    partial = PartialMatrix.from_full(R, np.eye(2, dtype=bool))
    assert partial.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_partial_matrix_shape_and_duplicate_checks():
    with pytest.raises(ValueError, match="equal-shape"):
        PartialMatrix(values=np.zeros((2, 2)), mask=np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="duplicate"):
        PartialMatrix.from_triples(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])


def test_partial_matrix_zeroes_unobserved_values():
    mask = np.eye(2, dtype=bool)
    partial = PartialMatrix(values=np.ones((2, 2)), mask=mask)
    assert partial.values[0, 1] == 0.0
    assert pairs_of(partial.mask) == {(0, 0), (1, 1)}
    # The mask is copied: the caller's array is neither shared nor frozen.
    assert not partial.mask.flags.writeable and mask.flags.writeable


def test_feasibility_is_exact_equality_on_the_mask():
    partial = PartialMatrix.from_triples(2, 2, [(0, 0, 0.5)])
    good = RatingsMatrix(np.array([[0.5, 9.0], [9.0, 9.0]]))
    off = RatingsMatrix(np.array([[0.5 + 1e-12, 9.0], [9.0, 9.0]]))
    assert partial.feasible(good)
    assert not partial.feasible(off)
    assert not partial.feasible(RatingsMatrix(np.zeros((3, 2))))


@pytest.mark.parametrize(
    "rows, cols, triples, match",
    [
        (3, 2, [(-1, 0, 1.0)], r"observation \(-1, 0, 1\.0\) lies outside the 3x2 grid"),
        (3, 2, [(0, -2, 1.0)], r"observation \(0, -2, 1\.0\) lies outside"),
        (3, 2, [(3, 0, 1.0)], r"observation \(3, 0, 1\.0\) lies outside"),
        (3, 2, [(0, 2, 1.0)], r"observation \(0, 2, 1\.0\) lies outside"),
        (3, 2, [(0.5, 0, 1.0)], r"observation \(0\.5, 0, 1\.0\) is not a"),
        (3, 2, [("0", 0, 1.0)], r"observation \('0', 0, 1\.0\) is not a"),
        (3, 2, [(0, 0)], r"observation \(0, 0\) is not a"),
        (3, 2, [(0, 0, "high")], r"observation \(0, 0, 'high'\) is not a"),
        ("3", 2, [], "rows and cols must be integers, got '3' and 2"),
        (3, 2.0, [], "rows and cols must be integers, got 3 and 2.0"),
        (-1, 2, [], "rows and cols must be nonnegative"),
        (3, 2, [(0, 0, math.nan)], r"observation \(0, 0, nan\) has a non-finite value"),
        (3, 2, [(1, 1, 2.0), (0, 1, -math.inf)], r"\(0, 1, -inf\) has a non-finite"),
        (3, 2, [(2, 0, "inf")], r"observation \(2, 0, 'inf'\) has a non-finite value"),
    ],
)
def test_triples_outside_the_grid_are_named(rows, cols, triples, match):
    with pytest.raises(ValueError, match=match):
        PartialMatrix.from_triples(rows, cols, triples)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def test_exhaustive_exploration_sees_everything():
    R = RatingsMatrix(np.ones((3, 4)))
    omega = explore_per_user(R, per_user=4, seed=0)
    assert omega.sum() == 12
    assert pairs_of(omega) == {(u, i) for u in range(3) for i in range(4)}


def test_exploration_is_deterministic_under_seed():
    R = RatingsMatrix(np.ones((6, 5)))
    a = explore_per_user(R, per_user=2, seed=42)
    b = explore_per_user(R, per_user=2, seed=42)
    c = explore_per_user(R, per_user=2, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_exploration_coverage_matches_sampled_fraction():
    # 2 of 4 cells per row; without-replacement sampling makes each draw's
    # coverage exact, and per-cell frequencies even out across 1000 seeds
    R = RatingsMatrix(np.ones((5, 4)))
    counts = np.zeros((5, 4))
    coverages = []
    for seed in range(1000):
        omega = explore_per_user(R, per_user=2, seed=seed)
        coverages.append(omega.sum() / 20)
        counts += omega
    assert abs(np.mean(coverages) - 0.5) <= 0.02
    assert np.abs(counts / 1000 - 0.5).mean() <= 0.02


def test_per_user_exploration_samples_each_row():
    R = RatingsMatrix(np.ones((4, 5)))
    omega = explore_per_user(R, per_user=2, seed=3)
    assert omega.sum() == 8
    assert omega.sum(axis=1).tolist() == [2, 2, 2, 2]
    with pytest.raises(ValueError, match="per_user"):
        explore_per_user(R, per_user=6, seed=0)


def reference_explore_per_user(R_star, per_user, seed):
    """explore_per_user as it was when it returned an ObservedSet."""
    m, n = R_star.shape
    rng = np.random.default_rng(seed)
    pairs = set()
    for u in range(m):
        for i in rng.choice(n, size=per_user, replace=False):
            pairs.add((u, int(i)))
    return frozenset(pairs)


@given(seeds, st.integers(1, 7), st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_exploration_masks_match_the_pair_set_code(seed, m, n, data):
    """Same seed, same cells: the mask holds exactly the pairs drawn before."""
    R = RatingsMatrix(np.ones((m, n)))
    per_user = data.draw(st.integers(0, n))
    mask = explore_per_user(R, per_user, seed)
    assert mask.dtype == bool and mask.shape == (m, n)
    assert not mask.flags.writeable
    assert pairs_of(mask) == reference_explore_per_user(R, per_user, seed)


# ---------------------------------------------------------------------------
# Hypothesis checker
# ---------------------------------------------------------------------------

def test_observations_avoiding_hot_entries_pass():
    R, p = mc_10x10()
    hot = {
        (u, i)
        for u in sorted(p.minority_users)
        for i in sorted(p.minority_items)
        if R.entries[u, i] != 0.0
    }
    assert len(hot) == 2
    everything_else = frozenset(
        (u, i) for u in range(10) for i in range(10) if (u, i) not in hot
    )
    assert observed_minority_block_zero(mask_of(10, 10, everything_else), R, p)


def test_observing_a_positive_minority_entry_fails():
    R, p = mc_10x10()
    u, i = next(
        (u, i)
        for u in sorted(p.minority_users)
        for i in sorted(p.minority_items)
        if R.entries[u, i] != 0.0
    )
    assert not observed_minority_block_zero(mask_of(10, 10, {(u, i)}), R, p)


def test_empty_observation_set_passes_vacuously():
    R, p = mc_10x10()
    assert observed_minority_block_zero(np.zeros((10, 10), dtype=bool), R, p)


# ---------------------------------------------------------------------------
# Walkthrough fixtures
# ---------------------------------------------------------------------------

FIXTURE_DIGESTS = {
    mc_4x4_true: "918ea997f0c7bd7679474d8a21d21f6ae8f3770c75ba8cb99936573cb29a32bc",
    mc_4x4_round1: "0d60460897db389c12cc1e93f9e6495a42774a07c339350565c990331b77fb3b",
    mc_4x4_round_t: "47712be9bd8e0fc559787044982a386ea10519414c01ede63300c8396e098f87",
    mc_4x4_completed: "e539692e0d184d70ff9c84ddc5a504e8b8624b5cac8e52b28fa380af8e7fc051",
    mc_10x10: "02d9396ee5b90e5385173dc3bd3fae599e899dfec48398ba2fb2703cfb582565",
    mc_6x6_observed: "b193ad540f20f0f34e37bee55411147d0f076a241e513e6ec44d1aec7206130a",
    mc_6x6_less_sparse: "4c1ca7cdf6d6876f13716a0af3190ee6d7be0722ba2667aa104000142e0ee972",
}


def test_fixture_bits_are_pinned():
    # Each digest covers the entries, or the values and the mask, with their
    # shapes, so any edit to a fixture literal shows to the last bit.
    for accessor, expected in FIXTURE_DIGESTS.items():
        fixture = accessor()
        if isinstance(fixture, tuple):
            fixture = fixture[0]
        if isinstance(fixture, RatingsMatrix):
            arrays = (fixture.entries,)
        else:
            arrays = (fixture.values, fixture.mask)
        h = hashlib.sha256()
        for a in arrays:
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == expected, accessor.__name__


def test_tiny_walkthrough_ranks_and_feasibility():
    true = mc_4x4_true()
    assert numeric_rank_of(true.entries) == 2
    round1 = mc_4x4_round1()
    round_t = mc_4x4_round_t()
    assert round1.mask.sum() == 4
    assert round_t.mask.sum() == 10
    assert round1.feasible(true) and round_t.feasible(true)
    completed = mc_4x4_completed()
    assert numeric_rank_of(completed.entries) == 2
    assert round_t.feasible(completed)


def test_observed_identity_minor_forces_rank_two():
    round_t = mc_4x4_round_t()
    sub = round_t.values[np.ix_([0, 1], [0, 1])]
    observed_all = round_t.mask[np.ix_([0, 1], [0, 1])].all()
    # any feasible completion contains this invertible minor
    assert observed_all and numeric_rank_of(sub) == 2


def test_zero_fill_of_the_six_by_six_instance():
    partial, p = mc_6x6_observed()
    filled = sparsest_majority_completion(partial, p)
    assert partial.feasible(filled)
    assert numeric_rank_of(filled.entries) == 2
    min_i = sorted(p.minority_items)
    min_u = sorted(p.minority_users)
    assert np.all(filled.entries[:, min_i] == 0.0)
    assert np.all(filled.entries[min_u, :] == 0.0)


def test_zero_fill_with_fully_observed_majority_block():
    a = np.zeros((3, 3))
    a[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    a[2, 2] = 5.0
    R = RatingsMatrix(a)
    p = block_partition(2, 2, 3, 3)
    omega = mask_of(3, 3, {(0, 0), (0, 1), (1, 0), (1, 1)})
    filled = sparsest_majority_completion(PartialMatrix.from_full(R, omega), p)
    expected = np.zeros((3, 3))
    expected[:2, :2] = a[:2, :2]
    assert np.array_equal(filled.entries, expected)
    assert numeric_rank_of(filled.entries) == 1


def test_zero_fill_rejects_observed_hot_entries():
    a = np.zeros((3, 3))
    a[:2, :2] = 1.0
    a[2, 2] = 5.0
    R = RatingsMatrix(a)
    p = block_partition(2, 2, 3, 3)
    omega = mask_of(3, 3, {(2, 2)})
    with pytest.raises(ValueError, match="infeasible"):
        sparsest_majority_completion(PartialMatrix.from_full(R, omega), p)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def test_reduction_strips_off_majority_blocks_at_equal_rank():
    partial, p = mc_6x6_observed()
    less_sparse = mc_6x6_less_sparse()
    assert partial.feasible(less_sparse)
    assert numeric_rank_of(less_sparse.entries) == 2
    min_i = sorted(p.minority_items)
    assert np.any(less_sparse.entries[:, min_i] != 0.0)

    reduced = reduce_solution(less_sparse, p)
    zero_fill = sparsest_majority_completion(partial, p)
    assert np.array_equal(reduced.entries, zero_fill.entries)
    assert numeric_rank_of(reduced.entries) == 2
    assert partial.feasible(reduced)


def test_reduction_leaves_reduced_solutions_unchanged():
    partial, p = mc_6x6_observed()
    zero_fill = sparsest_majority_completion(partial, p)
    again = reduce_solution(zero_fill, p)
    assert np.array_equal(again.entries, zero_fill.entries)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_reduction_never_raises_rank_and_keeps_feasibility(seed):
    rng = np.random.default_rng(seed)
    R, p, omega, partial, X = random_feasible_instance(rng)
    assert observed_minority_block_zero(omega, R, p)
    assert partial.feasible(X)
    reduced = reduce_solution(X, p)
    assert numeric_rank_of(reduced.entries) <= numeric_rank_of(X.entries)
    assert partial.feasible(reduced)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_zero_fill_is_rank_minimal_among_reduced_solutions(seed):
    # with the majority block fully observed, every feasible completion
    # reduces to the zero-fill's block, so the zero-fill rank is a floor
    rng = np.random.default_rng(seed)
    m_bar, n_bar = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    m, n = m_bar + 1, n_bar + 1
    a = np.zeros((m, n))
    a[:m_bar, :n_bar] = rng.uniform(0.2, 1.0, size=(m_bar, n_bar))
    a[m_bar, n_bar] = float(rng.uniform(0.0, 1.0))
    R = RatingsMatrix(a)
    p = block_partition(m_bar, n_bar, m, n)
    omega = mask_of(m, n, ((u, i) for u in range(m_bar) for i in range(n_bar)))
    partial = PartialMatrix.from_full(R, omega)
    zero_fill = sparsest_majority_completion(partial, p)
    for _ in range(3):
        filler = rng.uniform(-1.0, 1.0, size=(m, n))
        X = RatingsMatrix(np.where(partial.mask, partial.values, filler), nonnegative=False)
        reduced = reduce_solution(X, p)
        assert numeric_rank_of(zero_fill.entries) <= numeric_rank_of(reduced.entries)


# ---------------------------------------------------------------------------
# Sampling Monte Carlo
# ---------------------------------------------------------------------------

def test_miss_probability_matches_closed_form():
    R, p = mc_10x10()
    # two hot entries sit in distinct minority rows: P = ((10-q)/10)^2
    exact = 0.49
    est = miss_probability_mc(R, p, per_user=3, trials=20_000, seed=11)
    sigma = (exact * (1 - exact) / 20_000) ** 0.5
    assert abs(est - exact) <= 3 * sigma
    assert est == 0.4897  # deterministic under the fixed seed


def _loop_miss_probability(R_star, p, per_user, trials, seed):
    """miss_probability_mc as a loop: one whole-row rank per hot entry."""
    n = R_star.cols
    rows, cols = np.nonzero(p.minority_block(R_star.entries) != 0.0)
    if not rows.size:
        return 1.0
    hot_rows, key_row = np.unique(rows, return_inverse=True)
    rng = np.random.default_rng(seed)
    ok = np.ones(trials, dtype=bool)
    keys = rng.random((trials, hot_rows.size, n))
    for r, i in zip(key_row.tolist(), p.minority_items[cols].tolist()):
        rank = (keys[:, r, :] < keys[:, r, i : i + 1]).sum(axis=1)
        ok &= rank >= per_user
    return float(ok.mean())


def shuffled_block_instance(rng, n_min):
    """A two-block matrix under a shuffled partition whose first minority row
    holds at least two positive minority entries; other rows are random."""
    m_bar, n_bar, m_min = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    m, n = m_bar + m_min, n_bar + n_min
    users, items = rng.permutation(m), rng.permutation(n)
    p = GroupPartition(
        majority_users=frozenset(users[:m_bar].tolist()),
        minority_users=frozenset(users[m_bar:].tolist()),
        majority_items=frozenset(items[:n_bar].tolist()),
        minority_items=frozenset(items[n_bar:].tolist()),
    )
    block = rng.uniform(0.5, 1.5, size=(m_min, n_min)) * (rng.random((m_min, n_min)) < 0.6)
    block[0, rng.choice(n_min, size=int(rng.integers(2, n_min + 1)), replace=False)] = 1.0
    a = np.zeros((m, n))
    a[np.ix_(p.majority_users, p.majority_items)] = rng.uniform(0.5, 1.5, (m_bar, n_bar))
    a[np.ix_(p.minority_users, p.minority_items)] = block
    return RatingsMatrix(a), p


@given(seeds, seeds, st.integers(min_value=1, max_value=500), st.integers(2, 7))
@settings(max_examples=60, deadline=None)
def test_miss_probability_matches_the_per_entry_loop(shape_seed, seed, trials, n_min):
    """Rows with several hot entries exercise the smallest-hot-key pass."""
    R, p = shuffled_block_instance(np.random.default_rng(shape_seed), n_min)
    for per_user in range(R.cols + 1):
        assert miss_probability_mc(R, p, per_user, trials, seed) == _loop_miss_probability(
            R, p, per_user, trials, seed
        )


def assert_blocks_give_the_one_shot_draw(R, p, seed):
    """Trial counts one short of, at, one past and two blocks past a block
    boundary give the estimate of the single draw of every key, at every
    per_user."""
    hot_rows = np.unique(np.nonzero(p.minority_block(R.entries))[0]).size
    block = max(1, MC_BLOCK_KEYS // (hot_rows * R.cols))
    for trials in (block - 1, block, block + 1, 2 * block + 1):
        for per_user in range(R.cols + 1 if trials else 0):
            assert miss_probability_mc(R, p, per_user, trials, seed) == (
                _loop_miss_probability(R, p, per_user, trials, seed)
            )


@given(seeds, seeds, st.integers(2, 7))
@settings(max_examples=15, deadline=None)
def test_miss_probability_is_the_one_shot_draw_across_block_boundaries(shape_seed, seed, n_min):
    R, p = shuffled_block_instance(np.random.default_rng(shape_seed), n_min)
    assert_blocks_give_the_one_shot_draw(R, p, seed)


def test_long_row_miss_probability_is_the_one_shot_draw_across_block_boundaries():
    """A 256-item row, counted past uint8, with three hot entries: a block
    is 256 trials."""
    a = np.zeros((2, 256))
    a[0, 0] = 1.0
    a[1, [1, 128, 255]] = 1.0
    assert_blocks_give_the_one_shot_draw(RatingsMatrix(a), block_partition(1, 1, 2, 256), 5)


def test_miss_probability_memory_does_not_grow_with_trials():
    """A million trials of the 10 x 10 walkthrough stay under 4 MiB, where
    one draw of every key would hold 160 MB, and give that draw's estimate."""
    R, p = mc_10x10()
    tracemalloc.start()
    try:
        estimate = miss_probability_mc(R, p, per_user=3, trials=1_000_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate == 0.490969
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_miss_probability_counts_long_rows_exactly(n):
    """A lone hot entry on a row of 255 items or more: its rank reaches 255
    and beyond, so the count must not wrap around."""
    a = np.zeros((2, n))
    a[0, 0] = 1.0
    a[1, n - 1] = 1.0
    R, p = RatingsMatrix(a), block_partition(1, 1, 2, n)
    for per_user in sorted(q for q in {0, 1, 128, 254, 255, 256, n - 40, n - 1, n} if q <= n):
        estimate = miss_probability_mc(R, p, per_user, 200, 7)
        assert estimate == _loop_miss_probability(R, p, per_user, 200, 7)
    # One hot entry: P = (n - q) / n, so q = n - 40 leaves a clear share
    assert miss_probability_mc(R, p, n - 40, 200, 7) > 0.0


def test_miss_probability_trivial_cases():
    R, p = mc_10x10()
    assert miss_probability_mc(R, p, per_user=0, trials=10, seed=0) == 1.0
    assert miss_probability_mc(R, p, per_user=10, trials=10, seed=0) == 0.0
    cold = np.zeros((10, 10))
    cold[:8, :8] = np.eye(8)
    assert miss_probability_mc(RatingsMatrix(cold), p, per_user=3, trials=10, seed=0) == 1.0
    with pytest.raises(ValueError, match="per_user"):
        miss_probability_mc(R, p, per_user=11, trials=10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        miss_probability_mc(R, p, per_user=3, trials=0, seed=0)
    with pytest.raises(ValueError, match="trials"):
        miss_probability_mc(RatingsMatrix(cold), p, per_user=3, trials=0, seed=0)
