"""Rank choice, truncation, recommendation ties, welfare, order statistics."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap import matrix
from rankgap.generators import random_block_scenario
from rankgap.learner import (
    choose_rank,
    fit_learner,
    kappa_k,
    recommend,
    social_welfare,
    truncate,
    tvr,
    utility_en,
)
from rankgap.matrix import (
    RatingsMatrix,
    block_partition,
    column_abs_sums,
    singular_values_of,
    spectral,
    tie_tolerance,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def items(mask_row) -> set[int]:
    """Column indices set in one row of a tie mask."""
    return set(np.flatnonzero(mask_row).tolist())


# ---------------------------------------------------------------------------
# Retained-variation ratio
# ---------------------------------------------------------------------------

def test_tvr_at_full_rank_is_one(paired_scene):
    R, _ = paired_scene
    assert tvr(spectral(R).singular_values, 4) == 1.0


def test_tvr_of_paired_spectrum_at_two(paired_scene):
    R, _ = paired_scene
    # spectrum (2,2,1,1): (2+2)/(2+2+1+1)
    assert tvr(spectral(R).singular_values, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tvr_of_rank_one_matrix():
    assert tvr(spectral(RatingsMatrix(np.ones((3, 3)))).singular_values, 1) == 1.0


def test_tvr_rejects_out_of_range(paired_scene):
    R, _ = paired_scene
    s = spectral(R).singular_values
    with pytest.raises(ValueError):
        tvr(s, 0)
    with pytest.raises(ValueError):
        tvr(s, 5)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_tvr_strictly_increasing_to_one(seed):
    rng = np.random.default_rng(seed)
    R = RatingsMatrix(rng.uniform(0.1, 1.0, size=(6, 5)))
    s = spectral(R)
    values = [tvr(s.singular_values, k) for k in range(1, s.numeric_rank + 1)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Rank selection
# ---------------------------------------------------------------------------

def test_choose_rank_on_paired_spectrum(paired_scene):
    R, _ = paired_scene
    s = spectral(R).singular_values
    assert choose_rank(s, 1.5) == 2
    assert choose_rank(s, 2.0) == 1  # equality admits truncation
    assert choose_rank(s, 1.0) == 2
    assert choose_rank(s, 2.5) == 1
    assert choose_rank(s, 0.0) == 4
    assert choose_rank(s, 0.5) == 4


def test_choose_rank_rejects_bad_inputs():
    with pytest.raises(ValueError, match="nonnegative"):
        choose_rank(spectral(RatingsMatrix(np.eye(2))).singular_values, -0.1)
    with pytest.raises(ValueError, match="zero matrix"):
        choose_rank(spectral(RatingsMatrix(np.zeros((2, 2)))).singular_values, 1.0)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_chosen_rank_is_minimal_admissible(seed):
    rng = np.random.default_rng(seed)
    R = RatingsMatrix(rng.uniform(0.0, 1.0, size=(6, 5)))
    s = spectral(R)
    alpha = float(rng.uniform(0.0, s.sigma(1) * 1.1))
    k = choose_rank(s.singular_values, alpha)
    assert 1 <= k <= s.numeric_rank
    assert s.sigma(k + 1) <= alpha + 1e-9 * max(1.0, s.sigma(1))
    if k > 1:
        assert s.sigma(k) > alpha


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_sigma_rule_matches_variation_increment_rule(seed):
    rng = np.random.default_rng(seed)
    R = RatingsMatrix(rng.uniform(0.0, 1.0, size=(6, 5)))
    s = spectral(R)
    alpha = float(rng.uniform(0.0, s.sigma(1) * 1.1))
    total = float(s.singular_values[: s.numeric_rank].sum())
    by_increment = s.numeric_rank
    for k in range(1, s.numeric_rank):
        if tvr(s.singular_values, k + 1) - tvr(s.singular_values, k) <= alpha / total:
            by_increment = k
            break
    assert choose_rank(s.singular_values, alpha) == by_increment


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_block_scenarios_select_the_majority_rank(seed):
    scene = random_block_scenario(np.random.default_rng(seed))
    model = fit_learner(scene.matrix, scene.alpha)
    assert model.chosen_rank == scene.k_maj
    maj_rows = sorted(scene.partition.majority_users)
    maj_cols = sorted(scene.partition.majority_items)
    block = scene.matrix.entries[np.ix_(maj_rows, maj_cols)]
    assert model.chosen_rank == np.linalg.matrix_rank(block)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def test_truncate_at_full_rank_returns_matrix(paired_scene):
    R, _ = paired_scene
    out = truncate(spectral(R), 4)
    assert np.allclose(out.entries, R.entries, atol=1e-9)


def test_truncate_zeroes_the_minority_block(paired_scene):
    R, p = paired_scene
    out = truncate(spectral(R), 2)
    maj = np.zeros_like(R.entries)
    rows = sorted(p.majority_users)
    cols = sorted(p.majority_items)
    maj[np.ix_(rows, cols)] = R.entries[np.ix_(rows, cols)]
    assert np.allclose(out.entries, maj, atol=1e-9)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_truncation_residual_matches_discarded_spectrum(seed):
    rng = np.random.default_rng(seed)
    R = RatingsMatrix(rng.uniform(0.0, 2.0, size=(7, 5)))
    s = spectral(R)
    k = int(rng.integers(1, s.numeric_rank + 1))
    out = truncate(s, k)
    residual_sq = float(np.linalg.norm(R.entries - out.entries, "fro") ** 2)
    expected = float((s.singular_values[k:] ** 2).sum())
    assert residual_sq == pytest.approx(expected, abs=1e-9 * max(1.0, expected))


def test_truncate_rejects_out_of_range(paired_scene):
    R, _ = paired_scene
    s = spectral(R)
    with pytest.raises(ValueError):
        truncate(s, 0)
    with pytest.raises(ValueError):
        truncate(s, 5)


def test_fitted_model_invariants(multi_scene):
    R, _ = multi_scene
    model = fit_learner(R, 2.1)
    assert model.chosen_rank == 4
    assert model.alpha == 2.1
    s = model.spectrum
    assert s.sigma(model.chosen_rank + 1) <= model.alpha
    assert s.sigma(model.chosen_rank) > model.alpha
    recon_err = np.linalg.norm(
        model.truncated.entries
        - truncate(spectral(R), model.chosen_rank).entries,
        "fro",
    )
    assert recon_err <= 1e-9 * np.linalg.norm(R.entries)


# ---------------------------------------------------------------------------
# Recommendation
# ---------------------------------------------------------------------------

def _reference_row(row, colpop, k, tol, tol_pop, rng, derandomize) -> dict:
    """One user's tie structure and pick, computed row by row."""
    order = np.argsort(-row, kind="stable")
    v_k = row[order[k - 1]]
    mandatory = np.flatnonzero(row > v_k + tol)
    boundary = np.flatnonzero(np.abs(row - v_k) <= tol)
    slots = k - mandatory.size

    if slots == 0:
        pop_locked = np.zeros(0, dtype=int)
        pop_pool = np.zeros(0, dtype=int)
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
    return {
        "chosen": [int(i) for i in chosen],
        "tie": {int(i) for i in np.concatenate([mandatory, boundary])},
        "pop_tie": {int(i) for i in np.concatenate([mandatory, pop_locked, pop_pool])},
        "pop_pool": [int(i) for i in pop_pool],
    }


def reference_recommend(R_hat, k_items, seed=None, derandomize=False) -> list[dict]:
    """Per-row oracle for ``recommend``: same tolerances, one draw per row in order."""
    colpop = column_abs_sums(R_hat)
    a = R_hat.entries
    top = float(singular_values_of(a)[0]) if a.any() else 0.0
    tol = tie_tolerance(top)
    tol_pop = tie_tolerance(float(colpop.max(initial=0.0)))
    rng = np.random.default_rng(seed)
    return [
        _reference_row(row, colpop, k_items, tol, tol_pop, rng, derandomize) for row in a
    ]


TIE_GRID = (-0.5, 0.0, 0.1, 0.25, 0.5, 1.0)


@st.composite
def tie_heavy_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    a = np.array(
        draw(st.lists(st.sampled_from(TIE_GRID), min_size=m * n, max_size=m * n))
    ).reshape(m, n)
    if draw(st.booleans()):
        steps = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=m * n, max_size=m * n))
        a = a + 1e-15 * np.array(steps, dtype=float).reshape(m, n)
    negative = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    a[negative] -= 1.5  # grid maximum 1.0, so these rows go all-negative
    return RatingsMatrix(a, nonnegative=False)


@given(tie_heavy_matrices(), seeds)
@settings(max_examples=150, deadline=None)
def test_array_recommendation_matches_the_per_row_reference(R_hat, seed):
    a = R_hat.entries
    for k in range(1, R_hat.cols + 1):
        for draw_seed, derandomize in ((None, True), (seed, False)):
            outcome = recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
            expected = reference_recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
            assert outcome.chosen.shape == (R_hat.rows, k)
            assert outcome.chosen.tolist() == [rec["chosen"] for rec in expected]
            assert [items(row) for row in outcome.tie] == [rec["tie"] for rec in expected]
            assert [items(row) for row in outcome.pop_tie] == [
                rec["pop_tie"] for rec in expected
            ]
            assert outcome.negative_rows.tolist() == [
                u for u in range(R_hat.rows) if a[u].max() < 0.0
            ]
            welfare = social_welfare(R_hat, outcome).per_user_welfare
            assert welfare.tolist() == [
                float(a[u, rec["chosen"]].sum()) for u, rec in enumerate(expected)
            ]


def _twin(row, kind):
    """A neighbour of ``row`` that is a different run: one entry 1 ulp away,
    or one zero with its sign flipped (the same values, other bytes). A row
    without a zero comes back as an equal copy, one more row of its run."""
    row = row.copy()
    if kind == "ulp":
        row[0] = np.nextafter(row[0], np.inf)
    elif (row == 0.0).any():
        j = np.flatnonzero(row == 0.0)[0]
        row[j] = -0.0 if not np.signbit(row[j]) else 0.0
    return row


@st.composite
def run_structured_estimates(draw):
    """Estimates made of a few distinct rows repeated in runs, as a block
    model's estimate is: runs in drawn order or shuffled, rows beside a twin
    that differs by 1 ulp or only in the sign of a zero, all-negative rows."""
    n = draw(st.integers(1, 5))
    distinct = draw(st.integers(1, 4))
    base = np.array(
        draw(st.lists(st.sampled_from(TIE_GRID), min_size=distinct * n, max_size=distinct * n))
    ).reshape(distinct, n)
    base[draw(st.lists(st.booleans(), min_size=distinct, max_size=distinct))] -= 1.5
    order = draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=6))
    lengths = draw(st.lists(st.integers(1, 5), min_size=len(order), max_size=len(order)))
    rows = list(np.repeat(base[order], lengths, axis=0))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows) - 1))
        rows.insert(at + 1, _twin(rows[at], draw(st.sampled_from(["ulp", "zero sign"]))))
    a = np.array(rows)
    if draw(st.booleans()):
        a = a[draw(st.permutations(range(len(a))))]
    return RatingsMatrix(a, nonnegative=False)


@given(run_structured_estimates(), seeds)
@settings(max_examples=150, deadline=None)
def test_run_structured_estimates_match_the_per_row_reference(R_hat, seed):
    a = R_hat.entries
    for k in range(1, R_hat.cols + 1):
        for draw_seed, derandomize in ((None, True), (seed, False)):
            outcome = recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
            expected = reference_recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
            assert outcome.chosen.tolist() == [rec["chosen"] for rec in expected]
            assert [items(row) for row in outcome.tie] == [rec["tie"] for rec in expected]
            assert [items(row) for row in outcome.pop_tie] == [
                rec["pop_tie"] for rec in expected
            ]
            # Ascending like the per-row scan, so sorted and distinct.
            assert outcome.negative_rows.tolist() == [
                u for u in range(R_hat.rows) if a[u].max() < 0.0
            ]
            assert outcome.negative_rows.dtype == np.intp
            for array in (outcome.chosen, outcome.tie, outcome.pop_tie, outcome.negative_rows):
                assert not array.flags.writeable


@st.composite
def tall_run_structured_estimates(draw):
    """A run-structured estimate stacked on itself until the run detection
    folds its rows column by column."""
    a = draw(run_structured_estimates()).entries
    # One bool byte per cell of the neighbour mask, one row fewer than the estimate.
    copies = -(-(matrix._FOLD_MIN_BYTES_PER_COL * a.shape[1] + 1) // a.shape[0])
    return RatingsMatrix(np.tile(a, (copies, 1)), nonnegative=False)


@given(tall_run_structured_estimates(), seeds)
@settings(max_examples=40, deadline=None)
def test_tall_run_structured_estimates_match_the_per_row_reference(R_hat, seed):
    for k, draw_seed, derandomize in ((1, None, True), (R_hat.cols, None, True), (1, seed, False)):
        outcome = recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
        expected = reference_recommend(R_hat, k, seed=draw_seed, derandomize=derandomize)
        assert outcome.chosen.tolist() == [rec["chosen"] for rec in expected]
        assert [items(row) for row in outcome.tie] == [rec["tie"] for rec in expected]
        assert [items(row) for row in outcome.pop_tie] == [rec["pop_tie"] for rec in expected]
        assert outcome.negative_rows.tolist() == [
            u for u in range(R_hat.rows) if R_hat.entries[u].max() < 0.0
        ]


def test_outcome_arrays_are_read_only(paired_scene):
    R, _ = paired_scene
    outcome = recommend(R, k_items=2, seed=0)
    for array in (outcome.chosen, outcome.tie, outcome.pop_tie):
        with pytest.raises(ValueError):
            array[0, 0] = array[0, 0]


def test_majority_users_get_their_unique_top_item(multi_scene):
    R, p = multi_scene
    model = fit_learner(R, 2.1)
    outcome = recommend(model.truncated, seed=0)
    for u in sorted(p.majority_users):
        expected = int(np.argmax(R.entries[u]))
        assert items(outcome.tie[u]) == {expected}
        assert outcome.chosen[u, 0] == expected


def test_zeroed_minority_rows_tie_everywhere_then_break_popular(paired_scene):
    R, p = paired_scene
    model = fit_learner(R, 1.5)
    outcome = recommend(model.truncated, seed=0)
    for u in sorted(p.minority_users):
        assert items(outcome.tie[u]) == set(range(4))
        # both popular columns carry absolute sum 4, both niche columns 0
        assert items(outcome.pop_tie[u]) == {0, 1}
        assert outcome.chosen[u, 0] in {0, 1}


def test_chosen_lies_in_pop_tie_set_inside_tie_set(paired_scene):
    R, _ = paired_scene
    model = fit_learner(R, 1.5)
    for seed in range(5):
        outcome = recommend(model.truncated, seed=seed)
        for u in range(R.rows):
            chosen = set(outcome.chosen[u].tolist())
            assert chosen <= items(outcome.pop_tie[u]) <= items(outcome.tie[u])


def test_full_slate_recommendation(paired_scene):
    R, _ = paired_scene
    outcome = recommend(truncate(spectral(R), 4), k_items=4, seed=1)
    for row in outcome.chosen.tolist():
        assert row == [0, 1, 2, 3]


def test_recommend_rejects_bad_k(paired_scene):
    R, _ = paired_scene
    with pytest.raises(ValueError):
        recommend(R, k_items=0)
    with pytest.raises(ValueError):
        recommend(R, k_items=5)


def test_derandomized_pick_is_lexicographically_smallest(paired_scene):
    R, p = paired_scene
    model = fit_learner(R, 1.5)
    outcome = recommend(model.truncated, derandomize=True)
    assert outcome.derandomized
    for u in sorted(p.minority_users):
        assert outcome.chosen[u, 0] == 0


def test_seeded_draws_are_reproducible_and_seed_sensitive(paired_scene):
    R, _ = paired_scene
    R_hat = fit_learner(R, 1.5).truncated
    a = recommend(R_hat, seed=123).chosen.tolist()
    b = recommend(R_hat, seed=123).chosen.tolist()
    assert a == b
    draws = {recommend(R_hat, seed=s).chosen.tobytes() for s in range(40)}
    assert len(draws) > 1  # minority picks actually vary with the seed


def test_negative_only_rows_are_flagged_but_still_served():
    R_hat = RatingsMatrix(np.array([[-1.0, -2.0], [1.0, 0.0]]), nonnegative=False)
    outcome = recommend(R_hat, seed=0)
    assert outcome.negative_rows.tolist() == [0]
    assert outcome.chosen[0, 0] == 0  # argmax rule still applies


def test_popularity_tie_set_members_share_column_popularity(multi_scene):
    R, _ = multi_scene
    R_hat = fit_learner(R, 2.1).truncated
    pops = np.abs(R_hat.entries).sum(axis=0)
    tol = 1e-9 * max(1.0, float(pops.max()))
    for rec in reference_recommend(R_hat, 1, seed=5):
        vals = [pops[i] for i in rec["pop_pool"]]
        if vals:
            assert max(vals) - min(vals) <= 2 * tol


# ---------------------------------------------------------------------------
# Permutation invariance of tie structure
# ---------------------------------------------------------------------------

def test_tie_sets_commute_with_permutations(paired_scene):
    R, _ = paired_scene
    rng = np.random.default_rng(99)
    rho = tuple(int(i) for i in rng.permutation(R.rows))
    gamma = tuple(int(j) for j in rng.permutation(R.cols))
    permuted = RatingsMatrix(R.entries[np.ix_(rho, gamma)])

    base = recommend(fit_learner(R, 1.5).truncated, seed=0)
    moved = recommend(fit_learner(permuted, 1.5).truncated, seed=0)

    inv_gamma = np.argsort(gamma)
    for i in range(R.rows):
        u = rho[i]
        assert {inv_gamma[j] for j in items(base.tie[u])} == items(moved.tie[i])
        assert {inv_gamma[j] for j in items(base.pop_tie[u])} == items(moved.pop_tie[i])


# ---------------------------------------------------------------------------
# Welfare
# ---------------------------------------------------------------------------

def test_truthful_paired_welfare_is_majority_count(paired_scene):
    R, p = paired_scene
    outcome = recommend(fit_learner(R, 1.5).truncated, seed=0)
    report = social_welfare(R, outcome)
    assert report.social_welfare == 8.0
    for u in sorted(p.majority_users):
        assert report.per_user_welfare[u] == 1.0
    for u in sorted(p.minority_users):
        assert report.per_user_welfare[u] == 0.0
    assert report.u_ben == report.social_welfare
    assert report.u_en == float(R.entries.sum())


def test_perfect_oracle_attains_row_maxima(multi_scene):
    R, _ = multi_scene
    outcome = recommend(R, seed=0, derandomize=True)
    report = social_welfare(R, outcome)
    assert report.social_welfare == pytest.approx(float(R.entries.max(axis=1).sum()))


def test_truthful_outcome_guarantee_on_multigroup(multi_scene):
    R, p = multi_scene
    outcome = recommend(fit_learner(R, 2.1).truncated, seed=0)
    report = social_welfare(R, outcome)
    maj_rows = sorted(p.majority_users)
    expected_sw = float(R.entries[maj_rows].max(axis=1).sum())
    assert report.social_welfare == expected_sw == 400.0
    for u in maj_rows:
        assert report.per_user_welfare[u] == R.entries[u].max()
    for u in sorted(p.minority_users):
        item = outcome.chosen[u, 0]
        assert item in p.majority_items
        assert R.entries[u, item] == 0.0


def test_welfare_rejects_mismatched_shapes(paired_scene):
    R, _ = paired_scene
    outcome = recommend(truncate(spectral(R), 2), seed=0)
    with pytest.raises(ValueError, match="outcome shaped"):
        social_welfare(RatingsMatrix(np.ones((3, 4))), outcome)


def _column_welfare(values):
    """social_welfare of a one-item matrix: user u's welfare is values[u]."""
    R = RatingsMatrix(np.array(values, dtype=float).reshape(-1, 1), nonnegative=False)
    return social_welfare(R, recommend(R, k_items=1, seed=0))


@pytest.mark.parametrize(
    "values, total",
    [
        # A compensated sum (Python 3.12's sum()) gives 2.0 here.
        ([0.1] * 10 + [1e16, 1.0, -1e16], 0.0),
        # numpy's pairwise np.sum gives 14.0 here, a compensated sum 15.0.
        ([1e16] + [1.0] * 15 + [-1e16], 0.0),
        ([-0.0, -0.0], 0.0),
        ([-0.0, 1.5], 1.5),
    ],
)
def test_social_welfare_sums_left_to_right_from_positive_zero(values, total):
    report = _column_welfare(values)
    assert np.float64(report.social_welfare).tobytes() == np.float64(total).tobytes()
    assert report.u_ben == report.social_welfare


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_social_welfare_is_the_in_order_float_sum(values):
    report = _column_welfare(values)
    expected = functools.reduce(operator.add, map(float, values), 0.0)
    assert np.float64(report.social_welfare).tobytes() == np.float64(expected).tobytes()


def test_per_user_welfare_is_a_read_only_float_array(multi_scene):
    R, _ = multi_scene
    report = social_welfare(R, recommend(fit_learner(R, 2.1).truncated, k_items=1, seed=0))
    welfare = report.per_user_welfare
    assert welfare.dtype == np.float64 and welfare.shape == (R.rows,)
    with pytest.raises(ValueError):
        welfare[0] = 1.0


def test_welfare_sums_chosen_set_for_top_k(multi_scene):
    R, p = multi_scene
    outcome = recommend(fit_learner(R, 2.1).truncated, k_items=2, seed=0)
    report = social_welfare(R, outcome)
    assert report.social_welfare == sum(report.per_user_welfare)
    u = sorted(p.majority_users)[0]
    assert report.per_user_welfare[u] == float(
        R.entries[u, outcome.chosen[u]].sum()
    )


def test_utility_helpers(multi_scene):
    assert utility_en(RatingsMatrix(np.zeros((3, 3)))) == 0.0
    Rm, _ = multi_scene
    assert utility_en(Rm) == 405.0
    signed = RatingsMatrix(np.array([[1.0, -2.0]]), nonnegative=False)
    assert utility_en(signed) == 3.0


# ---------------------------------------------------------------------------
# Top-k inclusion regime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_top_k_keeps_majority_maxima_and_popular_minority(multi_scene, k):
    R, p = multi_scene
    outcome = recommend(fit_learner(R, 2.1).truncated, k_items=k, seed=3)
    for u in range(R.rows):
        chosen = set(outcome.chosen[u].tolist())
        assert len(chosen) == k
        if u in p.majority_users:
            best = int(np.argmax(R.entries[u]))
            assert best in chosen
            # chosen set attains the true top-k row sum
            top_k_sum = float(np.sort(R.entries[u])[::-1][:k].sum())
            assert float(R.entries[u, list(chosen)].sum()) == top_k_sum
        else:
            assert chosen <= set(p.majority_items.tolist())


# ---------------------------------------------------------------------------
# Majority order statistics
# ---------------------------------------------------------------------------

def test_kappa_floor_of_multigroup(multi_scene):
    R, p = multi_scene
    assert kappa_k(R, p, 1) == 1.0
    assert kappa_k(R, p, 2) == 0.0
    assert kappa_k(R, p, 6) == 0.0


def test_kappa_rejects_bad_inputs(multi_scene):
    R, p = multi_scene
    with pytest.raises(ValueError):
        kappa_k(R, p, 0)
    with pytest.raises(ValueError):
        kappa_k(R, p, 7)
    empty_majority = type(p)(
        majority_users=frozenset(),
        minority_users=frozenset(range(R.rows)),
        majority_items=p.majority_items,
        minority_items=p.minority_items,
    )
    with pytest.raises(ValueError, match="majority"):
        kappa_k(R, empty_majority, 1)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_kappa_nonincreasing_in_k(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    R = RatingsMatrix(rng.uniform(0.0, 1.0, size=(m, n)))
    p = block_partition(m, n, m, n)
    values = [kappa_k(R, p, k) for k in range(1, n + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))
