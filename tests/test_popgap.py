"""Soft popularity splits: class checks, spectral bounds, projection distance,
switch users, replacement strategies, and the five-condition evaluator."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_gap_case, float_bits
from rankgap.generators import gap_class_instance, general_strategy_instance
from rankgap.learner import fit_learner, recommend, social_welfare
from rankgap.matrix import RatingsMatrix, singular_values_of
from rankgap import matrix, popgap
from rankgap.popgap import GeneralStrategy, PopularitySplit, UserClasses, top_items

seeds = st.integers(min_value=0, max_value=2**32 - 1)

ROOT = Path(__file__).resolve().parents[1]

# Coarse ratings grid: straddling ties and all-tied rows occur often.
TIE_GRID = (0.0, 0.1, 0.25, 0.5, 1.0)

GAP_ALPHA = 2.0  # inside the frozen window (0.7745966692414834, 4.99414974034538)


def worked_example(support: float = 0.0) -> RatingsMatrix:
    """Four indicator groups of 100 users plus one user rating column 4 at 1.

    ``support`` optionally gives that user a popular rating on column 0; the
    orthogonal column supports keep the popular spectrum at (10, 10, 10, 10)
    either way.
    """
    a = np.zeros((401, 6))
    for j in range(4):
        a[j * 100 : (j + 1) * 100, j] = 1.0
    a[400, 4] = 1.0
    if support:
        a[400, 0] = support
    return RatingsMatrix(a)


# ---------------------------------------------------------------------------
# Split mechanics
# ---------------------------------------------------------------------------

def test_split_validation():
    R = RatingsMatrix(np.full((2, 3), 0.5))
    with pytest.raises(ValueError, match="n_bar"):
        PopularitySplit(R, 0)
    with pytest.raises(ValueError, match="n_bar"):
        PopularitySplit(R, 3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PopularitySplit(RatingsMatrix(np.full((2, 3), 1.5)), 1)
    with pytest.raises(ValueError, match="n_bar must be an integer"):
        PopularitySplit(R, 2.9)
    assert PopularitySplit(R, np.int64(2)).n_bar == 2


def test_split_column_statistics():
    a = np.array([[0.2, 0.9, 0.1, 0.5], [0.8, 0.1, 0.3, 0.0]])
    split = PopularitySplit(RatingsMatrix(a), 2)
    assert split.kappa == 0.5
    assert split.kappa_lower == pytest.approx(0.4)
    assert split.popular_block.shape == (2, 2)
    assert split.unpopular_block.shape == (2, 2)


def test_popular_prefs_zeroes_the_tail():
    a = np.array([[0.2, 0.9, 0.1], [0.8, 0.1, 0.3]])
    out = PopularitySplit(RatingsMatrix(a), 2).popular_prefs()
    assert np.array_equal(out.entries[:, :2], a[:, :2])
    assert np.all(out.entries[:, 2] == 0.0)

    zeros = RatingsMatrix(np.zeros((3, 3)))
    assert np.array_equal(PopularitySplit(zeros, 2).popular_prefs().entries, zeros.entries)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_popular_prefs_spectrum_is_the_block_spectrum(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(3, 6))
    n_bar = int(rng.integers(1, n))
    R = RatingsMatrix(rng.uniform(0.0, 1.0, size=(m, n)))
    s_full = singular_values_of(PopularitySplit(R, n_bar).popular_prefs().entries)
    s_block = singular_values_of(R.entries[:, :n_bar])
    assert np.allclose(s_full[: s_block.size], s_block, atol=1e-9)
    assert np.all(s_full[s_block.size :] <= 1e-9)


# ---------------------------------------------------------------------------
# User classification
# ---------------------------------------------------------------------------

def test_unique_top_items_classify_cleanly():
    a = np.array([[1.0, 0.0, 0.2], [0.1, 0.2, 0.9]])
    classes = PopularitySplit(RatingsMatrix(a), 2).classes
    assert classes.majority.tolist() == [0]
    assert classes.minority.tolist() == [1]
    assert classes.exclusive and classes.has_minority


def test_straddling_tie_lands_in_both_classes():
    a = np.array([[0.5, 0.2, 0.5], [1.0, 0.0, 0.0]])
    classes = PopularitySplit(RatingsMatrix(a), 2).classes
    assert 0 in classes.majority and 0 in classes.minority
    assert classes.dual.tolist() == [0]
    assert not classes.exclusive


def test_user_classes_built_by_hand_take_the_array_form():
    # Sets, the form before, and lists are sorted into read-only np.intp arrays.
    classes = UserClasses({2, 0}, [2, 1, 2])
    assert classes.majority.tolist() == [0, 2] and classes.minority.tolist() == [1, 2]
    for array in (classes.majority, classes.minority):
        assert array.dtype == np.intp and not array.flags.writeable
    assert classes.dual.tolist() == [2] and not classes.exclusive and classes.has_minority
    assert UserClasses([0], []).exclusive and not UserClasses([0], []).has_minority
    with pytest.raises(ValueError, match="majority must hold integer indices"):
        UserClasses([True], [])


def by_user(users: np.ndarray, values: np.ndarray) -> dict:
    """A membership report's per-user array keyed by its user array."""
    return dict(zip(users.tolist(), values.tolist()))


def off_top_margin(row: np.ndarray, top: float, gap: float) -> float:
    """(top - gap) minus the best rating outside the row's top set; -inf if none."""
    tops = top_items(row)
    if tops.size == row.size:
        return -math.inf
    return float((top - gap) - np.delete(row, tops).max())


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_classification_matches_argmax_scan(seed):
    """Every per-user result equals a per-row scan built on top_items, exactly."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 6))
    n_bar = int(rng.integers(1, n))
    a = rng.choice(TIE_GRID, size=(m, n))
    R = RatingsMatrix(a)
    tops = [set(top_items(row).tolist()) for row in a]
    majority = [u for u in range(m) if min(tops[u]) < n_bar]
    minority = [u for u in range(m) if max(tops[u]) >= n_bar]
    switching = [u for u in minority if n_bar in tops[u]]
    residual = [u for u in minority if u not in switching]

    split = PopularitySplit(R, n_bar)
    classes, switch = split.classes, split.switch_users
    # Ascending like the scan, so each array is sorted and distinct.
    assert classes.majority.tolist() == majority
    assert classes.minority.tolist() == minority
    assert switch.tolist() == switching
    assert classes.dual.tolist() == [u for u in majority if u in minority]
    assert classes.exclusive is not (set(majority) & set(minority))
    assert classes.has_minority is bool(minority)
    for array in (classes.majority, classes.minority, switch):
        assert array.dtype == np.intp and not array.flags.writeable

    head = a[residual, : n_bar + 1]
    window = split.delta_window
    assert window.lower == max(0.0, float(head.max(axis=1).sum() - head.min(axis=1).sum()))
    assert window.upper == float(
        a[switching, n_bar].sum() - a[switching, :n_bar].max(axis=1).sum()
    )

    report = split.membership
    delta = report.delta_gap
    if delta is None:
        assert report.majority_margins.size == report.minority_margins.size == 0
    else:
        maj_margins = [(u, off_top_margin(a[u], a[u].max(), delta)) for u in majority]
        min_margins = [(u, float(a[u, :n_bar].max() - delta)) for u in minority]
        assert list(by_user(report.majority_users, report.majority_margins).items()) == maj_margins
        assert list(by_user(report.minority_users, report.minority_margins).items()) == min_margins
        assert list(by_user(report.majority_users, report.majority_gap_ok).items()) == [
            (u, x > 0.0) for u, x in maj_margins
        ]
        assert list(by_user(report.minority_users, report.minority_support_ok).items()) == [
            (u, x > 0.0) for u, x in min_margins
        ]

    r_tilde = a[:, n_bar].copy()
    outside = np.setdiff1d(np.arange(m), minority)
    r_tilde[outside] = rng.choice(TIE_GRID, size=outside.size)
    alpha = float(rng.choice((0.0, 0.5, 1.0, 2.0)))
    verdict = split.general_sufficiency(r_tilde, alpha)
    assert verdict.preconditions["in_class"] == report.in_class
    assert verdict.preconditions["switch_nonempty"] == bool(switching)
    gap = verdict.ratings_gap
    per_user = [name for name, value in verdict.conditions.items() if value is None]
    if gap is None:
        assert len(per_user) == 4 and not set(per_user) & set(verdict.margins)
        return
    expected = {
        "uprating_below_majority_top": [float((a[u].max() - gap) - r_tilde[u]) for u in majority],
        "majority_gap_preserved": [off_top_margin(a[u], a[u].max(), gap) for u in majority],
        "switch_users_promoted": [off_top_margin(a[u], a[u, n_bar], gap) for u in switching],
        "residual_minority_supported": [float(a[u, : n_bar + 1].max() - gap) for u in residual],
    }
    for name, margins in expected.items():
        margin = min(margins, default=math.inf)
        assert verdict.margins[name] == margin
        assert verdict.conditions[name] == (margin > 0.0)


# ---------------------------------------------------------------------------
# Ratings gap and class membership
# ---------------------------------------------------------------------------

def test_worked_gap_value():
    # kappa = 1, n = 6, sigma_popular = 10: 2^2.5 * 6^1.5 / 100
    assert PopularitySplit(worked_example(), 4).delta_gap == 0.8313843876330611


def test_gap_requires_full_popular_rank():
    a = np.zeros((3, 3))
    a[:, 0] = [1.0, 1.0, 1.0]
    split = PopularitySplit(RatingsMatrix(a), 2)
    assert split.delta_gap is None
    assert "rank below n_bar" in split.membership.reason


def test_membership_fails_without_minority_popular_support():
    report = PopularitySplit(worked_example(), 4).membership
    assert report.delta_gap == 0.8313843876330611
    assert report.kappa == 1.0
    assert all(by_user(report.majority_users, report.majority_gap_ok).values())
    assert by_user(report.minority_users, report.minority_support_ok) == {400: False}
    assert not report.in_class
    assert report.popularity_inequality  # 9.118 < 10


def test_membership_holds_once_support_clears_the_gap():
    report = PopularitySplit(worked_example(support=0.9), 4).membership
    assert report.in_class
    margins = by_user(report.minority_users, report.minority_margins)
    assert margins[400] == pytest.approx(0.9 - 0.8313843876330611)
    assert report.classes_exclusive and report.has_minority


def test_membership_with_zero_kappa_reduces_to_strictness():
    a = np.zeros((3, 4))
    a[0, 0] = 1.0
    a[1, 1] = 0.7
    a[2, 0] = 0.4
    a[2, 1] = 0.4
    report = PopularitySplit(RatingsMatrix(a), 2).membership
    assert report.kappa == 0.0
    assert report.delta_gap == 0.0
    assert report.in_class  # every top gap strictly positive
    assert not report.has_minority


def test_membership_flags_flat_rows():
    a = np.full((1, 3), 0.5)
    report = PopularitySplit(RatingsMatrix(a), 1).membership
    assert by_user(report.majority_users, report.majority_gap_ok) == {0: False}
    assert by_user(report.majority_users, report.majority_margins)[0] == -math.inf
    assert not report.in_class
    assert not report.classes_exclusive  # the tie straddles the boundary


def test_membership_reports_rank_deficiency():
    a = np.zeros((3, 3))
    a[:, 0] = 1.0
    report = PopularitySplit(RatingsMatrix(a), 2).membership
    assert report.delta_gap is None
    assert not report.in_class
    assert "rank below n_bar" in report.reason


def test_gap_case_is_in_class(gap_case):
    R, n_bar = gap_case
    report = PopularitySplit(R, n_bar).membership
    assert report.in_class
    assert report.kappa == pytest.approx(0.3)
    assert report.delta_gap == 0.12470765814495914
    assert report.classes_exclusive
    assert report.minority_users.tolist() == [800, 801]


def _ref_membership(matrix: RatingsMatrix, n_bar: int) -> dict:
    """class_membership as per-user dicts, keyed in ascending user order."""
    split = PopularitySplit(matrix, n_bar)
    majority, minority, _ = split._masks
    classes = {
        "majority": frozenset(np.flatnonzero(majority).tolist()),
        "minority": frozenset(np.flatnonzero(minority).tolist()),
    }
    out = {
        "classes": classes,
        "classes_exclusive": not classes["majority"] & classes["minority"],
        "has_minority": bool(classes["minority"]),
        "delta_gap": None,
        "majority_margins": {},
        "minority_margins": {},
        "in_class": False,
    }
    if split.popular_rank < split.n_bar:
        return out
    n = matrix.cols
    delta = 2.0**2.5 * split.kappa * n**1.5 / split.sigma_popular**2
    margins = (split._row_max - delta) - split._off_top_max
    support = split.popular_block.max(axis=1) - delta
    out["delta_gap"] = delta
    out["majority_margins"] = {u: float(margins[u]) for u in np.flatnonzero(majority).tolist()}
    out["minority_margins"] = {u: float(support[u]) for u in np.flatnonzero(minority).tolist()}
    out["in_class"] = all(x > 0.0 for x in out["majority_margins"].values()) and all(
        x > 0.0 for x in out["minority_margins"].values()
    )
    return out


def tie_heavy_matrix(rng) -> tuple[RatingsMatrix, int]:
    """Grid-valued rows, half the time under large popular indicator groups
    so that in-class matrices are drawn too."""
    n = int(rng.integers(2, 7))
    n_bar = int(rng.integers(1, n))
    rows = [rng.choice(TIE_GRID, size=(int(rng.integers(1, 6)), n))]
    if rng.random() < 0.5:
        group = int(rng.integers(1, 300))
        rows.append(np.repeat(np.eye(n)[:n_bar], group, axis=0))
    a = np.concatenate(rows)
    return RatingsMatrix(a[rng.permutation(a.shape[0])]), n_bar


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_membership_arrays_match_the_per_user_dicts(seed):
    rng = np.random.default_rng(seed)
    R, n_bar = tie_heavy_matrix(rng)
    split = PopularitySplit(R, n_bar)
    report = split.membership
    ref = _ref_membership(R, n_bar)

    for name in ("majority", "minority"):
        users = getattr(report, f"{name}_users")
        margins = getattr(report, f"{name}_margins")
        expected = ref[f"{name}_margins"]
        assert users.tolist() == sorted(ref["classes"][name])
        if ref["delta_gap"] is None:
            assert margins.size == 0
            continue
        assert users.tolist() == list(expected)
        assert margins.tobytes() == np.array(list(expected.values()), dtype=float).tobytes()
        ok = getattr(report, "majority_gap_ok" if name == "majority" else "minority_support_ok")
        assert ok.tolist() == [x > 0.0 for x in expected.values()]
        for array in (users, margins, ok):
            assert not array.flags.writeable
    assert report.delta_gap == ref["delta_gap"]
    assert report.in_class is ref["in_class"]
    assert report.classes_exclusive is ref["classes_exclusive"]
    assert report.has_minority is ref["has_minority"]
    for name in ("majority", "minority"):
        assert getattr(split.classes, name).tolist() == sorted(ref["classes"][name])
    # Reports hold arrays, so they compare by identity instead of raising.
    assert report == report and report != PopularitySplit(R, n_bar).membership

    # Callers read the same flags.
    column = R.entries[:, n_bar].copy()
    verdict = split.general_sufficiency(column, 1.0)
    for key in ("in_class", "classes_exclusive", "has_minority"):
        assert verdict.preconditions[key] is ref[key]
    floor = (R.cols - n_bar) * split.kappa / (2.0**2.5 * R.cols**1.5)
    larger = split.larger_splits
    assert larger.premise_holds is (ref["in_class"] and split.kappa_lower > floor)
    for wider, in_class in larger.checked.items():
        assert in_class is (wider < R.cols and _ref_membership(R, wider)["in_class"])


def test_gap_shrinks_as_the_popular_spectrum_grows():
    deltas = [PopularitySplit(build_gap_case(group=g)[0], 4).delta_gap for g in (100, 200, 400)]
    assert deltas[0] > deltas[1] > deltas[2]


# ---------------------------------------------------------------------------
# Spectral bounds and the tolerance window
# ---------------------------------------------------------------------------

def test_singular_bounds_on_the_gap_case(gap_case):
    R, n_bar = gap_case
    b = PopularitySplit(R, n_bar).singular_bounds
    assert b.lower_bound == 4.99414974034538
    assert b.upper_bound == 0.7745966692414834
    assert b.sigma_nbar == pytest.approx(math.sqrt(200.0), abs=1e-9)
    assert b.sigma_next == pytest.approx(0.2999531148967075, abs=1e-12)
    assert b.lower_ok and b.upper_ok


def test_lower_bound_degenerates_with_zero_kappa():
    a = np.zeros((2, 3))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    b = PopularitySplit(RatingsMatrix(a), 2).singular_bounds
    assert b.lower_bound == 0.0
    assert b.lower_ok


def test_upper_bound_holds_even_out_of_class():
    rng = np.random.default_rng(8)
    a = np.zeros((10, 3))
    a[:, :2] = rng.uniform(0.0, 1.0, size=(10, 2))
    a[:, 2] = 1.0  # heavy unpopular column: kappa = 10
    b = PopularitySplit(RatingsMatrix(a), 2).singular_bounds
    assert b.upper_bound == pytest.approx(math.sqrt(10.0))
    assert b.upper_ok


def test_tolerance_window_arithmetic():
    g = PopularitySplit(worked_example(), 4).window
    assert g.lower == 1.4142135623730951
    assert g.upper == 9.11802822781911
    assert not g.is_empty


def test_tolerance_window_collapses_at_zero_kappa():
    a = np.zeros((2, 3))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    g = PopularitySplit(RatingsMatrix(a), 2).window
    assert (g.lower, g.upper) == (0.0, 0.0)
    assert g.is_empty


def test_tolerance_window_nonempty_across_sizes():
    for n in range(2, 101):
        R = RatingsMatrix(np.ones((1, n)))
        for n_bar in range(1, n):
            assert not PopularitySplit(R, n_bar).window.is_empty


@pytest.mark.parametrize("seed", range(1, 9))
def test_windows_and_gap_scalars_agree_bitwise(seed):
    """Each reader of the window and of the two gap scalars returns the same
    bits as the others."""
    split = gap_class_instance(np.random.default_rng(seed)).split
    bounds, window = split.singular_bounds, split.window
    assert float_bits(bounds.lower_bound, bounds.upper_bound) == float_bits(
        window.upper, window.lower
    )
    assert float_bits(split.delta_gap) == float_bits(split.membership.delta_gap)

    inst = general_strategy_instance(np.random.default_rng(seed))
    column = inst.strategy.replacement_column
    report = inst.split.general_sufficiency(column, inst.alpha)
    assert float_bits(inst.split.collective_ratings_gap(column)) == float_bits(report.ratings_gap)


def bits(value) -> object:
    """A check's result as comparable bits: arrays and floats by their bytes,
    dataclasses and dicts field by field."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return float_bits(value)
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {name: bits(getattr(value, name)) for name in value.__dataclass_fields__}
    return value


SHIMS = {
    "class_membership": lambda split: split.membership,
    "singular_bounds_check": lambda split: split.singular_bounds,
    "projection_gap_check": lambda split: split.projection_gap,
    "no_larger_nbar_check": lambda split: split.larger_splits,
}


@pytest.mark.parametrize("seed", range(12))
def test_each_shim_is_its_split_member_bitwise(seed):
    """The (matrix, n_bar) functions the benchmark calls return their split
    member's result, field for field."""
    gap = gap_class_instance(np.random.default_rng(seed))
    inst = general_strategy_instance(np.random.default_rng(seed))
    strategy_column = inst.strategy.replacement_column
    for split, columns in ((gap.split, ()), (inst.split, (strategy_column,))):
        R, n_bar = split.matrix, split.n_bar
        for name, member in SHIMS.items():
            assert bits(getattr(popgap, name)(R, n_bar)) == bits(member(split)), name
        for column in (R.entries[:, n_bar], *columns):
            for alpha in (inst.alpha, gap.alpha):
                assert bits(popgap.check_general_sufficiency(R, n_bar, column, alpha)) == bits(
                    split.general_sufficiency(column, alpha)
                )


def test_bounds_and_projector_share_one_decomposition(gap_case):
    split = PopularitySplit(*gap_case)
    with mock.patch.object(popgap, "spectral", side_effect=matrix.spectral) as decomposed:
        split.singular_bounds
        split.projection_gap
    assert decomposed.call_count == 1


def test_split_refusals_come_before_the_alpha_refusal(strategy_case):
    """A bad n_bar is refused by the split before a negative alpha is, and a
    negative alpha before a malformed column; each keeps its text."""
    R = strategy_case["matrix"]
    with pytest.raises(ValueError, match=r"n_bar must satisfy 0 < n_bar < 6, got 6"):
        popgap.check_general_sufficiency(R, 6, strategy_case["r_tilde"], -1.0)
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        popgap.check_general_sufficiency(R, 4, np.zeros(3), -1.0)
    with pytest.raises(ValueError, match="replacement column must have shape"):
        popgap.check_general_sufficiency(R, 4, np.zeros(3), 1.0)


def test_rank_selection_inside_the_window(gap_case):
    R, n_bar = gap_case
    window = PopularitySplit(R, n_bar).window
    assert window.contains(GAP_ALPHA)
    assert fit_learner(R, GAP_ALPHA).chosen_rank == n_bar


# ---------------------------------------------------------------------------
# Projection distance
# ---------------------------------------------------------------------------

def test_projection_distance_zero_without_unpopular_ratings(gap_case):
    R, n_bar = gap_case
    stripped = PopularitySplit(R, n_bar).popular_prefs()
    assert PopularitySplit(stripped, n_bar).projection_gap <= 1e-9


def test_projection_distance_within_the_gap_bound(gap_case):
    R, n_bar = gap_case
    split = PopularitySplit(R, n_bar)
    dist = split.projection_gap
    assert dist == pytest.approx(0.0007501029809132931, abs=1e-12)
    assert dist <= split.delta_gap / (2 * math.sqrt(R.cols))


def test_projection_distance_ignores_user_order(gap_case):
    R, n_bar = gap_case
    rng = np.random.default_rng(1)
    shuffled = RatingsMatrix(R.entries[rng.permutation(R.rows)])
    assert PopularitySplit(shuffled, n_bar).projection_gap == pytest.approx(
        PopularitySplit(R, n_bar).projection_gap, abs=1e-12
    )


def test_projection_requires_enough_rank():
    a = np.zeros((3, 3))
    a[:, 0] = 1.0
    with pytest.raises(ValueError, match="rank"):
        PopularitySplit(RatingsMatrix(a), 2).projection_gap


# ---------------------------------------------------------------------------
# Switch users and the slack window
# ---------------------------------------------------------------------------

def test_switch_users_of_the_gap_case(gap_case):
    R, n_bar = gap_case
    # user 800 tops the target column; user 801 tops the later niche column
    assert PopularitySplit(R, n_bar).switch_users.tolist() == [800]


def test_switch_users_empty_when_nobody_tops_the_target():
    a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.0, 0.5]])
    assert PopularitySplit(RatingsMatrix(a), 1).switch_users.tolist() == []


def test_switch_users_three_way():
    a = np.zeros((7, 3))
    a[:4, 0] = 1.0
    a[4:, 1] = 0.4
    split = PopularitySplit(RatingsMatrix(a), 1)
    assert split.switch_users.tolist() == [4, 5, 6]
    assert set(split.switch_users.tolist()) <= set(split.classes.minority.tolist())


def test_slack_window_of_the_strategy_case(strategy_case):
    R = strategy_case["matrix"]
    w = PopularitySplit(R, 4).delta_window
    assert w.lower == pytest.approx(0.16)
    assert w.upper == pytest.approx(0.2)
    assert w.has_positive_point
    assert w.lower < w.witness < w.upper


def test_slack_window_matches_a_brute_force_scan(strategy_case):
    R = strategy_case["matrix"]
    entries = R.entries
    split = PopularitySplit(R, 4)
    switching = split.switch_users.tolist()
    residual = sorted(set(split.classes.minority.tolist()) - set(switching))
    w = split.delta_window
    for delta in np.linspace(0.0, 0.4, 401):
        if delta <= 0:
            continue
        head = entries[residual, :5]
        cond1 = head.max(axis=1).sum() <= head.min(axis=1).sum() + delta
        cond2 = entries[switching, 4].sum() > entries[switching, :4].max(axis=1).sum() + delta
        assert (cond1 and cond2) == (w.lower <= delta < w.upper)


def test_slack_window_closes_when_the_gain_vanishes():
    a = np.array([[1.0, 0.0], [0.3, 0.3]])
    w = PopularitySplit(RatingsMatrix(a), 1).delta_window
    assert w.upper == pytest.approx(0.0)
    assert not w.has_positive_point


# ---------------------------------------------------------------------------
# Replacement strategies and the singular value estimate
# ---------------------------------------------------------------------------

def test_strategy_must_keep_minority_entries(strategy_case):
    R = strategy_case["matrix"]
    r_tilde = strategy_case["r_tilde"].copy()
    r_tilde[strategy_case["u_switch"]] = 0.9
    with pytest.raises(ValueError, match="must keep rating"):
        GeneralStrategy(r_tilde).validate_for(PopularitySplit(R, 4))


def test_strategy_shape_and_range_checks(strategy_case):
    R = strategy_case["matrix"]
    with pytest.raises(ValueError, match="shape"):
        GeneralStrategy(np.zeros(3)).validate_for(PopularitySplit(R, 4))
    bad = strategy_case["r_tilde"].copy()
    bad[0] = 1.5
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GeneralStrategy(bad).validate_for(PopularitySplit(R, 4))


def test_strategy_apply_and_realism(strategy_case):
    R = strategy_case["matrix"]
    split = PopularitySplit(R, 4)
    strat = GeneralStrategy(strategy_case["r_tilde"])
    assert strat.is_realistic(split)
    out = strat.apply(split)
    assert np.array_equal(out.entries[:, 4], strategy_case["r_tilde"])
    other = np.delete(np.arange(R.cols), 4)
    assert np.array_equal(out.entries[:, other], R.entries[:, other])


def test_realism_validates_the_column(strategy_case):
    R = strategy_case["matrix"]
    for column in (np.array([1.0]), np.ones(R.rows + 1)):
        with pytest.raises(ValueError, match="shape"):
            GeneralStrategy(column).is_realistic(PopularitySplit(R, 4))


def test_dropping_a_majority_entry_is_not_realistic():
    a = np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.0], [0.0, 0.2, 0.6]])
    split = PopularitySplit(RatingsMatrix(a), 2)
    strat = GeneralStrategy(np.array([0.1, 0.0, 0.6]))
    # The minority entry is kept, so it is valid.
    assert strat.validate_for(split).tolist() == [0.1, 0.0, 0.6]
    assert not strat.is_realistic(split)


def test_sigma_hat_orthogonal_case():
    a = np.zeros((5, 3))
    a[0, 0] = a[1, 0] = 1.0
    a[2, 1] = a[3, 1] = 1.0
    a[4, 2] = 0.6
    r_tilde = np.array([0.0, 0.0, 0.0, 0.0, 0.6])
    # orthogonal to the popular block and below sigma_popular = sqrt(2)
    assert PopularitySplit(RatingsMatrix(a), 2).sigma_hat(r_tilde) == pytest.approx(0.6)


def test_sigma_hat_clamps_at_the_popular_floor():
    a = np.zeros((13, 3))
    a[:4, 0] = 1.0
    a[4:8, 1] = 1.0
    a[8:, 2] = 1.0
    r_tilde = np.zeros(13)
    r_tilde[8:] = 1.0  # energy 5 exceeds sigma_popular^2 = 4
    assert PopularitySplit(RatingsMatrix(a), 2).sigma_hat(r_tilde) == 2.0


def test_sigma_hat_rejects_negative_radicand():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    wide = np.hstack([a, np.zeros((3, 1))])
    with pytest.raises(ValueError, match="radicand"):
        PopularitySplit(RatingsMatrix(wide), 2).sigma_hat(np.array([1.0, 1.0, 0.0]))


def test_sigma_hat_of_the_strategy_case(strategy_case):
    split = PopularitySplit(strategy_case["matrix"], 4)
    est = split.sigma_hat(strategy_case["r_tilde"])
    assert est == 10.957873817207327
    gap = split.collective_ratings_gap(strategy_case["r_tilde"])
    assert gap == 0.13847751777957998


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_sigma_hat_never_exceeds_the_true_singular_value(seed):
    rng = np.random.default_rng(seed)
    g = 30
    a = np.zeros((4 * g + 2, 6))
    for j in range(4):
        a[j * g : (j + 1) * g, j] = 1.0
    a[4 * g, 4] = 0.3
    a[4 * g, 0] = 0.1
    a[4 * g + 1, 5] = 0.2
    a[4 * g + 1, 1] = 0.16
    split = PopularitySplit(RatingsMatrix(a), 4)
    r_tilde = a[:, 4].copy()
    q = int(rng.integers(1, g))
    value = float(rng.uniform(0.2, 0.95))
    for j in range(4):
        r_tilde[j * g : j * g + q] = value
    try:
        estimate = split.sigma_hat(r_tilde)
    except ValueError:
        return
    replaced = GeneralStrategy(r_tilde).apply(split)
    truth = singular_values_of(PopularitySplit(replaced, 5).popular_prefs().entries)[4]
    assert estimate <= truth + 1e-9


def test_collective_gap_requires_a_nonzero_estimate():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    a[2, 2] = 0.5
    with pytest.raises(ValueError, match="zero"):
        PopularitySplit(RatingsMatrix(a), 2).collective_ratings_gap(np.zeros(3))


# ---------------------------------------------------------------------------
# Five-condition evaluator
# ---------------------------------------------------------------------------

def test_general_sufficiency_passes_on_the_strategy_case(strategy_case):
    R = strategy_case["matrix"]
    split = PopularitySplit(R, 4)
    report = split.general_sufficiency(strategy_case["r_tilde"], strategy_case["alpha"])
    assert report.verdict is True
    assert all(report.preconditions.values())
    assert all(v is True for v in report.conditions.values())
    assert report.sigma_hat == 10.957873817207327
    assert report.ratings_gap == 0.13847751777957998
    assert report.alpha_above_tail
    assert report.margins["alpha_above_tail"] == pytest.approx(2.0 - math.sqrt(0.2))
    assert report.margins["sigma_hat_radicand"] == pytest.approx(120.0749985938379)
    for name in (
        "uprating_below_majority_top",
        "majority_gap_preserved",
        "switch_users_promoted",
        "residual_minority_supported",
    ):
        assert report.margins[name] > 0.0


def test_unchanged_column_cannot_be_certified(strategy_case):
    R = strategy_case["matrix"]
    truthful_column = R.entries[:, 4].copy()
    report = PopularitySplit(R, 4).general_sufficiency(truthful_column, strategy_case["alpha"])
    assert report.sigma_hat == pytest.approx(math.sqrt(0.06))
    assert report.conditions["alpha_below_sigma_hat"] is False
    assert report.verdict is False


def test_one_greedy_member_breaks_exactly_one_condition(strategy_case):
    R = strategy_case["matrix"]
    r_tilde = strategy_case["r_tilde"].copy()
    r_tilde[0] = 0.95  # too close to that user's top rating of 1
    report = PopularitySplit(R, 4).general_sufficiency(r_tilde, strategy_case["alpha"])
    assert report.conditions["uprating_below_majority_top"] is False
    failed = [k for k, v in report.conditions.items() if v is not True]
    assert failed == ["uprating_below_majority_top"]
    assert report.verdict is False


def test_alpha_outside_the_window_is_reported(strategy_case):
    R = strategy_case["matrix"]
    report = PopularitySplit(R, 4).general_sufficiency(strategy_case["r_tilde"], 0.5)
    assert report.preconditions["alpha_in_gap"] is False
    assert report.verdict is False


def test_evaluator_rejects_malformed_inputs(strategy_case):
    R = strategy_case["matrix"]
    with pytest.raises(ValueError, match="alpha"):
        PopularitySplit(R, 4).general_sufficiency(strategy_case["r_tilde"], -1.0)
    with pytest.raises(ValueError, match="must keep rating"):
        bad = strategy_case["r_tilde"].copy()
        bad[strategy_case["u_residual"]] = 0.4
        PopularitySplit(R, 4).general_sufficiency(bad, 2.0)


def test_passing_verdict_certifies_a_welfare_gain(strategy_case):
    R = strategy_case["matrix"]
    alpha = strategy_case["alpha"]
    split = PopularitySplit(R, 4)
    assert split.general_sufficiency(strategy_case["r_tilde"], alpha).verdict

    revealed = GeneralStrategy(strategy_case["r_tilde"]).apply(split)
    before_model = fit_learner(R, alpha)
    after_model = fit_learner(revealed, alpha)
    assert before_model.chosen_rank == 4
    assert after_model.chosen_rank == 5

    before = social_welfare(R, recommend(before_model.truncated, derandomize=True), R_tilde=R)
    after = social_welfare(
        R, recommend(after_model.truncated, derandomize=True), R_tilde=revealed
    )
    assert before.social_welfare == pytest.approx(1600.26, abs=1e-9)
    assert after.social_welfare == pytest.approx(1600.46, abs=1e-9)
    rho = after.social_welfare / before.social_welfare
    assert rho == pytest.approx(1.0001249796908003, abs=1e-12)
    assert rho > 1.0
    # the switch user flips from her popular fallback to the target item
    u_switch = strategy_case["u_switch"]
    assert after.per_user_welfare[u_switch] == pytest.approx(0.3)
    assert before.per_user_welfare[u_switch] == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Truthful simulation: who gets what, and the welfare ceiling
# ---------------------------------------------------------------------------

def test_truthful_recommendation_sets_on_the_gap_case(gap_case):
    R, n_bar = gap_case
    model = fit_learner(R, GAP_ALPHA)
    outcome = recommend(model.truncated, derandomize=True)
    classes = PopularitySplit(R, n_bar).classes
    popular = set(range(n_bar))
    for u in range(R.rows):
        tie = set(np.flatnonzero(outcome.tie[u]).tolist())
        if u in classes.majority:
            assert tie <= set(top_items(R.entries[u])) & popular
        else:
            assert tie <= popular


def test_truthful_welfare_hits_the_ceiling_exactly(gap_case):
    R, n_bar = gap_case
    outcome = recommend(fit_learner(R, GAP_ALPHA).truncated, derandomize=True)
    sw = social_welfare(R, outcome).social_welfare
    classes = PopularitySplit(R, n_bar).classes
    maj = sorted(classes.majority)
    minority = sorted(classes.minority)
    r_lower = max(float(R.entries[u, :n_bar].max()) for u in minority)
    ceiling = len(minority) * r_lower + float(R.entries[maj].max(axis=1).sum())
    assert sw == pytest.approx(800.5, abs=1e-9)
    assert sw <= ceiling + 1e-9
    assert ceiling == pytest.approx(800.5)
    # strictly below what a fully personalized learner could deliver
    assert sw < float(R.entries.max(axis=1).sum()) == pytest.approx(800.6)


# ---------------------------------------------------------------------------
# No larger split stays in class
# ---------------------------------------------------------------------------

def test_no_larger_split_confirmed_on_the_gap_case(gap_case):
    R, n_bar = gap_case
    check = PopularitySplit(R, n_bar).larger_splits
    assert check.premise_holds
    assert check.confirmed is True
    assert check.checked == {5: False, 6: False}
    # the 5-column split fails because its gap scalar explodes
    assert PopularitySplit(R, 5).delta_gap == pytest.approx(277.2147707278957)


def test_no_larger_split_premise_can_fail(gap_case):
    R, n_bar = gap_case
    widened = RatingsMatrix(np.hstack([R.entries, np.zeros((R.rows, 1))]))
    check = PopularitySplit(widened, n_bar).larger_splits
    assert not check.premise_holds  # the zero column floors kappa_lower at 0
    assert check.confirmed is None
    assert check.checked == {}


# ---------------------------------------------------------------------------
# Independent scipy oracle
# ---------------------------------------------------------------------------

def test_scipy_oracle_cross_checks_the_module():
    pytest.importorskip("scipy")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_popgap_values.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cross-check OK" in proc.stdout.splitlines()
