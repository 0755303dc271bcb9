"""Collective uprating: strategies, sufficiency arithmetic, finder, robustness."""

import ast
import dataclasses
import inspect
import math
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import float_bits
from rankgap.collective import (
    CollectiveStrategy,
    FinderInputs,
    apply_uprating,
    aggregate_value,
    check_sufficient_conditions,
    find_eta,
    grid_feasible_eta,
    lipschitz_bound,
    margin_numerator,
    robustness_margin,
    sufficient_gap,
)
from rankgap.generators import random_block_scenario, random_finder_inputs, stratified_collective
from rankgap.learner import fit_learner, recommend, social_welfare, utility_en
from rankgap.matrix import (
    GroupPartition,
    OpenInterval,
    PartitionError,
    RatingsMatrix,
    block_partition,
    numeric_rank_of,
    singular_value_gap,
    singular_values_of,
)

ROOT = Path(__file__).resolve().parents[1]

seeds = st.integers(min_value=0, max_value=2**32 - 1)

MULTI_Z = dict(
    sigma_kmaj=10.0, alpha=2.1, n_bar=4, picky_col_sq=4.0, av=25.0, kappa=1.0, coll_size=100
)
MULTI_ETA = 0.7540348790056394  # midpoint ((sqrt(4)*25 + sqrt(2664))/200 + 1)/2


def raw_gap_slack(vec: np.ndarray, eta: float) -> float:
    """Gap-condition slack from the raw parameter vector, no integer casts.

    Vector order matches FinderInputs.as_vector: (sigma_kmaj, alpha, n_bar,
    picky_col_sq, av, coll_size).
    """
    sigma, alpha, n_bar, s, av, size = (float(v) for v in vec)
    return min(sigma**2, eta**2 * size + s) - eta * math.sqrt(n_bar) * av - alpha**2


def reference_grid_feasible_eta(
    z: FinderInputs, sigma1_min: float = 0.0, steps: int = 10_000
) -> float | None:
    """The scalar grid scan that grid_feasible_eta replaced, kept verbatim."""
    if z.kappa <= 0:
        return None
    for j in range(1, steps):
        eta = z.kappa * j / steps
        if check_sufficient_conditions(z, sigma1_min, eta).verdict:
            return eta
    return None


@pytest.fixture(scope="session")
def multi_strategy(multi_scene):
    R, p = multi_scene
    coll = stratified_collective(R, p, 0.25)
    return CollectiveStrategy(target_item=4, collective=coll, eta=MULTI_ETA)


# ---------------------------------------------------------------------------
# Strategy and input validation
# ---------------------------------------------------------------------------

def test_strategy_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="nonempty"):
        CollectiveStrategy(target_item=2, collective=frozenset(), eta=0.5)
    with pytest.raises(ValueError, match="positive"):
        CollectiveStrategy(target_item=2, collective=frozenset({0}), eta=0.0)
    for eta in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            CollectiveStrategy(target_item=2, collective=frozenset({0}), eta=eta)


@pytest.mark.parametrize("bad", [{0.7, 2.2}, {True}, {np.bool_(True)}, {0, 1.0}, {"1"}])
def test_strategy_rejects_non_integer_collective_members(bad):
    # int() would truncate these silently ({0.7, 2.2} -> {0, 2}).
    with pytest.raises(ValueError, match="^collective must hold integer indices, got "):
        CollectiveStrategy(target_item=2, collective=bad, eta=0.5)


def test_strategy_takes_numpy_integers_as_ints():
    s = CollectiveStrategy(target_item=2, collective=np.array([0, 3]), eta=0.5)
    assert s.collective.tolist() == [0, 3] and s.collective.dtype == np.intp
    assert not s.collective.flags.writeable


@pytest.mark.parametrize("big", [2**70, -(2**70)])
def test_strategy_rejects_users_np_intp_cannot_hold(big):
    with pytest.raises(ValueError, match=f"^collective index {big} is out of range$"):
        CollectiveStrategy(target_item=2, collective=[0, big], eta=0.5)


def test_strategy_validation_against_partition(paired_scene):
    _, p = paired_scene
    with pytest.raises(ValueError, match="not a minority item"):
        CollectiveStrategy(target_item=0, collective=frozenset({0}), eta=0.5).validate_for(p)
    with pytest.raises(ValueError, match=r"^collective users \[9\] are not majority users$"):
        CollectiveStrategy(target_item=2, collective=frozenset({9}), eta=0.5).validate_for(p)


def test_finder_inputs_validation():
    with pytest.raises(ValueError, match="alpha"):
        FinderInputs(**{**MULTI_Z, "alpha": 10.0})
    with pytest.raises(ValueError, match="nonnegative"):
        FinderInputs(**{**MULTI_Z, "av": -1.0})
    with pytest.raises(ValueError, match="coll_size"):
        FinderInputs(**{**MULTI_Z, "coll_size": 0})
    vec = FinderInputs(**MULTI_Z).as_vector()
    assert vec.tolist() == [10.0, 2.1, 4.0, 4.0, 25.0, 100.0]


# ---------------------------------------------------------------------------
# Applying the uprating
# ---------------------------------------------------------------------------

def test_uprating_changes_exactly_the_target_entries(multi_scene, multi_strategy):
    R, p = multi_scene
    revealed = apply_uprating(R, p, multi_strategy)
    diff = revealed.entries != R.entries
    assert int(diff.sum()) == 100
    changed_rows = set(np.flatnonzero(diff.any(axis=1)))
    assert changed_rows == set(multi_strategy.collective)
    assert set(np.flatnonzero(diff.any(axis=0))) == {4}
    assert np.all(revealed.entries[sorted(multi_strategy.collective), 4] == MULTI_ETA)
    before = R.entries[sorted(multi_strategy.collective), 4]
    assert np.all(before == 0.0)


def test_uprating_lifts_minority_column_top_singular_value(paired_scene):
    R, p = paired_scene
    s = CollectiveStrategy(target_item=2, collective=frozenset({0}), eta=0.5)
    revealed = apply_uprating(R, p, s)
    cols = sorted(p.minority_items)
    before = singular_values_of(R.entries[:, cols])[0]
    after = singular_values_of(revealed.entries[:, cols])[0]
    assert after > before


def test_uprating_requires_valid_strategy(multi_scene):
    R, p = multi_scene
    bad = CollectiveStrategy(target_item=0, collective=frozenset({0}), eta=0.5)
    with pytest.raises(ValueError, match="not a minority item"):
        apply_uprating(R, p, bad)


# ---------------------------------------------------------------------------
# Aggregate value
# ---------------------------------------------------------------------------

def test_aggregate_value_of_singleton_is_their_top_popular_rating(multi_scene):
    R, p = multi_scene
    assert aggregate_value(R, {0}, p) == 1.0


def test_aggregate_value_of_stratified_collective(multi_scene, multi_strategy):
    R, p = multi_scene
    assert aggregate_value(R, multi_strategy.collective, p) == 25.0


def test_aggregate_value_zero_for_minority_rows(multi_scene):
    R, p = multi_scene
    assert aggregate_value(R, {404}, p) == 0.0


def test_aggregate_value_validation(multi_scene):
    R, p = multi_scene
    with pytest.raises(ValueError, match="nonempty"):
        aggregate_value(R, set(), p)
    with pytest.raises(PartitionError, match="does not cover a 405x6 matrix"):
        aggregate_value(R, {0}, block_partition(400, 4, 405, 7))


def test_aggregate_value_reads_the_partitions_majority_items():
    # The majority items are columns 1 and 3: users 0-2 rate item 1, users
    # 3-5 item 3, users 6-8 items 0 and 2.  Summing the first n_bar columns
    # instead gave max(0, 1) = 1.
    a = np.zeros((9, 4))
    a[0:3, 1] = 1.0
    a[3:6, 3] = 1.0
    a[6:9, 0] = [0.5, 0.2, 0.1]
    a[6:9, 2] = [0.1, 0.3, 0.2]
    R = RatingsMatrix(a)
    p = GroupPartition(range(6), range(6, 9), [1, 3], [0, 2])
    p.validate_for(R)
    assert aggregate_value(R, [0, 3, 4, 5], p) == 3.0


# ---------------------------------------------------------------------------
# Collective index arrays against the set-based code they replaced
# ---------------------------------------------------------------------------

def reference_validate(p, target: int, coll: frozenset) -> None:
    if target not in set(p.minority_items.tolist()):
        raise ValueError(f"target item {target} is not a minority item")
    outside = sorted(coll - set(p.majority_users.tolist()))
    if outside:
        raise ValueError(f"collective users {outside} are not majority users")


def reference_aggregate_value(R, coll: frozenset, n_bar: int) -> float:
    rows = sorted(int(u) for u in coll)
    return float(R.entries[rows, :n_bar].sum(axis=0).max())


def reference_apply_uprating(R, p, target: int, coll: frozenset, eta: float) -> bytes:
    reference_validate(p, target, coll)
    out = R.entries.copy()
    out[list(coll), target] = eta
    return out.tobytes()


def reference_sufficient_gap(R, p, target: int, coll: frozenset, eta: float) -> OpenInterval:
    reference_validate(p, target, coll)
    maj_block = p.majority_block(R.entries)
    sigma_kmaj = float(singular_values_of(maj_block)[numeric_rank_of(maj_block) - 1])
    s_min = singular_values_of(p.minority_block(R.entries))
    sigma1_min = float(s_min[0]) if s_min.size else 0.0
    col_sq = float((R.entries[:, target] ** 2).sum())
    coll_rows = R.entries[sorted(coll)]
    av = float(coll_rows[:, p.majority_items].sum(axis=0).max())
    radicand = min(sigma_kmaj**2, eta**2 * len(coll) + col_sq) - eta * math.sqrt(p.n_bar) * av
    upper = math.sqrt(radicand) if radicand >= 0 else float("nan")
    return OpenInterval(sigma1_min, upper)


def _outcome(fn, *args):
    """A comparable result: the repr of the value (NaN equals NaN there), or the error text."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return str(exc)


def readonly_array(users) -> np.ndarray:
    out = np.array(users, dtype=np.intp)
    out.flags.writeable = False
    return out


@given(seed=seeds, data=st.data())
@settings(max_examples=200, deadline=None)
def test_collective_paths_match_the_set_based_code(seed, data):
    scene = random_block_scenario(np.random.default_rng(seed))
    R, p = scene.matrix, scene.partition
    majority = sorted(set(p.majority_users.tolist()))
    # Any order, with repeats; now and then a user from outside the majority.
    outsiders = [-1, R.rows, *sorted(set(p.minority_users.tolist()))]
    users = data.draw(
        st.lists(st.sampled_from(majority), min_size=1, max_size=12)
        | st.lists(st.sampled_from(majority + outsiders), min_size=1, max_size=6)
    )
    form = data.draw(st.sampled_from([list, tuple, set, frozenset, np.array, readonly_array]))
    target = data.draw(st.sampled_from(sorted(set(p.minority_items.tolist())) + [0]))
    eta = data.draw(st.floats(1e-3, 5.0))
    coll = frozenset(users)

    strategy = CollectiveStrategy(target_item=target, collective=form(users), eta=eta)
    assert strategy.collective.tolist() == sorted(coll)
    assert strategy.collective.dtype == np.intp and not strategy.collective.flags.writeable
    again = CollectiveStrategy(target_item=target, collective=strategy.collective, eta=eta)
    assert again.collective is strategy.collective
    assert _outcome(strategy.validate_for, p) == _outcome(reference_validate, p, target, coll)
    revealed = _outcome(lambda: apply_uprating(R, p, strategy).entries.tobytes())
    assert revealed == _outcome(reference_apply_uprating, R, p, target, coll, eta)
    gap = _outcome(sufficient_gap, R, p, strategy)
    assert gap == _outcome(reference_sufficient_gap, R, p, target, coll, eta)
    if coll <= set(p.majority_users.tolist()):
        expected = reference_aggregate_value(R, coll, p.n_bar)
        assert aggregate_value(R, form(users), p) == expected
        assert aggregate_value(R, strategy.collective, p) == expected


# ---------------------------------------------------------------------------
# Sufficient gap interval
# ---------------------------------------------------------------------------

def test_sufficient_gap_of_multigroup(multi_scene, multi_strategy):
    R, p = multi_scene
    g = sufficient_gap(R, p, multi_strategy)
    assert g.lower == 2.0
    assert g.upper == pytest.approx(4.811976301419508, abs=1e-12)
    assert g.upper == pytest.approx(math.sqrt(min(100.0, 60.85674843) - 37.70174395), abs=1e-3)
    # oracle: the revealed matrix really does open this gap
    revealed = apply_uprating(R, p, multi_strategy)
    sigma5 = singular_values_of(revealed.entries)[4]
    assert sigma5 >= g.upper


def test_sufficient_gap_vanishes_as_eta_shrinks(paired_scene):
    R, p = paired_scene
    s = CollectiveStrategy(target_item=2, collective=frozenset({0}), eta=1e-9)
    # target column norm^2 = 1 <= sigma1(R_min)^2 = 1, so no gap survives
    assert sufficient_gap(R, p, s).is_empty


def test_sufficient_gap_negative_radicand_is_empty(multi_scene):
    R, p = multi_scene
    whole_majority = frozenset(range(400))
    s = CollectiveStrategy(target_item=4, collective=whole_majority, eta=0.9)
    g = sufficient_gap(R, p, s)
    assert math.isnan(g.upper)
    assert g.is_empty


@given(seed=seeds, data=st.data())
@settings(max_examples=200, deadline=None)
def test_block_gap_agrees_bitwise_with_the_finder_inputs_path(seed, data):
    """run's two windows agree, in block order and with users and items shuffled."""
    scene = random_block_scenario(np.random.default_rng(seed))
    R, p = scene.matrix, scene.partition
    majority = p.majority_users.tolist()
    users = data.draw(st.lists(st.sampled_from(majority), min_size=1, max_size=len(majority)))
    target = data.draw(st.sampled_from(p.minority_items.tolist()))
    strategy = CollectiveStrategy(target, users, data.draw(st.floats(1e-3, 50.0)))
    assert_block_gap_agrees(R, p, scene.alpha, strategy)

    # The same scene permuted: the majority items leave the first n_bar columns.
    rows = np.array(data.draw(st.permutations(range(R.rows))))
    cols = np.array(data.draw(st.permutations(range(R.cols))))
    row_of, col_of = np.argsort(rows), np.argsort(cols)
    permuted = GroupPartition(
        row_of[p.majority_users],
        row_of[p.minority_users],
        col_of[p.majority_items],
        col_of[p.minority_items],
    )
    moved = CollectiveStrategy(int(col_of[target]), row_of[strategy.collective], strategy.eta)
    assert_block_gap_agrees(
        RatingsMatrix(R.entries[np.ix_(rows, cols)]), permuted, scene.alpha, moved
    )


def assert_block_gap_agrees(R, p, alpha, strategy) -> None:
    """sufficient_gap on the matrix and the checked finder inputs'
    gap_interval are the same bits; so are singular_value_gap's ends and the
    block sigmas the finder inputs take."""
    maj = p.majority_block(R.entries)
    sigma_kmaj = float(singular_values_of(maj)[numeric_rank_of(maj) - 1])
    sigma1_min = float(singular_values_of(p.minority_block(R.entries))[0])
    gap = singular_value_gap(R, p)
    assert float_bits(gap.lower, gap.upper) == float_bits(sigma1_min, sigma_kmaj)
    inputs = FinderInputs(
        sigma_kmaj=sigma_kmaj,
        alpha=alpha,
        n_bar=p.n_bar,
        picky_col_sq=float((R.entries[:, strategy.target_item] ** 2).sum()),
        av=aggregate_value(R, strategy.collective, p),
        kappa=1.0,
        coll_size=len(strategy.collective),
    )
    window = sufficient_gap(R, p, strategy)
    checked = check_sufficient_conditions(inputs, sigma1_min, strategy.eta).gap_interval
    assert float_bits(window.lower, window.upper) == float_bits(checked.lower, checked.upper)


@given(seeds, st.floats(0.0, 1.5))
@settings(max_examples=300, deadline=None)
def test_margin_numerator_is_the_checked_gap_margin_bitwise(seed, eta_scale):
    """robustness_margin's gate (margin_numerator) and run's gate (the
    report's alpha_in_new_gap margin) are the same bits, so they agree in sign."""
    z = random_finder_inputs(np.random.default_rng(seed))
    for eta in (find_eta(z), z.kappa * eta_scale):
        margin = check_sufficient_conditions(z, 0.0, eta).margins["alpha_in_new_gap"]
        assert float_bits(margin_numerator(z, eta)) == float_bits(margin)


# ---------------------------------------------------------------------------
# Sufficient conditions
# ---------------------------------------------------------------------------

def test_conditions_pass_at_the_found_eta():
    z = FinderInputs(**MULTI_Z)
    report = check_sufficient_conditions(z, 2.0, MULTI_ETA)
    assert report.verdict is True
    assert report.conditions == {
        "eta_below_kappa": True,
        "alpha_in_new_gap": True,
        "alpha_above_minority": True,
    }
    assert report.margins["eta_below_kappa"] == pytest.approx(1.0 - MULTI_ETA)
    assert report.margins["alpha_in_new_gap"] == pytest.approx(18.74511592542296, abs=1e-9)
    assert report.margins["alpha_above_minority"] == pytest.approx(0.1)
    assert report.gap_interval.contains(2.1)


def test_conditions_fail_above_kappa():
    z = FinderInputs(**MULTI_Z)
    report = check_sufficient_conditions(z, 2.0, 1.2)
    assert report.verdict is False
    assert report.conditions["eta_below_kappa"] is False


def test_no_eta_passes_when_alpha_is_too_large():
    z = FinderInputs(**{**MULTI_Z, "alpha": 8.0})
    assert grid_feasible_eta(z, sigma1_min=2.0) is None


# ---------------------------------------------------------------------------
# Eta finder
# ---------------------------------------------------------------------------

def test_finder_returns_the_hand_derived_midpoint():
    z = FinderInputs(**MULTI_Z)
    eta = find_eta(z)
    hand = ((math.sqrt(4) * 25 + math.sqrt(2664)) / 200 + 1) / 2
    assert eta == pytest.approx(hand, abs=1e-12)
    assert eta == MULTI_ETA
    assert check_sufficient_conditions(z, 2.0, eta).verdict


def test_finder_returns_zero_when_infeasible():
    z = FinderInputs(**{**MULTI_Z, "alpha": 8.0})
    assert find_eta(z) == 0.0


def test_finder_defensive_branch_without_real_roots():
    z = FinderInputs(
        sigma_kmaj=10.0, alpha=1.0, n_bar=1, picky_col_sq=2.0, av=1.0, kappa=1.0, coll_size=1
    )
    # d = 1 + 4·(1−2) = −3 < 0, so the lower bound defaults to N_up/2
    assert find_eta(z) == 0.75


def test_finder_rejects_zero_aggregate_value():
    z = FinderInputs(
        sigma_kmaj=10.0, alpha=1.0, n_bar=1, picky_col_sq=2.0, av=0.0, kappa=1.0, coll_size=1
    )
    with pytest.raises(ValueError, match="aggregate value"):
        find_eta(z)


def test_grid_oracle_brackets_the_feasible_range():
    z = FinderInputs(**MULTI_Z)
    first = grid_feasible_eta(z, sigma1_min=2.0)
    assert first == pytest.approx(0.5081, abs=1e-12)
    assert check_sufficient_conditions(z, 2.0, first).verdict
    assert not check_sufficient_conditions(z, 2.0, 0.5080).verdict
    assert grid_feasible_eta(FinderInputs(**{**MULTI_Z, "kappa": 0.0}), 2.0) is None


@given(
    seeds,
    st.sampled_from(["zero", "half", "alpha", "below", "above"]),
    st.sampled_from([1, 2, 3, 7, 1_000, 10_000]),
    st.sampled_from([0.0, 1e-300, 1.0, 1e6]),
)
@settings(max_examples=200, deadline=None)
def test_array_grid_oracle_matches_the_scalar_loop(seed, where, steps, kappa_scale):
    z = random_finder_inputs(np.random.default_rng(seed))
    z = dataclasses.replace(z, kappa=z.kappa * kappa_scale)
    sigma1_min = {
        "zero": 0.0,
        "half": z.alpha / 2,
        "alpha": z.alpha,
        "below": math.nextafter(z.alpha, -math.inf),
        "above": math.nextafter(z.alpha, math.inf),
    }[where]
    got = grid_feasible_eta(z, sigma1_min, steps)
    assert got == reference_grid_feasible_eta(z, sigma1_min, steps)
    assert got is None or type(got) is float


def test_grid_oracle_skips_a_point_on_the_gap_edge():
    z = FinderInputs(
        sigma_kmaj=10.0, alpha=2.0, n_bar=1, picky_col_sq=2.0, av=1.0, kappa=4.0, coll_size=1
    )
    # at eta = 2: min(100, 4·1 + 2) − 2·1·1 − 2² = 0 exactly, which fails the strict test
    assert margin_numerator(z, 2.0) == 0.0
    assert check_sufficient_conditions(z, 0.0, 2.0).conditions["alpha_in_new_gap"] is False
    assert grid_feasible_eta(z, 0.0, steps=4) == 3.0
    assert find_eta(z) == 3.0
    # alpha = sigma1(minority) fails the strict alpha_above_minority test everywhere
    assert grid_feasible_eta(z, 2.0, steps=4) is None


def test_grid_oracle_stops_before_kappa():
    # 1.339 * 3 / 3 rounds to just below kappa, so a grid that ran to
    # j = steps would find a passing point there; the grid ends at j = 2.
    z = FinderInputs(
        sigma_kmaj=10.0, alpha=1.2, n_bar=1, picky_col_sq=0.0, av=0.0, kappa=1.339, coll_size=1
    )
    assert z.kappa * 3 / 3 < z.kappa
    assert check_sufficient_conditions(z, 0.0, z.kappa * 3 / 3).verdict
    assert grid_feasible_eta(z, 0.0, steps=3) is None
    assert grid_feasible_eta(z, 0.0, steps=10) == z.kappa * 9 / 10


def test_grid_oracle_steps_must_be_an_integer():
    z = FinderInputs(**MULTI_Z)
    for steps in (2.5, 10_000.0, "10"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            grid_feasible_eta(z, 2.0, steps=steps)
    assert grid_feasible_eta(z, 2.0, steps=np.int64(10_000)) == grid_feasible_eta(z, 2.0)
    for steps in (-3, 0, 1):
        assert grid_feasible_eta(z, 2.0, steps=steps) is None


# What grid_feasible_eta checks: the finder, the two checks, and the radicand
# and window helpers they share.
CHECKED_CODE = (
    "find_eta",
    "margin_numerator",
    "check_sufficient_conditions",
    "_gap_radicand",
    "_gap_window",
)


def oracle_dependencies(source: str) -> list[str]:
    """Names of checked code the source calls, plus any loop it contains."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CHECKED_CODE:
                found.append(name)
        elif isinstance(node, (ast.For, ast.While, ast.comprehension)):
            found.append(type(node).__name__)
    return found


def test_grid_oracle_stays_independent_of_the_code_it_checks():
    assert oracle_dependencies(inspect.getsource(grid_feasible_eta)) == []


def test_oracle_dependency_guard_flags_each_form():
    flagged = {
        "find_eta(z)": ["find_eta"],
        "collective.margin_numerator(z, eta)": ["margin_numerator"],
        "check_sufficient_conditions(z, s, e).verdict": ["check_sufficient_conditions"],
        "alpha**2 < _gap_radicand(s, e, c, q, n, av)": ["_gap_radicand"],
        "collective._gap_window(s, r).upper": ["_gap_window"],
        "for j in range(steps): pass": ["For"],
        "while True: break": ["While"],
        "any(e > 0 for e in grid)": ["comprehension"],
    }
    for source, names in flagged.items():
        assert oracle_dependencies(source) == names, source
    assert oracle_dependencies("np.minimum(a, b) - eta * math.sqrt(n)") == []
    assert oracle_dependencies(inspect.getsource(reference_grid_feasible_eta)) == [
        "For",
        "check_sufficient_conditions",
    ]


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_finder_agrees_with_grid_oracle(seed):
    z = random_finder_inputs(np.random.default_rng(seed))
    eta = find_eta(z)
    if eta > 0:
        assert check_sufficient_conditions(z, 0.0, eta).verdict
    else:
        assert grid_feasible_eta(z, sigma1_min=0.0, steps=1_000) is None


# ---------------------------------------------------------------------------
# Robustness margin
# ---------------------------------------------------------------------------

def test_margin_of_the_multigroup_instance():
    z = FinderInputs(**MULTI_Z)
    f = margin_numerator(z, MULTI_ETA)
    L = lipschitz_bound(100.0, 10.0, 6, MULTI_ETA)
    assert f == pytest.approx(18.74511592542296, abs=1e-12)
    assert L == pytest.approx(51.85073393026024, abs=1e-12)
    margin = robustness_margin(z, MULTI_ETA, 100.0, 10.0, 6)
    assert margin == pytest.approx(0.36152074434732845, abs=1e-12)
    assert margin == pytest.approx(f / L)


def test_margin_errors_at_the_sufficiency_boundary():
    z = FinderInputs(
        sigma_kmaj=10.0, alpha=1.0, n_bar=1, picky_col_sq=1.0, av=2.0, kappa=1.0, coll_size=4
    )
    # min(100, 0.25·4+1) − 0.5·2 − 1 = 2 − 1 − 1 = 0 exactly
    assert margin_numerator(z, 0.5) == 0.0
    with pytest.raises(ValueError, match="gap condition"):
        robustness_margin(z, 0.5, 10.0, 5.0, 4)
    with pytest.raises(ValueError, match="positive"):
        robustness_margin(z, 0.0, 10.0, 5.0, 4)


def test_lipschitz_bound_grows_with_eta():
    values = [lipschitz_bound(100.0, 10.0, 6, eta) for eta in np.linspace(0.05, 3.0, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_in_margin_perturbations_keep_the_gap_slack_positive(seed):
    z = FinderInputs(**MULTI_Z)
    margin = robustness_margin(z, MULTI_ETA, 100.0, 10.0, 6)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    radius = margin * (1 - 1e-6) * rng.uniform(0.0, 1.0)
    perturbed = z.as_vector() + radius * direction
    assert raw_gap_slack(perturbed, MULTI_ETA) > 0.0
    assert 0.0 < MULTI_ETA < z.kappa  # the remaining eta condition is untouched


# ---------------------------------------------------------------------------
# End-to-end welfare improvement
# ---------------------------------------------------------------------------

def test_end_to_end_uprating_on_multigroup(multi_scene, multi_strategy):
    R, p = multi_scene
    alpha = 2.1

    truthful_model = fit_learner(R, alpha)
    truthful = social_welfare(R, recommend(truthful_model.truncated, seed=0), R_tilde=R)

    revealed = apply_uprating(R, p, multi_strategy)
    model = fit_learner(revealed, alpha)
    assert model.chosen_rank == truthful_model.chosen_rank + 1 == 5

    outcome = recommend(model.truncated, seed=0)
    report = social_welfare(R, outcome, R_tilde=revealed)

    picky = set(range(400, 404))
    for u in range(R.rows):
        item = outcome.chosen[u, 0]
        if u in p.majority_users or u in picky:
            assert R.entries[u, item] == R.entries[u].max()
        else:
            assert item <= 4  # stays within the first n_bar+1 columns
        # Pareto: nobody loses welfare, picky users strictly gain
        assert report.per_user_welfare[u] >= truthful.per_user_welfare[u]
    for u in picky:
        assert report.per_user_welfare[u] > truthful.per_user_welfare[u]

    assert truthful.social_welfare == 400.0
    assert report.social_welfare == 404.0
    covered = sorted(set(p.majority_users.tolist()) | picky)
    assert report.social_welfare == float(R.entries[covered].max(axis=1).sum())


def test_engagement_identity_on_collective_runs(multi_scene, multi_strategy):
    R, p = multi_scene
    revealed = apply_uprating(R, p, multi_strategy)
    gain = utility_en(revealed) - utility_en(R)
    assert gain == pytest.approx(MULTI_ETA * 100, abs=1e-9)


@given(st.floats(min_value=0.1, max_value=0.99))
@settings(max_examples=20, deadline=None)
def test_engagement_identity_for_any_eta(multi_scene, eta):
    R, p = multi_scene
    coll = frozenset(range(100))
    s = CollectiveStrategy(target_item=4, collective=coll, eta=eta)
    revealed = apply_uprating(R, p, s)
    gain = utility_en(revealed) - utility_en(R)
    assert gain == pytest.approx(eta * len(coll), abs=1e-9)


def test_top_k_collective_keeps_true_top_sets(multi_scene, multi_strategy):
    # eta < kappa(1) = 1, so the k = 1 inclusion regime applies after uprating
    R, p = multi_scene
    revealed = apply_uprating(R, p, multi_strategy)
    outcome = recommend(fit_learner(revealed, 2.1).truncated, k_items=1, seed=2)
    picky = set(range(400, 404))
    for u in sorted(set(p.majority_users.tolist()) | picky):
        assert R.entries[u, outcome.chosen[u, 0]] == R.entries[u].max()


# ---------------------------------------------------------------------------
# Independent scipy oracle
# ---------------------------------------------------------------------------

def test_scipy_oracle_reproduces_the_block_model_welfare(multi_scene):
    """The oracle's from-scratch argmax-plus-popularity simulation agrees with
    the welfare constants frozen above and with ``recommend``'s picks."""
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "derive_expected_values.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "truthful: k* = 4  SW = 400.0  minority picks: [0, 0, 0, 0, 0]" in lines
    assert "collective: k* = 5  SW = 404.0  delta = 4.0" in lines

    R, p = multi_scene
    model = fit_learner(R, 2.1)
    outcome = recommend(model.truncated, derandomize=True)
    assert model.chosen_rank == 4
    assert social_welfare(R, outcome).social_welfare == 400.0
    assert outcome.chosen[sorted(p.minority_users), 0].tolist() == [0, 0, 0, 0, 0]


def _huge_block_scene(picky: float, popular: float):
    """Four majority users rating items 0/1 at ``popular`` and a picky user on item 2."""
    a = np.zeros((5, 3))
    a[[0, 1], 0] = a[[2, 3], 1] = popular
    a[4, 2] = picky
    return RatingsMatrix(a), block_partition(4, 2, 5, 3)


@pytest.mark.parametrize(
    "picky, popular, name", [(1.0, 1e200, "sigma_kmaj"), (1e200, 1.0, "picky_col_sq")]
)
def test_sufficient_gap_names_a_square_that_overflows(picky, popular, name):
    R, p = _huge_block_scene(picky, popular)
    strategy = CollectiveStrategy(target_item=2, collective=frozenset({0, 2}), eta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} is too large: "):
            sufficient_gap(R, p, strategy)


@pytest.mark.parametrize(
    "change, name",
    [({"sigma_kmaj": 1e200}, "sigma_kmaj"), ({"av": 1e200}, "av")],
)
def test_find_eta_names_a_square_that_overflows(change, name):
    with pytest.raises(ValueError, match=f"^{name} is too large: "):
        find_eta(FinderInputs(**{**MULTI_Z, **change}))


def test_conditions_name_a_square_that_overflows():
    z = FinderInputs(**{**MULTI_Z, "sigma_kmaj": 1e200})
    with pytest.raises(ValueError, match="^sigma_kmaj is too large: "):
        grid_feasible_eta(z, steps=10)
    with pytest.raises(ValueError, match="^sigma_kmaj is too large: "):
        check_sufficient_conditions(z, 0.0, 0.5)
    with pytest.raises(ValueError, match="^sigma_kmaj is too large: "):
        margin_numerator(z, 0.5)
    z = FinderInputs(**MULTI_Z)
    with pytest.raises(ValueError, match="^eta is too large: "):
        check_sufficient_conditions(z, 0.0, 1e200)
    with pytest.raises(ValueError, match="^eta is too large: "):
        margin_numerator(z, 1e200)


def python_float_grid_eta(z: FinderInputs, sigma1_min: float, steps: int) -> float | None:
    """The three conditions at each grid point in Python floats, where a
    product that overflows is inf (eta * eta, not eta ** 2, which raises)."""
    for j in range(1, steps):
        eta = z.kappa * j / steps
        radicand = (
            min(z.sigma_kmaj * z.sigma_kmaj, eta * eta * z.coll_size + z.picky_col_sq)
            - eta * math.sqrt(z.n_bar) * z.av
        )
        if 0.0 < eta < z.kappa and z.alpha * z.alpha < radicand and z.alpha > sigma1_min:
            return eta
    return None


@pytest.mark.parametrize(
    "kappa, av, expected",
    [(1e300, 25.0, None), (1e300, 1e-300, 1e299), (1e308, 0.0, 1e307), (1e308, 25.0, None)],
)
def test_grid_oracle_saturates_past_the_square_of_a_float(kappa, av, expected):
    z = FinderInputs(**{**MULTI_Z, "sigma_kmaj": 10.0, "alpha": 2.1, "kappa": kappa, "av": av})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_feasible_eta(z, 0.0, steps=10)
    assert got == expected
    assert got == python_float_grid_eta(z, 0.0, 10)


@pytest.mark.parametrize("norm", ["l1_norm", "l2_norm"])
def test_robustness_margin_names_a_power_that_overflows(norm):
    z = FinderInputs(**MULTI_Z)
    norms = {"l1_norm": 400.0, "l2_norm": 10.0, norm: 1e200}
    with pytest.raises(ValueError, match=f"^{norm} is too large: "):
        robustness_margin(z, find_eta(z), n=6, **norms)
    # Only the fourth power of this eta overflows.
    with pytest.raises(ValueError, match="^eta is too large: .* to the power 4 "):
        lipschitz_bound(400.0, 10.0, 6, 1e100)
