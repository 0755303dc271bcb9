"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test prints a single [A#] PASS line on success; failures carry the usual
pytest detail.  Runtime checks use wall-clock budgets generous enough for CI
noise but tight enough to catch algorithmic regressions.
"""

import math
import time

import numpy as np
import pytest

from test_completion import random_feasible_instance

from rankgap import fixtures
from rankgap.collective import (
    CollectiveStrategy,
    FinderInputs,
    aggregate_value,
    apply_uprating,
    check_sufficient_conditions,
    find_eta,
    grid_feasible_eta,
    robustness_margin,
)
from rankgap.completion import (
    miss_probability_mc,
    reduce_solution,
    sparsest_majority_completion,
)
from rankgap.generators import (
    gap_class_instance,
    general_strategy_instance,
    random_block_scenario,
    random_finder_inputs,
    stratified_collective,
)
from rankgap.learner import fit_learner, kappa_k, recommend, social_welfare
from rankgap.matrix import numeric_rank_of, singular_values_of
from rankgap.popgap import top_items

SWEEP_SEED = 20260816
MC_SEED = 7

MULTIGROUP_INPUTS = FinderInputs(
    sigma_kmaj=10.0,
    alpha=2.1,
    n_bar=4,
    picky_col_sq=4.0,
    av=25.0,
    kappa=1.0,
    coll_size=100,
)


def _truthful_run(matrix, alpha):
    model = fit_learner(matrix, alpha)
    outcome = recommend(model.truncated, derandomize=True)
    return model, outcome, social_welfare(matrix, outcome)


def _assert_truthful_guarantees(matrix, partition, alpha):
    _, outcome, welfare = _truthful_run(matrix, alpha)
    entries = matrix.entries
    popular = sorted(partition.majority_items)
    for u in sorted(partition.majority_users):
        item = outcome.chosen[u, 0]
        assert entries[u, item] == entries[u].max()
    for u in sorted(partition.minority_users):
        item = outcome.chosen[u, 0]
        assert item in partition.majority_items
        assert entries[u, item] == 0.0
    majority_max = sum(
        float(entries[u].max()) for u in sorted(partition.majority_users)
    )
    assert welfare.social_welfare == pytest.approx(majority_max, abs=1e-9)
    assert popular  # partition sanity
    return welfare.social_welfare


def test_a01_truthful_baseline_guarantees(paired_scene, multi_scene):
    start = time.perf_counter()
    sw_paired = _assert_truthful_guarantees(*paired_scene, alpha=1.5)
    sw_multi = _assert_truthful_guarantees(*multi_scene, alpha=2.1)
    elapsed = time.perf_counter() - start
    assert sw_paired == 8.0
    assert sw_multi == 400.0
    assert elapsed < 1.0
    print("\n[A1] truthful baseline on both bundled scenarios: PASS")


def test_a02_uprating_finder_closed_form():
    eta = find_eta(MULTIGROUP_INPUTS)
    # discriminant: n_bar * av^2 + 4 * coll * (alpha^2 - picky_col_sq)
    disc = 4 * 25.0**2 + 4 * 100 * (2.1**2 - 4.0)
    assert disc == pytest.approx(2664.0)
    hand_midpoint = ((math.sqrt(4) * 25.0 + math.sqrt(disc)) / 200.0 + 1.0) / 2.0
    assert eta == pytest.approx(hand_midpoint, abs=1e-6)
    assert eta == pytest.approx(0.754034879, abs=1e-6)

    infeasible = FinderInputs(
        sigma_kmaj=10.0,
        alpha=8.0,
        n_bar=4,
        picky_col_sq=4.0,
        av=25.0,
        kappa=1.0,
        coll_size=100,
    )
    assert find_eta(infeasible) == 0.0
    print("\n[A2] closed-form uprating finder vs hand arithmetic: PASS")


def test_a03_collective_run_end_to_end(multi_scene):
    start = time.perf_counter()
    R, partition = multi_scene
    alpha = 2.1
    collective = stratified_collective(R, partition, 0.25)
    assert aggregate_value(R, collective, partition) == 25.0
    eta = find_eta(MULTIGROUP_INPUTS)
    strategy = CollectiveStrategy(target_item=4, collective=collective, eta=eta)
    revealed = apply_uprating(R, partition, strategy)

    before_model, before_outcome, before = _truthful_run(R, alpha)
    after_model = fit_learner(revealed, alpha)
    after_outcome = recommend(after_model.truncated, derandomize=True)
    after = social_welfare(R, after_outcome, R_tilde=revealed)

    assert before_model.chosen_rank == 4
    assert after_model.chosen_rank == 5

    picky_users = set(range(400, 404))
    for u in sorted(set(partition.majority_users.tolist()) | picky_users):
        item = after_outcome.chosen[u, 0]
        assert R.entries[u, item] == R.entries[u].max()

    assert after.social_welfare - before.social_welfare == 4.0
    pareto = all(
        after.per_user_welfare[u] >= before.per_user_welfare[u] - 1e-12
        for u in range(R.rows)
    )
    assert pareto
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print("\n[A3] collective uprating end to end, Pareto over 405 users: PASS")


def test_a04_finder_agrees_with_grid_search():
    start = time.perf_counter()
    rng = np.random.default_rng(SWEEP_SEED)
    nonzero = zero = 0
    for _ in range(200):
        z = random_finder_inputs(rng)
        eta = find_eta(z)
        if eta > 0.0:
            assert check_sufficient_conditions(z, 0.0, eta).verdict is True
            nonzero += 1
        else:
            assert grid_feasible_eta(z, sigma1_min=0.0, steps=10_000) is None
            zero += 1
    assert nonzero + zero == 200
    assert nonzero > 0 and zero > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\n[A4] finder/grid agreement on 200 draws "
        f"({nonzero} feasible, {zero} infeasible): PASS"
    )


def test_a05_robustness_margin_and_perturbations():
    eta = find_eta(MULTIGROUP_INPUTS)
    margin = robustness_margin(MULTIGROUP_INPUTS, eta, l1_norm=100.0, l2_norm=10.0, n=6)

    # hand arithmetic: numerator is the gap-condition slack at the estimate,
    # denominator the Lipschitz bound of that slack in the parameter vector
    f_hand = (100.0 * eta**2 + 4.0) - 50.0 * eta - 2.1**2
    lip_hand = math.sqrt(
        4 * 10.0**2 + eta * 100.0**2 / 4 + eta**2 * 6 + max(4 * 10.0**2, 1 + eta**4)
    )
    assert margin == pytest.approx(f_hand / lip_hand, abs=1e-12)
    assert margin == pytest.approx(0.3614, abs=1e-3)

    # the ceiling eta < kappa is untouched: kappa is not an estimated entry
    assert eta < MULTIGROUP_INPUTS.kappa

    z = np.array(MULTIGROUP_INPUTS.as_vector())
    rng = np.random.default_rng(SWEEP_SEED)
    kept = 0
    for _ in range(100):
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        radius = margin * (1.0 - 1e-9) * rng.uniform(0.0, 1.0)
        sigma, alpha, n_bar, s, av, size = z + radius * direction
        slack = (
            min(sigma**2, eta**2 * size + s) - eta * math.sqrt(n_bar) * av - alpha**2
        )
        if slack > 0.0:
            kept += 1
    assert kept == 100
    print("\n[A5] robustness margin, 100/100 in-budget perturbations: PASS")


def test_a06_engagement_utility_identity(multi_scene):
    R, partition = multi_scene
    collective = stratified_collective(R, partition, 0.25)
    outcome = recommend(fit_learner(R, 2.1).truncated, derandomize=True)
    base = social_welfare(R, outcome, R_tilde=R).u_en
    for eta in (0.3, find_eta(MULTIGROUP_INPUTS), 0.9):
        strategy = CollectiveStrategy(target_item=4, collective=collective, eta=eta)
        revealed = apply_uprating(R, partition, strategy)
        lifted = social_welfare(R, outcome, R_tilde=revealed).u_en
        assert lifted - base == pytest.approx(eta * len(collective), abs=1e-9)
    print("\n[A6] engagement utility identity at machine precision: PASS")


def test_a07_rank_selection_inside_gaps():
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(100):
        sc = random_block_scenario(rng)
        assert fit_learner(sc.matrix, sc.alpha).chosen_rank == sc.k_maj
    for _ in range(50):
        inst = gap_class_instance(rng)
        assert fit_learner(inst.matrix, inst.alpha).chosen_rank == inst.n_bar
    print("\n[A7] rank selection across 150 randomized gap instances: PASS")


def test_a08_completion_oracle():
    start = time.perf_counter()
    true4 = fixtures.mc_4x4_true()
    completed4 = fixtures.mc_4x4_completed()
    observed6, split6 = fixtures.mc_6x6_observed()
    zero_fill = sparsest_majority_completion(observed6, split6)
    assert numeric_rank_of(true4.entries) == 2
    assert numeric_rank_of(completed4.entries) == 2
    assert numeric_rank_of(zero_fill.entries) == 2

    rng = np.random.default_rng(MC_SEED)
    for _ in range(500):
        _, p, _, _, X = random_feasible_instance(rng)
        reduced = reduce_solution(X, p)
        assert numeric_rank_of(reduced.entries) <= numeric_rank_of(X.entries)

    matrix, split = fixtures.mc_10x10()
    estimate = miss_probability_mc(matrix, split, 3, 100_000, MC_SEED)
    exact = 0.49
    sigma = math.sqrt(exact * (1 - exact) / 100_000)
    assert estimate == 0.49283
    assert abs(estimate - exact) <= 3 * sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print("\n[A8] completion fixtures, 500 reductions, Monte Carlo within 3 sigma: PASS")


def test_a09_popularity_class_property_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(50):
        inst = gap_class_instance(rng)
        split = inst.split
        R, n_bar = split.matrix, split.n_bar

        bounds = split.singular_bounds
        assert bounds.lower_ok and bounds.upper_ok

        distance = split.projection_gap
        assert distance <= split.delta_gap / (2 * math.sqrt(R.cols))

        outcome = recommend(fit_learner(R, inst.alpha).truncated, derandomize=True)
        classes = split.classes
        popular = set(range(n_bar))
        for u in range(R.rows):
            tie = set(np.flatnonzero(outcome.tie[u]).tolist())
            if u in classes.majority:
                assert tie <= set(top_items(R.entries[u])) & popular
            else:
                assert tie <= popular

    ratios = []
    for _ in range(10):
        inst = general_strategy_instance(rng)
        revealed = inst.strategy.apply(inst.split)
        before = fit_learner(inst.matrix, inst.alpha)
        after = fit_learner(revealed, inst.alpha)
        assert after.chosen_rank == inst.n_bar + 1
        sw_before = social_welfare(
            inst.matrix, recommend(before.truncated, derandomize=True), R_tilde=inst.matrix
        ).social_welfare
        sw_after = social_welfare(
            inst.matrix, recommend(after.truncated, derandomize=True), R_tilde=revealed
        ).social_welfare
        ratios.append(sw_after / sw_before)
    assert all(r > 1.0 for r in ratios)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\n[A9] 50 in-class property sweeps and 10 certified strategies "
        f"(min ratio {min(ratios):.6f}): PASS"
    )


def test_a10_top_k_inclusions(multi_scene):
    start = time.perf_counter()
    R, partition = multi_scene
    entries = R.entries
    majority_items = set(partition.majority_items.tolist())

    # order-statistic ceilings: only k = 1 leaves room for a positive uprating
    assert kappa_k(R, partition, 1) == 1.0
    for k in (2, 3, 4):
        assert kappa_k(R, partition, k) == 0.0

    model = fit_learner(R, 2.1)
    for k in (1, 2, 3, 4):
        outcome = recommend(model.truncated, k_items=k, derandomize=True)
        for u in sorted(partition.majority_users):
            chosen = set(outcome.chosen[u].tolist())
            best = int(np.argmax(entries[u]))
            assert best in chosen
            attained = sum(float(entries[u, i]) for i in chosen)
            ceiling = float(np.sort(entries[u])[-k:].sum())
            assert attained == pytest.approx(ceiling, abs=1e-9)
        for u in sorted(partition.minority_users):
            assert set(outcome.chosen[u].tolist()) <= majority_items

    # k = 1 under an uprating below kappa(1): the collective guarantee applies
    eta = find_eta(MULTIGROUP_INPUTS)
    assert 0.0 < eta < kappa_k(R, partition, 1)
    collective = stratified_collective(R, partition, 0.25)
    strategy = CollectiveStrategy(target_item=4, collective=collective, eta=eta)
    revealed = apply_uprating(R, partition, strategy)
    outcome = recommend(fit_learner(revealed, 2.1).truncated, k_items=1, derandomize=True)
    for u in sorted(set(partition.majority_users.tolist()) | set(range(400, 404))):
        item = outcome.chosen[u, 0]
        assert entries[u, item] == entries[u].max()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("\n[A10] top-k inclusions for k in 1..4, collective case at k=1: PASS")
