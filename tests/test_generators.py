"""Scenario builders: shapes, determinism, and the self-checks they promise."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap.collective import find_eta
from rankgap.completion import (
    PartialMatrix,
    miss_probability_mc,
    observed_minority_block_zero,
    reduce_solution,
    sparsest_majority_completion,
)
from rankgap.generators import (
    gap_class_instance,
    general_strategy_instance,
    indicator_scenario,
    paired_indicator,
    random_block_scenario,
    random_finder_inputs,
    stratified_collective,
)
from rankgap.learner import kappa_k
from rankgap.matrix import (
    _FOLD_MAX_COLS,
    GroupPartition,
    OpenInterval,
    PartitionError,
    RatingsMatrix,
    find_picky_items,
    numeric_rank_of,
    singular_value_gap,
    singular_values_of,
)

SWEEP_SEED = 20260816
PARTITION_FIELDS = ("majority_users", "minority_users", "majority_items", "minority_items")


# ---------------------------------------------------------------------------
# Indicator builders
# ---------------------------------------------------------------------------

def test_indicator_scenario_layout():
    R, p = indicator_scenario((3, 2), (1,))
    assert R.shape == (6, 3)
    assert set(p.majority_users.tolist()) == frozenset(range(5))
    assert set(p.minority_users.tolist()) == {5}
    assert set(p.majority_items.tolist()) == {0, 1}
    assert np.array_equal(R.entries.sum(axis=0), [3.0, 2.0, 1.0])
    assert np.all(R.entries.sum(axis=1) == 1.0)


def test_indicator_scenario_rejects_degenerate_groups():
    with pytest.raises(ValueError, match="popular and one niche"):
        indicator_scenario((), (1,))
    with pytest.raises(ValueError, match="popular and one niche"):
        indicator_scenario((2,), ())
    with pytest.raises(ValueError, match="positive"):
        indicator_scenario((2, 0), (1,))


def test_paired_indicator_spectrum():
    R, p = paired_indicator(2, 1)
    assert R.shape == (6, 4)
    assert np.allclose(
        singular_values_of(R.entries), [np.sqrt(2), np.sqrt(2), 1.0, 1.0]
    )
    assert p.m_bar == 4 and p.n_bar == 2


def test_multigroup_example_layout():
    R, p = indicator_scenario((100, 100, 100, 100), (4, 1))
    assert R.shape == (405, 6)
    assert p.m_bar == 400 and p.n_bar == 4
    assert np.array_equal(R.entries.sum(axis=0), [100.0] * 4 + [4.0, 1.0])


# ---------------------------------------------------------------------------
# Stratified collectives
# ---------------------------------------------------------------------------

def test_stratified_collective_takes_group_prefixes():
    R, p = indicator_scenario((100, 100, 100, 100), (4, 1))
    coll = stratified_collective(R, p, 0.25)
    expected = set()
    for block in range(4):
        expected.update(range(block * 100, block * 100 + 25))
    assert coll.tolist() == sorted(expected)


def test_stratified_collective_rounds_up():
    R, p = paired_indicator(3, 1)
    assert sorted(stratified_collective(R, p, 0.5)) == [0, 1, 3, 4]
    assert stratified_collective(R, p, 1.0).tolist() == sorted(p.majority_users)


def test_stratified_collective_validates_fraction():
    R, p = paired_indicator(2, 1)
    with pytest.raises(ValueError, match="fraction"):
        stratified_collective(R, p, 0.0)
    with pytest.raises(ValueError, match="fraction"):
        stratified_collective(R, p, 1.5)


def test_stratified_collective_rejects_tied_tops():
    from rankgap.matrix import block_partition

    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    R = RatingsMatrix(a)
    p = block_partition(2, 2, 3, 3)
    with pytest.raises(ValueError, match="tied top"):
        stratified_collective(R, p, 0.5)


def reference_stratified_collective(matrix, partition, fraction):
    """The per-user loop stratified_collective replaced."""
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    groups: dict[int, list[int]] = {}
    for u in sorted(partition.majority_users):
        row = matrix.entries[u]
        tops = np.flatnonzero(row == row.max())
        if tops.size != 1:
            raise ValueError(f"user {u} has tied top items; stratification ambiguous")
        groups.setdefault(int(tops[0]), []).append(u)
    chosen: set[int] = set()
    for item in sorted(groups):
        users = groups[item]
        chosen.update(users[: math.ceil(fraction * len(users))])
    return frozenset(chosen)


def reference_collective_list(matrix, partition, fraction):
    """reference_stratified_collective as a sorted list; choosing no user is
    no collective."""
    chosen = reference_stratified_collective(matrix, partition, fraction)
    if not chosen:
        raise ValueError("collective must be nonempty")
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Partition index arrays against the set-based code they replaced
# ---------------------------------------------------------------------------

def _set_view(p):
    """p's groups as the sets the reference code below was written for."""
    return SimpleNamespace(**{name: set(getattr(p, name).tolist()) for name in PARTITION_FIELDS})


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.5, 1.0]))
@settings(max_examples=100, deadline=None)
def test_tall_stratified_collective_matches_the_per_user_loop(seed, fraction):
    # Majority blocks from one row to five times the rows the row maximum's
    # fold needs, widths on both sides of its size rule; zeros of either
    # sign, and on half the draws one raised top per row.
    rng = np.random.default_rng(seed)
    n_bar = int(rng.integers(1, _FOLD_MAX_COLS))
    m_bar = int(rng.integers(1, 80 * (n_bar + 1)))
    a = np.zeros((m_bar + 1, n_bar + 1))
    a[:m_bar, :n_bar] = rng.choice([0.0, -0.0, 0.25, 0.5], size=(m_bar, n_bar))
    if rng.random() < 0.5:
        a[np.arange(m_bar), rng.integers(0, n_bar, m_bar)] = 1.0
    a[m_bar, n_bar] = 1.0
    R = RatingsMatrix(a)
    p = GroupPartition(np.arange(m_bar), [m_bar], np.arange(n_bar), [n_bar])
    assert _outcome(lambda: stratified_collective(R, p, fraction).tolist()) == _outcome(
        reference_collective_list, R, _set_view(p), fraction
    )


def _ref_block(a, users, items):
    return a[np.ix_(sorted(users), sorted(items))]


def _ref_validate(p, R):
    m, n = R.shape
    if p.majority_users | p.minority_users != frozenset(range(m)):
        raise PartitionError(f"user sets do not partition range({m})")
    if p.majority_items | p.minority_items != frozenset(range(n)):
        raise PartitionError(f"item sets do not partition range({n})")
    a = R.entries
    mu, nu = sorted(p.majority_users), sorted(p.minority_users)
    mi, ni = sorted(p.majority_items), sorted(p.minority_items)
    if mu and ni and np.any(a[np.ix_(mu, ni)] != 0.0):
        raise PartitionError("majority user rates a minority item")
    if nu and mi and np.any(a[np.ix_(nu, mi)] != 0.0):
        raise PartitionError("minority user rates a majority item")
    if np.any(a.max(axis=1, initial=0.0) <= 0.0):
        raise PartitionError("a user has no positive rating")


def _ref_gap(R, p):
    _ref_validate(p, R)
    maj = _ref_block(R.entries, p.majority_users, p.majority_items)
    s_maj = singular_values_of(maj)
    k_maj = numeric_rank_of(maj)
    if k_maj == 0:
        raise PartitionError("majority block has numeric rank 0")
    s_min = singular_values_of(_ref_block(R.entries, p.minority_users, p.minority_items))
    return OpenInterval(float(s_min[0]) if s_min.size else 0.0, float(s_maj[k_maj - 1]))


def _ref_picky(R, p):
    _ref_validate(p, R)
    a = R.entries
    out = []
    for i in sorted(p.minority_items):
        raters = np.flatnonzero(a[:, i] > 0.0)
        if raters.size == 0:
            continue
        rest = a[raters, :].copy()
        rest[:, i] = 0.0
        if np.any(rest != 0.0):
            continue
        out.append((i, frozenset(int(u) for u in raters)))
    return out


def _ref_kappa(R, p, k):
    maj = sorted(p.majority_users)
    if not maj:
        raise ValueError("no majority users")
    return float(np.sort(R.entries[maj], axis=1)[:, R.cols - k].min())


def _ref_observed_zero(pairs, R, p):
    for u, i in pairs:
        if u in p.minority_users and i in p.minority_items and R.entries[u, i] != 0.0:
            return False
    return True


def _ref_sparsest(partial, p):
    m, n = partial.values.shape
    maj_u, min_u = sorted(p.majority_users), sorted(p.minority_users)
    maj_i, min_i = sorted(p.majority_items), sorted(p.minority_items)
    if set(maj_u) | set(min_u) != set(range(m)) or set(maj_i) | set(min_i) != set(range(n)):
        raise ValueError("partition does not cover the grid")
    mask, vals = partial.mask, partial.values
    for rows, cols, what in (
        (min_u, min_i, "minority-block"),
        (maj_u, min_i, "majority-user/minority-item"),
        (min_u, maj_i, "minority-user/majority-item"),
    ):
        if rows and cols and np.any(mask[np.ix_(rows, cols)] & (vals[np.ix_(rows, cols)] != 0.0)):
            raise ValueError(f"observed nonzero {what} entry; zero-padding is infeasible")
    X = np.where(mask, vals, 0.0)
    out = RatingsMatrix(X, nonnegative=bool(np.all(X >= 0)))
    block = X[np.ix_(maj_u, maj_i)] if maj_u and maj_i else np.zeros((0, 0))
    if numeric_rank_of(X) != numeric_rank_of(block):
        raise AssertionError("completion rank differs from its majority block rank")
    return out


def _ref_reduce(X, p):
    out = X.entries.copy()
    if p.minority_items:
        out[:, sorted(p.minority_items)] = 0.0
    if p.minority_users:
        out[sorted(p.minority_users), :] = 0.0
    return RatingsMatrix(out, nonnegative=bool(np.all(out >= 0)))


def _ref_miss_probability(R, p, per_user, trials, seed):
    n = R.cols
    hot = [
        (u, i)
        for u in sorted(p.minority_users)
        for i in sorted(p.minority_items)
        if R.entries[u, i] != 0.0
    ]
    if not hot:
        return 1.0
    row_of = {u: r for r, u in enumerate(sorted({u for u, _ in hot}))}
    rng = np.random.default_rng(seed)
    ok = np.ones(trials, dtype=bool)
    keys = rng.random((trials, len(row_of), n))
    for u, i in hot:
        r = row_of[u]
        ok &= (keys[:, r, :] < keys[:, r, i : i + 1]).sum(axis=1) >= per_user
    return float(ok.mean())


def _outcome(fn, *args):
    """A comparable result: values as exact reprs, matrices as bytes, errors as text."""
    try:
        value = fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple) and isinstance(value[0], RatingsMatrix):
        return _outcome(lambda: value[0]), value[1:]
    if isinstance(value, RatingsMatrix):
        return value.entries.shape, value.entries.tobytes(), value.nonnegative
    if isinstance(value, OpenInterval):
        return repr((value.lower, value.upper))
    return repr(value)


@st.composite
def shuffled_partitions(draw):
    """A matrix with a non-contiguous block split: shuffled user and item
    sets, either minority set possibly empty, random positive, indicator or
    tie-heavy grid blocks, and now and then a zero row or a cross-block entry.
    The observed set is a random mask over the whole grid."""
    m, n = draw(st.integers(2, 9)), draw(st.integers(2, 7))
    m_bar, n_bar = draw(st.integers(1, m)), draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users, items = rng.permutation(m), rng.permutation(n)
    mu, nu, mi, ni = users[:m_bar], users[m_bar:], items[:n_bar], items[n_bar:]
    kind = draw(st.sampled_from(["positive", "indicator", "grid"]))
    a = np.zeros((m, n))
    for rows, cols in ((mu, mi), (nu, ni)):
        if rows.size and cols.size:
            if kind == "positive":
                block = rng.uniform(0.1, 2.0, size=(rows.size, cols.size))
            elif kind == "indicator":
                block = np.zeros((rows.size, cols.size))
                block[np.arange(rows.size), rng.integers(0, cols.size, rows.size)] = 1.0
            else:
                block = rng.choice([0.0, 0.5, 1.0], size=(rows.size, cols.size))
            a[np.ix_(rows, cols)] = block
    flaw = draw(st.sampled_from([None, None, None, "zero row", "cross", "cross"]))
    if flaw == "zero row":
        a[rng.integers(m)] = 0.0
    elif flaw == "cross":
        rows, cols = ((mu, ni), (nu, mi))[int(rng.integers(2))]
        if rows.size and cols.size:
            a[rows[-1], cols[0]] = 0.5
    p = GroupPartition(*(frozenset(x.tolist()) for x in (mu, nu, mi, ni)))
    observed = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    return RatingsMatrix(a), p, observed, int(rng.integers(2**31))


@given(shuffled_partitions())
@settings(max_examples=300, deadline=None)
def test_partition_arrays_match_the_set_based_code(case):
    R, p, omega, seed = case
    ref = _set_view(p)
    a = R.entries
    for got, users, items in (
        (p.majority_block(a), ref.majority_users, ref.majority_items),
        (p.minority_block(a), ref.minority_users, ref.minority_items),
    ):
        expected = _ref_block(a, users, items)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    for name in PARTITION_FIELDS:
        index = getattr(p, name)
        assert index.dtype == np.intp and index.tolist() == sorted(getattr(ref, name))
        assert not index.flags.writeable
    assert _outcome(p.validate_for, R) == _outcome(_ref_validate, ref, R)
    assert _outcome(singular_value_gap, R, p) == _outcome(_ref_gap, R, ref)
    # Each rater array as its values, dtype and read-only flag.
    assert _outcome(
        lambda: [
            (i, raters.tolist(), raters.dtype == np.intp, raters.flags.writeable)
            for i, raters in find_picky_items(R, p)
        ]
    ) == _outcome(lambda: [(i, sorted(raters), True, False) for i, raters in _ref_picky(R, ref)])
    for k in range(1, R.cols + 1):
        assert _outcome(kappa_k, R, p, k) == _outcome(_ref_kappa, R, ref, k)
    for fraction in (0.2, 0.5, 1.0):
        assert _outcome(lambda: stratified_collective(R, p, fraction).tolist()) == _outcome(
            reference_collective_list, R, ref, fraction
        )
    pairs = frozenset(zip(*(x.tolist() for x in np.nonzero(omega))))
    assert observed_minority_block_zero(omega, R, p) == _ref_observed_zero(pairs, R, ref)
    partial = PartialMatrix.from_full(R, omega)
    assert _outcome(sparsest_majority_completion, partial, p) == _outcome(
        _ref_sparsest, partial, ref
    )
    assert _outcome(reduce_solution, R, p) == _outcome(_ref_reduce, R, ref)
    for per_user in (1, 2):
        assert miss_probability_mc(R, p, per_user, 40, seed) == _ref_miss_probability(
            R, ref, per_user, 40, seed
        )


# ---------------------------------------------------------------------------
# Random block scenarios
# ---------------------------------------------------------------------------

def test_block_scenario_sweep_honors_its_contract():
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(100):
        sc = random_block_scenario(rng)
        sc.partition.validate_for(sc.matrix)
        window = singular_value_gap(sc.matrix, sc.partition)
        assert window.lower < sc.alpha < window.upper
        assert sc.k_maj == sc.partition.n_bar
        maj = sc.matrix.entries[: sc.partition.m_bar, : sc.partition.n_bar]
        mino = sc.matrix.entries[sc.partition.m_bar :, sc.partition.n_bar :]
        # minority spectrum pinned at half the smallest kept majority value
        assert singular_values_of(mino)[0] == pytest.approx(
            0.5 * singular_values_of(maj)[sc.k_maj - 1], abs=1e-9
        )


def test_block_scenario_is_seed_deterministic():
    first = random_block_scenario(np.random.default_rng(123))
    second = random_block_scenario(np.random.default_rng(123))
    assert np.array_equal(first.matrix.entries, second.matrix.entries)
    assert first.alpha == second.alpha
    for name in PARTITION_FIELDS:
        assert np.array_equal(getattr(first.partition, name), getattr(second.partition, name))


# ---------------------------------------------------------------------------
# Gap-class instances
# ---------------------------------------------------------------------------

def test_gap_class_sweep_stays_in_class():
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(50):
        inst = gap_class_instance(rng)
        split = inst.split
        assert split.membership.in_class and split.classes_exclusive and split.has_minority
        window = split.window
        assert window.lower < inst.alpha < window.upper


def test_gap_class_instance_is_seed_deterministic():
    first = gap_class_instance(np.random.default_rng(5))
    second = gap_class_instance(np.random.default_rng(5))
    assert np.array_equal(first.matrix.entries, second.matrix.entries)
    assert first.alpha == second.alpha and first.n_bar == second.n_bar


# ---------------------------------------------------------------------------
# Strategy instances
# ---------------------------------------------------------------------------

def test_strategy_instance_sweep_passes_all_checks():
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(10):
        inst = general_strategy_instance(rng)
        group = (inst.matrix.rows - 2) // 4
        assert len(inst.collective) == 4 * round(0.4 * group)
        assert inst.strategy.is_realistic(inst.split)
        column = inst.strategy.replacement_column
        truthful = inst.matrix.entries[:, inst.n_bar]
        changed = {int(u) for u in np.flatnonzero(column != truthful)}
        assert sorted(changed) == inst.collective.tolist()
        assert np.all(column[sorted(inst.collective)] == inst.uprating)
        assert inst.uprating == 0.75


def test_strategy_instance_is_seed_deterministic():
    first = general_strategy_instance(np.random.default_rng(9))
    second = general_strategy_instance(np.random.default_rng(9))
    assert np.array_equal(first.matrix.entries, second.matrix.entries)
    assert first.collective.tolist() == second.collective.tolist()
    assert first.alpha == second.alpha
    assert np.array_equal(
        first.strategy.replacement_column, second.strategy.replacement_column
    )


# ---------------------------------------------------------------------------
# Finder input draws
# ---------------------------------------------------------------------------

def test_finder_draws_are_valid_and_varied():
    rng = np.random.default_rng(SWEEP_SEED)
    nonzero = zero = 0
    for _ in range(200):
        z = random_finder_inputs(rng)
        assert z.alpha < z.sigma_kmaj
        eta = find_eta(z)
        assert eta >= 0.0
        if eta > 0.0:
            nonzero += 1
        else:
            zero += 1
    # both outcomes occur: some draws admit an uprating, some do not
    assert (nonzero, zero) == (85, 115)
