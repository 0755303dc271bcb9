"""Matrix core: construction, spectra, gaps, reordering, picky items, CSV."""

import ast
import csv
import math
import operator
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap.matrix import (
    CSV_HEADER,
    GroupPartition,
    OpenInterval,
    PartitionError,
    RatingsMatrix,
    block_partition,
    column_abs_sums,
    find_picky_items,
    invert_permutation,
    load_ratings_csv,
    matrix_l1_norm,
    numeric_rank_of,
    reorder_to_blocks,
    save_ratings_csv,
    singular_value_gap,
    singular_values_of,
    spectral,
    tie_tolerance,
)
from rankgap import matrix
from rankgap.cli import PRESETS, generate_scenario
from rankgap.completion import PartialMatrix
from rankgap.generators import general_strategy_instance
from rankgap.popgap import GeneralStrategy, PopularitySplit
from rankgap.matrix import _load_ratings_csv_lines, _parse_plain_csv

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# RatingsMatrix construction
# ---------------------------------------------------------------------------

def test_ratings_reject_negative_when_flagged_nonnegative():
    with pytest.raises(ValueError, match="negative"):
        RatingsMatrix(np.array([[1.0, -0.5]]))


def test_ratings_allow_negative_when_flag_cleared():
    R = RatingsMatrix(np.array([[1.0, -0.5]]), nonnegative=False)
    assert R.entries[0, 1] == -0.5


def test_ratings_reject_non_2d_and_non_finite():
    with pytest.raises(ValueError, match="2-D"):
        RatingsMatrix(np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        RatingsMatrix(np.array([[np.nan]]))
    with pytest.raises(ValueError, match="at least 1x1"):
        RatingsMatrix(np.zeros((0, 2)))


def test_ratings_entries_are_read_only():
    R = RatingsMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        R.entries[0, 0] = 2.0


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------

def test_spectral_of_diagonal_matrix():
    s = spectral(RatingsMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(s.singular_values, [3.0, 1.0], atol=0)
    assert s.numeric_rank == 2
    assert s.sigma(1) == 3.0 and s.sigma(2) == 1.0
    assert s.sigma(3) == 0.0
    with pytest.raises(ValueError):
        s.sigma(0)


def test_spectral_of_paired_indicator_blocks(paired_scene):
    R, _ = paired_scene
    s = spectral(R)
    assert np.allclose(s.singular_values, [2.0, 2.0, 1.0, 1.0], atol=1e-12)
    assert s.numeric_rank == 4


def test_spectral_matches_eigenvalue_route_on_random_matrix():
    rng = np.random.default_rng(42)
    a = rng.uniform(0.0, 1.0, size=(5, 5))
    s = spectral(RatingsMatrix(a)).singular_values
    w = np.linalg.eigvalsh(a.T @ a)
    s_alt = np.sqrt(np.clip(w, 0.0, None))[::-1]
    assert np.allclose(s, s_alt, atol=1e-9)


def test_spectral_reconstruction_holds_at_scale():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 100.0, size=(30, 12))
    s = spectral(RatingsMatrix(a))
    recon = (s.left * s.singular_values) @ s.right_t
    assert np.linalg.norm(recon - a) <= 1e-9 * np.linalg.norm(a)


def test_spectral_checks_huge_matrices_without_overflow():
    a = np.array([[1e200, 1e200, 0.0], [0.0, 3e200, 1.0], [1.7e308, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isclose(matrix._frobenius_norm(a[:2]), math.sqrt(11) * 1e200, rel_tol=1e-15)
        assert matrix._frobenius_norm(a) == 1.7e308
        assert matrix._frobenius_norm(np.full((2, 2), 1.7e308)) == math.inf
        summary = spectral(RatingsMatrix(a[:2]))
    assert summary.numeric_rank == 2
    b = np.arange(12.0).reshape(3, 4)
    assert matrix._frobenius_norm(b) == np.linalg.norm(b)


def test_numeric_rank_uses_relative_threshold():
    a = np.diag([1e6, 1.0, 1e-8])
    assert numeric_rank_of(a) == 2
    assert numeric_rank_of(np.zeros((3, 3))) == 0


# ---------------------------------------------------------------------------
# Singular value gap
# ---------------------------------------------------------------------------

def test_gap_of_paired_scene_is_one_two(paired_scene):
    R, p = paired_scene
    g = singular_value_gap(R, p)
    assert (g.lower, g.upper) == (1.0, 2.0)
    assert not g.is_empty
    assert g.contains(1.5)
    assert not g.contains(2.0)


def test_gap_empty_when_group_sizes_match():
    from rankgap.generators import paired_indicator

    R, p = paired_indicator(3, 3)
    assert singular_value_gap(R, p).is_empty


def test_gap_of_multigroup_scene_is_two_ten(multi_scene):
    R, p = multi_scene
    g = singular_value_gap(R, p)
    assert (g.lower, g.upper) == (2.0, 10.0)


def test_gap_rejects_invalid_partition(paired_scene):
    R, _ = paired_scene
    bad = block_partition(5, 2, R.rows, R.cols)
    with pytest.raises(PartitionError):
        singular_value_gap(R, bad)


def test_partition_rejects_cross_block_entries_and_zero_rows():
    a = np.array([[1.0, 0.1], [0.0, 1.0]])
    p = block_partition(1, 1, 2, 2)
    with pytest.raises(PartitionError, match="minority item"):
        p.validate_for(RatingsMatrix(a))
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(PartitionError, match="no positive rating"):
        p.validate_for(RatingsMatrix(b))
    # Every branch, on a non-contiguous split, with its exact message.
    R = RatingsMatrix(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
    split = dict(
        majority_users={0, 2}, minority_users={1}, majority_items={1, 2}, minority_items={0}
    )
    GroupPartition(**split).validate_for(R)
    cases = [
        ({"majority_users": {0, 2, 3}}, "user sets do not partition range(3)"),
        ({"majority_users": {0, 3}}, "user sets do not partition range(3)"),
        ({"minority_users": {1, 5}}, "user sets do not partition range(3)"),
        ({"majority_users": {2}}, "user sets do not partition range(3)"),
        ({"minority_items": {3}}, "item sets do not partition range(3)"),
        ({"majority_items": {1}}, "item sets do not partition range(3)"),
        (
            {"majority_users": {0, 1, 2}, "minority_users": set()},
            "majority user rates a minority item",
        ),
        (
            {"majority_users": {0}, "minority_users": {1, 2}},
            "minority user rates a majority item",
        ),
    ]
    for change, message in cases:
        with pytest.raises(PartitionError, match=f"^{re.escape(message)}$"):
            GroupPartition(**{**split, **change}).validate_for(R)
    zero_row = RatingsMatrix(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(PartitionError, match="^a user has no positive rating$"):
        GroupPartition(**split).validate_for(zero_row)


def reference_validate_for(p, R) -> None:
    """GroupPartition.validate_for as it was when it copied both float cross
    blocks through np.ix_."""
    m, n = R.shape
    if not matrix._covers(p.majority_users, p.minority_users, m):
        raise PartitionError(f"user sets do not partition range({m})")
    if not matrix._covers(p.majority_items, p.minority_items, n):
        raise PartitionError(f"item sets do not partition range({n})")
    a = R.entries
    if np.any(a[np.ix_(p.majority_users, p.minority_items)] != 0.0):
        raise PartitionError("majority user rates a minority item")
    if np.any(a[np.ix_(p.minority_users, p.majority_items)] != 0.0):
        raise PartitionError("minority user rates a majority item")
    if np.any(a.max(axis=1) <= 0.0):
        raise PartitionError("a user has no positive rating")


@st.composite
def planted_partitions(draw):
    """A matrix and a split of it whose cross blocks hold zeros of either
    sign, and on some draws a few planted nonzeros (5e-324 among them)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    minority_users = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    minority_items = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cells = st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, -1.0]), min_size=m * n, max_size=m * n)
    a = np.array(draw(cells)).reshape(m, n)
    zeros = st.sampled_from([0.0, -0.0])
    planted = st.one_of(zeros, zeros, zeros, st.sampled_from([1.0, -0.25, 5e-324]))
    fill = planted if draw(st.booleans()) else zeros
    cross = np.array(draw(st.lists(fill, min_size=m * n, max_size=m * n))).reshape(m, n)
    a = np.where(minority_users[:, None] != minority_items, cross, a)
    p = GroupPartition(
        majority_users=np.flatnonzero(~minority_users),
        minority_users=np.flatnonzero(minority_users),
        majority_items=np.flatnonzero(~minority_items),
        minority_items=np.flatnonzero(minority_items),
    )
    return RatingsMatrix(a, nonnegative=False), p


@given(planted_partitions())
@settings(max_examples=300, deadline=None)
def test_cross_block_checks_raise_as_the_ix_copies_did(case):
    R, p = case

    def outcome(check):
        try:
            check(p, R)
        except PartitionError as exc:
            return str(exc)
        return None

    assert outcome(GroupPartition.validate_for) == outcome(reference_validate_for)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4)])
def test_partition_finds_a_row_without_a_positive_rating_in_any_shape(shape):
    # Short rows are checked as a fold over the columns, wide ones by row.
    m, n = shape
    p = GroupPartition(frozenset(range(m)), frozenset(), frozenset(range(n)), frozenset())
    a = np.zeros(shape)
    a[np.arange(m), np.arange(m) % n] = 0.5
    p.validate_for(RatingsMatrix(a, nonnegative=False))
    for u in range(m):
        for row in (np.zeros(n), np.full(n, -1.0), np.where(np.arange(n) % 2, -0.0, -2.0)):
            b = a.copy()
            b[u] = row
            with pytest.raises(PartitionError, match="^a user has no positive rating$"):
                p.validate_for(RatingsMatrix(b, nonnegative=False))


def test_partition_rejects_overlaps_and_negatives():
    with pytest.raises(PartitionError, match="overlap"):
        GroupPartition(
            majority_users=frozenset({0}),
            minority_users=frozenset({0}),
            majority_items=frozenset({0}),
            minority_items=frozenset({1}),
        )
    with pytest.raises(PartitionError, match="negative"):
        GroupPartition(
            majority_users=frozenset({-1}),
            minority_users=frozenset({0}),
            majority_items=frozenset({0}),
            minority_items=frozenset({1}),
        )
    with pytest.raises(PartitionError, match="^negative index in minority_items$"):
        GroupPartition({0}, {1}, {0}, {2, -3, 1})


SMALL_PARTITION = {
    "majority_users": {0, 1},
    "minority_users": {2},
    "majority_items": {0},
    "minority_items": {1},
}


@pytest.mark.parametrize("field", sorted(SMALL_PARTITION))
@pytest.mark.parametrize(
    "bad", [{0.5, 1.9}, {True}, {np.bool_(False)}, {1.0}, {"3"}, {None}, {0, 2.2}]
)
def test_partition_rejects_non_integer_indices(field, bad):
    # int() would truncate these silently ({0.5, 1.9, True} -> {0, 1}).
    with pytest.raises(PartitionError, match=f"^{field} must hold integer indices, got "):
        GroupPartition(**{**SMALL_PARTITION, field: bad})


def test_partition_takes_numpy_integers_as_ints():
    p = GroupPartition(
        majority_users=np.arange(2),
        minority_users=[np.int32(2)],
        majority_items={np.uint8(0)},
        minority_items=frozenset({1}),
    )
    expected = GroupPartition(**SMALL_PARTITION)
    for name in SMALL_PARTITION:
        assert getattr(p, name).dtype == np.intp
        assert np.array_equal(getattr(p, name), getattr(expected, name))
        assert getattr(p, name).tolist() == sorted(SMALL_PARTITION[name])


@pytest.mark.parametrize("big", [2**70, -(2**70), 2**63])
def test_partition_rejects_indices_np_intp_cannot_hold(big):
    with pytest.raises(PartitionError, match=f"^majority_users index {big} is out of range$"):
        GroupPartition([0, big], [1], [0], [1])
    with pytest.raises(PartitionError, match=f"^minority_items index {big} is out of range$"):
        GroupPartition({0}, {1}, {0}, {1, big})
    if 0 < big < 2**64:
        with pytest.raises(PartitionError, match=f"^minority_users index {big} is out of range$"):
            GroupPartition([0], np.array([1, big], dtype=np.uint64), [0], [1])


def reference_index_set(values, name: str) -> frozenset:
    """The frozenset path GroupPartition took each group through before its
    groups were index arrays."""
    values = values if isinstance(values, frozenset) else frozenset(values)
    if set(map(type, values)) <= {int}:
        return values
    out = set()
    for value in values:
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            out.add(operator.index(value))
        except TypeError:
            raise PartitionError(f"{name} must hold integer indices, got {value!r}") from None
    return frozenset(out)


# Groups far above the drawn indices, so that any drawn group fits beside them.
FAR_PARTITION = {
    "majority_users": {100},
    "minority_users": {101},
    "majority_items": {100},
    "minority_items": {101},
}
INDEX_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def index_sources(draw):
    """A group as a caller may pass it: a set, a list with duplicates, a
    range, a tuple, a list of numpy integers or an integer array."""
    kind = draw(st.sampled_from(["set", "list", "range", "tuple", "scalars", "array"]))
    if kind == "range":
        start = draw(st.integers(0, 50))
        return range(start, draw(st.integers(start, 60)))
    values = draw(st.lists(st.integers(0, 60), max_size=10))
    if kind == "set":
        return set(values)
    if kind == "list":
        return values + draw(st.lists(st.sampled_from(values), max_size=5)) if values else []
    if kind == "tuple":
        return tuple(values)
    dtype = draw(st.sampled_from(INDEX_DTYPES))
    if kind == "scalars":
        return [dtype(v) for v in values]
    out = np.array(draw(st.permutations(values)), dtype=dtype)
    out.flags.writeable = draw(st.booleans())
    return out


@given(field=st.sampled_from(sorted(FAR_PARTITION)), source=index_sources())
@settings(max_examples=200, deadline=None)
def test_partition_groups_are_sorted_distinct_intp_arrays(field, source):
    writeable = getattr(source, "flags", None) and source.flags.writeable
    got = getattr(GroupPartition(**{**FAR_PARTITION, field: source}), field)
    assert got.dtype == np.intp and got.ndim == 1 and not got.flags.writeable
    assert got.tolist() == sorted(reference_index_set(source, field))
    if writeable:
        assert source.flags.writeable


@given(
    field=st.sampled_from(sorted(FAR_PARTITION)),
    values=st.lists(st.integers(0, 60), max_size=6),
    bad=st.sampled_from([True, False, np.bool_(True), 0.5, 2.0, np.float64(3.0), "3", None]),
    form=st.sampled_from([list, tuple, set]),
    at=st.integers(0, 6),
)
@settings(max_examples=200, deadline=None)
def test_partition_rejects_what_the_frozenset_path_rejected(field, values, bad, form, at):
    source = form([*values[:at], bad, *values[at:]])

    def outcome(build):
        try:
            return sorted(build())
        except PartitionError as exc:
            return str(exc)

    got = outcome(lambda: getattr(GroupPartition(**{**FAR_PARTITION, field: source}), field))
    expected = outcome(lambda: reference_index_set(source, field))
    if any(value is bad for value in source):
        # The frozenset path let a bad value equal to a good one (0 and
        # False, 2 and 2.0) vanish into it; every other one it rejected.
        assert got == f"{field} must hold integer indices, got {bad!r}"
        assert expected in (got, sorted(set(values)))
    else:
        assert got == expected


@pytest.mark.parametrize("field", sorted(FAR_PARTITION))
@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0, 1]]),
        np.array([0.0, 1.0]),
        np.array([True]),
        np.int64(3),
        5,
        [[0, 1]],
    ],
)
def test_partition_names_the_group_it_rejects(field, bad):
    with pytest.raises(PartitionError, match=f"^{field} "):
        GroupPartition(**{**FAR_PARTITION, field: bad})


def test_partition_keeps_an_array_already_in_its_form():
    first = block_partition(3, 1, 5, 2)
    again = GroupPartition(*(getattr(first, name) for name in FAR_PARTITION))
    for name in FAR_PARTITION:
        assert getattr(again, name) is getattr(first, name)
    # A writeable array is copied, and the caller's stays writeable.
    users = np.arange(3)
    p = GroupPartition(users, [3], [0], [1])
    assert p.majority_users is not users and users.flags.writeable


@pytest.mark.parametrize(
    "make",
    [
        lambda: RatingsMatrix(np.eye(2)),
        lambda: spectral(RatingsMatrix(np.eye(2))),
        lambda: GroupPartition(**SMALL_PARTITION),
        lambda: PartialMatrix(np.eye(2), np.eye(2, dtype=bool)),
        lambda: GeneralStrategy(np.array([0.5, 1.0])),
        lambda: general_strategy_instance(np.random.default_rng(9)),
        lambda: PopularitySplit(RatingsMatrix(np.eye(2)), 1).classes,
        lambda: generate_scenario(PRESETS["paired"]),
    ],
    ids=[
        "RatingsMatrix",
        "SpectralSummary",
        "GroupPartition",
        "PartialMatrix",
        "GeneralStrategy",
        "StrategyInstance",
        "UserClasses",
        "MaterializedScenario",
    ],
)
def test_array_holding_dataclasses_compare_by_identity(make):
    # With generated equality these raised: == on array fields has no truth
    # value, and hash() cannot hash an array.
    x, copy = make(), make()
    assert x == x and not x != x
    assert x != copy and not x == copy
    assert hash(x) == hash(x) and {x, copy} == {copy, x}


PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "rankgap"
PARTITION_NAMES = {"majority_users", "minority_users", "majority_items", "minority_items"}


def _is_partition_set(node) -> bool:
    """Whether node is one of GroupPartition's groups: directly, through a
    one-argument call such as set(...), or as the source of a comprehension."""
    while True:
        if isinstance(node, ast.Attribute):
            return node.attr in PARTITION_NAMES
        if isinstance(node, ast.Call) and len(node.args) == 1:
            node = node.args[0]
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            node = node.generators[0].iter
        else:
            return False


def partition_index_builders(source: str) -> list[int]:
    """Lines that sort a GroupPartition group, or build np.ix_ from one."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "sorted" and node.args and _is_partition_set(node.args[0]):
            lines.add(node.lineno)
        elif name == "ix_" and any(
            isinstance(n, ast.Attribute) and n.attr in PARTITION_NAMES
            for arg in node.args
            for n in ast.walk(arg)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_partition_turns_its_sets_into_indices():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    offenders = {
        path.name: lines
        for path in modules
        if path.name != "matrix.py"
        and (lines := partition_index_builders(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_partition_index_guard_flags_each_form():
    flagged = [
        "sorted(p.majority_users)",
        "sorted(int(u) for u in p.minority_items)",
        "sorted(set(partition.minority_users))",
        "np.ix_(sorted(p.majority_users), cols)",
        "np.ix_(p.majority_users, p.majority_items)",
    ]
    for source in flagged:
        assert partition_index_builders(source) == [1], source
    for source in ("sorted(s.collective)", "np.ix_(rows, cols)", "p.majority_block(a)"):
        assert partition_index_builders(source) == [], source


# ---------------------------------------------------------------------------
# Reordering
# ---------------------------------------------------------------------------

def test_reorder_is_identity_on_ordered_matrix(paired_scene):
    R, p = paired_scene
    out, row_perm, col_perm = reorder_to_blocks(R, p)
    assert row_perm == tuple(range(R.rows))
    assert col_perm == tuple(range(R.cols))
    assert np.array_equal(out.entries, R.entries)


def test_reorder_recovers_interleaved_matrix(paired_scene):
    R, _ = paired_scene
    rng = np.random.default_rng(3)
    row_shuffle = rng.permutation(R.rows)
    col_shuffle = rng.permutation(R.cols)
    shuffled = RatingsMatrix(R.entries[np.ix_(row_shuffle, col_shuffle)])
    p = GroupPartition(
        majority_users=frozenset(int(np.flatnonzero(row_shuffle == u)[0]) for u in range(8)),
        minority_users=frozenset(int(np.flatnonzero(row_shuffle == u)[0]) for u in (8, 9)),
        majority_items=frozenset(int(np.flatnonzero(col_shuffle == i)[0]) for i in (0, 1)),
        minority_items=frozenset(int(np.flatnonzero(col_shuffle == i)[0]) for i in (2, 3)),
    )
    ordered, row_perm, col_perm = reorder_to_blocks(shuffled, p)
    for i in range(10):
        for j in range(4):
            assert ordered.entries[i, j] == shuffled.entries[row_perm[i], col_perm[j]]
    assert np.all(ordered.entries[:8, 2:] == 0) and np.all(ordered.entries[8:, :2] == 0)
    assert sorted(map(tuple, ordered.entries)) == sorted(map(tuple, R.entries))
    inv_r = invert_permutation(row_perm)
    inv_c = invert_permutation(col_perm)
    back = ordered.entries[np.ix_(inv_r, inv_c)]
    assert np.array_equal(back, shuffled.entries)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_reorder_preserves_singular_values(seed):
    rng = np.random.default_rng(seed)
    m_bar, n_bar = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    m_min, n_min = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    a = np.zeros((m_bar + m_min, n_bar + n_min))
    a[:m_bar, :n_bar] = rng.uniform(0.5, 1.5, size=(m_bar, n_bar))
    a[m_bar:, n_bar:] = rng.uniform(0.1, 0.4, size=(m_min, n_min))
    R = RatingsMatrix(a)
    p = block_partition(m_bar, n_bar, *a.shape)
    row_shuffle = rng.permutation(a.shape[0])
    col_shuffle = rng.permutation(a.shape[1])
    shuffled = RatingsMatrix(a[np.ix_(row_shuffle, col_shuffle)])
    s0 = singular_values_of(R.entries)
    s1 = singular_values_of(shuffled.entries)
    assert np.allclose(s0, s1, atol=1e-9 * max(1.0, s0[0]))
    del p


# ---------------------------------------------------------------------------
# Spectrum structure properties
# ---------------------------------------------------------------------------

@given(seeds)
@settings(max_examples=25, deadline=None)
def test_block_diagonal_spectrum_is_union_of_block_spectra(seed):
    rng = np.random.default_rng(seed)
    b1 = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 4))))
    b2 = rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 5)), int(rng.integers(1, 4))))
    a = np.zeros((b1.shape[0] + b2.shape[0], b1.shape[1] + b2.shape[1]))
    a[: b1.shape[0], : b1.shape[1]] = b1
    a[b1.shape[0] :, b1.shape[1] :] = b2
    combined = np.sort(np.concatenate([singular_values_of(b1), singular_values_of(b2)]))[::-1]
    full = singular_values_of(a)
    k = min(full.size, combined.size)
    assert np.allclose(full[:k], combined[:k], atol=1e-9 * max(1.0, combined[0]))


def test_indicator_groups_have_sqrt_size_singular_values():
    from rankgap.generators import indicator_scenario

    R, _ = indicator_scenario((9, 4), (1,))
    s = np.sort(singular_values_of(R.entries))[::-1]
    assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_appending_column_never_decreases_singular_values(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    a = rng.uniform(0.0, 1.0, size=(m, n))
    col = rng.uniform(0.0, 1.0, size=(m, 1))
    wider = np.hstack([a, col])
    s_before = singular_values_of(a)
    s_after = singular_values_of(wider)
    tol = 1e-9 * max(1.0, s_after[0])
    assert np.all(s_after[: s_before.size] >= s_before - tol)


# ---------------------------------------------------------------------------
# Picky items
# ---------------------------------------------------------------------------

def test_picky_items_of_paired_scene(paired_scene):
    R, p = paired_scene
    found = find_picky_items(R, p)
    assert [(i, raters.tolist()) for i, raters in found] == [(2, [8]), (3, [9])]


def test_item_with_a_double_rating_user_is_not_picky():
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    a[2, 1] = 0.5  # rates both niche items
    a[2, 2] = 1.0
    R = RatingsMatrix(a)
    p = block_partition(1, 1, 3, 3)
    # item 1's rater set includes user 2, who also rates item 2
    found = dict(find_picky_items(R, p))
    assert 1 not in found and 2 not in found
    assert found == {}


def test_picky_items_empty_without_minority_items():
    R = RatingsMatrix(np.eye(2))
    p = GroupPartition(
        majority_users=frozenset({0, 1}),
        minority_users=frozenset(),
        majority_items=frozenset({0, 1}),
        minority_items=frozenset(),
    )
    assert find_picky_items(R, p) == []


def test_picky_items_of_multigroup_scene(multi_scene):
    R, p = multi_scene
    found = find_picky_items(R, p)
    assert [(i, raters.tolist()) for i, raters in found] == [
        (4, list(range(400, 404))),
        (5, [404]),
    ]


# ---------------------------------------------------------------------------
# Intervals, norms, tolerances
# ---------------------------------------------------------------------------

def test_open_interval_nan_upper_is_empty():
    g = OpenInterval(1.0, float("nan"))
    assert g.is_empty
    assert not g.contains(2.0)
    with pytest.raises(ValueError):
        _ = g.midpoint


def test_open_interval_midpoint():
    assert OpenInterval(1.0, 3.0).midpoint == 2.0


def test_l1_norm_is_max_plain_column_sum():
    R = RatingsMatrix(np.array([[1.0, 2.0], [3.0, 0.5]]))
    assert matrix_l1_norm(R) == 4.0


def test_column_abs_sums_take_absolute_values():
    R = RatingsMatrix(np.array([[1.0, -2.0], [-3.0, 0.5]]), nonnegative=False)
    assert np.array_equal(column_abs_sums(R), [4.0, 2.5])


def test_tie_tolerance_floors_at_unit_scale():
    assert tie_tolerance(0.5) == 1e-9
    assert tie_tolerance(100.0) == pytest.approx(1e-7, rel=1e-12)


def test_block_partition_rejects_oversize():
    with pytest.raises(PartitionError):
        block_partition(5, 1, 4, 4)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    R = RatingsMatrix(rng.uniform(0.0, 5.0, size=(4, 3)))
    path = tmp_path / "r.csv"
    save_ratings_csv(path, R)
    back, users, items = load_ratings_csv(path)
    assert np.array_equal(back.entries, R.entries)
    assert users == [str(u) for u in range(4)]
    assert items == [str(i) for i in range(3)]


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\nx,y,1\n")
    with pytest.raises(ValueError, match="header"):
        load_ratings_csv(path)


def test_csv_rejects_duplicate_pairs(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("user,item,rating\nu,i,1\nu,i,2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_ratings_csv(path)


def test_csv_assigns_dense_indices_in_first_seen_order(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("user,item,rating\nbob,beta,2\nann,beta,1\nbob,alpha,3\n")
    R, users, items = load_ratings_csv(path)
    assert users == ["bob", "ann"] and items == ["beta", "alpha"]
    assert R.entries[0, 0] == 2.0 and R.entries[1, 0] == 1.0 and R.entries[0, 1] == 3.0
    assert R.entries[1, 1] == 0.0


def test_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("user,item,rating\n")
    with pytest.raises(ValueError, match="no ratings"):
        load_ratings_csv(path)


def test_csv_save_rejects_label_mismatch(tmp_path):
    R = RatingsMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError, match="label"):
        save_ratings_csv(tmp_path / "x.csv", R, user_labels=["only-one"])


# ---------------------------------------------------------------------------
# The one-pass CSV reader and the joined writer against the row-at-a-time code
# ---------------------------------------------------------------------------

def reference_save(path, R, user_labels=None, item_labels=None) -> None:
    """save_ratings_csv as one csv.writer row per matrix entry."""
    m, n = R.shape
    ul = [str(u) for u in range(m)] if user_labels is None else list(user_labels)
    il = [str(i) for i in range(n)] if item_labels is None else list(item_labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for u in range(m):
            for i in range(n):
                writer.writerow([ul[u], il[i], repr(float(R.entries[u, i]))])


def read_outcome(reader, path):
    """What a reader returns, as comparable values, or its error's type and text."""
    try:
        R, users, items = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return R.entries.shape, R.entries.tobytes(), users, items


csv_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, -1e300]),
)
labels = st.none() | st.text(max_size=4) | st.integers(-5, 5) | st.sampled_from(
    ["a,b", 'q"t', " pad", "é", "", "x\ny", "c\rd"]
)


@given(
    entries=st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 4).flatmap(
            lambda n: st.lists(csv_floats, min_size=m * n, max_size=m * n).map(
                lambda v: np.array(v).reshape(m, n)
            )
        )
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_save_writes_the_bytes_of_the_row_at_a_time_writer(tmp_path_factory, entries, data):
    R = RatingsMatrix(entries, nonnegative=False)
    m, n = R.shape
    ul = data.draw(st.none() | st.lists(labels, min_size=m, max_size=m))
    il = data.draw(st.none() | st.lists(labels, min_size=n, max_size=n))
    out = tmp_path_factory.mktemp("save")
    save_ratings_csv(out / "new.csv", R, ul, il)
    reference_save(out / "old.csv", R, ul, il)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "entries",
    [
        [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0], [-0.0, -0.0]],
        [[2.5, 0.0, 0.1]] * 7 + [[0.0, 0.0, 0.0]] * 3 + [[2.5, 0.0, 0.1]] * 2,
        [[-0.0]] * 5 + [[0.0]] * 5 + [[-1.0]] * 2 + [[1.0]] * 2,
    ],
)
def test_save_keeps_signed_zeros_and_repeated_rows_apart(tmp_path, entries):
    R = RatingsMatrix(np.array(entries), nonnegative=False)
    labels = [f"u{u}" if u % 3 else f'q"{u}' for u in range(R.rows)]
    save_ratings_csv(tmp_path / "new.csv", R, labels)
    reference_save(tmp_path / "old.csv", R, labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_save_writes_in_chunks_of_rows(tmp_path):
    R = RatingsMatrix(np.kron(np.eye(3), np.ones((5, 2))) * 0.5)
    with mock.patch.object(matrix, "_WRITE_ENTRIES", 13):
        save_ratings_csv(tmp_path / "new.csv", R)
    reference_save(tmp_path / "old.csv", R)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Labels around the reader's word boundaries (8, 9, 16, 17 and 64 bytes),
# twins that differ only in their last word, and a non-ASCII first or last
# character that strip() keeps.
LABELS = [
    "u0", "u1", "ann", "é", "7", "", "x" * 8, "x" * 9, "x" * 16, "x" * 17,
    "z" * 63 + "a", "z" * 63 + "b", "é" * 32, "aé", "éa",
]
BAD_RATINGS = ["nan", "inf", "-1", "abc", "", "1e999", "-2.5e-310"]


@st.composite
def ratings_files(draw) -> bytes:
    """A ratings CSV, well formed or with any mix of the faults the reader must catch."""
    users = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6, unique=True))
    item_labels = st.sampled_from(["a", "b", "0", "x y"] + LABELS)
    items = draw(st.lists(item_labels, min_size=1, max_size=5, unique=True))
    ratings = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(repr),
        st.integers(0, 10**6).map(str),
        st.sampled_from(["1", "0.5", " 2", "3 ", "1_0", "-0.0", "0" * 63 + "1"]),
    )
    # Row-major as save_ratings_csv writes it (each user's lines in a run),
    # or some of those lines in any order.
    rows = [[u, i, draw(ratings)] for u in users for i in items]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))[: draw(st.integers(0, len(rows)))]
    faults = draw(st.just([]) | st.lists(st.sampled_from([
        "quote", "pad", "extra_field", "missing_field", "blank", "crlf", "duplicate",
        "bad_rating", "wide", "no_final_newline", "not_utf8", "nul", "padded_header", "bad_header",
    ]), max_size=3))
    if rows and "duplicate" in faults:
        user, item, _ = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [user, item, draw(ratings)])
    if rows and "bad_rating" in faults:
        rows[draw(st.integers(0, len(rows) - 1))][2] = draw(st.sampled_from(BAD_RATINGS))
    if rows and "wide" in faults:
        # Past the one-pass reader's 64-byte key: the line reader decides.
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[row][col] = draw(st.sampled_from(["w" * 65, "é" * 40, "0" * 64 + "1"]))
    if rows and "quote" in faults:
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[row][col] = '"' + rows[row][col].replace('"', '""') + draw(st.sampled_from(['"', ',x"']))
    if rows and "pad" in faults:
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        pad = draw(st.sampled_from([" ", "\t", "\u00a0", "\u2003", "\x85", "\x1c", "\x1f"]))
        rows[row][col] = draw(st.sampled_from([pad + rows[row][col], rows[row][col] + pad]))
    if rows and "extra_field" in faults:
        rows[draw(st.integers(0, len(rows) - 1))].append("1")
    if rows and "missing_field" in faults:
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    header = ",".join(CSV_HEADER)
    if "padded_header" in faults:
        header = " user, item ,rating"
    if "bad_header" in faults:
        header = "user,item"
    lines = [header] + [",".join(row) for row in rows]
    if "blank" in faults:
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\r\n" if "crlf" in faults else "\n"
    text = end.join(lines) + ("" if "no_final_newline" in faults else end)
    if "nul" in faults:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\0" + text[at:]
    data = text.encode("utf-8")
    if "not_utf8" in faults:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@given(data=ratings_files())
@settings(max_examples=400, deadline=None)
def test_one_pass_reader_matches_the_line_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    path.write_bytes(data)
    assert read_outcome(load_ratings_csv, path) == read_outcome(_load_ratings_csv_lines, path)


def test_plain_files_take_the_one_pass_parser(tmp_path):
    R = RatingsMatrix(np.array([[0.0, 1.5], [2.25, 0.0], [1e-300, 3.0]]))
    save_ratings_csv(tmp_path / "r.csv", R, ["bob", "é", "7"], ["x", "y"])
    data = (tmp_path / "r.csv").read_bytes()
    users, items, u, i, ratings = _parse_plain_csv(data)
    assert users == ["bob", "é", "7"] and items == ["x", "y"]
    assert u.tolist() == [0, 0, 1, 1, 2, 2] and i.tolist() == [0, 1] * 3
    assert ratings.tolist() == R.entries.ravel().tolist()
    for fault in (b'"', b"\r", b"\0", b"\n\n", b" "):
        assert _parse_plain_csv(data.replace(b"\n", fault + b"\n", 2)) is None


def test_written_indicator_files_take_the_one_pass_parser(tmp_path):
    from rankgap.generators import indicator_scenario

    R, _ = indicator_scenario((900, 700, 390), (6, 4))
    assert R.rows == 2000
    save_ratings_csv(tmp_path / "r.csv", R)
    parsed = _parse_plain_csv((tmp_path / "r.csv").read_bytes())
    assert parsed is not None
    users, items, u, i, ratings = parsed
    assert users == [str(x) for x in range(R.rows)] and items == [str(x) for x in range(R.cols)]
    a = np.zeros(R.shape)
    a[u, i] = ratings
    assert a.tobytes() == R.entries.tobytes()


def test_fields_over_the_key_width_go_to_the_line_reader(tmp_path):
    wide = "w" * (matrix._KEY_BYTES + 1)
    R = RatingsMatrix(np.eye(2))
    save_ratings_csv(tmp_path / "r.csv", R, ["u", wide])
    assert _parse_plain_csv((tmp_path / "r.csv").read_bytes()) is None
    back, users, _ = load_ratings_csv(tmp_path / "r.csv")
    assert users == ["u", wide] and np.array_equal(back.entries, R.entries)


def test_one_pass_keys_tell_labels_apart_past_the_first_word(tmp_path):
    # Neighbouring lines whose labels share their first 8 or 56 bytes.
    labels = ["x" * 8, "x" * 9, "x" * 16, "x" * 17, "z" * 63 + "a", "z" * 63 + "b", "aé", "éa"]
    R = RatingsMatrix(np.arange(1.0, 1.0 + len(labels) ** 2).reshape(len(labels), -1))
    save_ratings_csv(tmp_path / "r.csv", R, labels, labels)
    users, items, u, i, ratings = _parse_plain_csv((tmp_path / "r.csv").read_bytes())
    assert users == labels and items == labels
    assert read_outcome(load_ratings_csv, tmp_path / "r.csv") == (
        R.shape, R.entries.tobytes(), labels, labels
    )


@pytest.mark.parametrize(
    "pad", [" ", "\t", "\v", "\x1c", "\x1f", "\x85", "\u00a0", "\u2003", "\u3000"]
)
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("end", [False, True])
def test_labels_padded_with_whitespace_go_to_the_line_reader(tmp_path, pad, column, end):
    rows = [["u", "a", "1"], ["v", "b", "2"]]
    rows[1][column] = rows[0][column] + pad if end else pad + rows[0][column]
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n" + "".join(",".join(r) + "\n" for r in rows), "utf-8")
    assert _parse_plain_csv(path.read_bytes()) is None
    assert read_outcome(load_ratings_csv, path) == read_outcome(_load_ratings_csv_lines, path)


@pytest.mark.parametrize("body", [b"u,x\n1\nv,y,2\n", b"u\nv\nw\n", b"u,a,1\n\n\n\n"])
def test_lines_without_three_fields_go_to_the_line_reader(tmp_path, body):
    # Each body has a multiple of three delimiters, but not "," "," "\n" on every line.
    path = tmp_path / "r.csv"
    path.write_bytes(b"user,item,rating\n" + body)
    assert _parse_plain_csv(path.read_bytes()) is None
    assert read_outcome(load_ratings_csv, path) == read_outcome(_load_ratings_csv_lines, path)


@pytest.mark.parametrize("label", [b"\xff", b"a\xc3", b"\xa9b", b"\xed\xa0\x80"])
def test_labels_that_are_not_utf8_go_to_the_line_reader(tmp_path, label):
    path = tmp_path / "r.csv"
    path.write_bytes(b"user,item,rating\nu,a,1\n" + label + b",a,2\n")
    assert _parse_plain_csv(path.read_bytes()) is None
    with pytest.raises(ValueError, match="not UTF-8"):
        load_ratings_csv(path)


def test_a_field_size_limit_below_the_key_width_still_holds(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n" + "u" * 20 + ",a,1\n")
    old = csv.field_size_limit(10)
    try:
        assert _parse_plain_csv(path.read_bytes()) is None
        with pytest.raises(ValueError, match="field larger than field limit"):
            load_ratings_csv(path)
    finally:
        csv.field_size_limit(old)


def test_csv_line_reader_errors_name_the_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"user,item,rating\nu,a,1\nu,b\n")
    with pytest.raises(ValueError, match=r":3: expected 3 fields, got 2"):
        load_ratings_csv(path)
    path.write_bytes(b"user,item,rating\nu,a,1\nv,a,2\nu,a,3\n")
    with pytest.raises(ValueError, match=r":4: duplicate pair \('u', 'a'\)"):
        load_ratings_csv(path)


def test_csv_field_over_the_size_limit_is_a_value_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("user,item,rating\n" + "u" * (csv.field_size_limit() + 1) + ",a,1\n")
    with pytest.raises(ValueError, match="field larger than field limit"):
        load_ratings_csv(path)
