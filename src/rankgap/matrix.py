"""Dense ratings matrices, group partitions, and singular-value structure.

Everything in this module is a pure function of immutable inputs. Matrices
are dense float64 arrays; the scale in scope is at most a few thousand rows
and columns, so no sparse formats are used.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# A singular value counts toward the numeric rank iff it exceeds this
# fraction of the largest singular value.
RANK_RTOL = 1e-10

# Two ratings tie iff |a - b| <= TIE_RTOL * max(1, scale); the scale is the
# top singular value of the matrix the ratings came from.
TIE_RTOL = 1e-9

# Maximum relative Frobenius error allowed when reconstructing a matrix
# from its retained decomposition factors.
RECONSTRUCTION_RTOL = 1e-9


class PartitionError(ValueError):
    """A group partition is malformed or does not match a matrix."""


def _index_set(values, name: str, error=ValueError) -> frozenset[int]:
    """``values`` as a frozenset of ints; each must be integral and not a bool
    (numpy integers pass), else ``error`` naming ``name`` is raised."""
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
            raise error(f"{name} must hold integer indices, got {value!r}") from None
    return frozenset(out)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RatingsMatrix:
    """Dense m x n grid of user-item ratings.

    ``nonnegative`` is True for personal and revealed ratings, which live in
    R_{>=0}. Truncated estimates can carry negative entries; they are held in
    the same type with the flag set to False.
    """

    entries: np.ndarray
    nonnegative: bool = True

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"ratings must be 2-D, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"ratings must be at least 1x1, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("ratings must be finite")
        if self.nonnegative and np.any(a < 0):
            raise ValueError("negative rating in a matrix declared nonnegative")
        object.__setattr__(self, "entries", _as_readonly(a))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def with_entries(self, entries: np.ndarray, nonnegative: bool | None = None) -> "RatingsMatrix":
        """New matrix with the same flag unless overridden."""
        flag = self.nonnegative if nonnegative is None else nonnegative
        return RatingsMatrix(entries, nonnegative=flag)


@dataclass(frozen=True)
class GroupPartition:
    """Majority/minority split of users and items.

    The split is valid for a matrix R when the user sets partition its rows,
    the item sets partition its columns, every cross-block entry is exactly
    zero, and no user row is entirely zero.

    Each set is also held, derived once, as a sorted read-only ``np.intp``
    array (``*_index``); other modules take indices and blocks only from here.
    """

    majority_users: frozenset[int]
    minority_users: frozenset[int]
    majority_items: frozenset[int]
    minority_items: frozenset[int]

    def __post_init__(self) -> None:
        for name in ("majority_users", "minority_users", "majority_items", "minority_items"):
            object.__setattr__(self, name, _index_set(getattr(self, name), name, PartitionError))
        if self.majority_users & self.minority_users:
            raise PartitionError("user groups overlap")
        if self.majority_items & self.minority_items:
            raise PartitionError("item groups overlap")
        for name in ("majority_users", "minority_users", "majority_items", "minority_items"):
            if any(i < 0 for i in getattr(self, name)):
                raise PartitionError(f"negative index in {name}")

    @property
    def m_bar(self) -> int:
        return len(self.majority_users)

    @property
    def n_bar(self) -> int:
        return len(self.majority_items)

    @cached_property
    def majority_user_index(self) -> np.ndarray:
        return _index_array(self.majority_users)

    @cached_property
    def minority_user_index(self) -> np.ndarray:
        return _index_array(self.minority_users)

    @cached_property
    def majority_item_index(self) -> np.ndarray:
        return _index_array(self.majority_items)

    @cached_property
    def minority_item_index(self) -> np.ndarray:
        return _index_array(self.minority_items)

    def majority_block(self, a: np.ndarray) -> np.ndarray:
        """Majority-user x majority-item submatrix of a, rows and columns in index order."""
        return a[np.ix_(self.majority_user_index, self.majority_item_index)]

    def minority_block(self, a: np.ndarray) -> np.ndarray:
        """Minority-user x minority-item submatrix of a, rows and columns in index order."""
        return a[np.ix_(self.minority_user_index, self.minority_item_index)]

    def covers(self, m: int, n: int) -> bool:
        """True when the user sets partition range(m) and the item sets range(n)."""
        return _covers(self.majority_user_index, self.minority_user_index, m) and _covers(
            self.majority_item_index, self.minority_item_index, n
        )

    def validate_for(self, R: RatingsMatrix) -> None:
        """Raise PartitionError unless this split is valid for R.

        Cross-block zero checks use exact equality: the model defines those
        entries as identically zero, not approximately so.
        """
        m, n = R.shape
        if not _covers(self.majority_user_index, self.minority_user_index, m):
            raise PartitionError(f"user sets do not partition range({m})")
        if not _covers(self.majority_item_index, self.minority_item_index, n):
            raise PartitionError(f"item sets do not partition range({n})")
        a = R.entries
        if np.any(a[np.ix_(self.majority_user_index, self.minority_item_index)] != 0.0):
            raise PartitionError("majority user rates a minority item")
        if np.any(a[np.ix_(self.minority_user_index, self.majority_item_index)] != 0.0):
            raise PartitionError("minority user rates a majority item")
        if np.any(a.max(axis=1, initial=0.0) <= 0.0):
            raise PartitionError("a user has no positive rating")


def _index_array(indices: frozenset[int]) -> np.ndarray:
    out = np.array(sorted(indices), dtype=np.intp)
    out.flags.writeable = False
    return out


def _covers(a: np.ndarray, b: np.ndarray, size: int) -> bool:
    """Whether two sorted, disjoint, nonnegative index arrays partition range(size)."""
    return a.size + b.size == size and all(x[-1] < size for x in (a, b) if x.size)


def block_partition(m_bar: int, n_bar: int, m: int, n: int) -> GroupPartition:
    """Canonical partition for a block-ordered matrix: first rows/cols are majority."""
    if not (0 <= m_bar <= m and 0 <= n_bar <= n):
        raise PartitionError("block sizes exceed matrix shape")
    return GroupPartition(
        majority_users=frozenset(range(m_bar)),
        minority_users=frozenset(range(m_bar, m)),
        majority_items=frozenset(range(n_bar)),
        minority_items=frozenset(range(n_bar, n)),
    )


@dataclass(frozen=True)
class SpectralSummary:
    """Full singular value decomposition with a numeric-rank cutoff.

    Factors are retained so truncations reuse the same decomposition instead
    of recomputing it.
    """

    singular_values: np.ndarray
    numeric_rank: int
    left: np.ndarray = field(repr=False)
    right_t: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "singular_values", _as_readonly(self.singular_values))
        object.__setattr__(self, "left", _as_readonly(self.left))
        object.__setattr__(self, "right_t", _as_readonly(self.right_t))

    def sigma(self, k: int) -> float:
        """k-th largest singular value, 1-indexed; zero beyond the stored ones."""
        if k < 1:
            raise ValueError(f"singular value index must be >= 1, got {k}")
        s = self.singular_values
        return float(s[k - 1]) if k <= s.size else 0.0


def spectral(R: RatingsMatrix) -> SpectralSummary:
    """Full SVD of R with descending singular values.

    The reconstruction from the retained factors is checked against R to a
    relative Frobenius error of 1e-9; failure raises ArithmeticError.
    Decomposition failures from the backend propagate as numeric errors.
    """
    a = R.entries
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    recon = (u * s) @ vt
    scale = np.linalg.norm(a)
    err = np.linalg.norm(recon - a)
    if err > RECONSTRUCTION_RTOL * max(1.0, scale):
        raise ArithmeticError(f"decomposition reconstruction error {err:.3e} exceeds tolerance")
    rank = int(np.count_nonzero(s > RANK_RTOL * (s[0] if s.size else 0.0)))
    return SpectralSummary(singular_values=s, numeric_rank=rank, left=u, right_t=vt)


def singular_values_of(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a raw array; empty input gives an empty vector."""
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def numeric_rank_of(a: np.ndarray) -> int:
    s = singular_values_of(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class OpenInterval:
    """Open interval (lower, upper); empty when the endpoints do not satisfy lower < upper.

    An upper endpoint of NaN marks an interval whose defining expression had
    no real value (for example a negative radicand); such intervals are empty
    and contain nothing.
    """

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return not (self.lower < self.upper)

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper

    @property
    def midpoint(self) -> float:
        if self.is_empty:
            raise ValueError("empty interval has no midpoint")
        return 0.5 * (self.lower + self.upper)


# ---------------------------------------------------------------------------
# Norms and gaps
# ---------------------------------------------------------------------------

def matrix_l1_norm(R: RatingsMatrix) -> float:
    """Maximum column sum of the raw entries (no absolute values)."""
    return float(R.entries.sum(axis=0).max())


def column_abs_sums(R: RatingsMatrix) -> np.ndarray:
    """Per-column sum of absolute entries; the popularity measure used on estimates."""
    return np.abs(R.entries).sum(axis=0)


def singular_value_gap(R: RatingsMatrix, p: GroupPartition) -> OpenInterval:
    """Open interval between the minority block's top singular value and the
    majority block's smallest nonzero one.

    Returns an empty interval when the endpoints cross. Raises PartitionError
    when p is not valid for R or the majority block carries no mass.
    """
    p.validate_for(R)
    maj = p.majority_block(R.entries)
    s_maj = singular_values_of(maj)
    k_maj = numeric_rank_of(maj)
    if k_maj == 0:
        raise PartitionError("majority block has numeric rank 0")
    s_min = singular_values_of(p.minority_block(R.entries))
    lower = float(s_min[0]) if s_min.size else 0.0
    upper = float(s_maj[k_maj - 1])
    return OpenInterval(lower, upper)


def reorder_to_blocks(
    R: RatingsMatrix, p: GroupPartition
) -> tuple[RatingsMatrix, tuple[int, ...], tuple[int, ...]]:
    """Permute rows and columns so the majority block sits top-left.

    Returns (reordered, row_perm, col_perm) with
    ``reordered[i, j] == R[row_perm[i], col_perm[j]]``. Applying the inverse
    permutations recovers R exactly.
    """
    p.validate_for(R)
    rows = np.concatenate([p.majority_user_index, p.minority_user_index])
    cols = np.concatenate([p.majority_item_index, p.minority_item_index])
    out = R.entries[np.ix_(rows, cols)]
    return R.with_entries(out), tuple(rows.tolist()), tuple(cols.tolist())


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return tuple(inv)


def find_picky_items(
    R: RatingsMatrix, p: GroupPartition
) -> list[tuple[int, frozenset[int]]]:
    """Minority items rated by exactly one user group that rates nothing else.

    An item qualifies when its raters form a nonempty set and each of those
    users has zero ratings everywhere else. Returned in item-index order.
    """
    p.validate_for(R)
    a = R.entries
    # A rater rates nothing else iff the item is the only nonzero in its row.
    lone = np.count_nonzero(a, axis=1) == 1
    out: list[tuple[int, frozenset[int]]] = []
    for i in p.minority_item_index.tolist():
        raters = np.flatnonzero(a[:, i] > 0.0)
        if raters.size and lone[raters].all():
            out.append((i, frozenset(raters.tolist())))
    return out


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ("user", "item", "rating")

# Lines the one-pass reader splits at a time.
_BLOCK_LINES = 1 << 15


def load_ratings_csv(path) -> tuple[RatingsMatrix, list[str], list[str]]:
    """Read a `user,item,rating` CSV into a dense matrix.

    Unseen user and item identifiers get dense indices in first-seen order.
    Unlisted pairs are zero. Duplicate (user, item) pairs are an error, and
    so is a rating that is not finite or is negative.

    A plain file (no quotes, CR, NUL, blank lines or padded labels, every
    line ending in a newline) is parsed in one pass over its text; anything
    else, and any file the one pass would reject, is read line by line, so
    errors carry their line number.

    Returns (matrix, user_labels, item_labels).
    """
    with open(path, "rb") as fh:
        parsed = _parse_plain_csv(fh.read())
    if parsed is None:
        return _load_ratings_csv_lines(path)
    users, items, u, i, ratings = parsed
    a = np.zeros((len(users), len(items)))
    a[u, i] = ratings
    return RatingsMatrix(a), users, items


def _parse_plain_csv(data: bytes):
    """(users, items, user index, item index, ratings) of a plain ratings CSV,
    or None when the line-by-line reader must decide."""
    if any(c in data for c in (b'"', b"\r", b"\0", b"\n\n")) or not data.endswith(b"\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(raw == ord("\n"))
    if data[: newlines[0]] != ",".join(CSV_HEADER).encode() or newlines.size < 2:
        return None
    # Rating lines: exactly two commas each, and none long enough to hold a
    # field over the csv module's size limit.
    starts, ends = newlines[:-1] + 1, newlines[1:]
    if np.any(np.add.reduceat(raw == ord(","), starts, dtype=np.intp) != 2):
        return None
    if (ends - starts).max() >= csv.field_size_limit():
        return None
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    u, i = np.empty(ends.size, dtype=np.intp), np.empty(ends.size, dtype=np.intp)
    ratings = np.empty(ends.size)
    try:
        # A block of lines at a time, so that only one block's fields are live.
        for lo in range(0, ends.size, _BLOCK_LINES):
            hi = min(lo + _BLOCK_LINES, ends.size)
            fields = data[starts[lo] : ends[hi - 1]].decode("utf-8").replace("\n", ",").split(",")
            u[lo:hi] = _first_seen(users, fields[0::3])
            i[lo:hi] = _first_seen(items, fields[1::3])
            ratings[lo:hi] = np.fromiter(map(float, fields[2::3]), dtype=np.float64, count=hi - lo)
    except ValueError:  # a rating float() rejects, or bytes that are not UTF-8
        return None
    # The line reader strips labels, so a padded one may merge with another.
    if any(k != k.strip() for k in users) or any(k != k.strip() for k in items):
        return None
    if np.bincount(u * len(items) + i).max() > 1:
        return None
    # RatingsMatrix rejects these too, but without the line.
    if not np.all(np.isfinite(ratings) & (ratings >= 0)):
        return None
    return list(users), list(items), u, i, ratings


def _first_seen(index: dict[str, int], labels: list[str]) -> np.ndarray:
    """Each label's index in first-seen order, adding labels new to ``index``."""
    for label in dict.fromkeys(labels):
        index.setdefault(label, len(index))
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))


def _load_ratings_csv_lines(path) -> tuple[RatingsMatrix, list[str], list[str]]:
    """The line-by-line reader behind load_ratings_csv; its errors name the line."""
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    triples: list[tuple[int, int, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"expected header {','.join(CSV_HEADER)!r} in {path}")
            seen: set[tuple[int, int]] = set()
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                u = users.setdefault(row[0].strip(), len(users))
                i = items.setdefault(row[1].strip(), len(items))
                if (u, i) in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate pair ({row[0]!r}, {row[1]!r})")
                seen.add((u, i))
                try:
                    rating = float(row[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: rating {row[2]!r} is not a number"
                    ) from None
                if not math.isfinite(rating) or rating < 0:
                    fault = "negative" if math.isfinite(rating) else "not finite"
                    raise ValueError(f"{path}:{lineno}: rating {row[2]!r} is {fault}")
                triples.append((u, i, rating))
        except csv.Error as exc:
            # csv.Error is not a ValueError (an over-long field; NUL before Python 3.11).
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not users or not items:
        raise ValueError(f"{path}: no ratings rows")
    a = np.zeros((len(users), len(items)))
    for u, i, r in triples:
        a[u, i] = r
    return RatingsMatrix(a), list(users), list(items)


def save_ratings_csv(path, R: RatingsMatrix, user_labels=None, item_labels=None) -> None:
    """Write every entry of R in row-major order; floats use repr round-tripping."""
    m, n = R.shape
    ul = [str(u) for u in range(m)] if user_labels is None else list(user_labels)
    il = [str(i) for i in range(n)] if item_labels is None else list(item_labels)
    if len(ul) != m or len(il) != n:
        raise ValueError("label counts do not match matrix shape")
    users, items = [_csv_field(u) for u in ul], [_csv_field(i) for i in il]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        # One join per matrix row: a whole-file join would hold every line at once.
        for u, row in zip(users, R.entries):
            fh.write("".join([f"{u},{i},{r!r}\n" for i, r in zip(items, row.tolist())]))


def _csv_field(label) -> str:
    """A label as csv.writer writes it inside a row of several fields."""
    text = "" if label is None else str(label)
    # Such text is never quoted; the writer itself decides for anything else.
    if text and text.isprintable() and "," not in text and '"' not in text:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


def tie_tolerance(scale: float) -> float:
    """Absolute tie tolerance at a given magnitude scale."""
    return TIE_RTOL * max(1.0, scale)


__all__ = [
    "RANK_RTOL",
    "TIE_RTOL",
    "RECONSTRUCTION_RTOL",
    "PartitionError",
    "RatingsMatrix",
    "GroupPartition",
    "SpectralSummary",
    "OpenInterval",
    "block_partition",
    "spectral",
    "singular_values_of",
    "numeric_rank_of",
    "matrix_l1_norm",
    "column_abs_sums",
    "singular_value_gap",
    "reorder_to_blocks",
    "invert_permutation",
    "find_picky_items",
    "load_ratings_csv",
    "save_ratings_csv",
    "tie_tolerance",
]
