"""Dense ratings matrices, group partitions, and singular-value structure.

Everything in this module is a pure function of immutable inputs. Matrices
are dense float64 arrays; the scale in scope is up to about 10^5 rows
(users) and a few thousand columns (items), so no sparse formats are used.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field

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


def _index_array(values, name: str, error=ValueError) -> np.ndarray:
    """``values`` as a sorted, read-only np.intp array of its distinct indices.

    ``values`` is an integer array or any iterable of integral, non-bool
    indices (numpy integers pass); anything else, or an index np.intp cannot
    hold, raises ``error`` naming ``name``.  An array already in the returned
    form is returned as it is.
    """
    ints = isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 1
    if ints and values.dtype == np.intp and not values.flags.writeable and _increasing(values):
        return values
    if not (ints and np.can_cast(values.dtype, np.intp)):
        try:
            values = list(values.tolist() if isinstance(values, np.ndarray) else values)
        except TypeError:
            raise error(f"{name} must be an iterable of indices, got {values!r}") from None
        if not set(map(type, values)) <= {int}:
            values = [_as_index(value, name, error) for value in values]
    try:
        a = np.asarray(values, dtype=np.intp)
    except OverflowError:
        raise error(f"{name} index {max(values, key=abs)} is out of range") from None
    if not _increasing(a):
        # Deduplicated by hand: a bare np.unique imports numpy.ma (about 1 MB).
        a = np.sort(a)
        a = a[np.concatenate([[True], a[1:] != a[:-1]])]
    out = a.copy()
    out.flags.writeable = False
    return out


def _mask_indices(mask: np.ndarray) -> np.ndarray:
    """Where a 1-D bool mask holds, in the form ``_index_array`` returns."""
    out = np.flatnonzero(mask)
    out.flags.writeable = False
    return out


def _as_index(value, name: str, error) -> int:
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must hold integer indices, got {value!r}")
    return operator.index(value)


def _increasing(a: np.ndarray) -> bool:
    return bool((a[1:] > a[:-1]).all())


# _row_reduce folds a matrix of at most 48 columns whose columns each hold at
# least 128 bytes per column of the matrix (16 rows per column of float64, 128
# of bool) and which, past 16 columns, takes at most 1 MiB.  Measured against
# the axis reduction, the fold (one ufunc call per column) breaks even near 8
# rows per column of float64 and near 100 of bool; past 16 columns it loses
# once the matrix outgrows the cache (float64 at 8,192 x 32, 20,000 x 32 and
# 40,000 x 20, bool at 40,000 x 48), and past 48 columns bool loses outright
# (0.5x at 5,000 x 64).
_FOLD_MAX_COLS = 48
_FOLD_MIN_BYTES_PER_COL = 128
_FOLD_WIDE_COLS = 16
_FOLD_WIDE_MAX_BYTES = 2**20


def _row_reduce(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` for np.maximum, np.minimum, np.logical_or
    and np.logical_and (the logical ones on bool ``a``), as a new array.

    numpy reduces along a short row slowly, so a short-row matrix is folded
    column by column instead.  The values are the axis reduction's; only
    where -0.0 and 0.0 tie for a max or a min may the sign of the zero differ,
    since numpy's reduction order is its own.
    """
    m, n = a.shape
    folds = (
        0 < n <= _FOLD_MAX_COLS
        and m * a.itemsize >= _FOLD_MIN_BYTES_PER_COL * n
        and (n <= _FOLD_WIDE_COLS or a.nbytes <= _FOLD_WIDE_MAX_BYTES)
    )
    if not folds:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0].copy()
    for column in a.T[1:]:
        ufunc(out, column, out=out)
    return out


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Majority/minority split of users and items.

    The split is valid for a matrix R when the user sets partition its rows,
    the item sets partition its columns, every cross-block entry is exactly
    zero, and no user row is entirely zero.

    Each set is held as a sorted, read-only ``np.intp`` array (see
    ``_index_array``); other modules take indices and blocks only from here.
    Partitions compare by identity.
    """

    majority_users: np.ndarray
    minority_users: np.ndarray
    majority_items: np.ndarray
    minority_items: np.ndarray

    def __post_init__(self) -> None:
        names = ("majority_users", "minority_users", "majority_items", "minority_items")
        for name in names:
            object.__setattr__(self, name, _index_array(getattr(self, name), name, PartitionError))
        if np.intersect1d(self.majority_users, self.minority_users, assume_unique=True).size:
            raise PartitionError("user groups overlap")
        if np.intersect1d(self.majority_items, self.minority_items, assume_unique=True).size:
            raise PartitionError("item groups overlap")
        for name in names:
            # Sorted, so a negative index is the first one.
            if (getattr(self, name)[:1] < 0).any():
                raise PartitionError(f"negative index in {name}")

    @property
    def m_bar(self) -> int:
        return self.majority_users.size

    @property
    def n_bar(self) -> int:
        return self.majority_items.size

    def majority_block(self, a: np.ndarray) -> np.ndarray:
        """Majority-user x majority-item submatrix of a, rows and columns in index order.

        A view of a when both groups are contiguous ranges (as in every
        ``block_partition``), else a copy; either way writeable exactly when
        a is, so a block of a read-only matrix cannot be written."""
        return _block(a, self.majority_users, self.majority_items)

    def minority_block(self, a: np.ndarray) -> np.ndarray:
        """Minority-user x minority-item submatrix of a, rows and columns in index order.

        A view of a when both groups are contiguous ranges (as in every
        ``block_partition``), else a copy; either way writeable exactly when
        a is, so a block of a read-only matrix cannot be written."""
        return _block(a, self.minority_users, self.minority_items)

    def covers(self, m: int, n: int) -> bool:
        """True when the user sets partition range(m) and the item sets range(n)."""
        return _covers(self.majority_users, self.minority_users, m) and _covers(
            self.majority_items, self.minority_items, n
        )

    def validate_for(self, R: RatingsMatrix) -> None:
        """Raise PartitionError unless this split is valid for R.

        Cross-block zero checks use exact equality: the model defines those
        entries as identically zero, not approximately so.
        """
        m, n = R.shape
        if not _covers(self.majority_users, self.minority_users, m):
            raise PartitionError(f"user sets do not partition range({m})")
        if not _covers(self.majority_items, self.minority_items, n):
            raise PartitionError(f"item sets do not partition range({n})")
        a = R.entries
        # Counted on a mask, no float block copied: minority columns (rows)
        # hold a cross nonzero iff they hold more than the minority block.
        nonzero = a != 0.0
        items = _group_index(self.minority_items)
        rows = nonzero[_group_index(self.minority_users)]
        inside = np.count_nonzero(rows[:, items])
        if np.count_nonzero(nonzero[:, items]) > inside:
            raise PartitionError("majority user rates a minority item")
        if np.count_nonzero(rows) > inside:
            raise PartitionError("minority user rates a majority item")
        if np.any(_row_reduce(np.maximum, a) <= 0.0):
            raise PartitionError("a user has no positive rating")


def _group_index(group: np.ndarray) -> slice | np.ndarray:
    """A partition group (sorted, distinct indices) as the basic slice over
    its range when it is one contiguous range, empty included, else as
    itself: indexing an axis with the slice gives a view, not a copy."""
    if not group.size:
        return slice(0, 0)
    first = int(group[0])
    if int(group[-1]) - first + 1 == group.size:
        return slice(first, first + group.size)
    return group


def _block(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a[np.ix_(rows, cols)]`` for two partition groups, as a view when
    both are contiguous ranges, and writeable exactly when a is.  Two index
    arrays still go through np.ix_: side by side they would pair up."""
    r, c = _group_index(rows), _group_index(cols)
    if not (isinstance(r, slice) or isinstance(c, slice)):
        r, c = np.ix_(r, c)
    out = a[r, c]
    out.flags.writeable = a.flags.writeable
    return out


def _covers(a: np.ndarray, b: np.ndarray, size: int) -> bool:
    """Whether two sorted, disjoint, nonnegative index arrays partition range(size)."""
    return a.size + b.size == size and all(x[-1] < size for x in (a, b) if x.size)


def block_partition(m_bar: int, n_bar: int, m: int, n: int) -> GroupPartition:
    """Canonical partition for a block-ordered matrix: first rows/cols are majority."""
    if not (0 <= m_bar <= m and 0 <= n_bar <= n):
        raise PartitionError("block sizes exceed matrix shape")
    return GroupPartition(
        majority_users=np.arange(m_bar),
        minority_users=np.arange(m_bar, m),
        majority_items=np.arange(n_bar),
        minority_items=np.arange(n_bar, n),
    )


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Full singular value decomposition with a numeric-rank cutoff.

    Factors are retained so truncations reuse the same decomposition instead
    of recomputing it.  The numeric rank is derived from the singular values,
    so the two never disagree.
    """

    singular_values: np.ndarray
    left: np.ndarray = field(repr=False)
    right_t: np.ndarray = field(repr=False)
    numeric_rank: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "singular_values", _as_readonly(self.singular_values))
        object.__setattr__(self, "numeric_rank", _numeric_rank(self.singular_values))
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
    scale = _frobenius_norm(a)
    err = _frobenius_norm(recon - a)
    if err > RECONSTRUCTION_RTOL * max(1.0, scale):
        raise ArithmeticError(f"decomposition reconstruction error {err:.3e} exceeds tolerance")
    return SpectralSummary(singular_values=s, left=u, right_t=vt)


def _frobenius_norm(a: np.ndarray) -> float:
    """np.linalg.norm(a), also where the sum of squares overflows: there the
    entries are first scaled by a power of two, which is exact."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
        if np.isinf(norm):
            exp = np.frexp(np.abs(a).max())[1]
            norm = np.ldexp(np.linalg.norm(np.ldexp(a, -exp)), exp)
    return float(norm)


def singular_values_of(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a raw array; empty input gives an empty vector."""
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def _numeric_rank(s: np.ndarray) -> int:
    """How many of the descending singular values s exceed RANK_RTOL * s[0]."""
    return int(np.count_nonzero(s > RANK_RTOL * s[0])) if s.size else 0


def numeric_rank_of(a: np.ndarray) -> int:
    return _numeric_rank(singular_values_of(a))


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
    sigma_kmaj, sigma1_min = _block_sigmas(R, p)
    return OpenInterval(sigma1_min, sigma_kmaj)


def _block_sigmas(R: RatingsMatrix, p: GroupPartition) -> tuple[float, float]:
    """(sigma_kmaj, sigma1_min) for an unvalidated p: the majority block's
    smallest kept singular value, the minority block's largest (0 if empty)."""
    maj = p.majority_block(R.entries)
    s_maj = singular_values_of(maj)
    k_maj = numeric_rank_of(maj)
    if k_maj == 0:
        raise PartitionError("majority block has numeric rank 0")
    s_min = singular_values_of(p.minority_block(R.entries))
    return float(s_maj[k_maj - 1]), float(s_min[0]) if s_min.size else 0.0


def find_picky_items(R: RatingsMatrix, p: GroupPartition) -> list[tuple[int, np.ndarray]]:
    """Minority items rated by exactly one user group that rates nothing else.

    An item qualifies when its raters form a nonempty set and each of those
    users has zero ratings everywhere else. Returned in item-index order as
    ``(item, raters)`` pairs; ``raters`` is a sorted, read-only np.intp array.
    """
    p.validate_for(R)
    a = R.entries
    # A rater rates nothing else iff the item is the only nonzero in its row.
    lone = np.count_nonzero(a, axis=1) == 1
    out = []
    for i in p.minority_items.tolist():
        raters = _mask_indices(a[:, i] > 0.0)
        if raters.size and lone[raters].all():
            out.append((i, raters))
    return out


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ("user", "item", "rating")

# The widest field the one-pass reader keys in place: 8 little-endian words.
_KEY_BYTES = 64

# _WORD_MASKS[w, length] keeps the bytes of word w (bytes 8w .. 8w + 7) that
# lie inside a field of that length.
_WORD_MASKS = np.array(
    [
        [(1 << 8 * min(max(length - 8 * w, 0), 8)) - 1 for length in range(_KEY_BYTES + 1)]
        for w in range(_KEY_BYTES // 8)
    ],
    dtype=np.uint64,
)

# Bytes that may start or end a text that str.strip() changes: ASCII
# whitespace, and any byte of a multi-byte UTF-8 character.
_EDGE_BYTES = np.array([b >= 0x80 or chr(b).isspace() for b in range(256)])

# Bytes of rating lines the one-pass reader parses at a time.  A chunk's
# transients are about 13 times its size.  On files of 0.8 to 1.6 MB, 256 KiB
# chunks parsed up to 10% faster than one pass over the whole file, and 64 KiB
# chunks paid numpy's per-call cost too often.
_CHUNK_BYTES = 1 << 18

# Matrix entries save_ratings_csv renders per write.
_WRITE_ENTRIES = 1 << 16


def load_ratings_csv(path) -> tuple[RatingsMatrix, list[str], list[str]]:
    """Read a `user,item,rating` CSV into a dense matrix.

    Unseen user and item identifiers get dense indices in first-seen order.
    Unlisted pairs are zero. Duplicate (user, item) pairs are an error, and
    so is a rating that is not finite or is negative.

    A plain file (no quotes, CR, NUL, blank lines or fields padded with
    whitespace, no field over 64 bytes, every line ending in a newline) is
    parsed one distinct field at a time; anything else, and any file that
    parse would reject, is read line by line, so errors carry their line
    number.  The file is read to its end (its stated size is not trusted),
    and the plain-file gate looks at all of it; the rating lines are then
    parsed in chunks of about 256 KiB, so the parse's transients stay bounded.
    What grows with the file is the file's bytes, each line's user and item
    index and its rating, and the matrix.

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
    or None when the line-by-line reader must decide.

    The plain-file gate looks at the whole file; the rating lines are then
    parsed _CHUNK_BYTES of whole lines at a time, so the transients stay
    bounded and only the per-line codes and ratings grow with the file.
    Python sees each distinct field once per chunk: the columns are keyed,
    split and counted as numpy passes over the chunk's bytes, and each
    column's distinct texts are merged across chunks in first-seen order."""
    header = ",".join(CSV_HEADER).encode() + b"\n"
    # Blank lines fail the delimiter check below.
    if any(c in data for c in (b'"', b"\r", b"\0")) or not data.endswith(b"\n"):
        return None
    if not data.startswith(header) or len(data) == len(header):
        return None
    size_limit = csv.field_size_limit()
    user_parts, item_parts, rating_parts = [], [], []
    lo = len(header)
    while lo < len(data):
        # Whole lines: up to the last newline in reach, or else the first one.
        hi = data.rfind(b"\n", lo, lo + _CHUNK_BYTES) + 1 or data.index(b"\n", lo) + 1
        columns = _chunk_fields(data, lo, hi, size_limit)
        if columns is None:
            return None
        texts, r, _ = columns.pop()
        try:
            values = np.array([float(t) for t in texts], dtype=np.float64)
        except ValueError:  # a rating float() rejects
            return None
        # RatingsMatrix rejects these too, but without the line.
        if not np.all(np.isfinite(values) & (values >= 0)):
            return None
        user_parts.append(columns[0])
        item_parts.append(columns[1])
        rating_parts.append(values[r])
        lo = hi
    (users, u), (items, i) = _merged(user_parts), _merged(item_parts)
    ratings = _joined(rating_parts)
    seen = np.zeros(len(users) * len(items), dtype=bool)
    seen[u * len(items) + i] = True
    if np.count_nonzero(seen) < u.size:  # a duplicate pair
        return None
    return users, items, u, i, ratings


def _merged(parts: list) -> tuple[list[str], np.ndarray]:
    """One column over its chunks' ``_distinct_fields``: the distinct texts in
    first-seen order and each line's index into them.  ``parts`` is emptied.

    The chunks' distinct texts are numbered again by their keys, widened to
    the widest chunk's."""
    if len(parts) == 1:
        texts, codes, _ = parts.pop()
        return texts, codes
    rows = sum(len(texts) for texts, _, _ in parts)
    key = np.zeros((rows, max(k.shape[1] for _, _, k in parts)), dtype=np.uint64)
    texts: list[str] = []
    for chunk_texts, _, chunk_key in parts:
        key[len(texts) : len(texts) + len(chunk_texts), : chunk_key.shape[1]] = chunk_key
        texts += chunk_texts
    first, index = _first_seen(key)
    start = 0
    for k, (chunk_texts, local, _) in enumerate(parts):
        local[:] = index[start : start + len(chunk_texts)][local]
        start += len(chunk_texts)
        parts[k] = local
    return list(itertools.compress(texts, first.tolist())), _joined(parts)


def _joined(parts: list) -> np.ndarray:
    """The arrays in ``parts`` end to end; ``parts`` is emptied."""
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return out


def _chunk_fields(data: bytes, lo: int, hi: int, size_limit: int):
    """``_distinct_fields`` of each column of the rating lines ``data[lo:hi]``,
    or None when a line is not exactly user,item,rating, when a line could
    hold a field over the csv module's ``size_limit``, or when a column is
    refused."""
    # Zero bytes past the end, so that a word can be read at any field start.
    raw = np.zeros(hi - lo + _KEY_BYTES, dtype=np.uint8)
    raw[: hi - lo] = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    # Every rating line must be exactly user,item,rating: its delimiters are
    # a comma, a comma and a newline.
    delims = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if delims.size % 3:
        return None
    delims = delims.reshape(-1, 3)
    if np.any((raw[delims] == ord("\n")) != (False, False, True)):
        return None
    ends = delims[:, 2]
    starts = np.concatenate([[0], ends[:-1] + 1])
    # No line long enough to hold a field over the csv module's size limit.
    if (ends - starts).max() >= size_limit:
        return None
    words = np.ndarray((raw.size - 7,), dtype="<u8", buffer=raw, strides=(1,))
    columns = []
    field_starts = (starts, delims[:, 0] + 1, delims[:, 1] + 1)
    for begin, end in zip(field_starts, delims.T):
        column = _distinct_fields(raw, words, begin, end - begin)
        if column is None:
            return None
        columns.append(column)
    return columns


def _distinct_fields(raw: np.ndarray, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The distinct texts of one column in first-seen order, each line's
    index into them and each text's key, or None for a field over _KEY_BYTES
    bytes, bytes that are not UTF-8, or a text with whitespace at an edge (the
    line reader strips labels, so a padded one may merge with another).

    A field is keyed by the words at its start masked to its length; NUL
    never occurs, so equal keys are equal bytes, and a key padded with zero
    words keys the same text.
    """
    width = int(lengths.max())
    if width > _KEY_BYTES:
        return None
    key = np.empty((starts.size, max(1, -(-width // 8))), dtype=np.uint64)
    for w in range(key.shape[1]):
        key[:, w] = words[starts + 8 * w] & _WORD_MASKS[w][lengths]
    # A row-major file repeats each user in a run of lines: key the run heads.
    change = key[1:, 0] != key[:-1, 0]
    for w in range(1, key.shape[1]):
        change |= key[1:, w] != key[:-1, w]
    heads = np.flatnonzero(np.concatenate([[True], change]))
    first, head_codes = _first_seen(key[heads])
    codes = np.repeat(head_codes, np.diff(np.append(heads, starts.size)))
    # Each distinct text once, from its first line, each followed by a newline.
    lines = heads[first]
    text_starts, text_lengths = starts[lines], lengths[lines]
    sizes = text_lengths + 1
    offsets = np.cumsum(sizes) - sizes
    gathered = raw[np.arange(offsets[-1] + sizes[-1]) + np.repeat(text_starts - offsets, sizes)]
    gathered[offsets + text_lengths] = ord("\n")
    try:
        texts = gathered.tobytes().decode("utf-8").split("\n")[:-1]
    except UnicodeDecodeError:
        return None
    # Only a text whose first or last byte may be whitespace can change under
    # strip(); an empty text reads its neighbours here, and strip() keeps it.
    edge = _EDGE_BYTES[raw[text_starts]] | _EDGE_BYTES[raw[text_starts + text_lengths - 1]]
    if any(texts[j] != texts[j].strip() for j in np.flatnonzero(edge).tolist()):
        return None
    return texts, codes, key[lines]


def _first_seen(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a rows x words key array numbered in first-seen
    order: a mask of the rows that hold a key first, and each row's number."""
    if key.shape[1] == 1:
        # The narrowest type that holds the key: numpy sorts 1- and 2-byte
        # keys by radix.
        keys = key[:, 0].astype(np.min_scalar_type(key[:, 0].max()))
    else:
        keys = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # Rank each first occurrence among the first occurrences, in row order.
    mask = np.zeros(key.shape[0], dtype=bool)
    mask[first] = True
    rank = np.cumsum(mask) - 1
    return mask, rank[first][inverse]


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
    # Rows keyed by their bytes, so that 0.0 and -0.0 stay apart.
    a = R.entries
    _, first, inverse = np.unique(
        a.view(np.dtype((np.void, a.itemsize * n)))[:, 0], return_index=True, return_inverse=True
    )
    step = max(1, _WRITE_ENTRIES // n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        # A chunk of rows per write: each distinct row of the chunk is
        # rendered once, and each user's label joins its pieces.
        for lo in range(0, m, step):
            codes = inverse[lo : lo + step].tolist()
            pieces = {
                d: ["", *(f",{i},{r!r}\n" for i, r in zip(items, a[first[d]].tolist()))]
                for d in dict.fromkeys(codes)
            }
            fh.write("".join([u.join(pieces[d]) for u, d in zip(users[lo : lo + step], codes)]))


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
    "find_picky_items",
    "load_ratings_csv",
    "save_ratings_csv",
    "tie_tolerance",
]
