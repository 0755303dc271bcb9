"""Canonical report serialization: stable bytes, bounded float precision.

Reports are plain dicts of JSON-safe values, except that a run report may
hold its per-user table as a :class:`PerUserTable` of columns.  Before
encoding, every float is rounded to 12 significant digits (and must be
finite), keys are sorted, and the line terminator is fixed, so the same
report serializes to the same bytes on every platform.  A run report's
per-user table and a sweep report's runs table each have a fixed CSV
projection.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SIG_DIGITS = 12
_SIG_SPEC = f".{SIG_DIGITS}g"

PER_USER_COLUMNS = (
    "user",
    "class",
    "truthful_item",
    "truthful_welfare",
    "collective_item",
    "collective_welfare",
)

SWEEP_COLUMNS = ("id", "alpha", "chosen_rank", "tvr", "social_welfare")

__all__ = [
    "SIG_DIGITS",
    "PER_USER_COLUMNS",
    "SWEEP_COLUMNS",
    "PerUserTable",
    "round_sig",
    "canonical_json_bytes",
    "per_user_csv_bytes",
    "report_emit",
    "report_schema",
]


def round_sig(x: float) -> float:
    """Nearest double of x printed at SIG_DIGITS significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"reports carry finite numbers only, got {x}")
    return float(format(x, _SIG_SPEC))


def _column(values, name: str, kinds: str, dtype, users: int | None, ndims=(1,)) -> np.ndarray:
    """A read-only copy of one table column, checked for its dtype kind, rank and length."""
    out = np.array(values)
    if out.dtype.kind not in kinds or out.ndim not in ndims:
        raise ValueError(f"per-user column {name} has dtype {out.dtype} and shape {out.shape}")
    if users is not None and len(out) != users:
        raise ValueError(f"per-user column {name} has {len(out)} rows, expected {users}")
    out = out.astype(dtype, casting="safe")
    out.flags.writeable = False
    return out


def _codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """An integer code per entry of a 1-D column and the number of distinct
    codes; floats are told apart bit for bit, so 0.0 and -0.0 differ."""
    if column.dtype.kind == "f":
        column = column.view(np.int64)
    distinct, codes = np.unique(column, return_inverse=True)
    return codes, len(distinct)


@dataclass(frozen=True, eq=False)
class PerUserTable:
    """A run report's per-user table, held as read-only columns.

    Row u is user u.  ``class_codes[u]`` indexes ``class_labels``.  An item
    column holds one item per user (shape m) at top_k 1, else one row of
    picks per user (shape m x k).  The collective columns are both None for
    a truthful-only run.  :meth:`rows` gives the row dicts the table stands
    for; the emitters render each distinct row body once instead.  Tables
    compare by identity.
    """

    class_codes: np.ndarray
    class_labels: tuple[str, ...]
    truthful_items: np.ndarray
    truthful_welfare: np.ndarray
    collective_items: np.ndarray | None = None
    collective_welfare: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = tuple(self.class_labels)
        if not all(type(label) is str for label in labels):
            raise ValueError("per-user class labels must be strings")
        codes = _column(self.class_codes, "class_codes", "iu", np.intp, None)
        if codes.size and not 0 <= codes.min() <= codes.max() < len(labels):
            raise ValueError(f"per-user class codes must index the {len(labels)} labels")
        if (self.collective_items is None) != (self.collective_welfare is None):
            raise ValueError("per-user collective items and welfare go together")
        users = len(codes)
        fields = {"class_codes": codes, "class_labels": labels}
        for side in ("truthful", "collective"):
            items, welfare = getattr(self, f"{side}_items"), getattr(self, f"{side}_welfare")
            if items is not None:
                items = fields[f"{side}_items"] = _column(
                    items, f"{side}_items", "iu", np.intp, users, ndims=(1, 2)
                )
                if items.ndim == 2 and items.shape[1] < 1:
                    raise ValueError(f"per-user column {side}_items holds no picks")
                fields[f"{side}_welfare"] = _column(
                    welfare, f"{side}_welfare", "f", np.float64, users
                )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.class_codes)

    def rows(self) -> list[dict]:
        """The table as one dict per user, keyed by PER_USER_COLUMNS."""
        return [
            dict(zip(PER_USER_COLUMNS, row))
            for row in zip(range(len(self)), *self._columns(slice(None)))
        ]

    def _columns(self, rows) -> list[list]:
        """The values at ``rows`` of each column but ``user``, in PER_USER_COLUMNS order."""
        labels = self.class_labels
        columns = [
            [labels[c] for c in self.class_codes[rows].tolist()],
            self.truthful_items[rows].tolist(),
            self.truthful_welfare[rows].tolist(),
        ]
        if self.collective_items is None:
            return columns + [[None] * len(columns[0])] * 2
        return columns + [
            self.collective_items[rows].tolist(),
            self.collective_welfare[rows].tolist(),
        ]

    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row of each distinct row body (every column but ``user``),
        and for each row the number of its body in that order."""
        key, bound = self.class_codes, len(self.class_labels)
        columns = [self.truthful_items, self.truthful_welfare]
        if self.collective_items is not None:
            columns += [self.collective_items, self.collective_welfare]
        # An m x k item column is keyed as k columns of one pick each.
        parts = [part for c in columns for part in (c.T if c.ndim == 2 else [c])]
        for codes, count in map(_codes, parts):
            if bound * count > 2**62:
                distinct, key = np.unique(key, return_inverse=True)
                bound = len(distinct)
            key = key * count + codes
            bound *= count
        _, first, body = np.unique(key, return_index=True, return_inverse=True)
        return first, body


def _canon(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                key = str(key)
            if key in out:
                raise ValueError(f"duplicate key {key!r} after string conversion")
            out[key] = _canon(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, PerUserTable):
        return _canon(obj.rows())
    if hasattr(obj, "item"):
        # numpy scalar
        return _canon(obj.item())
    raise TypeError(f"report value of type {type(obj).__name__} is not serializable")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)


# Indentation of the per-user table inside the canonical report: rows sit at
# depth 2, so a row's own encoding is indented by two levels.
_ROW_PAD = "\n    "
_PER_USER_SLOT = '\n  "per_user": []'
_ROW_END = _ROW_PAD + "}"
_ROW_SEP = _ROW_END + "," + _ROW_PAD


def _table_json(table: PerUserTable, head: str, tail: str) -> str:
    """``head``, then ``table.rows()`` as the canonical report writes it under
    ``per_user``, then ``tail``, in one join.

    Each distinct row body is encoded once by ``_dumps``, as the row of user 0.
    "user" sorts last among PER_USER_COLUMNS, so that text cut at its last
    ``"user": `` is the head every row with that body shares."""
    first, body = table._distinct()
    heads = []
    for values in zip(*table._columns(first)):
        text = _dumps(_canon(dict(zip(PER_USER_COLUMNS, (0, *values)))))
        text = text.replace("\n", _ROW_PAD)
        heads.append(_ROW_SEP + text[: text.rindex('"user": ') + len('"user": ')])
    # Row u is the end of row u - 1, its body's head and then u.
    pieces = [""] * (2 * len(body) + 1)
    pieces[0:-1:2] = [heads[b] for b in body.tolist()]
    pieces[1::2] = map(str, range(len(body)))
    pieces[0] = head + "[" + _ROW_PAD + pieces[0][len(_ROW_SEP) :]
    pieces[-1] = _ROW_END + "\n  ]" + tail
    return "".join(pieces)


def canonical_json_bytes(report: dict) -> bytes:
    """``json.dumps(_canon(report), sort_keys=True, indent=2, ensure_ascii=True)``
    plus a newline, as UTF-8; those bytes are the contract.  A nonempty
    :class:`PerUserTable` under ``per_user`` is written from its columns to the
    same bytes, the encoder writing each distinct row body once rather than
    every row.  The report's text is then one join of the rest of the report,
    the row heads and the user ids, encoded once; per-user rows held as dicts
    take the encoder whole."""
    table = report.get("per_user") if isinstance(report, dict) else None
    if not (isinstance(table, PerUserTable) and len(table)):
        return (_dumps(_canon(report)) + "\n").encode("utf-8")
    text = _dumps(_canon({**report, "per_user": []}))
    # Only the top-level key sits at two spaces of indent, so the slot is unique.
    at = text.index(_PER_USER_SLOT) + len(_PER_USER_SLOT) - 2
    return _table_json(table, text[:at], text[at + 2 :] + "\n").encode("utf-8")


def _cell(value) -> str:
    """The CSV text of one table value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(round_sig(value), _SIG_SPEC)
    if isinstance(value, (list, tuple)):
        return "|".join(str(int(v)) for v in value)
    return str(value)


def _csv_table(report: dict, key: str, columns: tuple) -> bytes:
    """Fixed-column CSV of the report's ``key`` table."""
    rows = report.get(key)
    if rows is None:
        raise ValueError(f"report has no {key} table to emit as CSV")
    cells = [[_cell(row.get(col)) for row in rows] for col in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buf.getvalue().encode("utf-8")


def _table_csv(table: PerUserTable) -> str:
    """The text of ``_csv_table`` of ``table.rows()``: each distinct row body is
    written once, and each line is its user id, a comma and its body."""
    first, body = table._distinct()
    lines = []
    # The csv writer hands each row to write() whole, line end included.
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(PER_USER_COLUMNS)
    writer.writerows(zip(*([_cell(v) for v in values] for values in table._columns(first))))
    bodies = ["," + line for line in lines[1:]]
    # The header, then each user id and its body, in one join.
    pieces = [""] * (2 * len(body) + 1)
    pieces[0] = lines[0]
    pieces[1::2] = map(str, range(len(body)))
    pieces[2::2] = [bodies[b] for b in body.tolist()]
    return "".join(pieces)


def per_user_csv_bytes(report: dict) -> bytes:
    """Fixed-column CSV projection of the report's per-user table."""
    table = report.get("per_user")
    if isinstance(table, PerUserTable):
        return _table_csv(table).encode("utf-8")
    return _csv_table(report, "per_user", PER_USER_COLUMNS)


def report_emit(report: dict, fmt: str, out_dir, name: str) -> Path:
    """Write the report under out_dir as <name>.<fmt>; returns the path.

    As CSV, a sweep report is its runs table and any other report its
    per-user table."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.{fmt}"
    if fmt == "json":
        data = canonical_json_bytes(report)
    elif report.get("kind") == "sweep":
        data = _csv_table(report, "runs", SWEEP_COLUMNS)
    else:
        data = per_user_csv_bytes(report)
    path.write_bytes(data)
    return path


def report_schema() -> dict:
    """The run-report JSON schema shipped with the package."""
    with resources.files("rankgap").joinpath("data", "run_report.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)
