"""Canonical report serialization: stable bytes, bounded float precision.

Reports are plain dicts of JSON-safe values.  Before encoding, every float is
rounded to 12 significant digits (and must be finite), keys are sorted, and
the line terminator is fixed, so the same report serializes to the same bytes
on every platform.  A run report's per-user table and a sweep report's runs
table each have a fixed CSV projection.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

SIG_DIGITS = 12

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
    "round_sig",
    "canonical_json_bytes",
    "per_user_csv_bytes",
    "report_emit",
    "load_report",
    "report_schema",
]


def round_sig(x: float) -> float:
    """Nearest double of x printed at SIG_DIGITS significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"reports carry finite numbers only, got {x}")
    return float(format(x, f".{SIG_DIGITS}g"))


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
    if hasattr(obj, "item"):
        # numpy scalar
        return _canon(obj.item())
    raise TypeError(f"report value of type {type(obj).__name__} is not serializable")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)


class _FloatTexts(dict):
    """Text of each distinct float in one emission, priced once with round_sig.

    ``self[x]`` raises for NaN and inf just as round_sig does.  Zeros are never
    stored under their own key, since 0.0 == -0.0 would share one entry.
    """

    def __init__(self, spec: str):
        super().__init__()
        self.spec = spec

    def __missing__(self, x):
        if x == 0.0:
            key = ("zero", math.copysign(1.0, x))
            if key not in self:
                self[key] = format(round_sig(x), self.spec)
            return self[key]
        text = self[x] = format(round_sig(x), self.spec)
        return text


def _texts(values, exact: dict, other) -> list[str]:
    """Text of each value: ``exact[type(v)]`` for the types it lists, else ``other(v)``."""
    return [exact[type(v)](v) if type(v) in exact else other(v) for v in values]


# Indentation of the per-user table inside the canonical report: rows sit at
# depth 2, their keys at depth 3 and the entries of an item list at depth 4.
_ROW_PAD = "\n    "
_KEY_PAD = "\n      "
_ITEM_PAD = "\n        "
_PER_USER_SLOT = '\n  "per_user": []'
_ROW_KEYS = tuple(sorted(PER_USER_COLUMNS))
_ROW_KEY_SET = frozenset(PER_USER_COLUMNS)
_ROW_TEMPLATE = (
    "{"
    + ",".join(_KEY_PAD + encode_basestring_ascii(k) + ": %s" for k in _ROW_KEYS)
    + _ROW_PAD
    + "}"
)


def _json_value(value, floats: _FloatTexts) -> str:
    """A row value as ``json.dumps(_canon(value), indent=2)`` writes it at key depth.

    Values of exact type int, float or str never get here: ``_texts`` prices them."""
    if value is None:
        return "null"
    if isinstance(value, float):
        return floats[value]
    if isinstance(value, (list, tuple)) and value and all(type(v) is int for v in value):
        return "[" + _ITEM_PAD + ("," + _ITEM_PAD).join(map(int.__repr__, value)) + _KEY_PAD + "]"
    return _dumps(_canon(value)).replace("\n", _KEY_PAD)


def _per_user_json(rows) -> str:
    """The per-user table as the canonical report writes it under ``per_user``;
    every row holds exactly the PER_USER_COLUMNS keys."""
    floats = _FloatTexts("")
    texts = _texts(
        [row[k] for row in rows for k in _ROW_KEYS],
        {float: floats.__getitem__, int: int.__repr__, str: encode_basestring_ascii},
        functools.partial(_json_value, floats=floats),
    )
    table = ("," + _ROW_PAD).join([_ROW_TEMPLATE] * len(rows)) % tuple(texts)
    return "[" + _ROW_PAD + table + "\n  ]"


def canonical_json_bytes(report: dict) -> bytes:
    """``json.dumps(_canon(report), sort_keys=True, indent=2, ensure_ascii=True)``
    plus a newline, as UTF-8; a run report's per-user rows are rendered from
    one template instead of by the stdlib's pure-Python indent encoder."""
    rows = report.get("per_user") if isinstance(report, dict) else None
    if not (
        isinstance(rows, (list, tuple))
        and rows
        and all(isinstance(row, dict) and row.keys() == _ROW_KEY_SET for row in rows)
    ):
        return (_dumps(_canon(report)) + "\n").encode("utf-8")
    table = _per_user_json(rows)
    text = _dumps(_canon({**report, "per_user": []}))
    # Only the top-level key sits at two spaces of indent, so the slot is unique.
    text = text.replace(_PER_USER_SLOT, _PER_USER_SLOT[:-2] + table, 1)
    return (text + "\n").encode("utf-8")


def _cell(value, floats: _FloatTexts) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return floats[value]
    if isinstance(value, (list, tuple)):
        return "|".join(str(int(v)) for v in value)
    return str(value)


def _csv_table(report: dict, key: str, columns: tuple) -> bytes:
    """Fixed-column CSV of the report's ``key`` table."""
    rows = report.get(key)
    if rows is None:
        raise ValueError(f"report has no {key} table to emit as CSV")
    floats = _FloatTexts(f".{SIG_DIGITS}g")
    exact = {float: floats.__getitem__, int: int.__repr__, str: str}
    other = functools.partial(_cell, floats=floats)
    cells = [_texts([row.get(col) for row in rows], exact, other) for col in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells))
    return buf.getvalue().encode("utf-8")


def per_user_csv_bytes(report: dict) -> bytes:
    """Fixed-column CSV projection of the report's per-user table."""
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


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def report_schema() -> dict:
    """The run-report JSON schema shipped with the package."""
    with resources.files("rankgap").joinpath("data", "run_report.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)
