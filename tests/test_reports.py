"""Report serialization: rounding, canonical bytes, CSV projection, schema."""

import csv
import io
import json
import math
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap.reports import (
    PER_USER_COLUMNS,
    SIG_DIGITS,
    PerUserTable,
    _canon,
    canonical_json_bytes,
    per_user_csv_bytes,
    report_emit,
    report_schema,
    round_sig,
)


# ---------------------------------------------------------------------------
# Significant-digit rounding
# ---------------------------------------------------------------------------

def test_round_sig_truncates_to_twelve_digits():
    assert round_sig(0.7540348790056394) == 0.754034879006
    assert round_sig(1.0001249796908003) == 1.00012497969
    assert round_sig(2.0) == 2.0
    assert round_sig(0.0) == 0.0
    assert round_sig(-1.5) == -1.5


def test_round_sig_is_idempotent():
    for x in (math.pi, 1e-13, 123456.789012345, 9.999999999999e11):
        assert round_sig(round_sig(x)) == round_sig(x)


def test_round_sig_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            round_sig(bad)


# ---------------------------------------------------------------------------
# Canonical JSON bytes
# ---------------------------------------------------------------------------

def test_canonical_bytes_ignore_insertion_order():
    a = {"b": 1.23456789012345, "a": [1, 2, {"y": 0.1, "x": 0.2}]}
    b = {"a": [1, 2, {"x": 0.2, "y": 0.1}], "b": 1.23456789012345}
    assert canonical_json_bytes(a) == canonical_json_bytes(b)


def test_canonical_bytes_end_with_one_newline():
    data = canonical_json_bytes({"k": 1})
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    assert b"\r" not in data


def test_canonical_bytes_round_floats_and_accept_numpy():
    report = {
        "x": np.float64(0.7540348790056394),
        "n": np.int64(7),
        "flag": np.bool_(True),
        "arr": [np.float64(1.0), 2],
    }
    decoded = json.loads(canonical_json_bytes(report))
    assert decoded == {"x": 0.754034879006, "n": 7, "flag": True, "arr": [1.0, 2]}


def test_canonical_bytes_stringify_integer_keys():
    decoded = json.loads(canonical_json_bytes({"m": {0: "a", 1: "b"}}))
    assert decoded["m"] == {"0": "a", "1": "b"}


def test_canonical_bytes_reject_key_collisions():
    with pytest.raises(ValueError, match="duplicate key"):
        canonical_json_bytes({"m": {0: "a", "0": "b"}})


def test_canonical_bytes_reject_foreign_types():
    with pytest.raises(TypeError, match="not serializable"):
        canonical_json_bytes({"x": {1, 2}})


def test_canonical_bytes_reject_non_finite_floats():
    with pytest.raises(ValueError, match="finite"):
        canonical_json_bytes({"x": math.inf})


def test_tuples_and_lists_serialize_alike():
    assert canonical_json_bytes({"v": (1, 2)}) == canonical_json_bytes({"v": [1, 2]})


# ---------------------------------------------------------------------------
# Per-user CSV projection
# ---------------------------------------------------------------------------

def test_per_user_csv_layout():
    report = {
        "per_user": [
            {
                "user": 0,
                "class": "majority",
                "truthful_item": 0,
                "truthful_welfare": 1.0,
                "collective_item": 0,
                "collective_welfare": 1.0,
            },
            {
                "user": 400,
                "class": "minority",
                "truthful_item": None,
                "truthful_welfare": 0.25,
                "collective_item": 4,
                "collective_welfare": True,
            },
        ]
    }
    lines = per_user_csv_bytes(report).decode("utf-8").splitlines()
    assert lines[0] == ",".join(PER_USER_COLUMNS)
    assert lines[0] == "user,class,truthful_item,truthful_welfare,collective_item,collective_welfare"
    assert lines[1] == "0,majority,0,1,0,1"
    assert lines[2] == "400,minority,,0.25,4,true"
    assert len(lines) == 3


def test_per_user_csv_requires_the_table():
    with pytest.raises(ValueError, match="per_user"):
        per_user_csv_bytes({"alpha": 2.0})


def test_per_user_csv_joins_item_lists_with_pipes():
    report = {
        "per_user": [
            {
                "user": 1,
                "class": "majority",
                "truthful_item": [0, 2],
                "truthful_welfare": 0.5,
                "collective_item": 0,
                "collective_welfare": 0.5,
            }
        ]
    }
    lines = per_user_csv_bytes(report).decode("utf-8").splitlines()
    assert lines[1] == "1,majority,0|2,0.5,0,0.5"


# ---------------------------------------------------------------------------
# The per-user row renderers against the plain encoders they replace
# ---------------------------------------------------------------------------

def reference_json_bytes(report) -> bytes:
    """The canonical bytes as json's own indent encoder writes them."""
    text = json.dumps(_canon(report), sort_keys=True, indent=2, ensure_ascii=True)
    return (text + "\n").encode("utf-8")


def reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(round_sig(value), f".{SIG_DIGITS}g")
    if isinstance(value, (list, tuple)):
        return "|".join(str(int(v)) for v in value)
    return str(value)


def reference_csv_bytes(report) -> bytes:
    """The per-user CSV written one cell and one row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PER_USER_COLUMNS)
    for row in report["per_user"]:
        writer.writerow([reference_cell(row.get(col)) for col in PER_USER_COLUMNS])
    return buf.getvalue().encode("utf-8")


def outcome(fn, report):
    try:
        return fn(report)
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc)


finite = st.floats(allow_nan=False, allow_infinity=False)
texts = st.text(max_size=6) | st.sampled_from(["majority", "minority", "both", "a,b", 'q"t', "%s", "é", "%%"])
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    finite,
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e308]),
    texts,
    finite.map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
)
item_lists = st.lists(st.integers(0, 10**6), max_size=3)
items = st.one_of(
    st.integers(0, 50),
    item_lists,
    item_lists.map(tuple),
    st.lists(st.integers(0, 9).map(np.int64) | st.booleans(), max_size=2),
)
welfare = st.one_of(st.none(), finite, st.sampled_from([0.0, -0.0, 1.0, 0.25]))


@st.composite
def per_user_rows(draw):
    row = {
        "user": draw(st.integers(0, 10**5)),
        "class": draw(texts),
        "truthful_item": draw(items),
        "truthful_welfare": draw(welfare),
        "collective_item": draw(st.none() | items),
        "collective_welfare": draw(welfare),
    }
    if draw(st.booleans()):
        # Key order differs from row to row; the encoder sorts the keys.
        keys = draw(st.permutations(list(row)))
        row = {k: row[k] for k in keys}
    for key in draw(st.lists(texts, max_size=2)):
        row[key] = draw(scalars | st.lists(scalars, max_size=2) | st.dictionaries(texts, scalars, max_size=2))
    return row


# Rows that are not dicts of the six run keys.
odd_rows = st.one_of(
    scalars, st.lists(scalars, max_size=2), st.dictionaries(st.integers(0, 3), scalars, max_size=2)
)


@st.composite
def run_reports(draw, row=per_user_rows() | odd_rows, min_rows=0):
    rows = draw(st.lists(row, min_size=min_rows, max_size=8))
    if draw(st.booleans()):
        # Rows share a few dicts, as a real table's repeated values do.
        rows = rows + rows[: draw(st.integers(0, len(rows)))]
    report = {
        "kind": "run",
        "truthful": {"alpha": draw(finite), "spectrum": draw(st.lists(finite, max_size=3))},
        "collective": draw(st.none() | st.dictionaries(texts, scalars, max_size=3)),
        "per_user": rows if draw(st.booleans()) else tuple(rows),
        "matrix": {"rows": len(rows), "note": draw(texts)},
    }
    return report


@given(report=run_reports())
@settings(max_examples=150, deadline=None)
def test_row_renderers_match_the_plain_encoders(report):
    assert outcome(canonical_json_bytes, report) == outcome(reference_json_bytes, report)
    assert outcome(per_user_csv_bytes, report) == outcome(reference_csv_bytes, report)


@given(
    report=run_reports(row=per_user_rows(), min_rows=1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
    where=st.sampled_from(["truthful_welfare", "collective_welfare", "extra", "top"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_a_non_finite_number_anywhere_raises(report, bad, where, data):
    rows = list(report["per_user"])
    k = data.draw(st.integers(0, len(rows) - 1))
    row = dict(rows[k])
    if where == "top":
        report["truthful"]["alpha"] = bad
    elif where == "extra":
        row["extra"] = [1, {"x": bad}]
    else:
        row[where] = bad
    rows[k] = row
    report["per_user"] = rows
    with pytest.raises(ValueError, match="finite"):
        canonical_json_bytes(report)
    if where in ("truthful_welfare", "collective_welfare"):
        with pytest.raises(ValueError, match="finite"):
            per_user_csv_bytes(report)


@st.composite
def run_rows(draw):
    """Rows with exactly the six run keys, in any key order: the values cli.run
    writes, and now and then one of the odd scalars (numpy scalars, bools)."""
    row = {
        "user": draw(st.integers(0, 10**5)),
        "class": draw(st.sampled_from(["majority", "minority", "both"]) | texts),
        "truthful_item": draw(items),
        "truthful_welfare": draw(welfare),
        "collective_item": draw(st.none() | items),
        "collective_welfare": draw(welfare),
    }
    for key in draw(st.lists(st.sampled_from(PER_USER_COLUMNS), max_size=2)):
        row[key] = draw(scalars)
    return {key: row[key] for key in draw(st.permutations(PER_USER_COLUMNS))}


@given(
    report=run_reports(row=run_rows(), min_rows=1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("inf")]),
    column=st.sampled_from(["truthful_welfare", "collective_welfare"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_run_rows_render_through_the_one_template(report, bad, column, data):
    assert canonical_json_bytes(report) == reference_json_bytes(report)
    rows = list(report["per_user"])
    k = data.draw(st.integers(0, len(rows) - 1))
    rows[k] = {**rows[k], column: bad}
    with pytest.raises(ValueError, match="finite"):
        canonical_json_bytes({**report, "per_user": rows})


# Welfare values that repeat: signed zeros, and pairs that print alike at 12
# digits but differ in their bits.
WELFARE_POOL = [
    0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 0.25, 1 / 3, 1 / 3 + 1e-16, -2.5, 4.0, 1e-300,
]


@st.composite
def per_user_tables(draw):
    users = draw(st.integers(1, 400))
    k = draw(st.integers(1, 3))
    distinct = draw(st.integers(0, 4)) == 0  # now and then every row differs
    labels = tuple(draw(st.lists(texts, min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def items():
        high = 10**6 if distinct else 3
        picks = rng.integers(0, high, (users, k))
        return picks[:, 0] if k == 1 else picks

    def welfare():
        if distinct:
            return rng.standard_normal(users) * 10.0 ** rng.integers(-5, 6, users)
        return np.array(WELFARE_POOL)[rng.integers(0, len(WELFARE_POOL), users)]

    collective = draw(st.booleans())
    return PerUserTable(
        class_codes=rng.integers(0, len(labels), users),
        class_labels=labels,
        truthful_items=items(),
        truthful_welfare=welfare(),
        collective_items=items() if collective else None,
        collective_welfare=welfare() if collective else None,
    )


@given(table=per_user_tables(), extra=st.dictionaries(texts, scalars, max_size=2))
@settings(max_examples=120, deadline=None)
def test_table_renders_the_bytes_of_its_rows(table, extra):
    users = len(table.class_codes)
    absent = [None] * users
    side = (
        (table.collective_items.tolist(), table.collective_welfare.tolist())
        if table.collective_items is not None
        else (absent, absent)
    )
    expected = [
        dict(zip(PER_USER_COLUMNS, (u, table.class_labels[c], *values)))
        for u, c, *values in zip(
            range(users),
            table.class_codes.tolist(),
            table.truthful_items.tolist(),
            table.truthful_welfare.tolist(),
            *side,
        )
    ]
    assert table.rows() == expected
    report = {**extra, "kind": "run", "per_user": table}
    as_rows = {**report, "per_user": expected}
    assert canonical_json_bytes(report) == reference_json_bytes(as_rows)
    assert per_user_csv_bytes(report) == reference_csv_bytes(as_rows)


@given(
    table=per_user_tables(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    side=st.sampled_from(["truthful", "collective"]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_a_non_finite_welfare_in_a_table_raises(table, bad, side, data):
    welfare = getattr(table, f"{side}_welfare")
    if welfare is None:
        side, welfare = "truthful", table.truthful_welfare
    welfare = welfare.copy()
    welfare[data.draw(st.integers(0, len(welfare) - 1))] = bad
    fields = {f: getattr(table, f) for f in PerUserTable.__dataclass_fields__}
    report = {"per_user": PerUserTable(**{**fields, f"{side}_welfare": welfare})}
    with pytest.raises(ValueError, match="finite"):
        canonical_json_bytes(report)
    with pytest.raises(ValueError, match="finite"):
        per_user_csv_bytes(report)


def test_distinct_bodies_survive_a_row_key_wider_than_64_bits():
    # Two class labels and eight columns of 256 values each: the mixed-radix
    # row key spans 2 * 256**8 = 2**65 values, so rows that differ only in
    # their class would share a key modulo 2**64.
    values = np.tile(np.arange(256), 2)
    picks = np.stack([values] * 3, axis=1)
    table = PerUserTable(
        np.repeat([0, 1], 256), ("a", "b"), picks, values / 7, picks, values / 3
    )
    report = {"per_user": table}
    as_rows = {"per_user": table.rows()}
    assert canonical_json_bytes(report) == reference_json_bytes(as_rows)
    assert per_user_csv_bytes(report) == reference_csv_bytes(as_rows)


def test_table_columns_are_read_only_copies():
    codes = np.array([0, 1])
    table = PerUserTable(codes, ["a", "b"], [3, 4], (0.5, 1.0))
    codes[0] = 1
    assert table.rows()[0] == {
        "user": 0,
        "class": "a",
        "truthful_item": 3,
        "truthful_welfare": 0.5,
        "collective_item": None,
        "collective_welfare": None,
    }
    with pytest.raises(ValueError):
        table.truthful_welfare[0] = 2.0


def test_an_empty_table_emits_like_an_empty_list():
    table = PerUserTable(np.zeros(0, int), ("a",), np.zeros(0, int), np.zeros(0))
    report = {"kind": "run", "per_user": table}
    assert canonical_json_bytes(report) == reference_json_bytes({**report, "per_user": []})
    assert per_user_csv_bytes(report) == reference_csv_bytes({**report, "per_user": []})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"class_codes": [0, 2]}, "class codes must index"),
        ({"class_codes": [-1, 0]}, "class codes must index"),
        ({"class_labels": ("a", 1)}, "labels must be strings"),
        ({"truthful_items": [0, 1, 2]}, "truthful_items has 3 rows, expected 2"),
        ({"truthful_items": [0.0, 1.0]}, "truthful_items has dtype float64"),
        ({"truthful_items": np.zeros((2, 0), int)}, "holds no picks"),
        ({"truthful_welfare": [1, 2]}, "truthful_welfare has dtype int64"),
        ({"truthful_welfare": [[1.0], [2.0]]}, "truthful_welfare has dtype float64 and shape"),
        ({"collective_items": [0, 1]}, "go together"),
    ],
)
def test_table_rejects_malformed_columns(fields, message):
    valid = {
        "class_codes": [0, 1],
        "class_labels": ("a", "b"),
        "truthful_items": [0, 1],
        "truthful_welfare": [0.5, 1.0],
    }
    with pytest.raises(ValueError, match=message):
        PerUserTable(**{**valid, **fields})


def test_row_renderer_keeps_signed_zeros_apart():
    rows = [
        {"user": u, "w": w, "v": [u, 2 * u]} for u, w in enumerate([0.0, -0.0, 0.0, -0.0])
    ]
    report = {"per_user": rows}
    assert canonical_json_bytes(report) == reference_json_bytes(report)
    assert b"-0.0" in canonical_json_bytes(report)
    csv_rows = [dict(r, truthful_welfare=r["w"]) for r in rows]
    lines = per_user_csv_bytes({"per_user": csv_rows}).decode().splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == ["0", "-0", "0", "-0"]
    # A table's distinct bodies are told apart bit for bit, so its zeros stay apart too.
    zeros = [0.0, -0.0, 0.0, -0.0]
    items = np.zeros(4, int)
    table = PerUserTable(items, ("a",), items, zeros, items + 1, zeros[::-1])
    report, as_rows = {"per_user": table}, {"per_user": table.rows()}
    assert canonical_json_bytes(report) == reference_json_bytes(as_rows)
    assert per_user_csv_bytes(report) == reference_csv_bytes(as_rows)
    signs = [
        [math.copysign(1.0, row[f"{side}_welfare"]) for side in ("truthful", "collective")]
        for row in json.loads(canonical_json_bytes(report))["per_user"]
    ]
    assert signs == [[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]
    lines = per_user_csv_bytes(report).decode().splitlines()
    assert [line.split(",")[3::2] for line in lines[1:]] == [["0", "-0"], ["-0", "0"]] * 2


def test_a_report_without_a_per_user_list_is_dumped_whole():
    for report in ({"per_user": 3, "x": 0.5}, {"per_user": []}, {"per_user": None}, [1.5, {"a": 2}]):
        assert canonical_json_bytes(report) == reference_json_bytes(report)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_emit_writes_canonical_json(tmp_path):
    report = {"alpha": 2.1, "z": 1, "a": [0.1]}
    path = report_emit(report, "json", tmp_path / "nested" / "dir", "run")
    assert path.name == "run.json"
    assert path.read_bytes() == canonical_json_bytes(report)


def test_emit_writes_the_csv_projection(tmp_path):
    report = {
        "per_user": [
            {
                "user": 0,
                "class": "majority",
                "truthful_item": 0,
                "truthful_welfare": 1.0,
                "collective_item": 0,
                "collective_welfare": 1.0,
            }
        ]
    }
    path = report_emit(report, "csv", tmp_path, "run")
    assert path.read_bytes() == per_user_csv_bytes(report)


def test_emit_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError, match="json or csv"):
        report_emit({}, "yaml", tmp_path, "run")


# ---------------------------------------------------------------------------
# Shipped schema
# ---------------------------------------------------------------------------

def test_schema_loads_and_validates_itself():
    schema = report_schema()
    assert schema["$schema"] == "http://json-schema.org/draft-07/schema#"
    jsonschema.Draft7Validator.check_schema(schema)


def test_schema_rejects_a_malformed_report():
    schema = report_schema()
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"preset": "multigroup"}, schema)


def test_table_report_json_peaks_near_its_text_and_bytes(tmp_path):
    """The collective report of a written 20,005-user indicator file (3.6 MB
    of JSON) is emitted at under 2.5 times its size traced, where splicing
    the table into the report's text took 3.0."""
    from rankgap.cli import run
    from rankgap.generators import indicator_scenario
    from rankgap.matrix import save_ratings_csv
    from rankgap.scenario import generate_scenario

    R, _ = indicator_scenario((5000,) * 4, (4, 1))
    save_ratings_csv(tmp_path / "r.csv", R)
    matrix = {"family": "csv", "path": str(tmp_path / "r.csv"), "m_bar": 20000, "n_bar": 4}
    strategy = {"selector": {"kind": "stratified", "fraction": 0.25}}
    doc = {"name": "big", "seed": 0, "alpha": 2.1, "matrix": matrix, "strategy": strategy}
    report = run(generate_scenario(doc))
    assert len(report["per_user"]) == 20005 and report["per_user"].collective_items is not None
    tracemalloc.start()
    try:
        data = canonical_json_bytes(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == (json.dumps(_canon(report), sort_keys=True, indent=2) + "\n").encode()
    assert peak < 2.5 * len(data)
