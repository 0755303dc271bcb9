"""End-to-end command line checks: presets, configs, reports, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import warnings
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankgap import cli
from rankgap.cli import PRESETS, Scenario, generate_scenario, main, run, sweep
from rankgap.collective import apply_uprating
from rankgap.learner import choose_rank
from rankgap.matrix import (
    TIE_RTOL,
    load_ratings_csv,
    singular_values_of,
    spectral,
    tie_tolerance,
)
from rankgap.popgap import PopularitySplit
from rankgap.reports import canonical_json_bytes, report_schema, round_sig

FINDER_ARGS = [
    "--sigma-kmaj", "10.0",
    "--alpha", "2.1",
    "--n-bar", "4",
    "--picky-col-sq", "4.0",
    "--av", "25.0",
    "--kappa", "1.0",
    "--coll-size", "100",
]


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

def test_scenario_round_trips_through_its_dict_form():
    doc = PRESETS["multigroup"]
    scenario = Scenario.from_dict(doc)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    assert scenario.alpha == 2.1 and scenario.seed == 0 and scenario.top_k == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"matrix": {"family": "paired"}}, "require a seed"),
        ({"seed": 0}, "must be an object with a family"),
        ({"seed": 0, "matrix": {"family": "mystery"}}, "unknown matrix family"),
        (
            {"seed": 0, "matrix": {"family": "paired"}, "bogus": 1},
            "unknown scenario keys",
        ),
        (
            {"seed": 0, "matrix": {"family": "paired"}, "alpha_sweep": {"start": 1.0}},
            "missing",
        ),
        (
            {
                "seed": 0,
                "matrix": {"family": "paired"},
                "alpha_sweep": {"start": 1.0, "stop": 2.0, "step": 0.0},
            },
            "step must be positive",
        ),
        ({"seed": 0, "matrix": {"family": "paired"}, "top_k": 0}, "top_k"),
    ],
)
def test_scenario_validation_errors(doc, message):
    with pytest.raises(ValueError, match=message):
        Scenario.from_dict(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "must be a JSON object"),
        ({"seed": 1, "matrix": {"family": "paired"}, "alpha": 1.5}, "requires"),
        ({"seed": 1, "matrix": {"family": "paired", "m_maj": 2}}, "m_minor"),
        ({"seed": 1, "matrix": {"family": "indicator", "niche_sizes": [1]}}, "popular_sizes"),
        ({"seed": 1, "matrix": {"family": "csv", "path": "x.csv"}}, "m_bar"),
    ],
)
def test_malformed_scenario_documents_are_clean_errors(tmp_path, capsys, doc, message):
    config = write_config(tmp_path, doc)
    for argv in (["run", "--config", config], ["run", "--config", config, "--seed", "2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_generated_scenarios_are_seed_deterministic():
    doc = {"name": "br", "seed": 42, "matrix": {"family": "block_random"}}
    first = generate_scenario(doc)
    second = generate_scenario(doc)
    assert np.array_equal(first.matrix.entries, second.matrix.entries)
    assert first.drawn_alpha == second.drawn_alpha


# ---------------------------------------------------------------------------
# run: the multigroup preset end to end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def multigroup_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("multigroup")
    assert main(["run", "--preset", "multigroup", "--out", str(out)]) == 0
    path = out / "multigroup.report.json"
    return json.loads(path.read_text(encoding="utf-8")), path.read_bytes(), out


def test_multigroup_truthful_side(multigroup_report):
    report, _, _ = multigroup_report
    t = report["truthful"]
    assert t["chosen_rank"] == 4
    assert t["alpha"] == 2.1
    assert t["spectrum"] == [10.0, 10.0, 10.0, 10.0, 2.0, 1.0]
    assert t["tvr"] == 0.93023255814
    assert t["gap_interval"] == [2.0, 10.0]
    assert t["social_welfare"] == 400.0
    assert t["u_ben"] == 400.0
    assert t["u_en"] == 405.0
    assert report["matrix"] == {
        "rows": 405,
        "cols": 6,
        "majority_users": 400,
        "minority_users": 5,
        "majority_items": 4,
        "minority_items": 2,
    }


def test_multigroup_collective_side(multigroup_report):
    report, _, _ = multigroup_report
    c = report["collective"]
    assert c["chosen_rank"] == 5
    assert c["eta"] == 0.754034879006
    assert c["eta_source"] == "auto"
    assert c["target_item"] == 4
    assert c["collective_size"] == 100
    assert c["spectrum"][:6] == [11.0863636199, 10.0, 10.0, 10.0, 6.16030856077, 1.0]
    assert c["gap_interval"] == [2.0, 4.81197630142]
    assert c["social_welfare"] == 404.0
    assert c["sw_delta"] == 4.0
    assert c["ratio"] == 1.01
    assert c["u_en_delta"] == 75.4034879006
    assert c["verdicts"] == {
        "alpha_above_minority": True,
        "alpha_in_new_gap": True,
        "eta_below_kappa": True,
    }
    assert c["margins"] == {
        "alpha_above_minority": 0.1,
        "alpha_in_new_gap": 18.7451159254,
        "eta_below_kappa": 0.245965120994,
    }
    assert c["robustness_margin"] == 0.361520744347
    assert c["finder_inputs"] == {
        "sigma_kmaj": 10.0,
        "alpha": 2.1,
        "n_bar": 4,
        "picky_col_sq": 4.0,
        "av": 25.0,
        "kappa": 1.0,
        "coll_size": 100,
    }


def test_multigroup_per_user_rows(multigroup_report):
    report, _, _ = multigroup_report
    rows = report["per_user"]
    assert len(rows) == 405
    assert rows[0] == {
        "user": 0,
        "class": "majority",
        "truthful_item": 0,
        "truthful_welfare": 1.0,
        "collective_item": 0,
        "collective_welfare": 1.0,
    }
    # the picky user flips to the uprated niche item she truly loves
    assert rows[400] == {
        "user": 400,
        "class": "minority",
        "truthful_item": 0,
        "truthful_welfare": 0.0,
        "collective_item": 4,
        "collective_welfare": 1.0,
    }
    # the singleton niche user gains nothing either way
    assert rows[404] == {
        "user": 404,
        "class": "minority",
        "truthful_item": 0,
        "truthful_welfare": 0.0,
        "collective_item": 0,
        "collective_welfare": 0.0,
    }


def reference_per_user(mat) -> list[dict]:
    """The per-user rows as run() built them before the columnar table: the
    same fits, then one dict per user."""
    alpha = cli._resolve_alpha(mat)
    _, truthful, truthful_welfare = cli._run_side(mat, mat.matrix, alpha)

    def items(outcome):
        chosen = outcome.chosen
        return (chosen[:, 0] if outcome.k_items == 1 else chosen).tolist()

    users = mat.matrix.rows
    collective_items = collective_welfares = [None] * users
    if mat.scenario.strategy_spec is not None:
        strategy, _, _, _ = cli._resolve_strategy(mat, alpha)
        revealed = apply_uprating(mat.matrix, mat.partition, strategy)
        _, collective, collective_welfare = cli._run_side(mat, revealed, alpha)
        collective_items = items(collective)
        collective_welfares = collective_welfare.per_user_welfare.tolist()
    if mat.partition is not None:
        labels = np.full(users, "minority")
        labels[mat.partition.majority_user_index] = "majority"
    else:
        majority, minority = PopularitySplit(mat.matrix, mat.n_bar).class_masks
        labels = np.select([majority & minority, majority], ["both", "majority"], "minority")
    return [
        {
            "user": u,
            "class": label,
            "truthful_item": t_item,
            "truthful_welfare": t_welfare,
            "collective_item": c_item,
            "collective_welfare": c_welfare,
        }
        for u, label, t_item, t_welfare, c_item, c_welfare in zip(
            range(users),
            labels.tolist(),
            items(truthful),
            truthful_welfare.per_user_welfare.tolist(),
            collective_items,
            collective_welfares,
        )
    ]


@pytest.mark.parametrize(
    "doc",
    [
        *(dict(PRESETS[name], top_k=k) for name in ("paired", "multigroup") for k in (1, 2)),
        *({"name": "gc", "seed": seed, "matrix": {"family": "gap_class"}} for seed in (1, 3)),
    ],
    ids=["paired-k1", "paired-k2", "multigroup-k1", "multigroup-k2", "gap_class-1", "gap_class-3"],
)
def test_run_table_rows_match_the_per_user_dicts(doc):
    mat = generate_scenario(doc)
    rows = run(mat)["per_user"].rows()
    expected = reference_per_user(mat)
    assert rows == expected
    types = [[type(v) for v in row.values()] for row in rows]
    assert types == [[type(v) for v in row.values()] for row in expected]
    assert [list(row) for row in rows] == [list(row) for row in expected]


def test_multigroup_report_bytes_are_reproducible(multigroup_report):
    report, raw, out = multigroup_report
    assert main(["run", "--preset", "multigroup", "--out", str(out)]) == 0
    assert (out / "multigroup.report.json").read_bytes() == raw
    assert raw == canonical_json_bytes(report)


TOP_K2_DOC = {
    "name": "topk2",
    "seed": 3,
    "matrix": {"family": "indicator", "popular_sizes": [100, 90, 80, 70], "niche_sizes": [4, 1]},
    "alpha": 2.1,
    "alpha_sweep": {"start": 1.0, "stop": 3.6, "step": 0.2},
    "strategy": {
        "target_item": "picky",
        "selector": {"kind": "stratified", "fraction": 0.25},
        "eta": "auto",
    },
    "top_k": 2,
}
# SHA-256 of each report file; a change that alters a single report byte fails here.
REPORT_DIGESTS = {
    "multigroup.report.json": "9a063142514edff777363eb565e9d2fa109ddde7a50aa6033c11497b840b47e3",
    "multigroup.report.csv": "4701fe547ef37be3fab21435ffac7fbeca64013093b8a319c7e2893aa4c27e7e",
    "paired.report.json": "69a37ce84c26ac13cdd709f41845caedc1384333a5a54a9a6e22864392c7b70e",
    "paired.report.csv": "eea703e121d9fe794174d458ce89b78954590887d1141272588647bce7ad341e",
    "topk2.report.json": "b14e135e5f13e300b7b8053f59dfd4e1c56b2cf182357e3d27499c147198178e",
    "topk2.report.csv": "6d8cf557cc6605c9ec7901855659ab82a55b18ec45cb32c4c08967961150d882",
    "topk2.sweep.json": "9701a2bfd78aa81ca083178d53d004937cccf29e37e5c7db7a95e7be82d53d4d",
    "topk2.sweep.csv": "627c5bb68e0e75f74b389be731f253b33e13f693ece77555cf0948d20cefa0b1",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_are_pinned(tmp_path, capsys, fmt):
    out = str(tmp_path / "out")
    config = write_config(tmp_path, TOP_K2_DOC)
    for argv in (
        ["run", "--preset", "multigroup"],
        ["run", "--preset", "paired"],
        ["run", "--config", config],
        ["sweep", "--config", config],
    ):
        assert main([*argv, "--out", out, "--format", fmt]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == {k: v for k, v in REPORT_DIGESTS.items() if k.endswith(f".{fmt}")}


def test_multigroup_report_validates_against_the_schema(multigroup_report):
    report, _, _ = multigroup_report
    jsonschema.validate(report, report_schema())


def test_multigroup_csv_projection(tmp_path):
    assert (
        main(["run", "--preset", "multigroup", "--out", str(tmp_path), "--format", "csv"])
        == 0
    )
    lines = (tmp_path / "multigroup.report.csv").read_text().splitlines()
    assert lines[0] == "user,class,truthful_item,truthful_welfare,collective_item,collective_welfare"
    assert len(lines) == 406
    assert lines[1] == "0,majority,0,1,0,1"
    assert lines[401] == "400,minority,0,0,4,1"
    assert lines[405] == "404,minority,0,0,0,0"


# ---------------------------------------------------------------------------
# run: the paired preset
# ---------------------------------------------------------------------------

def test_paired_preset_run(tmp_path, capsys):
    assert main(["run", "--preset", "paired", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out
    assert "truthful: rank 2, social welfare 8.0" in stdout
    report = json.loads((tmp_path / "paired.report.json").read_text())
    t = report["truthful"]
    assert t["chosen_rank"] == 2
    assert t["spectrum"] == [2.0, 2.0, 1.0, 1.0]
    assert t["tvr"] == 0.666666666667
    assert t["gap_interval"] == [1.0, 2.0]
    assert t["social_welfare"] == 8.0
    assert report["collective"] is None
    assert report["per_user"][0]["collective_item"] is None
    assert report["per_user"][8] == {
        "user": 8,
        "class": "minority",
        "truthful_item": 0,
        "truthful_welfare": 0.0,
        "collective_item": None,
        "collective_welfare": None,
    }


# ---------------------------------------------------------------------------
# generate and the csv matrix family
# ---------------------------------------------------------------------------

def test_generate_then_reload_from_csv_matches_the_preset(tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["generate", "--preset", "paired", "--out", str(gen_dir)]) == 0
    csv_path = gen_dir / "paired.ratings.csv"
    doc_path = gen_dir / "paired.scenario.json"
    assert csv_path.exists() and doc_path.exists()

    saved_doc = json.loads(doc_path.read_text())
    assert Scenario.from_dict(saved_doc) == Scenario.from_dict(PRESETS["paired"])
    matrix, _, _ = load_ratings_csv(csv_path)
    assert matrix.shape == (10, 4)

    config = write_config(
        tmp_path,
        {
            "name": "fromcsv",
            "seed": 0,
            "matrix": {"family": "csv", "path": str(csv_path), "m_bar": 8, "n_bar": 2},
            "alpha": 1.5,
            "top_k": 1,
        },
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    assert main(["run", "--preset", "paired", "--out", str(tmp_path)]) == 0
    from_csv = json.loads((tmp_path / "fromcsv.report.json").read_text())
    preset = json.loads((tmp_path / "paired.report.json").read_text())
    assert from_csv["truthful"] == preset["truthful"]
    assert from_csv["per_user"] == preset["per_user"]


# Each fault makes a ratings CSV unreadable; the noise only moves it off the
# one-pass reader.  Faulty rows carry a new user, so no other fault hides them.
CSV_FAULTS = {
    "duplicate": lambda lines: lines + [lines[1]],
    "nan": lambda lines: lines + ["new,0,nan"],
    "inf": lambda lines: lines + ["new,0,-inf"],
    "plus_inf": lambda lines: lines + ["new,0,inf"],
    "upper_nan": lambda lines: lines + ["new,0,NaN"],
    "text": lambda lines: lines + ["new,0,high"],
    "negative": lambda lines: lines + ["new,0,-1.0"],
    "extra_field": lambda lines: lines + ["new,0,1.0,1"],
    "missing_field": lambda lines: lines + ["new,0"],
    "quoted_comma": lambda lines: lines + ['new,0,"1,5"'],
    "header": lambda lines: ["user,item,score"] + lines[1:],
    "no_rows": lambda lines: lines[:1],
    "long_field": lambda lines: lines + ["u" * 200_000 + ",0,1.0"],
}
# Faults the line-numbered reader pins to the faulty row, the file's last line.
CSV_LINE_FAULTS = {
    "duplicate", "nan", "inf", "plus_inf", "upper_nan", "text", "negative",
    "extra_field", "missing_field", "quoted_comma", "long_field",
}
# The rating each bad-rating fault appends, and what the error calls it.
CSV_RATING_FAULTS = {
    "nan": ("nan", "not finite"),
    "inf": ("-inf", "not finite"),
    "plus_inf": ("inf", "not finite"),
    "upper_nan": ("NaN", "not finite"),
    "text": ("high", "not a number"),
    "negative": ("-1.0", "negative"),
}
CSV_NOISE = {
    "none": lambda lines: lines,
    "blank": lambda lines: lines[:2] + [""] + lines[2:],
    "quoted": lambda lines: lines[:1] + ['"' + lines[1].replace(",", '",', 1)] + lines[2:],
    "padded": lambda lines: lines[:1] + [" " + lines[1]] + lines[2:],
}


@given(
    fault=st.sampled_from(sorted(CSV_FAULTS)),
    noise=st.sampled_from(sorted(CSV_NOISE)),
    end=st.sampled_from(["\n", "\r\n"]),
    not_utf8=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_each_malformed_ratings_csv_is_one_error_line(tmp_path_factory, fault, noise, end, not_utf8):
    out = tmp_path_factory.mktemp("badcsv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--preset", "paired", "--out", str(out)]) == 0
    path = out / "paired.ratings.csv"
    lines = CSV_FAULTS[fault](CSV_NOISE[noise](path.read_text().splitlines()))
    data = (end.join(lines) + end).encode("utf-8")
    if not_utf8:
        data = data[:20] + b"\xff" + data[20:]
    path.write_bytes(data)
    doc = {
        "name": "badcsv",
        "seed": 0,
        "matrix": {"family": "csv", "path": str(path), "m_bar": 8, "n_bar": 2},
        "alpha": 1.5,
    }
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        code = main(["run", "--config", write_config(out, doc), "--out", str(out)])
    assert code == 1 and stdout.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not (out / "badcsv.report.json").exists()
    if not_utf8:
        assert err.getvalue() == f"error: {path}: not UTF-8 text (invalid start byte)\n"
    elif fault in CSV_LINE_FAULTS:
        assert err.getvalue().startswith(f"error: {path}:{len(lines)}: ")
    if fault in CSV_RATING_FAULTS and not not_utf8:
        rating, what = CSV_RATING_FAULTS[fault]
        assert err.getvalue().endswith(f": rating {rating!r} is {what}\n")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@pytest.fixture()
def sweep_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "name": "msweep",
            "seed": 0,
            "matrix": {
                "family": "indicator",
                "popular_sizes": [100, 100, 100, 100],
                "niche_sizes": [4, 1],
            },
            "alpha_sweep": {"start": 2.0, "stop": 10.0, "step": 0.5},
        },
    )


def test_sweep_covers_the_half_open_grid(tmp_path, sweep_config):
    assert main(["sweep", "--config", sweep_config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "msweep.sweep.json").read_text())
    runs = report["runs"]
    assert len(runs) == 16
    assert [r["alpha"] for r in runs] == [2.0 + 0.5 * i for i in range(16)]
    # the whole window sits inside the spectral gap: the rank never moves
    assert {r["chosen_rank"] for r in runs} == {4}
    assert {r["tvr"] for r in runs} == {0.93023255814}
    assert {r["social_welfare"] for r in runs} == {400.0}
    assert runs[0]["id"] == 0 and runs[-1]["id"] == 15


def test_sweep_csv_projection(tmp_path, sweep_config):
    assert (
        main(["sweep", "--config", sweep_config, "--out", str(tmp_path), "--format", "csv"])
        == 0
    )
    lines = (tmp_path / "msweep.sweep.csv").read_text().splitlines()
    assert lines[0] == "id,alpha,chosen_rank,tvr,social_welfare"
    assert len(lines) == 17
    assert lines[1] == "0,2,4,0.93023255814,400"
    assert lines[-1] == "15,9.5,4,0.93023255814,400"


def reference_sweep_csv(report) -> bytes:
    """The sweep CSV as cmd_sweep once wrote it, one f-string line per run."""
    lines = ["id,alpha,chosen_rank,tvr,social_welfare"]
    for r in report["runs"]:
        lines.append(
            f"{r['id']},{round_sig(r['alpha']):.12g},{r['chosen_rank']},"
            f"{round_sig(r['tvr']):.12g},"
            f"{round_sig(r['social_welfare']):.12g}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("top_k", [1, 2])
def test_sweep_csv_matches_the_line_writer(tmp_path, preset, top_k):
    doc = json.loads(json.dumps(PRESETS[preset]))
    doc.update(
        name=f"{preset}{top_k}",
        top_k=top_k,
        alpha_sweep={"start": 0.25, "stop": 14.0, "step": 0.5},
    )
    argv = ["sweep", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]
    assert main([*argv, "--format", "csv"]) == 0
    expected = reference_sweep_csv(sweep(generate_scenario(doc)))
    assert (tmp_path / f"{preset}{top_k}.sweep.csv").read_bytes() == expected
    assert expected.count(b"\n") == 29


def test_sweep_requires_a_grid(capsys):
    assert main(["sweep", "--preset", "paired"]) == 1
    assert "alpha_sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# random families through the CLI
# ---------------------------------------------------------------------------

def test_block_random_uses_its_drawn_tolerance(tmp_path):
    doc = {"name": "br", "seed": 42, "matrix": {"family": "block_random"}}
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "br.report.json").read_text())
    mat = generate_scenario(doc)
    assert report["truthful"]["alpha"] == pytest.approx(mat.drawn_alpha, rel=1e-11)
    assert report["truthful"]["chosen_rank"] == mat.partition.n_bar
    assert report["collective"] is None


def test_seed_override_redraws_the_instance(tmp_path):
    config = write_config(
        tmp_path, {"name": "br", "seed": 42, "matrix": {"family": "block_random"}}
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    first = json.loads((tmp_path / "br.report.json").read_text())["truthful"]["alpha"]
    assert main(["run", "--config", config, "--seed", "43", "--out", str(tmp_path)]) == 0
    second = json.loads((tmp_path / "br.report.json").read_text())["truthful"]["alpha"]
    assert first != second


def test_gap_class_runs_truthfully(tmp_path):
    config = write_config(
        tmp_path, {"name": "gc", "seed": 3, "matrix": {"family": "gap_class"}}
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "gc.report.json").read_text())
    assert report["collective"] is None
    assert report["truthful"]["chosen_rank"] == report["matrix"]["majority_items"]


def test_gap_class_rejects_uprating_strategies(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "name": "gc",
            "seed": 3,
            "matrix": {"family": "gap_class"},
            "strategy": {"target_item": "picky"},
        },
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    assert "require a block-model scenario" in capsys.readouterr().err


def test_explicit_collective_outside_the_majority_is_a_clean_error(tmp_path, capsys):
    doc = {
        "name": "ind",
        "seed": 0,
        "matrix": {"family": "indicator", "popular_sizes": [2, 2], "niche_sizes": [2, 1]},
        "alpha": 1.6,
        "strategy": {"selector": {"kind": "explicit", "users": [99]}, "eta": 0.5},
    }
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[99]" in err and "majority" in err
    doc["strategy"]["selector"] = {"kind": "explicit"}
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    assert "requires users" in capsys.readouterr().err


def test_an_empty_explicit_collective_is_one_error_line(tmp_path, capsys):
    doc = dict(PRESETS["paired"], strategy={"selector": {"kind": "explicit", "users": []}})
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: collective must be nonempty\n"


def test_a_negative_explicit_user_is_named(tmp_path, capsys):
    doc = dict(PRESETS["paired"], strategy={"selector": {"kind": "explicit", "users": [-1]}})
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[-1]" in err and "majority" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_repeated_explicit_users_write_the_same_report(tmp_path, capsys, fmt):
    outputs = []
    for users in ([0, 0, 1], [0, 1]):
        doc = dict(
            PRESETS["paired"],
            strategy={"selector": {"kind": "explicit", "users": users}, "eta": 0.5},
        )
        out = tmp_path / f"out{len(users)}"
        argv = ["run", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main([*argv, "--format", fmt]) == 0
        outputs.append((out / f"paired.report.{fmt}").read_bytes())
    capsys.readouterr()
    # The documents differ in their users list, which the JSON report echoes.
    if fmt == "json":
        outputs = [json.loads(raw) for raw in outputs]
        for report in outputs:
            del report["scenario"]["strategy"]["selector"]["users"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("target", [99, -1])
def test_target_outside_the_minority_items_is_a_clean_error(tmp_path, capsys, target):
    doc = dict(
        PRESETS["paired"],
        strategy={"selector": {"kind": "explicit", "users": [0, 1]}, "target_item": target},
    )
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: target item {target} is not a minority item\n"


def test_collective_run_without_minority_users(tmp_path):
    # Every user is a majority user; the minority item is an all-zero column,
    # so the minority block is empty and sigma1(minority) is 0.
    csv_path = tmp_path / "ratings.csv"
    csv_path.write_text("user,item,rating\n0,a,1\n1,a,1\n2,b,1\n3,b,1\n0,c,0\n")
    doc = {
        "name": "nominority",
        "seed": 0,
        "matrix": {"family": "csv", "path": str(csv_path), "m_bar": 4, "n_bar": 2},
        "alpha": 0.5,
        "strategy": {
            "target_item": 2,
            "selector": {"kind": "explicit", "users": [0, 2]},
            "eta": 1.0,
        },
    }
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "nominority.report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema())
    assert report["matrix"]["minority_users"] == 0
    assert report["collective"]["gap_interval"][0] == 0.0


def test_given_eta_outside_the_gap_window_reports_the_failed_condition(tmp_path):
    # at eta = 5 the radicand of the post-uprating window is negative
    doc = json.loads(json.dumps(PRESETS["multigroup"]))
    doc["name"] = "eta5"
    doc["strategy"]["eta"] = 5.0
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eta5.report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema())
    c = report["collective"]
    assert c["eta"] == 5.0 and c["eta_source"] == "given"
    assert c["gap_interval"] is None
    assert c["robustness_margin"] is None
    assert c["verdicts"]["alpha_in_new_gap"] is False
    assert c["margins"]["alpha_in_new_gap"] < 0
    argv = ["run", "--config", config, "--out", str(tmp_path), "--format", "csv"]
    assert main(argv) == 0
    assert len((tmp_path / "eta5.report.csv").read_text().splitlines()) == 406


@pytest.mark.parametrize("preset, eta", [("paired", 0.3), ("paired", 2.5), ("multigroup", 0.45)])
def test_an_empty_window_is_written_as_null(tmp_path, preset, eta):
    """At these etas the window's endpoints are finite but lower >= upper, so
    nothing lies in it, and it is null just like a window with a NaN end."""
    doc = json.loads(json.dumps(PRESETS[preset]))
    doc.update(name="empty", strategy=dict(PRESETS["multigroup"]["strategy"], eta=eta))
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "empty.report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema())
    t, c = report["truthful"], report["collective"]
    assert c["gap_interval"] is None and c["verdicts"]["alpha_in_new_gap"] is False
    assert t["gap_interval"] is not None


def test_an_empty_truthful_gap_is_written_as_null(tmp_path):
    # The niche group's singular value 3 exceeds the popular groups' sqrt(2).
    doc = {
        "name": "inverted",
        "seed": 0,
        "matrix": {"family": "indicator", "popular_sizes": [2, 2], "niche_sizes": [9]},
        "alpha": 1.0,
    }
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "inverted.report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, report_schema())
    assert report["truthful"]["gap_interval"] is None


@pytest.mark.parametrize(
    "offset, rank, certified",
    [(-2.0, 5, False), (-0.5, 4, False), (0.0, 4, False), (0.5, 4, True)],
)
def test_tie_tolerance_boundary_is_recorded_consistently(tmp_path, offset, rank, certified):
    """alpha within TIE_RTOL of sigma_5 = sigma_1(minority) = 2 on the multigroup preset.

    choose_rank counts sigma_5 <= alpha + tol as a tie and truncates at rank 4;
    the certificate's alpha_above_minority compares exactly.  Inside the band
    (sigma_5 - tol, sigma_5] the learner truncates while the certificate
    declines, so the exact check errs only on the safe side.
    """
    doc = json.loads(json.dumps(PRESETS["multigroup"]))
    mat = generate_scenario(doc)
    sigma = spectral(mat.matrix).singular_values
    sigma1_min = float(singular_values_of(mat.partition.minority_block(mat.matrix.entries))[0])
    assert sigma[4] == sigma1_min == 2.0
    tol = tie_tolerance(float(sigma[0]))
    assert tol == TIE_RTOL * 10.0
    alpha = sigma1_min + offset * tol
    assert choose_rank(mat.matrix, alpha) == rank

    doc["name"] = "tie"
    doc["alpha"] = alpha
    doc["strategy"]["eta"] = 0.75
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "tie.report.json").read_text(encoding="utf-8"))
    t, c = report["truthful"], report["collective"]
    assert t["chosen_rank"] == rank
    assert c["verdicts"]["alpha_above_minority"] is certified
    assert c["margins"]["alpha_above_minority"] == pytest.approx(offset * tol, rel=1e-6, abs=0.0)
    # Each decision can be read back from the report's own numbers.
    assert t["gap_interval"][0] == c["gap_interval"][0] == t["spectrum"][4] == sigma1_min
    assert (t["chosen_rank"] == 4) == (t["spectrum"][4] <= t["alpha"] + tol)
    assert certified == (t["alpha"] > t["gap_interval"][0])
    # A certified tolerance always truncates the truthful minority away.
    assert not certified or t["chosen_rank"] == 4


PAIRED = {"name": "p", "seed": 1, "matrix": {"family": "paired", "m_maj": 2, "m_minor": 1}}
STRATEGY = PRESETS["multigroup"]["strategy"]
FUZZ_BASE = dict(PRESETS["paired"], strategy=STRATEGY)


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(PAIRED, seed=[1]), "seed must be of type integer"),
        (dict(PAIRED, alpha=[1]), "alpha must be of type number or null"),
        (dict(PAIRED, matrix=dict(PAIRED["matrix"], m_maj=[1])), "matrix.m_maj must be"),
        (dict(PAIRED, strategy=5), "strategy must be of type object or null"),
        (dict(PAIRED, alpha_sweep=5), "alpha_sweep must be of type object or null"),
        (dict(PAIRED, strategy={"selector": "x"}), "strategy.selector must be of type object"),
        (
            dict(PAIRED, matrix={"family": "indicator", "popular_sizes": 5, "niche_sizes": [1]}),
            "matrix.popular_sizes must be of type list of integers",
        ),
        (dict(PAIRED, alpha=math.nan), "alpha must be of type number or null"),
        (dict(PAIRED, alpha=-math.inf), "alpha must be of type number or null"),
        (
            dict(PAIRED, alpha_sweep={"start": 1.0, "stop": math.inf, "step": 0.5}),
            "alpha_sweep.stop must be of type number",
        ),
        (
            dict(FUZZ_BASE, strategy=dict(STRATEGY, eta=math.inf)),
            "strategy.eta must be of type string or number",
        ),
        (
            dict(FUZZ_BASE, strategy=dict(STRATEGY, eta="inf")),
            "strategy.eta must be 'auto' or a number, got 'inf'",
        ),
        (
            dict(FUZZ_BASE, strategy=dict(STRATEGY, eta="fast")),
            "strategy.eta must be 'auto' or a number, got 'fast'",
        ),
        (
            dict(FUZZ_BASE, strategy=dict(STRATEGY, target_item="foo")),
            "strategy.target_item must be 'picky' or an integer, got 'foo'",
        ),
    ],
)
def test_wrongly_typed_scenario_fields_are_clean_errors(tmp_path, capsys, doc, message):
    config = write_config(tmp_path, doc)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


FUZZ_PATHS = (
    [(key,) for key in [*FUZZ_BASE, "alpha_sweep"]]
    + [("matrix", key) for key in FUZZ_BASE["matrix"]]
    + [("strategy", key) for key in FUZZ_BASE["strategy"]]
    + [("strategy", "selector", key) for key in FUZZ_BASE["strategy"]["selector"]]
)
# Small values only, so that no draw builds a large matrix.
FUZZ_VALUES = [None, True, -1, 0, 2, 1.5, "x", [], [1], {}, {"a": 1}]
# Values a scenario key rejects by name wherever they are not the key's type.
NAMED_FUZZ_VALUES = [math.nan, math.inf, -math.inf, "inf", "fast"]


@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_VALUES + NAMED_FUZZ_VALUES))
@settings(max_examples=200, deadline=None)
def test_any_one_bad_scenario_value_is_a_clean_exit(tmp_path_factory, path, value):
    doc = json.loads(json.dumps(FUZZ_BASE))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path_factory.mktemp("fuzz")
    config = write_config(out, doc)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", config, "--out", str(out)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    if value in NAMED_FUZZ_VALUES and path != ("name",):
        assert code == 1 and path[-1] in err.getvalue()


# ---------------------------------------------------------------------------
# scenario sourcing and output routing
# ---------------------------------------------------------------------------

def test_scenario_source_is_exclusive_and_required(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"name": "x", "seed": 0, "matrix": {"family": "paired", "m_maj": 2, "m_minor": 1}},
    )
    assert main(["run", "--config", config, "--preset", "paired"]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(["run"]) == 1
    assert "scenario is required" in capsys.readouterr().err


def test_missing_alpha_is_a_clean_error(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"name": "x", "seed": 0, "matrix": {"family": "paired", "m_maj": 2, "m_minor": 1}},
    )
    assert main(["run", "--config", config]) == 1
    assert "no alpha" in capsys.readouterr().err


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    env_dir = tmp_path / "routed"
    monkeypatch.setenv("RANKGAP_OUT_DIR", str(env_dir))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "paired"]) == 0
    assert (env_dir / "paired.report.json").exists()


# ---------------------------------------------------------------------------
# scalar subcommands
# ---------------------------------------------------------------------------

def test_find_eta_command(tmp_path, capsys):
    assert main(["find-eta", *FINDER_ARGS, "--out", str(tmp_path)]) == 0
    assert "eta = 0.754034879006" in capsys.readouterr().out
    report = json.loads((tmp_path / "find_eta.json").read_text())
    assert report["eta"] == 0.754034879006
    assert report["inputs"]["sigma_kmaj"] == 10.0


def test_find_eta_reports_infeasibility_as_zero(capsys):
    argv = list(FINDER_ARGS)
    argv[argv.index("--alpha") + 1] = "8.0"
    assert main(["find-eta", *argv]) == 0
    assert "eta = 0" in capsys.readouterr().out


def test_check_command_exit_codes(capsys):
    passing = ["check", *FINDER_ARGS, "--eta", "0.7540348790056394", "--sigma1-min", "2.0"]
    assert main(passing) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert out.count(": pass (margin") == 3

    failing = ["check", *FINDER_ARGS, "--eta", "1.2", "--sigma1-min", "2.0"]
    assert main(failing) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_robustness_command_matches_the_run_report(tmp_path, capsys):
    # truthful-matrix norms of the multigroup scenario
    argv = [
        "robustness",
        *FINDER_ARGS,
        "--eta", "0.7540348790056394",
        "--l1-norm", "100.0",
        "--l2-norm", "10.0",
        "--n-items", "6",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    assert "margin = 0.361520744347" in capsys.readouterr().out
    report = json.loads((tmp_path / "robustness.json").read_text())
    assert report["margin"] == 0.361520744347


ROBUSTNESS_ARGS = {"--eta": "0.75", "--l1-norm": "100.0", "--l2-norm": "10.0", "--n-items": "6"}


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("check", "--eta", "nan", "--eta must be finite"),
        ("check", "--eta", "inf", "--eta must be finite"),
        ("check", "--sigma1-min", "nan", "--sigma1-min must be finite"),
        ("robustness", "--eta", "nan", "eta_hat must be finite"),
        ("robustness", "--l1-norm", "nan", "l1_norm must be finite and nonnegative"),
        ("robustness", "--l1-norm", "-1.0", "l1_norm must be finite and nonnegative"),
        ("robustness", "--l2-norm", "inf", "l2_norm must be finite and nonnegative"),
        ("robustness", "--l2-norm", "-1.0", "l2_norm must be finite and nonnegative"),
        ("robustness", "--n-items", "-3", "n must be >= 1"),
        ("robustness", "--n-items", "0", "n must be >= 1"),
    ],
)
def test_finder_commands_reject_bad_numbers(tmp_path, capsys, command, flag, value, message):
    flags = {"--eta": "0.75", "--sigma1-min": "2.0"} if command == "check" else ROBUSTNESS_ARGS
    flags = {**flags, flag: value}
    argv = [command, *FINDER_ARGS, *(x for kv in flags.items() for x in kv), "--out", str(tmp_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


SMALL_FINDER = {
    "--sigma-kmaj": "2", "--alpha": "1", "--n-bar": "2", "--picky-col-sq": "1",
    "--av": "1", "--kappa": "1", "--coll-size": "2",
}
SMALL_ROBUSTNESS = {**SMALL_FINDER, "--eta": "0.5", "--l1-norm": "1", "--l2-norm": "1", "--n-items": "3"}


@pytest.mark.parametrize(
    "command, flags, name",
    [
        ("check", {**SMALL_FINDER, "--eta": "1e200"}, "--eta"),
        ("find-eta", {**SMALL_FINDER, "--sigma-kmaj": "1e200"}, "--sigma-kmaj"),
        ("robustness", {**SMALL_ROBUSTNESS, "--eta": "1e200"}, "--eta"),
        # Only the fourth power of this eta overflows.
        ("robustness", {**SMALL_ROBUSTNESS, "--eta": "1e100"}, "--eta"),
        ("run", {}, "strategy.eta"),
    ],
)
def test_numbers_too_large_to_raise_to_a_power_are_clean_errors(
    tmp_path, capsys, command, flags, name
):
    if command == "run":
        doc = {**PRESETS["paired"], "strategy": {"eta": 1e200}}
        flags = {"--config": write_config(tmp_path, doc)}
    argv = [command, *(x for kv in flags.items() for x in kv), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} is too large: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# Four majority users rate items 0/1 and one picky user rates item 2.
HUGE_CSVS = {
    "sigma_kmaj": "0,0,1e200\n1,0,1e200\n2,1,1e200\n3,1,1e200\n4,2,1.0\n",
    "picky_col_sq": "0,0,1\n1,0,1\n2,1,1\n3,1,1\n4,2,1e200\n",
}


@pytest.mark.parametrize("eta", [0.5, "auto"])
@pytest.mark.parametrize("name", sorted(HUGE_CSVS))
def test_ratings_whose_squares_overflow_are_clean_errors(tmp_path, capsys, name, eta):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("user,item,rating\n" + HUGE_CSVS[name], encoding="utf-8")
    doc = {
        "name": "huge",
        "seed": 1,
        "alpha": 0.5,
        "matrix": {"family": "csv", "path": str(csv_path), "m_bar": 4, "n_bar": 2},
        "strategy": {"eta": eta},
    }
    argv = ["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} is too large: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_main_builds_its_parser_once(tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        cli._parser.cache_clear()
        for _ in range(2):
            assert main(["find-eta", *FINDER_ARGS]) == 0
    assert build.call_count == 1
    assert capsys.readouterr().out.count("eta = ") == 2


def test_scalar_reports_are_json_only(tmp_path, capsys):
    argv = ["find-eta", *FINDER_ARGS, "--out", str(tmp_path), "--format", "csv"]
    assert main(argv) == 1
    assert "json only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mc-demo
# ---------------------------------------------------------------------------

def test_mc_demo_report(tmp_path, capsys):
    argv = [
        "mc-demo",
        "--per-user", "3",
        "--trials", "4000",
        "--seed", "7",
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    assert "within 3 sigma" in capsys.readouterr().out
    report = json.loads((tmp_path / "mc_demo.json").read_text())
    assert report["ranks"] == {
        "true_4x4": 2,
        "completed_4x4": 2,
        "zero_fill_6x6": 2,
        "less_sparse_6x6": 2,
        "reduced_6x6": 2,
    }
    assert report["reduced_equals_zero_fill"] is True
    mp = report["miss_probability"]
    assert mp["exact"] == 0.49
    assert mp["estimate"] == 0.48325
    assert mp["within_3_sigma"] is True

    raw = (tmp_path / "mc_demo.json").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "mc_demo.json").read_bytes() == raw


def test_mc_demo_rejects_zero_trials(capsys):
    assert main(["mc-demo", "--trials", "0"]) == 1
    assert "error: trials must be at least 1" in capsys.readouterr().err
