"""Command line interface: scenario generation, runs, sweeps, reports.

Scenario documents are JSON.  A document resolves, together with its seed, to
a concrete matrix, partition, tolerance, and optional uprating strategy; the
same document and seed always produce byte-identical outputs.  Reports are
emitted through :mod:`rankgap.reports`, so numbers are capped at 12
significant digits and keys are sorted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import fixtures, generators, reports
from .collective import (
    CollectiveStrategy,
    FinderInputs,
    _collective_index,
    _column_sq,
    _power,
    _require_majority,
    aggregate_value,
    apply_uprating,
    check_sufficient_conditions,
    find_eta,
    robustness_margin,
    sufficient_gap,
)
from .completion import miss_probability_mc, reduce_solution, sparsest_majority_completion
from .learner import choose_rank, fit_learner, kappa_k, recommend, social_welfare, tvr
from .matrix import (
    GroupPartition,
    OpenInterval,
    RatingsMatrix,
    SpectralSummary,
    _block_sigmas,
    _numeric_rank,
    block_partition,
    find_picky_items,
    load_ratings_csv,
    matrix_l1_norm,
    numeric_rank_of,
    save_ratings_csv,
    singular_value_gap,
    singular_values_of,
)

OUT_DIR_ENV = "RANKGAP_OUT_DIR"

# Tests for the JSON types the key tables below name; numpy scalars pass as
# numbers, NaN, the infinities (which Python's json reads) and integers past
# the largest float do not, and a quoted name is the type of that one string.
JSON_TYPES = {
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    ),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    "list of integers": lambda v: isinstance(v, list) and all(map(JSON_TYPES["integer"], v)),
    "positive integer": lambda v: JSON_TYPES["integer"](v) and v > 0,
    "positive number": lambda v: JSON_TYPES["number"](v) and v > 0,
    "number in (0, 1]": lambda v: JSON_TYPES["number"](v) and 0 < v <= 1,
    **{f"'{w}'": (lambda v, w=w: v == w) for w in ("picky", "auto", "stratified", "explicit")},
}
# Each key a scenario document may hold, with the JSON types it accepts; the
# nested tables type the keys of the object under that key.
SCENARIO_KEYS = {
    "name": ("string",),
    "seed": ("integer",),
    "matrix": ("object",),
    "alpha": ("number", "null"),
    "alpha_sweep": ("object", "null"),
    "strategy": ("object", "null"),
    "top_k": ("positive integer",),
}
NESTED_KEYS = {
    "alpha_sweep": dict.fromkeys(("start", "stop", "step"), ("number",)),
    "strategy": {
        "target_item": ("'picky'", "integer"),
        "selector": ("object",),
        "eta": ("'auto'", "positive number"),
    },
    "selector": {
        "kind": ("'stratified'", "'explicit'"),
        "fraction": ("number in (0, 1]",),
        "users": ("list of integers",),
    },
}
# The one key each collective selector kind reads beside its kind.
SELECTOR_KEYS = {"stratified": "fraction", "explicit": "users"}
# The most points an alpha_sweep grid may span; a larger one is refused before
# it is built, since no sweep could fit that many points.
MAX_SWEEP_POINTS = 100_000
# The keys each matrix family requires, with their JSON types.
FAMILY_KEYS = {
    "paired": {"m_maj": ("integer",), "m_minor": ("integer",)},
    "indicator": {"popular_sizes": ("list of integers",), "niche_sizes": ("list of integers",)},
    "csv": {"path": ("string",), "m_bar": ("integer",), "n_bar": ("integer",)},
    "block_random": {},
    "gap_class": {},
}
# The families that draw their matrix and tolerance from the document's seed.
DRAWING_FAMILIES = ("block_random", "gap_class")
# The group counts of a report's matrix summary, beside its rows and cols.
GROUP_KEYS = ("majority_users", "minority_users", "majority_items", "minority_items")

PRESETS: dict[str, dict] = {
    # Two popular indicator groups of four users, two singleton niche groups.
    "paired": {
        "name": "paired",
        "seed": 0,
        "matrix": {"family": "paired", "m_maj": 4, "m_minor": 1},
        "alpha": 1.5,
        "top_k": 1,
    },
    # Four popular groups of 100 users, a 4-user picky item, a 1-user niche
    # item; a quarter of each popular group uprates the picky item.
    "multigroup": {
        "name": "multigroup",
        "seed": 0,
        "matrix": {
            "family": "indicator",
            "popular_sizes": [100, 100, 100, 100],
            "niche_sizes": [4, 1],
        },
        "alpha": 2.1,
        "strategy": {
            "target_item": "picky",
            "selector": {"kind": "stratified", "fraction": 0.25},
            "eta": "auto",
        },
        "top_k": 1,
    },
}

__all__ = [
    "Scenario",
    "MaterializedScenario",
    "PRESETS",
    "generate_scenario",
    "run",
    "sweep",
    "mc_demo",
    "main",
]


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document; the seed is mandatory."""

    name: str
    seed: int
    matrix_spec: dict
    alpha: float | None
    alpha_sweep: dict | None
    strategy_spec: dict | None
    top_k: int

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        """The one validity check of a document, made from the document alone:
        every command refuses the same documents, each with one ValueError.
        What a command still refuses needs the matrix, or is a part only that
        command reads (``sweep`` an alpha_sweep, ``run`` an alpha)."""
        if not isinstance(doc, dict):
            raise ValueError("a scenario document must be a JSON object")
        _check_keys(doc, SCENARIO_KEYS, "")
        if "seed" not in doc:
            raise ValueError("scenario documents require a seed")
        matrix_spec = doc.get("matrix")
        if not isinstance(matrix_spec, dict) or "family" not in matrix_spec:
            raise ValueError("scenario matrix spec must be an object with a family")
        family = matrix_spec["family"]
        # Typed first: a family such as [] cannot be looked up in the table.
        if not isinstance(family, str) or family not in FAMILY_KEYS:
            raise ValueError(
                f"unknown matrix family {family!r}; expected one of {tuple(FAMILY_KEYS)}"
            )
        sweep_spec = doc.get("alpha_sweep")
        if sweep_spec is not None:
            missing = set(NESTED_KEYS["alpha_sweep"]) - set(sweep_spec)
            if missing:
                raise ValueError(f"alpha_sweep is missing {sorted(missing)}")
            _sweep_grid(sweep_spec)  # refuses a grid that no sweep could run
        _check_keys(matrix_spec, {"family": ("string",), **FAMILY_KEYS[family]}, "matrix.")
        missing = [key for key in FAMILY_KEYS[family] if key not in matrix_spec]
        if missing:
            raise ValueError(f"matrix family {family!r} requires {missing}")
        strategy = doc.get("strategy")
        if strategy is not None:
            if family == "gap_class":
                raise ValueError("collective uprating runs require a block-model scenario")
            selector = strategy.get("selector", {})
            kind = selector.get("kind", "stratified")
            if kind == "explicit":
                if "users" not in selector:
                    raise ValueError("an explicit collective selector requires users")
                _collective_index(selector["users"])  # refuses [] and indices np.intp cannot hold
            unread = set(selector) - {"kind", SELECTOR_KEYS[kind]}
            if unread:
                raise ValueError(f"selector kind {kind!r} does not read {sorted(unread)}")
            if strategy.get("eta", "auto") != "auto":
                _power("strategy.eta", float(strategy["eta"]))  # refuses a square that overflows
        alpha = doc.get("alpha")
        # The random families draw their own tolerance.
        if alpha is None and sweep_spec is None and family not in DRAWING_FAMILIES:
            raise ValueError("scenario has no alpha and its family draws none")
        if alpha is not None and alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if family in DRAWING_FAMILIES and doc["seed"] < 0:
            raise ValueError(
                f"seed must be nonnegative for the drawing family {family!r}, got {doc['seed']}"
            )
        return cls(
            name=str(doc.get("name", "scenario")),
            seed=int(doc["seed"]),
            matrix_spec=dict(matrix_spec),
            alpha=None if alpha is None else float(alpha),
            alpha_sweep=None if sweep_spec is None else dict(sweep_spec),
            strategy_spec=None if strategy is None else dict(strategy),
            top_k=int(doc.get("top_k", 1)),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "matrix": self.matrix_spec,
            "alpha": self.alpha,
            "alpha_sweep": self.alpha_sweep,
            "strategy": self.strategy_spec,
            "top_k": self.top_k,
        }


def _check_keys(obj: dict, types: dict, prefix: str) -> None:
    """Raise ValueError when obj holds a key that types does not list, or a
    listed key of another JSON type; an object under a key of NESTED_KEYS is
    checked against that key's table in turn."""
    unknown = set(obj) - set(types)
    if unknown:
        raise ValueError(f"unknown {prefix[:-1] or 'scenario'} keys: {sorted(unknown)}")
    for key, allowed in types.items():
        if key in obj and not any(JSON_TYPES[t](obj[key]) for t in allowed):
            raise ValueError(f"{prefix}{key} must be of type {' or '.join(allowed)}")
        if key in NESTED_KEYS and isinstance(obj.get(key), dict):
            _check_keys(obj[key], NESTED_KEYS[key], f"{prefix}{key}.")


@dataclass(frozen=True, eq=False)
class MaterializedScenario:
    """A scenario resolved to concrete data under its model: the one scene
    that ``run`` and ``sweep`` read.

    ``partition`` is the block model's; the popularity model (``gap_class``)
    has none.  ``alpha`` is the document's, else the family's drawn one, else
    None.  ``class_codes[u]`` indexes ``class_labels``, ``summary`` is the
    reports' ``matrix`` block, and ``gap_interval()`` gives the true matrix's
    gap window.  Scenes compare by identity.
    """

    scenario: Scenario
    matrix: RatingsMatrix
    partition: GroupPartition | None
    alpha: float | None
    class_codes: np.ndarray
    class_labels: tuple[str, ...]
    summary: dict
    gap_interval: Callable[[], OpenInterval]


def generate_scenario(doc: dict) -> MaterializedScenario:
    """Resolve a scenario document to its scene, deterministically.  The one
    place that tells the block model from the popularity model."""
    scenario = Scenario.from_dict(doc)
    spec, drawn = scenario.matrix_spec, None
    family = spec["family"]
    if family == "gap_class":
        inst = generators.gap_class_instance(np.random.default_rng(scenario.seed))
        split, partition, drawn = inst.split, None, inst.alpha
        matrix, n_bar = split.matrix, split.n_bar
        majority, minority = split.class_masks
        class_codes = np.select([majority & minority, majority], [0, 1], 2)
        class_labels = ("both", "majority", "minority")
        classes = split.classes
        counts = (len(classes.majority), len(classes.minority), n_bar, matrix.cols - n_bar)
        gap_interval = lambda: split.window
    else:
        if family == "paired":
            matrix, partition = generators.paired_indicator(
                int(spec["m_maj"]), int(spec["m_minor"])
            )
        elif family == "indicator":
            matrix, partition = generators.indicator_scenario(
                spec["popular_sizes"], spec["niche_sizes"]
            )
        elif family == "csv":
            matrix = load_ratings_csv(spec["path"])[0]
            partition = block_partition(
                int(spec["m_bar"]), int(spec["n_bar"]), matrix.rows, matrix.cols
            )
            partition.validate_for(matrix)
        else:
            sc = generators.random_block_scenario(np.random.default_rng(scenario.seed))
            matrix, partition, drawn = sc.matrix, sc.partition, sc.alpha
        class_codes = np.ones(matrix.rows, dtype=np.intp)
        class_codes[partition.majority_users] = 0
        class_labels = ("majority", "minority")
        counts = [len(getattr(partition, key)) for key in GROUP_KEYS]
        gap_interval = functools.partial(singular_value_gap, matrix, partition)
    class_codes.setflags(write=False)
    return MaterializedScenario(
        scenario=scenario,
        matrix=matrix,
        partition=partition,
        alpha=drawn if scenario.alpha is None else scenario.alpha,
        class_codes=class_codes,
        class_labels=class_labels,
        summary={"rows": matrix.rows, "cols": matrix.cols, **dict(zip(GROUP_KEYS, counts))},
        gap_interval=gap_interval,
    )


def _report_items(outcome) -> np.ndarray:
    """Per-user picks for the report: a bare item at k = 1, else the sorted row."""
    chosen = outcome.chosen
    return chosen[:, 0] if outcome.k_items == 1 else chosen


def _interval_json(interval: OpenInterval) -> list[float] | None:
    """An interval as reports write it: null when nothing lies inside it."""
    return None if interval.is_empty else [interval.lower, interval.upper]


def _run_side(
    mat: MaterializedScenario,
    revealed: RatingsMatrix,
    alpha: float,
):
    """Fit, recommend (derandomized), and price welfare against true ratings."""
    model = fit_learner(revealed, alpha)
    outcome = recommend(model.truncated, k_items=mat.scenario.top_k, derandomize=True)
    welfare = social_welfare(mat.matrix, outcome, R_tilde=revealed)
    side = {
        "alpha": float(alpha),
        "spectrum": [float(s) for s in model.spectrum.singular_values],
        "chosen_rank": model.chosen_rank,
        "tvr": tvr(model.spectrum, model.chosen_rank),
        "gap_interval": _interval_json(mat.gap_interval()),
        "social_welfare": welfare.social_welfare,
        "u_ben": welfare.u_ben,
        "u_en": welfare.u_en,
    }
    return side, outcome, welfare


def _resolve_strategy(
    mat: MaterializedScenario, alpha: float
) -> tuple[CollectiveStrategy, FinderInputs, float, str]:
    """The strategy on the matrix, its finder inputs, sigma1_min and the eta
    source.  Scenario.from_dict has judged the spec, so the refusals here need
    the matrix: no picky item, a target outside the minority items, a
    collective outside the majority, or a finder's 0."""
    spec = mat.scenario.strategy_spec
    matrix, partition = mat.matrix, mat.partition

    target = spec.get("target_item", "picky")
    if target == "picky":
        picky = find_picky_items(matrix, partition)
        if not picky:
            raise ValueError("scenario has no picky item to target")
        target = picky[0][0]
    target = int(target)
    if target not in partition.minority_items:
        raise ValueError(f"target item {target} is not a minority item")

    selector = spec.get("selector", {})
    if selector.get("kind", "stratified") == "stratified":
        collective = generators.stratified_collective(
            matrix, partition, float(selector.get("fraction", 0.25))
        )
    else:
        collective = _collective_index(selector["users"])
    # Checked before aggregate_value indexes the matrix with the collective.
    _require_majority(collective, partition)

    sigma_kmaj, sigma1_min = _block_sigmas(matrix, partition)
    inputs = FinderInputs(
        sigma_kmaj=sigma_kmaj,
        alpha=alpha,
        n_bar=partition.n_bar,
        picky_col_sq=_column_sq(matrix, target),
        av=aggregate_value(matrix, collective, partition),
        kappa=kappa_k(matrix, partition, 1),
        coll_size=len(collective),
    )

    eta_spec = spec.get("eta", "auto")
    if eta_spec == "auto":
        eta = find_eta(inputs)
        source = "auto"
        if eta == 0.0:
            raise ValueError(
                "the uprating finder returned 0: no value passes the sufficient "
                "conditions for this scenario"
            )
    else:
        eta = float(eta_spec)
        source = "given"
    strategy = CollectiveStrategy(target_item=target, collective=collective, eta=eta)
    return strategy, inputs, sigma1_min, source


def run(mat: MaterializedScenario) -> dict:
    """Truthful baseline plus, when a strategy is configured, a collective run.

    The report's ``per_user`` is a :class:`rankgap.reports.PerUserTable`;
    its ``rows()`` gives one dict per user."""
    scenario = mat.scenario
    alpha = mat.alpha
    if alpha is None:  # a valid document then gives an alpha_sweep
        raise ValueError("run requires an alpha; this scenario gives only an alpha_sweep")
    truthful_side, truthful_outcome, truthful_welfare = _run_side(
        mat, mat.matrix, alpha
    )
    collective_side = None
    collective_items = collective_welfares = None
    if scenario.strategy_spec is not None:
        strategy, inputs, sigma1_min, source = _resolve_strategy(mat, alpha)
        revealed = apply_uprating(mat.matrix, mat.partition, strategy)
        collective_side, collective_outcome, collective_welfare = _run_side(
            mat, revealed, alpha
        )
        sufficiency = check_sufficient_conditions(inputs, sigma1_min, strategy.eta)
        window = sufficient_gap(mat.matrix, mat.partition, strategy)
        margin = None
        if sufficiency.margins["alpha_in_new_gap"] > 0:
            margin = robustness_margin(
                inputs,
                strategy.eta,
                l1_norm=matrix_l1_norm(mat.matrix),
                l2_norm=float(singular_values_of(mat.matrix.entries)[0]),
                n=mat.matrix.cols,
            )
        collective_side.update(
            {
                "gap_interval": _interval_json(window),
                "eta": strategy.eta,
                "eta_source": source,
                "target_item": strategy.target_item,
                "collective_size": len(strategy.collective),
                "finder_inputs": asdict(inputs),
                "verdicts": dict(sufficiency.conditions),
                "margins": dict(sufficiency.margins),
                "ratio": collective_side["social_welfare"] / truthful_side["social_welfare"],
                "sw_delta": collective_side["social_welfare"]
                - truthful_side["social_welfare"],
                "u_en_delta": collective_side["u_en"] - truthful_side["u_en"],
                "robustness_margin": margin,
            }
        )
        collective_items = _report_items(collective_outcome)
        collective_welfares = collective_welfare.per_user_welfare

    per_user = reports.PerUserTable(
        class_codes=mat.class_codes,
        class_labels=mat.class_labels,
        truthful_items=_report_items(truthful_outcome),
        truthful_welfare=truthful_welfare.per_user_welfare,
        collective_items=collective_items,
        collective_welfare=collective_welfares,
    )
    report = {
        "kind": "run",
        "scenario": scenario.to_dict(),
        "matrix": dict(mat.summary),
        "truthful": truthful_side,
        "collective": collective_side,
        "per_user": per_user,
    }
    return report


def _sweep_grid(spec: dict) -> list[float]:
    """Half-open grid [start, stop) with the given step."""
    start, stop, step = (float(spec[k]) for k in ("start", "stop", "step"))
    if step <= 0:
        raise ValueError("alpha_sweep step must be positive")
    if start + step == start:
        raise ValueError(f"alpha_sweep step {step!r} does not move the grid off start {start!r}")
    points = (stop - start) / step
    if points > MAX_SWEEP_POINTS:
        raise ValueError(
            f"alpha_sweep grid spans {points:.6g} points, more than the cap of {MAX_SWEEP_POINTS}"
        )
    if start < 0:
        raise ValueError(f"alpha_sweep start must be nonnegative, got {start}")
    grid = []
    value = start
    index = 0
    while value < stop - 1e-12 * max(1.0, abs(stop)):
        grid.append(value)
        index += 1
        value = start + index * step
    if not grid:
        raise ValueError("alpha sweep grid is empty")
    return grid


def sweep(mat: MaterializedScenario) -> dict:
    """Truthful runs across the alpha grid, one fit per distinct chosen rank.

    The rank depends on alpha only through the matrix's singular values, and
    the run fields only through the rank, so the first fit's spectrum picks
    each point's rank and a point of an already fitted rank repeats it."""
    scenario = mat.scenario
    if scenario.alpha_sweep is None:
        raise ValueError("sweep requires an alpha_sweep block in the scenario")
    spectrum = None
    fitted = {}
    runs = []
    for index, alpha in enumerate(_sweep_grid(scenario.alpha_sweep)):
        rank = None if spectrum is None else choose_rank(spectrum, alpha)
        if rank not in fitted:
            # Only the side is bound: the fit's arrays go before the next one.
            side = _run_side(mat, mat.matrix, alpha)[0]
            rank = side["chosen_rank"]
            fitted[rank] = {key: side[key] for key in ("chosen_rank", "tvr", "social_welfare")}
            if spectrum is None:
                # The singular values alone: no m x n factor outlives the fit.
                s = np.array(side["spectrum"])
                empty = np.zeros((0, 0))
                spectrum = SpectralSummary(s, _numeric_rank(s), left=empty, right_t=empty)
        runs.append({"id": index, "alpha": alpha, **fitted[rank]})
    return {
        "kind": "sweep",
        "scenario": scenario.to_dict(),
        "matrix": dict(mat.summary),
        "runs": runs,
    }


def mc_demo(seed: int, per_user: int, trials: int) -> dict:
    """Ranks of the bundled completion fixtures plus the exploration Monte Carlo."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative for mc-demo's Monte Carlo, got {seed}")
    true4 = fixtures.mc_4x4_true()
    completed4 = fixtures.mc_4x4_completed()
    observed6, split6 = fixtures.mc_6x6_observed()
    zero_fill = sparsest_majority_completion(observed6, split6)
    less_sparse = fixtures.mc_6x6_less_sparse()
    reduced = reduce_solution(less_sparse, split6)

    mc_matrix, mc_split = fixtures.mc_10x10()
    estimate = miss_probability_mc(mc_matrix, mc_split, per_user, trials, seed)
    exact = _miss_probability_exact(mc_matrix, mc_split, per_user)
    sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)

    return {
        "kind": "mc_demo",
        "seed": seed,
        "per_user": per_user,
        "trials": trials,
        "ranks": {
            "true_4x4": numeric_rank_of(true4.entries),
            "completed_4x4": numeric_rank_of(completed4.entries),
            "zero_fill_6x6": numeric_rank_of(zero_fill.entries),
            "less_sparse_6x6": numeric_rank_of(less_sparse.entries),
            "reduced_6x6": numeric_rank_of(reduced.entries),
        },
        "reduced_equals_zero_fill": bool(
            np.array_equal(reduced.entries, zero_fill.entries)
        ),
        "miss_probability": {
            "estimate": estimate,
            "exact": exact,
            "stderr": sigma,
            "within_3_sigma": bool(abs(estimate - exact) <= 3 * sigma),
        },
    }


def _miss_probability_exact(
    matrix: RatingsMatrix, partition: GroupPartition, per_user: int
) -> float:
    """Closed-form probability that uniform per-row subsets miss every
    positive minority-block entry: rows are independent, and a row with h
    hot items is missed with probability C(n-h, q) / C(n, q)."""
    n = matrix.cols
    hot_per_row = np.count_nonzero(partition.minority_block(matrix.entries), axis=1)
    prob = 1.0
    for count in hot_per_row[hot_per_row > 0].tolist():
        if per_user > n - count:
            return 0.0
        prob *= math.comb(n - count, per_user) / math.comb(n, per_user)
    return prob


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _load_scenario_doc(args) -> dict:
    if args.config and args.preset:
        raise ValueError("pass either --config or --preset, not both")
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    elif args.preset:
        doc = json.loads(json.dumps(PRESETS[args.preset]))
    else:
        raise ValueError("a scenario is required: pass --config FILE or --preset NAME")
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    return doc


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def cmd_generate(args) -> int:
    mat = generate_scenario(_load_scenario_doc(args))
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    name = mat.scenario.name
    csv_path = out / f"{name}.ratings.csv"
    save_ratings_csv(csv_path, mat.matrix)
    doc_path = out / f"{name}.scenario.json"
    doc_path.write_bytes(reports.canonical_json_bytes(mat.scenario.to_dict()))
    print(f"wrote {csv_path} ({mat.matrix.rows}x{mat.matrix.cols}) and {doc_path}")
    return 0


def cmd_run(args) -> int:
    mat = generate_scenario(_load_scenario_doc(args))
    report = run(mat)
    path = reports.report_emit(
        report, args.format, _out_dir(args), f"{mat.scenario.name}.report"
    )
    t = report["truthful"]
    print(
        f"truthful: rank {t['chosen_rank']}, social welfare "
        f"{reports.round_sig(t['social_welfare'])}"
    )
    c = report["collective"]
    if c is not None:
        print(
            f"collective: rank {c['chosen_rank']}, eta {reports.round_sig(c['eta'])} "
            f"({c['eta_source']}), social welfare "
            f"{reports.round_sig(c['social_welfare'])}, ratio "
            f"{reports.round_sig(c['ratio'])}"
        )
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    mat = generate_scenario(_load_scenario_doc(args))
    report = sweep(mat)
    path = reports.report_emit(
        report, args.format, _out_dir(args), f"{mat.scenario.name}.sweep"
    )
    ranks = sorted({r["chosen_rank"] for r in report["runs"]})
    print(f"swept {len(report['runs'])} tolerances; chosen ranks {ranks}")
    print(f"wrote {path}")
    return 0


def _finder_inputs_from_args(args, squared=("--sigma-kmaj", "--alpha")) -> FinderInputs:
    for flag in squared:
        _power(flag, getattr(args, flag[2:].replace("-", "_")))
    return FinderInputs(
        sigma_kmaj=args.sigma_kmaj,
        alpha=args.alpha,
        n_bar=args.n_bar,
        picky_col_sq=args.picky_col_sq,
        av=args.av,
        kappa=args.kappa,
        coll_size=args.coll_size,
    )


def _maybe_emit(args, report: dict, name: str) -> None:
    if args.out:
        path = reports.report_emit(report, "json", _out_dir(args), name)
        print(f"wrote {path}")


def cmd_find_eta(args) -> int:
    inputs = _finder_inputs_from_args(args, squared=("--sigma-kmaj", "--alpha", "--av"))
    eta = find_eta(inputs)
    print(f"eta = {reports.round_sig(eta):.12g}")
    _maybe_emit(
        args,
        {"kind": "find_eta", "inputs": asdict(inputs), "eta": eta},
        "find_eta",
    )
    return 0


def cmd_check(args) -> int:
    inputs = _finder_inputs_from_args(args)
    for flag, value in (("--eta", args.eta), ("--sigma1-min", args.sigma1_min)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    _power("--eta", args.eta)
    report = check_sufficient_conditions(inputs, args.sigma1_min, args.eta)
    for name, value in report.conditions.items():
        print(f"{name}: {'pass' if value else 'FAIL'} (margin {report.margins[name]:.6g})")
    print(f"verdict: {'pass' if report.verdict else 'FAIL'}")
    _maybe_emit(
        args,
        {
            "kind": "check",
            "inputs": asdict(inputs),
            "eta": args.eta,
            "sigma1_min": args.sigma1_min,
            "conditions": report.conditions,
            "margins": report.margins,
            "verdict": report.verdict,
        },
        "check",
    )
    return 0 if report.verdict else 1


def cmd_robustness(args) -> int:
    inputs = _finder_inputs_from_args(
        args, squared=("--sigma-kmaj", "--alpha", "--l1-norm", "--l2-norm")
    )
    _power("--eta", args.eta, 4)
    margin = robustness_margin(
        inputs, args.eta, l1_norm=args.l1_norm, l2_norm=args.l2_norm, n=args.n_items
    )
    print(f"margin = {reports.round_sig(margin):.12g}")
    _maybe_emit(
        args,
        {
            "kind": "robustness",
            "inputs": asdict(inputs),
            "eta": args.eta,
            "l1_norm": args.l1_norm,
            "l2_norm": args.l2_norm,
            "n_items": args.n_items,
            "margin": margin,
        },
        "robustness",
    )
    return 0


def cmd_mc_demo(args) -> int:
    seed = 0 if args.seed is None else args.seed
    report = mc_demo(seed, args.per_user, args.trials)
    ranks = report["ranks"]
    print(
        "ranks: true 4x4 = {true_4x4}, completed 4x4 = {completed_4x4}, "
        "zero-fill 6x6 = {zero_fill_6x6}, reduced 6x6 = {reduced_6x6}".format(**ranks)
    )
    mp = report["miss_probability"]
    print(
        f"miss probability: estimate {reports.round_sig(mp['estimate']):.12g} vs "
        f"exact {reports.round_sig(mp['exact']):.12g} "
        f"({'within' if mp['within_3_sigma'] else 'OUTSIDE'} 3 sigma)"
    )
    _maybe_emit(args, report, "mc_demo")
    return 0 if mp["within_3_sigma"] else 1


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags its handler reads, so a flag it
    would ignore stops at the parser (exit 2) before any work."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=None, help="override the seed")
    scenario = argparse.ArgumentParser(add_help=False, parents=[seeded])
    scenario.add_argument("--config", default=None, help="scenario JSON document")
    scenario.add_argument(
        "--preset", choices=sorted(PRESETS), default=None, help="built-in scenario"
    )
    report = argparse.ArgumentParser(add_help=False, parents=[scenario])
    report.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    finder = argparse.ArgumentParser(add_help=False, parents=[out])
    finder.add_argument("--sigma-kmaj", dest="sigma_kmaj", type=float, required=True)
    finder.add_argument("--alpha", type=float, required=True)
    finder.add_argument("--n-bar", dest="n_bar", type=int, required=True)
    finder.add_argument("--picky-col-sq", dest="picky_col_sq", type=float, required=True)
    finder.add_argument("--av", type=float, required=True)
    finder.add_argument("--kappa", type=float, required=True)
    finder.add_argument("--coll-size", dest="coll_size", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="rankgap",
        description="Rank-selection gaps, collective uprating, and report emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parent, handler, help_text in (
        ("generate", scenario, cmd_generate, "materialize a scenario to ratings CSV"),
        ("run", report, cmd_run, "truthful and collective runs, full report"),
        ("sweep", report, cmd_sweep, "truthful runs across an alpha grid"),
        ("find-eta", finder, cmd_find_eta, "closed-form effective uprating finder"),
    ):
        sub.add_parser(name, parents=[parent], help=help_text).set_defaults(handler=handler)

    p = sub.add_parser(
        "check", parents=[finder], help="evaluate the sufficient uprating conditions"
    )
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--sigma1-min", dest="sigma1_min", type=float, default=0.0)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "robustness", parents=[finder], help="parameter-error budget for a found eta"
    )
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--l1-norm", dest="l1_norm", type=float, required=True)
    p.add_argument("--l2-norm", dest="l2_norm", type=float, required=True)
    p.add_argument("--n-items", dest="n_items", type=int, required=True)
    p.set_defaults(handler=cmd_robustness)

    p = sub.add_parser(
        "mc-demo", parents=[seeded], help="completion fixture ranks and exploration MC"
    )
    p.add_argument("--per-user", dest="per_user", type=int, default=3)
    p.add_argument("--trials", type=int, default=100_000)
    p.set_defaults(handler=cmd_mc_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
