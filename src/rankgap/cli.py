"""Command line interface: scenario generation, runs, sweeps, reports.

A scenario document resolves to its scene through :mod:`rankgap.scenario`;
``run`` and ``sweep`` fit the recommender on that scene and build the reports.
The same document and seed always produce byte-identical outputs.  Reports
are emitted through :mod:`rankgap.reports`, so numbers are capped at 12
significant digits and keys are sorted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fixtures, reports
from .collective import (
    FinderInputs,
    _power,
    apply_uprating,
    check_sufficient_conditions,
    find_eta,
    robustness_margin,
    sufficient_gap,
)
from .completion import miss_probability_mc, reduce_solution, sparsest_majority_completion
from .learner import choose_rank, fit_learner, recommend, social_welfare, tvr
from .matrix import (
    GroupPartition,
    OpenInterval,
    RatingsMatrix,
    matrix_l1_norm,
    numeric_rank_of,
    save_ratings_csv,
    singular_values_of,
)
from .scenario import PRESETS, MaterializedScenario, generate_scenario, sweep_grid

OUT_DIR_ENV = "RANKGAP_OUT_DIR"

__all__ = ["run", "sweep", "mc_demo", "main"]


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
        "tvr": tvr(model.spectrum.singular_values, model.chosen_rank),
        "gap_interval": _interval_json(mat.gap_interval()),
        "social_welfare": welfare.social_welfare,
        "u_ben": welfare.u_ben,
        "u_en": welfare.u_en,
    }
    return side, outcome, welfare


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
        strategy, inputs, sigma1_min, source = mat.resolve_strategy(alpha)
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
    for index, alpha in enumerate(sweep_grid(scenario.alpha_sweep)):
        rank = None if spectrum is None else choose_rank(spectrum, alpha)
        if rank not in fitted:
            # Only the side is bound: the fit's arrays go before the next one.
            side = _run_side(mat, mat.matrix, alpha)[0]
            rank = side["chosen_rank"]
            fitted[rank] = {key: side[key] for key in ("chosen_rank", "tvr", "social_welfare")}
            if spectrum is None:
                # The singular values alone: no m x n factor outlives the fit.
                spectrum = np.array(side["spectrum"])
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
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError(f"{args.config}: the scenario document nests too deeply") from None
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
