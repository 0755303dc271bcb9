"""The benchmark's three workloads: seeded inputs, one op each, output checks.

A workload turns a seed into a fixed pool of ops.  Everything an op needs
(scenario documents, ratings CSVs, generator seeds) is built by ``build_*``
before any timing starts, so the program only ever receives inputs generated
from the workload seed.

Op cost in every workload is driven by sizes laid out on stratified ladders
(user counts, group counts, grid lengths), so two seeds give pools of the
same shape and the same cost profile while every individual draw differs.

Each op has three parts:

* ``prepare`` (untimed) removes the output of an earlier pass, so a program
  that stops writing cannot pass on a stale file;
* ``run`` (timed) is the call into rankgap and returns what the check needs;
* ``check`` (untimed) raises :class:`CheckFailed` when the output is wrong.
  Checks derive the expected values from the generated inputs with their own
  arithmetic and never call the rankgap function under test.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("run_block", "sweep_topk", "certify")

# run_block: users per op, from the 405-user multigroup preset up to 2e4.
RUN_BLOCK_USERS = (405, 20_000)
# sweep_topk: popular groups per op and users per popular group.
SWEEP_GROUPS = (8, 32)
SWEEP_GROUP_USERS = (20, 300)
SWEEP_GRID_POINTS = (8, 16)
# certify: each op draws finder inputs until this many are rejected, so every
# op proves the same number of negatives on the grid oracle (the costly part).
CERTIFY_FINDER_REJECTS = 4
CERTIFY_FINDER_MAX_DRAWS = 200
CERTIFY_GRID_STEPS = 10_000
CERTIFY_MC_PER_USER = 3
CERTIFY_MC_TRIALS = 50_000
# A correct sampler leaves 3 sigma on 0.27% of draws, which over the
# thousands of Monte Carlo calls of a benchmark campaign would flag a correct
# program; 5 sigma (6e-7 per draw) still catches any biased sampler at this
# trial count (5 sigma = 0.011 on a probability of 0.49).
CERTIFY_MC_SIGMAS = 5.0

# Ops per pass.  A run makes at least three passes over its pool.
POOL_SIZE = {"run_block": 10, "sweep_topk": 8, "certify": 10}
TINY_POOL_SIZE = {"run_block": 4, "sweep_topk": 2, "certify": 2}


class CheckFailed(Exception):
    """An op produced output that contradicts the value derived from its inputs."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    prepare: Callable[[], None]
    run: Callable[[], Any]
    check: Callable[[Any], None]
    cost_hint: float  # relative size; the smallest op of a pool is the warm-up


def build(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> list[Op]:
    """The op pool of one workload for one seed, in execution order."""
    rng = np.random.default_rng(seed)
    size = (TINY_POOL_SIZE if tiny else POOL_SIZE)[workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "run_block":
        return _build_run_block(rng, size, work_dir, tiny)
    if workload == "sweep_topk":
        return _build_sweep_topk(rng, size, work_dir, tiny)
    if workload == "certify":
        return _build_certify(rng, size, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """rankgap's command line, in process; stdout is captured for the check."""
    from rankgap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path


def _unlinker(path: Path) -> Callable[[], None]:
    return lambda: path.unlink(missing_ok=True)


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [0, 1), shuffled."""
    points = (np.arange(count) + rng.uniform(size=count)) / count
    rng.shuffle(points)
    return points


def _split_evenly(rng: np.random.Generator, total: int, parts: int, spread: float) -> list[int]:
    """``parts`` positive integers summing to ``total``, each within ``spread`` of the mean."""
    weights = rng.uniform(1.0 - spread, 1.0 + spread, size=parts)
    raw = total * weights / weights.sum()
    sizes = np.floor(raw).astype(int)
    for j in np.argsort(-(raw - sizes))[: total - int(sizes.sum())]:
        sizes[j] += 1
    return [int(s) for s in sizes]


# ---------------------------------------------------------------------------
# run_block: `rankgap run` on stratified-collective block scenarios
# ---------------------------------------------------------------------------

COLLECTIVE_FRACTION = 0.25


@dataclass(frozen=True)
class BlockInstance:
    name: str
    popular: tuple[int, ...]
    picky: int
    lone: int
    alpha: float

    @property
    def users(self) -> int:
        return sum(self.popular) + self.picky + self.lone

    def matrix_spec(self) -> dict:
        return {
            "family": "indicator",
            "popular_sizes": list(self.popular),
            "niche_sizes": [self.picky, self.lone],
        }

    def doc(self, matrix_spec: dict, seed: int) -> dict:
        return {
            "name": self.name,
            "seed": seed,
            "matrix": matrix_spec,
            "alpha": self.alpha,
            "strategy": {
                "target_item": "picky",
                "selector": {"kind": "stratified", "fraction": COLLECTIVE_FRACTION},
                "eta": "auto",
            },
            "top_k": 1,
        }

    def finder_terms(self) -> dict:
        """The finder's inputs, derived from the group sizes alone."""
        shares = [math.ceil(COLLECTIVE_FRACTION * s) for s in self.popular]
        return {
            "sigma_kmaj": math.sqrt(min(self.popular)),
            "alpha": self.alpha,
            "n_bar": len(self.popular),
            "picky_col_sq": float(self.picky),
            "av": float(max(shares)),
            "kappa": 1.0,
            "coll_size": sum(shares),
            "sigma1_min": math.sqrt(self.picky),
        }


def sufficient_conditions_hold(terms: dict, eta: float) -> bool:
    """The three closed-form uprating conditions, evaluated from scratch."""
    radicand = (
        min(terms["sigma_kmaj"] ** 2, eta**2 * terms["coll_size"] + terms["picky_col_sq"])
        - eta * math.sqrt(terms["n_bar"]) * terms["av"]
    )
    return (
        0.0 < eta < terms["kappa"]
        and terms["alpha"] ** 2 < radicand
        and terms["alpha"] > terms["sigma1_min"]
    )


def _block_instance(rng: np.random.Generator, name: str, users: int) -> BlockInstance:
    groups = int(rng.integers(2, 9))
    picky = int(rng.integers(3, 7))
    lone = int(rng.integers(1, picky))
    alpha = math.sqrt(picky) + float(rng.uniform(0.1, 0.4))
    popular = _split_evenly(rng, users - picky - lone, groups, spread=0.2)
    return BlockInstance(name, tuple(popular), picky, lone, alpha)


def _build_run_block(rng, size: int, work_dir: Path, tiny: bool) -> list[Op]:
    lo, hi = (RUN_BLOCK_USERS[0], 800) if tiny else RUN_BLOCK_USERS
    ops = []
    for i in range(size):
        users = round(lo * (hi / lo) ** (i / max(1, size - 1)))
        inst = _block_instance(rng, f"rb{i:02d}", users)
        doc_seed = int(rng.integers(2**31))
        family = ("indicator", "csv")[i % 2]
        fmt = ("json", "csv")[(i // 2) % 2]
        op_dir = work_dir / inst.name
        op_dir.mkdir(parents=True, exist_ok=True)
        matrix_spec = inst.matrix_spec()
        if family == "csv":
            source = _write_json(op_dir / "source.json", inst.doc(matrix_spec, doc_seed))
            code, _ = _call_cli(["generate", "--config", str(source), "--out", str(op_dir)])
            if code != 0:
                raise RuntimeError(f"rankgap generate failed for {inst.name}")
            matrix_spec = {
                "family": "csv",
                "path": str(op_dir / f"{inst.name}.ratings.csv"),
                "m_bar": sum(inst.popular),
                "n_bar": len(inst.popular),
            }
        doc_path = _write_json(op_dir / "scenario.json", inst.doc(matrix_spec, doc_seed))
        out_dir = op_dir / "out"
        report = out_dir / f"{inst.name}.report.{fmt}"
        argv = ["run", "--config", str(doc_path), "--out", str(out_dir), "--format", fmt]
        ops.append(
            Op(
                label=f"{inst.name} ({family}, {fmt}, {inst.users} users)",
                prepare=_unlinker(report),
                run=lambda argv=argv: _call_cli(argv),
                check=lambda res, inst=inst, report=report, fmt=fmt: _check_run_block(
                    inst, report, fmt, res
                ),
                cost_hint=float(inst.users),
            )
        )
    return ops


_TRUTHFUL_LINE = re.compile(r"^truthful: rank (\d+), social welfare (\S+)$", re.M)
_COLLECTIVE_LINE = re.compile(
    r"^collective: rank (\d+), eta (\S+) \((\w+)\), social welfare (\S+), ratio", re.M
)


@functools.cache
def _schema_validator():
    import jsonschema
    from rankgap import reports

    return jsonschema.Draft7Validator(reports.report_schema())


def _validate_schema(report: dict) -> None:
    """Validate a run report against the shipped schema.

    The schema constrains each per-user row on its own, so the rows are
    validated once per distinct content; the ``user`` field of every row is
    checked separately (it must equal the row index).
    """
    rows = report.get("per_user")
    if isinstance(rows, list):
        distinct = {}
        for row in rows:
            if isinstance(row, dict):
                key = json.dumps({k: v for k, v in row.items() if k != "user"}, sort_keys=True)
                distinct.setdefault(key, row)
            else:
                distinct.setdefault(repr(row), row)
        report = dict(report, per_user=list(distinct.values()))
    errors = sorted(_schema_validator().iter_errors(report), key=lambda e: list(e.path))
    require(not errors, f"schema: {errors[0].message}" if errors else "")


def _check_per_user(inst: BlockInstance, users, truthful, collective) -> None:
    require(users == list(range(inst.users)), "per-user rows are not users 0..m-1")
    require(
        sum(truthful) == sum(inst.popular),
        f"per-user truthful welfare sums to {sum(truthful)}, expected {sum(inst.popular)}",
    )
    expected = sum(inst.popular) + inst.picky
    require(
        sum(collective) == expected,
        f"per-user collective welfare sums to {sum(collective)}, expected {expected}",
    )
    worse = [u for u, (t, c) in enumerate(zip(truthful, collective)) if c < t]
    require(not worse, f"collective run is not Pareto: user {worse[:1]} loses welfare")


def _check_sides(inst: BlockInstance, t_rank, t_sw, c_rank, c_sw, eta) -> None:
    groups = len(inst.popular)
    require(t_rank == groups, f"truthful rank {t_rank}, expected {groups}")
    require(c_rank == groups + 1, f"collective rank {c_rank}, expected {groups + 1}")
    require(t_sw == sum(inst.popular), f"truthful welfare {t_sw}, expected {sum(inst.popular)}")
    expected = sum(inst.popular) + inst.picky
    require(c_sw == expected, f"collective welfare {c_sw}, expected {expected}")
    require(
        sufficient_conditions_hold(inst.finder_terms(), eta),
        f"eta {eta} fails the sufficient conditions recomputed from the group sizes",
    )


def _check_run_block(inst: BlockInstance, report_path: Path, fmt: str, result) -> None:
    code, stdout = result
    require(code == 0, f"rankgap run exited {code}")
    require(report_path.is_file(), f"no report at {report_path.name}")
    if fmt == "json":
        report = json.loads(report_path.read_bytes())
        _validate_schema(report)
        t, c = report["truthful"], report["collective"]
        require(c is not None, "report has no collective side")
        require(all(c["verdicts"].values()), f"a sufficiency verdict failed: {c['verdicts']}")
        _check_sides(
            inst, t["chosen_rank"], t["social_welfare"], c["chosen_rank"],
            c["social_welfare"], c["eta"],
        )
        rows = report["per_user"]
        _check_per_user(
            inst,
            [r["user"] for r in rows],
            [r["truthful_welfare"] for r in rows],
            [r["collective_welfare"] for r in rows],
        )
        return
    t_line = _TRUTHFUL_LINE.search(stdout)
    c_line = _COLLECTIVE_LINE.search(stdout)
    require(t_line is not None and c_line is not None, "run summary lines missing")
    require(c_line.group(3) == "auto", "eta was not found by the finder")
    _check_sides(
        inst, int(t_line.group(1)), float(t_line.group(2)), int(c_line.group(1)),
        float(c_line.group(4)), float(c_line.group(2)),
    )
    with report_path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _check_per_user(
        inst,
        [int(r["user"]) for r in rows],
        [float(r["truthful_welfare"]) for r in rows],
        [float(r["collective_welfare"]) for r in rows],
    )


# ---------------------------------------------------------------------------
# sweep_topk: `rankgap sweep` at k = 2 or 3 over many unequal groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepInstance:
    name: str
    popular: tuple[int, ...]
    niche: tuple[int, ...]
    top_k: int
    grid: tuple[float, float, float]  # start, stop, step

    @property
    def sizes(self) -> tuple[int, ...]:
        """Group size of every item, in column order."""
        return self.popular + self.niche

    def doc(self, seed: int) -> dict:
        start, stop, step = self.grid
        return {
            "name": self.name,
            "seed": seed,
            "matrix": {
                "family": "indicator",
                "popular_sizes": list(self.popular),
                "niche_sizes": list(self.niche),
            },
            "alpha_sweep": {"start": start, "stop": stop, "step": step},
            "top_k": self.top_k,
        }

    def expected(self, alpha: float) -> tuple[int, float]:
        """Chosen rank and social welfare at one tolerance.

        An indicator group of s users has singular value sqrt(s), so the
        learner keeps the groups with sqrt(s) > alpha (at least one).  Kept
        users get their own item.  A user of a dropped group has an all-zero
        estimate: their k-set is the kept items by popularity, filled with the
        lowest-index dropped items, and their welfare is 1 only when their
        own item is among those.
        """
        sizes = self.sizes
        order = sorted(range(len(sizes)), key=lambda j: -sizes[j])
        rank = max(1, sum(1 for s in sizes if math.sqrt(s) > alpha))
        kept = set(order[:rank])
        welfare = sum(sizes[j] for j in kept)
        if rank < self.top_k:
            dropped = sorted(j for j in range(len(sizes)) if j not in kept)
            welfare += sum(sizes[j] for j in dropped[: self.top_k - rank])
        return rank, float(welfare)


def _sweep_instance(rng, name: str, groups: int, points: int, tiny: bool) -> SweepInstance:
    lo, hi = (20, 40) if tiny else SWEEP_GROUP_USERS
    # Log-stratified group sizes: distinct, so every singular value is simple.
    edges = lo * (hi / lo) ** (np.arange(groups + 1) / groups)
    popular = [
        int(rng.integers(math.ceil(a), max(math.ceil(a) + 1, math.ceil(b))))
        for a, b in zip(edges[:-1], edges[1:])
    ]
    rng.shuffle(popular)
    first = int(rng.integers(2, 13))
    second = int(rng.choice([s for s in range(2, 13) if s != first]))
    niche = (first, second)
    top_k = int(rng.integers(2, 4))
    start = 1.0
    step = (math.sqrt(max(popular)) - start) / (points - 0.5)
    roots = [math.sqrt(s) for s in popular + list(niche)]
    # Keep every grid point clear of every singular value so the expected
    # rank does not hinge on the learner's tie tolerance.
    while any(abs(start + j * step - r) < 1e-6 * r for j in range(points) for r in roots):
        step *= 1.0 - 1e-3
    stop = start + (points - 0.5) * step
    return SweepInstance(name, tuple(popular), niche, top_k, (start, stop, step))


def _build_sweep_topk(rng, size: int, work_dir: Path, tiny: bool) -> list[Op]:
    g_lo, g_hi = (8, 10) if tiny else SWEEP_GROUPS
    p_lo, p_hi = SWEEP_GRID_POINTS
    # Group counts are stratified over [8, 32] (log scale); the grid gets
    # fewer points the more groups there are, so ops differ in shape more
    # than in cost and the pool's median op costs the same on every seed.
    group_q = _stratified(rng, size)
    ops = []
    for i in range(size):
        groups = round(g_lo * (g_hi / g_lo) ** group_q[i])
        points = p_lo if tiny else round(p_hi - (p_hi - p_lo) * group_q[i])
        inst = _sweep_instance(rng, f"sw{i:02d}", groups, points, tiny)
        op_dir = work_dir / inst.name
        op_dir.mkdir(parents=True, exist_ok=True)
        doc_path = _write_json(op_dir / "scenario.json", inst.doc(int(rng.integers(2**31))))
        out_dir = op_dir / "out"
        report = out_dir / f"{inst.name}.sweep.json"
        argv = ["sweep", "--config", str(doc_path), "--out", str(out_dir), "--format", "json"]
        ops.append(
            Op(
                label=f"{inst.name} ({len(inst.popular)} groups, {points} points, k={inst.top_k})",
                prepare=_unlinker(report),
                run=lambda argv=argv: _call_cli(argv),
                check=lambda res, inst=inst, report=report, points=points: _check_sweep(
                    inst, report, points, res
                ),
                cost_hint=float(sum(inst.sizes) * points),
            )
        )
    return ops


def _check_sweep(inst: SweepInstance, report_path: Path, points: int, result) -> None:
    code, _ = result
    require(code == 0, f"rankgap sweep exited {code}")
    require(report_path.is_file(), f"no report at {report_path.name}")
    runs = json.loads(report_path.read_bytes())["runs"]
    require(len(runs) == points, f"{len(runs)} grid points, expected {points}")
    for run in runs:
        rank, welfare = inst.expected(run["alpha"])
        require(
            run["chosen_rank"] == rank,
            f"alpha {run['alpha']}: chosen rank {run['chosen_rank']}, expected {rank}",
        )
        require(
            abs(run["social_welfare"] - welfare) <= 1e-9 * max(1.0, welfare),
            f"alpha {run['alpha']}: welfare {run['social_welfare']}, expected {welfare}",
        )


# ---------------------------------------------------------------------------
# certify: one library-level guarantee round per op
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifySeeds:
    strategy: int
    gap: int
    finder: int
    mc: int


@dataclass
class CertifyResult:
    strategy_verdict: bool
    gap_in_class: bool
    gap_bounds_ok: bool
    gap_distance: float
    gap_matrix: np.ndarray
    gap_n_bar: int
    larger_split: tuple[bool, bool | None]
    draws: list  # (finder inputs, eta, check verdict or None, grid result or None)
    rejects: int
    mc_estimate: float


def _build_certify(rng, size: int, tiny: bool) -> list[Op]:
    from rankgap import fixtures

    mc_matrix, mc_split = fixtures.mc_10x10()
    rejects = 1 if tiny else CERTIFY_FINDER_REJECTS
    trials = 2_000 if tiny else CERTIFY_MC_TRIALS
    ops = []
    for i in range(size):
        seeds = CertifySeeds(*(int(s) for s in rng.integers(2**31, size=4)))
        ops.append(
            Op(
                label=f"cf{i:02d} (seeds {seeds.strategy}, {seeds.gap}, {seeds.finder}, {seeds.mc})",
                prepare=lambda: None,
                run=lambda seeds=seeds: _certify_round(seeds, rejects, mc_matrix, mc_split, trials),
                check=lambda res, m=mc_matrix, p=mc_split: _check_certify(res, m, p, trials),
                cost_hint=float(i),
            )
        )
    return ops


def _certify_round(seeds: CertifySeeds, rejects: int, mc_matrix, mc_split, trials: int):
    # Module attributes are looked up at call time so a traced run sees the
    # wrapped functions.
    from rankgap import collective, completion, generators, popgap

    inst = generators.general_strategy_instance(np.random.default_rng(seeds.strategy))
    verdict = popgap.check_general_sufficiency(
        inst.matrix, inst.n_bar, inst.strategy.replacement_column, inst.alpha
    ).verdict

    gap = generators.gap_class_instance(np.random.default_rng(seeds.gap))
    membership = popgap.class_membership(gap.matrix, gap.n_bar)
    bounds = popgap.singular_bounds_check(gap.matrix, gap.n_bar)
    distance = popgap.projection_gap_check(gap.matrix, gap.n_bar)
    larger = popgap.no_larger_nbar_check(gap.matrix, gap.n_bar)

    finder_rng = np.random.default_rng(seeds.finder)
    results = []
    while sum(eta == 0.0 for _, eta, _, _ in results) < rejects:
        if len(results) == CERTIFY_FINDER_MAX_DRAWS:
            break
        z = generators.random_finder_inputs(finder_rng)
        eta = collective.find_eta(z)
        if eta > 0.0:
            results.append((z, eta, collective.check_sufficient_conditions(z, 0.0, eta).verdict, None))
        else:
            results.append(
                (z, eta, None, collective.grid_feasible_eta(z, 0.0, steps=CERTIFY_GRID_STEPS))
            )

    estimate = completion.miss_probability_mc(
        mc_matrix, mc_split, CERTIFY_MC_PER_USER, trials, seeds.mc
    )
    return CertifyResult(
        strategy_verdict=verdict,
        gap_in_class=membership.in_class,
        gap_bounds_ok=bounds.lower_ok and bounds.upper_ok,
        gap_distance=distance,
        gap_matrix=gap.matrix.entries,
        gap_n_bar=gap.n_bar,
        larger_split=(larger.premise_holds, larger.confirmed),
        draws=results,
        rejects=rejects,
        mc_estimate=estimate,
    )


def _finder_terms(z) -> dict:
    return {
        "sigma_kmaj": z.sigma_kmaj,
        "alpha": z.alpha,
        "n_bar": z.n_bar,
        "picky_col_sq": z.picky_col_sq,
        "av": z.av,
        "kappa": z.kappa,
        "coll_size": z.coll_size,
        "sigma1_min": 0.0,
    }


def _grid_has_passing_point(z, steps: int) -> bool:
    """Vectorised scan of eta = kappa j / steps, j = 1..steps-1."""
    eta = z.kappa * np.arange(1, steps) / steps
    radicand = (
        np.minimum(z.sigma_kmaj**2, eta**2 * z.coll_size + z.picky_col_sq)
        - eta * math.sqrt(z.n_bar) * z.av
    )
    ok = (eta > 0.0) & (eta < z.kappa) & (z.alpha**2 < radicand) & (z.alpha > 0.0)
    return bool(ok.any())


def _ratings_gap(entries: np.ndarray, n_bar: int) -> float:
    n = entries.shape[1]
    kappa = float(entries[:, n_bar:].sum(axis=0).max())
    sigma = float(np.linalg.svd(entries[:, :n_bar], compute_uv=False)[n_bar - 1])
    return 2.0**2.5 * kappa * n**1.5 / sigma**2


def miss_probability_exact(entries: np.ndarray, minority_users, minority_items, per_user: int) -> float:
    """Product over minority rows with h positive entries of C(n-h, q) / C(n, q)."""
    n = entries.shape[1]
    prob = 1.0
    for u in sorted(minority_users):
        hot = sum(1 for i in minority_items if entries[u, i] != 0.0)
        if hot:
            prob *= math.comb(n - hot, per_user) / math.comb(n, per_user)
    return prob


def _check_certify(res: CertifyResult, mc_matrix, mc_split, trials: int) -> None:
    require(res.strategy_verdict is True, "strategy instance failed its sufficiency re-check")
    require(res.gap_in_class, "gap-class instance is out of class")
    require(res.gap_bounds_ok, "gap-class instance violates its singular-value bounds")
    limit = _ratings_gap(res.gap_matrix, res.gap_n_bar) / (2 * math.sqrt(res.gap_matrix.shape[1]))
    require(
        res.gap_distance <= limit,
        f"projection distance {res.gap_distance} exceeds ratings gap bound {limit}",
    )
    require(res.larger_split == (True, True), f"larger-split check gave {res.larger_split}")
    rejected = sum(eta == 0.0 for _, eta, _, _ in res.draws)
    require(rejected == res.rejects, f"{rejected} rejected finder draws, expected {res.rejects}")
    for z, eta, verdict, grid in res.draws:
        if eta > 0.0:
            require(verdict is True, f"finder value {eta} fails the program's check")
            require(
                sufficient_conditions_hold(_finder_terms(z), eta),
                f"finder value {eta} fails the recomputed conditions",
            )
        else:
            require(grid is None, f"finder rejected a draw the grid oracle passes at {grid}")
            require(
                not _grid_has_passing_point(z, CERTIFY_GRID_STEPS),
                "finder rejected a draw with a passing grid point",
            )
    exact = miss_probability_exact(
        mc_matrix.entries, mc_split.minority_users, mc_split.minority_items, CERTIFY_MC_PER_USER
    )
    sigma = math.sqrt(exact * (1 - exact) / trials)
    require(
        abs(res.mc_estimate - exact) <= CERTIFY_MC_SIGMAS * sigma,
        f"Monte Carlo estimate {res.mc_estimate} is not within "
        f"{CERTIFY_MC_SIGMAS:g} sigma of {exact}",
    )
