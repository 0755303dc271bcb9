"""Scenario documents and the scenes they resolve to.

Scenario documents are JSON.  A document resolves, together with its seed, to
a scene: a concrete matrix under the block model (with its partition) or the
popularity model (with its split), a tolerance, and an optional uprating
strategy priced on the scene.  The same document and seed always resolve to
the same scene.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import generators
from .collective import (
    CollectiveStrategy,
    FinderInputs,
    _collective_index,
    _column_sq,
    _power,
    _require_majority,
    aggregate_value,
    find_eta,
)
from .learner import kappa_k
from .matrix import (
    GroupPartition,
    OpenInterval,
    RatingsMatrix,
    _block_sigmas,
    block_partition,
    find_picky_items,
    load_ratings_csv,
)
from .popgap import PopularitySplit

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
    "sweep_grid",
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
        # Output files are named after the scenario, inside the output directory.
        name = doc.get("name", "scenario")
        if not name or any(c in name for c in "/\\\0"):
            raise ValueError(
                f"name must be a nonempty file name without '/', '\\' or NUL, got {name!r}"
            )
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
            _sweep_bounds(sweep_spec)  # refuses a grid that no sweep could run
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
            name=str(name),
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


def sweep_grid(spec: dict) -> list[float]:
    """Half-open grid [start, stop) with the given step."""
    start, end, step = _sweep_bounds(spec)
    grid = []
    value = start
    index = 0
    while value < end:
        grid.append(value)
        index += 1
        value = start + index * step
    return grid


def _sweep_bounds(spec: dict) -> tuple[float, float, float]:
    """An alpha_sweep's start, the end its points stay below (stop less a
    relative 1e-12) and its step, refused as ``sweep_grid`` refuses them,
    without building the grid."""
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
    end = stop - 1e-12 * max(1.0, abs(stop))
    if not start < end:  # the grid loop's first test
        raise ValueError("alpha sweep grid is empty")
    return start, end, step


@dataclass(frozen=True, eq=False)
class MaterializedScenario:
    """A scenario resolved to concrete data under its model: the one scene
    that ``run`` and ``sweep`` read.

    The block model has a ``partition`` and no ``split``; the popularity model
    (``gap_class``) has a ``split`` and no partition.  ``alpha`` is the
    document's, else the family's drawn one, else None.  ``class_codes[u]``
    indexes ``class_labels``, and ``summary`` is the reports' ``matrix``
    block.  A block-model scene refuses, with a PartitionError, a partition
    that is not valid for its matrix.  Scenes compare by identity.
    """

    scenario: Scenario
    matrix: RatingsMatrix
    partition: GroupPartition | None
    split: PopularitySplit | None
    alpha: float | None
    class_codes: np.ndarray
    class_labels: tuple[str, ...]
    summary: dict

    def __post_init__(self) -> None:
        # A scene's matrix and partition never change, so they are validated
        # once, here, and gap_interval() reads the blocks unvalidated.
        if self.partition is not None:
            self.partition.validate_for(self.matrix)

    def gap_interval(self) -> OpenInterval:
        """The true matrix's gap window under the scene's model."""
        if self.split is not None:
            return self.split.window
        sigma_kmaj, sigma1_min = _block_sigmas(self.matrix, self.partition)
        return OpenInterval(sigma1_min, sigma_kmaj)

    def resolve_strategy(self, alpha: float) -> tuple[CollectiveStrategy, FinderInputs, float, str]:
        """The strategy on the matrix, its finder inputs, sigma1_min and the eta
        source.  Scenario.from_dict has judged the spec, so the refusals here
        need the matrix: no picky item, a target outside the minority items, a
        collective outside the majority, or a finder's 0."""
        spec = self.scenario.strategy_spec
        matrix, partition = self.matrix, self.partition

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


def generate_scenario(doc: dict) -> MaterializedScenario:
    """Resolve a scenario document to its scene, deterministically.  The one
    place that tells the block model from the popularity model."""
    scenario = Scenario.from_dict(doc)
    spec, drawn, split = scenario.matrix_spec, None, None
    family = spec["family"]
    if family == "gap_class":
        inst = generators.gap_class_instance(np.random.default_rng(scenario.seed))
        split, partition, drawn = inst.split, None, inst.alpha
        matrix, n_bar = split.matrix, split.n_bar
        majority, minority = split.class_masks
        class_codes = np.select([majority & minority, majority], [0, 1], 2)
        class_labels = ("both", "majority", "minority")
        counts = (split.majority_users.size, split.minority_users.size, n_bar, matrix.cols - n_bar)
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
        else:
            sc = generators.random_block_scenario(np.random.default_rng(scenario.seed))
            matrix, partition, drawn = sc.matrix, sc.partition, sc.alpha
        class_codes = np.ones(matrix.rows, dtype=np.intp)
        class_codes[partition.majority_users] = 0
        class_labels = ("majority", "minority")
        counts = [len(getattr(partition, key)) for key in GROUP_KEYS]
    class_codes.setflags(write=False)
    return MaterializedScenario(
        scenario=scenario,
        matrix=matrix,
        partition=partition,
        split=split,
        alpha=drawn if scenario.alpha is None else scenario.alpha,
        class_codes=class_codes,
        class_labels=class_labels,
        summary={"rows": matrix.rows, "cols": matrix.cols, **dict(zip(GROUP_KEYS, counts))},
    )
